"""Command-line front end.

Subcommands: dims, search-cusp, basis, convsum, repnum, verify-paper.
Exit codes: 0 success, 2 usage error, 3 unsupported level (or a
search above its ceiling), 4 internal invariant breach; main prints each
failure as one stderr line (error:, unsupported level:, search too large:,
derivation failed:, internal invariant breach:), and argparse its own usage
errors (such as basis --use-fixture with --repair) with exit 2.  Only
search-cusp takes --bound, which exits 2 below 1; basis, convsum and repnum
search at eta.SEARCH_BOUND.  --machine and --cache-dir go before or after
the subcommand; --machine switches to deterministic JSON with exact
rationals encoded as "p/q" strings, and --cache-dir is written only by
basis and convsum.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import gcd

from .arith import classify_level, divisors
from .convolution import (
    DerivationError,
    FormulaIntegrityError,
    FormulaProvider,
    derive_formula,
    dispatch_W,
)
from .eta import SEARCH_BOUND, SearchCeilingError, order_at_infinity, search_cusp_forms
from .spaces import (
    UnsupportedLevelError,
    load_fixture_basis,
    profile,
    repair_basis,
    search_basis,
    search_max_order,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def encode_rational(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _emit(args, machine_doc, human_lines):
    try:
        if args.machine:
            print(json.dumps(machine_doc, sort_keys=True, separators=(",", ": "), indent=1))
        else:
            for line in human_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: drop the rest (so the flush at exit cannot
        # raise again) and let the command's own exit code stand
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_dims(args) -> int:
    prof = profile(args.level)
    doc = {**prof._asdict(), "in_class": classify_level(args.level).in_class}
    lines = [
        f"level {prof.level}: index mu={prof.index_mu} eps2={prof.eps2} "
        f"eps3={prof.eps3} cusps={prof.cusp_count} genus={prof.genus}",
        f"dim_E4={prof.dim_E4} dim_S4={prof.dim_S4} dim_M4={prof.dim_M4}",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_search_cusp(args) -> int:
    N = args.level
    max_order = search_max_order(N) if args.max_order is None else args.max_order
    found = search_cusp_forms(N, 8, bound=args.bound, max_order=max_order, strict=args.strict)
    divs = divisors(N)
    vectors = [q.vector() for q in found]
    orders = [order_at_infinity(q) for q in found]
    # only the printed form is built
    if args.machine:
        rows = [
            {"exponents": [[d, r] for d, r in zip(divs, rs) if r], "order": order}
            for rs, order in zip(vectors, orders)
        ]
        doc = {"level": N, "bound": args.bound, "max_order": max_order, "count": len(found), "quotients": rows}
        _emit(args, doc, [])
    else:
        lines = [
            f"level {N}: {len(found)} cusp quotients (bound {args.bound}, order <= {max_order})",
            "  order | " + " ".join(f"{d:>5}" for d in divs),
        ]
        lines += [f"  {order:>5} | " + " ".join(f"{r:>5}" for r in rs) for rs, order in zip(vectors, orders)]
        _emit(args, {}, lines)
    return EXIT_OK


def cmd_basis(args) -> int:
    N = args.level
    if args.use_fixture:
        basis = load_fixture_basis(N)
    elif args.repair:
        basis = repair_basis(N)
    else:
        basis = search_basis(N)
    if args.cache_dir:
        from .cache import Cache  # loaded only when --cache-dir is given

        Cache(args.cache_dir).store_basis(basis)
    doc = {
        "level": N,
        "checksum": basis.checksum,
        "eisenstein": list(basis.eisenstein),
        "cusp": [
            {"label": g.describe(), "order": g.order(), "kind": g.kind}
            for g in basis.cusp
        ],
        "defects": list(basis.defects),
    }
    lines = [f"level {N}: {len(basis.eisenstein)} Eisenstein + {len(basis.cusp)} cusp generators ({basis.checksum})"]
    for g in basis.cusp:
        lines.append(f"  order {g.order():>2}  {g.describe()}")
    for d in basis.defects:
        lines.append(f"  defect: {d}")
    _emit(args, doc, lines)
    return EXIT_OK


def _formula_doc(f):
    sigma3, cusp = f.w_terms
    return {
        "alpha": f.alpha,
        "beta": f.beta,
        "level": f.level,
        "verified_to": f.verified_to,
        "basis": f.basis.checksum,
        "sigma3_terms": {str(d): encode_rational(c) for d, c in sigma3.items()},
        "sigma_tail": [
            f"(1/24 - n/{4 * f.beta}) sigma(n/{f.alpha})",
            f"(1/24 - n/{4 * f.alpha}) sigma(n/{f.beta})",
        ],
        "cusp_terms": {str(j): encode_rational(c) for (j, _), c in cusp.items()},
        "generators": [g.describe() for g in f.basis.cusp],
    }


def cmd_convsum(args) -> int:
    a, b = args.alpha, args.beta
    if a < 1 or b < 1:
        raise ValueError(f"alpha and beta must be >= 1, got ({a}, {b})")
    g = gcd(a, b)
    if a == b:
        lines = [
            f"W_({a},{a})(n) = W_(1,1)(n/{a}) = (5/12) sigma3(n/{a}) + (1/12 - n/(2*{a})) sigma(n/{a})"
        ]
        _emit(args, {"alpha": a, "beta": b, "diagonal": True}, lines)
        return EXIT_OK
    if g > 1:
        a1, b1 = a // g, b // g
        lines = [f"gcd {g} > 1: W_({a},{b})(n) = W_({a1},{b1})(n/{g}); deriving the reduced pair"]
    else:
        a1, b1 = a, b
        lines = []
    level = a1 * b1
    if args.use_fixture:
        f = derive_formula(a1, b1, load_fixture_basis(level))
    else:
        f = FormulaProvider().formula(a1, b1)
        if f.basis.fixture_failure:
            lines.append(f"note: fixture basis unusable ({f.basis.fixture_failure}); using repaired basis")
    if args.cache_dir:
        from .cache import Cache  # loaded only when --cache-dir is given

        # the formula first: its store reads the directory and may refuse it
        cache = Cache(args.cache_dir)
        cache.store_formula(f)
        cache.store_basis(f.basis)
    doc = _formula_doc(f)
    lines.append(
        f"W_({a1},{b1})(n), level {level}, expansion of ({a1} L(q^{a1}) - {b1} L(q^{b1}))^2 "
        f"verified to n={f.verified_to}:"
    )
    for d, c in doc["sigma3_terms"].items():
        lines.append(f"  {c:>24}  * sigma3(n/{d})")
    lines.append("  " + " + ".join(doc["sigma_tail"]))
    for (j, c), g in zip(doc["cusp_terms"].items(), doc["generators"]):
        if c != "0":
            lines.append(f"  {c:>24}  * b_{j}(n)   [{g}]")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_repnum(args) -> int:
    from .representation import count_N, count_R  # repnum alone counts

    a, b, n = args.a, args.b, args.n
    provider = FormulaProvider()
    calls: list[tuple[int, int, int]] = []

    def w(x, y, m):
        calls.append((x, y, m))
        return dispatch_W(x, y, m, provider)

    count = count_N if args.form == "quad" else count_R
    value = count(a, b, n, w)
    doc = {
        "form": args.form,
        "a": a,
        "b": b,
        "n": n,
        "count": value,
        "w_invocations": [list(c) for c in calls],
    }
    lines = [f"{'N' if args.form == 'quad' else 'R'}_({a},{b})({n}) = {value}"]
    lines += [f"  W_({x},{y})({m})" for x, y, m in calls]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    from . import verify as verify_mod  # verify-paper alone reads it

    results = verify_mod.run_all(FormulaProvider())
    doc = {
        "items": [
            {"item": r.item, "status": r.status, "detail": r.detail} for r in results
        ],
        "failed": sum(1 for r in results if r.status == verify_mod.FAIL),
        "passed": sum(1 for r in results if r.status == verify_mod.PASS),
        "documented_discrepancies": sum(
            1 for r in results if r.status == verify_mod.DISCREPANCY
        ),
        "skipped": sum(1 for r in results if r.status == verify_mod.SKIPPED),
    }
    lines = [r.line() for r in results]
    lines.append(
        f"== {doc['passed']} passed, {doc['documented_discrepancies']} documented "
        f"discrepancies, {doc['skipped']} skipped, {doc['failed']} failed"
    )
    _emit(args, doc, lines)
    return EXIT_OK if doc["failed"] == 0 else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    # the global flags, declared once and shared by the main parser and every
    # subparser; SUPPRESS keeps a subparser from clobbering a value the main
    # parser read, and main supplies the defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--machine", action="store_true", default=argparse.SUPPRESS, help="deterministic JSON output"
    )
    common.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        help="basis and convsum write their basis and formula to this directory; "
        "every other subcommand accepts it and writes nothing (nothing is written without it)",
    )
    p = argparse.ArgumentParser(
        prog="divconv",
        description="Exact convolution sums of the divisor function via "
        "weight-4 modular form bases, and octonary quadratic form "
        "representation counts.",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dims", help="space dimensions and invariants for a level", parents=[common])
    d.add_argument("level", type=int)
    d.set_defaults(func=cmd_dims)

    s = sub.add_parser("search-cusp", help="exhaustive weight-4 cusp quotient search", parents=[common])
    s.add_argument("level", type=int)
    s.add_argument("--bound", type=int, default=SEARCH_BOUND)
    s.add_argument("--max-order", type=int, default=None)
    s.add_argument("--strict", action="store_true", help="also require the companion congruence")
    s.set_defaults(func=cmd_search_cusp)

    b = sub.add_parser("basis", help="construct and print a cusp basis", parents=[common])
    b.add_argument("level", type=int)
    mode = b.add_mutually_exclusive_group()
    mode.add_argument("--use-fixture", action="store_true")
    mode.add_argument("--repair", action="store_true", help="certified-membership candidates only")
    b.set_defaults(func=cmd_basis)

    c = sub.add_parser("convsum", help="derive the closed form of W_(alpha,beta)", parents=[common])
    c.add_argument("alpha", type=int)
    c.add_argument("beta", type=int)
    c.add_argument("--use-fixture", action="store_true")
    c.set_defaults(func=cmd_convsum)

    r = sub.add_parser("repnum", help="octonary representation count", parents=[common])
    r.add_argument("--form", choices=("quad", "hex"), required=True)
    r.add_argument("a", type=int)
    r.add_argument("b", type=int)
    r.add_argument("n", type=int)
    r.set_defaults(func=cmd_repnum)

    v = sub.add_parser("verify-paper", help="run the embedded regression suite", parents=[common])
    v.set_defaults(func=cmd_verify_paper)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv, argparse.Namespace(machine=False, cache_dir=None))
    try:
        return args.func(args)
    except FormulaIntegrityError as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except UnsupportedLevelError as e:
        print(f"unsupported level: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except SearchCeilingError as e:
        print(f"search too large: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except DerivationError as e:
        print(f"derivation failed: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
