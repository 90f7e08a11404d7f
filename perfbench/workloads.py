"""The benchmark's workloads, each a fixed list of operations made from a seed.

A workload object has
  ops             the operations of one pass, made from the seed;
  setup()         import and warm-up, up to the first timed operation;
  reset()         restore the state a pass starts from (untimed);
  run(op)         one timed operation through divconv's public API;
  expected(op)    the correct result, from an oracle or a stored golden
                  file, computed after the timed section.
divconv is imported in setup(), so set-up time includes the import.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# cold `convsum` per fixture level (10, 11, 12, 15, 24, 33, 40, 56), the
# repair-only level 42 and level 21, which has no spanning basis (exit 3).
# The fixture levels that resolve in well under a second run
# RESOLVE_FAST_REPEAT times per pass: each then counts with the median of
# that many cold calls, and the median and the tail (the 11th slowest call)
# each fall inside a group of calls to one level, not on the boundary
# between two levels of similar cost.
RESOLVE_PAIRS = [(1, 10), (1, 11), (3, 4), (3, 5), (3, 8), (3, 11), (5, 8), (7, 8), (6, 7), (1, 21)]
RESOLVE_FAST = [(1, 10), (1, 11), (3, 4), (3, 5), (3, 11), (5, 8), (7, 8)]
RESOLVE_FAST_REPEAT = 10
# Levels 40 and 56 as in the tier-1 search tests, but with |r_delta| <= 4
# instead of 10: the same DFS, about 1 s a call instead of 30 s.  A pass
# runs each search SEARCH_REPEAT times and passes repeat for the run's
# seconds, so each level counts with the median of several calls.
SEARCH_LEVELS = [40, 56]
SEARCH_BOUND = 4
SEARCH_REPEAT = 2

# (kind, a, b, operations per pass); n is drawn from 1..EVALUATE_MAX_N
EVALUATE_MIX = (
    [("W", a, b, 100) for a, b in [(1, 10), (2, 5), (1, 11), (3, 4), (1, 14), (2, 7), (3, 5),
                                  (4, 5), (2, 11), (4, 7), (3, 11), (5, 8), (7, 8)]]
    + [("W", a, b, 80) for a, b in [(2, 20), (6, 9), (4, 22), (14, 16)]]
    + [("W", a, b, 60) for a, b in [(1, 1), (5, 5), (7, 7)]]
    + [("N", a, b, 100) for a, b in [(1, 3), (1, 10), (2, 5), (1, 14), (2, 7)]]
    + [("R", a, b, 100) for a, b in [(1, 2), (1, 4), (1, 5), (1, 11)]]
)
EVALUATE_MAX_N = 200

TABLE_PAIRS = [(1, 10), (3, 11), (7, 8)]
TABLE_X = 320


def search_digest(quotients) -> dict:
    """Hit count and sha256 of the sorted exponent vectors."""
    vectors = sorted(q.vector() for q in quotients)
    text = "\n".join(",".join(map(str, v)) for v in vectors)
    return {"hits": len(vectors), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


class Resolve:
    """Cold `divconv --machine convsum a b`, each call with a fresh provider
    and its own empty cache directory."""

    def __init__(self, seed: int, tmp: str):
        self.ops = RESOLVE_PAIRS + RESOLVE_FAST * (RESOLVE_FAST_REPEAT - 1)
        random.Random(seed).shuffle(self.ops)
        self.tmp = tmp
        self.calls = 0

    def setup(self):
        from divconv import cli

        self.cli = cli

    def reset(self):
        pass

    def run(self, op):
        a, b = op
        self.calls += 1
        cache_dir = os.path.join(self.tmp, f"cache-{self.calls}")
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(["--machine", "--cache-dir", cache_dir, "convsum", str(a), str(b)])
        return [code, out.getvalue()]

    def expected(self, op):
        g = load_golden("resolve.json")[f"{op[0]},{op[1]}"]
        return [g["exit"], g["stdout"]]


class Search:
    """The exhaustive non-strict weight-4 search, max_order = dim S4."""

    def __init__(self, seed: int, tmp: str):
        self.ops = SEARCH_LEVELS * SEARCH_REPEAT
        random.Random(seed).shuffle(self.ops)

    def setup(self):
        from divconv import eta, spaces

        self.eta = eta
        self.spaces = spaces

    def reset(self):
        pass

    def run(self, N):
        found = self.eta.search_cusp_forms(
            N, 8, SEARCH_BOUND, max_order=self.spaces.profile(N).dim_S4
        )
        return search_digest(found)

    def expected(self, N):
        return load_golden("search.json")[f"{N},{SEARCH_BOUND}"]


class _WarmW:
    """Shared by the point and table workloads: W through one warm provider."""

    def setup(self):
        from divconv import convolution, representation

        self.convolution = convolution
        self.representation = representation
        self.warm()

    def warm(self):
        self.provider = self.convolution.FormulaProvider()
        for kind, a, b in sorted({op[:3] for op in self.ops}):
            self.run((kind, a, b, 1))

    def run(self, op):
        kind, a, b, n = op
        if kind == "W":
            return self.convolution.dispatch_W(a, b, n, self.provider)
        count = self.representation.count_N if kind == "N" else self.representation.count_R
        return count(a, b, n, self.provider.w)

    def expected(self, op):
        kind, a, b, n = op
        if kind == "W":
            return self.convolution.brute_force_W(a, b, n)
        return self.representation.rep_oracle("quad" if kind == "N" else "hex", a, b, n)


class Evaluate(_WarmW):
    """Seeded point queries on a provider warmed for every pair they use."""

    def __init__(self, seed: int, tmp: str):
        rng = random.Random(seed)
        self.ops = [
            (kind, a, b, rng.randint(1, EVALUATE_MAX_N))
            for kind, a, b, count in EVALUATE_MIX
            for _ in range(count)
        ]
        rng.shuffle(self.ops)

    def reset(self):
        # point queries stay below the basis precision: nothing to restore
        pass


class Table(_WarmW):
    """W_(a,b)(n) for n = 1..TABLE_X ascending, pair order from the seed."""

    def __init__(self, seed: int, tmp: str):
        pairs = list(TABLE_PAIRS)
        random.Random(seed).shuffle(pairs)
        self.ops = [("W", a, b, n) for a, b in pairs for n in range(1, TABLE_X + 1)]

    def reset(self):
        # a fresh warm provider, so that every pass re-expands the bases again
        self.warm()


WORKLOADS = {"resolve": Resolve, "search": Search, "evaluate": Evaluate, "table": Table}
