"""Outside-in tracer: spans around calls into divconv's public functions.

Nothing inside divconv is changed.  `install` replaces a public function by
a timing wrapper under every name any divconv module bound it to (so a call
through `from .linalg import solve` is seen as well as one through
`linalg.solve`), and a few methods on their classes.  Spans stay in memory
with a parent link and are summarised, or written out, after the run;
`uninstall` puts every original back.

A span records (name, parent index, start, end, counters).  A layer's self
time (`busy_s`) is the sum of its spans' durations minus the durations of
their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs, post=None):
        """Run fn(*args, **kwargs) inside a span; post(args, kwargs, result)
        returns the span's counters (result is None when fn raised)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            counters = post(args, kwargs, result) if post else None
            spans[idx] = (name, parent, start, end, counters)

    def wrap(self, name, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, post)

        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, replacement):
        """setattr(owner, attr, replacement), undone by uninstall()."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_function(self, original, replacement, modules=None):
        """Rebind every module-level name that refers to `original`."""
        if modules is None:
            modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "divconv"]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, replacement)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def summary(self):
        """{span name: {"busy_s": self time, "calls": n, <counter>: total}}."""
        busy = defaultdict(float)
        calls = Counter()
        counts = defaultdict(Counter)
        for name, parent, start, end, counters in self.spans:
            d = end - start
            busy[name] += d
            calls[name] += 1
            if parent >= 0:
                busy[self.spans[parent][0]] -= d
            if counters:
                counts[name].update(counters)
        return {
            name: {"busy_s": busy[name], "calls": calls[name], **counts[name]}
            for name in calls
        }

    def write(self, path):
        """One JSON line per span: [id, parent, name, start, end, counters]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, start, end, counters) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end, counters or {}]) + "\n")


def _terms(args, kwargs, result):
    # a q-series or a basis: its expansion length T + 1
    if result is None or result is NotImplemented:
        return None
    return {"terms": result.precision + 1}


def _failed(args, kwargs, result):
    return {"failed": 1} if result is None else None


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of divconv that the per-layer metrics name."""
    from divconv import cache, cli, convolution, eta, linalg, qseries, representation, spaces

    def fn(original, name, post=None, modules=None):
        tracer.patch_function(original, tracer.wrap(name, original, post), modules)

    fn(linalg.solve, "linalg.solve", lambda a, k, r: {"rows": len(a[0])})
    fn(linalg.rank, "linalg.rank")

    search = eta.search_cusp_forms
    search_sig = inspect.signature(search)

    def traced_search(*args, **kwargs):
        strict = search_sig.bind(*args, **kwargs).arguments.get("strict", False)
        name = "eta.search_strict" if strict else "eta.search_full"
        return tracer.call(name, search, args, kwargs, lambda a, k, r: {"hits": len(r or ())})

    tracer.patch_function(search, functools.wraps(search)(traced_search))

    fn(qseries.eta_quotient_series, "qseries.eta_series", _terms)
    for e in (qseries.eisenstein_M, qseries.eisenstein_weight2):
        fn(e, "qseries.eisenstein", modules=[spaces])
    fn(qseries.squared_difference, "qseries.squared_difference")
    tracer.patch(
        qseries.QSeries, "__mul__", tracer.wrap("qseries.mul", qseries.QSeries.__mul__, _terms)
    )

    fn(spaces.build_basis, "spaces.build", _terms)
    fn(spaces.load_fixture_basis, "spaces.fixture")
    fn(spaces.repair_basis, "spaces.repair")
    fn(
        spaces.select_cusp_basis,
        "spaces.select",
        lambda a, k, r: {"candidates": len(a[1]), "chosen": len(r.cusp) if r else 0},
    )
    at_precision = spaces.ModularBasis.at_precision

    def traced_at_precision(self, T):
        # only a real re-expansion is a span; the no-op return is not
        if T <= self.precision:
            return at_precision(self, T)
        return tracer.call("spaces.reexpand", at_precision, (self, T), {})

    tracer.patch(spaces.ModularBasis, "at_precision", traced_at_precision)

    fn(convolution.derive_formula, "convolution.derive", _failed)
    fn(convolution.evaluate_W, "convolution.evaluate")
    fn(convolution.dispatch_W, "convolution.dispatch")
    tracer.patch(
        convolution.FormulaProvider,
        "basis_for",
        tracer.wrap("convolution.basis_for", convolution.FormulaProvider.basis_for),
    )

    sigma_users = [qseries, convolution, representation]
    fn(qseries.sigma, "arith.sigma", modules=sigma_users)
    fn(convolution.sigma_scaled, "arith.sigma", modules=sigma_users)

    for count in (representation.count_N, representation.count_R):
        tracer.patch_function(count, _traced_count(tracer, count))

    for attr in ("store_basis", "store_formula"):
        tracer.patch(
            cache.Cache, attr, tracer.wrap("cache.store", getattr(cache.Cache, attr), _stored_bytes)
        )

    fn(cli.main, "cli.main")


def _stored_bytes(args, kwargs, result):
    # cache files are named {kind}-{level}.json inside the cache directory
    if result is None:
        return None
    path = os.path.join(args[0].directory, f"{result.kind}-{result.level}.json")
    return {"bytes": os.path.getsize(path)}


def _traced_count(tracer, count):
    @functools.wraps(count)
    def traced(a, b, n, w):
        calls = [0]

        def counted_w(*args):
            calls[0] += 1
            return w(*args)

        return tracer.call(
            "representation.count", count, (a, b, n, counted_w), {}, lambda *_: {"w_calls": calls[0]}
        )

    return traced
