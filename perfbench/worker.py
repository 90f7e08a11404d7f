"""Run one workload in this (fresh) process and write its figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --tmp DIR --out FILE [--setup-only] [--trace FILE]

Set-up is timed from before divconv is imported to the first timed
operation.  Then whole passes over the workload's operations run until
--seconds have gone by (at least one pass), while a timer runs the
reference loop of refclock.py every 20 ms.  Every latency, set-up included,
less the reference loops inside it, is scaled to the reference host by the
reference loops during and around it.  An
operation that runs more than once counts with the median of its scaled
latencies; wall_s is the sum of those over one pass, op_p50_ms and
op_tail_ms their median and tail, ops_per_s the operations of a pass over
wall_s.  After the timed section every result is checked against the
workload's oracle or golden data, untimed and untraced.  With --trace the
timed operations run under the outside-in tracer and the spans are written
to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

import tracer as tracing
from refclock import REF_MS, RefClock
from workloads import WORKLOADS

SETUP_REF_S = 0.25  # reference loops back to back on each side of set-up


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when that percentile would not lie above
    the median, which is so for 20 samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    clock = RefClock()
    clock.start()
    clock.burst(SETUP_REF_S)
    t0, e0 = perf_counter(), clock.elapsed
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None)
    args = p.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    wl.setup()
    t1 = perf_counter()
    setup_raw = t1 - t0 - (clock.elapsed - e0)
    clock.burst(SETUP_REF_S)
    setup_s = setup_raw * clock.scale(t0, t1)
    import divconv

    src = os.path.dirname(os.path.dirname(os.path.abspath(divconv.__file__)))
    if args.setup_only:
        clock.stop()
        return _write(args.out, {"setup_s": setup_s, "src": src})

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    # Per pass, per operation: start, end and reference time inside, as a
    # flat array of doubles.  Only the first pass's results are kept; a later
    # result that differs from them is kept with its position.  So memory,
    # and peak_rss_mb, hardly grow with the number of passes, which depends
    # on the host's speed.
    passes = []
    first, differing = None, []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        if passes:
            wl.reset()
        spans, results = array("d"), []
        for op in wl.ops:
            t, inside0 = perf_counter(), clock.elapsed
            try:
                if tracer:
                    tracer.enabled = True
                    r = tracer.call("bench.op", wl.run, (op,), {})
                else:
                    r = wl.run(op)
            except Exception as e:  # a raise is a failed operation, not a crash
                r = {"raised": f"{type(e).__name__}: {e}"}
            finally:
                if tracer:
                    tracer.enabled = False
            spans.extend((t, perf_counter(), clock.elapsed - inside0))
            results.append(r)
        passes.append(spans)
        if first is None:
            first = results
        else:
            differing += [(i, r) for i, (r, f) in enumerate(zip(results, first)) if r != f]
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.summary()
        tracer.write(args.trace)

    expected = {}

    def wrong(i, r):
        op = wl.ops[i]
        if op not in expected:
            expected[op] = wl.expected(op)
        if r != expected[op]:
            failures.append(f"{args.workload} {op}: got {str(r)[:200]}")
            return True
        return False

    # a wrong first-pass result counts once for every pass that repeated it
    changed = Counter(i for i, _ in differing)
    failures = []
    failed = sum(len(passes) - changed[i] for i, r in enumerate(first) if wrong(i, r))
    failed += sum(wrong(i, r) for i, r in differing)

    scaled = {}
    triples = [list(zip(spans[0::3], spans[1::3], spans[2::3])) for spans in passes]
    for spans in triples:
        for op, (a, b, inside) in zip(wl.ops, spans):
            scaled.setdefault(op, []).append((b - a - inside) * clock.scale(a, b))
    best = [statistics.median(scaled[op]) for op in wl.ops]
    wall_s = sum(best)
    timed = sum(b - a for spans in triples for a, b, _ in spans)
    inside = sum(i for spans in triples for _, _, i in spans)
    tail_s, tail_pct = tail(best)
    attempted = len(wl.ops) * len(passes)
    return _write(
        args.out,
        {
            "src": src,
            "setup_s": setup_s,
            "passes": len(passes),
            "ops_per_pass": len(wl.ops),
            "attempted": attempted,
            "failed": failed,
            "failures": failures[:10],
            "wall_s": wall_s,
            "ops_per_s": len(wl.ops) / wall_s,
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_tail_ms": 1e3 * tail_s,
            "op_tail_percentile": tail_pct,
            "peak_rss_mb": peak_rss_mb,
            "ref_loops": len(clock.times),
            "ref_mean_ms": 1e3 * clock.mean_s(),
            # spans include the timer's reference loops: take their share off
            "layer_scale": REF_MS * 1e-3 / clock.mean_s() * (1 - inside / timed),
            "layers": layers,
        },
    )


def _write(path: str, doc: dict) -> int:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
