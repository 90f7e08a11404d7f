"""divconv benchmark: one workload per call, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload {resolve,search,evaluate,table}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; divconv is imported from ./src.
Workloads, metric names and units come from ./BENCHMARK.json.

Every measurement runs in a fresh worker process (perfbench/worker.py), so
no lru_cache, provider state or peak RSS carries over.  All cache writes go
to .perfbench_out/tmp-*, which is removed at the end.

--trace 0: set-up runs SETUP_SAMPLES times (one of them in the measured
worker) and setup_s is their median; the measured worker gives the other
end-to-end metrics.
--trace 1: an untraced and a traced worker run the same workload; the
per-layer metrics come from the traced one's spans and
trace.overhead_ratio = traced wall_s / untraced wall_s - 1.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it records the environment and the details behind the
figures, and the same document is written to .perfbench_out/results/.
Exit status 0 means the figures were measured; any failure to measure
(missing sources, a worker that crashed or ran out of time) exits 1 without
a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3
DEADLINE_S = 170  # every worker must have ended by then


class BenchError(Exception):
    pass


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "divconv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


class Runner:
    def __init__(self, args, started: float):
        self.args = args
        self.started = started
        self.tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
        self.env = dict(
            os.environ,
            PYTHONPATH=SRC,
            # same seed, same process; a different seed also varies hashing
            PYTHONHASHSEED=str(args.seed % 4294967296),
            DIVCONV_CACHE=os.path.join(self.tmp, "default-cache"),
        )
        self.workers = 0

    def worker(self, *extra: str) -> dict:
        self.workers += 1
        out = os.path.join(self.tmp, f"worker-{self.workers}.json")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--tmp", self.tmp,
            "--out", out,
            *extra,
        ]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            r = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=remaining,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(extra)} ran past {DEADLINE_S} s") from None
        if r.returncode != 0 or not os.path.exists(out):
            raise BenchError(f"worker exited {r.returncode}: {r.stderr[-2000:]}")
        with open(out) as fh:
            doc = json.load(fh)
        if os.path.realpath(doc["src"]) != os.path.realpath(SRC):
            raise BenchError(f"worker imported divconv from {doc['src']}, not {SRC}")
        return doc

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def measure(runner: Runner, spec: dict) -> tuple[dict, dict, list[dict]]:
    """(metric values, details, checked worker results) for one call."""
    args = runner.args
    if not args.trace:
        # set-up samples before and after the measured worker, so that they
        # do not all fall into one stretch of other load on the machine
        half = (SETUP_SAMPLES - 1) // 2
        setups = [runner.worker("--setup-only")["setup_s"] for _ in range(half)]
        main = runner.worker()
        setups.append(main["setup_s"])
        setups += [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1 - half)]
        values = {
            "setup_s": statistics.median(setups),
            **{k: main[k] for k in ("wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")},
        }
        details = {"setup_samples_s": setups}
        checked = [main]
    else:
        plain = runner.worker()
        trace_file = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl.gz")
        traced = runner.worker("--trace", trace_file)
        values = layer_values(traced["layers"], traced["passes"], traced["layer_scale"], spec["per_layer"])
        values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1
        details = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
                   "spans_file": os.path.relpath(trace_file, ROOT)}
        main = plain
        checked = [plain, traced]
    details.update(
        passes=main["passes"],
        ref_loops=main["ref_loops"],
        ref_mean_ms=main["ref_mean_ms"],
        ops_per_pass=main["ops_per_pass"],
        op_tail={"percentile": main["op_tail_percentile"], "samples_per_pass": main["ops_per_pass"],
                 "beyond": 10 if main["ops_per_pass"] > 20 else 0},
        failures=[f for w in checked for f in w["failures"]],
    )
    return values, details, checked


def layer_values(layers: dict, passes: int, busy_scale: float, per_layer: list[dict]) -> dict:
    """Per-layer metric values, per pass, from the span summary, with busy_s
    multiplied by busy_scale (the worker's layer_scale); a layer with no
    span reads 0, and a ratio with a zero base reads 0."""
    def get(span, field):
        value = layers.get(span, {}).get(field, 0) / passes
        return value * busy_scale if field == "busy_s" else value

    values = {}
    for m in per_layer:
        span, field = m["name"].rsplit(".", 1)
        if field != "useful_ratio":
            values[m["name"]] = get(span, field)
        elif span == "spaces.select":
            base = get(span, "candidates")
            values[m["name"]] = get(span, "chosen") / base if base else 0.0
        elif span == "convolution.derive":
            base = get(span, "calls")
            values[m["name"]] = (base - get(span, "failed")) / base if base else 0.0
    return values


def main() -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "divconv", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"run.py: no divconv sources under {SRC} (run from a source checkout)", file=sys.stderr)
        return 1
    with open(spec_path) as fh:
        spec = json.load(fh)
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"run.py: unknown workload {args.workload!r}; have {sorted(workloads)}", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args, started)
    try:
        # compile the sources once so no measured import pays for it
        subprocess.run([sys.executable, "-c", "import divconv.cli"], env=runner.env, cwd=ROOT,
                       check=True, timeout=60, capture_output=True)
        values, details, checked = measure(runner, spec)
    except (BenchError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted = sum(w["attempted"] for w in checked)
    failed = sum(w["failed"] for w in checked)
    record = {
        "workload": args.workload,
        "why": workloads[args.workload],
        "env": {
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
        },
        "failed_ratio": failed / attempted,
        **details,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
