"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed (one after another) and prints, per
metric, the median, the quartiles from statistics.quantiles(n=4), the
spread (Q3 - Q1) / median and the metric's bound from BENCHMARK.json.
Raw results go to .perfbench_out/spread-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    first, last = map(int, args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    out = os.path.join(ROOT, ".perfbench_out", f"spread-{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(runs, fh, indent=1)
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{m['name']:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{(q3 - q1) / med:>9.3f}{m['bound']:>7}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
