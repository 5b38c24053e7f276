"""Steadiness mode: run workloads repeatedly and print the spread of every end-to-end metric.

    python3 perfbench/steady.py --workload sim-run --workload http-run --runs 10 --first-seed 1

Each run is `perfbench/run.py --trace 0` with its own seed (first-seed,
first-seed + 1, ...). For every metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json; a spread
above a third of the bound is flagged. It also prints the failed share
of operations. The raw results go to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    (HERE / "out").mkdir(exist_ok=True)
    steady = True
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        (HERE / "out" / f"steady-{workload}.json").write_text(json.dumps(results, indent=1))

        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, {attempted} operations, failed share "
              f"{failed / attempted:.6f}, all correct: {all(r['correct'] for r in results)}")
        print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bound / 3:
                flag, steady = "  > bound/3", False
            print(f"{name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f}{flag}")
        print()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
