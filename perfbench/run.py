"""Benchmark of the `arise` CLI: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload sim-run --seed 1 --seconds 30 --trace 0

With --trace 0 every operation is an `arise` child process, timed from
this process, and the result holds the end-to-end metrics. With
--trace 1 the same rounds run in-process through `arise.cli.main`,
alternating untraced and traced rounds, and the result holds the
per-layer metrics and the tracing overhead. Either way the last line of
stdout is {"correct", "attempted", "failed", "metrics"}; a readable
table goes to stderr. Run from the root of a checkout of the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import itertools
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import tracing  # noqa: E402 (these modules sit next to this file)
from workloads import WORKLOADS, Op, Round, child_env, run_child  # noqa: E402

# Set-up is timed on fresh instances of the workload, in batches of at least
# SETUP_BATCH_S seconds: one batch before the rounds and one after each round,
# so that setup_s samples the host over the whole run, as run_s does.
SETUP_BATCH_S = 1.0
# A traced run makes at least MIN_PAIRS pairs of untraced and traced rounds.
MIN_PAIRS = 3


def time_setups(name: str, seed: int, work: Path, run) -> list[float]:
    """Set fresh instances of the workload up for SETUP_BATCH_S seconds and return the times."""
    times: list[float] = []
    while not times or math.fsum(times) < SETUP_BATCH_S:
        workload = WORKLOADS[name]()
        start = time.perf_counter()
        try:
            workload.setup(seed, work / f"setup{len(times)}", run)
            times.append(time.perf_counter() - start)
        finally:
            workload.teardown()
    shutil.rmtree(work, ignore_errors=True)
    return times


def timed_run(workload, seed: int, seconds: float, work: Path) -> tuple[list[Round], dict, list[str]]:
    env = child_env(ROOT)

    def make_run(log_dir: Path):
        count = itertools.count()
        return lambda args: run_child(args, ROOT, env, log_dir / f"op{next(count)}")

    start = time.perf_counter()
    workload.setup(seed, work / "setup", make_run(work / "setup-log"))
    setups = [time.perf_counter() - start]
    rounds: list[Round] = []
    try:
        setups += time_setups(workload.name, seed, work / "setups", make_run(work / "setups-log"))
        # untimed: byte-compiles the program and warms the file cache
        warm = run_child(["--help"], ROOT, env, work / "warm")
        if warm.code != 0:
            raise RuntimeError("arise --help failed")
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            round_dir = work / f"round{len(rounds)}"
            rounds.append(workload.round(make_run(round_dir), round_dir))
            shutil.rmtree(round_dir, ignore_errors=True)
            setups += time_setups(workload.name, seed, work / "setups", make_run(work / "setups-log"))
    finally:
        workload.teardown()
    ok = [r for r in rounds if not r.failed]
    metrics = {"setup_s": statistics.median(setups)}
    if ok:
        metrics.update({
            "run_s": statistics.median(r.ops[0].wall_s for r in ok),
            "trials_per_s": statistics.median(r.trials / r.ops[0].wall_s for r in ok),
            "compute_s": statistics.median(op.wall_s for r in ok for op in r.ops[1:]),
            "peak_rss_mb": statistics.median(max(op.peak_rss_mb for op in r.ops) for r in ok),
        })
    return rounds, metrics, []


def in_process_runner(main, tracer: tracing.Tracer | None):
    def run(args: list[str]) -> Op:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    main(args, standalone_mode=False)
                else:
                    tracer.span("op.main", main, args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is one failed operation, not the end of the run
                err.write(traceback.format_exc())
                code = 1
        wall = time.perf_counter() - start
        if code != 0:
            sys.stderr.write(f"arise {' '.join(args)} exited {code}:\n{err.getvalue()[-2000:]}\n")
        return Op(args, wall, math.nan, code, out.getvalue())

    return run


def traced_run(workload, seed: int, seconds: float, work: Path) -> tuple[list[Round], dict, list[str]]:
    """Alternate untraced and traced in-process rounds; per-layer metrics come from the traced ones."""
    os.environ.update({k: v for k, v in child_env(ROOT).items() if k in ("NO_PROXY", "no_proxy")})
    os.environ.setdefault("PERFBENCH_API_KEY", "sk-perfbench-mock")
    sys.path.insert(0, str(SRC))
    from arise.cli import main

    tracer = tracing.Tracer()
    plain, traced = in_process_runner(main, None), in_process_runner(main, tracer)
    workload.setup(seed, work / "setup", plain)
    untraced_rounds: list[Round] = []
    traced_rounds: list[Round] = []

    def traced_round(round_dir: Path) -> Round:
        tracer.install()
        try:
            return workload.round(traced, round_dir)
        finally:
            tracer.uninstall()

    try:
        start = time.perf_counter()
        while len(traced_rounds) < MIN_PAIRS or time.perf_counter() - start < seconds:
            i = len(traced_rounds)
            # alternate which side of a pair goes first, so drift does not favour one side
            for side in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
                if side == "plain":
                    untraced_rounds.append(workload.round(plain, work / f"plain{i}"))
                else:
                    traced_rounds.append(traced_round(work / f"traced{i}"))
                shutil.rmtree(work / f"{side}{i}", ignore_errors=True)
    finally:
        workload.teardown()
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.csv.gz"
    with gzip.open(trace_file, "wt", compresslevel=1) as fh:
        count = tracer.write(fh)
    sys.stderr.write(f"{count} spans written to {trace_file.relative_to(ROOT)}\n")
    # an entry point that is gone would read as a layer doing no work at all
    problems = [f"entry point not found, not traced: {m}" for m in sorted(set(tracer.missing))]
    return untraced_rounds + traced_rounds, per_layer(tracer, untraced_rounds, traced_rounds), problems


def per_layer(tracer: tracing.Tracer, untraced: list[Round], traced: list[Round]) -> dict:
    T = len(traced)
    by_name = tracer.durations()

    def durations(name: str) -> list[float]:
        return by_name.get(name, [])

    def mean(values: list[float], scale: float = 1.0) -> float:
        return scale * math.fsum(values) / len(values) if values else 0.0

    def per_round(name: str) -> float:
        return len(durations(name)) / T

    def quantile(values: list[float], q: float) -> float:
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=100)[round(q * 100) - 1]

    draws = durations("simulator.draw")
    evaluate = durations("backend.evaluate")
    trials = len(durations("simulator.evaluate")) + len(evaluate)
    posts = durations("backend.post")
    server_s = [s for r in traced for s in r.server.get("server_s", ())]
    overhead = statistics.median(
        sum(op.wall_s for op in t.ops) / sum(op.wall_s for op in u.ops) for t, u in zip(traced, untraced))
    return {
        "cli.config_load_s": math.fsum(durations("cli.config_load")) / T,
        "simulator.draws": len(draws) / T,
        "simulator.draw_us": mean(draws, 1e6),
        "simulator.params_us": mean(durations("simulator.params"), 1e6),
        "sampling.stop_checks": per_round("sampling.should_continue"),
        "sampling.stop_check_us": mean(durations("sampling.should_continue"), 1e6),
        "sampling.self_us_per_trial": 1e6 * tracer.self_time("sampling.run_evaluation") / trials if trials else 0.0,
        "store.appends": per_round("store.append"),
        "store.append_us": mean(durations("store.append"), 1e6),
        "store.parse_s": mean(durations("store.parse")),
        "store.recompute_s": mean(durations("store.recompute")),
        "metrics.aggregate_us": mean(durations("metrics.aggregate"), 1e6),
        "metrics.scaling_metric_us": mean(durations("metrics.scaling_metric"), 1e6),
        "backend.requests": len(posts) / T,
        "backend.posts_per_trial": len(posts) / len(evaluate) if evaluate else 0.0,
        "backend.evaluate_ms_p50": 1e3 * quantile(evaluate, 0.50),
        "backend.evaluate_ms_p95": 1e3 * quantile(evaluate, 0.95),
        "backend.server_ms": mean(server_s, 1e3),
        "backend.client_overhead_ms": 1e3 * (math.fsum(posts) - math.fsum(server_s)) / len(posts) if posts else 0.0,
        "backend.max_in_flight_seen": max((r.server.get("max_in_flight", 0) for r in traced), default=0),
        "trace.overhead_pct": 100.0 * (overhead - 1.0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "arise" / "cli.py").is_file():
        sys.stderr.write(f"error: no arise sources under {SRC}; run from a checkout of the repository\n")
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workload = WORKLOADS[args.workload]()
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        rounds, metrics, problems = (traced_run if args.trace else timed_run)(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += [p for r in rounds for p in r.problems]
    if metrics.keys() != units.keys():
        problems.append(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    for p in problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    for name, value in metrics.items():
        sys.stderr.write(f"{name:30s} {value:14.6f} {units.get(name, '?')}\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
