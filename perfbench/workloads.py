"""The three workloads: their inputs, one round of operations, and its checks.

A round is the sequence of `arise` commands a user would type for the
workload; every command is one operation. `round()` takes a `run`
callable that executes one command line and returns an `Op`, so the same
round runs as child processes (timed) or in-process (traced).
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from mockserver import MockServer, MockState, backend_config, keyed_rng, make_tasks

API_KEY_VAR = "PERFBENCH_API_KEY"


@dataclass
class Op:
    args: list[str]
    wall_s: float
    peak_rss_mb: float  # NaN when the command ran in-process
    code: int
    stdout: str


@dataclass
class Round:
    ops: list[Op]
    trials: int = 0  # trials drawn by the round's main command
    problems: list[str] = field(default_factory=list)
    server: dict = field(default_factory=dict)  # http-run: what the mock server saw

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.code != 0)


Run = Callable[[list[str]], Op]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env[API_KEY_VAR] = "sk-perfbench-mock"
    return env


def run_child(args: list[str], root: Path, env: dict[str, str], log_dir: Path) -> Op:
    """Run `python -m arise.cli ARGS` to completion; wall time and peak RSS come from wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "arise.cli", *args], cwd=root, env=env,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"arise {' '.join(args)} exited {proc.returncode}:\n{err_path.read_text()[-2000:]}\n")
    return Op(args, wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text())


def compute_ops(run: Run, store: Path, run_id: str, repeats: int, work: Path) -> tuple[list[Op], list[str]]:
    """`arise compute` on a stored run, `repeats` times; each bundle must equal the stored one."""
    ops, problems = [], []
    for i in range(repeats):
        out = work / f"compute{i}.bundle.json"
        ops.append(run(["compute", str(store), "--run-id", run_id, "--out", str(out)]))
        if ops[-1].code == 0:
            problems += checks.same_bytes(store / f"{run_id}.bundle.json", out)
    return ops, problems


# ----------------------------------------------------------------------
# sim-run


class SimRun:
    """`arise run` on a generated simulator spec, then `arise compute` on the stored run."""

    name = "sim-run"
    n_samples = 2000
    n_levels = 3
    m_min, m_max, tau = 3, 10, 0.5
    compute_repeats = 2

    def setup(self, seed: int, work: Path, run: Run) -> None:
        rng = keyed_rng(seed, "sim-run")
        samples = []
        for i in range(self.n_samples):
            base = rng.uniform(5.5, 7.0)
            samples.append({
                "id": f"q{i:05d}",
                "levels": [
                    {"p_correct": rng.random(),
                     "token_log_mean": base + 0.9 * j + rng.uniform(-0.2, 0.2),
                     "token_log_std": rng.uniform(0.2, 0.6)}
                    for j in range(self.n_levels)
                ],
            })
        work.mkdir(parents=True, exist_ok=True)
        self.sample_ids = [s["id"] for s in samples]
        self.spec = work / "spec.json"
        self.spec.write_text(json.dumps({"seed": seed, "samples": samples}, indent=1))

    def teardown(self) -> None:
        pass

    def round(self, run: Run, work: Path) -> Round:
        store = work / "store"
        ops = [run(["run", str(self.spec), "--out", str(store), "--run-id", "r",
                    "--m-min", str(self.m_min), "--m-max", str(self.m_max), "--tau", str(self.tau)])]
        if ops[0].code != 0:
            return Round(ops)
        computes, problems = compute_ops(run, store, "r", self.compute_repeats, work)
        result = Round(ops + computes, problems=problems)
        if result.failed:
            return result
        try:
            records = checks.read_records(store / "r.jsonl")
        except ValueError as exc:
            result.problems.append(f"malformed records: {exc}")
            return result
        bundle = json.loads((store / "r.bundle.json").read_text())
        result.trials = sum(len(t) for t in records.values())
        result.problems += checks.check_k_star(bundle, records)
        result.problems += checks.check_stopping_rule(records, self.m_min, self.m_max, self.tau)
        result.problems += checks.check_bundle_scores(
            bundle, checks.trajectories(records, self.sample_ids, self.n_levels))
        return result


# ----------------------------------------------------------------------
# sim-study

# The reference spec's outcome laws, kept here so the workload does not move
# when the program's own copy changes: (p_correct, token std) per level.
REFERENCE_TOKENS = (600.0, 1500.0, 3600.0)
REFERENCE_SAMPLES = (
    ("s01", (0.15, 0.55, 0.90), (0.45, 0.40, 0.35)),
    ("s02", (0.30, 0.35, 0.85), (0.30, 0.55, 0.30)),
    ("s03", (0.92, 0.94, 0.96), (0.25, 0.25, 0.25)),
    ("s04", (0.90, 0.40, 0.25), (0.35, 0.50, 0.45)),
    ("s05", (0.75, 0.70, 0.55), (0.40, 0.35, 0.30)),
    ("s06", (0.50, 0.50, 0.50), (0.60, 0.55, 0.50)),
    ("s07", (0.20, 0.25, 0.70), (0.30, 0.45, 0.55)),
    ("s08", (0.10, 0.12, 0.15), (0.35, 0.30, 0.40)),
)


class SimStudy:
    """`arise simulate` on the reference spec in three modes, then `arise compute`
    on a run of the same spec stored at set-up."""

    name = "sim-study"
    replications = 40
    budget = 720
    m_min, m_max, tau = 3, 100, 0.05
    compute_repeats = 3  # one compute is ~0.4 s, mostly interpreter start-up

    def setup(self, seed: int, work: Path, run: Run) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.spec = work / "reference_spec.json"
        self.spec.write_text(json.dumps({
            "seed": seed,
            "samples": [
                {"id": sid, "levels": [
                    {"p_correct": p, "token_log_mean": math.log(t), "token_log_std": s}
                    for p, t, s in zip(ps, REFERENCE_TOKENS, stds)]}
                for sid, ps, stds in REFERENCE_SAMPLES
            ],
        }, indent=2))
        self.store = work / "store"
        op = run(["run", str(self.spec), "--out", str(self.store), "--run-id", "ref"])
        if op.code != 0:
            raise RuntimeError("set-up run of the reference spec failed")

    def teardown(self) -> None:
        pass

    @property
    def modes(self) -> tuple[str, ...]:
        return ("adaptive", "naive:1", f"budget:{self.budget}")

    def round(self, run: Run, work: Path) -> Round:
        work.mkdir(parents=True, exist_ok=True)
        rows_path = work / "per_run.csv"
        mode_flags = [flag for mode in self.modes for flag in ("-m", mode)]
        ops = [run(["--seed", str(self.seed), "--format", "json", "simulate", str(self.spec),
                    "--runs", str(self.replications), *mode_flags, "--m-min", str(self.m_min),
                    "--m-max", str(self.m_max), "--tau", str(self.tau), "--out", str(rows_path)])]
        computes, problems = compute_ops(run, self.store, "ref", self.compute_repeats, work)
        result = Round(ops + computes, problems=problems)
        if result.failed:
            return result
        printed = json.loads(ops[0].stdout)
        with open(rows_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        result.trials = sum(int(m["total_trials"]) for m in printed)
        result.problems += self._check(printed, rows)
        return result

    def _check(self, printed: list[dict], rows: list[dict]) -> list[str]:
        problems = []
        R, configs = self.replications, len(REFERENCE_SAMPLES) * len(REFERENCE_TOKENS)
        if [m["mode"] for m in printed] != list(self.modes):
            return [f"printed modes {[m['mode'] for m in printed]} != {list(self.modes)}"]
        for summary in printed:
            mode = summary["mode"]
            mine = [r for r in rows if r["mode"] == mode]
            trials = [int(r["trials"]) for r in mine]
            if len(mine) != R:
                problems.append(f"{mode}: {len(mine)} rows for {R} replications")
                continue
            if int(summary["total_trials"]) != sum(trials):
                problems.append(f"{mode}: printed total_trials != sum of rows")
            if mode == "naive:1" and sum(trials) != R * configs:
                problems.append(f"naive:1 drew {sum(trials)} trials, expected R*n*J = {R * configs}")
            if mode.startswith("budget:") and sum(trials) != R * self.budget:
                problems.append(f"{mode} drew {sum(trials)} trials, expected R*B = {R * self.budget}")
            if mode == "adaptive" and not all(configs * self.m_min <= k <= configs * self.m_max for k in trials):
                problems.append(f"adaptive replication outside [n*J*m_min, n*J*m_max]: {trials}")
            for column, printed_key in (("arise", "arise_mean"), ("scaling_metric", "sm_mean")):
                mean = math.fsum(float(r[column]) for r in mine) / R
                if abs(float(summary[printed_key]) - mean) > 5e-7:
                    problems.append(f"{mode}: printed {printed_key} {summary[printed_key]} != row mean {mean!r}")
        return problems


# ----------------------------------------------------------------------
# http-run


class HttpRun:
    """`arise run --budget` on a backend config aimed at the in-process mock server,
    then `arise compute` on the stored run."""

    name = "http-run"
    n_tasks = 24
    levels = ("low", "medium", "high")
    budget = 360
    latency_s = 0.010
    backoff_s = 0.010
    max_in_flight = 2
    compute_repeats = 3

    server: MockServer | None = None

    def setup(self, seed: int, work: Path, run: Run) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.tasks = make_tasks(seed, self.n_tasks, len(self.levels))
        self.state = MockState(seed, self.tasks, self.levels, self.latency_s)
        self.server = MockServer(self.state)
        self.config = work / "http_run.json"
        self.config.write_text(json.dumps(backend_config(
            self.server.url, self.tasks, self.levels, API_KEY_VAR, self.max_in_flight, self.backoff_s),
            indent=2))
        op = run(["run", str(self.config), "--dry-run", "--probe"])
        if op.code != 0:
            raise RuntimeError("probe of the mock server failed")

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def round(self, run: Run, work: Path) -> Round:
        store = work / "store"
        self.state.reset()
        ops = [run(["--seed", str(self.seed), "run", str(self.config), "--budget", str(self.budget),
                    "--out", str(store), "--run-id", "r"])]
        state = self.state
        with state.lock:
            server = {"posts": state.posts, "refused": state.refused, "server_s": list(state.server_s),
                      "max_in_flight": state.max_in_flight}
            sent = dict(state.sent)
        if ops[0].code != 0:
            return Round(ops, server=server)
        computes, problems = compute_ops(run, store, "r", self.compute_repeats, work)
        result = Round(ops + computes, problems=problems, server=server)
        if result.failed:
            return result
        try:
            records = checks.read_records(store / "r.jsonl")
        except ValueError as exc:
            result.problems.append(f"malformed records: {exc}")
            return result
        bundle = json.loads((store / "r.bundle.json").read_text())
        result.trials = sum(len(t) for t in records.values())
        problems = result.problems
        problems += checks.check_k_star(bundle, records)
        if result.trials != self.budget:
            problems.append(f"{result.trials} trials for a budget of {self.budget}")
        stored = {(sid, j, t): trial for (sid, j), trials in records.items() for t, trial in enumerate(trials)}
        if stored != sent:
            diff = sorted(set(stored.items()) ^ set(sent.items()))[:3]
            problems.append(f"stored records differ from what the server sent, e.g. {diff}")
        if server["posts"] != result.trials + server["refused"]:
            problems.append(f"{server['posts']} POSTs for {result.trials} trials and {server['refused']} refusals")
        problems += checks.check_bundle_scores(
            bundle, checks.trajectories(records, [t.sample_id for t in self.tasks], len(self.levels)))
        return result


WORKLOADS = {w.name: w for w in (SimRun, SimStudy, HttpRun)}
