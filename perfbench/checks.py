"""Correctness checks computed by the benchmark itself, apart from the program.

Each check returns a list of problems; an empty list means it passed.
The formulas follow the method as the paper states it, not the
program's code: per-level means over the stored trials, the ARISE score
as the sum over adjacent levels of Δaccuracy · (t_prev / t_next)^sign(Δaccuracy),
the scaling metric as the mean pairwise gradient of the dataset curve,
and the CV stopping rule (population std over mean + ε, accuracy CV plus
token CV).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EPSILON = 1e-8
REL_TOL = 1e-9  # summation order may legitimately differ from the program's


def read_records(path: Path) -> dict[tuple[str, int], list[tuple[float, int]]]:
    """Trial records grouped per (sample, level), in trial-index order."""
    grouped: dict[tuple[str, int], dict[int, tuple[float, int]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            trials = grouped.setdefault((rec["sample_id"], rec["level_index"]), {})
            if rec["trial_index"] in trials:
                raise ValueError(f"duplicate record {rec['sample_id']}/{rec['level_index']}/{rec['trial_index']}")
            trials[rec["trial_index"]] = (float(rec["correct"]), int(rec["completion_tokens"]))
    out = {}
    for key, trials in grouped.items():
        if sorted(trials) != list(range(len(trials))):
            raise ValueError(f"configuration {key} has trial indices {sorted(trials)}")
        out[key] = [trials[i] for i in range(len(trials))]
    return out


def combined_cv(trials: list[tuple[float, int]]) -> float:
    total = 0.0
    for values in ([c for c, _ in trials], [float(t) for _, t in trials]):
        mean = math.fsum(values) / len(values)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
        total += std / (mean + EPSILON)
    return total


def trajectories(records: dict[tuple[str, int], list[tuple[float, int]]],
                 samples: list[str], n_levels: int) -> list[list[tuple[float, float]]]:
    """(mean accuracy, mean tokens) per level, per sample in the given order."""
    out = []
    for sid in samples:
        levels = []
        for j in range(n_levels):
            trials = records[(sid, j)]
            levels.append((math.fsum(c for c, _ in trials) / len(trials),
                           math.fsum(t for _, t in trials) / len(trials)))
        out.append(levels)
    return out


def arise_aggregate(trajs: list[list[tuple[float, float]]]) -> float:
    total = 0.0
    for levels in trajs:
        for (a1, t1), (a2, t2) in zip(levels, levels[1:]):
            if a2 > a1:
                total += (a2 - a1) * (t1 / t2)
            elif a2 < a1:
                total += (a2 - a1) * (t2 / t1)
    return total / len(trajs)


def scaling_metric(trajs: list[list[tuple[float, float]]]) -> float:
    n = len(trajs)
    curve = [(math.fsum(s[j][1] for s in trajs) / n, math.fsum(s[j][0] for s in trajs) / n)
             for j in range(len(trajs[0]))]
    grads = [(a2 - a1) / (t2 - t1) for i, (t1, a1) in enumerate(curve) for t2, a2 in curve[i + 1:]]
    return math.fsum(grads) / len(grads)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_bundle_scores(bundle: dict, trajs: list[list[tuple[float, float]]]) -> list[str]:
    problems = []
    mine = arise_aggregate(trajs)
    if not close(bundle["aggregate_arise"], mine):
        problems.append(f"aggregate_arise {bundle['aggregate_arise']!r} != recomputed {mine!r}")
    mine = scaling_metric(trajs)
    if not close(bundle["scaling_metric"], mine):
        problems.append(f"scaling_metric {bundle['scaling_metric']!r} != recomputed {mine!r}")
    return problems


def check_stopping_rule(records: dict[tuple[str, int], list[tuple[float, int]]],
                        m_min: int, m_max: int, tau: float) -> list[str]:
    """m_min <= k <= m_max; stop early only below tau; continue only at or above it."""
    problems = []
    for key, trials in records.items():
        k = len(trials)
        if not m_min <= k <= m_max:
            problems.append(f"{key}: k={k} outside [{m_min}, {m_max}]")
            continue
        for i in range(m_min, k):
            if combined_cv(trials[:i]) < tau:
                problems.append(f"{key}: continued past {i} trials with CV below tau")
                break
        if k < m_max and combined_cv(trials) >= tau:
            problems.append(f"{key}: stopped at {k} < m_max with CV at or above tau")
    return problems


def check_k_star(bundle: dict, records: dict[tuple[str, int], list[tuple[float, int]]]) -> list[str]:
    problems = []
    n_records = sum(len(t) for t in records.values())
    k_sum = sum(c["k_star"] for c in bundle["configurations"])
    if n_records != k_sum:
        problems.append(f"{n_records} records but the bundle's k* sum to {k_sum}")
    for c in bundle["configurations"]:
        stored = len(records.get((c["sample_id"], c["level_index"]), ()))
        if c["k_star"] != stored:
            problems.append(f"{c['sample_id']}/{c['level_index']}: k*={c['k_star']} but {stored} records")
            break
    return problems


def same_bytes(a: Path, b: Path) -> list[str]:
    if a.read_bytes() != b.read_bytes():
        return [f"{a.name} and {b.name} differ"]
    return []
