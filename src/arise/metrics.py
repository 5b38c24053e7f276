"""Scaling metrics computed from finalized evaluation trajectories.

Two metrics live here. The ARISE score walks a per-sample trajectory of
(accuracy, tokens) pairs across scaling levels and sums accuracy changes
weighted by token ratios, so improvements bought with little extra compute
count for more and degradations that waste compute are penalized harder
than the matching improvement would be rewarded. The baseline Scaling
Metric averages accuracy-over-token gradients across every pair of points
on the dataset-level scaling curve.

All functions are pure, operate on 64-bit floats, and sum in trajectory
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "LevelOutcome",
    "SampleTrajectory",
    "SampleScore",
    "ScalingCurve",
    "TransitionMatrix",
    "transition_weight",
    "transition_contribution",
    "arise_sample",
    "arise_aggregate",
    "build_scaling_curve",
    "scaling_metric",
    "transition_matrix",
]


@dataclass(frozen=True)
class LevelOutcome:
    """Finalized outcome at one scaling level."""

    accuracy: float  # mean correctness in [0, 1]; exactly 0/1 for a single binary trial
    tokens: float  # mean completion tokens, > 0


@dataclass(frozen=True)
class SampleTrajectory:
    """Ordered per-level outcomes for one sample; index 0 is the baseline level.

    Level order follows the configured scaling-level order and is never
    re-sorted by measured token counts.
    """

    sample_id: str
    levels: tuple[LevelOutcome, ...]


@dataclass(frozen=True)
class SampleScore:
    """One trajectory's score and what scoring it observed: a result bundle's per-sample row."""

    sample_id: str
    arise: float
    non_monotone_tokens: bool  # some adjacent pair had tokens fail to increase
    improve: int
    degrade: int
    unchanged: int


@dataclass(frozen=True)
class ScalingCurve:
    """Dataset-level (mean_tokens, mean_accuracy) points, one per scaling level.

    Token coordinates must be pairwise distinct: the metric divides by token
    gaps, and perturbing a tie would invent data, so ties are rejected here.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError(f"scaling curve needs at least 2 points, got {len(self.points)}")
        tokens = [t for t, _ in self.points]
        for t in tokens:
            if not (t > 0 and math.isfinite(t)):
                raise ValueError(f"curve point has non-positive token coordinate: {t!r}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate mean-token values on the scaling curve")


def _sign(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def transition_weight(prev: LevelOutcome, nxt: LevelOutcome) -> float:
    """Token-ratio weight of one adjacent-level transition.

    Returns (prev.tokens / nxt.tokens) ** sign(nxt.accuracy - prev.accuracy),
    with sign(0) defined as 0 so unchanged accuracy weighs exactly 1. An
    improvement is discounted by how much extra compute it cost; a
    degradation is amplified by the inverted ratio.
    """
    for name, level in (("prev", prev), ("next", nxt)):
        if not (level.tokens > 0 and math.isfinite(level.tokens)):
            raise ValueError(f"{name} level has non-positive tokens: {level.tokens!r}")
    return (prev.tokens / nxt.tokens) ** _sign(nxt.accuracy - prev.accuracy)


def transition_contribution(prev: LevelOutcome, nxt: LevelOutcome) -> float:
    """Signed score contribution of one transition: (a_next - a_prev) * weight.

    For binary accuracies this reduces to three cases: 0 when unchanged,
    +t_prev/t_next for an incorrect-to-correct flip, and -t_next/t_prev for
    a correct-to-incorrect flip.
    """
    return (nxt.accuracy - prev.accuracy) * transition_weight(prev, nxt)


def arise_sample(traj: SampleTrajectory) -> SampleScore:
    """Score one trajectory: the sum of adjacent-pair contributions only.

    Non-adjacent levels never interact. Token means that fail to increase
    between adjacent levels are scored on their raw values and flagged as
    `non_monotone_tokens` rather than clamped or dropped.
    """
    levels = traj.levels
    if len(levels) < 2:
        raise ValueError(
            f"trajectory {traj.sample_id!r} has {len(levels)} level(s); need at least 2"
        )
    score = 0.0
    non_monotone = False
    improve = degrade = unchanged = 0
    for prev, nxt in zip(levels, levels[1:]):
        delta = nxt.accuracy - prev.accuracy
        if delta > 0:
            improve += 1
        elif delta < 0:
            degrade += 1
        else:
            unchanged += 1
        if nxt.tokens <= prev.tokens:
            non_monotone = True
        score += transition_contribution(prev, nxt)
    return SampleScore(traj.sample_id, score, non_monotone, improve, degrade, unchanged)


def _check_level_counts(trajs: Sequence[SampleTrajectory]) -> int:
    if not trajs:
        raise ValueError("need at least one trajectory")
    width = len(trajs[0].levels)
    for traj in trajs:
        if len(traj.levels) != width:
            raise ValueError(
                f"sample {traj.sample_id!r} has {len(traj.levels)} levels, expected {width}"
            )
    return width


def arise_aggregate(trajs: Sequence[SampleTrajectory]) -> float:
    """Arithmetic mean of per-sample scores."""
    _check_level_counts(trajs)
    total = 0.0
    for traj in trajs:
        total += arise_sample(traj).arise
    return total / len(trajs)


def build_scaling_curve(trajs: Sequence[SampleTrajectory]) -> ScalingCurve:
    """Average per-sample trajectories into one curve point per level."""
    width = _check_level_counts(trajs)
    n = len(trajs)
    points = []
    for j in range(width):
        mean_tokens = sum(t.levels[j].tokens for t in trajs) / n
        mean_accuracy = sum(t.levels[j].accuracy for t in trajs) / n
        points.append((mean_tokens, mean_accuracy))
    return ScalingCurve(tuple(points))


def scaling_metric(curve: ScalingCurve) -> float:
    """Mean accuracy-per-token gradient over all pairs of curve points.

    Each unordered pair contributes (a2 - a1) / (t2 - t1), in curve order;
    swapping the points negates both differences exactly, so the quotient
    needs no orientation. The total is divided by the number of pairs.
    Unlike the ARISE score this is not invariant to
    rescaling tokens: multiplying all token values by c scales it by 1/c.
    """
    pts = curve.points
    total = 0.0
    n_pairs = 0
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            (t1, a1), (t2, a2) = pts[i], pts[k]
            total += (a2 - a1) / (t2 - t1)
            n_pairs += 1
    return total / n_pairs


@dataclass(frozen=True)
class TransitionMatrix:
    """2x2 counts of binarized correctness flips between two adjacent levels."""

    from_level: int
    to_level: int
    correct_to_correct: int
    correct_to_incorrect: int
    incorrect_to_correct: int
    incorrect_to_incorrect: int


def transition_matrix(
    trajs: Sequence[SampleTrajectory],
    level_pair: tuple[int, int],
    threshold: float = 0.5,
) -> TransitionMatrix:
    """Count correctness flips between two adjacent levels.

    Fractional accuracies are binarized at `threshold`: accuracy >= threshold
    counts as correct.
    """
    width = _check_level_counts(trajs)
    lo, hi = level_pair
    if hi != lo + 1:
        raise ValueError(f"level pair {level_pair!r} is not adjacent")
    if lo < 0 or hi >= width:
        raise ValueError(f"level pair {level_pair!r} out of range for {width} levels")
    cc = ci = ic = ii = 0
    for traj in trajs:
        before = traj.levels[lo].accuracy >= threshold
        after = traj.levels[hi].accuracy >= threshold
        if before and after:
            cc += 1
        elif before:
            ci += 1
        elif after:
            ic += 1
        else:
            ii += 1
    return TransitionMatrix(lo, hi, cc, ci, ic, ii)
