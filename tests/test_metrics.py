"""Scoring math: frozen fixtures, exhaustive binary cases, and invariants."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arise import (
    LevelOutcome,
    SampleScore,
    SampleTrajectory,
    ScalingCurve,
    TransitionMatrix,
    arise_aggregate,
    arise_sample,
    build_scaling_curve,
    scaling_metric,
    transition_contribution,
    transition_matrix,
    transition_weight,
)


def traj(sample_id: str, *pairs: tuple[float, float]) -> SampleTrajectory:
    return SampleTrajectory(sample_id, tuple(LevelOutcome(a, t) for a, t in pairs))


# ----------------------------------------------------------------------
# frozen fixtures


class TestTransitionWeight:
    def test_improvement_weight_is_token_ratio(self):
        w = transition_weight(LevelOutcome(0.0, 200.0), LevelOutcome(1.0, 300.0))
        assert w == 0.6666666666666666

    def test_degradation_weight_is_inverse_token_ratio(self):
        w = transition_weight(LevelOutcome(1.0, 100.0), LevelOutcome(0.0, 300.0))
        assert w == 3.0

    def test_unchanged_accuracy_weight_is_one(self):
        w = transition_weight(LevelOutcome(1.0, 100.0), LevelOutcome(1.0, 900.0))
        assert w == 1.0

    def test_rejects_non_positive_tokens(self):
        with pytest.raises(ValueError, match="prev"):
            transition_weight(LevelOutcome(0.0, 0.0), LevelOutcome(1.0, 100.0))
        with pytest.raises(ValueError, match="next"):
            transition_weight(LevelOutcome(0.0, 100.0), LevelOutcome(1.0, -5.0))


class TestTransitionContribution:
    def test_degradation_contribution(self):
        c = transition_contribution(LevelOutcome(1.0, 100.0), LevelOutcome(0.0, 300.0))
        assert c == -3.0

    def test_improvement_contribution(self):
        c = transition_contribution(LevelOutcome(0.0, 400.0), LevelOutcome(1.0, 1600.0))
        assert c == 0.25

    def test_unchanged_contribution_is_exactly_zero(self):
        c = transition_contribution(LevelOutcome(0.5, 100.0), LevelOutcome(0.5, 100000.0))
        assert c == 0.0


class TestSampleScore:
    def test_gain_then_loss_cancels_to_minus_one(self):
        row = arise_sample(traj("s", (0.0, 100.0), (1.0, 200.0), (0.0, 300.0)))
        assert row == SampleScore("s", -1.0, non_monotone_tokens=False, improve=1, degrade=1,
                                  unchanged=0)

    def test_alternating_pattern_over_doubling_tokens(self):
        # 100/200 - 400/200 + 400/800 = 0.5 - 2.0 + 0.5 = -1.0 exactly.
        row = arise_sample(traj("s", (0.0, 100.0), (1.0, 200.0), (0.0, 400.0), (1.0, 800.0)))
        assert row.arise == -1.0
        assert (row.improve, row.degrade, row.unchanged) == (2, 1, 0)

    def test_rejects_single_level(self):
        with pytest.raises(ValueError, match="at least 2"):
            arise_sample(traj("s", (1.0, 100.0)))

    def test_non_monotone_tokens_flagged_but_scored(self):
        row = arise_sample(traj("s", (0.0, 300.0), (1.0, 100.0)))
        assert row.non_monotone_tokens
        assert row.arise == 3.0  # raw formula applied as-is

    def test_all_unchanged_scores_zero(self):
        row = arise_sample(traj("s", (1.0, 100.0), (1.0, 200.0), (1.0, 400.0)))
        assert row.arise == 0.0
        assert (row.improve, row.degrade, row.unchanged) == (0, 0, 2)


class TestAggregate:
    def test_three_sample_fixture(self):
        trajs = [
            traj("a", (0.0, 100.0), (1.0, 200.0), (0.0, 300.0)),
            traj("b", (0.0, 100.0), (0.0, 200.0), (1.0, 400.0)),
            traj("c", (1.0, 100.0), (0.0, 300.0), (0.0, 500.0)),
        ]
        assert arise_aggregate(trajs) == -1.1666666666666667

    def test_mean_is_linear_in_samples(self):
        rng = random.Random(7)
        trajs = [
            traj(f"s{i}", *[(rng.random(), 100.0 * (j + 1)) for j in range(4)])
            for i in range(25)
        ]
        total = sum(arise_sample(t).arise for t in trajs)
        assert arise_aggregate(trajs) == pytest.approx(total / 25, abs=1e-12)

    def test_rejects_mismatched_level_counts(self):
        trajs = [
            traj("ok", (0.0, 100.0), (1.0, 200.0)),
            traj("bad", (0.0, 100.0), (1.0, 200.0), (1.0, 300.0)),
        ]
        with pytest.raises(ValueError, match="bad"):
            arise_aggregate(trajs)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            arise_aggregate([])


class TestScalingCurve:
    def test_curve_points_are_per_level_means(self):
        trajs = [
            traj("a", (1.0, 150.0), (1.0, 250.0)),
            traj("b", (0.0, 250.0), (1.0, 350.0)),
        ]
        curve = build_scaling_curve(trajs)
        assert curve.points == ((200.0, 0.5), (300.0, 1.0))

    def test_three_level_fixture(self):
        curve = ScalingCurve(((100.0, 0.2), (200.0, 0.5), (400.0, 0.6)))
        assert scaling_metric(curve) == 0.001611111111111111

    def test_two_level_fixture(self):
        assert scaling_metric(ScalingCurve(((100.0, 0.0), (200.0, 1.0)))) == 0.01

    def test_falling_tokens_match_the_oriented_formula_bit_for_bit(self):
        def oriented(curve: ScalingCurve) -> float:
            # each pair oriented so its token gap is positive
            pts = curve.points
            total, pairs = 0.0, 0
            for i in range(len(pts)):
                for k in range(i + 1, len(pts)):
                    (t1, a1), (t2, a2) = pts[i], pts[k]
                    if t2 > t1:
                        total += (a2 - a1) / (t2 - t1)
                    else:
                        total += (a1 - a2) / (t1 - t2)
                    pairs += 1
            return total / pairs

        # mean tokens fall from level 0 to 1 and from 2 to 3; levels 1 and 2 tie on accuracy
        falling = build_scaling_curve([
            traj("a", (0.0, 500.0), (1.0, 300.0), (1.0, 450.0), (0.0, 100.0)),
            traj("b", (1.0, 300.0), (0.0, 200.0), (0.0, 250.0), (1.0, 120.0)),
        ])
        (t0, _), (t1, a1), (_, a2), _ = falling.points
        assert t1 < t0 and a1 == a2
        curves = [falling, ScalingCurve(((200.0, 0.5), (100.0, 0.5)))]
        rng = random.Random(29)
        for _ in range(2_000):
            tokens = rng.sample(range(1, 10_000), rng.randint(2, 5))
            accs = [rng.choice([0.0, 0.5, 1.0, rng.random()]) for _ in tokens]
            curves.append(ScalingCurve(tuple((float(t), a) for t, a in zip(tokens, accs))))
        for curve in curves:
            assert scaling_metric(curve).hex() == oriented(curve).hex(), curve

    def test_gradient_orientation_uses_positive_token_gap(self):
        # same points in any storage order give the same metric
        a = ScalingCurve(((100.0, 0.9), (300.0, 0.3)))
        assert scaling_metric(a) == pytest.approx(-0.003, abs=1e-15)

    def test_rejects_duplicate_token_coordinates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScalingCurve(((100.0, 0.2), (100.0, 0.5)))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            ScalingCurve(((100.0, 0.2),))

    def test_rejects_non_positive_tokens(self):
        with pytest.raises(ValueError):
            ScalingCurve(((0.0, 0.2), (100.0, 0.5)))


# ----------------------------------------------------------------------
# exhaustive binary case table

# Contribution of one adjacent pair per the binary case table, written
# independently of the implementation: no change contributes 0, a fix
# earns the token ratio t_prev/t_next, a break costs t_next/t_prev.


def case_table_score(accs: tuple[int, ...], tokens: list[float]) -> float:
    total = 0.0
    for (a0, a1), (t0, t1) in zip(zip(accs, accs[1:]), zip(tokens, tokens[1:])):
        if a0 == a1:
            continue
        total += t0 / t1 if a1 > a0 else -(t1 / t0)
    return total


def binary_patterns(length: int):
    for bits in range(2**length):
        yield tuple((bits >> i) & 1 for i in range(length))


class TestBinaryCaseTable:
    def test_matches_case_table_for_all_short_patterns(self):
        rng = random.Random(20240817)
        for length in range(2, 7):
            for accs in binary_patterns(length):
                for _ in range(100):
                    tokens = sorted(rng.uniform(1.0, 1e5) for _ in range(length))
                    while len(set(tokens)) != length:  # pragma: no cover
                        tokens = sorted(rng.uniform(1.0, 1e5) for _ in range(length))
                    t = traj("s", *zip(map(float, accs), tokens))
                    score = arise_sample(t).arise
                    assert score == pytest.approx(case_table_score(accs, tokens), abs=1e-12)


# ----------------------------------------------------------------------
# invariants


def random_trajectory(rng: random.Random, fractional: bool) -> SampleTrajectory:
    length = rng.randint(2, 6)
    tokens = sorted(rng.uniform(10.0, 1e4) for _ in range(length))
    if fractional:
        accs = [rng.random() for _ in range(length)]
    else:
        accs = [float(rng.randint(0, 1)) for _ in range(length)]
    return traj("s", *zip(accs, tokens))


class TestScoreBounds:
    def test_score_below_one_and_below_net_accuracy_gain(self):
        rng = random.Random(99)
        for i in range(10_000):
            t = random_trajectory(rng, fractional=bool(i % 2))
            score = arise_sample(t).arise
            assert score < 1.0
            deltas = [b.accuracy - a.accuracy for a, b in zip(t.levels, t.levels[1:])]
            if any(d != 0 for d in deltas):
                assert score < t.levels[-1].accuracy - t.levels[0].accuracy

    def test_penalty_magnitude_always_exceeds_reward(self):
        rng = random.Random(4242)
        for _ in range(1_000):
            t_prev = rng.uniform(1.0, 1e4)
            t_next = t_prev * rng.uniform(1.0 + 1e-9, 100.0)
            reward = transition_contribution(LevelOutcome(0.0, t_prev), LevelOutcome(1.0, t_next))
            penalty = transition_contribution(LevelOutcome(1.0, t_prev), LevelOutcome(0.0, t_next))
            assert penalty < -1.0
            assert 0.0 < reward < 1.0
            assert -penalty > reward

    def test_scaling_metric_bounded_by_min_token_gap(self):
        rng = random.Random(13)
        for _ in range(10_000):
            n = rng.randint(2, 5)
            tokens = sorted(rng.uniform(1.0, 1e4) for _ in range(n))
            while min(b - a for a, b in zip(tokens, tokens[1:])) <= 0:  # pragma: no cover
                tokens = sorted(rng.uniform(1.0, 1e4) for _ in range(n))
            accs = [rng.random() for _ in range(n)]
            curve = ScalingCurve(tuple(zip(tokens, accs)))
            delta_min = min(
                tokens[j] - tokens[i] for i in range(n) for j in range(i + 1, n)
            )
            assert abs(scaling_metric(curve)) <= 1.0 / delta_min + 1e-9


@st.composite
def trajectories(draw):
    length = draw(st.integers(min_value=2, max_value=6))
    gaps = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    tokens = []
    acc = 0.0
    for g in gaps:
        acc += g
        tokens.append(acc)
    accs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    return traj("s", *zip(accs, tokens))


class TestTokenScaleInvariance:
    @settings(max_examples=300, deadline=None)
    @given(trajectories(), st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_sample_score_invariant_under_token_scaling(self, t, c):
        scaled = traj(
            t.sample_id, *((lv.accuracy, lv.tokens * c) for lv in t.levels)
        )
        original = arise_sample(t).arise
        rescored = arise_sample(scaled).arise
        assert rescored == pytest.approx(original, abs=1e-9, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(trajectories(), st.floats(min_value=1e-2, max_value=1e2, allow_nan=False))
    # the pairwise gradients cancel to exactly 0; the scaled sum lands about 1e-12 away
    @example(traj("s", (1.0, 1.0), (0.0, 2.0), (0.0, 576.0), (1.0, 577.0)), 0.01)
    # a subnormal gradient: the two sides land one subnormal step (5e-324) apart
    @example(traj("s", (0.0, 1.0), (2.2250738585e-313, 199.0)), 0.5)
    def test_scaling_metric_scales_inversely(self, t, c):
        curve = build_scaling_curve([t])
        scaled = ScalingCurve(tuple((tok * c, acc) for tok, acc in curve.points))
        # rounding error scales with the summed terms, not with their sum, which can cancel to 0
        pts = curve.points
        terms = [abs((a2 - a1) / (t2 - t1)) for i, (t1, a1) in enumerate(pts) for t2, a2 in pts[i + 1 :]]
        magnitude = math.fsum(terms) / len(terms) / c
        # below the normal range a rounding errs by up to 2**-1075 absolutely, which no relative
        # tolerance covers: each side rounds a quotient per pair and the mean, the right side's
        # errors grow by 1/c, and its division by c rounds once more
        roundings = (len(terms) + 1) * (1 + 1 / c) + 1
        subnormal = math.ceil(roundings / 2) * math.ulp(0.0)  # roundings * 2**-1075, in whole steps
        assert scaling_metric(scaled) == pytest.approx(
            scaling_metric(curve) / c, rel=1e-9, abs=1e-9 * magnitude + subnormal
        )

    @settings(max_examples=300, deadline=None)
    @given(trajectories())
    def test_zero_transitions_score_zero(self, t):
        flat = traj(t.sample_id, *((0.5, lv.tokens) for lv in t.levels))
        row = arise_sample(flat)
        assert row.arise == 0.0
        assert row.improve == 0 and row.degrade == 0


# ----------------------------------------------------------------------
# transition matrices


class TestTransitionMatrix:
    def test_counts_binary_flips(self):
        trajs = [
            traj("a", (1.0, 100.0), (1.0, 200.0)),
            traj("b", (1.0, 100.0), (0.0, 200.0)),
            traj("c", (0.0, 100.0), (1.0, 200.0)),
            traj("d", (0.0, 100.0), (0.0, 200.0)),
        ]
        m = transition_matrix(trajs, (0, 1))
        assert m == TransitionMatrix(0, 1, 1, 1, 1, 1)
        assert m.incorrect_to_correct == 1 and m.correct_to_incorrect == 1
        assert (m.correct_to_correct + m.correct_to_incorrect + m.incorrect_to_correct
                + m.incorrect_to_incorrect) == 4

    def test_degradation_share_fixture(self):
        # 30 samples, 2 of which lose a previously-correct answer: 6.7%
        trajs = [traj(f"k{i}", (1.0, 100.0), (1.0, 200.0)) for i in range(28)]
        trajs += [traj(f"d{i}", (1.0, 100.0), (0.0, 200.0)) for i in range(2)]
        m = transition_matrix(trajs, (0, 1))
        total = (m.correct_to_correct + m.correct_to_incorrect + m.incorrect_to_correct
                 + m.incorrect_to_incorrect)
        assert m.correct_to_incorrect == 2
        assert total == 30
        assert round(100 * m.correct_to_incorrect / total, 1) == 6.7

    def test_binarization_threshold(self):
        trajs = [traj("a", (0.5, 100.0), (0.49, 200.0))]
        assert transition_matrix(trajs, (0, 1), threshold=0.5).correct_to_incorrect == 1
        assert transition_matrix(trajs, (0, 1), threshold=0.3).correct_to_incorrect == 0

    def test_rejects_non_adjacent_pair(self):
        trajs = [traj("a", (1.0, 100.0), (1.0, 200.0), (1.0, 300.0))]
        with pytest.raises(ValueError, match="adjacent"):
            transition_matrix(trajs, (0, 2))

    def test_rejects_out_of_range_pair(self):
        trajs = [traj("a", (1.0, 100.0), (1.0, 200.0))]
        with pytest.raises(ValueError, match="range"):
            transition_matrix(trajs, (1, 2))


class TestWeightSymmetry:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    )
    def test_fix_and_break_weights_are_reciprocal(self, t_prev, t_next):
        fix = transition_weight(LevelOutcome(0.0, t_prev), LevelOutcome(1.0, t_next))
        brk = transition_weight(LevelOutcome(1.0, t_prev), LevelOutcome(0.0, t_next))
        assert fix * brk == pytest.approx(1.0, rel=1e-12)
