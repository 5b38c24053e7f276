"""Acceptance suite: twelve checks covering scoring identities, bounds,
stopping behavior, budget allocation, stability, consistency, reproducibility,
and scale invariance. Each test prints one PASS line (visible under -s).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from click.testing import CliRunner

from arise import (
    AdaptiveMode,
    ConvergenceConfig,
    LevelOutcome,
    NaiveMode,
    SampleTrajectory,
    ScalingCurve,
    SimulatorBackend,
    allocate_budget,
    arise_aggregate,
    arise_sample,
    build_scaling_curve,
    ground_truth_trajectories,
    reference_spec,
    replicate_study,
    run_configuration,
    run_evaluation,
    scaling_metric,
    transition_contribution,
)
from arise.cli import main
from arise.simulator import LevelParams, SyntheticModelSpec, SyntheticSample


def traj(*pairs: tuple[float, float]) -> SampleTrajectory:
    return SampleTrajectory("s", tuple(LevelOutcome(a, t) for a, t in pairs))


def test_01_gain_then_loss_identity():
    # (0,1,0,1) over doubling tokens: 100/200 - 400/200 + 400/800 = -1.0.
    score, _ = arise_sample(
        traj((0.0, 100.0), (1.0, 200.0), (0.0, 400.0), (1.0, 800.0))
    )
    assert abs(score - (-1.0)) <= 1e-12
    # Shorter gain-then-loss shape lands on the same value.
    score3, _ = arise_sample(traj((0.0, 100.0), (1.0, 200.0), (0.0, 300.0)))
    assert abs(score3 - (-1.0)) <= 1e-12
    print("PASS 01: alternating gain/loss trajectories score -1.0 within 1e-12")


def test_02_binary_case_table_exhaustive():
    rng = random.Random(2)

    def expected(accs, tokens):
        total = 0.0
        for (a0, a1), (t0, t1) in zip(zip(accs, accs[1:]), zip(tokens, tokens[1:])):
            if a1 > a0:
                total += t0 / t1
            elif a1 < a0:
                total -= t1 / t0
        return total

    checked = 0
    for length in range(2, 7):
        for bits in range(2**length):
            accs = [float((bits >> i) & 1) for i in range(length)]
            for _ in range(100):
                tokens = sorted(rng.uniform(1.0, 1e5) for _ in range(length))
                if len(set(tokens)) != length:
                    continue
                score, _ = arise_sample(traj(*zip(accs, tokens)))
                assert abs(score - expected(accs, tokens)) <= 1e-12
                checked += 1
    print(f"PASS 02: {checked} binary pattern x token-sequence scores match the case table")


def test_03_score_bounds_hold_on_random_trajectories():
    rng = random.Random(3)
    transitions_seen = 0
    for i in range(10_000):
        length = rng.randint(2, 6)
        tokens = sorted(rng.uniform(10.0, 1e4) for _ in range(length))
        if i % 2:
            accs = [rng.random() for _ in range(length)]
        else:
            accs = [float(rng.randint(0, 1)) for _ in range(length)]
        t = traj(*zip(accs, tokens))
        score, _ = arise_sample(t)
        assert score < 1.0
        if any(b != a for a, b in zip(accs, accs[1:])):
            transitions_seen += 1
            assert score < accs[-1] - accs[0]
    assert transitions_seen > 5_000
    print(f"PASS 03: 10000 random trajectories stay below 1 and below the net accuracy gain")


def test_04_scaling_metric_bounded_by_min_gap():
    rng = random.Random(4)
    for _ in range(10_000):
        n = rng.randint(2, 5)
        tokens = sorted(rng.uniform(1.0, 1e4) for _ in range(n))
        if len(set(tokens)) != n:
            continue
        accs = [rng.random() for _ in range(n)]
        curve = ScalingCurve(tuple(zip(tokens, accs)))
        delta_min = min(tokens[j] - tokens[i] for i in range(n) for j in range(i + 1, n))
        assert abs(scaling_metric(curve)) <= 1.0 / delta_min + 1e-9
    print("PASS 04: 10000 random curves respect |metric| <= 1/delta_min")


def test_05_penalty_exceeds_reward():
    rng = random.Random(5)
    for _ in range(1_000):
        t_prev = rng.uniform(1.0, 1e4)
        t_next = t_prev * rng.uniform(1.000001, 50.0)
        penalty = transition_contribution(LevelOutcome(1.0, t_prev), LevelOutcome(0.0, t_next))
        reward = transition_contribution(LevelOutcome(0.0, t_prev), LevelOutcome(1.0, t_next))
        assert penalty < -1.0 < -reward
    print("PASS 05: 1000 token pairs show penalty < -1 < -reward")


def test_06_adaptive_stopping_bounds():
    rng = random.Random(6)
    cfg = ConvergenceConfig()
    for i in range(1_000):
        spec = SyntheticModelSpec(
            seed=i,
            samples=(
                SyntheticSample(
                    "s",
                    (
                        LevelParams(rng.random(), rng.uniform(3.0, 7.0), rng.uniform(0.0, 1.0)),
                        LevelParams(rng.random(), rng.uniform(3.0, 7.0), rng.uniform(0.0, 1.0)),
                    ),
                ),
            ),
        )
        result = run_configuration(SimulatorBackend(spec), "s", 0, cfg)
        assert cfg.m_min <= result.k_star <= cfg.m_max
        if result.k_star < cfg.m_max:
            assert result.cv_combined < cfg.tau
    print("PASS 06: 1000 simulated configurations stop inside [m_min, m_max] with CV < tau unless capped")


def test_07_budget_allocation():
    cfg = ConvergenceConfig(m_min=3, m_max=10, tau=0.5)
    plan = allocate_budget({("s1", 0): 0.3, ("s2", 0): 0.1}, 2, 1, cfg, 10)
    assert plan == {("s1", 0): 6, ("s2", 0): 4}

    rng = random.Random(7)
    for _ in range(1_000):
        n, J = rng.randint(1, 5), rng.randint(2, 4)
        cvs = {
            (f"s{i}", j): rng.choice([0.0, rng.uniform(0.0, 3.0)])
            for i in range(n)
            for j in range(J)
        }
        B = n * J * cfg.m_min + rng.randint(0, 60)
        random_plan = allocate_budget(cvs, n, J, cfg, B)
        assert sum(random_plan.values()) <= B
        assert all(m >= cfg.m_min for m in random_plan.values())
    print("PASS 07: fixture allocates {6, 4}; 1000 random budgets stay within B at >= m_min each")


def test_08_adaptive_beats_single_sampling_stability():
    start = time.monotonic()
    adaptive, naive = replicate_study(
        reference_spec(), ConvergenceConfig(), [AdaptiveMode(), NaiveMode(1)], 200
    )
    elapsed = time.monotonic() - start
    assert adaptive.arise_std <= 0.8 * naive.arise_std
    assert elapsed < 120.0
    print(
        f"PASS 08: adaptive std {adaptive.arise_std:.4f} vs naive(1) std {naive.arise_std:.4f} "
        f"({(1 - adaptive.arise_std / naive.arise_std) * 100:.1f}% lower, needs >=20%) in {elapsed:.1f}s"
    )


def test_09_tau_sweep_monotonicity():
    start = time.monotonic()
    totals, spreads = [], []
    for tau in (1.0, 0.5, 0.25):
        (study,) = replicate_study(
            reference_spec(), ConvergenceConfig(tau=tau), [AdaptiveMode()], 200
        )
        totals.append(study.total_trials)
        spreads.append(study.arise_std)
    elapsed = time.monotonic() - start
    assert totals[0] <= totals[1] <= totals[2]
    assert spreads[0] >= spreads[1] >= spreads[2]
    assert elapsed < 120.0
    print(
        f"PASS 09: tau 1.0/0.5/0.25 -> trials {totals} (weakly up), "
        f"std {[round(s, 4) for s in spreads]} (weakly down) in {elapsed:.1f}s"
    )


def test_10_high_trial_count_recovers_ground_truth():
    start = time.monotonic()
    spec = reference_spec()
    truth = arise_aggregate(ground_truth_trajectories(spec))
    run = run_evaluation(
        SimulatorBackend(spec), list(spec.sample_ids),
        [f"level{j}" for j in range(spec.n_levels)], ConvergenceConfig(), NaiveMode(1000),
    )
    estimate = arise_aggregate(run.trajectories)
    elapsed = time.monotonic() - start
    assert abs(estimate - truth) <= 0.05
    assert elapsed < 30.0
    print(
        f"PASS 10: naive(1000) estimate {estimate:.4f} vs ground truth {truth:.4f} "
        f"(|diff| {abs(estimate - truth):.4f} <= 0.05) in {elapsed:.1f}s"
    )


def test_11_run_then_recompute_is_bit_identical(tmp_path: Path):
    start = time.monotonic()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(reference_spec().to_dict()))
    out = tmp_path / "runs"
    runner = CliRunner()
    ran = runner.invoke(
        main,
        ["--seed", "42", "run", str(spec_path), "--naive", "1",
         "--out", str(out), "--run-id", "accept"],
    )
    assert ran.exit_code == 0, ran.output
    live = (out / "accept.bundle.json").read_bytes()
    computed = runner.invoke(main, ["compute", str(out), "--run-id", "accept"])
    assert computed.exit_code == 0, computed.output
    elapsed = time.monotonic() - start
    assert (out / "accept.bundle.json").read_bytes() == live
    assert elapsed < 10.0
    print(f"PASS 11: run --naive 1 --seed 42 then compute reproduces the bundle byte-for-byte in {elapsed:.1f}s")


def test_12_token_rescaling_invariance():
    c = 7.3
    rng = random.Random(12)
    trajs, scaled_trajs = [], []
    for i in range(50):
        length = rng.randint(2, 5)
        tokens = sorted(rng.uniform(50.0, 5e3) for _ in range(length))
        accs = [rng.random() for _ in range(length)]
        trajs.append(
            SampleTrajectory(f"s{i}", tuple(LevelOutcome(a, t) for a, t in zip(accs, tokens)))
        )
        scaled_trajs.append(
            SampleTrajectory(f"s{i}", tuple(LevelOutcome(a, t * c) for a, t in zip(accs, tokens)))
        )
    for before, after in zip(trajs, scaled_trajs):
        assert abs(arise_sample(after)[0] - arise_sample(before)[0]) <= 1e-12

    # dataset-level: group into equal-length cohorts so curves are well-formed
    cohort = [t for t in trajs if len(t.levels) == len(trajs[0].levels)][:10]
    scaled_cohort = [t for t in scaled_trajs if len(t.levels) == len(trajs[0].levels)][:10]
    sm = scaling_metric(build_scaling_curve(cohort))
    sm_scaled = scaling_metric(build_scaling_curve(scaled_cohort))
    assert abs(sm_scaled - sm / c) <= 1e-12
    print(f"PASS 12: scaling tokens by {c} leaves every sample score unchanged and divides the gradient metric by {c}")
