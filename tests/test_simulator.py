"""Synthetic backend: keyed determinism, ground truth, and study replication."""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from pathlib import Path

import pytest
import yaml

from arise import (
    AdaptiveMode,
    ConvergenceConfig,
    LevelParams,
    NaiveMode,
    SimulatorBackend,
    SyntheticModelSpec,
    SyntheticSample,
    arise_aggregate,
    config_hash,
    derive_seed,
    ground_truth_trajectories,
    reference_spec,
    replicate_study,
    simulate_trial,
)


def tiny_spec(seed: int = 1) -> SyntheticModelSpec:
    return SyntheticModelSpec(
        seed=seed,
        samples=(
            SyntheticSample(
                "a",
                (LevelParams(0.2, 4.6, 0.3), LevelParams(0.8, 5.3, 0.3)),
            ),
            SyntheticSample(
                "b",
                (LevelParams(0.6, 4.6, 0.2), LevelParams(0.4, 5.3, 0.2)),
            ),
        ),
    )


class TestDerivedSeeds:
    def test_same_key_same_seed(self):
        assert derive_seed(42, "a", 0, 1) == derive_seed(42, "a", 0, 1)

    def test_any_part_changes_the_seed(self):
        base = derive_seed(42, "a", 0, 1)
        assert derive_seed(43, "a", 0, 1) != base
        assert derive_seed(42, "b", 0, 1) != base
        assert derive_seed(42, "a", 1, 1) != base
        assert derive_seed(42, "a", 0, 2) != base

    def test_seed_fits_in_64_bits(self):
        assert 0 <= derive_seed(42, "x", 9, 9) < 2**64


class TestSimulateTrial:
    def test_deterministic_per_key(self):
        spec = tiny_spec()
        first = simulate_trial(spec, "a", 0, 5)
        second = simulate_trial(spec, "a", 0, 5)
        assert first == second

    def test_independent_of_call_order(self):
        spec = tiny_spec()
        forward = [simulate_trial(spec, "a", 0, k) for k in range(20)]
        backward = [simulate_trial(spec, "a", 0, k) for k in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_correctness_is_binary(self):
        spec = tiny_spec()
        for k in range(100):
            assert simulate_trial(spec, "a", 0, k).correct in (0.0, 1.0)

    def test_degenerate_probabilities(self):
        spec = SyntheticModelSpec(
            seed=3,
            samples=(
                SyntheticSample(
                    "x", (LevelParams(0.0, 4.0, 0.2), LevelParams(1.0, 5.0, 0.2))
                ),
            ),
        )
        assert all(simulate_trial(spec, "x", 0, k).correct == 0.0 for k in range(200))
        assert all(simulate_trial(spec, "x", 1, k).correct == 1.0 for k in range(200))

    def test_zero_sigma_gives_constant_rounded_tokens(self):
        spec = SyntheticModelSpec(
            seed=3,
            samples=(
                SyntheticSample(
                    "x",
                    (LevelParams(0.5, math.log(100.0), 0.0), LevelParams(0.5, 6.0, 0.0)),
                ),
            ),
        )
        outcomes = [simulate_trial(spec, "x", 0, k) for k in range(50)]
        assert all(o.tokens == 100.0 for o in outcomes)

    def test_tokens_are_whole_and_at_least_one(self):
        spec = SyntheticModelSpec(
            seed=9,
            samples=(
                SyntheticSample(
                    "x", (LevelParams(0.5, 0.0, 2.0), LevelParams(0.5, 0.1, 2.0))
                ),
            ),
        )
        for k in range(500):
            tokens = simulate_trial(spec, "x", 0, k).tokens
            assert tokens >= 1.0
            assert tokens == int(tokens)

    def test_a_draw_past_the_float_range_is_infinitely_many_tokens(self):
        """exp() of a normal draw above 709.78 overflows: the trial holds inf tokens, which the
        sampler refuses, instead of raising from the draw."""
        spec = SyntheticModelSpec(
            seed=5,
            samples=(SyntheticSample("x", (LevelParams(0.5, 709.78, 3.0),
                                           LevelParams(0.5, 1.0, 0.0))),),
        )
        tokens = [simulate_trial(spec, "x", 0, k).tokens for k in range(20)]
        assert math.inf in tokens
        assert all(t == math.inf or t == int(t) for t in tokens)

    def test_unknown_sample_and_level_rejected(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="unknown sample"):
            simulate_trial(spec, "nope", 0, 0)
        with pytest.raises(ValueError, match="level"):
            simulate_trial(spec, "a", 5, 0)
        for level in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                spec.params("b", level)
        assert spec.params("b", 1) == LevelParams(0.4, 5.3, 0.2)

    def test_backend_wraps_spec(self):
        spec = tiny_spec()
        backend = SimulatorBackend(spec)
        assert backend.evaluate("a", 0, 3) == simulate_trial(spec, "a", 0, 3)


class TestStreamIndependence:
    def test_adjacent_trial_streams_are_uncorrelated(self):
        spec = tiny_spec()
        pairs = [
            (simulate_trial(spec, "a", 0, k).tokens, simulate_trial(spec, "a", 0, k + 1).tokens)
            for k in range(10_000)
        ]
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        assert abs(statistics.correlation(xs, ys)) < 0.05


class TestGroundTruth:
    def test_expected_tokens_fixture(self):
        spec = SyntheticModelSpec(
            seed=0,
            samples=(
                SyntheticSample(
                    "x",
                    (
                        LevelParams(0.5, math.log(100.0), 0.5),
                        LevelParams(0.5, math.log(200.0), 0.5),
                    ),
                ),
            ),
        )
        truth = ground_truth_trajectories(spec)
        assert truth[0].levels[0].tokens == pytest.approx(113.31484530668263, rel=1e-12)

    def test_accuracy_equals_p_correct(self):
        truth = ground_truth_trajectories(tiny_spec())
        assert tuple(level.accuracy for level in truth[0].levels) == (0.2, 0.8)
        assert tuple(level.accuracy for level in truth[1].levels) == (0.6, 0.4)

    def test_empirical_means_approach_ground_truth(self):
        spec = tiny_spec()
        truth = {t.sample_id: t for t in ground_truth_trajectories(spec)}
        k = 1000
        for sid in ("a", "b"):
            for j in range(2):
                outcomes = [simulate_trial(spec, sid, j, idx) for idx in range(k)]
                acc = sum(o.correct for o in outcomes) / k
                tok = sum(o.tokens for o in outcomes) / k
                assert acc == pytest.approx(truth[sid].levels[j].accuracy, abs=0.05)
                assert tok == pytest.approx(truth[sid].levels[j].tokens, rel=0.05)

    def test_trajectories_feed_the_metric(self):
        trajs = ground_truth_trajectories(tiny_spec())
        assert [t.sample_id for t in trajs] == ["a", "b"]
        assert math.isfinite(arise_aggregate(trajs))


class TestSpecValidation:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError, match="p_correct"):
            SyntheticModelSpec(
                seed=1,
                samples=(SyntheticSample("a", (LevelParams(1.5, 4.0, 0.1), LevelParams(0.5, 4.0, 0.1))),),
            )

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="token_log_std"):
            SyntheticModelSpec(
                seed=1,
                samples=(SyntheticSample("a", (LevelParams(0.5, 4.0, -0.1), LevelParams(0.5, 4.0, 0.1))),),
            )

    def test_rejects_duplicate_sample_ids(self):
        sample = SyntheticSample("a", (LevelParams(0.5, 4.0, 0.1), LevelParams(0.5, 4.0, 0.1)))
        with pytest.raises(ValueError, match="unique"):
            SyntheticModelSpec(seed=1, samples=(sample, sample))

    def test_rejects_ragged_level_counts(self):
        with pytest.raises(ValueError, match="level"):
            SyntheticModelSpec(
                seed=1,
                samples=(
                    SyntheticSample("a", (LevelParams(0.5, 4.0, 0.1), LevelParams(0.5, 4.0, 0.1))),
                    SyntheticSample("b", (LevelParams(0.5, 4.0, 0.1),)),
                ),
            )

    @pytest.mark.parametrize("n_levels", [0, 1])
    def test_rejects_fewer_than_two_levels(self, n_levels):
        with pytest.raises(ValueError, match=f"at least 2 levels, got {n_levels}"):
            SyntheticModelSpec(
                seed=1, samples=(SyntheticSample("a", (LevelParams(0.5, 4.0, 0.1),) * n_levels),)
            )

    def test_rejects_empty_spec(self):
        with pytest.raises(ValueError):
            SyntheticModelSpec(seed=1, samples=())

    @pytest.mark.parametrize("key", ["p_correct", "token_log_mean", "token_log_std"])
    def test_a_bool_setting_is_refused(self, key):
        data = tiny_spec().to_dict()
        data["samples"][0]["levels"][0][key] = True
        with pytest.raises(ValueError, match=(
                f"^simulator spec samples\\[0\\].levels\\[0\\] '{key}': must be a number, "
                f"got True$")):
            SyntheticModelSpec.from_dict(data)


class TestSpecSerialization:
    def test_round_trip_preserves_exact_values(self):
        spec = reference_spec()
        assert SyntheticModelSpec.from_dict(spec.to_dict()) == spec

    def test_dict_uses_documented_field_names(self):
        data = tiny_spec().to_dict()
        assert set(data) == {"seed", "samples"}
        assert set(data["samples"][0]) == {"id", "levels"}
        assert set(data["samples"][0]["levels"][0]) == {
            "p_correct",
            "token_log_mean",
            "token_log_std",
        }

    def test_the_config_hash_of_the_reference_spec_is_unchanged(self):
        # `run --resume` refuses a run whose stored hash differs from its spec's
        assert config_hash(reference_spec().to_dict()) == "0d724eeacbb7b3785dc31152f4af8511"

    def test_from_file_reads_json_and_yaml(self, tmp_path: Path):
        spec = tiny_spec()
        as_json = tmp_path / "spec.json"
        as_json.write_text(json.dumps(spec.to_dict()))
        assert SyntheticModelSpec.from_file(as_json) == spec
        as_yaml = tmp_path / "spec.yaml"
        as_yaml.write_text(yaml.safe_dump(spec.to_dict()))
        assert not as_yaml.read_text().lstrip().startswith("{")
        assert SyntheticModelSpec.from_file(as_yaml) == spec

    def test_committed_reference_file_matches_builtin(self):
        committed = Path(__file__).parent.parent / "configs" / "reference_spec.json"
        assert SyntheticModelSpec.from_file(committed) == reference_spec()


class TestReplication:
    def test_replications_pair_seeds_across_modes(self):
        spec = tiny_spec()
        cfg = ConvergenceConfig()
        first, second = replicate_study(spec, cfg, [NaiveMode(2), NaiveMode(2)], 4)
        assert first.arise == second.arise  # identical mode, identical draws

    def test_replications_differ_from_each_other(self):
        spec = tiny_spec()
        studies = replicate_study(spec, ConvergenceConfig(), [NaiveMode(2)], 6)
        assert len(set(studies[0].arise)) > 1

    def test_base_seed_overrides_spec_seed(self):
        spec = tiny_spec(seed=1)
        a = replicate_study(spec, ConvergenceConfig(), [NaiveMode(2)], 3, base_seed=99)
        b = replicate_study(tiny_spec(seed=2), ConvergenceConfig(), [NaiveMode(2)], 3, base_seed=99)
        assert a[0].arise == b[0].arise

    def test_study_statistics(self):
        studies = replicate_study(tiny_spec(), ConvergenceConfig(), [AdaptiveMode()], 5)
        study = studies[0]
        assert len(study.arise) == 5
        assert study.arise_std == pytest.approx(statistics.pstdev(study.arise), rel=1e-12)
        assert study.total_trials == sum(study.trials)

    def test_single_replication_has_zero_spread(self):
        studies = replicate_study(tiny_spec(), ConvergenceConfig(), [AdaptiveMode()], 1)
        assert studies[0].arise_std == 0.0

    @pytest.mark.parametrize("modes, replications", [
        ([AdaptiveMode(), NaiveMode(0)], 2),  # the invalid mode comes after a valid one
        ([AdaptiveMode()], 0),
    ])
    def test_an_impossible_study_fails_before_the_first_draw(self, monkeypatch, modes,
                                                              replications):
        import arise.simulator

        draws: list[object] = []
        monkeypatch.setattr(arise.simulator, "run_evaluation", lambda *a, **k: draws.append(a))
        with pytest.raises(ValueError):
            replicate_study(tiny_spec(), ConvergenceConfig(), modes, replications)
        assert draws == []

    @pytest.mark.parametrize("count, modes, replications, expected", [
        (2, [NaiveMode(2)], 5, [2]),
        (4, [NaiveMode(2)], 3, [3]),  # no more workers than replications
        (4, [AdaptiveMode(), NaiveMode(2)], 1, [2]),  # a task is one (mode, replication)
        (1, [AdaptiveMode(), NaiveMode(2)], 3, []),
        (8, [AdaptiveMode()], 1, []),  # one task runs in this process
    ])
    def test_the_pool_has_a_worker_per_cpu_up_to_the_task_count(self, cpus, pool_sizes, count,
                                                                 modes, replications, expected):
        cpus(count)
        replicate_study(tiny_spec(), ConvergenceConfig(), modes, replications)
        assert pool_sizes == expected

    def test_without_fork_the_study_runs_in_this_process(self, cpus, pool_sizes, monkeypatch):
        import multiprocessing

        cpus(2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        replicate_study(tiny_spec(), ConvergenceConfig(), [NaiveMode(2)], 3)
        assert pool_sizes == []

    def test_a_pool_reports_what_one_process_reports(self, cpus, pool_sizes):
        modes = [AdaptiveMode(), NaiveMode(2)]
        reports = []
        for count in (1, 2):
            cpus(count)
            reports.append(replicate_study(reference_spec(), ConvergenceConfig(), modes, 4))
        assert pool_sizes == [2]
        assert reports[0] == reports[1]


class TestReferenceSpec:
    def test_shape_and_seed(self):
        spec = reference_spec()
        assert spec.seed == 42
        assert len(spec.samples) == 8
        assert spec.n_levels == 3

    def test_custom_seed_keeps_parameters(self):
        a, b = reference_spec(), reference_spec(seed=7)
        assert b.seed == 7
        assert dataclasses.replace(b, seed=42) == a
