"""Adaptive stopping, budget allocation, and the evaluation driver."""

from __future__ import annotations

import functools
import gc
import math
import pickle
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arise.sampling

from arise import (
    EPSILON,
    AdaptiveMode,
    BackendConfig,
    ConfigurationError,
    ConvergenceConfig,
    FixedBudgetMode,
    HttpBackend,
    InfeasibleBudgetError,
    LevelOutcome,
    NaiveMode,
    SamplingStateError,
    SimulatorBackend,
    TrialOutcome,
    allocate_budget,
    check_mode,
    parse_mode,
    parse_tasks,
    reference_spec,
    run_configuration,
    run_evaluation,
    should_continue,
)

from arise.sampling import _RunningCV, _two_pass
from conftest import FailingBackend, ScriptedBackend, backend_config_dict


def outcomes(*pairs: tuple[float, float]) -> tuple[TrialOutcome, ...]:
    return tuple(TrialOutcome(c, t) for c, t in pairs)


PROBE = outcomes((1.0, 100.0), (0.0, 200.0), (1.0, 300.0))


# ----------------------------------------------------------------------
# statistics


class TestTrialOutcome:
    def test_has_slots_and_no_dict(self):
        outcome = TrialOutcome(1.0, 100.0)
        assert not hasattr(outcome, "__dict__")
        assert TrialOutcome.__slots__ == ("correct", "tokens")

    def test_survives_a_pickle_round_trip(self):
        outcome = TrialOutcome(0.5, 123.0)
        assert pickle.loads(pickle.dumps(outcome)) == outcome


def oracle(trials, summation=sum) -> tuple[float, float, float]:
    """Mean accuracy, mean tokens and combined CV of `trials`, each sum taken with `summation`.

    Each stream's mean is its sum over k, its population std (divisor k)
    is taken about that mean, and its CV divides by mean + EPSILON; the
    combined CV adds the accuracy CV to the token CV.
    """
    k = len(trials)
    means, cvs = [], []
    for stream in ([t.correct for t in trials], [t.tokens for t in trials]):
        mean = summation(stream) / k
        means.append(mean)
        cvs.append(math.sqrt(summation((x - mean) ** 2 for x in stream) / k) / (mean + EPSILON))
    return means[0], means[1], cvs[0] + cvs[1]


def two_pass(trials) -> tuple[float, float, float]:
    """`_two_pass` of `trials`: the statistics `run_configuration` finishes with."""
    return _two_pass([t.correct for t in trials], [t.tokens for t in trials])


def stream_cvs(trials) -> tuple[float, float]:
    """Each stream's CV alone, from `_two_pass` with the other stream held constant (CV 0)."""
    acc = two_pass([TrialOutcome(t.correct, 1.0) for t in trials])[2]
    tok = two_pass([TrialOutcome(1.0, t.tokens) for t in trials])[2]
    return acc, tok


def plain_sum(xs, start=0):
    """Left-to-right float summation, the builtin sum() before Python 3.12."""
    total = float(start)
    for x in xs:
        total += x
    return total


class TestLevelStatistics:
    """The statistics of one configuration's trials, as `_two_pass` takes them."""

    def test_accuracy_statistics_fixture(self):
        assert two_pass(PROBE)[0] == 0.6666666666666666
        assert stream_cvs(PROBE)[0] == 0.707106770579946

    def test_token_statistics_fixture(self):
        assert two_pass(PROBE)[1] == 200.0
        assert stream_cvs(PROBE)[1] == 0.4082482904434506

    def test_combined_cv_fixture(self):
        assert two_pass(PROBE) == (0.6666666666666666, 200.0, 1.1153550610233967) == oracle(PROBE)

    def test_cv_sum_example(self):
        # Two symmetric trials pin each stream's CV exactly: values
        # mean +/- cv*(mean+eps) have population std cv*(mean+eps).
        d_acc = 0.3175 * (0.5 + EPSILON)
        d_tok = 0.2854 * (200.0 + EPSILON)
        trials = outcomes((0.5 + d_acc, 200.0 + d_tok), (0.5 - d_acc, 200.0 - d_tok))
        cv_acc, cv_tok = stream_cvs(trials)
        assert cv_acc == pytest.approx(0.3175, abs=1e-12)
        assert cv_tok == pytest.approx(0.2854, abs=1e-12)
        assert two_pass(trials)[2] == pytest.approx(0.6029, abs=1e-12)
        assert two_pass(trials)[2] == cv_acc + cv_tok

    def test_single_trial_has_zero_spread(self):
        assert two_pass(outcomes((1.0, 150.0))) == (1.0, 150.0, 0.0)

    def test_zero_accuracy_mean_stays_finite(self):
        assert two_pass(outcomes((0.0, 100.0), (0.0, 100.0)))[2] == 0.0
        assert math.isfinite(two_pass(outcomes((0.0, 100.0), (0.0, 300.0)))[2])

    def test_matches_numpy_population_statistics(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(1, 12)
            trials = [TrialOutcome(rng.random(), rng.uniform(1, 1e4)) for _ in range(k)]
            mean_acc, mean_tok, cv = two_pass(trials)
            accs = np.array([t.correct for t in trials])
            toks = np.array([t.tokens for t in trials])
            assert mean_acc == pytest.approx(accs.mean(), rel=1e-12)
            assert mean_tok == pytest.approx(toks.mean(), rel=1e-12)
            expected = accs.std() / (accs.mean() + EPSILON) + toks.std() / (toks.mean() + EPSILON)
            assert cv == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_means_are_plain_sums_over_k(self):
        # 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001; a correctly rounded sum gives 0.6
        trials = outcomes((0.1, 0.1), (0.2, 0.2), (0.3, 0.3))
        with two_pass_sums(plain_sum):
            got = two_pass(trials)
        assert [v.hex() for v in got] == [v.hex() for v in oracle(trials, plain_sum)]

    def test_final_outcome_uses_means(self):
        result = run_configuration(ScriptedBackend({("s", 0): list(PROBE)}), "s", 0,
                                   ConvergenceConfig(), target=3)
        assert result.final == LevelOutcome(0.6666666666666666, 200.0)


class TestConvergenceConfig:
    def test_defaults(self):
        cfg = ConvergenceConfig()
        assert (cfg.m_min, cfg.m_max, cfg.tau) == (3, 10, 0.5)
        assert EPSILON == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m_min": 0},
            {"m_min": 5, "m_max": 4},
            {"tau": 0.0},
            {"tau": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ConvergenceConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"m_min": 2.5}, "m_min must be an integer, got 2.5"),
        ({"m_min": 3.0}, "m_min must be an integer, got 3.0"),
        ({"m_max": "10"}, "m_max must be an integer, got '10'"),
        ({"m_min": True}, "m_min must be an integer, got True"),
        ({"m_max": True, "m_min": 1}, "m_max must be an integer, got True"),
        ({"tau": True}, "tau must be a real number, got True"),
        ({"tau": "0.5"}, "tau must be a real number, got '0.5'"),
        ({"tau": None}, "tau must be a real number, got None"),
    ])
    def test_refuses_a_value_of_the_wrong_type(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConvergenceConfig(**kwargs)

    def test_an_integer_tau_is_a_real_number(self):
        assert ConvergenceConfig(tau=1).tau == 1


def running(trials, cfg: ConvergenceConfig) -> _RunningCV:
    """The running accumulator `run_configuration` keeps, holding `trials`."""
    stats = _RunningCV(cfg)
    for trial in trials:
        stats.append(trial)
    return stats


class TestShouldContinue:
    def test_raises_before_probe_complete(self):
        cfg = ConvergenceConfig()
        with pytest.raises(SamplingStateError, match="probing incomplete"):
            should_continue(running(PROBE[:2], cfg), cfg)

    def test_continues_while_cv_at_or_above_tau(self):
        cfg = ConvergenceConfig(tau=0.5)
        assert should_continue(running(PROBE, cfg), cfg)  # cv 1.115

    def test_stops_when_cv_below_tau(self):
        cfg = ConvergenceConfig(tau=1.2)
        assert not should_continue(running(PROBE, cfg), cfg)
        # any object with .count and .cv_combined will do
        assert should_continue(SimpleNamespace(count=3, cv_combined=1.2), cfg)

    def test_stops_exactly_at_m_max(self):
        cfg = ConvergenceConfig(m_min=3, m_max=5, tau=0.001)
        noisy = outcomes(*[(float(i % 2), 100.0 * (i + 1)) for i in range(5)])
        assert not should_continue(running(noisy, cfg), cfg)


# ----------------------------------------------------------------------
# one configuration


class TestRunConfiguration:
    def test_hand_traced_unconverged_run(self):
        script = {("s", 0): list(PROBE) + [TrialOutcome(1.0, 200.0)] * 7}
        backend = ScriptedBackend(script)
        result = run_configuration(backend, "s", 0, ConvergenceConfig())
        assert result.k_star == 10
        assert not result.converged
        assert result.cv_combined >= 0.5
        assert [c[2] for c in backend.calls] == list(range(10))

    def test_flat_configuration_stops_at_probe(self):
        script = {("s", 0): [TrialOutcome(1.0, 100.0)] * 3}
        result = run_configuration(ScriptedBackend(script), "s", 0, ConvergenceConfig())
        assert result.k_star == 3
        assert result.converged
        assert result.zero_variance_probe
        assert result.final == LevelOutcome(1.0, 100.0)

    def test_finalized_values_are_means_over_all_trials(self):
        script = {("s", 0): list(PROBE) + [TrialOutcome(1.0, 200.0)] * 7}
        result = run_configuration(ScriptedBackend(script), "s", 0, ConvergenceConfig())
        kept = list(PROBE) + [TrialOutcome(1.0, 200.0)] * 7
        assert result.final.accuracy == sum(t.correct for t in kept) / 10
        assert result.final.tokens == sum(t.tokens for t in kept) / 10

    def test_preloaded_trials_are_not_redrawn(self):
        backend = ScriptedBackend({("s", 0): [TrialOutcome(1.0, 100.0)]})
        preloaded = [TrialOutcome(1.0, 100.0)] * 3
        result = run_configuration(backend, "s", 0, ConvergenceConfig(), preloaded=preloaded)
        assert backend.calls == []
        assert result.k_star == 3

    def test_resume_matches_uninterrupted_run(self):
        script = {("s", 0): list(PROBE) + [TrialOutcome(1.0, 200.0)] * 7}
        drawn: list[TrialOutcome] = []
        full = run_configuration(ScriptedBackend(script), "s", 0, ConvergenceConfig(),
                                 on_trial=lambda s, j, k, o: drawn.append(o))
        assert len(drawn) == full.k_star
        resumed = run_configuration(
            ScriptedBackend(script), "s", 0, ConvergenceConfig(),
            preloaded=drawn[:4],
        )
        assert resumed == full

    def test_on_trial_fires_only_for_fresh_draws(self):
        script = {("s", 0): [TrialOutcome(1.0, 100.0)] * 3}
        seen: list[int] = []
        run_configuration(
            ScriptedBackend(script), "s", 0, ConvergenceConfig(),
            preloaded=[TrialOutcome(1.0, 100.0)], on_trial=lambda s, j, k, o: seen.append(k),
        )
        assert seen == [1, 2]

    def test_transient_failures_are_retried(self, mock_server, api_key):
        # the backend's retry policy absorbs transient statuses; the sampler never sees them
        cfg = BackendConfig.from_dict(backend_config_dict(
            mock_server.url, retry={"max_attempts": 3, "backoff_base": 0.0}))
        tasks = parse_tasks([{"sample_id": "s", "prompt": "What is the answer?",
                              "judge": {"type": "exact_match", "expected": "42"}}])
        mock_server.status_queue = [503, 429]
        result = run_configuration(HttpBackend(cfg, tasks), "s", 0, ConvergenceConfig())
        assert result.k_star == 3 and result.converged
        assert len(mock_server.bodies) == 3 + 2  # one POST per trial plus one per transient status

    def test_exhausted_retries_abort_with_partial_statistics(self):
        # a backend that gave up raises; the first exception aborts the configuration
        for fail_at in (0, 4):
            backend = FailingBackend(fail_at=fail_at)
            fired: list[int] = []
            with pytest.raises(ConfigurationError) as err:
                run_configuration(backend, "s", 0, ConvergenceConfig(), target=6,
                                  on_trial=lambda s, j, k, o: fired.append(k))
            assert (err.value.sample_id, err.value.level_index) == ("s", 0)
            assert err.value.count == fail_at == len(fired)
            assert isinstance(err.value.__cause__, ConnectionError)
            # retrying is the backend's job: the failed trial is not drawn again
            assert [call[2] for call in backend.calls] == list(range(fail_at + 1))

    def test_target_draws_exactly_that_many_without_stop_checks(self, monkeypatch):
        import arise.sampling

        checks: list[int] = []
        real = arise.sampling.should_continue
        monkeypatch.setattr(arise.sampling, "should_continue",
                            lambda stats, cfg: checks.append(stats.count) or real(stats, cfg))
        noisy = {("s", 0): [TrialOutcome(float(i % 2), 100.0 * (i + 1)) for i in range(12)]}
        fixed = run_configuration(ScriptedBackend(noisy), "s", 0, ConvergenceConfig(), target=12)
        assert fixed.k_star == 12 and checks == []  # fixed counts may pass m_max
        adaptive = run_configuration(ScriptedBackend(noisy), "s", 0, ConvergenceConfig())
        assert adaptive.k_star == 10
        assert checks == list(range(3, 11))  # one check per stop decision, from m_min on

    @pytest.mark.parametrize("tokens", [2.0**53 + 2, 1e200, math.inf])
    @pytest.mark.parametrize("stored", [False, True], ids=["drawn", "stored"])
    def test_more_than_2_to_the_53_tokens_is_refused(self, tokens, stored):
        """Drawn or stored, a trial past the largest count a float holds exactly stops the
        configuration before any statistic of it is taken or `on_trial` sees it."""
        trials = [TrialOutcome(1.0, 100.0), TrialOutcome(1.0, tokens), TrialOutcome(1.0, 100.0)]
        fired: list[int] = []
        with pytest.raises(ValueError) as err:
            run_configuration(ScriptedBackend({("s", 0): trials}), "s", 0, ConvergenceConfig(),
                              preloaded=trials if stored else (),
                              on_trial=lambda s, j, k, o: fired.append(k))
        assert str(err.value) == (f"configuration ('s', level 0) trial 1 has {tokens!r} completion "
                                  f"tokens, more than 2**53")
        assert fired == ([] if stored else [0])

    def test_probe_cv_covers_the_first_m_min_trials(self):
        flat, cfg = outcomes((1.0, 100.0)) * 3, ConvergenceConfig()
        # (trials, whether the probe is flat): a flat probe before noisy trials, a noisy probe
        # before flat ones, and fewer trials than m_min, whose probe is all of them
        for trials, flat_probe in ((flat + PROBE, True), (PROBE + flat, False),
                                   (flat[:2], True), (PROBE[:2], False)):
            result = run_configuration(ScriptedBackend({("s", 0): list(trials)}), "s", 0, cfg,
                                       target=len(trials))
            assert result.zero_variance_probe == (oracle(trials[:cfg.m_min])[2] == 0.0) == flat_probe


# ----------------------------------------------------------------------
# running stop checks


def neumaier_sum(xs, start=0):
    """The compensated float sum that builtin sum() performs on Python >= 3.12."""
    total, comp = float(start), 0.0
    for x in xs:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@contextmanager
def two_pass_sums(summation):
    """Run `_two_pass`'s sums with `summation` in place of the builtin sum."""
    if summation is sum:
        yield
        return
    arise.sampling.sum = summation
    try:
        yield
    finally:
        del arise.sampling.sum


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 1e7)), min_size=1, max_size=40),
       st.sampled_from([sum, neumaier_sum]))
def test_each_std_is_taken_about_the_cached_mean_bit_for_bit(pairs, summation):
    """Each std is taken about its stream's mean; every bit of `_two_pass` equals the oracle's."""
    trials = outcomes(*pairs)
    with two_pass_sums(summation):
        values = two_pass(trials)
    assert [v.hex() for v in values] == [v.hex() for v in oracle(trials, summation)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 1e7)), min_size=1, max_size=40),
       st.integers(1, 5), st.floats(1e-3, 3.0), st.sampled_from([sum, neumaier_sum]))
def test_a_finished_configuration_reads_its_level_statistics_bit_for_bit(pairs, m_min, tau,
                                                                         summation):
    """`run_configuration`'s result equals the oracle's statistics of its trials and of its probe."""
    trials = outcomes(*pairs)
    cfg = ConvergenceConfig(m_min=m_min, m_max=max(m_min, len(trials)), tau=tau)
    with two_pass_sums(summation):
        result = run_configuration(ScriptedBackend({("s", 0): list(trials)}), "s", 0, cfg,
                                   target=len(trials))
    expected = oracle(trials, summation)
    got = (result.final.accuracy, result.final.tokens, result.cv_combined)
    assert [v.hex() for v in got] == [v.hex() for v in expected]
    assert result.converged == (expected[2] < tau)
    # the probe is the first m_min trials, all of them when fewer
    assert result.zero_variance_probe == (oracle(trials[:m_min], summation)[2] == 0.0)


class CountingRunningCV(_RunningCV):
    """Records the trial count at every call of the exact two-pass fallback."""

    __slots__ = ("exact_at",)

    def __init__(self, preloaded, cfg, exact_at: list[int]):
        super().__init__(cfg)
        self.exact_at = exact_at
        for trial in preloaded:
            self.append(trial)

    def exact_cv(self) -> float:
        self.exact_at.append(self.count)
        return super().exact_cv()


def two_pass_stats(trials, summation) -> SimpleNamespace:
    """The `.count` and `.cv_combined` that `should_continue` reads, the CV from the oracle."""
    return SimpleNamespace(count=len(trials), cv_combined=oracle(trials, summation)[2])


def two_pass_k_star(trials, cfg, summation) -> int:
    """The stop rule as it reads with the statistics rebuilt from every trial at each check."""
    k = 0
    while k < cfg.m_min or should_continue(two_pass_stats(trials[:k], summation), cfg):
        k += 1
    return k


CORRECT = {
    "bernoulli": lambda n: st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n),
    "fractional": lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
    "constant": lambda n: st.floats(0.0, 1.0).map(lambda c: [c] * n),
}
TOKENS = {
    "integer": lambda n: st.lists(st.integers(1, 5000).map(float), min_size=n, max_size=n),
    "fractional": lambda n: st.lists(st.floats(0.5, 1e4), min_size=n, max_size=n),
    "constant": lambda n: st.floats(1.0, 1e6).map(lambda t: [t] * n),
    "near_constant_large": lambda n: st.lists(
        st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0), min_size=n, max_size=n
    ).map(lambda ds: [1e6 + d for d in ds]),
}


@st.composite
def stop_cases(draw):
    """(trials, cfg, preloaded prefix length, index where tau equals the exact CV or None, summation)."""
    n = draw(st.integers(1, 40))
    correct = draw(st.sampled_from(sorted(CORRECT)).flatmap(lambda kind: CORRECT[kind](n)))
    tokens = draw(st.sampled_from(sorted(TOKENS)).flatmap(lambda kind: TOKENS[kind](n)))
    trials = [TrialOutcome(c, t) for c, t in zip(correct, tokens)]
    m_min = draw(st.integers(1, min(5, n)))
    m_max = draw(st.integers(m_min, n))
    summation = draw(st.sampled_from([sum, neumaier_sum]))
    observed_at = draw(st.none() | st.integers(m_min, m_max))
    tau = draw(st.floats(1e-3, 3.0))
    if observed_at is not None:
        cv = oracle(trials[:observed_at], summation)[2]
        if cv > 0:
            tau = cv
        else:
            observed_at = None
    prefix = draw(st.integers(0, m_max))
    return trials, ConvergenceConfig(m_min=m_min, m_max=m_max, tau=tau), prefix, observed_at, summation


def pinned_case(pairs, tau_at: int, summation=sum):
    trials = [TrialOutcome(c, t) for c, t in pairs]
    tau = oracle(trials[:tau_at], summation)[2]
    return trials, ConvergenceConfig(m_min=1, m_max=len(trials), tau=tau), 0, tau_at, summation


class TestRunningStopCheck:
    @settings(max_examples=400, deadline=None)
    @given(stop_cases())
    @example(pinned_case([(0.1, 1e6 + 1), (0.7, 1e6), (0.3, 1e6 - 1), (0.9, 1e6 + 1)], 4))
    @example(pinned_case([(0.1, 1e6 + 1), (0.7, 1e6), (0.3, 1e6 - 1), (0.9, 1e6 + 1)], 4,
                         neumaier_sum))
    @example(pinned_case([(0.6, 1e6), (0.2, 1e6)], 2))
    def test_decision_equals_the_two_pass_decision_at_every_k(self, case):
        trials, cfg, prefix, observed_at, summation = case
        exact_at: list[int] = []
        with two_pass_sums(summation):
            grown = CountingRunningCV(trials[:prefix], cfg, exact_at)
            for k in range(cfg.m_min, cfg.m_max + 1):
                if k < prefix:
                    running = CountingRunningCV(trials[:k], cfg, exact_at)
                else:
                    while grown.count < k:
                        grown.append(trials[grown.count])
                    running = grown
                two_pass = two_pass_stats(trials[:k], summation)
                assert should_continue(running, cfg) == should_continue(two_pass, cfg), k
            k_star = two_pass_k_star(trials, cfg, summation)
            replay = functools.partial(run_configuration, ScriptedBackend({("s", 0): trials}),
                                       "s", 0, cfg, preloaded=trials[:prefix])
            if prefix > k_star:  # stored trials past the stop: no run could have drawn them
                with pytest.raises(ValueError, match=f"holds {prefix} stored trials, but its "
                                                     f"stop rule stops at {k_star}$"):
                    replay()
            else:
                assert replay().k_star == k_star
        if observed_at is not None:
            # tau equals the exact CV there, which no running estimate may decide alone
            assert observed_at in exact_at

    def test_far_from_tau_decides_without_the_two_pass(self):
        trials = [TrialOutcome(float(i % 2), 100.0 * (i + 1)) for i in range(100)]
        cfg = ConvergenceConfig(m_max=1000, tau=0.05)
        exact_at: list[int] = []
        assert should_continue(CountingRunningCV(trials, cfg, exact_at), cfg)
        assert exact_at == []

    def test_run_configuration_checks_the_running_accumulator(self, monkeypatch):
        seen: list[type] = []
        real = arise.sampling.should_continue
        monkeypatch.setattr(arise.sampling, "should_continue",
                            lambda stats, cfg: seen.append(type(stats)) or real(stats, cfg))
        script = {("s", 0): list(PROBE) + [TrialOutcome(1.0, 200.0)] * 7}
        assert run_configuration(ScriptedBackend(script), "s", 0, ConvergenceConfig()).k_star == 10
        assert seen == [_RunningCV] * 8


# ----------------------------------------------------------------------
# budget allocation


class TestCheckMode:
    CFG = ConvergenceConfig(m_min=3, m_max=10, tau=0.5)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_naive_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="at least 1 trial"):
            check_mode(NaiveMode(trials), 2, 2, self.CFG)

    def test_default_budget_resolves_to_five_per_configuration(self):
        assert check_mode(FixedBudgetMode(), 4, 3, self.CFG) == FixedBudgetMode(60)

    def test_budget_below_the_probes_is_infeasible(self):
        assert check_mode(FixedBudgetMode(12), 2, 2, self.CFG) == FixedBudgetMode(12)
        with pytest.raises(InfeasibleBudgetError, match="minimum feasible 12"):
            check_mode(FixedBudgetMode(11), 2, 2, self.CFG)

    def test_other_modes_pass_unchanged(self):
        assert check_mode(AdaptiveMode(), 1, 2, self.CFG) == AdaptiveMode()
        assert check_mode(NaiveMode(1), 1, 2, self.CFG) == NaiveMode(1)
        with pytest.raises(ValueError, match="unknown run mode"):
            check_mode("adaptive", 1, 2, self.CFG)

    def test_run_evaluation_checks_before_drawing(self):
        backend = ScriptedBackend({("s", 0): [TrialOutcome(1.0, 100.0)]})
        for mode in (NaiveMode(0), FixedBudgetMode(5)):
            with pytest.raises(ValueError):
                run_evaluation(backend, ["s"], ["a", "b"], self.CFG, mode)
        assert backend.calls == []


class TestAllocateBudget:
    CFG = ConvergenceConfig(m_min=3, m_max=10, tau=0.5)

    def test_proportional_fixture(self):
        plan = allocate_budget({("s1", 0): 0.3, ("s2", 0): 0.1}, 2, 1, self.CFG, 10)
        assert plan == {("s1", 0): 6, ("s2", 0): 4}
        assert sum(plan.values()) == 10

    def test_infeasible_budget_names_the_minimum(self):
        with pytest.raises(InfeasibleBudgetError, match="minimum feasible 6"):
            allocate_budget({("s1", 0): 0.3, ("s2", 0): 0.1}, 2, 1, self.CFG, 5)

    def test_exact_minimum_gives_probe_counts_only(self):
        plan = allocate_budget({("s1", 0): 0.9, ("s2", 0): 0.1}, 2, 1, self.CFG, 6)
        assert plan == {("s1", 0): 3, ("s2", 0): 3}

    def test_all_zero_cvs_split_uniformly(self):
        plan = allocate_budget({("a", 0): 0.0, ("b", 0): 0.0}, 2, 1, self.CFG, 14)
        assert plan == {("a", 0): 7, ("b", 0): 7}

    def test_leftover_goes_to_highest_cv_first(self):
        # residual 5 splits 2.5/1.66/0.83 -> floors 2/1/0, leftover 2
        cvs = {("a", 0): 0.3, ("b", 0): 0.2, ("c", 0): 0.1}
        plan = allocate_budget(cvs, 3, 1, self.CFG, 14)
        assert plan == {("a", 0): 6, ("b", 0): 5, ("c", 0): 3}

    def test_ties_break_by_sample_then_level(self):
        cvs = {("b", 0): 0.2, ("a", 0): 0.2}
        plan = allocate_budget(cvs, 2, 1, self.CFG, 7)
        assert plan == {("a", 0): 4, ("b", 0): 3}

    def test_mismatched_configuration_count_rejected(self):
        with pytest.raises(ValueError, match="expected probe CVs"):
            allocate_budget({("a", 0): 0.2}, 2, 1, self.CFG, 10)

    def test_random_allocations_conserve_budget(self):
        rng = random.Random(77)
        for _ in range(1_000):
            n = rng.randint(1, 6)
            J = rng.randint(2, 4)
            cvs = {
                (f"s{i}", j): rng.choice([0.0, rng.uniform(0.0, 2.0)])
                for i in range(n)
                for j in range(J)
            }
            B = n * J * self.CFG.m_min + rng.randint(0, 50)
            plan = allocate_budget(cvs, n, J, self.CFG, B)
            assert sum(plan.values()) == B
            assert all(m >= self.CFG.m_min for m in plan.values())

    def test_budget_mode_may_exceed_m_max(self):
        plan = allocate_budget({("a", 0): 1.0, ("b", 0): 0.0}, 2, 1, self.CFG, 40)
        assert plan[("a", 0)] > self.CFG.m_max


# ----------------------------------------------------------------------
# modes


class TestModes:
    def test_parse_mode_forms(self):
        assert parse_mode("adaptive") == AdaptiveMode()
        assert parse_mode("naive:7") == NaiveMode(7)
        assert parse_mode("budget:120") == FixedBudgetMode(120)

    def test_bare_budget_uses_the_default(self):
        assert parse_mode("budget") == FixedBudgetMode(None)

    @pytest.mark.parametrize("text", ["", "naive", "naive:x", "budget:x", "magic:3"])
    def test_parse_mode_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_mode(text)

    def test_describe(self):
        assert "adaptive" in AdaptiveMode().describe()
        assert "1" in NaiveMode(1).describe()
        assert "120" in FixedBudgetMode(120).describe()


# ----------------------------------------------------------------------
# full evaluation runs


class NoDraws:
    """A backend that records each trial it is asked for and draws none."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, int, int]] = []

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
        self.calls.append((sample_id, level_index, trial_index))
        raise LookupError("a replay draws no trials")


def reachable_trials(root: object) -> list[TrialOutcome]:
    """Every TrialOutcome reachable from `root` through `gc.get_referents`, not entering classes."""
    seen: set[int] = set()
    found: list[TrialOutcome] = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, TrialOutcome):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestRunEvaluation:
    def test_the_walk_finds_a_held_trial(self):
        held = SimpleNamespace(trials=list(PROBE))  # the walk enters instances and containers
        assert sorted(reachable_trials({"held": [held]}), key=PROBE.index) == list(PROBE)

    @pytest.mark.parametrize("mode", [AdaptiveMode(), NaiveMode(4), FixedBudgetMode(None)],
                             ids=["adaptive", "naive", "budget"])
    @pytest.mark.parametrize("max_workers", [1, 3])
    def test_a_finished_run_holds_no_trial(self, mode, max_workers):
        """Each configuration keeps its statistics only; its trials go when it finishes."""
        spec = reference_spec()
        run = run_evaluation(SimulatorBackend(spec), list(spec.sample_ids), spec.level_labels,
                             ConvergenceConfig(), mode, max_workers=max_workers)
        assert run.total_trials > 0
        assert reachable_trials(run) == []

    def test_validates_inputs(self):
        backend = SimulatorBackend(reference_spec())
        cfg = ConvergenceConfig()
        with pytest.raises(ValueError, match="at least one sample"):
            run_evaluation(backend, [], ["a", "b"], cfg, AdaptiveMode())
        with pytest.raises(ValueError, match="at least 2 levels"):
            run_evaluation(backend, ["s01"], ["only"], cfg, AdaptiveMode())
        with pytest.raises(ValueError, match="unique"):
            run_evaluation(backend, ["s01", "s01"], ["a", "b"], cfg, AdaptiveMode())

    def test_naive_mode_uniform_trial_counts(self):
        spec = reference_spec()
        run = run_evaluation(
            SimulatorBackend(spec), list(spec.sample_ids),
            ["level0", "level1", "level2"], ConvergenceConfig(), NaiveMode(4),
        )
        assert all(r.k_star == 4 for r in run.configurations.values())
        assert run.total_trials == 4 * len(spec.samples) * spec.n_levels

    def test_naive_mode_rejects_zero_trials(self):
        spec = reference_spec()
        with pytest.raises(ValueError, match="at least 1 trial"):
            run_evaluation(
                SimulatorBackend(spec), list(spec.sample_ids),
                ["level0", "level1", "level2"], ConvergenceConfig(), NaiveMode(0),
            )

    def test_adaptive_counts_stay_within_bounds(self):
        spec = reference_spec()
        cfg = ConvergenceConfig()
        run = run_evaluation(
            SimulatorBackend(spec), list(spec.sample_ids),
            ["level0", "level1", "level2"], cfg, AdaptiveMode(),
        )
        for result in run.configurations.values():
            assert cfg.m_min <= result.k_star <= cfg.m_max
            if result.k_star < cfg.m_max:
                assert result.cv_combined < cfg.tau

    def test_budget_mode_spends_exactly_the_budget(self):
        spec = reference_spec()
        n, J = len(spec.samples), spec.n_levels
        B = 7 * n * J
        run = run_evaluation(
            SimulatorBackend(spec), list(spec.sample_ids),
            ["level0", "level1", "level2"], ConvergenceConfig(), FixedBudgetMode(B),
        )
        assert run.total_trials == B

    def test_budget_mode_default_is_five_per_configuration(self):
        spec = reference_spec()
        run = run_evaluation(
            SimulatorBackend(spec), list(spec.sample_ids),
            ["level0", "level1", "level2"], ConvergenceConfig(), FixedBudgetMode(None),
        )
        assert run.total_trials == 5 * len(spec.samples) * spec.n_levels

    def test_budget_mode_rejects_infeasible_budget(self):
        spec = reference_spec()
        with pytest.raises(InfeasibleBudgetError):
            run_evaluation(
                SimulatorBackend(spec), list(spec.sample_ids),
                ["level0", "level1", "level2"], ConvergenceConfig(), FixedBudgetMode(10),
            )

    def test_trajectories_follow_input_sample_order(self):
        spec = reference_spec()
        run = run_evaluation(
            SimulatorBackend(spec), list(spec.sample_ids),
            ["level0", "level1", "level2"], ConvergenceConfig(), NaiveMode(1),
        )
        assert tuple(t.sample_id for t in run.trajectories) == spec.sample_ids

    def test_run_is_deterministic(self):
        spec = reference_spec()
        args = (
            list(spec.sample_ids), ["level0", "level1", "level2"],
            ConvergenceConfig(), AdaptiveMode(),
        )
        first = run_evaluation(SimulatorBackend(spec), *args)
        second = run_evaluation(SimulatorBackend(spec), *args)
        assert first == second

    def test_parallel_run_equals_sequential(self):
        spec = reference_spec()
        args = (
            list(spec.sample_ids), ["level0", "level1", "level2"],
            ConvergenceConfig(), AdaptiveMode(),
        )
        sequential = run_evaluation(SimulatorBackend(spec), *args, max_workers=1)
        parallel = run_evaluation(SimulatorBackend(spec), *args, max_workers=6)
        assert sequential == parallel

    @pytest.mark.parametrize("mode", [AdaptiveMode(), NaiveMode(4), FixedBudgetMode(None)],
                             ids=["adaptive", "naive", "budget"])
    def test_a_replay_stops_where_the_live_run_stopped(self, mode):
        """A finished run's trials replay to its configurations without a draw.

        A configuration that lost its last trial asks for exactly that trial,
        and one given a trial more is refused.
        """
        spec = reference_spec()
        cfg = ConvergenceConfig()
        drawn: dict[tuple[str, int], list[tuple[int, TrialOutcome]]] = {}
        run = run_evaluation(SimulatorBackend(spec), list(spec.sample_ids), spec.level_labels,
                             cfg, mode,
                             on_trial=lambda s, j, k, o: drawn.setdefault((s, j), []).append((k, o)))
        assert {key: [k for k, _ in trials] for key, trials in drawn.items()} == {
            key: list(range(r.k_star)) for key, r in run.configurations.items()}
        stored = {key: tuple(o for _, o in trials) for key, trials in drawn.items()}
        no_draws = NoDraws()

        def replay(preloaded):
            return run_evaluation(no_draws, run.samples, run.levels, cfg, mode, preloaded=preloaded)

        assert replay(stored) == run
        assert no_draws.calls == []
        # past its probe, so a budget run keeps its probe CVs and with them its allocations
        cut = [key for key, r in run.configurations.items() if r.k_star > cfg.m_min]
        assert cut
        for key in cut:
            k = run.configurations[key].k_star
            no_draws.calls.clear()
            with pytest.raises(ConfigurationError, match=re.escape(f"{key[0]!r}, level {key[1]}")):
                replay({**stored, key: stored[key][:-1]})
            assert no_draws.calls == [(*key, k - 1)]
            with pytest.raises(ValueError, match=f"holds {k + 1} stored trials, but its stop "
                                                 f"rule stops at {k}$"):
                replay({**stored, key: (*stored[key], stored[key][-1])})

    def test_a_failure_stops_the_queued_configurations(self, monkeypatch):
        """Only the configurations already in flight finish; the queued ones never start."""
        release = threading.Event()

        class Pool(ThreadPoolExecutor):
            """Holds every started configuration until the queued ones are cancelled."""

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                release.set()
                super().shutdown(wait=wait)

        class OneBadConfiguration:
            def __init__(self) -> None:
                self.lock = threading.Lock()
                self.calls: list[tuple[str, int, int]] = []

            def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
                with self.lock:
                    self.calls.append((sample_id, level_index, trial_index))
                if (sample_id, level_index) == ("s00", 1):
                    raise ConnectionError("backend down")
                assert release.wait(timeout=10)
                return TrialOutcome(1.0, 100.0)

        monkeypatch.setattr(arise.sampling, "ThreadPoolExecutor", Pool)
        backend = OneBadConfiguration()
        samples = [f"s{i:02d}" for i in range(8)]
        with pytest.raises(ConfigurationError, match="'s00', level 1"):
            run_evaluation(backend, samples, ["low", "high"], ConvergenceConfig(), NaiveMode(1),
                           max_workers=2)
        # of 16 configurations, the first two start; the worker freed by the failure
        # may take one more before the queue is cancelled, and nothing else starts
        assert {("s00", 0, 0), ("s00", 1, 0)} <= set(backend.calls)
        assert len(backend.calls) <= 3

    def test_lower_tau_never_samples_less(self):
        spec = reference_spec()
        samples = list(spec.sample_ids)
        levels = ["level0", "level1", "level2"]
        runs = {
            tau: run_evaluation(
                SimulatorBackend(spec), samples, levels,
                ConvergenceConfig(tau=tau), AdaptiveMode(),
            )
            for tau in (1.0, 0.5, 0.25)
        }
        for key in runs[1.0].configurations:
            k_loose = runs[1.0].configurations[key].k_star
            k_mid = runs[0.5].configurations[key].k_star
            k_tight = runs[0.25].configurations[key].k_star
            assert k_loose <= k_mid <= k_tight
