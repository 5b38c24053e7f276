"""Adaptive trial allocation driven by coefficient-of-variation stopping.

Each (sample, level) configuration is evaluated by probing `m_min` trials
and then drawing further trials one at a time until the combined CV of
accuracy and tokens drops below `tau`, capping at exactly `m_max` trials.
Alternatively a fixed total budget can be split across configurations in
proportion to their probe CVs, or every configuration can simply run a
uniform number of trials.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

from .metrics import LevelOutcome, SampleTrajectory

__all__ = [
    "EPSILON",
    "TrialOutcome",
    "LevelStatistics",
    "ConvergenceConfig",
    "EvaluationBackend",
    "ConfigurationResult",
    "EvaluationRun",
    "AdaptiveMode",
    "FixedBudgetMode",
    "NaiveMode",
    "RunMode",
    "SamplingStateError",
    "InfeasibleBudgetError",
    "ConfigurationError",
    "should_continue",
    "finalize_configuration",
    "run_configuration",
    "allocate_budget",
    "run_evaluation",
    "check_mode",
    "parse_mode",
]

EPSILON = 1e-8  # CV denominator guard; keeps zero-mean statistics finite

# A proportional budget share that is integral in exact arithmetic can land
# one ulp below the integer in floats; nudge by this before flooring.
_FLOOR_GUARD = 1e-9


class SamplingStateError(RuntimeError):
    """An operation was invoked before the state it needs exists."""


class InfeasibleBudgetError(ValueError):
    """The total budget cannot cover the mandatory probe trials."""


class ConfigurationError(RuntimeError):
    """A backend call failed, so one configuration aborted; retrying is the backend's job."""

    def __init__(self, sample_id: str, level_index: int, stats: "LevelStatistics", cause: BaseException):
        super().__init__(
            f"configuration ({sample_id!r}, level {level_index}) failed at trial {stats.count}: "
            f"{cause}"
        )
        self.sample_id = sample_id
        self.level_index = level_index
        self.stats = stats  # statistics over the trials completed before the abort


@dataclass(frozen=True)
class TrialOutcome:
    """One judged evaluation attempt."""

    correct: float  # in [0, 1]; typically 0/1 from a single judged attempt
    tokens: float  # completion tokens for the attempt, > 0


class EvaluationBackend(Protocol):
    """Anything that can produce one trial outcome per (sample, level, trial).

    Successive calls for the same (sample, level) must be independent draws;
    tokens must be strictly positive. Implementations must tolerate
    concurrent calls; per-configuration ordering is the sampler's job.
    """

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome: ...


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _pstd(xs: Sequence[float]) -> float:
    mu = _mean(xs)
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / len(xs))


@dataclass(frozen=True)
class LevelStatistics:
    """Statistics over the retained trials of one configuration.

    Every derived value is a function of the retained trial tuple alone,
    so an instance built trial-by-trial is bit-identical to one built from
    the full list at once. The means and standard deviations are computed
    on first access and cached. Standard deviations are population
    (divisor k) estimates; CVs divide by mean + EPSILON.
    """

    trials: tuple[TrialOutcome, ...] = ()

    def _require_trials(self) -> None:
        if not self.trials:
            raise SamplingStateError("statistics undefined with zero trials")

    @property
    def count(self) -> int:
        return len(self.trials)

    @functools.cached_property
    def mean_acc(self) -> float:
        self._require_trials()
        return _mean([t.correct for t in self.trials])

    @functools.cached_property
    def std_acc(self) -> float:
        self._require_trials()
        return _pstd([t.correct for t in self.trials])

    @functools.cached_property
    def mean_tok(self) -> float:
        self._require_trials()
        return _mean([t.tokens for t in self.trials])

    @functools.cached_property
    def std_tok(self) -> float:
        self._require_trials()
        return _pstd([t.tokens for t in self.trials])

    @property
    def cv_acc(self) -> float:
        return self.std_acc / (self.mean_acc + EPSILON)

    @property
    def cv_tok(self) -> float:
        return self.std_tok / (self.mean_tok + EPSILON)

    @property
    def cv_combined(self) -> float:
        return self.cv_acc + self.cv_tok

    @property
    def final(self) -> LevelOutcome:
        """Finalized outcome: the means over all retained trials."""
        return LevelOutcome(self.mean_acc, self.mean_tok)

    def probe_cv(self, m_min: int) -> float:
        """Combined CV of the first m_min trials, the probe phase (all trials when fewer)."""
        probe = self if self.count <= m_min else LevelStatistics(self.trials[:m_min])
        return probe.cv_combined


@dataclass(frozen=True)
class ConvergenceConfig:
    """Stopping-rule parameters for adaptive sampling."""

    m_min: int = 3
    m_max: int = 10
    tau: float = 0.5

    def __post_init__(self) -> None:
        if self.m_min < 1:
            raise ValueError(f"m_min must be >= 1, got {self.m_min}")
        if self.m_max < self.m_min:
            raise ValueError(f"m_max ({self.m_max}) must be >= m_min ({self.m_min})")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


def should_continue(stats: LevelStatistics, cfg: ConvergenceConfig) -> bool:
    """True while the configuration needs more trials.

    Continues while the combined CV is still at or above tau and fewer than
    m_max trials have run; total trials therefore never exceed m_max.
    `stats` may be any object with `.count` and `.cv_combined`, such as the
    running accumulator that `run_configuration` keeps.
    """
    if stats.count < cfg.m_min:
        raise SamplingStateError(
            f"probing incomplete: {stats.count} of {cfg.m_min} trials collected"
        )
    return stats.cv_combined >= cfg.tau and stats.count < cfg.m_max


# Guard band of the running stop check (_RunningCV). For one stream x_1..x_k
# (correct or tokens) let mu and sigma be the exact mean and population std,
# m = max|x_i|, u = 2^-53 and g = (3k + 6)u. Rounding-error bounds for
# recursive summation (error <= (k-1)u sum|x|; Neumaier's sum() on Python
# >= 3.12 stays inside it) give:
# - two-pass (LevelStatistics): the mean is off by at most k u m, and
#   sqrt(sigma^2 + mean error^2) carries a relative error of (k/2 + 3)u,
#   so |std_e - sigma| <= (1.5k + 4)u m;
# - running sums S, Q: |Q/k - (S/k)^2 - sigma^2| <= E = (3k + 4)u m^2, so
#   |std_r - sigma| <= E / sqrt(max(var_r, E)). That is E / sqrt(var_r) while
#   var_r resolves sigma^2 and sqrt(E) in the cancellation region var_r < E,
#   where the sum of squares cancels against k mean^2 and var_r has no digits.
# Hence |std_r - std_e| <= G = g m (1 + m / sqrt(max(var_r, g m^2))). Both
# denominators mean + eps lie within dD = g (m + eps) of each other; with
# D_r >= 4 dD this gives |cv_r - cv_e| <= (4/3)(G + cv_r dD) / D_r + 2u cv_r per
# stream, and the final addition adds 2u cv. The band doubles the per-stream
# (G + cv_r dD) / D_r plus 4u cv, which also covers the second-order terms
# (g <= 2^-20) and the band's own rounding. Outside 2^-400 <= m <= 2^400, or
# with D_r < 4 dD, the bound is not claimed and the exact path decides; inside,
# underflow errors (at most k 2^-1074) stay below u m^2. m == 0 means every
# value is zero, and both paths give a CV of exactly 0.
_U = 2.0 ** -53
_M_MIN, _M_MAX = 2.0 ** -400, 2.0 ** 400
_MAX_G = 2.0 ** -20


def _stream_cv(k: int, s: float, q: float, m: float, g: float) -> tuple[float, float]:
    """One stream's CV from running sums and its guard band (inf when the bound does not hold)."""
    if m == 0.0 and q == 0.0:  # q is NaN when a value is
        return 0.0, 0.0
    if not _M_MIN <= m <= _M_MAX:
        return math.nan, math.inf
    mean = s / k
    var = q / k - mean * mean
    den = mean + EPSILON
    d_den = g * (m + EPSILON)
    if not den >= 4.0 * d_den:
        return math.nan, math.inf
    cv = math.sqrt(var) / den if var > 0.0 else 0.0
    gap = g * m * (1.0 + m / math.sqrt(max(var, g * m * m)))
    return cv, (gap + cv * d_den) / den


class _RunningCV:
    """The trials of one configuration with running sums, for O(1) stop checks.

    Exposes `.count` and `.cv_combined` to `should_continue`. The combined
    CV comes from running sums when it lies farther from tau than the guard
    band above; otherwise it is the exact two-pass `LevelStatistics` value,
    so every stop decision equals the two-pass one on every interpreter.
    """

    __slots__ = ("trials", "_tau", "_s_acc", "_q_acc", "_m_acc", "_s_tok", "_q_tok", "_m_tok")

    def __init__(self, preloaded: Sequence[TrialOutcome], cfg: ConvergenceConfig):
        self.trials: list[TrialOutcome] = []
        self._tau = cfg.tau
        self._s_acc = self._q_acc = self._m_acc = 0.0
        self._s_tok = self._q_tok = self._m_tok = 0.0
        for trial in preloaded:
            self.append(trial)

    def append(self, trial: TrialOutcome) -> None:
        self.trials.append(trial)
        c, t = trial.correct, trial.tokens
        self._s_acc += c
        self._q_acc += c * c
        self._m_acc = max(self._m_acc, abs(c))
        self._s_tok += t
        self._q_tok += t * t
        self._m_tok = max(self._m_tok, abs(t))

    @property
    def count(self) -> int:
        return len(self.trials)

    @property
    def cv_combined(self) -> float:
        k = len(self.trials)
        g = (3 * k + 6) * _U
        cv_acc, band_acc = _stream_cv(k, self._s_acc, self._q_acc, self._m_acc, g)
        cv_tok, band_tok = _stream_cv(k, self._s_tok, self._q_tok, self._m_tok, g)
        cv = cv_acc + cv_tok
        if g <= _MAX_G and abs(cv - self._tau) > 2.0 * (band_acc + band_tok + 4.0 * _U * cv):
            return cv
        return self.exact_cv()

    def exact_cv(self) -> float:
        return LevelStatistics(tuple(self.trials)).cv_combined


@dataclass(frozen=True)
class ConfigurationResult:
    """Everything learned about one (sample, level) configuration."""

    sample_id: str
    level_index: int
    k_star: int  # total retained trials
    final: LevelOutcome
    stats: LevelStatistics
    converged: bool  # final combined CV fell below tau
    zero_variance_probe: bool  # all probe trials were identical; CV gave no signal


# Called after each fresh trial with (sample_id, level_index, trial_index, outcome);
# replayed trials never re-fire it.
TrialCallback = Callable[[str, int, int, TrialOutcome], None]


def finalize_configuration(
    sample_id: str,
    level_index: int,
    trials: Sequence[TrialOutcome],
    cfg: ConvergenceConfig,
) -> ConfigurationResult:
    """Summarize one configuration's trials; a live run and a replay of its records agree."""
    stats = LevelStatistics(tuple(trials))
    return ConfigurationResult(
        sample_id=sample_id,
        level_index=level_index,
        k_star=stats.count,
        final=stats.final,
        stats=stats,
        converged=stats.cv_combined < cfg.tau,
        zero_variance_probe=stats.probe_cv(cfg.m_min) == 0.0,
    )


def run_configuration(
    backend: EvaluationBackend,
    sample_id: str,
    level_index: int,
    cfg: ConvergenceConfig,
    *,
    preloaded: Sequence[TrialOutcome] = (),
    target: int | None = None,
    on_trial: TrialCallback | None = None,
) -> ConfigurationResult:
    """Sample one configuration until its stop rule holds.

    Without `target` the rule is adaptive: probe `cfg.m_min` trials, then
    keep drawing while `should_continue` says so. With `target` it draws
    until exactly that many trials are held (naive and budget modes).
    `preloaded` outcomes (e.g. replayed from a trace store) count as the
    earliest trials and are not re-drawn, which makes an interrupted run
    resumable without perturbing its decisions. `on_trial` fires once per
    fresh outcome. The first exception from the backend aborts the
    configuration with a ConfigurationError holding the trials so far.
    """
    running = _RunningCV(preloaded, cfg)
    trials = running.trials

    def more() -> bool:
        if target is not None:
            return len(trials) < target
        if len(trials) < cfg.m_min:
            return True
        return should_continue(running, cfg)

    while more():
        idx = len(trials)
        try:
            outcome = backend.evaluate(sample_id, level_index, idx)
        except Exception as exc:
            partial = LevelStatistics(tuple(trials))
            raise ConfigurationError(sample_id, level_index, partial, exc) from exc
        running.append(outcome)
        if on_trial is not None:
            on_trial(sample_id, level_index, idx, outcome)
    return finalize_configuration(sample_id, level_index, trials, cfg)


def allocate_budget(
    probe_cvs: Mapping[tuple[str, int], float],
    n: int,
    J: int,
    cfg: ConvergenceConfig,
    B: int,
) -> dict[tuple[str, int], int]:
    """Split a total trial budget across n*J configurations by probe CV.

    Returns the trial count per (sample_id, level_index), summing to B.
    Every configuration keeps its `m_min` probe trials; the residual budget
    is divided proportionally to each configuration's share of the summed
    CVs and floored. Whatever flooring left over goes out one extra trial
    at a time in descending CV order (ties broken by sample then level
    index) until exhausted. If every CV is zero the residual is spread
    uniformly instead.
    """
    check_mode(FixedBudgetMode(B), n, J, cfg)
    if len(probe_cvs) != n * J:
        raise ValueError(f"expected probe CVs for {n * J} configurations, got {len(probe_cvs)}")
    residual = B - n * J * cfg.m_min
    total_cv = sum(probe_cvs[key] for key in sorted(probe_cvs))
    allocations: dict[tuple[str, int], int] = {}
    for key in sorted(probe_cvs):
        if total_cv > 0:
            share = residual * (probe_cvs[key] / total_cv)
        else:
            share = residual / (n * J)
        allocations[key] = cfg.m_min + math.floor(share + _FLOOR_GUARD)
    leftover = B - sum(allocations.values())
    order = sorted(probe_cvs, key=lambda key: (-probe_cvs[key], key))
    i = 0
    while leftover > 0:
        allocations[order[i % len(order)]] += 1
        leftover -= 1
        i += 1
    return allocations


@dataclass(frozen=True)
class AdaptiveMode:
    """Per-configuration CV-based stopping with the m_max cap."""

    def describe(self) -> str:
        return "adaptive"


@dataclass(frozen=True)
class FixedBudgetMode:
    """Probe everywhere, then allocate a fixed total budget by probe CV.

    Allocations may exceed m_max: the budget replaces the per-configuration
    cap in this mode.
    """

    budget: int | None = None  # None resolves to 5 * n * J at run time

    def describe(self) -> str:
        return "budget:default" if self.budget is None else f"budget:{self.budget}"


@dataclass(frozen=True)
class NaiveMode:
    """Exactly k trials per configuration; k=1 is the single-sampling baseline."""

    trials: int = 1

    def describe(self) -> str:
        return f"naive:{self.trials}"


RunMode = AdaptiveMode | FixedBudgetMode | NaiveMode


def check_mode(mode: RunMode, n: int, J: int, cfg: ConvergenceConfig) -> RunMode:
    """Refuse a mode that cannot run on n samples x J levels; resolve the default budget.

    Naive mode needs at least one trial per configuration; a budget must
    cover the n*J*m_min probe trials (InfeasibleBudgetError otherwise).
    Returns the mode with a budget of None replaced by 5*n*J.
    """
    if isinstance(mode, NaiveMode) and mode.trials < 1:
        raise ValueError(f"naive mode needs at least 1 trial, got {mode.trials}")
    if isinstance(mode, FixedBudgetMode):
        budget = 5 * n * J if mode.budget is None else mode.budget
        minimum = n * J * cfg.m_min
        if budget < minimum:
            raise InfeasibleBudgetError(
                f"budget {budget} is below the minimum feasible {minimum} "
                f"(n*J*m_min = {n}*{J}*{cfg.m_min})"
            )
        return FixedBudgetMode(budget)
    if not isinstance(mode, (AdaptiveMode, NaiveMode)):
        raise ValueError(f"unknown run mode: {mode!r}")
    return mode


def parse_mode(text: str) -> RunMode:
    """Parse a mode string: 'adaptive', 'naive:K', or 'budget:B'."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "adaptive":
        if arg:
            raise ValueError(f"mode 'adaptive' takes no argument, got {text!r}")
        return AdaptiveMode()
    if name == "naive":
        if not arg:
            raise ValueError("mode 'naive' needs a trial count, e.g. naive:1")
        return NaiveMode(int(arg))
    if name in ("budget", "fixed_budget"):
        return FixedBudgetMode(int(arg)) if arg else FixedBudgetMode()
    raise ValueError(f"unknown mode {text!r}; expected adaptive, naive:K, or budget:B")


@dataclass(frozen=True)
class EvaluationRun:
    """The outcome of one full evaluation across all configurations."""

    samples: tuple[str, ...]
    levels: tuple[str, ...]
    configurations: Mapping[tuple[str, int], ConfigurationResult]
    trajectories: tuple[SampleTrajectory, ...]

    @property
    def total_trials(self) -> int:
        return sum(r.k_star for r in self.configurations.values())

    @property
    def unconverged_count(self) -> int:
        return sum(1 for r in self.configurations.values() if not r.converged)

    @classmethod
    def collect(
        cls,
        samples: Sequence[str],
        levels: Sequence[str],
        configurations: Mapping[tuple[str, int], ConfigurationResult],
    ) -> "EvaluationRun":
        """Assemble per-sample trajectories, levels in index order, from finished configurations."""
        trajectories = tuple(
            SampleTrajectory(sid, tuple(configurations[(sid, j)].final for j in range(len(levels))))
            for sid in samples
        )
        return cls(tuple(samples), tuple(levels), configurations, trajectories)


def run_evaluation(
    backend: EvaluationBackend,
    samples: Sequence[str],
    levels: Sequence[str],
    cfg: ConvergenceConfig,
    mode: RunMode,
    *,
    preloaded: Mapping[tuple[str, int], Sequence[TrialOutcome]] | None = None,
    on_trial: TrialCallback | None = None,
    max_workers: int = 1,
) -> EvaluationRun:
    """Evaluate every (sample, level) configuration under the given mode.

    Modes: AdaptiveMode stops each configuration by CV; FixedBudgetMode
    probes m_min everywhere, then splits the budget (default 5*n*J) by
    probe CV; NaiveMode runs a uniform trial count. `preloaded` maps
    configurations to already-collected outcomes so a restarted run skips
    completed work. With max_workers > 1 distinct configurations execute
    concurrently; trials within a configuration stay strictly sequential.
    After a configuration fails, the queued ones never start: those
    already in flight finish, then the first failure is raised.
    Output trajectories feed the metric functions unchanged.
    """
    samples = list(samples)
    levels = list(levels)
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    if len(levels) < 2:
        raise ValueError(f"need at least 2 levels, got {len(levels)}")
    if len(set(samples)) != len(samples):
        raise ValueError("sample ids must be unique")
    n, J = len(samples), len(levels)
    mode = check_mode(mode, n, J, cfg)
    pre = dict(preloaded) if preloaded else {}
    keys = [(sid, j) for sid in samples for j in range(J)]

    def run_all(
        target: Callable[[tuple[str, int]], int | None],
        start: Mapping[tuple[str, int], Sequence[TrialOutcome]],
    ) -> dict[tuple[str, int], ConfigurationResult]:
        def one(key: tuple[str, int]) -> ConfigurationResult:
            return run_configuration(backend, key[0], key[1], cfg, preloaded=start.get(key, ()),
                                     target=target(key), on_trial=on_trial)

        if max_workers <= 1:
            return {key: one(key) for key in keys}
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(one, key) for key in keys]
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            failed = [f for f in futures if f in done and f.exception() is not None]
            if failed:
                pool.shutdown(cancel_futures=True)  # waits for the configurations in flight
                raise failed[0].exception()
        return {key: f.result() for key, f in zip(keys, futures)}

    if isinstance(mode, AdaptiveMode):
        results = run_all(lambda key: None, pre)
    elif isinstance(mode, NaiveMode):
        results = run_all(lambda key: mode.trials, pre)
    else:
        probed = run_all(lambda key: cfg.m_min, pre)
        probe_cvs = {key: r.stats.probe_cv(cfg.m_min) for key, r in probed.items()}
        allocations = allocate_budget(probe_cvs, n, J, cfg, mode.budget)
        probed_trials = {key: r.stats.trials for key, r in probed.items()}
        results = run_all(allocations.__getitem__, probed_trials)
    return EvaluationRun.collect(samples, levels, results)
