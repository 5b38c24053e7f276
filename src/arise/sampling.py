"""Adaptive trial allocation driven by coefficient-of-variation stopping.

Each (sample, level) configuration is evaluated by probing `m_min` trials
and then drawing further trials one at a time until the combined CV of
accuracy and tokens drops below `tau`, capping at exactly `m_max` trials.
Alternatively a fixed total budget can be split across configurations in
proportion to their probe CVs, or every configuration can simply run a
uniform number of trials.

`run_evaluation` is the one place that decides what a run's records hold:
a live run, a resume and `arise compute`'s replay of the records all go
through it. Stored trials pass the same stop rule as fresh ones, one at a
time; a replay's backend draws nothing, so a configuration short of its
stop rule fails as a draw would, and one holding more trials than its
rule draws raises ValueError.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

from .metrics import LevelOutcome, SampleTrajectory

__all__ = [
    "EPSILON",
    "TrialOutcome",
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
    "run_configuration",
    "allocate_budget",
    "run_evaluation",
    "check_mode",
    "parse_mode",
]

EPSILON = 1e-8  # CV denominator guard; keeps zero-mean statistics finite
_MAX_TOKENS = 2**53  # the largest count a float holds exactly; far larger ones overflow _pstd

# A proportional budget share that is integral in exact arithmetic can land
# one ulp below the integer in floats; nudge by this before flooring.
_FLOOR_GUARD = 1e-9


class SamplingStateError(RuntimeError):
    """An operation was invoked before the state it needs exists."""


class InfeasibleBudgetError(ValueError):
    """The total budget cannot cover the mandatory probe trials."""


class ConfigurationError(RuntimeError):
    """A backend call failed, so one configuration aborted; retrying is the backend's job."""

    def __init__(self, sample_id: str, level_index: int, count: int, cause: BaseException):
        super().__init__(
            f"configuration ({sample_id!r}, level {level_index}) failed at trial {count}: {cause}"
        )
        self.sample_id = sample_id
        self.level_index = level_index
        self.count = count  # trials completed before the abort


@dataclass(frozen=True, slots=True)
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


def _pstd(xs: Sequence[float], mu: float) -> float:
    """Population standard deviation of `xs` about their mean `mu`."""
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / len(xs))


def _two_pass(correct: Sequence[float], tokens: Sequence[float]) -> tuple[float, float, float]:
    """Mean accuracy, mean tokens and combined CV of one configuration's trials.

    The one definition of the stop rule's statistics: each stream's mean is
    its sum over k, its population standard deviation (divisor k) is taken
    about that mean, and its CV divides by mean + EPSILON; the combined CV
    is the accuracy CV plus the token CV.
    """
    mean_acc, mean_tok = _mean(correct), _mean(tokens)
    cv_acc = _pstd(correct, mean_acc) / (mean_acc + EPSILON)
    return mean_acc, mean_tok, cv_acc + _pstd(tokens, mean_tok) / (mean_tok + EPSILON)


@dataclass(frozen=True)
class ConvergenceConfig:
    """Stopping-rule parameters for adaptive sampling."""

    m_min: int = 3
    m_max: int = 10
    tau: float = 0.5

    def __post_init__(self) -> None:
        for name in ("m_min", "m_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.tau, bool) or not isinstance(self.tau, (int, float)):
            raise ValueError(f"tau must be a real number, got {self.tau!r}")
        if self.m_min < 1:
            raise ValueError(f"m_min must be >= 1, got {self.m_min}")
        if self.m_max < self.m_min:
            raise ValueError(f"m_max ({self.m_max}) must be >= m_min ({self.m_min})")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


def should_continue(stats: _RunningCV, cfg: ConvergenceConfig) -> bool:
    """True while the configuration needs more trials.

    Continues while the combined CV is still at or above tau and fewer than
    m_max trials have run; total trials therefore never exceed m_max.
    `stats` may be any object with `.count` and `.cv_combined`, such as the
    running accumulator (`_RunningCV`) that `run_configuration` keeps, whose
    combined CV is the `_two_pass` one.
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
# - two-pass (_two_pass): the mean is off by at most k u m, and
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

    Keeps the `correct` and `tokens` values of its trials in two lists and
    exposes `.count` and `.cv_combined` to `should_continue`. The combined
    CV comes from running sums when it lies farther from tau than the guard
    band above; otherwise it is the exact two-pass value, so every stop
    decision equals the one `_two_pass` gives on every interpreter.
    """

    __slots__ = ("correct", "tokens", "_tau", "_s_acc", "_q_acc", "_m_acc", "_s_tok", "_q_tok",
                 "_m_tok")

    def __init__(self, cfg: ConvergenceConfig):
        self.correct: list[float] = []
        self.tokens: list[float] = []
        self._tau = cfg.tau
        self._s_acc = self._q_acc = self._m_acc = 0.0
        self._s_tok = self._q_tok = self._m_tok = 0.0

    def append(self, trial: TrialOutcome) -> None:
        c, t = trial.correct, trial.tokens
        self.correct.append(c)
        self.tokens.append(t)
        self._s_acc += c
        self._q_acc += c * c
        # max(m, abs(x)) keeps m unless abs(x) > m, NaN included; most trials leave m as it is
        if abs(c) > self._m_acc:
            self._m_acc = abs(c)
        self._s_tok += t
        self._q_tok += t * t
        if abs(t) > self._m_tok:
            self._m_tok = abs(t)

    @property
    def count(self) -> int:
        return len(self.correct)

    @property
    def cv_combined(self) -> float:
        k = len(self.correct)
        g = (3 * k + 6) * _U
        cv_acc, band_acc = _stream_cv(k, self._s_acc, self._q_acc, self._m_acc, g)
        cv_tok, band_tok = _stream_cv(k, self._s_tok, self._q_tok, self._m_tok, g)
        cv = cv_acc + cv_tok
        if g <= _MAX_G and abs(cv - self._tau) > 2.0 * (band_acc + band_tok + 4.0 * _U * cv):
            return cv
        return self.exact_cv()

    def exact_cv(self) -> float:
        return _two_pass(self.correct, self.tokens)[2]


@dataclass(frozen=True)
class ConfigurationResult:
    """Everything learned about one (sample, level) configuration; its trials are not kept."""

    sample_id: str
    level_index: int
    k_star: int  # total retained trials
    final: LevelOutcome
    cv_combined: float  # combined CV over all k_star trials
    converged: bool  # final combined CV fell below tau
    zero_variance_probe: bool  # all probe trials were identical; CV gave no signal


# Called after each fresh trial with (sample_id, level_index, trial_index, outcome);
# replayed trials never re-fire it.
TrialCallback = Callable[[str, int, int, TrialOutcome], None]


def _draws_more(stats: _RunningCV, cfg: ConvergenceConfig, target: int | None) -> bool:
    """The stop rule: True while a configuration holding `stats` draws another trial.

    With `target` it draws up to that many trials; without, it probes
    `cfg.m_min` trials, then asks `should_continue`.
    """
    if target is not None:
        return stats.count < target
    if stats.count < cfg.m_min:
        return True
    return should_continue(stats, cfg)


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
    `preloaded` outcomes (e.g. replayed from a trace store) are the earliest
    trials: each passes the stop rule as a fresh one would and is not
    re-drawn, which makes an interrupted run resumable without perturbing
    its decisions. Preloaded outcomes left over when the rule stops raise
    ValueError, since no run under this rule could have stored them.
    `on_trial` fires once per fresh outcome. The first exception from the
    backend aborts the configuration with a ConfigurationError holding the
    number of trials so far. The result keeps statistics only: the trials are
    dropped when the configuration finishes.
    """
    running = _RunningCV(cfg)
    correct, tokens = running.correct, running.tokens
    while _draws_more(running, cfg, target):
        idx = len(correct)
        fresh = idx >= len(preloaded)
        if fresh:
            try:
                outcome = backend.evaluate(sample_id, level_index, idx)
            except Exception as exc:
                raise ConfigurationError(sample_id, level_index, idx, exc) from exc
        else:
            outcome = preloaded[idx]
        if outcome.tokens > _MAX_TOKENS:
            raise ValueError(f"configuration ({sample_id!r}, level {level_index}) trial {idx} has "
                             f"{outcome.tokens!r} completion tokens, more than 2**53")
        running.append(outcome)
        if fresh and on_trial is not None:
            on_trial(sample_id, level_index, idx, outcome)
    k = len(correct)
    if k < len(preloaded):
        raise ValueError(
            f"configuration ({sample_id!r}, level {level_index}) holds {len(preloaded)} stored "
            f"trials, but its stop rule stops at {k}"
        )
    mean_acc, mean_tok, cv = _two_pass(correct, tokens)
    # the probe is the first m_min trials (all of them when fewer), through _two_pass as well
    m_min = cfg.m_min
    probe_cv = cv if k <= m_min else _two_pass(correct[:m_min], tokens[:m_min])[2]
    return ConfigurationResult(
        sample_id=sample_id,
        level_index=level_index,
        k_star=k,
        final=LevelOutcome(mean_acc, mean_tok),
        cv_combined=cv,
        converged=cv < cfg.tau,
        zero_variance_probe=probe_cv == 0.0,
    )


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
    completed work; they pass the stop rule as `run_configuration` says.
    With max_workers > 1 distinct configurations execute concurrently;
    trials within a configuration stay strictly sequential. After a
    configuration fails, the queued ones never start: those already in
    flight finish, then the first failure is raised. Trajectories follow
    `samples` order and feed the metric functions unchanged.
    """
    samples = tuple(samples)
    levels = tuple(levels)
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    if len(levels) < 2:
        raise ValueError(f"need at least 2 levels, got {len(levels)}")
    if len(set(samples)) != len(samples):
        raise ValueError("sample ids must be unique")
    n, J = len(samples), len(levels)
    mode = check_mode(mode, n, J, cfg)
    stored = preloaded or {}
    keys = [(sid, j) for sid in samples for j in range(J)]

    def run_all(
        target: Callable[[tuple[str, int]], int | None],
        start: Mapping[tuple[str, int], Sequence[TrialOutcome]],
        fired: TrialCallback | None = on_trial,
    ) -> dict[tuple[str, int], ConfigurationResult]:
        def one(key: tuple[str, int]) -> ConfigurationResult:
            return run_configuration(backend, key[0], key[1], cfg, preloaded=start.get(key, ()),
                                     target=target(key), on_trial=fired)

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

    if isinstance(mode, FixedBudgetMode):
        # the probe phase holds the first m_min trials; the allocation decides the rest
        m_min = cfg.m_min
        drawn: dict[tuple[str, int], list[TrialOutcome]] = {key: [] for key in keys}

        def keep(sample_id: str, level_index: int, trial_index: int, outcome: TrialOutcome) -> None:
            drawn[(sample_id, level_index)].append(outcome)
            if on_trial is not None:
                on_trial(sample_id, level_index, trial_index, outcome)

        probed = run_all(lambda key: m_min, {key: trials[:m_min] for key, trials in stored.items()},
                         keep)
        allocation = allocate_budget({key: r.cv_combined for key, r in probed.items()},
                                     n, J, cfg, mode.budget)
        # a probe draws only past the stored trials, so stored + drawn is every trial so far
        results = run_all(allocation.__getitem__,
                          {key: (*stored.get(key, ()), *drawn.pop(key)) for key in keys})
    else:
        count = mode.trials if isinstance(mode, NaiveMode) else None  # None: adaptive stopping
        results = run_all(lambda key: count, stored)
    trajectories = tuple(
        SampleTrajectory(sid, tuple(results[(sid, j)].final for j in range(J))) for sid in samples
    )
    return EvaluationRun(samples, levels, results, trajectories)
