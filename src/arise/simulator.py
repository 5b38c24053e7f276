"""Seeded synthetic evaluation backend with closed-form ground truth.

Correctness is Bernoulli per (sample, level) and token counts are
log-normal, rounded to whole tokens. Every draw is keyed by
(seed, sample_id, level_index, trial_index) through a short hash, so
outcomes are reproducible regardless of call order, thread interleaving,
or resumption, and the expected values of both quantities are available
in closed form for consistency tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .metrics import (
    LevelOutcome,
    SampleTrajectory,
    arise_aggregate,
    build_scaling_curve,
    scaling_metric,
)
from .sampling import (
    EPSILON,
    ConfigurationError,
    ConvergenceConfig,
    RunMode,
    TrialOutcome,
    check_mode,
    run_evaluation,
)
from .store import _encode, read_config, read_mapping

__all__ = [
    "LevelParams",
    "SyntheticSample",
    "SyntheticModelSpec",
    "SimulatorBackend",
    "ModeStudy",
    "derive_seed",
    "simulate_trial",
    "ground_truth_trajectories",
    "check_study",
    "replicate_study",
    "reference_spec",
]


def derive_seed(*parts: object) -> int:
    """Collapse arbitrary key parts into a stable 64-bit seed."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class LevelParams:
    """Outcome distribution for one (sample, level) configuration."""

    p_correct: float  # Bernoulli success probability
    token_log_mean: float  # log-space mean of the token distribution
    token_log_std: float  # log-space std, >= 0; 0 degenerates to exp(token_log_mean)


@dataclass(frozen=True)
class SyntheticSample:
    id: str
    levels: tuple[LevelParams, ...]


@dataclass(frozen=True)
class SyntheticModelSpec:
    """Full description of a synthetic model over a fixed sample set."""

    seed: int
    samples: tuple[SyntheticSample, ...]
    _by_id: dict[str, SyntheticSample] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("spec needs at least one sample")
        by_id = {s.id: s for s in self.samples}
        if len(by_id) != len(self.samples):
            raise ValueError("sample ids must be unique")
        object.__setattr__(self, "_by_id", by_id)
        widths = {len(s.levels) for s in self.samples}
        if len(widths) != 1:
            raise ValueError(f"samples disagree on level count: {sorted(widths)}")
        if min(widths) < 2:  # ARISE scores changes between levels
            raise ValueError(f"spec needs at least 2 levels, got {min(widths)}")
        for sample in self.samples:
            for j, params in enumerate(sample.levels):
                if not 0.0 <= params.p_correct <= 1.0:
                    raise ValueError(
                        f"sample {sample.id!r} level {j}: p_correct {params.p_correct!r} not in [0, 1]"
                    )
                # a token draw is exp() of a normal draw: NaN fails these too
                if not 0 <= params.token_log_std < math.inf:
                    raise ValueError(f"sample {sample.id!r} level {j}: token_log_std "
                                     f"{params.token_log_std!r} must be finite and >= 0")
                if not -math.inf < params.token_log_mean <= 709.78:  # exp() of more overflows
                    raise ValueError(f"sample {sample.id!r} level {j}: token_log_mean "
                                     f"{params.token_log_mean!r} must be finite and <= 709.78")

    @property
    def n_levels(self) -> int:
        return len(self.samples[0].levels)

    @property
    def sample_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.samples)

    @property
    def level_labels(self) -> tuple[str, ...]:
        """The labels that runs and studies of this spec give its levels."""
        return tuple(f"level{j}" for j in range(self.n_levels))

    def params(self, sample_id: str, level_index: int) -> LevelParams:
        sample = self._by_id.get(sample_id)
        if sample is None:
            raise ValueError(f"unknown sample id {sample_id!r}")
        if not 0 <= level_index < len(sample.levels):
            raise ValueError(f"level index {level_index} out of range for sample {sample_id!r}")
        return sample.levels[level_index]

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticModelSpec":
        return read_config(cls, data, "simulator spec")

    @classmethod
    def from_file(cls, path: str | Path) -> "SyntheticModelSpec":
        return cls.from_dict(read_mapping(path, "simulator spec"))


def simulate_trial(
    spec: SyntheticModelSpec, sample_id: str, level_index: int, trial_index: int
) -> TrialOutcome:
    """Draw one trial outcome from its own keyed random stream.

    Token draws are rounded to whole tokens (floor 1) so stored integer
    counts reproduce in-memory values exactly.
    """
    params = spec.params(sample_id, level_index)
    rng = random.Random(derive_seed(spec.seed, sample_id, level_index, trial_index))
    correct = 1.0 if rng.random() < params.p_correct else 0.0
    if params.token_log_std == 0:
        raw = math.exp(params.token_log_mean)
    else:
        try:
            raw = rng.lognormvariate(params.token_log_mean, params.token_log_std)
        except OverflowError:  # past the float range: the sampler refuses it as too many tokens
            return TrialOutcome(correct, math.inf)
    return TrialOutcome(correct, float(max(1, round(raw))))


class SimulatorBackend:
    """EvaluationBackend over a synthetic spec; stateless after construction."""

    def __init__(self, spec: SyntheticModelSpec):
        self.spec = spec

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
        return simulate_trial(self.spec, sample_id, level_index, trial_index)


def ground_truth_trajectories(spec: SyntheticModelSpec) -> list[SampleTrajectory]:
    """Closed-form expectations per sample: p_correct and exp(log_mean + log_std^2 / 2) per level."""
    return [
        SampleTrajectory(
            sample.id,
            tuple(
                LevelOutcome(p.p_correct, math.exp(p.token_log_mean + p.token_log_std**2 / 2))
                for p in sample.levels
            ),
        )
        for sample in spec.samples
    ]


def _abs_cv(values: Sequence[float]) -> float:
    # Across-run CV; the mean can be negative, so divide by its magnitude.
    return statistics.pstdev(values) / (abs(statistics.fmean(values)) + EPSILON)


@dataclass(frozen=True)
class ModeStudy:
    """Across-run metric distributions for one sampling mode."""

    mode: str
    arise: tuple[float, ...]
    scaling: tuple[float, ...]
    trials: tuple[int, ...]
    unconverged: tuple[int, ...]

    @property
    def arise_mean(self) -> float:
        return statistics.fmean(self.arise)

    @property
    def arise_std(self) -> float:
        return statistics.pstdev(self.arise)

    @property
    def arise_cv(self) -> float:
        return _abs_cv(self.arise)

    @property
    def scaling_mean(self) -> float:
        return statistics.fmean(self.scaling)

    @property
    def scaling_std(self) -> float:
        return statistics.pstdev(self.scaling)

    @property
    def scaling_cv(self) -> float:
        return _abs_cv(self.scaling)

    @property
    def total_trials(self) -> int:
        return sum(self.trials)


def check_study(
    spec: SyntheticModelSpec, cfg: ConvergenceConfig, modes: Sequence[RunMode], replications: int
) -> None:
    """Refuse a study that cannot run to the end: no replications, or a mode `check_mode` rejects."""
    if replications < 1:
        raise ValueError(f"need at least 1 replication, got {replications}")
    for mode in modes:
        check_mode(mode, len(spec.sample_ids), spec.n_levels, cfg)


def _replicate(
    spec: SyntheticModelSpec, cfg: ConvergenceConfig, mode: RunMode, root: int, r: int
) -> tuple[float, float, int, int]:
    """Replication r of one mode: (ARISE, scaling metric, trials drawn, unconverged configurations).

    A pure function of its arguments, so a worker process returns what the
    calling process would have computed.
    """
    reseeded = dataclasses.replace(spec, seed=derive_seed(root, "replication", r))
    try:
        run = run_evaluation(SimulatorBackend(reseeded), reseeded.sample_ids,
                             reseeded.level_labels, cfg, mode)
    except ConfigurationError as exc:
        # a study keeps no store to resume, so a failed draw is a plain error;
        # a ValueError also travels back from a worker, which ConfigurationError cannot
        raise ValueError(str(exc)) from exc
    return (
        arise_aggregate(run.trajectories),
        scaling_metric(build_scaling_curve(run.trajectories)),
        run.total_trials,
        run.unconverged_count,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def replicate_study(
    spec: SyntheticModelSpec,
    cfg: ConvergenceConfig,
    modes: Sequence[RunMode],
    replications: int,
    base_seed: int | None = None,
) -> tuple[ModeStudy, ...]:
    """Run R independent full evaluations per mode; one ModeStudy per mode, in order.

    Replication r reseeds the spec with a value derived from
    (base_seed or spec.seed, r), so the same replication index sees
    identical trial draws in every mode and across-mode comparisons are
    paired. Every mode is checked before the first draw.

    The (mode, r) replications run in a pool of forked processes, one per
    usable CPU and no more than there are replications; with one CPU, one
    replication or no `fork` they run in this process. Results are put
    back in (mode, r) order, so the studies are the same either way.
    """
    check_study(spec, cfg, modes, replications)
    root = spec.seed if base_seed is None else base_seed
    tasks = [(spec, cfg, mode, root, r) for mode in modes for r in range(replications)]
    workers = min(_usable_cpus(), len(tasks))
    if workers > 1:
        import multiprocessing  # only a pool needs it, so no other command pays for the import

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        results = [_replicate(*task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # a forked worker flushes the stdio buffers it inherits when it exits
        sys.stdout.flush()
        sys.stderr.flush()
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            # one task per dispatch: an adaptive replication costs some twenty naive:1 ones
            results = list(pool.map(_replicate, *zip(*tasks), chunksize=1))
        finally:
            pool.shutdown(cancel_futures=True)  # joins every worker, after a failure too
    studies = []
    for i, mode in enumerate(modes):
        arise_values, scaling_values, trial_counts, unconverged = zip(
            *results[i * replications:(i + 1) * replications]
        )
        studies.append(
            ModeStudy(
                mode=mode.describe(),
                arise=arise_values,
                scaling=scaling_values,
                trials=trial_counts,
                unconverged=unconverged,
            )
        )
    return tuple(studies)


def reference_spec(seed: int = 42) -> SyntheticModelSpec:
    """The checked-in 8-sample, 3-level workload used by the acceptance suite.

    Accuracy patterns mix steady improvement, flat-high, flat-low, and
    degradation (including a 0.9 -> 0.4 drop) so the aggregate score
    exercises both reward and penalty paths; token scales grow roughly
    2.5x per level with varied log-space spread so probe CVs differ
    enough to make adaptive allocation meaningful.
    """

    def sample(sid: str, ps: tuple[float, ...], base_tokens: tuple[float, ...], stds: tuple[float, ...]) -> SyntheticSample:
        return SyntheticSample(
            id=sid,
            levels=tuple(
                LevelParams(p, math.log(t), s) for p, t, s in zip(ps, base_tokens, stds)
            ),
        )

    tokens = (600.0, 1500.0, 3600.0)
    samples = (
        sample("s01", (0.15, 0.55, 0.90), tokens, (0.45, 0.40, 0.35)),
        sample("s02", (0.30, 0.35, 0.85), tokens, (0.30, 0.55, 0.30)),
        sample("s03", (0.92, 0.94, 0.96), tokens, (0.25, 0.25, 0.25)),
        sample("s04", (0.90, 0.40, 0.25), tokens, (0.35, 0.50, 0.45)),
        sample("s05", (0.75, 0.70, 0.55), tokens, (0.40, 0.35, 0.30)),
        sample("s06", (0.50, 0.50, 0.50), tokens, (0.60, 0.55, 0.50)),
        sample("s07", (0.20, 0.25, 0.70), tokens, (0.30, 0.45, 0.55)),
        sample("s08", (0.10, 0.12, 0.15), tokens, (0.35, 0.30, 0.40)),
    )
    return SyntheticModelSpec(seed=seed, samples=samples)
