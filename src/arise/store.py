"""Append-only JSONL persistence for trial records, plus result bundles.

One run maps to two files under the store root: `<run_id>.jsonl` with one
trial record per line, and `<run_id>.manifest.json` describing the run.
Appends flush per line, so a crash loses at most the in-flight record: a
torn final line makes readers raise `TornRecordError`, and a resume cuts
it off before appending; no other line is ever rewritten or deleted.
Floats survive the round trip exactly (JSON serialization preserves 17
significant digits).
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .metrics import (
    LevelOutcome,
    SampleTrajectory,
    TransitionMatrix,
    arise_aggregate,
    arise_sample,
    build_scaling_curve,
    scaling_metric,
    transition_matrix,
)
from .sampling import ConvergenceConfig, LevelStatistics, TrialOutcome

__all__ = [
    "TrialRecordLine",
    "RunManifest",
    "SampleScore",
    "ConfigurationSummary",
    "ResultBundle",
    "TraceStore",
    "RecordValidationError",
    "DuplicateTrialError",
    "IncompleteRunError",
    "TornRecordError",
    "read_mapping",
    "write_atomic",
    "write_results_csv",
    "write_curve_csv",
    "write_transitions_csv",
]


class RecordValidationError(ValueError):
    """A trial record field failed validation."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


class DuplicateTrialError(ValueError):
    """The (run, sample, level, trial) key is already stored."""


class IncompleteRunError(RuntimeError):
    """A run is missing records needed to assemble trajectories."""

    def __init__(self, run_id: str, message: str, gaps: Sequence[tuple[str, int]] = ()):
        super().__init__(f"run {run_id!r}: {message}")
        self.run_id = run_id
        self.gaps = tuple(gaps)  # (sample_id, level_index) pairs with no trials


class TornRecordError(IncompleteRunError):
    """The last line of a record file is cut short: the record in flight when the writer stopped."""

    def __init__(self, run_id: str, offset: int):
        super().__init__(
            run_id,
            f"record file ends in a torn line at byte {offset}; `run --resume` drops it",
        )
        self.offset = offset  # where the torn line starts: the length of the intact prefix


def read_mapping(path: str | Path, what: str) -> dict:
    """Load a config file that must hold a mapping: JSON via stdlib json, anything else via PyYAML.

    Stdlib json reads a large simulator spec about a hundred times faster
    than PyYAML, and it reads numbers such as 1e-3 as floats, where PyYAML
    would return strings.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        import yaml  # only non-JSON configs need PyYAML

        data = yaml.safe_load(text)
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} is not a mapping")
    return data


def write_atomic(path: str | Path, text: str) -> None:
    """Write a whole file via a temp sibling and rename, so failures leave no partial output."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _open_for_append(path: Path) -> BinaryIO:
    """Open a record file for appending; a final line cut off just before its newline gets one."""
    handle = open(path, "ab+")
    if handle.seek(0, os.SEEK_END) > 0:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")
    return handle


@dataclass(frozen=True)
class TrialRecordLine:
    """One evaluation attempt, as serialized to the JSONL file."""

    run_id: str
    model: str
    sample_id: str
    level_index: int
    level_label: str
    trial_index: int
    correct: float  # real so pre-aggregated or simulated imports are representable
    completion_tokens: int
    timestamp: str  # RFC3339
    meta: dict = field(default_factory=dict)

    def key(self) -> tuple[str, str, int, int]:
        return (self.run_id, self.sample_id, self.level_index, self.trial_index)

    def validate(self) -> None:
        for name in ("run_id", "model", "sample_id", "level_label", "timestamp"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise RecordValidationError(name, f"must be a non-empty string, got {value!r}")
        for name in ("level_index", "trial_index"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise RecordValidationError(name, f"must be a non-negative integer, got {value!r}")
        if isinstance(self.completion_tokens, bool) or not isinstance(self.completion_tokens, int):
            raise RecordValidationError(
                "completion_tokens", f"must be an integer, got {self.completion_tokens!r}"
            )
        if self.completion_tokens <= 0:
            raise RecordValidationError(
                "completion_tokens", f"must be > 0, got {self.completion_tokens!r}"
            )
        if not isinstance(self.correct, (int, float)) or isinstance(self.correct, bool):
            raise RecordValidationError("correct", f"must be a real number, got {self.correct!r}")
        if not (math.isfinite(self.correct) and 0.0 <= self.correct <= 1.0):
            raise RecordValidationError("correct", f"must be in [0, 1], got {self.correct!r}")
        if not isinstance(self.meta, dict):
            raise RecordValidationError("meta", f"must be an object, got {type(self.meta).__name__}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "run_id": self.run_id,
                "model": self.model,
                "sample_id": self.sample_id,
                "level_index": self.level_index,
                "level_label": self.level_label,
                "trial_index": self.trial_index,
                "correct": self.correct,
                "completion_tokens": self.completion_tokens,
                "timestamp": self.timestamp,
                "meta": self.meta,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "TrialRecordLine":
        data = json.loads(line)
        record = cls(
            run_id=data["run_id"],
            model=data["model"],
            sample_id=data["sample_id"],
            level_index=data["level_index"],
            level_label=data["level_label"],
            trial_index=data["trial_index"],
            correct=float(data["correct"]),
            completion_tokens=data["completion_tokens"],
            timestamp=data["timestamp"],
            meta=data.get("meta", {}),
        )
        record.validate()
        return record


@dataclass(frozen=True)
class RunManifest:
    """Sidecar description of one run; everything recompute needs besides the records."""

    run_id: str
    mode: str  # adaptive | fixed_budget | naive
    cfg: ConvergenceConfig
    levels: tuple[str, ...]
    n_samples: int
    started_at: str
    status: str  # running | complete | failed
    budget: int | None = None  # fixed_budget mode only
    trials: int | None = None  # naive mode only
    seed: int | None = None
    model: str | None = None
    benchmark: str | None = None

    def to_dict(self) -> dict:
        data: dict = {
            "run_id": self.run_id,
            "mode": self.mode,
            "cfg": {"m_min": self.cfg.m_min, "m_max": self.cfg.m_max, "tau": self.cfg.tau},
        }
        if self.budget is not None:
            data["budget"] = self.budget
        if self.trials is not None:
            data["trials"] = self.trials
        if self.seed is not None:
            data["seed"] = self.seed
        data.update(
            {
                "levels": list(self.levels),
                "n_samples": self.n_samples,
                "started_at": self.started_at,
                "status": self.status,
            }
        )
        if self.model is not None:
            data["model"] = self.model
        if self.benchmark is not None:
            data["benchmark"] = self.benchmark
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        cfg = data["cfg"]
        return cls(
            run_id=data["run_id"],
            mode=data["mode"],
            cfg=ConvergenceConfig(m_min=cfg["m_min"], m_max=cfg["m_max"], tau=cfg["tau"]),
            levels=tuple(data["levels"]),
            n_samples=data["n_samples"],
            started_at=data["started_at"],
            status=data["status"],
            budget=data.get("budget"),
            trials=data.get("trials"),
            seed=data.get("seed"),
            model=data.get("model"),
            benchmark=data.get("benchmark"),
        )


@dataclass(frozen=True)
class SampleScore:
    sample_id: str
    arise: float
    non_monotone_tokens: bool
    improve: int
    degrade: int
    unchanged: int


@dataclass(frozen=True)
class ConfigurationSummary:
    sample_id: str
    level_index: int
    k_star: int
    cv_combined: float
    converged: bool
    zero_variance_probe: bool


@dataclass(frozen=True)
class ResultBundle:
    """Everything derived from one run: a pure function of records + manifest."""

    manifest: RunManifest
    sample_scores: tuple[SampleScore, ...]
    aggregate_arise: float
    curve: tuple[tuple[float, float], ...]  # (mean_tokens, mean_accuracy) per level
    scaling_metric: float
    configurations: tuple[ConfigurationSummary, ...]
    transitions: tuple[TransitionMatrix, ...]

    @property
    def n_samples(self) -> int:
        return len(self.sample_scores)

    @property
    def n_levels(self) -> int:
        return len(self.curve)

    @property
    def unconverged_count(self) -> int:
        return sum(1 for c in self.configurations if not c.converged)

    def to_dict(self) -> dict:
        return {
            "manifest": self.manifest.to_dict(),
            "sample_scores": [
                {
                    "sample_id": s.sample_id,
                    "arise": s.arise,
                    "non_monotone_tokens": s.non_monotone_tokens,
                    "improve": s.improve,
                    "degrade": s.degrade,
                    "unchanged": s.unchanged,
                }
                for s in self.sample_scores
            ],
            "aggregate_arise": self.aggregate_arise,
            "curve": [[t, a] for t, a in self.curve],
            "scaling_metric": self.scaling_metric,
            "configurations": [
                {
                    "sample_id": c.sample_id,
                    "level_index": c.level_index,
                    "k_star": c.k_star,
                    "cv_combined": c.cv_combined,
                    "converged": c.converged,
                    "zero_variance_probe": c.zero_variance_probe,
                }
                for c in self.configurations
            ],
            "transitions": [
                {
                    "from_level": t.from_level,
                    "to_level": t.to_level,
                    "correct_to_correct": t.correct_to_correct,
                    "correct_to_incorrect": t.correct_to_incorrect,
                    "incorrect_to_correct": t.incorrect_to_correct,
                    "incorrect_to_incorrect": t.incorrect_to_incorrect,
                }
                for t in self.transitions
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ResultBundle":
        return cls(
            manifest=RunManifest.from_dict(data["manifest"]),
            sample_scores=tuple(
                SampleScore(
                    sample_id=s["sample_id"],
                    arise=s["arise"],
                    non_monotone_tokens=s["non_monotone_tokens"],
                    improve=s["improve"],
                    degrade=s["degrade"],
                    unchanged=s["unchanged"],
                )
                for s in data["sample_scores"]
            ),
            aggregate_arise=data["aggregate_arise"],
            curve=tuple((t, a) for t, a in data["curve"]),
            scaling_metric=data["scaling_metric"],
            configurations=tuple(
                ConfigurationSummary(
                    sample_id=c["sample_id"],
                    level_index=c["level_index"],
                    k_star=c["k_star"],
                    cv_combined=c["cv_combined"],
                    converged=c["converged"],
                    zero_variance_probe=c["zero_variance_probe"],
                )
                for c in data["configurations"]
            ),
            transitions=tuple(
                TransitionMatrix(
                    from_level=t["from_level"],
                    to_level=t["to_level"],
                    correct_to_correct=t["correct_to_correct"],
                    correct_to_incorrect=t["correct_to_incorrect"],
                    incorrect_to_correct=t["incorrect_to_correct"],
                    incorrect_to_incorrect=t["incorrect_to_incorrect"],
                )
                for t in data["transitions"]
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultBundle":
        return cls.from_dict(json.loads(text))


class TraceStore:
    """Filesystem store rooted at one directory; single writer per run."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handles: dict[str, BinaryIO] = {}
        self._seen: dict[str, set[tuple[str, str, int, int]]] = {}

    def trial_path(self, run_id: str) -> Path:
        return self.root / f"{run_id}.jsonl"

    def manifest_path(self, run_id: str) -> Path:
        return self.root / f"{run_id}.manifest.json"

    def bundle_path(self, run_id: str) -> Path:
        return self.root / f"{run_id}.bundle.json"

    def run_ids(self) -> list[str]:
        ids = {p.name[: -len(".manifest.json")] for p in self.root.glob("*.manifest.json")}
        ids.update(p.stem for p in self.root.glob("*.jsonl"))
        return sorted(ids)

    # ------------------------------------------------------------------
    # manifests

    def write_manifest(self, manifest: RunManifest) -> None:
        write_atomic(self.manifest_path(manifest.run_id), json.dumps(manifest.to_dict(), indent=2))

    def read_manifest(self, run_id: str) -> RunManifest:
        path = self.manifest_path(run_id)
        if not path.exists():
            raise IncompleteRunError(run_id, "no manifest found")
        return RunManifest.from_dict(json.loads(path.read_text()))

    # ------------------------------------------------------------------
    # trial records

    def append_trial(self, record: TrialRecordLine) -> None:
        """Durably append one record; duplicate keys conflict."""
        record.validate()
        with self._lock:
            seen = self._seen.get(record.run_id)
            if seen is None:
                seen = {r.key() for r in self._iter_unlocked(record.run_id)}
                self._seen[record.run_id] = seen
            if record.key() in seen:
                raise DuplicateTrialError(f"trial already stored: {record.key()!r}")
            handle = self._handles.get(record.run_id)
            if handle is None:
                handle = _open_for_append(self.trial_path(record.run_id))
                self._handles[record.run_id] = handle
            handle.write(record.to_json().encode() + b"\n")
            handle.flush()
            seen.add(record.key())

    def close(self) -> None:
        with self._lock:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _iter_unlocked(self, run_id: str) -> Iterator[TrialRecordLine]:
        path = self.trial_path(run_id)
        if not path.exists():
            return
        offset = 0
        with open(path, "rb") as fh:
            for raw in fh:
                line = raw.strip()
                if line:
                    try:
                        record = TrialRecordLine.from_json(line.decode())
                    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                        # only the final line can lack its newline
                        if raw.endswith(b"\n"):
                            raise
                        raise TornRecordError(run_id, offset) from exc
                    yield record
                offset += len(raw)

    def iter_trials(self, run_id: str) -> Iterator[TrialRecordLine]:
        yield from self._iter_unlocked(run_id)

    def completed_trials(
        self, run_id: str, drop_torn_tail: bool = False
    ) -> dict[tuple[str, int], list[TrialOutcome]]:
        """Replay stored outcomes per configuration, in trial-index order.

        Keys follow the first appearance of each configuration in the
        record file. Feed the result to run_evaluation(preloaded=...) to
        resume a run without re-drawing finished work; with drop_torn_tail
        a torn final line is cut from the file instead of raising
        TornRecordError, so appends start after the last whole record.
        """
        grouped: dict[tuple[str, int], list[TrialRecordLine]] = {}
        try:
            for record in self.iter_trials(run_id):
                grouped.setdefault((record.sample_id, record.level_index), []).append(record)
        except TornRecordError as exc:
            if not drop_torn_tail:
                raise
            os.truncate(self.trial_path(run_id), exc.offset)
        out: dict[tuple[str, int], list[TrialOutcome]] = {}
        for key, records in grouped.items():
            records.sort(key=lambda r: r.trial_index)
            indices = [r.trial_index for r in records]
            if indices != list(range(len(records))):
                raise IncompleteRunError(
                    run_id,
                    f"configuration {key!r} has non-contiguous trial indices {indices}",
                )
            out[key] = [TrialOutcome(r.correct, float(r.completion_tokens)) for r in records]
        return out

    # ------------------------------------------------------------------
    # trajectory assembly and recomputation

    def _assemble(
        self, run_id: str, manifest: RunManifest
    ) -> tuple[list[str], dict[tuple[str, int], list[TrialOutcome]]]:
        per_config = self.completed_trials(run_id)
        # samples in order of first appearance in the record file
        order = list(dict.fromkeys(sid for sid, _ in per_config))
        if not order:
            raise IncompleteRunError(run_id, "no trial records stored")
        J = len(manifest.levels)
        gaps = [
            (sid, j) for sid in order for j in range(J) if not per_config.get((sid, j))
        ]
        if gaps:
            raise IncompleteRunError(
                run_id, f"missing trials for configurations: {gaps}", gaps=gaps
            )
        if len(order) != manifest.n_samples:
            raise IncompleteRunError(
                run_id,
                f"manifest expects {manifest.n_samples} samples, found {len(order)}",
            )
        return order, per_config

    def load_trajectories(self, run_id: str) -> list[SampleTrajectory]:
        """Mean accuracy and tokens per configuration, levels ordered by index."""
        manifest = self.read_manifest(run_id)
        order, per_config = self._assemble(run_id, manifest)
        J = len(manifest.levels)
        trajectories = []
        for sid in order:
            levels = []
            for j in range(J):
                trials = per_config[(sid, j)]
                stats = LevelStatistics(tuple(trials), manifest.cfg.epsilon)
                levels.append(stats.final)
            trajectories.append(SampleTrajectory(sid, tuple(levels)))
        return trajectories

    def recompute(self, run_id: str) -> ResultBundle:
        """Re-derive the full result bundle from stored records and manifest."""
        manifest = self.read_manifest(run_id)
        order, per_config = self._assemble(run_id, manifest)
        J = len(manifest.levels)

        trajectories = []
        scores = []
        for sid in order:
            trials_by_level = [per_config[(sid, j)] for j in range(J)]
            levels = tuple(
                LevelStatistics(tuple(trials), manifest.cfg.epsilon).final
                for trials in trials_by_level
            )
            traj = SampleTrajectory(sid, levels)
            trajectories.append(traj)
            score, diags = arise_sample(traj)
            scores.append(
                SampleScore(
                    sample_id=sid,
                    arise=score,
                    non_monotone_tokens=diags.non_monotone_tokens,
                    improve=diags.improve,
                    degrade=diags.degrade,
                    unchanged=diags.unchanged,
                )
            )

        configurations = []
        for sid in order:
            for j in range(J):
                trials = per_config[(sid, j)]
                stats = LevelStatistics(tuple(trials), manifest.cfg.epsilon)
                probe = LevelStatistics(
                    tuple(trials[: min(manifest.cfg.m_min, len(trials))]), manifest.cfg.epsilon
                )
                configurations.append(
                    ConfigurationSummary(
                        sample_id=sid,
                        level_index=j,
                        k_star=stats.count,
                        cv_combined=stats.cv_combined,
                        converged=stats.cv_combined < manifest.cfg.tau,
                        zero_variance_probe=probe.cv_combined == 0.0,
                    )
                )

        curve = build_scaling_curve(trajectories)
        return ResultBundle(
            manifest=manifest,
            sample_scores=tuple(scores),
            aggregate_arise=arise_aggregate(trajectories),
            curve=curve.points,
            scaling_metric=scaling_metric(curve),
            configurations=tuple(configurations),
            transitions=tuple(
                transition_matrix(trajectories, (j - 1, j)) for j in range(1, J)
            ),
        )


# ----------------------------------------------------------------------
# CSV exports


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(cell) for cell in row) + "\n")
    return buf.getvalue()


def write_results_csv(path: str | Path, bundles: Sequence[ResultBundle], sm_scale: float = 1.0) -> None:
    """One row per bundle: model, benchmark, arise, scaling_metric, n_samples, levels."""
    rows = [
        (
            b.manifest.model or "unknown",
            b.manifest.benchmark or "unknown",
            f"{b.aggregate_arise:.6f}",
            f"{b.scaling_metric * sm_scale:.6f}",
            b.n_samples,
            b.n_levels,
        )
        for b in bundles
    ]
    write_atomic(
        path,
        _csv_text(("model", "benchmark", "arise", "scaling_metric", "n_samples", "levels"), rows),
    )


def write_curve_csv(path: str | Path, bundle: ResultBundle) -> None:
    """One row per scaling level: level_index, level_label, mean_tokens, mean_accuracy."""
    labels = bundle.manifest.levels
    rows = [
        (j, labels[j] if j < len(labels) else str(j), repr(t), repr(a))
        for j, (t, a) in enumerate(bundle.curve)
    ]
    write_atomic(
        path, _csv_text(("level_index", "level_label", "mean_tokens", "mean_accuracy"), rows)
    )


def write_transitions_csv(path: str | Path, bundle: ResultBundle) -> None:
    """One row per adjacent level pair with the four flip counts."""
    rows = [
        (
            t.from_level,
            t.to_level,
            t.correct_to_correct,
            t.correct_to_incorrect,
            t.incorrect_to_correct,
            t.incorrect_to_incorrect,
        )
        for t in bundle.transitions
    ]
    write_atomic(
        path,
        _csv_text(
            (
                "from_level",
                "to_level",
                "correct_to_correct",
                "correct_to_incorrect",
                "incorrect_to_correct",
                "incorrect_to_incorrect",
            ),
            rows,
        ),
    )
