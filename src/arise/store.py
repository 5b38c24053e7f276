"""Append-only JSONL persistence for trial records, plus result bundles.

One run maps to three files under the store root: `<run_id>.jsonl` with
one trial record per line, `<run_id>.manifest.json` describing the run,
and `<run_id>.bundle.json`. Each format is one dataclass whose fields, in
order, are its JSON keys (`_encode` / `_decode`). `ResultBundle.from_run`
is the one bundle builder: `arise run` feeds it the run it drew, and
`TraceStore.recompute` (`arise compute`) the run its records replay to,
so both write the same bytes. The replay is `run_evaluation` with a
backend that cannot draw, so the live run's stop rule decides: a
configuration short of it raises IncompleteRunError (a resume draws the
rest); one holding more trials than it draws, a trial stored twice
(DuplicateTrialError) and a gap in a configuration's trial indices raise
ValueError. A record's run id, model and level label come from the
manifest (`TraceStore.record`), and a replay refuses a record that
disagrees with it or whose sample its `sample_ids` do not list. Every
writer takes its next trial indices from what `completed_trials` read, so
it only extends a file that replay accepts. Appends flush per line, so a
crash loses at most the in-flight record: a torn final line makes readers
raise `TornRecordError`, and a resume cuts it off before appending; no
other line is ever rewritten or deleted. Floats survive the round trip
exactly (JSON serialization preserves 17 significant digits).
"""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

from .metrics import (
    SampleTrajectory,
    TransitionMatrix,
    arise_aggregate,
    arise_sample,
    build_scaling_curve,
    scaling_metric,
    transition_matrix,
)
from .sampling import (
    AdaptiveMode,
    ConfigurationError,
    ConvergenceConfig,
    EvaluationRun,
    FixedBudgetMode,
    NaiveMode,
    RunMode,
    TrialOutcome,
    run_evaluation,
)

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
    "config_hash",
    "decode_file",
    "now_rfc3339",
    "read_mapping",
    "render_table",
    "summary_table",
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
    """A trial that is already stored: appended again, or found twice in a record file."""


class IncompleteRunError(RuntimeError):
    """A run is missing records needed to assemble trajectories."""

    def __init__(self, run_id: str, message: str):
        super().__init__(f"run {run_id!r}: {message}")
        self.run_id = run_id


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


def config_mapping(value: object, what: str, *required: str) -> dict:
    """`value`, a config entry that must be a mapping holding every `required` key; else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a mapping, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise ValueError(f"{what} has no {key!r}")
    return value


def config_rows(value: object, what: str, *required: str) -> list[dict]:
    """`value`, a config list of `config_mapping` entries; a bad one is named as `what[i]`."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return [config_mapping(row, f"{what}[{i}]", *required) for i, row in enumerate(value)]


def config_hash(config: object) -> str:
    """A short blake2b hex digest of `config` as canonical JSON (sorted keys, compact separators)."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def now_rfc3339() -> str:
    """The current UTC time to the second, as stored in records and manifests."""
    return dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds")


def write_atomic(path: str | Path, text: str) -> None:
    """Write a whole file, and any missing parent directory, via a temp sibling and rename.

    A failure leaves no partial output.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _append_to_message(exc: ValueError, text: str) -> None:
    """Append `text` to the message `str(exc)` shows."""
    if isinstance(exc, UnicodeDecodeError):  # its message is built from its fields
        exc.reason = f"{exc.reason} {text}"
    else:
        exc.args = (f"{exc.args[0]} {text}", *exc.args[1:])


T = TypeVar("T")


def decode_file(path: str | Path, decode: Callable[[object], T]) -> T:
    """`decode` of the JSON value in `path`; a ValueError it raises ends with the path."""
    try:
        return decode(json.loads(Path(path).read_text()))
    except ValueError as exc:
        _append_to_message(exc, f"({path})")
        raise


def _open_for_append(path: Path) -> BinaryIO:
    """Open a record file for appending; a final line cut off just before its newline gets one."""
    handle = open(path, "ab+")
    if handle.seek(0, os.SEEK_END) > 0:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")
    return handle


# ----------------------------------------------------------------------
# stored formats: a dataclass's fields, in declaration order, are its JSON keys

_SCALARS = frozenset((str, int, float, bool, dict))  # written to JSON as they are


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _plain(value: object) -> object:
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return _encode(value)
    return value


def _encode(obj: object) -> dict:
    """A dataclass as a JSON object: fields in order, None left out, tuples as lists."""
    data = {}
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        if type(value) not in _SCALARS:  # records hold only scalars, so they skip both checks
            if value is None:
                continue
            value = _plain(value)
        data[name] = value
    return data


def _value_error(fieldname: str, message: str) -> ValueError:
    return ValueError(f"{fieldname}: {message}")


def _check_keys(cls: type, data: dict, what: str, error: Callable[[str, str], ValueError]) -> None:
    """Refuse a key that is not a field, and an absent field unless it is None by default."""
    for name in data:
        if name not in _field_names(cls):
            raise error(name, f"not a field of the {what}")
    for f in fields(cls):
        if f.name not in data and f.default is not None:  # only None is left out by _encode
            raise error(f.name, f"missing from the {what}")


def _decode(
    cls: type,
    data: object,
    what: str,
    error: Callable[[str, str], ValueError] = _value_error,
    /,
    **convert: Callable[[object], object],
):
    """Build `cls` from a JSON object whose keys are its fields, as `_encode` wrote them.

    `convert` maps a field to the function that turns its JSON value into
    the field's type. A non-object, an unknown or missing field, or a value
    the class cannot take raises `error(fieldname, message)` naming `what`.
    """
    if not isinstance(data, dict):
        raise error(what, f"must be a JSON object, got {type(data).__name__}")
    if len(data) < len(_field_names(cls)):  # a complete object skips the key check
        _check_keys(cls, data, what, error)
    try:
        if convert:
            data = {k: convert[k](v) if k in convert else v for k, v in data.items()}
        return cls(**data)
    except TypeError as exc:
        _check_keys(cls, data, what, error)
        raise error(what, str(exc)) from exc


def _rows(cls: type, what: str) -> Callable[[list], tuple]:
    """A converter from a JSON list of objects to a tuple of `cls`."""
    return lambda rows: tuple(_decode(cls, row, what) for row in rows)


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
        return json.dumps(_encode(self))

    @classmethod
    def from_json(cls, line: str) -> "TrialRecordLine":
        data = json.loads(line)
        # a stored 1 reads back as 1.0; booleans and strings reach validate() as they are
        if isinstance(data, dict) and type(data.get("correct")) is int:
            data["correct"] = float(data["correct"])
        if type(data) is dict and tuple(data) == _field_names(cls):
            # every field, in order: the record _decode would build, with `data` as its
            # attribute dict, which skips the ten object.__setattr__ of the frozen __init__
            record = object.__new__(cls)
            object.__setattr__(record, "__dict__", data)
        else:
            record = _decode(cls, data, "trial record", RecordValidationError)
        record.validate()
        return record


# a manifest's mode -> its mode class, whose fields are the manifest keys the mode uses
_MODES = {"adaptive": AdaptiveMode, "fixed_budget": FixedBudgetMode, "naive": NaiveMode}
_STATUSES = ("running", "complete", "failed")


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 1


def _as_tuple(value: object) -> object:
    """A JSON list as a tuple; anything else as it is, for `__post_init__` to refuse."""
    return tuple(value) if isinstance(value, list) else value


def _check_names(fieldname: str, value: object) -> None:
    if not isinstance(value, tuple) or not all(isinstance(v, str) and v for v in value):
        raise _value_error(fieldname, f"must be a list of non-empty strings, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class RunManifest:
    """Sidecar description of one run; everything recompute needs besides the records.

    Fields are in the order of the JSON keys; a field that is None is left out.
    """

    run_id: str
    mode: str  # adaptive | fixed_budget | naive
    cfg: ConvergenceConfig
    budget: int | None = None  # fixed_budget mode only
    trials: int | None = None  # naive mode only
    seed: int | None = None
    levels: tuple[str, ...]
    n_samples: int
    sample_ids: tuple[str, ...]  # the samples in bundle order
    started_at: str
    status: str  # running | complete | failed
    model: str | None = None
    benchmark: str | None = None
    config_hash: str  # `config_hash` of what decides outcomes

    def __post_init__(self) -> None:
        """Refuse values a run cannot hold, so a write and a read refuse the same manifests."""
        for name in ("run_id", "started_at", "config_hash"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value):
                raise _value_error(name, f"must be a non-empty string, got {value!r}")
        for name in ("model", "benchmark"):
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise _value_error(name, f"must be a string, got {value!r}")
        if self.mode not in _MODES:
            raise _value_error("mode", f"must be one of {', '.join(_MODES)}, got {self.mode!r}")
        for name in ("budget", "trials"):
            value = getattr(self, name)
            if value is None:
                continue
            if name not in _field_names(_MODES[self.mode]):
                raise _value_error(name, f"does not apply to {self.mode} mode")
            if not _is_count(value):
                raise _value_error(name, f"must be a positive integer, got {value!r}")
        _check_names("levels", self.levels)
        if not _is_count(self.n_samples):
            raise _value_error("n_samples", f"must be a positive integer, got {self.n_samples!r}")
        ids = self.sample_ids
        _check_names("sample_ids", ids)
        if len(set(ids)) != len(ids):
            raise _value_error("sample_ids", "must be unique")
        if len(ids) != self.n_samples:
            raise _value_error(
                "sample_ids", f"lists {len(ids)} samples, but n_samples is {self.n_samples}"
            )
        if self.status not in _STATUSES:
            raise _value_error("status", f"must be one of {', '.join(_STATUSES)}, got {self.status!r}")

    @classmethod
    def for_mode(cls, mode: RunMode, **fields: object) -> "RunManifest":
        """A manifest whose mode fields record `mode`; `fields` fill in the rest."""
        name = next(name for name, mode_class in _MODES.items() if type(mode) is mode_class)
        return cls(mode=name, **vars(mode), **fields)

    @property
    def run_mode(self) -> RunMode:
        """The mode the manifest records, for a resume; an absent count takes the mode's default."""
        mode_class = _MODES[self.mode]
        stored = {name: getattr(self, name) for name in _field_names(mode_class)}
        return mode_class(**{name: value for name, value in stored.items() if value is not None})

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return _decode(
            cls, data, "manifest",
            cfg=lambda cfg: _decode(ConvergenceConfig, cfg, "manifest cfg"), levels=_as_tuple,
            sample_ids=_as_tuple,
        )


def _record_model(manifest: RunManifest) -> str:
    return manifest.model or "unknown"


def _check_record(record: TrialRecordLine, manifest: RunManifest, listed: frozenset[str]) -> None:
    """Refuse a record that `TraceStore.record` would not have written for `manifest`'s run.

    `listed` is the set of the manifest's `sample_ids`, built once per replay.
    """
    levels = manifest.levels
    if record.sample_id not in listed:
        name, expected = "sample_id", "does not list it"
    elif record.level_index >= len(levels):
        name, expected = "level_index", f"has {len(levels)} levels"
    elif record.run_id != manifest.run_id:
        name, expected = "run_id", f"says {manifest.run_id!r}"
    elif record.model != _record_model(manifest):
        name, expected = "model", f"says {_record_model(manifest)!r}"
    elif record.level_label != levels[record.level_index]:
        name, expected = "level_label", f"says {levels[record.level_index]!r}"
    else:
        return
    raise RecordValidationError(
        name,
        f"record (sample {record.sample_id!r}, level {record.level_index}, "
        f"trial {record.trial_index}) has {getattr(record, name)!r}, "
        f"but the manifest of run {manifest.run_id!r} {expected}",
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

    def __post_init__(self) -> None:
        if len(self.curve) != len(self.manifest.levels):  # no run writes such a bundle
            raise _value_error("curve", f"has {len(self.curve)} points, but the manifest has "
                                        f"{len(self.manifest.levels)} levels")

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
        return _encode(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ResultBundle":
        return _decode(
            cls, data, "result bundle",
            manifest=RunManifest.from_dict,
            sample_scores=_rows(SampleScore, "sample score"),
            curve=lambda points: tuple((t, a) for t, a in points),
            configurations=_rows(ConfigurationSummary, "configuration summary"),
            transitions=_rows(TransitionMatrix, "transition matrix"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultBundle":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_run(cls, manifest: RunManifest, run: EvaluationRun) -> "ResultBundle":
        """The bundle of `manifest`'s run, from its configurations; samples in `run.samples` order.

        `arise run` passes the run it drew and `compute` the run its records
        replay to, so both write the same bytes.
        """
        trajectories = list(run.trajectories)
        scores = []
        for traj in trajectories:
            score, diags = arise_sample(traj)
            # a score row is the sample, its score and every TrajectoryDiagnostics field
            scores.append(SampleScore(traj.sample_id, score, **vars(diags)))
        configurations = tuple(
            ConfigurationSummary(
                sample_id=r.sample_id,
                level_index=r.level_index,
                k_star=r.k_star,
                cv_combined=r.stats.cv_combined,
                converged=r.converged,
                zero_variance_probe=r.zero_variance_probe,
            )
            for r in (run.configurations[(sid, j)] for sid in run.samples
                      for j in range(len(run.levels)))
        )
        curve = build_scaling_curve(trajectories)
        return cls(
            manifest=manifest,
            sample_scores=tuple(scores),
            aggregate_arise=arise_aggregate(trajectories),
            curve=curve.points,
            scaling_metric=scaling_metric(curve),
            configurations=configurations,
            transitions=tuple(
                transition_matrix(trajectories, (j - 1, j)) for j in range(1, len(manifest.levels))
            ),
        )


class _NoDraws:
    """The backend of a replay: every trial it needs is stored, so a draw means one is missing."""

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
        raise LookupError(f"no record of trial {trial_index}")


class TraceStore:
    """Filesystem store rooted at one directory; single writer per run.

    The root is created by the first write (a manifest or a record), so a
    command that fails validation leaves no directory behind.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._handles: dict[str, BinaryIO] = {}
        # run id -> (sample id, level index) -> the trial index its next append must have
        self._next: dict[str, dict[tuple[str, int], int]] = {}

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
        return decode_file(path, RunManifest.from_dict)

    # ------------------------------------------------------------------
    # trial records

    def record(self, manifest: RunManifest, sample_id: str, level_index: int, trial_index: int,
               outcome: TrialOutcome) -> None:
        """Append one fresh trial of `manifest`'s run.

        The run id, model and level label come from the manifest, the only
        values `completed_trials` accepts when it reads the record back. A
        token count that is not a whole number raises ValueError: the record
        could not store it as drawn, and a replay would read another value.
        """
        tokens = outcome.tokens
        if not isinstance(tokens, (int, float)) or tokens % 1 != 0:  # NaN and infinities too
            raise ValueError(
                f"trial (sample {sample_id!r}, level {level_index}, trial {trial_index}) "
                f"has {tokens!r} completion tokens, not a whole number"
            )
        self.append_trial(
            TrialRecordLine(
                run_id=manifest.run_id,
                model=_record_model(manifest),
                sample_id=sample_id,
                level_index=level_index,
                level_label=manifest.levels[level_index],
                trial_index=trial_index,
                correct=outcome.correct,
                completion_tokens=int(tokens),
                timestamp=now_rfc3339(),
                meta={},
            )
        )

    def append_trial(self, record: TrialRecordLine) -> None:
        """Durably append one record, which must hold its configuration's next trial index.

        A lower index raises DuplicateTrialError and a higher one ValueError,
        before any byte is written. Each next index is the trial count that
        `completed_trials` read, so a file it refuses is refused before the
        first append.
        """
        record.validate()
        with self._lock:
            next_index = self._next.get(record.run_id)
            if next_index is None:  # not resumed; completed_trials takes no lock without resume
                next_index = self._next[record.run_id] = {
                    key: len(trials) for key, trials in self.completed_trials(record.run_id).items()}
            key = (record.sample_id, record.level_index)
            expected = next_index.get(key, 0)
            if record.trial_index != expected:  # a stored index, or a skipped one
                error = DuplicateTrialError if record.trial_index < expected else ValueError
                raise error(f"trial {record.trial_index} of run {record.run_id!r}, sample "
                            f"{record.sample_id!r}, level {record.level_index} is out of order: "
                            f"the next index is {expected}")
            handle = self._handles.get(record.run_id)
            if handle is None:
                self.root.mkdir(parents=True, exist_ok=True)
                handle = _open_for_append(self.trial_path(record.run_id))
                self._handles[record.run_id] = handle
            handle.write(record.to_json().encode() + b"\n")
            handle.flush()
            next_index[key] = expected + 1

    def close(self) -> None:
        with self._lock:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def iter_trials(self, run_id: str,
                    manifest: RunManifest | None = None) -> Iterator[TrialRecordLine]:
        """Stored records in file order, each checked against `manifest` when there is one.

        A torn final line raises TornRecordError. Any other line that fails
        to decode or to pass a check raises its error with the record file
        and the line number appended.
        """
        path = self.trial_path(run_id)
        if not path.exists():
            return
        listed = frozenset(manifest.sample_ids) if manifest is not None else frozenset()
        offset = 0
        with open(path, "rb") as fh:
            for number, raw in enumerate(fh, 1):
                line = raw.strip()
                if line:
                    try:
                        record = TrialRecordLine.from_json(line.decode())
                        if manifest is not None:
                            _check_record(record, manifest, listed)
                    except ValueError as exc:
                        # only the final line can lack its newline
                        if not raw.endswith(b"\n") and isinstance(
                            exc, (json.JSONDecodeError, UnicodeDecodeError)
                        ):
                            raise TornRecordError(run_id, offset) from exc
                        _append_to_message(exc, f"({path}, line {number})")
                        raise
                    yield record
                offset += len(raw)

    def completed_trials(
        self, run_id: str, resume: bool = False, *, manifest: RunManifest | None = None
    ) -> dict[tuple[str, int], list[TrialOutcome]]:
        """Replay stored outcomes per configuration, in trial-index order.

        Keys follow the first appearance of each configuration in the record
        file; feed the result to run_evaluation(preloaded=...). Each record
        is checked against the run's manifest (`manifest`, else the one
        stored) before anything is cut, and a trial stored twice
        (DuplicateTrialError, naming both lines) or any other gap in a
        configuration's indices raises ValueError. With resume, a torn final
        line is cut off instead of raising TornRecordError, a whole final
        record gets its newline, and the counts read here are append_trial's
        next indices, so the file is parsed once.
        """
        if manifest is None and self.manifest_path(run_id).exists():
            manifest = self.read_manifest(run_id)
        # keep only (trial index, outcome) per record, so whole records never pile up
        grouped: dict[tuple[str, int], list[tuple[int, TrialOutcome]]] = {}
        try:
            for r in self.iter_trials(run_id, manifest):
                grouped.setdefault((r.sample_id, r.level_index), []).append(
                    (r.trial_index, TrialOutcome(r.correct, float(r.completion_tokens)))
                )
        except TornRecordError as exc:
            if not resume:
                raise
            os.truncate(self.trial_path(run_id), exc.offset)
        out: dict[tuple[str, int], list[TrialOutcome]] = {}
        for key, indexed in grouped.items():
            indexed.sort(key=lambda pair: pair[0])
            indices = [index for index, _ in indexed]
            if indices != list(range(len(indexed))):
                repeated = next((i for i, j in zip(indices, indices[1:]) if i == j), None)
                if repeated is not None:
                    first, second = self._lines_holding(run_id, (*key, repeated))[:2]
                    raise DuplicateTrialError(
                        f"run {run_id!r}: configuration {key!r} holds trial {repeated} twice "
                        f"({self.trial_path(run_id)}, lines {first} and {second})"
                    )
                raise ValueError(
                    f"run {run_id!r}: configuration {key!r} has non-contiguous trial indices {indices}"
                )
            out[key] = [outcome for _, outcome in indexed]
        if resume:  # indices are contiguous, so each count is the next index
            with self._lock:
                self._next[run_id] = {key: len(outcomes) for key, outcomes in out.items()}
            if self.trial_path(run_id).exists():  # even when nothing is left to append
                _open_for_append(self.trial_path(run_id)).close()
        return out

    def _lines_holding(self, run_id: str, trial: tuple[str, int, int]) -> list[int]:
        """The numbers of the record file's lines that hold `trial` (sample, level, trial index).

        Only an error path calls this, so it parses the file again rather
        than have every replay keep line numbers.
        """
        with open(self.trial_path(run_id), "rb") as fh:
            records = ((number, TrialRecordLine.from_json(raw.decode()))
                       for number, raw in enumerate(fh, 1) if raw.strip())
            return [number for number, r in records
                    if (r.sample_id, r.level_index, r.trial_index) == trial]

    # ------------------------------------------------------------------
    # trajectory assembly and recomputation

    def _evaluation(self, run_id: str, manifest: RunManifest) -> EvaluationRun:
        """The run the stored records hold: `run_evaluation` as a resume that cannot draw.

        The live run's stop rule and budget allocation decide every
        configuration, in the manifest's sample order. One short of its stop
        rule (a run cut short, a missing configuration) raises
        IncompleteRunError, since `run --resume` would draw its remaining
        trials; one holding more trials than its rule draws raises ValueError.
        """
        per_config = self.completed_trials(run_id, manifest=manifest)
        try:
            return run_evaluation(_NoDraws(), manifest.sample_ids, manifest.levels, manifest.cfg,
                                  manifest.run_mode, preloaded=per_config)
        except ConfigurationError as exc:
            raise IncompleteRunError(
                run_id,
                f"configuration {(exc.sample_id, exc.level_index)!r}: its records end before "
                f"trial {exc.stats.count}, which its stop rule draws; `run --resume` draws the rest",
            ) from exc

    def load_trajectories(self, run_id: str) -> list[SampleTrajectory]:
        """Mean accuracy and tokens per configuration, levels ordered by index."""
        return list(self._evaluation(run_id, self.read_manifest(run_id)).trajectories)

    def recompute(self, run_id: str) -> ResultBundle:
        """Re-derive the full result bundle from stored records and manifest."""
        manifest = self.read_manifest(run_id)
        return ResultBundle.from_run(manifest, self._evaluation(run_id, manifest))


# ----------------------------------------------------------------------
# tables and CSV exports

_SUMMARY_COLUMNS = (
    "model",
    "benchmark",
    "arise",
    "scaling_metric",
    "n_samples",
    "n_levels",
    "unconverged_count",
)
# json keeps the summary's types: names are strings, metrics floats, counts integers
_SUMMARY_JSON_TYPES = (str, str, float, float, int, int, int)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    fmt: str,
    json_types: Sequence[type] = (),
) -> str:
    """Render rows as csv, json (a list of objects) or a markdown table.

    Cells are written with str(); in json, column i holds json_types[i](cell),
    a string by default.
    """
    cells = [[str(cell) for cell in row] for row in rows]
    if fmt == "csv":
        return "\n".join([",".join(headers), *(",".join(row) for row in cells)])
    if fmt == "json":
        types = json_types or (str,) * len(headers)
        return json.dumps(
            [{h: t(cell) for h, t, cell in zip(headers, types, row)} for row in cells], indent=2
        )
    widths = [max([len(h), *(len(row[i]) for row in cells)]) for i, h in enumerate(headers)]
    return "\n".join(
        "| " + " | ".join(cell.ljust(w) for cell, w in zip(line, widths)) + " |"
        for line in [headers, ["-" * w for w in widths], *cells]
    )


def _summary_rows(bundles: Sequence[ResultBundle], sm_scale: float) -> list[tuple[object, ...]]:
    # metric columns always carry 6 decimal places
    return [
        (
            b.manifest.model or "unknown",
            b.manifest.benchmark or "unknown",
            f"{b.aggregate_arise:.6f}",
            f"{b.scaling_metric * sm_scale:.6f}",
            b.n_samples,
            b.n_levels,
            b.unconverged_count,
        )
        for b in bundles
    ]


def summary_table(bundles: Sequence[ResultBundle], fmt: str, sm_scale: float = 1.0) -> str:
    """One row of _SUMMARY_COLUMNS per bundle, rendered as csv, markdown or json."""
    return render_table(_SUMMARY_COLUMNS, _summary_rows(bundles, sm_scale), fmt, _SUMMARY_JSON_TYPES)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    return render_table(header, rows, "csv") + "\n"


def write_results_csv(path: str | Path, bundles: Sequence[ResultBundle], sm_scale: float = 1.0) -> None:
    """One row per bundle: model, benchmark, arise, scaling_metric, n_samples, levels."""
    rows = [row[:6] for row in _summary_rows(bundles, sm_scale)]
    write_atomic(
        path,
        _csv_text(("model", "benchmark", "arise", "scaling_metric", "n_samples", "levels"), rows),
    )


def write_curve_csv(path: str | Path, bundle: ResultBundle) -> None:
    """One row per scaling level: level_index, level_label, mean_tokens, mean_accuracy."""
    labels = bundle.manifest.levels
    rows = [(j, labels[j], repr(t), repr(a)) for j, (t, a) in enumerate(bundle.curve)]
    header = ("level_index", "level_label", "mean_tokens", "mean_accuracy")
    write_atomic(path, _csv_text(header, rows))


def write_transitions_csv(path: str | Path, bundle: ResultBundle) -> None:
    """One row per adjacent level pair: TransitionMatrix's fields, in order."""
    header = _field_names(TransitionMatrix)
    rows = [[getattr(t, name) for name in header] for t in bundle.transitions]
    write_atomic(path, _csv_text(header, rows))
