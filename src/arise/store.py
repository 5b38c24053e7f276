"""Append-only JSONL persistence for trial records, plus result bundles.

One run maps to three files under the store root: `<run_id>.jsonl` with
one trial record per line, `<run_id>.manifest.json` describing the run,
and `<run_id>.bundle.json`. A record is a JSON object whose keys are
`_RECORD_FIELDS`, in order; the manifest and the bundle are each one
dataclass whose init fields, in order, are its JSON keys, and whose field
types say how each value decodes. `write_document` is the one writer of
these documents and `decode_file(path, cls)` the one reader (`_encode` /
`_decode`). `ResultBundle.from_run` is the one bundle builder: `arise
run` feeds it the run it drew, and `TraceStore.recompute` (`arise
compute`) the run its records replay to, so both write the same bytes.
The replay is `run_evaluation` with a backend that cannot draw, so the
live run's stop rule decides: a configuration short of it raises
IncompleteRunError (a resume draws the rest); one holding more trials
than it draws, a trial stored twice and a gap in a configuration's trial
indices raise ValueError. A run is addressed by its manifest:
`read_manifest` refuses a manifest that names another run,
and every record is checked against the one manifest read (or built)
for its run. One check owns every record rule (`_check_record`), and
both sides apply it with that manifest: `completed_trials(manifest)`
through the one reader of every stored line, and
`TraceStore.append_trial(run_id, ...)`, the one writer, before it
writes a byte. The writer appends only to a run that
`completed_trials(resume=True)` opened: that is the one open of a record
file for appending, and it locks the file until the store closes, so a
run has one writer. The writer builds each record's run id, model and
level label from the manifest the run was opened with: that read also
gives each configuration's next trial index, so the writer only extends
a file that replay accepts. Appends flush per line, and a line is stored
once its newline is written, so a crash loses at most the in-flight
record: bytes after the last newline are a torn line, which makes
readers raise `IncompleteRunError` and a resume cut it off before appending;
no other line is ever rewritten or deleted.
Floats survive the round trip exactly (JSON serialization preserves 17
significant digits).
"""

from __future__ import annotations

import collections.abc
import contextlib
import datetime as dt
import functools
import hashlib
import json
import json.scanner
import operator
import os
import threading
import time
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Sequence, TextIO, TypeVar

from .metrics import (
    SampleScore,
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
    "RunManifest",
    "ConfigurationSummary",
    "ResultBundle",
    "TraceStore",
    "IncompleteRunError",
    "config_hash",
    "decode_file",
    "now_rfc3339",
    "read_mapping",
    "render_table",
    "summary_table",
    "write_atomic",
    "write_csv",
    "write_document",
    "write_results_csv",
    "write_curve_csv",
    "write_transitions_csv",
]


class IncompleteRunError(RuntimeError):
    """A run that `run --resume` continues: its records stop short, or end in a torn line."""

    def __init__(self, run_id: str, message: str):
        super().__init__(f"run {run_id!r}: {message}")


def read_mapping(path: str | Path, what: str) -> dict:
    """Load a config file that must hold a mapping: JSON via stdlib json, anything else via PyYAML.

    Stdlib json reads a large simulator spec about a hundred times faster
    than PyYAML, and it reads numbers such as 1e-3 as floats, where PyYAML
    would return strings.
    """
    text = Path(path).read_text()
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            import yaml  # only non-JSON configs need PyYAML

            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ValueError(f"{what} {path} is not valid JSON or YAML: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{what} {path} nests too deeply to read") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} is not a mapping")
    return data


@functools.cache
def _config_fields(cls: type) -> dict[str, tuple[object, bool]]:
    """Each init field of `cls`, in order: its type, and whether a config mapping must give it.
    The keys are also a stored class's JSON keys (`_encode`, `_decode`)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls) if f.init}


def read_config(cls: object, data: object, what: str, /, **read: Callable) -> object:
    """Read the config mapping `data`, named `what`, into the dataclass `cls`, whose init fields
    are the keys `data` may hold; one left out takes its default. A field's type drives the read:
    `str` takes a non-empty string, never made into text; `int` and `float` a number or numeric
    string (PyYAML reads `1e-3` as one), never a bool, and `int` no number it would truncate;
    `Mapping` a mapping; a dataclass or `tuple[<dataclass>, ...]` (`cls` may be one too) is read
    by this function as `what key` (`what.key` under a list entry), entry i as `…[i]`. `read`
    gives a reader `(value, what, key)` for a field whose type cannot. Anything else raises
    ValueError (`backend config retry has unknown key 'max_attempt'`). Unlike `_decode` of the
    stored formats the program writes, this converts numeric strings: people write configs."""
    if type(cls) is types.GenericAlias:  # tuple[<dataclass>, ...]
        if not isinstance(data, list):
            raise ValueError(f"{what} must be a list, got {type(data).__name__}")
        return tuple(read_config(cls.__args__[0], row, f"{what}[{i}]", **read)
                     for i, row in enumerate(data))
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a mapping, got {type(data).__name__}")
    config_fields = _config_fields(cls)
    for key in data:
        if key not in config_fields:
            raise ValueError(f"{what} has unknown key {key!r}")
    given = {}
    for key, (tp, required) in config_fields.items():
        if key not in data:
            if required:
                raise ValueError(f"{what} has no {key!r}")
        elif key in read:
            given[key] = read[key](data[key], what, key)
        else:
            given[key] = _read_value(data[key], what, key, tp)
    return cls(**given)


def _read_value(value: object, what: str, key: str, tp: object) -> object:
    """`read_config` of the value of a field of type `tp`."""
    if tp is int or tp is float:
        if type(value) is tp:
            return value
        try:
            if isinstance(value, bool) or (tp is int and isinstance(value, float)
                                           and not value.is_integer()):  # it would truncate
                raise ValueError(f"must be {'an integer' if tp is int else 'a number'}, got {value!r}")
            return tp(value)
        except (TypeError, ValueError, OverflowError) as exc:  # int(None), float("x"), 10**400
            raise ValueError(f"{what} {key!r}: {exc}") from exc
    if tp is str:
        if isinstance(value, str) and value:  # a config value is never made into text
            return value
        raise ValueError(f"{what} {key!r} must be a non-empty string, got {value!r}")
    if typing.get_origin(tp) is collections.abc.Mapping:
        if isinstance(value, dict):
            return value
        raise ValueError(f"{what} {key!r} must be a mapping, got {value!r}")
    return read_config(tp, value, f"{what}.{key}" if what.endswith("]") else f"{what} {key}")


def config_hash(config: object) -> str:
    """A short blake2b hex digest of `config` as canonical JSON (sorted keys, compact separators)."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _rfc3339(second: int) -> str:
    """UTC second `second` of the Unix epoch, as stored in records and manifests."""
    return dt.datetime.fromtimestamp(second, dt.timezone.utc).isoformat(timespec="seconds")


def _now_second() -> int:
    """The current second of the realtime clock, floored."""
    return time.time_ns() // 10**9


def now_rfc3339() -> str:
    """The current UTC time to the second, as stored in records and manifests."""
    return _rfc3339(_now_second())


def write_atomic(path: str | Path, content: str | Callable[[TextIO], object]) -> None:
    """Write a whole file, and any missing parent directory, via a temp sibling and rename.

    `content` is the text, or a function that writes it to the open temp
    file, so a large file is never held whole. Each call has a temp file of
    its own, so concurrent writers of one path never touch each other's; the
    last rename wins. The file gets the mode of any new file, 0o666 less the
    umask. On any exception the temp file is removed and `path` is left as
    it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL with mode 0o666 lets the kernel apply the umask, which mkstemp's 0o600 would not
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as handle:
            if isinstance(content, str):
                handle.write(content)
            else:
                content(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _append_to_message(exc: ValueError, text: str) -> None:
    """Append `text` to the message `str(exc)` shows."""
    if isinstance(exc, UnicodeDecodeError):  # its message is built from its fields
        exc.reason = f"{exc.reason} {text}"
    else:
        exc.args = (f"{exc.args[0]} {text}", *exc.args[1:])


T = TypeVar("T")


def _loads(text: str) -> object:
    """`json.loads(text)`; a value nested past the recursion limit raises ValueError as well."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON value nests too deeply to decode") from None


def decode_file(path: str | Path, cls: type[T]) -> T:
    """`_decode(cls, ...)` of the JSON value in `path`; a ValueError it raises ends with the path."""
    try:
        return _decode(cls, _loads(Path(path).read_text()))
    except ValueError as exc:
        _append_to_message(exc, f"({path})")
        raise


def write_document(path: str | Path, obj: object) -> None:
    """Write `_encode(obj)` to `path` as JSON indented by 2, atomically and streamed: the whole
    text is never held. The one writer of manifests and bundles, which `decode_file` reads."""
    data = _encode(obj)
    write_atomic(path, lambda handle: json.dump(data, handle, indent=2))


# the JSON decoder's value scanner (C when available): (value, end index) of the value at an index
_scan = json.scanner.make_scanner(json.JSONDecoder())


# ----------------------------------------------------------------------
# stored formats: a dataclass's fields, in declaration order, are its JSON keys

_SCALARS = frozenset((str, int, float, bool, dict))  # written to JSON as they are


def _plain(value: object) -> object:
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return _encode(value)
    return value


def _encode(obj: object) -> dict:
    """A dataclass as a JSON object: init fields in order, None left out, tuples as lists."""
    data = {}
    for name in _config_fields(type(obj)):
        value = getattr(obj, name)
        if type(value) not in _SCALARS:  # a bundle row's values, scalars, skip both checks
            if value is None:
                continue
            value = _plain(value)
        data[name] = value
    return data


def _value_error(fieldname: str, message: str) -> ValueError:
    """The refusal of a field's value, `"<field>: <message>"`, for every stored format."""
    return ValueError(f"{fieldname}: {message}")


def _check_keys(cls: type, data: dict, what: str) -> None:
    """Refuse a key that is not an init field, and an absent one unless it is None by default."""
    for name in data:
        if name not in _config_fields(cls):
            raise _value_error(name, f"not a field of the {what}")
    for f in fields(cls):
        if f.init and f.name not in data and f.default is not None:  # _encode leaves out only None
            raise _value_error(f.name, f"missing from the {what}")


def _decode(cls: type[T], data: object) -> T:
    """Build the stored class `cls` from a JSON object whose keys are its fields, as `_encode`
    wrote them. Each field's type drives the read: a stored class is decoded by this function, a
    list in a `tuple[X, ...]` field becomes a tuple of decoded X, and a fixed-length `tuple[X, Y]`
    takes only a list of that length; any other value is passed as it is, for the class to
    refuse. No scalar is converted: after the class's `__post_init__`, whose messages come first,
    `_check_type` refuses a `str`, `int`, `float` or `bool` field (alone, as `X | None` unless
    None, or as a tuple element) of another JSON type. A non-object, an unknown or missing field,
    or a value the class cannot take raises ValueError naming the field or the class's `_STORED`
    name.
    """
    what = _STORED[cls]
    if not isinstance(data, dict):
        raise _value_error(what, f"must be a JSON object, got {type(data).__name__}")
    _check_keys(cls, data, what)
    stored_fields = _config_fields(cls)
    obj = cls(**{key: _decode_value(stored_fields[key][0], value, key)
                 for key, value in data.items()})
    for key, (tp, _) in stored_fields.items():
        _check_type(tp, getattr(obj, key), key)
    return obj


def _decode_value(tp: object, value: object, key: str) -> object:
    """`_decode` of the JSON value of field `key`, of type `tp`."""
    if tp in _STORED:
        return _decode(tp, value)
    if type(tp) is types.GenericAlias:  # tuple[X, ...] or tuple[X, Y]
        args = tp.__args__
        if args[-1] is Ellipsis:
            if isinstance(value, list):
                return tuple([_decode_value(args[0], v, key) for v in value])
        elif isinstance(value, list) and len(value) == len(args):
            return tuple([_decode_value(t, v, key) for t, v in zip(args, value)])
        else:
            raise _value_error(key, f"{value!r} is not a list of {len(args)} values")
    return value


# a scalar field type -> the types of the JSON values it takes (a bool is no int), and their name
_JSON_TYPES = {str: ({str}, "a string"), int: ({int}, "an integer"),
               float: ({int, float}, "a number"), bool: ({bool}, "a boolean")}


def _check_type(tp: object, value: object, key: str) -> None:
    """Refuse a decoded value of field `key` whose JSON type is not the type `tp` says; a field
    typed `X | None` takes None, and anything else as an X."""
    if type(tp) is types.UnionType:  # X | None
        if value is None:
            return
        tp = tp.__args__[0]
    if tp in _JSON_TYPES and type(value) not in _JSON_TYPES[tp][0]:
        raise _value_error(key, f"must be {_JSON_TYPES[tp][1]}, got {value!r}")
    if type(tp) is types.GenericAlias:  # a tuple, which `_decode_value` built
        for i, v in enumerate(value):
            _check_type(tp.__args__[0 if tp.__args__[-1] is Ellipsis else i], v, key)


# a manifest's mode -> its mode class, whose fields are the manifest keys the mode uses
_MODES = {"adaptive": AdaptiveMode, "fixed_budget": FixedBudgetMode, "naive": NaiveMode}
_STATUSES = ("running", "complete", "failed")


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 1


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
    listed: frozenset[str] = field(init=False, repr=False, compare=False)  # sample_ids as a set

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
        if not (isinstance(self.mode, str) and self.mode in _MODES):  # a list is unhashable
            raise _value_error("mode", f"must be one of {', '.join(_MODES)}, got {self.mode!r}")
        for name in ("budget", "trials"):
            value = getattr(self, name)
            if value is None:
                continue
            if name not in _config_fields(_MODES[self.mode]):
                raise _value_error(name, f"does not apply to {self.mode} mode")
            if not _is_count(value):
                raise _value_error(name, f"must be a positive integer, got {value!r}")
        _check_names("levels", self.levels)
        if not _is_count(self.n_samples):
            raise _value_error("n_samples", f"must be a positive integer, got {self.n_samples!r}")
        ids = self.sample_ids
        _check_names("sample_ids", ids)
        listed = frozenset(ids)
        if len(listed) != len(ids):
            raise _value_error("sample_ids", "must be unique")
        object.__setattr__(self, "listed", listed)
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
        stored = {name: getattr(self, name) for name in _config_fields(mode_class)}
        return mode_class(**{name: value for name, value in stored.items() if value is not None})


def _record_model(manifest: RunManifest) -> str:
    return manifest.model or "unknown"


# a trial record's keys, in the order every record line holds them
_RECORD_FIELDS = ("run_id", "model", "sample_id", "level_index", "level_label", "trial_index",
                  "correct", "completion_tokens", "timestamp", "meta")
_record_values = operator.itemgetter(*_RECORD_FIELDS)


def _refused(name: str, rule: str, value: object) -> ValueError:
    return _value_error(name, f"{rule}, got {value!r}")


def _check_record(data: object, manifest: RunManifest) -> tuple[tuple[str, int], int, float, float]:
    """The one check of a trial record: its configuration, trial index, `correct` and tokens.

    `data` is a parsed record line or the record `append_trial` builds. It
    must be an object holding every field of `_RECORD_FIELDS` and no other
    key; then each field must hold a value a run writes, `correct` and the
    token count as floats (a stored integer `correct` reads as a float);
    then it must be a record `append_trial` would write for `manifest`'s
    run, of a sample the manifest lists. The first rule broken, in that
    order, raises the ValueError of `_value_error` naming its field.
    """
    if not isinstance(data, dict):
        raise _value_error("trial record", f"must be a JSON object, got {type(data).__name__}")
    try:
        values = _record_values(data)
    except KeyError:
        values = None
    if values is None or len(data) > len(values):  # a field is missing, or a key is not one
        for name in data:
            if name not in _RECORD_FIELDS:
                raise _value_error(name, "not a field of the trial record")
        missing = next(name for name in _RECORD_FIELDS if name not in data)
        raise _value_error(missing, "missing from the trial record")
    run_id, model, sample_id, level, label, index, correct, tokens, stamp, meta = values
    if not isinstance(run_id, str) or not run_id:
        raise _refused("run_id", "must be a non-empty string", run_id)
    if not isinstance(model, str) or not model:
        raise _refused("model", "must be a non-empty string", model)
    if not isinstance(sample_id, str) or not sample_id:
        raise _refused("sample_id", "must be a non-empty string", sample_id)
    if not isinstance(label, str) or not label:
        raise _refused("level_label", "must be a non-empty string", label)
    if not isinstance(stamp, str) or not stamp:
        raise _refused("timestamp", "must be a non-empty string", stamp)
    if isinstance(level, bool) or not isinstance(level, int) or level < 0:
        raise _refused("level_index", "must be a non-negative integer", level)
    if isinstance(index, bool) or not isinstance(index, int) or index < 0:
        raise _refused("trial_index", "must be a non-negative integer", index)
    if isinstance(tokens, bool) or not isinstance(tokens, int):
        raise _refused("completion_tokens", "must be an integer", tokens)
    if tokens <= 0:
        raise _refused("completion_tokens", "must be > 0", tokens)
    try:
        tokens = float(tokens)
    except OverflowError:
        raise _refused("completion_tokens", "must fit in a float", tokens) from None
    if isinstance(correct, bool) or not isinstance(correct, (int, float)):
        raise _refused("correct", "must be a real number", correct)
    try:
        correct = float(correct)  # a stored 1 reads back as 1.0
    except OverflowError:  # an integer beyond float range, refused next
        pass
    if not 0.0 <= correct <= 1.0:  # NaN fails too
        raise _refused("correct", "must be in [0, 1]", correct)
    if not isinstance(meta, dict):
        raise _value_error("meta", f"must be an object, got {type(meta).__name__}")
    levels = manifest.levels
    if sample_id not in manifest.listed:
        name, expected = "sample_id", "does not list it"
    elif level >= len(levels):
        name, expected = "level_index", f"has {len(levels)} levels"
    elif run_id != manifest.run_id:
        name, expected = "run_id", f"says {manifest.run_id!r}"
    elif model != _record_model(manifest):
        name, expected = "model", f"says {_record_model(manifest)!r}"
    elif label != levels[level]:
        name, expected = "level_label", f"says {levels[level]!r}"
    else:
        return (sample_id, level), index, correct, tokens
    raise _value_error(name, f"record (sample {sample_id!r}, level {level}, trial {index}) has "
                             f"{data[name]!r}, but the manifest of run {manifest.run_id!r} "
                             f"{expected}")


def _read_line(line: bytes, manifest: RunManifest) -> tuple[tuple[str, int], int, float, float]:
    """`_check_record` of the value on one stored line, stripped and not blank.

    A line that is not one JSON value raises the error `json.loads` gives it,
    and one nested too deeply to decode a ValueError.
    """
    text = line.decode()
    try:
        data, end = _scan(text, 0)
    except (StopIteration, RecursionError):  # no value at 0, or one too deep: _loads raises
        end = -1
    if end != len(text):
        data = _loads(text)
    return _check_record(data, manifest)


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
        for name in ("sample_scores", "curve", "configurations", "transitions"):
            value = getattr(self, name)
            if not isinstance(value, tuple):  # `_decode` passes a non-list on, for this to refuse
                raise _value_error(name, f"must be a list, got {value!r}")
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

    @classmethod
    def from_run(cls, manifest: RunManifest, run: EvaluationRun) -> "ResultBundle":
        """The bundle of `manifest`'s run, from its configurations; samples in the manifest's order.

        `arise run` passes the run it drew and `compute` the run its records
        replay to, so both write the same bytes.
        """
        trajectories = run.trajectories
        configurations = tuple(
            ConfigurationSummary(
                sample_id=r.sample_id,
                level_index=r.level_index,
                k_star=r.k_star,
                cv_combined=r.cv_combined,
                converged=r.converged,
                zero_variance_probe=r.zero_variance_probe,
            )
            for r in (run.configurations[(sid, j)] for sid in manifest.sample_ids
                      for j in range(len(manifest.levels)))
        )
        curve = build_scaling_curve(trajectories)
        return cls(
            manifest=manifest,
            sample_scores=tuple(arise_sample(traj) for traj in trajectories),
            aggregate_arise=arise_aggregate(trajectories),
            curve=curve.points,
            scaling_metric=scaling_metric(curve),
            configurations=configurations,
            transitions=tuple(
                transition_matrix(trajectories, (j - 1, j)) for j in range(1, len(manifest.levels))
            ),
        )


# every stored class -> the name its decode errors use
_STORED = {RunManifest: "manifest", ConvergenceConfig: "manifest cfg", SampleScore: "sample score",
           ConfigurationSummary: "configuration summary", TransitionMatrix: "transition matrix",
           ResultBundle: "result bundle"}


class _NoDraws:
    """The backend of a replay: every trial it needs is stored, so a draw means one is missing."""

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
        raise LookupError(f"no record of trial {trial_index}")


_Run = tuple[RunManifest, dict[tuple[str, int], int], BinaryIO]


class TraceStore:
    """Filesystem store rooted at one directory; single writer per run, which the lock that
    `completed_trials(resume=True)` holds on the record file until `close()` enforces.

    The root is created by the first write (a manifest, or that opener's record file), so a
    command that fails validation leaves no directory behind.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        # run id -> what each append of the run is built from, checked against and written to: (its
        # manifest, (sample id, level index) -> the trial index its next append must have, the
        # record file opened for appending)
        self._runs: dict[str, _Run] = {}
        # (second, its RFC3339 text) for record timestamps; replaced whole when the second turns,
        # so a reader in another thread never pairs one second with another's text
        self._stamp: tuple[int, str] = (-1, "")

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
        write_document(self.manifest_path(manifest.run_id), manifest)

    def read_manifest(self, run_id: str) -> RunManifest:
        """The manifest of run `run_id`; ValueError if there is none, if it does not decode or if
        it names another run. Records without a manifest cannot be replayed or resumed, so the
        missing manifest's error names them."""
        path = self.manifest_path(run_id)
        if not path.exists():
            records = self.trial_path(run_id)
            orphan = f"; its records ({records}) cannot be replayed or resumed without one"
            raise ValueError(f"run {run_id!r}: no manifest found"
                             f"{orphan if records.exists() else ''}")
        manifest = decode_file(path, RunManifest)
        if manifest.run_id != run_id:
            raise _value_error("run_id", f"the manifest of run {run_id!r} names run "
                                         f"{manifest.run_id!r} ({path})")
        return manifest

    # ------------------------------------------------------------------
    # trial records

    def append_trial(self, run_id: str, sample_id: str, level_index: int, trial_index: int,
                     outcome: TrialOutcome) -> None:
        """Durably append one fresh trial of run `run_id`, as its configuration's next index.

        `completed_trials(resume=True)` must have opened the run: it gives the
        manifest that each record is built from and checked against, each
        configuration's next index and the file the line is written to. The
        record takes its run id, model and level label from that manifest, and
        it must pass `_check_record`, as replay reads it. A run not opened (or
        closed), or a token count that is not a whole number (the record could
        not store it as drawn), a refused record and an index other than the
        next raise ValueError, all before any byte is written.
        """
        try:
            manifest, next_index, handle = self._runs[run_id]
        except KeyError:
            raise ValueError(f"run {run_id!r} is not open for appending: "
                             f"completed_trials(resume=True) opens it") from None
        tokens = outcome.tokens
        if not isinstance(tokens, (int, float)) or tokens % 1 != 0:  # NaN and infinities too
            raise ValueError(
                f"trial (sample {sample_id!r}, level {level_index}, trial {trial_index}) "
                f"has {tokens!r} completion tokens, not a whole number"
            )
        try:
            label = manifest.levels[level_index]
        except IndexError:  # a stand-in: `_check_record` refuses the record by its index
            label = "-"
        second = _now_second()
        stamp = self._stamp
        if stamp[0] != second:
            stamp = self._stamp = (second, _rfc3339(second))
        data = {
            "run_id": run_id,
            "model": _record_model(manifest),
            "sample_id": sample_id,
            "level_index": level_index,
            "level_label": label,
            "trial_index": trial_index,
            "correct": outcome.correct,
            "completion_tokens": int(tokens),
            "timestamp": stamp[1],
            "meta": {},
        }
        key, index, _, _ = _check_record(data, manifest)
        line = json.dumps(data).encode() + b"\n"
        with self._lock:
            expected = next_index.get(key, 0)
            if index != expected:  # a stored index, or a skipped one
                raise ValueError(f"trial {index} of run {run_id!r}, sample {key[0]!r}, "
                                 f"level {key[1]} is out of order: the next index is {expected}")
            handle.write(line)
            handle.flush()
            next_index[key] = expected + 1

    def close(self) -> None:
        """Close every opened run's record file, releasing its lock; appends to it are refused."""
        with self._lock:
            for *_, handle in self._runs.values():
                handle.close()
            self._runs.clear()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def completed_trials(
        self, manifest: RunManifest, resume: bool = False
    ) -> dict[tuple[str, int], list[TrialOutcome]]:
        """Replay the stored outcomes of `manifest`'s run per configuration, in trial-index order.

        `manifest` names the run: the one `read_manifest` read, or the one a
        new run built. Keys follow the first appearance of each configuration
        in the record file; feed the result to run_evaluation(preloaded=...).
        The file is streamed; a line is stored once its newline is written, so
        bytes after the last newline are a torn line and raise IncompleteRunError.
        Every other line that is not blank goes through one reader,
        `_read_line`, which applies `_check_record` with `manifest`, as
        `append_trial` does before it writes; a line it refuses raises with the
        file and line number. A trial stored twice or any other gap in a
        configuration's indices raises ValueError.

        With resume, this is the record file's one opener: before it reads a
        byte it creates the root and the file, opens it for appending and locks
        it until `close()` (ValueError if another writer holds it). A torn line
        is cut off, to be drawn again. The run is then open for `append_trial`,
        which builds from, checks against and writes to `manifest`, the counts
        read here and the handle. A refusal closes the file.
        """
        run_id = manifest.run_id
        path = self.trial_path(run_id)
        read = _read_line
        # keep only (trial index, outcome) per record, so whole records never pile up
        grouped: dict[tuple[str, int], list[tuple[int, TrialOutcome]]] = {}
        offset, handle = 0, None
        try:
            if resume:
                import fcntl  # only a writer locks; `compute`, `report` and `simulate` skip it

                self.root.mkdir(parents=True, exist_ok=True)
                handle = open(path, "ab+")  # the one append-mode open of a record file
                try:
                    fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    raise ValueError(f"run {run_id!r} has another writer: it holds the lock on "
                                     f"{path}") from None
                handle.seek(0)
            with (contextlib.nullcontext(handle) if resume else
                  open(path, "rb") if path.exists() else contextlib.nullcontext(())) as fh:
                for number, raw in enumerate(fh, 1):
                    if not raw.endswith(b"\n"):  # only the last line can lack it
                        if not resume:
                            raise IncompleteRunError(
                                run_id, f"record file ends in a torn line at byte {offset}; "
                                        f"`run --resume` drops it")
                        handle.truncate(offset)
                        break
                    line = raw.strip()
                    if line:
                        try:
                            key, index, correct, tokens = read(line, manifest)
                        except ValueError as exc:
                            _append_to_message(exc, f"({path}, line {number})")
                            raise
                        grouped.setdefault(key, []).append((index, TrialOutcome(correct, tokens)))
                    offset += len(raw)
            out: dict[tuple[str, int], list[TrialOutcome]] = {}
            for key, indexed in grouped.items():
                indexed.sort(key=lambda pair: pair[0])
                indices = [index for index, _ in indexed]
                if indices != list(range(len(indexed))):
                    repeated = next((i for i, j in zip(indices, indices[1:]) if i == j), None)
                    if repeated is not None:
                        first, second = self._lines_holding(manifest, key, repeated)[:2]
                        raise ValueError(
                            f"run {run_id!r}: configuration {key!r} holds trial {repeated} twice "
                            f"({path}, lines {first} and {second})"
                        )
                    raise ValueError(f"run {run_id!r}: configuration {key!r} has non-contiguous "
                                     f"trial indices {indices}")
                out[key] = [outcome for _, outcome in indexed]
        except BaseException:
            if handle is not None:
                handle.close()
            raise
        if resume:  # indices are contiguous, so each count is the next index
            with self._lock:
                self._runs[run_id] = (manifest, {key: len(outcomes) for key, outcomes in out.items()},
                                      handle)
        return out

    def _lines_holding(self, manifest: RunManifest, key: tuple[str, int], index: int) -> list[int]:
        """The numbers of the run's record file lines that hold trial `index` of configuration `key`.

        Only an error path calls this, so it reads the file again rather
        than have every replay keep line numbers.
        """
        with open(self.trial_path(manifest.run_id), "rb") as fh:
            lines = ((number, raw.strip()) for number, raw in enumerate(fh, 1))
            return [number for number, line in lines
                    if line and _read_line(line, manifest)[:2] == (key, index)]

    # ------------------------------------------------------------------
    # trajectory assembly and recomputation

    def _evaluation(self, manifest: RunManifest) -> EvaluationRun:
        """The run the stored records hold: `run_evaluation` as a resume that cannot draw.

        The live run's stop rule and budget allocation decide every
        configuration, in the manifest's sample order. One short of its stop
        rule (a run cut short, a missing configuration) raises
        IncompleteRunError, since `run --resume` would draw its remaining
        trials; one holding more trials than its rule draws raises ValueError.
        """
        per_config = self.completed_trials(manifest)
        try:
            return run_evaluation(_NoDraws(), manifest.sample_ids, manifest.levels, manifest.cfg,
                                  manifest.run_mode, preloaded=per_config)
        except ConfigurationError as exc:
            raise IncompleteRunError(
                manifest.run_id,
                f"configuration {(exc.sample_id, exc.level_index)!r}: its records end before "
                f"trial {exc.count}, which its stop rule draws; `run --resume` draws the rest",
            ) from exc

    def recompute(self, run_id: str) -> ResultBundle:
        """Re-derive the full result bundle from stored records and manifest."""
        manifest = self.read_manifest(run_id)
        return ResultBundle.from_run(manifest, self._evaluation(manifest))


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
    a string by default. In csv a cell holding a comma, a quote, CR or LF is
    quoted, its quotes doubled (RFC 4180); in markdown `|` is escaped as `\\|`.
    """
    cells = [[str(cell) for cell in row] for row in rows]
    if fmt == "csv":
        return "\n".join(",".join(map(_csv_cell, row)) for row in [headers, *cells])
    if fmt == "json":
        types = json_types or (str,) * len(headers)
        return json.dumps(
            [{h: t(cell) for h, t, cell in zip(headers, types, row)} for row in cells], indent=2
        )
    cells = [[cell.replace("|", "\\|") for cell in row] for row in cells]
    widths = [max([len(h), *(len(row[i]) for row in cells)]) for i, h in enumerate(headers)]
    return "\n".join(
        "| " + " | ".join(cell.ljust(w) for cell, w in zip(line, widths)) + " |"
        for line in [headers, ["-" * w for w in widths], *cells]
    )


def _csv_cell(cell: str) -> str:
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _summary_rows(bundles: Sequence[ResultBundle], sm_scale: float) -> list[tuple[object, ...]]:
    # metric columns always carry 6 decimal places
    return [
        (
            _record_model(b.manifest),
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


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Write `render_table`'s csv of `rows` under `header` to `path` atomically, newline-ended."""
    write_atomic(path, render_table(header, rows, "csv") + "\n")


def write_results_csv(path: str | Path, bundles: Sequence[ResultBundle], sm_scale: float = 1.0) -> None:
    """One row per bundle: model, benchmark, arise, scaling_metric, n_samples, levels."""
    rows = [row[:6] for row in _summary_rows(bundles, sm_scale)]
    write_csv(path, ("model", "benchmark", "arise", "scaling_metric", "n_samples", "levels"), rows)


def write_curve_csv(path: str | Path, bundle: ResultBundle) -> None:
    """One row per scaling level: level_index, level_label, mean_tokens, mean_accuracy."""
    labels = bundle.manifest.levels
    rows = [(j, labels[j], repr(t), repr(a)) for j, (t, a) in enumerate(bundle.curve)]
    header = ("level_index", "level_label", "mean_tokens", "mean_accuracy")
    write_csv(path, header, rows)


def write_transitions_csv(path: str | Path, bundle: ResultBundle) -> None:
    """One row per adjacent level pair: TransitionMatrix's fields, in order."""
    header = tuple(_config_fields(TransitionMatrix))
    rows = [[getattr(t, name) for name in header] for t in bundle.transitions]
    write_csv(path, header, rows)
