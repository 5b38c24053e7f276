"""Trace persistence: record fidelity, conflict rules, and recomputation."""

from __future__ import annotations

import csv
import datetime as dt
import fcntl
import functools
import io
import itertools
import json
import math
import re
import stat
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arise import (
    AdaptiveMode,
    ConvergenceConfig,
    DuplicateTrialError,
    FixedBudgetMode,
    IncompleteRunError,
    NaiveMode,
    RecordValidationError,
    ResultBundle,
    RunManifest,
    SimulatorBackend,
    SyntheticModelSpec,
    TornRecordError,
    TraceStore,
    TrialOutcome,
    arise_aggregate,
    read_mapping,
    reference_spec,
    render_table,
    run_evaluation,
    write_atomic,
)
import arise.store
from arise.cli import _load_run_config, main
from arise.store import (_check_record, _decode, _encode, _read_line, decode_file, now_rfc3339,
                         read_config, write_document)

# a trial record's keys in the order every line holds them, spelled out apart from the store's copy
RECORD_FIELDS = ("run_id", "model", "sample_id", "level_index", "level_label", "trial_index",
                 "correct", "completion_tokens", "timestamp", "meta")


def record(**overrides) -> dict:
    """A record line's object: trial 0 of sample s01 at level 0 of `manifest()`'s run."""
    base = dict(
        run_id="r1",
        model="m",
        sample_id="s01",
        level_index=0,
        level_label="low",
        trial_index=0,
        correct=1.0,
        completion_tokens=100,
        timestamp="2026-08-15T00:00:00+00:00",
        meta={},
    )
    base.update(overrides)
    return base


def manifest(**overrides) -> RunManifest:
    """A manifest the CLI could write; its `sample_ids` default to s01, s02, ... up to `n_samples`."""
    base = dict(
        run_id="r1",
        mode="naive",
        cfg=ConvergenceConfig(),
        levels=("low", "high"),
        n_samples=1,
        started_at="2026-08-15T00:00:00+00:00",
        status="complete",
        trials=1,
        seed=42,
        model="m",
        benchmark="bench",
        config_hash="0123456789abcdef" * 2,
    )
    base.update(overrides)
    count = base["n_samples"] if type(base["n_samples"]) is int else 0  # a bad count is refused
    base.setdefault("sample_ids", tuple(f"s{i:02d}" for i in range(1, count + 1)))
    return RunManifest(**base)


def read(line: bytes, listed: RunManifest | None = None) -> tuple:
    """`_read_line` of `line` against `listed` (default `manifest()`, which `record()` agrees with)."""
    listed = listed or manifest()
    return _read_line(line, listed)


def trajectories(store: TraceStore, run_id: str) -> tuple:
    """The trajectories that run `run_id`'s stored records replay to."""
    return store._evaluation(store.read_manifest(run_id)).trajectories


def open_run(root: Path, listed: RunManifest | None = None) -> TraceStore:
    """A store at `root` holding the manifest `listed` (default `manifest()`), its run opened
    for appending as `arise run` opens it."""
    listed = listed or manifest()
    store = TraceStore(root)
    store.write_manifest(listed)
    store.completed_trials(listed, resume=True)
    return store


@pytest.fixture()
def opened(tmp_path: Path) -> TraceStore:
    """A store whose run r1, of `manifest()`, is open for appending."""
    with open_run(tmp_path) as store:
        yield store


def append(store: TraceStore, trial_index: int = 0, level_index: int = 0, sample_id: str = "s01",
           correct: float = 1.0, tokens: float = 100) -> None:
    """Append a trial of run r1 through the one writer."""
    store.append_trial("r1", sample_id, level_index, trial_index, TrialOutcome(correct, tokens))


NAMES = st.one_of(
    st.text(min_size=1),
    st.sampled_from(['"', "\\", "a\nb\tc", "\x00\x1f\x7f", "é", "日本語", "\u2028", "😀", "\ud800"]),
)
META_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), NAMES),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(NAMES, children, max_size=3),
    max_leaves=8,
)


@st.composite
def valid_record_fields(draw) -> dict:
    """The fields of a record `_check_record` accepts, in order, reaching for escapes and extremes."""
    count = st.one_of(st.integers(0, 10**6), st.sampled_from([2**53 + 1, 2**64, 10**30]))
    return {
        "run_id": draw(NAMES),
        "model": draw(NAMES),
        "sample_id": draw(NAMES),
        "level_index": draw(st.one_of(st.integers(0, 3), count)),
        "level_label": draw(NAMES),
        "trial_index": draw(count),
        "correct": draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))),
        "completion_tokens": draw(st.one_of(st.integers(1, 10**6),
                                            st.sampled_from([2**53 + 1, 2**64, 10**30]))),
        "timestamp": draw(NAMES),
        "meta": draw(st.dictionaries(NAMES, META_VALUES, max_size=4)),
    }


class TestRecordSerialization:
    def test_round_trip_is_exact(self, opened):
        append(opened, correct=1 / 3, tokens=12345)
        assert opened.completed_trials(manifest()) == {("s01", 0): [TrialOutcome(1 / 3, 12345.0)]}

    def test_seventeen_significant_digits_survive(self, opened):
        value = 0.1234567890123456789  # more digits than a double holds
        append(opened, correct=value)
        assert opened.completed_trials(manifest())[("s01", 0)][0].correct == value  # bit-for-bit

    def test_json_field_order_is_stable(self, opened):
        append(opened)
        assert tuple(stored_records(opened)[0]) == RECORD_FIELDS

    @pytest.mark.parametrize(
        ("overrides", "fieldname"),
        [
            ({"run_id": ""}, "run_id"),
            ({"sample_id": ""}, "sample_id"),
            ({"level_index": -1}, "level_index"),
            ({"trial_index": -1}, "trial_index"),
            ({"completion_tokens": 0}, "completion_tokens"),
            ({"completion_tokens": 3.5}, "completion_tokens"),
            ({"correct": 1.5}, "correct"),
            ({"correct": float("nan")}, "correct"),
            ({"meta": None}, "meta"),
        ],
    )
    def test_validation_names_the_offending_field(self, overrides, fieldname):
        with pytest.raises(RecordValidationError) as err:
            _check_record(record(**overrides), manifest())
        assert err.value.fieldname == fieldname

    @pytest.mark.parametrize("stored", [True, False, "0.5", " 1 ", None])
    def test_stored_correct_must_be_a_number(self, stored):
        with pytest.raises(RecordValidationError) as err:
            read(json.dumps(record(correct=stored)).encode())
        assert err.value.fieldname == "correct"

    def test_stored_integer_correct_reads_as_a_float(self):
        correct = read(json.dumps(record(correct=1)).encode())[2]
        assert correct == 1.0 and type(correct) is float

    @settings(max_examples=300, deadline=None)
    @given(fields=valid_record_fields())
    def test_a_valid_line_reads_back_as_written(self, fields):
        """Any record the check accepts, escapes and extreme counts included, reads back exactly
        against a manifest it agrees with; a level index past the manifest's levels is refused."""
        level = fields["level_index"]
        levels = ("x",) * min(level, 3) + (fields["level_label"],)
        listed = manifest(run_id=fields["run_id"], model=fields["model"], levels=levels,
                          sample_ids=(fields["sample_id"],))
        line = json.dumps(fields).encode()
        if level >= len(levels):
            with pytest.raises(RecordValidationError, match=f"has {len(levels)} levels$") as err:
                read(line, listed)
            assert err.value.fieldname == "level_index"
            return
        assert read(line, listed) == (
            (fields["sample_id"], level), fields["trial_index"],
            float(fields["correct"]), float(fields["completion_tokens"]))

    @pytest.mark.parametrize("fieldname", ["meta", "timestamp"])
    def test_every_field_must_be_stored(self, fieldname):
        data = record()
        del data[fieldname]
        with pytest.raises(RecordValidationError) as err:
            read(json.dumps(data).encode())
        assert err.value.fieldname == fieldname


def stored_records(store: TraceStore, run_id: str = "r1") -> list[dict]:
    """The records in `run_id`'s record file, in file order."""
    lines = store.trial_path(run_id).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def replay(store: TraceStore, listed: RunManifest) -> object:
    """What `completed_trials` gives for `listed`'s run, or the type and message of what it raises."""
    try:
        return repr(store.completed_trials(listed))
    except (ValueError, IncompleteRunError) as exc:
        return type(exc), str(exc)


def checked_record(data: object) -> SimpleNamespace:
    """A parsed record line through the key and field rules, an integer `correct` widened.

    The rules are spelled out here, one field at a time, so the store's one
    record check is held against a copy it does not share.
    """
    if isinstance(data, dict) and type(data.get("correct")) is int:
        data["correct"] = float(data["correct"])
    if not isinstance(data, dict):
        raise RecordValidationError("trial record",
                                    f"must be a JSON object, got {type(data).__name__}")
    for name in data:
        if name not in RECORD_FIELDS:
            raise RecordValidationError(name, "not a field of the trial record")
    for name in RECORD_FIELDS:
        if name not in data:
            raise RecordValidationError(name, "missing from the trial record")
    r = SimpleNamespace(**data)
    for name in ("run_id", "model", "sample_id", "level_label", "timestamp"):
        value = getattr(r, name)
        if not isinstance(value, str) or not value:
            raise RecordValidationError(name, f"must be a non-empty string, got {value!r}")
    for name in ("level_index", "trial_index"):
        value = getattr(r, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise RecordValidationError(name, f"must be a non-negative integer, got {value!r}")
    if isinstance(r.completion_tokens, bool) or not isinstance(r.completion_tokens, int):
        raise RecordValidationError("completion_tokens",
                                    f"must be an integer, got {r.completion_tokens!r}")
    if r.completion_tokens <= 0:
        raise RecordValidationError("completion_tokens", f"must be > 0, got {r.completion_tokens!r}")
    if not isinstance(r.correct, (int, float)) or isinstance(r.correct, bool):
        raise RecordValidationError("correct", f"must be a real number, got {r.correct!r}")
    if not (math.isfinite(r.correct) and 0.0 <= r.correct <= 1.0):
        raise RecordValidationError("correct", f"must be in [0, 1], got {r.correct!r}")
    if not isinstance(r.meta, dict):
        raise RecordValidationError("meta", f"must be an object, got {type(r.meta).__name__}")
    return r


def manifest_check(r: SimpleNamespace, listed: RunManifest, ids: frozenset[str]) -> None:
    """Refuse a record that the manifest `listed`, whose samples are `ids`, does not describe."""
    levels = listed.levels
    if r.sample_id not in ids:
        name, expected = "sample_id", "does not list it"
    elif r.level_index >= len(levels):
        name, expected = "level_index", f"has {len(levels)} levels"
    elif r.run_id != listed.run_id:
        name, expected = "run_id", f"says {listed.run_id!r}"
    elif r.model != (listed.model or "unknown"):
        name, expected = "model", f"says {listed.model or 'unknown'!r}"
    elif r.level_label != levels[r.level_index]:
        name, expected = "level_label", f"says {levels[r.level_index]!r}"
    else:
        return
    raise RecordValidationError(
        name,
        f"record (sample {r.sample_id!r}, level {r.level_index}, trial {r.trial_index}) has "
        f"{getattr(r, name)!r}, but the manifest of run {listed.run_id!r} {expected}",
    )


def replay_checked(path: Path, listed: RunManifest) -> object:
    """`replay` as the store gave it before its decode fast path.

    Every line goes through the checked decode and the manifest check,
    and each configuration's trials are sorted, then checked for a trial
    stored twice (named by its first two lines) and for gaps. Bytes after
    the last newline are a torn tail, whether or not they decode.
    """
    ids = frozenset(listed.sample_ids)
    grouped: dict[tuple[str, int], list[tuple[int, TrialOutcome]]] = {}
    lines: dict[tuple[str, int, int], list[int]] = {}
    raws = path.read_bytes().split(b"\n")
    offset = 0
    for number, raw in enumerate(raws, 1):
        start, offset = offset, offset + len(raw) + 1
        if number == len(raws) and raw:  # the file's last byte is not a newline
            return TornRecordError, (f"run 'r1': record file ends in a torn line at byte "
                                     f"{start}; `run --resume` drops it")
        if not raw.strip():
            continue
        try:
            r = checked_record(json.loads(raw.strip().decode()))
            manifest_check(r, listed, ids)
        except ValueError as exc:
            return type(exc), f"{exc} ({path}, line {number})"
        grouped.setdefault((r.sample_id, r.level_index), []).append(
            (r.trial_index, TrialOutcome(r.correct, float(r.completion_tokens))))
        lines.setdefault((r.sample_id, r.level_index, r.trial_index), []).append(number)
    out = {}
    for key, indexed in grouped.items():
        indexed.sort(key=lambda pair: pair[0])
        indices = [index for index, _ in indexed]
        repeated = sorted(index for index in set(indices) if indices.count(index) > 1)
        if repeated:
            first, second = lines[(*key, repeated[0])][:2]
            return DuplicateTrialError, (
                f"run 'r1': configuration {key!r} holds trial {repeated[0]} twice "
                f"({path}, lines {first} and {second})")
        if indices != list(range(len(indexed))):
            return ValueError, (
                f"run 'r1': configuration {key!r} has non-contiguous trial indices {indices}")
        out[key] = [outcome for _, outcome in indexed]
    return repr(out)


JSON_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**70, -(2**70)]),
    st.floats(),  # NaN and both infinities included
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, -1.0, 100.0, math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.sampled_from(["", "r1", "r2", "m", "s01", "s02", "low", "high"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def valid_line() -> dict:
    """The object of a valid record line, the second trial of its configuration."""
    return record(trial_index=1, completion_tokens=150)


@st.composite
def reshaped_records(draw) -> dict:
    """A valid record line's object with a key dropped or added, or its keys reordered."""
    data = valid_line()
    kind = draw(st.sampled_from(["drop", "add", "reorder"]))
    if kind == "drop":
        del data[draw(st.sampled_from(list(data)))]
    elif kind == "add":
        data[draw(st.sampled_from(["extra", "Run_id", ""]))] = draw(JSON_VALUES)
    else:
        data = {key: data[key] for key in draw(st.permutations(list(data)))}
    return data


@st.composite
def trial_orders(draw) -> list[tuple[str, int, int]]:
    """(sample, level, trial) keys in file order: whole configurations shuffled, plus a few strays."""
    counts = {(sid, j): draw(st.integers(1, 3)) for sid in ("s01", "s02") for j in (0, 1)}
    keys = [(sid, j, t) for (sid, j), n in counts.items() for t in range(n)]
    keys = list(draw(st.permutations(keys)))
    for _ in range(draw(st.integers(0, 2))):  # a duplicate, a gap or a late index
        stray = (draw(st.sampled_from(["s01", "s02"])), draw(st.sampled_from([0, 1])),
                 draw(st.integers(0, 4)))
        keys.insert(draw(st.integers(0, len(keys))), stray)
    return keys


WHITESPACE = [b" ", b"\t", b"\r", b"\x0b", b"\x0c", b" \t "]
BOM = "\ufeff".encode()


@st.composite
def raw_record_files(draw) -> bytes:
    """The record file of a complete one-sample naive:1 run with one line reframed or respelled.

    The change is whitespace or a stray character around a line, CRLF, two
    objects on a line, a record split over two lines at a comma, a BOM,
    invalid UTF-8, a blank line, `correct` as 1, true, NaN or Infinity, or a
    `sample_id` that is a list or an object; then the file may lose its
    final newline or be torn inside its last line.
    """
    lines = [json.dumps(record()).encode(),
             json.dumps(record(level_index=1, level_label="high", completion_tokens=200)).encode()]
    ends = [b"\n"] * len(lines)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["none", "lead", "trail", "crlf", "two", "split", "bom",
                                 "bad_utf8", "blank", "correct", "sample_id"]))
    if kind == "lead":
        lines[i] = draw(st.sampled_from(WHITESPACE)) + lines[i]
    elif kind == "trail":  # whitespace, or a stray character after the record
        lines[i] += draw(st.sampled_from([*WHITESPACE, b"x", b"}"]))
    elif kind == "crlf":
        ends = [b"\r\n"] * len(lines)
    elif kind == "two":
        lines[i] += draw(st.sampled_from([b"", b" "])) + lines[1 - i]
    elif kind == "split":  # the halves join with a comma into the record
        cut = draw(st.sampled_from([m.start() for m in re.finditer(b", ", lines[i])]))
        lines[i:i + 1] = [lines[i][:cut], lines[i][cut + 2:]]
        ends.append(b"\n")
    elif kind == "bom":
        lines[i] = BOM + lines[i]
    elif kind == "bad_utf8":
        lines[i] = lines[i].replace(b'"model": "m"', b'"model": "\xff"')
    elif kind == "blank":
        lines.insert(i, draw(st.sampled_from([b"", *WHITESPACE])))
        ends.append(b"\n")
    elif kind == "correct":
        spelled = draw(st.sampled_from([b"1", b"true", b"NaN", b"Infinity"]))
        lines[i] = lines[i].replace(b'"correct": 1.0', b'"correct": ' + spelled)
    elif kind == "sample_id":
        spelled = draw(st.sampled_from([b"[]", b"{}"]))
        lines[i] = lines[i].replace(b'"sample_id": "s01"', b'"sample_id": ' + spelled)
    data = b"".join(line + end for line, end in zip(lines, ends))
    tail = draw(st.sampled_from(["whole", "no_newline", "torn"]))
    if tail == "no_newline":
        data = data[:-1]
    elif tail == "torn":
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        data = data[:draw(st.integers(last + 1, len(data) - 2))]
    return data


class TestDecodePaths:
    """Every line replays as the checked decode and the manifest check read it, rule by rule."""

    LISTED = (manifest(), manifest(n_samples=2))  # lists s01; lists s01 and s02

    def write(self, tmp_path: Path, lines: list[str], listed: RunManifest) -> TraceStore:
        (tmp_path / "r1.jsonl").write_text("".join(line + "\n" for line in lines))
        store = TraceStore(tmp_path)
        store.write_manifest(listed)
        return store

    def replays_as_checked(self, tmp_path: Path, data: dict, listed: RunManifest) -> None:
        lines = [json.dumps(record(trial_index=0)), json.dumps(data),
                 json.dumps(record(level_index=1, level_label="high"))]
        store = self.write(tmp_path, lines, listed)
        assert replay(store, listed) == replay_checked(store.trial_path("r1"), listed)

    @pytest.mark.parametrize("fieldname", list(valid_line()))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=JSON_VALUES, listed=st.sampled_from(LISTED))
    def test_a_changed_value_replays_as_the_checked_decode_does(self, tmp_path, fieldname, value,
                                                                listed):
        self.replays_as_checked(tmp_path, {**valid_line(), fieldname: value}, listed)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=reshaped_records(), listed=st.sampled_from(LISTED))
    def test_a_changed_key_set_replays_as_the_checked_decode_does(self, tmp_path, data, listed):
        self.replays_as_checked(tmp_path, data, listed)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trial_orders(), st.just(LISTED[1]))
    def test_any_trial_order_replays_as_the_sorted_grouping_does(self, tmp_path, keys, listed):
        lines = [json.dumps(record(sample_id=sid, level_index=j, level_label=("low", "high")[j],
                                   trial_index=t, correct=float(t % 2), completion_tokens=100 + t))
                 for sid, j, t in keys]
        store = self.write(tmp_path, lines, listed)
        assert replay(store, listed) == replay_checked(store.trial_path("r1"), listed)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=raw_record_files(), listed=st.sampled_from(LISTED))
    def test_a_raw_line_replays_and_computes_as_the_checked_decode_does(self, tmp_path, data,
                                                                        listed):
        store = self.write(tmp_path, [], listed)
        store.trial_path("r1").write_bytes(data)
        expected = replay_checked(store.trial_path("r1"), listed)
        assert replay(store, listed) == expected
        if isinstance(expected, tuple):  # IncompleteRunError exits 2, any other error 1
            code = 2 if issubclass(expected[0], IncompleteRunError) else 1
        else:  # the run is complete when every record was read and the manifest lists one sample
            whole = repr({("s01", 0): [TrialOutcome(1.0, 100.0)],
                          ("s01", 1): [TrialOutcome(1.0, 200.0)]})
            code = 0 if expected == whole and listed.n_samples == 1 else 2
        result = CliRunner().invoke(main, ["compute", str(tmp_path), "--run-id", "r1",
                                           "--out", str(tmp_path / "b.json")])
        assert result.exit_code == code, result.output


STAMPED = "2026-08-15T00:00:00+00:00"


def written(listed: RunManifest, sample_id: str, level_index: int, outcome: TrialOutcome,
            stamp: str = STAMPED) -> dict:
    """The object of the line the writer builds for trial 0 of a configuration, spelled out.

    The run id, model and level label come from `listed` (a level index it
    has no label for gets the writer's stand-in, "-"); a whole token count
    is stored as an integer, any other as it is.
    """
    levels, tokens = listed.levels, outcome.tokens
    return {
        "run_id": listed.run_id,
        "model": listed.model or "unknown",
        "sample_id": sample_id,
        "level_index": level_index,
        "level_label": levels[level_index] if -len(levels) <= level_index < len(levels) else "-",
        "trial_index": 0,
        "correct": outcome.correct,
        "completion_tokens": int(tokens) if tokens % 1 == 0 else tokens,
        "timestamp": stamp,
        "meta": {},
    }


@st.composite
def trials_and_manifests(draw) -> tuple[RunManifest, str, int, TrialOutcome]:
    """A manifest of run r1 and the (sample, level, outcome) of a trial the writer is handed for it.

    The sample may be one the manifest does not list, or empty; the level
    index negative or past the manifest's levels; `correct` any float, an
    integer beyond float range or a bool; the token count not whole, not
    positive, or beyond float range.
    """
    ids = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    levels = draw(st.lists(NAMES, min_size=1, max_size=3))
    listed = manifest(model=draw(st.one_of(st.none(), NAMES)), levels=tuple(levels),
                      n_samples=len(ids), sample_ids=tuple(ids))
    sample_id = draw(st.one_of(st.sampled_from(ids), st.sampled_from(["", "s99"]), NAMES))
    level_index = draw(st.integers(-2, len(levels) + 1))
    correct = draw(st.one_of(
        st.floats(0.0, 1.0), st.floats(),
        st.sampled_from([0, 1, 2, -0.0, 5e-324, 1.5, math.nan, math.inf, True, False, 10**400])))
    tokens = draw(st.one_of(
        st.integers(-2, 10**6), st.floats(),
        st.sampled_from([12.0, 12.5, 0.1, 2**53 + 1, 2**64, 10**400, math.nan, math.inf])))
    return listed, sample_id, level_index, TrialOutcome(correct, tokens)


@st.composite
def disagreeing_manifests(draw) -> tuple[RunManifest, str, int, TrialOutcome, str | None]:
    """The run's manifest, a valid trial the writer is handed for it, and the field they split on.

    The manifest disagrees with the trial in at most one value the record is
    checked against but does not take from the manifest: the sample list, or
    the level count (too few levels for the trial's). The trial is the first
    of its configuration; the field is the record field the refusal names,
    or None.
    """
    fields = draw(valid_record_fields())
    sample_id, level = fields["sample_id"], draw(st.integers(0, 2))
    levels = ["low"] * 3
    levels[level] = fields["level_label"]
    agreed = dict(model=fields["model"], levels=tuple(levels), sample_ids=(sample_id,))
    name = draw(st.sampled_from([None, "sample_id", *(["level_index"] if level > 0 else [])]))
    run = {
        None: {},
        "sample_id": {"sample_ids": (sample_id + "x",)},
        "level_index": {"levels": tuple(levels[:level])},  # too few levels to hold the record's
    }[name]
    outcome = TrialOutcome(fields["correct"], fields["completion_tokens"])
    return manifest(**{**agreed, **run}), sample_id, level, outcome, name


class TestWriterAndReplayAgree:
    """`append_trial` accepts exactly the trials whose line `completed_trials` reads back, writes
    that line, and refuses every other trial before any byte, with the replay's message."""

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=trials_and_manifests())
    def test_an_appended_record_reads_back_as_written(self, tmp_path, drawn):
        listed, sample_id, level_index, outcome = drawn
        store = open_run(Path(tempfile.mkdtemp(dir=tmp_path)), listed)
        path = store.trial_path("r1")
        try:
            with store:
                store.append_trial("r1", sample_id, level_index, 0, outcome)
        except ValueError as exc:
            assert path.read_bytes() == b""  # refused before any byte
            path.write_text(json.dumps(written(listed, sample_id, level_index, outcome)) + "\n")
            with pytest.raises(ValueError) as err:
                store.completed_trials(listed)
            if isinstance(exc, RecordValidationError):  # else a token count that is not whole
                assert str(err.value) == f"{exc} ({path}, line 1)"
        else:
            stamp = stored_records(store)[0]["timestamp"]
            line = json.dumps(written(listed, sample_id, level_index, outcome, stamp))
            assert path.read_text() == line + "\n"
            assert store.completed_trials(listed) == {
                (sample_id, level_index): [TrialOutcome(float(outcome.correct),
                                                        float(outcome.tokens))]}

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=disagreeing_manifests(), handed=st.booleans())
    def test_the_writer_gives_the_replay_refusal(self, tmp_path, drawn, handed):
        run, sample_id, level, outcome, name = drawn
        store = TraceStore(Path(tempfile.mkdtemp(dir=tmp_path)))
        store.write_manifest(run)
        # the run opened with its manifest as a new run builds it, or as a resume reads it back
        store.completed_trials(run if handed else store.read_manifest("r1"), resume=True)
        path = store.trial_path("r1")
        try:
            with store:
                store.append_trial("r1", sample_id, level, 0, outcome)
        except RecordValidationError as exc:
            assert exc.fieldname == name
            assert path.read_bytes() == b""  # refused before any byte
            path.write_text(json.dumps(written(run, sample_id, level, outcome)) + "\n")
            with pytest.raises(RecordValidationError) as err:
                store.completed_trials(run)
            assert str(err.value) == f"{exc} ({path}, line 1)"
        else:
            assert name is None
            assert store.completed_trials(run) == {
                (sample_id, level): [TrialOutcome(float(outcome.correct), float(outcome.tokens))]}

    def test_the_record_takes_run_id_model_and_label_from_the_opened_manifest(self, tmp_path):
        with open_run(tmp_path, manifest(model=None, levels=("low", "high,er"))) as store:
            append(store, level_index=1)
        stored = stored_records(store)[0]
        assert (stored["run_id"], stored["model"], stored["level_label"]) == (
            "r1", "unknown", "high,er")

    @pytest.mark.parametrize("level, message", [
        (2, "level_index: record (sample 's01', level 2, trial 0) has 2, but the manifest of run "
            "'r1' has 2 levels"),
        (-1, "level_index: must be a non-negative integer, got -1"),
    ], ids=["past-the-levels", "negative"])
    def test_a_level_index_without_a_level_is_refused_by_the_record_check(self, opened, level,
                                                                          message):
        with pytest.raises(RecordValidationError, match=f"^{re.escape(message)}$"):
            append(opened, level_index=level)
        assert opened.trial_path("r1").read_bytes() == b""  # refused before any byte

    def test_a_run_not_opened_is_refused_before_any_byte(self, tmp_path):
        store = TraceStore(tmp_path)
        store.write_manifest(manifest())
        store.completed_trials(manifest())  # a read that does not resume opens nothing
        with pytest.raises(ValueError, match="^run 'r1' is not open for appending"):
            append(store)
        assert not store.trial_path("r1").exists()

    def test_a_resume_without_a_manifest_raises_before_touching_the_file(self, tmp_path):
        store = TraceStore(tmp_path)
        torn = (json.dumps(record()) + "\n" + json.dumps(record(trial_index=1))[:30]).encode()
        store.trial_path("r1").write_bytes(torn)
        with pytest.raises(ValueError, match="^run 'r1': no manifest found; its records "):
            store.read_manifest("r1")  # a resume reads the manifest before it opens the run
        assert store.trial_path("r1").read_bytes() == torn
        with pytest.raises(ValueError, match="not open for appending"):
            append(store, trial_index=1)


DEEP = "[" * 100_000 + "]" * 100_000  # past any recursion limit


class TestDeepJson:
    """JSON nested past the recursion limit gets a ValueError naming the file, not a RecursionError."""

    def test_a_record_line_names_the_file_and_line(self, tmp_path):
        with open_run(tmp_path) as store:
            append(store)
        line = json.dumps(record(trial_index=1)).replace('"meta": {}', f'"meta": {{"x": {DEEP}}}')
        with open(store.trial_path("r1"), "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError) as err:
            store.completed_trials(manifest())
        assert str(err.value) == (
            f"JSON value nests too deeply to decode ({store.trial_path('r1')}, line 2)")
        with pytest.raises(ValueError, match="^JSON value nests too deeply to decode$"):
            read(line.encode())

    @pytest.mark.parametrize("name", ["c.json", "c.yaml"])
    def test_a_config_names_its_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(f"a: {DEEP}\n" if name.endswith(".yaml") else f'{{"a": {DEEP}}}')
        with pytest.raises(ValueError) as err:
            read_mapping(path, "run config")
        assert str(err.value) == f"run config {path} nests too deeply to read"


class TestRecordLineErrors:
    """An error from a record line names the record file and the line; a torn tail keeps its message."""

    def seed_store(self, tmp_path: Path) -> TraceStore:
        with open_run(tmp_path) as store:
            for k in range(8):
                append(store, trial_index=k)
        return store

    def replace_line(self, store: TraceStore, number: int, line: bytes) -> None:
        path = store.trial_path("r1")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[number - 1] = line
        path.write_bytes(b"".join(lines))

    @pytest.mark.parametrize("line, error, message", [
        (b'{"run_id" "r1"}\n', json.JSONDecodeError, "Expecting ':' delimiter: line 1 column 11"),
        (json.dumps(record(trial_index=5, correct=2.0)).encode() + b"\n", RecordValidationError,
         "correct: must be in [0, 1], got 2.0"),
        (b'{"run_id": "\xff"}\n', UnicodeDecodeError, "can't decode byte 0xff"),
    ])
    def test_a_bad_line_names_the_file_and_line(self, tmp_path, line, error, message):
        store = self.seed_store(tmp_path)
        self.replace_line(store, 6, line)
        with pytest.raises(error) as err:
            store.completed_trials(manifest())
        assert message in str(err.value)
        assert str(err.value).endswith(f"({store.trial_path('r1')}, line 6)")

    def test_a_record_the_manifest_refuses_names_the_file_and_line(self, tmp_path):
        store = self.seed_store(tmp_path)
        self.replace_line(store, 6, json.dumps(record(trial_index=5, model="other")).encode() + b"\n")
        with pytest.raises(RecordValidationError) as err:
            store.completed_trials(manifest())
        assert str(err.value) == (
            f"model: record (sample 's01', level 0, trial 5) has 'other', but the manifest of "
            f"run 'r1' says 'm' ({store.trial_path('r1')}, line 6)")

    @pytest.mark.parametrize("field, rule", [("completion_tokens", "must fit in a float"),
                                             ("correct", "must be in [0, 1]")],
                             ids=["completion_tokens", "correct"])
    def test_a_number_beyond_float_range_names_the_file_and_line(self, tmp_path, field, rule):
        store = self.seed_store(tmp_path)
        self.replace_line(store, 6, json.dumps(record(trial_index=5, **{field: 10**400})).encode()
                          + b"\n")
        with pytest.raises(RecordValidationError) as err:
            store.completed_trials(manifest())
        assert err.value.fieldname == field
        assert str(err.value) == f"{field}: {rule}, got {10**400} ({store.trial_path('r1')}, line 6)"

    def test_a_torn_tail_names_its_offset_only(self, tmp_path):
        store = self.seed_store(tmp_path)
        data = store.trial_path("r1").read_bytes()
        store.trial_path("r1").write_bytes(data[:-20])
        with pytest.raises(TornRecordError) as err:
            store.completed_trials(manifest())
        offset = data.rindex(b"\n", 0, len(data) - 1) + 1
        assert str(err.value) == (f"run 'r1': record file ends in a torn line at byte {offset}; "
                                  f"`run --resume` drops it")


class TestTokenCounts:
    @pytest.mark.parametrize("tokens", [12.5, 0.1, math.nan, math.inf, -math.inf])
    def test_a_count_that_is_not_whole_is_refused(self, opened, tokens):
        with pytest.raises(ValueError) as err:
            append(opened, trial_index=4, level_index=1, tokens=tokens)
        assert str(err.value) == (f"trial (sample 's01', level 1, trial 4) has {tokens!r} "
                                  f"completion tokens, not a whole number")
        assert opened.trial_path("r1").read_bytes() == b""  # refused before any byte

    @pytest.mark.parametrize("tokens", [12.0, 12])
    def test_a_whole_count_is_stored_as_drawn(self, opened, tokens):
        append(opened, level_index=1, tokens=tokens)
        opened.close()
        assert [r["completion_tokens"] for r in stored_records(opened)] == [12]


class TestManifest:
    def test_round_trip(self):
        m = manifest()
        assert _decode(RunManifest, _encode(m)) == m

    def test_dict_shape(self):
        data = _encode(manifest(mode="fixed_budget", budget=120, trials=None))
        assert data["cfg"] == {"m_min": 3, "m_max": 10, "tau": 0.5}
        assert data["budget"] == 120
        assert "trials" not in data
        for key in ("run_id", "mode", "levels", "n_samples", "started_at", "status"):
            assert key in data

    def test_optional_keys_omitted_when_absent(self):
        data = _encode(manifest(budget=None, trials=None, seed=None, model=None, benchmark=None))
        assert not {"budget", "trials", "seed", "model", "benchmark"} & set(data)

    @pytest.mark.parametrize("mode, name, budget, trials", [
        (AdaptiveMode(), "adaptive", None, None),
        (NaiveMode(3), "naive", None, 3),
        (FixedBudgetMode(120), "fixed_budget", 120, None),
    ])
    def test_mode_fields_round_trip(self, mode, name, budget, trials):
        fields = {k: v for k, v in vars(manifest()).items()
                  if k not in ("mode", "budget", "trials", "listed")}
        m = RunManifest.for_mode(mode, **fields)
        assert (m.mode, m.budget, m.trials) == (name, budget, trials)
        assert _decode(RunManifest, _encode(m)).run_mode == mode

    def test_naive_manifest_without_a_count_resumes_single_sampling(self):
        assert manifest(trials=None).run_mode == NaiveMode(1)

    @pytest.mark.parametrize("overrides, fieldname", [
        ({"mode": "bogus"}, "mode"),
        ({"mode": "adaptive"}, "trials"),  # the base manifest is naive with trials=1
        ({"mode": "fixed_budget", "budget": 120}, "trials"),
        ({"trials": None, "budget": 120}, "budget"),
        ({"trials": 0}, "trials"),
        ({"trials": True}, "trials"),
        ({"mode": "fixed_budget", "trials": None, "budget": -5}, "budget"),
        ({"n_samples": 0}, "n_samples"),
        ({"n_samples": True}, "n_samples"),
        ({"n_samples": "8"}, "n_samples"),
        ({"status": "done"}, "status"),
        ({"levels": ("low", "")}, "levels"),
        ({"levels": ["low", "high"]}, "levels"),
    ])
    def test_refuses_values_a_run_cannot_hold(self, overrides, fieldname):
        with pytest.raises(ValueError, match=f"^{fieldname}: "):
            manifest(**overrides)

    @pytest.mark.parametrize("levels", ["ab", ["low", ""], ["low", 1], None])
    def test_levels_must_be_a_list_of_labels(self, levels):
        data = _encode(manifest())
        data["levels"] = levels
        with pytest.raises(ValueError, match="^levels: must be a list of non-empty strings"):
            _decode(RunManifest, data)

    @pytest.mark.parametrize("sample_ids, message", [
        (("s01", "s01"), "must be unique"),
        (("s01", ""), "must be a list of non-empty strings"),
        (("s01",), "lists 1 samples, but n_samples is 2"),
        ("ab", "must be a list of non-empty strings"),
    ])
    def test_sample_ids_are_checked_on_write(self, sample_ids, message):
        with pytest.raises(ValueError, match=f"^sample_ids: {message}"):
            manifest(n_samples=2, sample_ids=sample_ids)

    @pytest.mark.parametrize("sample_ids, message", [
        ("ab", "must be a list of non-empty strings"),
        (["s01", 2], "must be a list of non-empty strings"),
        (["s01", "s01"], "must be unique"),
        (["s01", "s02", "s03"], "lists 3 samples"),
    ])
    def test_sample_ids_are_checked_on_read(self, sample_ids, message):
        data = _encode(manifest(n_samples=2))
        data["sample_ids"] = sample_ids
        with pytest.raises(ValueError, match=f"^sample_ids: {message}"):
            _decode(RunManifest, data)

    def test_a_manifest_naming_another_run_is_refused(self, tmp_path):
        """A run is read by its manifest only when the manifest names it; else ValueError, no write."""
        store = TraceStore(tmp_path)
        path = store.manifest_path("r1")
        write_document(path, manifest(run_id="r2"))
        for read_run in (store.read_manifest, store.recompute):
            with pytest.raises(ValueError) as err:
                read_run("r1")
            assert str(err.value) == f"run_id: the manifest of run 'r1' names run 'r2' ({path})"
        assert list(tmp_path.iterdir()) == [path]

    def test_sample_ids_round_trip_after_n_samples(self):
        listed = manifest(n_samples=2, sample_ids=("s02", "s01"))
        data = _encode(listed)
        assert list(data)[list(data).index("n_samples") + 1] == "sample_ids"
        assert data["sample_ids"] == ["s02", "s01"]
        assert _decode(RunManifest, json.loads(json.dumps(data))) == listed


class TestAppend:
    def test_append_then_read_back(self, tmp_path: Path):
        with open_run(tmp_path) as store:
            append(store)
            append(store, level_index=1, tokens=333)
        stored = stored_records(TraceStore(tmp_path))
        assert len(stored) == 2
        assert stored[0] == record(timestamp=stored[0]["timestamp"])

    @pytest.mark.parametrize("first_write", ["manifest", "record"])
    def test_root_is_created_by_the_first_write(self, tmp_path: Path, first_write):
        root = tmp_path / "a" / "b"
        with TraceStore(root) as store:
            assert store.run_ids() == [] and not root.exists()
            if first_write == "manifest":
                store.write_manifest(manifest())
            else:  # a new run, opened with the manifest it has not stored yet: its first write
                store.completed_trials(manifest(), resume=True)
                assert store.trial_path("r1").read_bytes() == b""
                append(store)
        assert TraceStore(root).run_ids() == ["r1"]

    def test_duplicate_key_conflicts(self, opened):
        append(opened)
        with pytest.raises(DuplicateTrialError):
            append(opened, correct=0.0)

    def test_duplicate_detected_across_store_instances(self, tmp_path: Path):
        with open_run(tmp_path) as store:
            append(store)
        with open_run(tmp_path) as reopened:
            with pytest.raises(DuplicateTrialError):
                append(reopened)

    def test_the_next_index_of_each_configuration_is_accepted(self, opened):
        for k in range(3):
            append(opened, trial_index=k)
        append(opened, level_index=1)
        opened.close()
        assert [(r["level_index"], r["trial_index"]) for r in stored_records(opened)] == [
            (0, 0), (0, 1), (0, 2), (1, 0)]

    def test_a_stored_index_is_refused(self, opened):
        append(opened)
        append(opened, trial_index=1)
        before = opened.trial_path("r1").read_bytes()
        with pytest.raises(DuplicateTrialError) as err:
            append(opened, correct=0.0)
        assert str(err.value) == ("trial 0 of run 'r1', sample 's01', level 0 is out of order: "
                                  "the next index is 2")
        assert opened.trial_path("r1").read_bytes() == before

    @pytest.mark.parametrize("level, trial, expected", [(0, 2, 1), (1, 1, 0)],
                             ids=["after-a-stored-one", "first-of-its-configuration"])
    def test_a_skipped_index_is_refused_before_any_write(self, opened, level, trial, expected):
        append(opened)
        before = opened.trial_path("r1").read_bytes()
        with pytest.raises(ValueError) as err:
            append(opened, level_index=level, trial_index=trial)
        assert not isinstance(err.value, DuplicateTrialError)
        assert str(err.value).endswith(f"is out of order: the next index is {expected}")
        assert opened.trial_path("r1").read_bytes() == before

    def test_a_store_that_reads_the_file_starts_from_completed_trials(self, tmp_path: Path):
        TraceStore(tmp_path).write_manifest(manifest())
        path = TraceStore(tmp_path).trial_path("r1")
        for stored, error, message in (
                ([0, 2], ValueError, "non-contiguous trial indices \\[0, 2\\]$"),
                ([0, 0], DuplicateTrialError, "holds trial 0 twice")):
            path.write_text("".join(json.dumps(record(trial_index=k)) + "\n" for k in stored))
            before = path.read_bytes()
            with TraceStore(tmp_path) as store:  # refused when the run is opened
                with pytest.raises(error, match=message):
                    store.completed_trials(manifest(), resume=True)
                with pytest.raises(ValueError, match="not open for appending"):
                    append(store, trial_index=len(stored))
            assert path.read_bytes() == before
        path.write_text(json.dumps(record()) + "\n" + json.dumps(record(trial_index=1)) + "\n")
        with open_run(tmp_path) as store:
            with pytest.raises(DuplicateTrialError, match="the next index is 2$"):
                append(store, trial_index=1)
            with pytest.raises(ValueError, match="the next index is 2$"):
                append(store, trial_index=3)
            append(store, trial_index=2)
        assert [r["trial_index"] for r in stored_records(store)] == [0, 1, 2]

    def test_appends_never_rewrite_existing_lines(self, opened):
        append(opened)
        first = opened.trial_path("r1").read_text()
        append(opened, trial_index=1)
        second = opened.trial_path("r1").read_text()
        assert second.startswith(first)

    def test_invalid_record_rejected_before_write(self, opened):
        with pytest.raises(RecordValidationError):
            append(opened, tokens=0)
        assert opened.trial_path("r1").read_bytes() == b""  # refused before any byte

    @pytest.mark.parametrize("field, rule", [("completion_tokens", "must fit in a float"),
                                             ("correct", "must be in [0, 1]")],
                             ids=["completion_tokens", "correct"])
    def test_a_number_beyond_float_range_is_refused_before_any_write(self, opened, field, rule):
        beyond = {"tokens" if field == "completion_tokens" else "correct": 10**400}
        with pytest.raises(RecordValidationError, match=re.escape(f"{field}: {rule}, got 1000")):
            append(opened, **beyond)
        assert opened.trial_path("r1").read_bytes() == b""  # refused before any byte
        append(opened)
        before = opened.trial_path("r1").read_bytes()
        with pytest.raises(RecordValidationError) as err:
            append(opened, trial_index=1, **beyond)
        assert err.value.fieldname == field
        assert opened.trial_path("r1").read_bytes() == before

    def test_concurrent_appends_all_land(self, tmp_path: Path):
        listed = manifest(n_samples=4, sample_ids=("s00", "s01", "s02", "s03"))
        store = open_run(tmp_path, listed)

        def worker(offset: int) -> None:  # one configuration per thread, in index order
            for k in range(25):
                append(store, trial_index=k, sample_id=f"s{offset:02d}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.close()
        assert len(stored_records(store)) == 100


STAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00")


def stamp_second(stamp: str) -> int:
    """The Unix second of a whole-second RFC3339 UTC stamp."""
    assert STAMP.fullmatch(stamp), stamp
    return int(dt.datetime.fromisoformat(stamp).timestamp())


class TestRecordStamp:
    """`TraceStore.append_trial` stamps each record from a cache of the current second."""

    def test_a_stamp_lies_between_the_clock_reads_around_the_append(self, opened):
        for k in range(3):
            before = now_rfc3339()
            append(opened, trial_index=k, tokens=10.0)
            after = now_rfc3339()
            stamp = stored_records(opened)[-1]["timestamp"]
            assert before <= stamp <= after
            assert stamp_second(before) <= stamp_second(stamp) <= stamp_second(after)

    def test_the_record_after_a_second_turns_carries_the_new_second(self, tmp_path: Path,
                                                                  monkeypatch):
        second = 1_786_000_000  # 2026-08-06T07:06:40+00:00
        clock = iter([second * 10**9 + 999_999_999, (second + 1) * 10**9, (second + 1) * 10**9 + 1])
        monkeypatch.setattr(arise.store.time, "time_ns", lambda: next(clock))
        with open_run(tmp_path) as store:
            for k in range(3):
                append(store, trial_index=k, tokens=10.0)
        assert [r["timestamp"] for r in stored_records(store)] == [
            "2026-08-06T07:06:40+00:00", "2026-08-06T07:06:41+00:00", "2026-08-06T07:06:41+00:00"]

    @staticmethod
    def append_together(tmp_path: Path, records: int) -> dict[str, list[int]]:
        """8 threads record `records` trials each into one store, switching every microsecond.

        Each thread is named after the sample it records. Returns the stamped
        seconds of each thread's sample, in its append order.
        """
        runs = manifest(n_samples=8)
        store = open_run(tmp_path, runs)

        def worker(sample_id: str) -> None:
            for k in range(records):
                append(store, trial_index=k, sample_id=sample_id, tokens=10.0)

        threads = [threading.Thread(target=worker, args=(sid,), name=sid, daemon=True)
                   for sid in runs.sample_ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        store.close()
        seconds: dict[str, list[int]] = {}
        for r in stored_records(store):
            seconds.setdefault(r["sample_id"], []).append(stamp_second(r["timestamp"]))
        assert sorted(seconds) == list(runs.sample_ids)
        return seconds

    def test_threads_appending_together_store_whole_seconds_of_the_window(self, tmp_path: Path):
        start = time.time_ns() // 10**9
        seconds = self.append_together(tmp_path, 150)
        end = time.time_ns() // 10**9
        for stamped in seconds.values():
            assert len(stamped) == 150
            assert start <= stamped[0] and stamped[-1] <= end
            assert stamped == sorted(stamped)

    def test_each_stamp_is_the_second_its_own_append_read(self, tmp_path: Path, monkeypatch):
        """A shared clock that turns every second read, so threads race on each turn.

        The clock logs each thread's reads; every stamp must be the second
        that its own append read, never the text of another second.
        """
        base = time.time_ns() // 10**9
        ticks = itertools.count()
        read: dict[str, list[int]] = {sid: [] for sid in manifest(n_samples=8).sample_ids}

        def clock() -> int:
            second = base + next(ticks) // 2
            read[threading.current_thread().name].append(second)
            return second * 10**9

        monkeypatch.setattr(arise.store.time, "time_ns", clock)
        assert self.append_together(tmp_path, 1000) == read


class TestCompletedTrials:
    def test_replay_orders_by_trial_index(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.trial_path("r1").write_text(
            json.dumps(record(trial_index=1, correct=0.0, completion_tokens=200)) + "\n"
            + json.dumps(record(trial_index=0, correct=1.0, completion_tokens=100)) + "\n")
        replayed = store.completed_trials(manifest())[("s01", 0)]
        assert [t.tokens for t in replayed] == [100.0, 200.0]

    def test_non_contiguous_indices_rejected(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.trial_path("r1").write_text(
            json.dumps(record(trial_index=0)) + "\n" + json.dumps(record(trial_index=2)) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                "run 'r1': configuration ('s01', 0) has non-contiguous trial indices [0, 2]")):
            store.completed_trials(manifest())


class TestTornTail:
    """A crash can cut the final line short; only that line is forgiven, and only by a resume."""

    def seed_store(self, tmp_path: Path) -> tuple[TraceStore, bytes]:
        with open_run(tmp_path) as store:
            for k in range(3):
                append(store, trial_index=k)
        return store, store.trial_path("r1").read_bytes()

    def test_drop_torn_tail_cuts_the_file_at_the_last_newline(self, tmp_path: Path):
        store, data = self.seed_store(tmp_path)
        start = data.rindex(b"\n", 0, len(data) - 1) + 1
        store.trial_path("r1").write_bytes(data[: start + 30])
        replayed = store.completed_trials(manifest(), resume=True)
        assert len(replayed[("s01", 0)]) == 2
        assert store.trial_path("r1").read_bytes() == data[:start]

    def test_append_after_a_record_missing_its_newline_starts_a_new_line(self, tmp_path: Path):
        """A record whose newline was never written is torn: a resume cuts it and draws it again."""
        store, data = self.seed_store(tmp_path)
        store.trial_path("r1").write_bytes(data[:-1])
        start = data.rindex(b"\n", 0, len(data) - 1) + 1
        with pytest.raises(TornRecordError) as err:
            store.completed_trials(manifest())
        assert err.value.offset == start
        fresh = TraceStore(tmp_path)
        assert len(fresh.completed_trials(manifest(), resume=True)[("s01", 0)]) == 2
        assert fresh.trial_path("r1").read_bytes() == data[:start]
        append(fresh, trial_index=2)
        fresh.close()
        assert [r["trial_index"] for r in stored_records(fresh)] == [0, 1, 2]


class TestResumeRead:
    """`completed_trials(resume=True)` reads the file once for both the preload and the duplicate check."""

    def seed_store(self, tmp_path: Path) -> None:
        with open_run(tmp_path, manifest(n_samples=2)) as store:
            for level in (0, 1):
                for k in range(3):
                    append(store, level_index=level, trial_index=k)

    def test_each_stored_line_is_parsed_once(self, tmp_path: Path, monkeypatch):
        self.seed_store(tmp_path)
        stored = len((tmp_path / "r1.jsonl").read_text().splitlines())
        read = arise.store._read_line
        lines: list[bytes] = []

        def counting(line: bytes, *args: object) -> object:
            lines.append(line)
            return read(line, *args)

        monkeypatch.setattr(arise.store, "_read_line", counting)
        store = TraceStore(tmp_path)
        store.completed_trials(manifest(n_samples=2), resume=True)
        append(store, trial_index=3)
        store.close()
        assert len(lines) == stored

    def test_a_stored_key_still_conflicts(self, tmp_path: Path):
        self.seed_store(tmp_path)
        store = TraceStore(tmp_path)
        store.completed_trials(manifest(n_samples=2), resume=True)
        with pytest.raises(DuplicateTrialError):
            append(store, level_index=1, trial_index=2)
        append(store, level_index=1, trial_index=3)
        store.close()
        assert len(stored_records(store)) == 7

    def test_a_resume_seeds_each_next_index_from_its_count(self, tmp_path: Path):
        self.seed_store(tmp_path)
        store = TraceStore(tmp_path)
        store.completed_trials(manifest(n_samples=2), resume=True)
        with pytest.raises(ValueError, match="the next index is 3$"):
            append(store, level_index=1, trial_index=4)
        append(store, sample_id="s02")
        store.close()
        assert len(stored_records(store)) == 7


def unlocked(path: Path) -> bool:
    """Whether no open handle holds the lock on the record file `path`."""
    with open(path, "rb") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
    return True


class TestOneOpener:
    """`completed_trials(resume=True)` alone opens a record file for appending, and holds its lock
    until `close()`: a second opener of the run is refused, and a refusal leaves the file closed."""

    def seed_store(self, tmp_path: Path) -> bytes:
        with open_run(tmp_path) as store:
            for k in range(3):
                append(store, trial_index=k)
        return store.trial_path("r1").read_bytes()

    def test_a_second_store_is_refused_until_the_first_closes(self, tmp_path: Path):
        data = self.seed_store(tmp_path)
        path = tmp_path / "r1.jsonl"
        path.write_bytes(data[:-5])  # a torn line the refused opener must not cut
        first, second = TraceStore(tmp_path), TraceStore(tmp_path)
        assert len(first.completed_trials(manifest(), resume=True)[("s01", 0)]) == 2
        cut = path.read_bytes()
        assert cut == data[:data.rindex(b"\n", 0, len(data) - 1) + 1]
        with pytest.raises(ValueError) as err:
            second.completed_trials(manifest(), resume=True)
        assert str(err.value) == f"run 'r1' has another writer: it holds the lock on {path}"
        with pytest.raises(ValueError, match="is not open for appending"):
            append(second, trial_index=2)
        assert path.read_bytes() == cut
        first.close()
        assert len(second.completed_trials(manifest(), resume=True)[("s01", 0)]) == 2
        append(second, trial_index=2)
        second.close()
        assert [r["trial_index"] for r in stored_records(second)] == [0, 1, 2]

    def test_close_releases_the_lock_and_forgets_the_run(self, tmp_path: Path):
        store = open_run(tmp_path)
        assert not unlocked(store.trial_path("r1"))
        store.close()
        assert unlocked(store.trial_path("r1"))
        with pytest.raises(ValueError, match="is not open for appending"):
            append(store)

    @pytest.mark.parametrize("stored, error", [
        ([0, 2], "has non-contiguous trial indices [0, 2]"),
        ([0, 1, 1], "holds trial 1 twice"),
        ([0, {"model": "other"}], "but the manifest of run 'r1' says 'm'"),
    ], ids=["gap", "duplicate", "disagreeing-record"])
    def test_a_refusal_closes_the_file(self, tmp_path: Path, stored, error):
        lines = [record(trial_index=k) if isinstance(k, int) else record(trial_index=1, **k)
                 for k in stored]
        path = tmp_path / "r1.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        before = path.read_bytes()
        store = TraceStore(tmp_path)
        with pytest.raises(ValueError, match=re.escape(error)) as err:
            store.completed_trials(manifest(), resume=True)
        # `err` keeps the opener's frame, and with it any handle it left open, alive
        assert err.traceback and unlocked(path) and path.read_bytes() == before
        with pytest.raises(ValueError, match="is not open for appending"):
            append(store, trial_index=len(stored))


class TestRecompute:
    def seed_store(self, tmp_path: Path) -> TraceStore:
        store = open_run(tmp_path, manifest(trials=3))
        rows = [
            (0, 0, 1.0, 100), (0, 1, 0.0, 200), (0, 2, 1.0, 300),
            (1, 0, 1.0, 400), (1, 1, 1.0, 500), (1, 2, 1.0, 600),
        ]
        for level, k, correct, tokens in rows:
            append(store, trial_index=k, level_index=level, correct=correct, tokens=tokens)
        store.close()
        return store

    def test_trajectory_means(self, tmp_path: Path):
        store = self.seed_store(tmp_path)
        trajs = trajectories(store, "r1")
        assert trajs[0].levels[0].accuracy == 0.6666666666666666
        assert trajs[0].levels[0].tokens == 200.0
        assert trajs[0].levels[1].accuracy == 1.0
        assert trajs[0].levels[1].tokens == 500.0

    def test_bundle_contents(self, tmp_path: Path):
        bundle = self.seed_store(tmp_path).recompute("r1")
        assert bundle.n_samples == 1
        assert bundle.n_levels == 2
        assert len(bundle.configurations) == 2
        assert len(bundle.transitions) == 1
        assert bundle.aggregate_arise == arise_aggregate(trajectories(TraceStore(tmp_path), "r1"))

    def test_missing_level_names_the_configuration(self, tmp_path: Path):
        with open_run(tmp_path) as store:
            append(store)
        with pytest.raises(IncompleteRunError, match=re.escape(
                "run 'r1': configuration ('s01', 1): its records end before trial 0, ")):
            store.recompute("r1")

    def test_missing_manifest_is_refused_naming_the_records(self, tmp_path: Path):
        """Records without a manifest are no run a resume can finish: ValueError, not incomplete."""
        with open_run(tmp_path) as store:
            append(store)
        store.manifest_path("r1").unlink()
        with pytest.raises(ValueError) as err:
            store.recompute("r1")
        assert type(err.value) is ValueError
        assert str(err.value) == (f"run 'r1': no manifest found; its records "
                                  f"({store.trial_path('r1')}) cannot be replayed or resumed "
                                  f"without one")

    def test_no_records_is_incomplete(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.write_manifest(manifest())
        with pytest.raises(IncompleteRunError, match=re.escape(
                "run 'r1': configuration ('s01', 0): its records end before trial 0, ")):
            store.recompute("r1")

    def test_recompute_parses_each_line_once(self, tmp_path: Path, monkeypatch):
        """Each line goes through the one reader once, and is scanned once."""
        store = self.seed_store(tmp_path)
        scan, read = arise.store._scan, arise.store._read_line
        scanned: list[str] = []
        lines: list[bytes] = []

        def counting_scan(text: str, index: int) -> tuple[object, int]:
            scanned.append(text)
            return scan(text, index)

        def counting_read(line: bytes, *args: object) -> object:
            lines.append(line)
            return read(line, *args)

        monkeypatch.setattr(arise.store, "_scan", counting_scan)
        monkeypatch.setattr(arise.store, "_read_line", counting_read)
        store.recompute("r1")
        stored = store.trial_path("r1").read_text().splitlines()
        assert scanned == stored
        assert lines == [line.encode() for line in stored]

    def store_in_order(self, tmp_path: Path, listed: RunManifest, sample_ids: list[str]) -> TraceStore:
        with open_run(tmp_path, listed) as store:
            for sid in sample_ids:
                for level in (0, 1):
                    append(store, level_index=level, sample_id=sid, tokens=100 * (level + 1))
        return store

    def test_sample_order_follows_the_manifest(self, tmp_path: Path):
        listed = manifest(n_samples=3, sample_ids=("s02", "s03", "s01"))
        store = self.store_in_order(tmp_path, listed, ["s03", "s01", "s02"])
        bundle = store.recompute("r1")
        assert [s.sample_id for s in bundle.sample_scores] == ["s02", "s03", "s01"]
        assert [c.sample_id for c in bundle.configurations] == [
            "s02", "s02", "s03", "s03", "s01", "s01"
        ]

    def test_a_sample_the_manifest_does_not_list_is_refused(self, tmp_path: Path):
        listed = manifest(n_samples=2, sample_ids=("s01", "s02"))
        store = self.store_in_order(tmp_path, listed, ["s01"])
        with open(store.trial_path("r1"), "a") as fh:  # written raw: the writer refuses it
            fh.write(json.dumps(record(sample_id="s99")) + "\n")
        with pytest.raises(RecordValidationError, match=(
            r"^sample_id: record \(sample 's99', level 0, trial 0\) has 's99', "
            r"but the manifest of run 'r1' does not list it"
        )):
            store.recompute("r1")

    def test_a_listed_sample_without_records_is_a_gap(self, tmp_path: Path):
        listed = manifest(n_samples=2, sample_ids=("s01", "s02"))
        store = self.store_in_order(tmp_path, listed, ["s01"])
        with pytest.raises(IncompleteRunError, match=re.escape(
                "run 'r1': configuration ('s02', 0): its records end before trial 0, ")):
            store.recompute("r1")

    def test_a_configuration_short_of_its_stop_rule_is_incomplete(self, tmp_path: Path):
        with open_run(tmp_path, manifest(trials=2)) as store:
            for level, k in [(0, 0), (0, 1), (1, 0)]:
                append(store, trial_index=k, level_index=level)
        for replay in (store.recompute, functools.partial(trajectories, store)):
            with pytest.raises(IncompleteRunError) as err:
                replay("r1")
            assert str(err.value) == (
                "run 'r1': configuration ('s01', 1): its records end before trial 1, which its "
                "stop rule draws; `run --resume` draws the rest")

    def test_sample_count_mismatch_rejected(self, tmp_path: Path):
        with open_run(tmp_path, manifest(n_samples=2)) as store:
            append(store)
            append(store, level_index=1)
        with pytest.raises(IncompleteRunError, match=re.escape(
                "run 'r1': configuration ('s02', 0): its records end before trial 0, ")):
            store.recompute("r1")


class TestRecomputeMatchesLiveRun:
    def test_recomputed_trajectories_equal_live_values(self, tmp_path: Path):
        spec = reference_spec()
        labels = ["level0", "level1", "level2"]
        live = manifest(run_id="live", levels=tuple(labels), n_samples=len(spec.samples), trials=2)
        store = open_run(tmp_path, live)
        run = run_evaluation(
            SimulatorBackend(spec), list(spec.sample_ids), labels,
            ConvergenceConfig(), NaiveMode(2), on_trial=functools.partial(store.append_trial, "live"),
        )
        store.close()
        bundle = store.recompute("live")
        recomputed = {t.sample_id: t for t in trajectories(store, "live")}
        for traj in run.trajectories:
            assert recomputed[traj.sample_id] == traj  # bit-for-bit, no tolerance
        assert bundle.aggregate_arise == arise_aggregate(run.trajectories)

    def test_recompute_is_idempotent(self, tmp_path: Path):
        with open_run(tmp_path) as store:
            append(store)
            append(store, level_index=1, tokens=300)
        assert _encode(store.recompute("r1")) == _encode(store.recompute("r1"))


class TestBundleSerialization:
    def test_round_trip(self, tmp_path: Path):
        with open_run(tmp_path) as store:
            append(store)
            append(store, level_index=1, tokens=300)
        bundle = store.recompute("r1")
        write_document(tmp_path / "r1.bundle.json", bundle)
        assert decode_file(tmp_path / "r1.bundle.json", ResultBundle) == bundle

    @pytest.mark.parametrize("edit, message", [
        (lambda b: b.update(scaling_metric=True), "scaling_metric: must be a number, got True"),
        (lambda b: b["sample_scores"][0].update(improve=1.0),
         "improve: must be an integer, got 1.0"),
        (lambda b: b["configurations"][0].update(zero_variance_probe=0),
         "zero_variance_probe: must be a boolean, got 0"),
        (lambda b: b["transitions"][0].update(from_level="0"),
         "from_level: must be an integer, got '0'"),
        (lambda b: b["curve"][1].__setitem__(0, "300"), "curve: must be a number, got '300'"),
    ])
    def test_every_typed_scalar_is_checked_on_read(self, tmp_path: Path, edit, message):
        with open_run(tmp_path) as store:
            append(store)
            append(store, level_index=1, tokens=300)
        data = json.loads(json.dumps(_encode(store.recompute("r1"))))
        edit(data)
        with pytest.raises(ValueError) as err:
            _decode(ResultBundle, data)
        assert str(err.value) == message

    def test_an_integer_reads_as_a_number(self, tmp_path: Path):
        with open_run(tmp_path) as store:
            append(store)
            append(store, level_index=1, tokens=300)
        data = json.loads(json.dumps(_encode(store.recompute("r1"))))
        data["scaling_metric"], data["curve"][0][0] = 0, 100
        bundle = _decode(ResultBundle, data)
        assert (bundle.scaling_metric, bundle.curve[0][0]) == (0, 100)


class TestReadMapping:
    def test_json_exponent_number_is_a_float(self, tmp_path: Path):
        path = tmp_path / "config.json"
        path.write_text('{"tau": 1e-3}')
        data = read_mapping(path, "config")
        assert data == {"tau": 0.001}
        assert isinstance(data["tau"], float)

    @pytest.mark.parametrize("text", ["[1, 2]", "- a\n- b\n", "7", ""])
    @pytest.mark.parametrize("loader", [_load_run_config, SyntheticModelSpec.from_file])
    def test_every_loader_rejects_a_non_mapping(self, tmp_path: Path, loader, text: str):
        path = tmp_path / "config"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a mapping"):
            loader(path)


    @pytest.mark.parametrize("what, loader", [
        ("run config", _load_run_config), ("simulator spec", SyntheticModelSpec.from_file)])
    def test_a_file_neither_json_nor_yaml_is_named(self, tmp_path: Path, what, loader):
        path = tmp_path / "c.yaml"
        path.write_text("a: [1, 2\nb: {\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {path}')} is not valid JSON "
                                             f"or YAML: "):
            loader(path)


@dataclass(frozen=True)
class _Count:
    n: int


@dataclass(frozen=True)
class _Share:
    p: float


class TestConfigValues:
    """A number setting takes a number or a numeric string, never a bool; an `int` one takes a
    whole number and never truncates one."""

    @pytest.mark.parametrize("value", [4, 4.0, -3.0, "4"])
    def test_a_whole_number_is_an_int(self, value):
        given = read_config(_Count, {"n": value}, "config")
        assert given == _Count(int(value)) and type(given.n) is int

    @pytest.mark.parametrize("value", [2.5, 2.9, -0.5, True, False, math.inf, math.nan])
    def test_a_bool_or_a_number_that_is_not_whole_is_refused(self, value):
        with pytest.raises(ValueError, match=f"^config 'n': must be an integer, got "
                                             f"{re.escape(repr(value))}$"):
            read_config(_Count, {"n": value}, "config")

    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_is_not_a_float(self, value):
        with pytest.raises(ValueError, match=f"^config 'p': must be a number, got {value!r}$"):
            read_config(_Share, {"p": value}, "config")

    @pytest.mark.parametrize("value, number", [(3, 3.0), (0.5, 0.5), ("0.5", 0.5), ("1e-3", 0.001)])
    def test_a_number_or_a_numeric_string_is_a_float(self, value, number):
        """A numeric string stays accepted: PyYAML reads `1e-3` as one."""
        given = read_config(_Share, {"p": value}, "config")
        assert given == _Share(number) and type(given.p) is float

    def test_an_integer_beyond_float_range_is_refused(self):
        with pytest.raises(ValueError, match="^config 'p': int too large to convert to float$"):
            read_config(_Share, {"p": 10**400}, "config")


class TestAtomicWrites:
    def test_writes_exact_text_and_no_leftovers(self, tmp_path: Path):
        target = tmp_path / "out.json"
        write_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_creates_missing_parent_directories(self, tmp_path: Path):
        target = tmp_path / "a" / "b" / "out.json"
        write_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_overwrites_in_place(self, tmp_path: Path):
        target = tmp_path / "out.json"
        write_atomic(target, "one")
        write_atomic(target, "two")
        assert target.read_text() == "two"

    def test_streams_what_a_function_writes(self, tmp_path: Path):
        target = tmp_path / "out.json"
        write_atomic(target, lambda handle: json.dump({"a": [1, 2]}, handle, indent=2))
        assert target.read_text() == json.dumps({"a": [1, 2]}, indent=2)
        assert list(tmp_path.iterdir()) == [target]

    def test_a_new_file_gets_the_mode_of_any_new_file(self, tmp_path: Path):
        plain = tmp_path / "plain"
        plain.write_text("x")
        target = tmp_path / "out.json"
        write_atomic(target, "x")
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    @pytest.mark.parametrize("content, error, match", [
        (lambda handle: json.dump({"a": list(range(5000)), "b": object()}, handle, indent=2),
         TypeError, "not JSON serializable"),
        (lambda handle: (handle.write("partial"), handle.flush(), 1 / 0),
         ZeroDivisionError, "division by zero"),
    ], ids=["json-dump-raises-mid-write", "writer-raises-after-a-flush"])
    def test_a_failed_write_leaves_the_old_bytes_and_no_temp_file(self, tmp_path: Path, content,
                                                                  error, match):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        with pytest.raises(error, match=match):
            write_atomic(target, content)
        assert target.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_two_writers_of_one_path_never_meet(self, tmp_path: Path):
        """Each write has a temp file of its own: no error, and a reader sees one whole version."""
        target = tmp_path / "out.json"
        versions = {"a" * 65536, "b" * 65536}
        write_atomic(target, "a" * 65536)
        errors: list[BaseException] = []
        seen: set[str] = set()
        writing = threading.Event()

        def write(text: str) -> None:
            try:
                for _ in range(200):
                    write_atomic(target, text)
            except BaseException as exc:  # noqa: BLE001 (reported below)
                errors.append(exc)

        def read() -> None:
            while writing.is_set():
                seen.add(target.read_text())

        writers = [threading.Thread(target=write, args=(v,)) for v in sorted(versions)]
        reader = threading.Thread(target=read)
        writing.set()
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        writing.clear()
        reader.join(timeout=60)
        assert errors == []
        assert seen <= versions and seen
        assert target.read_text() in versions
        assert list(tmp_path.iterdir()) == [target]


class TestCsvExports:
    def bundle(self, tmp_path: Path, **fields: object) -> ResultBundle:
        listed = manifest(**fields)
        with open_run(tmp_path, listed) as store:
            append(store)
            append(store, level_index=1, tokens=300)
        return store.recompute("r1")

    ODD = 'gpt,4 "x"\r\nnext|line'

    def test_a_cell_with_a_comma_a_quote_or_a_line_end_is_quoted(self):
        rows = [("plain", self.ODD, "1.5"), ("", '"', ",")]
        text = render_table(("a", "b", "c"), rows, "csv")
        assert text.startswith("a,b,c\nplain,")  # plain cells as they are
        assert list(csv.reader(io.StringIO(text, newline=""))) == [["a", "b", "c"], *map(list, rows)]

    def test_a_pipe_in_markdown_is_escaped(self):
        lines = render_table(("model", "n"), [("a|b", 1)], "markdown").split("\n")
        assert lines == ["| model | n |", "| ----- | - |", "| a\\|b  | 1 |"]

    def test_every_csv_writer_quotes_its_cells(self, tmp_path: Path):
        from arise import write_curve_csv, write_results_csv

        bundle = self.bundle(tmp_path, model=self.ODD, levels=("low", "high,er"))
        results, curve = tmp_path / "results.csv", tmp_path / "curve.csv"
        write_results_csv(results, [bundle])
        write_curve_csv(curve, bundle)
        rows = list(csv.reader(io.StringIO(results.read_bytes().decode(), newline="")))
        assert [len(row) for row in rows] == [6, 6] and rows[1][0] == self.ODD
        rows = list(csv.reader(io.StringIO(curve.read_bytes().decode(), newline="")))
        assert [row[1] for row in rows] == ["level_label", "low", "high,er"]

    def test_results_csv_columns(self, tmp_path: Path):
        from arise import write_results_csv

        bundle = self.bundle(tmp_path)
        out = tmp_path / "results.csv"
        write_results_csv(out, [bundle])
        header, row = out.read_text().strip().split("\n")
        assert header == "model,benchmark,arise,scaling_metric,n_samples,levels"
        cells = row.split(",")
        assert cells[0] == "m"
        assert cells[1] == "bench"
        assert cells[4] == "1"

    def test_curve_csv_columns(self, tmp_path: Path):
        from arise import write_curve_csv

        bundle = self.bundle(tmp_path)
        out = tmp_path / "curve.csv"
        write_curve_csv(out, bundle)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "level_index,level_label,mean_tokens,mean_accuracy"
        assert lines[1].startswith("0,low,")
        assert lines[2].startswith("1,high,")

    def test_transitions_csv_columns(self, tmp_path: Path):
        from arise import write_transitions_csv

        bundle = self.bundle(tmp_path)
        out = tmp_path / "transitions.csv"
        write_transitions_csv(out, bundle)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "from_level,to_level,correct_to_correct,correct_to_incorrect,"
            "incorrect_to_correct,incorrect_to_incorrect"
        )
