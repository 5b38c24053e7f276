"""Trace persistence: record fidelity, conflict rules, and recomputation."""

from __future__ import annotations

import functools
import json
import math
import re
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arise import (
    AdaptiveMode,
    BackendConfig,
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
    TrialRecordLine,
    arise_aggregate,
    read_mapping,
    reference_spec,
    run_evaluation,
    write_atomic,
)
from arise.cli import _load_run_config
from arise.store import _check_record, _decode


def record(**overrides) -> TrialRecordLine:
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
    return TrialRecordLine(**base)


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


class TestRecordSerialization:
    def test_round_trip_is_exact(self):
        rec = record(correct=1 / 3, completion_tokens=12345)
        assert TrialRecordLine.from_json(rec.to_json()) == rec

    def test_seventeen_significant_digits_survive(self):
        value = 0.1234567890123456789  # more digits than a double holds
        rec = record(correct=value)
        parsed = TrialRecordLine.from_json(rec.to_json())
        assert parsed.correct == rec.correct  # bit-for-bit

    def test_json_field_order_is_stable(self):
        keys = list(json.loads(record().to_json()))
        assert keys == [
            "run_id", "model", "sample_id", "level_index", "level_label",
            "trial_index", "correct", "completion_tokens", "timestamp", "meta",
        ]

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
            record(**overrides).validate()
        assert err.value.fieldname == fieldname

    @pytest.mark.parametrize("stored", [True, False, "0.5", " 1 ", None])
    def test_stored_correct_must_be_a_number(self, stored):
        data = json.loads(record().to_json())
        data["correct"] = stored
        with pytest.raises(RecordValidationError) as err:
            TrialRecordLine.from_json(json.dumps(data))
        assert err.value.fieldname == "correct"

    def test_stored_integer_correct_reads_as_a_float(self):
        data = json.loads(record().to_json())
        data["correct"] = 1
        parsed = TrialRecordLine.from_json(json.dumps(data))
        assert parsed.correct == 1.0 and type(parsed.correct) is float

    @pytest.mark.parametrize("fieldname", ["meta", "timestamp"])
    def test_every_field_must_be_stored(self, fieldname):
        data = json.loads(record().to_json())
        del data[fieldname]
        with pytest.raises(RecordValidationError) as err:
            TrialRecordLine.from_json(json.dumps(data))
        assert err.value.fieldname == fieldname


def replay(store: TraceStore) -> object:
    """What `completed_trials` gives for run r1, or the type and message of what it raises."""
    try:
        return repr(store.completed_trials("r1"))
    except (ValueError, IncompleteRunError) as exc:
        return type(exc), str(exc)


def checked_record(data: object) -> TrialRecordLine:
    """A parsed record line through `_decode` and `validate`, an integer `correct` widened."""
    if isinstance(data, dict) and type(data.get("correct")) is int:
        data["correct"] = float(data["correct"])
    record = _decode(TrialRecordLine, data, "trial record", RecordValidationError)
    record.validate()
    return record


def replay_checked(path: Path, listed: RunManifest | None) -> object:
    """`replay` as the store gave it before its decode fast path.

    Every line goes through the checked decode and the manifest check,
    and each configuration's trials are sorted, then checked for a trial
    stored twice (named by its first two lines) and for gaps.
    """
    ids = frozenset(listed.sample_ids) if listed is not None else None
    grouped: dict[tuple[str, int], list[tuple[int, TrialOutcome]]] = {}
    lines: dict[tuple[str, int, int], list[int]] = {}
    for number, raw in enumerate(path.read_bytes().split(b"\n"), 1):
        if not raw.strip():
            continue
        try:
            r = checked_record(json.loads(raw.strip().decode()))
            if listed is not None:
                _check_record(r, listed, ids)
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
    return json.loads(record(trial_index=1, completion_tokens=150).to_json())


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


class TestDecodePaths:
    """Lines holding every field in order skip `_decode`, and replay as the checked decode does."""

    LISTED = (manifest(), manifest(n_samples=2), None)  # lists s01; lists s01 and s02; no manifest

    def write(self, tmp_path: Path, lines: list[str], listed: RunManifest | None) -> TraceStore:
        (tmp_path / "r1.jsonl").write_text("".join(line + "\n" for line in lines))
        (tmp_path / "r1.manifest.json").unlink(missing_ok=True)
        store = TraceStore(tmp_path)
        if listed is not None:
            store.write_manifest(listed)
        return store

    def replays_as_checked(self, tmp_path: Path, data: dict, listed: RunManifest | None) -> None:
        lines = [record(trial_index=0).to_json(), json.dumps(data),
                 record(level_index=1, level_label="high").to_json()]
        store = self.write(tmp_path, lines, listed)
        assert replay(store) == replay_checked(store.trial_path("r1"), listed)

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
    @given(trial_orders(), st.sampled_from(LISTED[1:]))
    def test_any_trial_order_replays_as_the_sorted_grouping_does(self, tmp_path, keys, listed):
        lines = [record(sample_id=sid, level_index=j, level_label=("low", "high")[j],
                        trial_index=t, correct=float(t % 2), completion_tokens=100 + t).to_json()
                 for sid, j, t in keys]
        store = self.write(tmp_path, lines, listed)
        assert replay(store) == replay_checked(store.trial_path("r1"), listed)


class TestRecordLineErrors:
    """An error from a record line names the record file and the line; a torn tail keeps its message."""

    def seed_store(self, tmp_path: Path) -> TraceStore:
        store = TraceStore(tmp_path)
        store.write_manifest(manifest())
        for k in range(8):
            store.append_trial(record(trial_index=k))
        store.close()
        return store

    def replace_line(self, store: TraceStore, number: int, line: bytes) -> None:
        path = store.trial_path("r1")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[number - 1] = line
        path.write_bytes(b"".join(lines))

    @pytest.mark.parametrize("line, error, message", [
        (b'{"run_id" "r1"}\n', json.JSONDecodeError, "Expecting ':' delimiter: line 1 column 11"),
        (record(trial_index=5, correct=2.0).to_json().encode() + b"\n", RecordValidationError,
         "correct: must be in [0, 1], got 2.0"),
        (b'{"run_id": "\xff"}\n', UnicodeDecodeError, "can't decode byte 0xff"),
    ])
    def test_a_bad_line_names_the_file_and_line(self, tmp_path, line, error, message):
        store = self.seed_store(tmp_path)
        self.replace_line(store, 6, line)
        where = f"({store.trial_path('r1')}, line 6)"
        for read in (lambda: store.completed_trials("r1"), lambda: list(store.iter_trials("r1"))):
            with pytest.raises(error) as err:
                read()
            assert message in str(err.value)
            assert str(err.value).endswith(where)

    def test_a_record_the_manifest_refuses_names_the_file_and_line(self, tmp_path):
        store = self.seed_store(tmp_path)
        self.replace_line(store, 6, record(trial_index=5, model="other").to_json().encode() + b"\n")
        with pytest.raises(RecordValidationError) as err:
            store.completed_trials("r1")
        assert str(err.value) == (
            f"model: record (sample 's01', level 0, trial 5) has 'other', but the manifest of "
            f"run 'r1' says 'm' ({store.trial_path('r1')}, line 6)")

    def test_a_torn_tail_names_its_offset_only(self, tmp_path):
        store = self.seed_store(tmp_path)
        data = store.trial_path("r1").read_bytes()
        store.trial_path("r1").write_bytes(data[:-20])
        with pytest.raises(TornRecordError) as err:
            store.completed_trials("r1")
        offset = data.rindex(b"\n", 0, len(data) - 1) + 1
        assert str(err.value) == (f"run 'r1': record file ends in a torn line at byte {offset}; "
                                  f"`run --resume` drops it")


class TestTokenCounts:
    @pytest.mark.parametrize("tokens", [12.5, 0.1, math.nan, math.inf, -math.inf])
    def test_a_count_that_is_not_whole_is_refused(self, tmp_path, tokens):
        store = TraceStore(tmp_path)
        with pytest.raises(ValueError) as err:
            store.record(manifest(), "s01", 1, 4, TrialOutcome(1.0, tokens))
        assert str(err.value) == (f"trial (sample 's01', level 1, trial 4) has {tokens!r} "
                                  f"completion tokens, not a whole number")
        assert not store.trial_path("r1").exists()

    @pytest.mark.parametrize("tokens", [12.0, 12])
    def test_a_whole_count_is_stored_as_drawn(self, tmp_path, tokens):
        store = TraceStore(tmp_path)
        store.record(manifest(), "s01", 1, 0, TrialOutcome(1.0, tokens))
        store.close()
        assert [r.completion_tokens for r in store.iter_trials("r1")] == [12]


class TestManifest:
    def test_round_trip(self):
        m = manifest()
        assert RunManifest.from_dict(m.to_dict()) == m

    def test_dict_shape(self):
        data = manifest(mode="fixed_budget", budget=120, trials=None).to_dict()
        assert data["cfg"] == {"m_min": 3, "m_max": 10, "tau": 0.5}
        assert data["budget"] == 120
        assert "trials" not in data
        for key in ("run_id", "mode", "levels", "n_samples", "started_at", "status"):
            assert key in data

    def test_optional_keys_omitted_when_absent(self):
        data = manifest(budget=None, trials=None, seed=None, model=None, benchmark=None).to_dict()
        assert not {"budget", "trials", "seed", "model", "benchmark"} & set(data)

    @pytest.mark.parametrize("mode, name, budget, trials", [
        (AdaptiveMode(), "adaptive", None, None),
        (NaiveMode(3), "naive", None, 3),
        (FixedBudgetMode(120), "fixed_budget", 120, None),
    ])
    def test_mode_fields_round_trip(self, mode, name, budget, trials):
        fields = {k: v for k, v in vars(manifest()).items() if k not in ("mode", "budget", "trials")}
        m = RunManifest.for_mode(mode, **fields)
        assert (m.mode, m.budget, m.trials) == (name, budget, trials)
        assert RunManifest.from_dict(m.to_dict()).run_mode == mode

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
        data = manifest().to_dict()
        data["levels"] = levels
        with pytest.raises(ValueError, match="^levels: must be a list of non-empty strings"):
            RunManifest.from_dict(data)

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
        data = manifest(n_samples=2).to_dict()
        data["sample_ids"] = sample_ids
        with pytest.raises(ValueError, match=f"^sample_ids: {message}"):
            RunManifest.from_dict(data)

    def test_sample_ids_round_trip_after_n_samples(self):
        listed = manifest(n_samples=2, sample_ids=("s02", "s01"))
        data = listed.to_dict()
        assert list(data)[list(data).index("n_samples") + 1] == "sample_ids"
        assert data["sample_ids"] == ["s02", "s01"]
        assert RunManifest.from_dict(json.loads(json.dumps(data))) == listed


class TestAppend:
    def test_append_then_read_back(self, tmp_path: Path):
        with TraceStore(tmp_path) as store:
            store.write_manifest(manifest())
            store.append_trial(record())
            store.append_trial(record(level_index=1, level_label="high", completion_tokens=333))
        stored = list(TraceStore(tmp_path).iter_trials("r1"))
        assert len(stored) == 2
        assert stored[0] == record()

    @pytest.mark.parametrize("first_write", ["manifest", "record"])
    def test_root_is_created_by_the_first_write(self, tmp_path: Path, first_write):
        root = tmp_path / "a" / "b"
        with TraceStore(root) as store:
            assert store.run_ids() == [] and not root.exists()
            if first_write == "manifest":
                store.write_manifest(manifest())
            else:
                store.append_trial(record())
        assert TraceStore(root).run_ids() == ["r1"]

    def test_duplicate_key_conflicts(self, tmp_path: Path):
        with TraceStore(tmp_path) as store:
            store.append_trial(record())
            with pytest.raises(DuplicateTrialError):
                store.append_trial(record(correct=0.0))

    def test_duplicate_detected_across_store_instances(self, tmp_path: Path):
        with TraceStore(tmp_path) as store:
            store.append_trial(record())
        with TraceStore(tmp_path) as reopened:
            with pytest.raises(DuplicateTrialError):
                reopened.append_trial(record())

    def test_the_next_index_of_each_configuration_is_accepted(self, tmp_path: Path):
        with TraceStore(tmp_path) as store:
            for k in range(3):
                store.append_trial(record(trial_index=k))
            store.append_trial(record(level_index=1, level_label="high"))
        assert [(r.level_index, r.trial_index) for r in store.iter_trials("r1")] == [
            (0, 0), (0, 1), (0, 2), (1, 0)]

    def test_a_stored_index_is_refused(self, tmp_path: Path):
        with TraceStore(tmp_path) as store:
            store.append_trial(record())
            store.append_trial(record(trial_index=1))
            before = store.trial_path("r1").read_bytes()
            with pytest.raises(DuplicateTrialError) as err:
                store.append_trial(record(correct=0.0))
        assert str(err.value) == ("trial 0 of run 'r1', sample 's01', level 0 is out of order: "
                                  "the next index is 2")
        assert store.trial_path("r1").read_bytes() == before

    @pytest.mark.parametrize("level, trial, expected", [(0, 2, 1), (1, 1, 0)],
                             ids=["after-a-stored-one", "first-of-its-configuration"])
    def test_a_skipped_index_is_refused_before_any_write(self, tmp_path: Path, level, trial,
                                                          expected):
        with TraceStore(tmp_path) as store:
            store.append_trial(record())
            before = store.trial_path("r1").read_bytes()
            with pytest.raises(ValueError) as err:
                store.append_trial(record(level_index=level, level_label=("low", "high")[level],
                                          trial_index=trial))
        assert not isinstance(err.value, DuplicateTrialError)
        assert str(err.value).endswith(f"is out of order: the next index is {expected}")
        assert store.trial_path("r1").read_bytes() == before

    def test_a_store_that_reads_the_file_starts_from_completed_trials(self, tmp_path: Path):
        path = TraceStore(tmp_path).trial_path("r1")
        for stored, error, message in (
                ([0, 2], ValueError, "non-contiguous trial indices \\[0, 2\\]$"),
                ([0, 0], DuplicateTrialError, "holds trial 0 twice")):
            path.write_text("".join(record(trial_index=k).to_json() + "\n" for k in stored))
            before = path.read_bytes()
            with TraceStore(tmp_path) as store:  # refused before the first append
                with pytest.raises(error, match=message):
                    store.append_trial(record(trial_index=len(stored)))
            assert path.read_bytes() == before
        path.write_text(record().to_json() + "\n" + record(trial_index=1).to_json() + "\n")
        with TraceStore(tmp_path) as store:
            with pytest.raises(DuplicateTrialError, match="the next index is 2$"):
                store.append_trial(record(trial_index=1))
            with pytest.raises(ValueError, match="the next index is 2$"):
                store.append_trial(record(trial_index=3))
            store.append_trial(record(trial_index=2))
        assert [r.trial_index for r in store.iter_trials("r1")] == [0, 1, 2]

    def test_appends_never_rewrite_existing_lines(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.append_trial(record())
        first = store.trial_path("r1").read_text()
        store.append_trial(record(trial_index=1))
        second = store.trial_path("r1").read_text()
        store.close()
        assert second.startswith(first)

    def test_invalid_record_rejected_before_write(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        with pytest.raises(RecordValidationError):
            store.append_trial(record(completion_tokens=0))
        assert not store.trial_path("r1").exists()

    def test_concurrent_appends_all_land(self, tmp_path: Path):
        store = TraceStore(tmp_path)

        def worker(offset: int) -> None:  # one configuration per thread, in index order
            for k in range(25):
                store.append_trial(record(sample_id=f"s{offset:02d}", trial_index=k))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.close()
        assert len(list(store.iter_trials("r1"))) == 100


class TestCompletedTrials:
    def test_replay_orders_by_trial_index(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.trial_path("r1").write_text(
            record(trial_index=1, correct=0.0, completion_tokens=200).to_json() + "\n"
            + record(trial_index=0, correct=1.0, completion_tokens=100).to_json() + "\n")
        replayed = store.completed_trials("r1")[("s01", 0)]
        assert [t.tokens for t in replayed] == [100.0, 200.0]

    def test_non_contiguous_indices_rejected(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.trial_path("r1").write_text(
            record(trial_index=0).to_json() + "\n" + record(trial_index=2).to_json() + "\n")
        with pytest.raises(ValueError, match=re.escape(
                "run 'r1': configuration ('s01', 0) has non-contiguous trial indices [0, 2]")):
            store.completed_trials("r1")


class TestTornTail:
    """A crash can cut the final line short; only that line is forgiven, and only by a resume."""

    def seed_store(self, tmp_path: Path) -> tuple[TraceStore, bytes]:
        store = TraceStore(tmp_path)
        for k in range(3):
            store.append_trial(record(trial_index=k))
        store.close()
        return store, store.trial_path("r1").read_bytes()

    def test_drop_torn_tail_cuts_the_file_at_the_last_newline(self, tmp_path: Path):
        store, data = self.seed_store(tmp_path)
        start = data.rindex(b"\n", 0, len(data) - 1) + 1
        store.trial_path("r1").write_bytes(data[: start + 30])
        replayed = store.completed_trials("r1", resume=True)
        assert len(replayed[("s01", 0)]) == 2
        assert store.trial_path("r1").read_bytes() == data[:start]

    def test_append_after_a_record_missing_its_newline_starts_a_new_line(self, tmp_path: Path):
        store, data = self.seed_store(tmp_path)
        store.trial_path("r1").write_bytes(data[:-1])
        fresh = TraceStore(tmp_path)
        assert len(fresh.completed_trials("r1")[("s01", 0)]) == 3
        fresh.append_trial(record(trial_index=3))
        fresh.close()
        assert [r.trial_index for r in fresh.iter_trials("r1")] == [0, 1, 2, 3]


class TestResumeRead:
    """`completed_trials(resume=True)` reads the file once for both the preload and the duplicate check."""

    def seed_store(self, tmp_path: Path) -> None:
        store = TraceStore(tmp_path)
        for level in (0, 1):
            for k in range(3):
                store.append_trial(record(level_index=level, trial_index=k))
        store.close()

    def test_each_stored_line_is_parsed_once(self, tmp_path: Path, monkeypatch):
        self.seed_store(tmp_path)
        stored = len((tmp_path / "r1.jsonl").read_text().splitlines())
        parse = TrialRecordLine.from_json
        lines: list[str] = []

        def counting(cls, line: str) -> TrialRecordLine:
            lines.append(line)
            return parse(line)

        monkeypatch.setattr(TrialRecordLine, "from_json", classmethod(counting))
        store = TraceStore(tmp_path)
        store.completed_trials("r1", resume=True)
        store.append_trial(record(trial_index=3))
        store.close()
        assert len(lines) == stored

    def test_a_stored_key_still_conflicts(self, tmp_path: Path):
        self.seed_store(tmp_path)
        store = TraceStore(tmp_path)
        store.completed_trials("r1", resume=True)
        with pytest.raises(DuplicateTrialError):
            store.append_trial(record(level_index=1, trial_index=2))
        store.append_trial(record(level_index=1, trial_index=3))
        store.close()
        assert len(list(store.iter_trials("r1"))) == 7

    def test_a_resume_seeds_each_next_index_from_its_count(self, tmp_path: Path):
        self.seed_store(tmp_path)
        store = TraceStore(tmp_path)
        store.completed_trials("r1", resume=True)
        with pytest.raises(ValueError, match="the next index is 3$"):
            store.append_trial(record(level_index=1, trial_index=4))
        store.append_trial(record(sample_id="s02"))
        store.close()
        assert len(list(store.iter_trials("r1"))) == 7


class TestRecompute:
    def seed_store(self, tmp_path: Path) -> TraceStore:
        store = TraceStore(tmp_path)
        store.write_manifest(manifest(trials=3))
        rows = [
            (0, 0, 1.0, 100), (0, 1, 0.0, 200), (0, 2, 1.0, 300),
            (1, 0, 1.0, 400), (1, 1, 1.0, 500), (1, 2, 1.0, 600),
        ]
        for level, k, correct, tokens in rows:
            store.append_trial(
                record(
                    level_index=level,
                    level_label=("low", "high")[level],
                    trial_index=k,
                    correct=correct,
                    completion_tokens=tokens,
                )
            )
        store.close()
        return store

    def test_trajectory_means(self, tmp_path: Path):
        store = self.seed_store(tmp_path)
        trajs = store.load_trajectories("r1")
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
        assert bundle.aggregate_arise == arise_aggregate(
            TraceStore(tmp_path).load_trajectories("r1")
        )

    def test_missing_level_names_the_configuration(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.write_manifest(manifest())
        store.append_trial(record())
        store.close()
        with pytest.raises(IncompleteRunError, match=re.escape(
                "run 'r1': configuration ('s01', 1): its records end before trial 0, ")):
            store.recompute("r1")

    def test_missing_manifest_is_incomplete(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.append_trial(record())
        store.close()
        with pytest.raises(IncompleteRunError):
            store.recompute("r1")

    def test_no_records_is_incomplete(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.write_manifest(manifest())
        with pytest.raises(IncompleteRunError, match=re.escape(
                "run 'r1': configuration ('s01', 0): its records end before trial 0, ")):
            store.recompute("r1")

    def test_recompute_parses_each_line_once(self, tmp_path: Path, monkeypatch):
        store = self.seed_store(tmp_path)
        parse = TrialRecordLine.from_json
        lines: list[str] = []

        def counting(cls, line: str) -> TrialRecordLine:
            lines.append(line)
            return parse(line)

        monkeypatch.setattr(TrialRecordLine, "from_json", classmethod(counting))
        store.recompute("r1")
        assert len(lines) == 6

    def store_in_order(self, tmp_path: Path, listed: RunManifest, sample_ids: list[str]) -> TraceStore:
        store = TraceStore(tmp_path)
        store.write_manifest(listed)
        for sid in sample_ids:
            for level, label in enumerate(("low", "high")):
                store.append_trial(record(sample_id=sid, level_index=level, level_label=label,
                                          completion_tokens=100 * (level + 1)))
        store.close()
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
        store = self.store_in_order(tmp_path, listed, ["s01", "s99"])
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
        store = TraceStore(tmp_path)
        store.write_manifest(manifest(trials=2))
        for level, k in [(0, 0), (0, 1), (1, 0)]:
            store.append_trial(record(level_index=level, level_label=("low", "high")[level],
                                      trial_index=k))
        store.close()
        for replay in (store.recompute, store.load_trajectories):
            with pytest.raises(IncompleteRunError) as err:
                replay("r1")
            assert str(err.value) == (
                "run 'r1': configuration ('s01', 1): its records end before trial 1, which its "
                "stop rule draws; `run --resume` draws the rest")

    def test_sample_count_mismatch_rejected(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.write_manifest(manifest(n_samples=2))
        store.append_trial(record())
        store.append_trial(record(level_index=1, level_label="high"))
        store.close()
        with pytest.raises(IncompleteRunError, match=re.escape(
                "run 'r1': configuration ('s02', 0): its records end before trial 0, ")):
            store.recompute("r1")


class TestRecomputeMatchesLiveRun:
    def test_recomputed_trajectories_equal_live_values(self, tmp_path: Path):
        spec = reference_spec()
        labels = ["level0", "level1", "level2"]
        store = TraceStore(tmp_path)
        live = manifest(run_id="live", levels=tuple(labels), n_samples=spec.n_samples, trials=2)
        store.write_manifest(live)
        run = run_evaluation(
            SimulatorBackend(spec), list(spec.sample_ids), labels,
            ConvergenceConfig(), NaiveMode(2), on_trial=functools.partial(store.record, live),
        )
        store.close()
        bundle = store.recompute("live")
        recomputed = {t.sample_id: t for t in store.load_trajectories("live")}
        for traj in run.trajectories:
            assert recomputed[traj.sample_id] == traj  # bit-for-bit, no tolerance
        assert bundle.aggregate_arise == arise_aggregate(run.trajectories)

    def test_recompute_is_idempotent(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.write_manifest(manifest())
        store.append_trial(record())
        store.append_trial(record(level_index=1, level_label="high", completion_tokens=300))
        store.close()
        assert store.recompute("r1").to_json() == store.recompute("r1").to_json()


class TestBundleSerialization:
    def test_round_trip(self, tmp_path: Path):
        store = TraceStore(tmp_path)
        store.write_manifest(manifest())
        store.append_trial(record())
        store.append_trial(record(level_index=1, level_label="high", completion_tokens=300))
        store.close()
        bundle = store.recompute("r1")
        parsed = ResultBundle.from_json(bundle.to_json())
        assert parsed == bundle


class TestReadMapping:
    def test_json_exponent_number_is_a_float(self, tmp_path: Path):
        path = tmp_path / "config.json"
        path.write_text('{"tau": 1e-3}')
        data = read_mapping(path, "config")
        assert data == {"tau": 0.001}
        assert isinstance(data["tau"], float)

    @pytest.mark.parametrize("text", ["[1, 2]", "- a\n- b\n", "7", ""])
    @pytest.mark.parametrize(
        "loader", [_load_run_config, SyntheticModelSpec.from_file, BackendConfig.from_file]
    )
    def test_every_loader_rejects_a_non_mapping(self, tmp_path: Path, loader, text: str):
        path = tmp_path / "config"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a mapping"):
            loader(path)


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


class TestCsvExports:
    def bundle(self, tmp_path: Path) -> ResultBundle:
        store = TraceStore(tmp_path)
        store.write_manifest(manifest())
        store.append_trial(record())
        store.append_trial(record(level_index=1, level_label="high", completion_tokens=300))
        store.close()
        return store.recompute("r1")

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
