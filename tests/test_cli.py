"""Command-line behavior: exit codes, formats, files, and resumption."""

from __future__ import annotations

import csv
import fcntl
import json
import re
from collections import Counter
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import arise.store
from arise import ConfigurationError, IncompleteRunError, RunManifest, cli, reference_spec
from arise.cli import main

from conftest import backend_config_dict, keyed_reply


@pytest.fixture()
def runner() -> CliRunner:
    return CliRunner()


def all_text(result) -> str:
    """stdout plus stderr, across click versions that split or mix them."""
    try:
        return result.output + result.stderr
    except (ValueError, AttributeError):
        return result.output


@pytest.fixture()
def spec_file(tmp_path: Path) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(reference_spec().to_dict()))
    return path


@pytest.fixture()
def workers_seen(monkeypatch) -> list[int]:
    """The `max_workers` of every `run_evaluation` call that `arise run` makes."""
    seen: list[int] = []
    real = cli.run_evaluation

    def spy(*args, **kwargs):
        seen.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_evaluation", spy)
    return seen


DEEP = "[" * 100_000 + "]" * 100_000  # JSON nested past any recursion limit


def do_run(runner: CliRunner, spec_file: Path, out: Path, *extra: str, seed: str = "42"):
    args = ["--seed", seed, "run", str(spec_file), "--out", str(out), *extra]
    return runner.invoke(main, args)


class TestRun:
    def test_naive_run_writes_store_and_bundle(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        result = do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        assert result.exit_code == 0, result.output
        assert (out / "r1.jsonl").exists()
        assert (out / "r1.manifest.json").exists()
        assert (out / "r1.bundle.json").exists()
        assert "arise" in result.output

    def test_adaptive_is_the_default_mode(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        result = do_run(runner, spec_file, out, "--run-id", "r1")
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "r1.manifest.json").read_text())
        assert manifest["mode"] == "adaptive"
        assert manifest["status"] == "complete"

    def test_conflicting_mode_flags_rejected(self, runner, spec_file, tmp_path):
        result = do_run(
            runner, spec_file, tmp_path / "runs", "--naive", "1", "--budget", "200"
        )
        assert result.exit_code == 1
        assert "one evaluation mode" in all_text(result)

    def test_infeasible_budget_fails_with_the_minimum(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        result = do_run(runner, spec_file, out, "--budget", "5", "--run-id", "r1")
        assert result.exit_code == 1
        assert "minimum feasible 72" in all_text(result)  # 8 samples * 3 levels * 3
        assert not (out / "r1.manifest.json").exists()  # nothing was written

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_naive_without_a_trial_writes_nothing(self, runner, spec_file, tmp_path, count):
        out = tmp_path / "runs"
        result = do_run(runner, spec_file, out, "--naive", count, "--run-id", "r1")
        assert result.exit_code == 1
        assert "at least 1 trial" in all_text(result)
        assert not (out / "r1.manifest.json").exists()  # nothing was written
        assert not (out / "r1.jsonl").exists()

    @pytest.mark.parametrize("mode", [("--naive", "0"), ("--budget", "5")])
    def test_failed_validation_leaves_no_out_directory(self, runner, spec_file, tmp_path, mode):
        out = tmp_path / "nz" / "runs"
        result = do_run(runner, spec_file, out, *mode)
        assert result.exit_code == 1
        assert not (tmp_path / "nz").exists()

    def test_seed_override_reproduces_bundles(self, runner, spec_file, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert do_run(runner, spec_file, first, "--naive", "2", "--run-id", "x").exit_code == 0
        assert do_run(runner, spec_file, second, "--naive", "2", "--run-id", "x").exit_code == 0
        a = json.loads((first / "x.bundle.json").read_text())
        b = json.loads((second / "x.bundle.json").read_text())
        assert a["sample_scores"] == b["sample_scores"]
        assert a["scaling_metric"] == b["scaling_metric"]

    def test_a_simulator_run_draws_one_configuration_at_a_time(self, runner, spec_file, tmp_path,
                                                               workers_seen):
        assert do_run(runner, spec_file, tmp_path / "runs", "--naive", "1").exit_code == 0
        assert workers_seen == [1]

    def test_probe_without_dry_run_writes_nothing(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        result = do_run(runner, spec_file, out, "--naive", "1", "--probe")
        assert result.exit_code == 1
        assert "--probe needs --dry-run" in all_text(result)
        assert not out.exists()

    def test_dry_run_rejected_for_simulator_specs(self, runner, spec_file, tmp_path):
        result = do_run(runner, spec_file, tmp_path / "runs", "--dry-run")
        assert result.exit_code == 1
        assert "HTTP backend" in all_text(result)

    @pytest.mark.parametrize("kept", [("r1.manifest.json", "r1.jsonl"), ("r1.manifest.json",),
                                      ("r1.jsonl",)], ids=["both", "manifest", "records"])
    def test_a_reused_run_id_needs_resume(self, runner, spec_file, tmp_path, kept):
        """A reused run id is refused before any write; `--resume` is offered only for a run that
        has its manifest, since records without one are no run that any command continues."""
        out = tmp_path / "runs"
        assert do_run(runner, spec_file, out, "--naive", "3", "--run-id", "r1").exit_code == 0
        for path in out.iterdir():
            if path.name not in kept:
                path.unlink()
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        result = do_run(runner, spec_file, out, "--run-id", "r1")
        assert result.exit_code == 1
        if "r1.manifest.json" in kept:
            assert "continue it with --resume" in all_text(result)
        else:
            assert (f"error: run 'r1': no manifest found; its records ({out / 'r1.jsonl'}) "
                    f"cannot be replayed or resumed without one\n") in all_text(result)
            assert "--resume" not in all_text(result)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("command", [
        ["run", "{spec}", "--out", "new/runs", "--run-id", "r1"],
        ["simulate", "{spec}", "--runs", "1", "--out", "new/rows.csv"],
    ], ids=["run", "simulate"])
    def test_a_one_level_spec_is_refused_before_any_write(self, runner, tmp_path, monkeypatch,
                                                           command):
        spec = reference_spec().to_dict()
        for sample in spec["samples"]:
            del sample["levels"][1:]
        path = tmp_path / "one_level.json"
        path.write_text(json.dumps(spec))
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, [arg.format(spec=path) for arg in command])
        assert result.exit_code == 1
        assert "at least 2 levels, got 1" in all_text(result)
        assert not (tmp_path / "new").exists()


def http_config() -> dict:
    """A well-formed HTTP run config of one task; parsing it contacts nothing."""
    return {"backend": backend_config_dict("http://127.0.0.1:9"),
            "tasks": [{"sample_id": "q0", "prompt": "Question?",
                       "judge": {"type": "exact_match", "expected": "42"}}]}


class TestMalformedConfigs:
    """A config that misses a key or holds a malformed entry is refused by name, before any write."""

    @pytest.mark.parametrize("config, edit, expected", [
        (http_config, lambda c: c["backend"].pop("base_url"), "backend config has no 'base_url'"),
        (http_config, lambda c: c["backend"]["levels"][1].pop("kind"),
         "backend config levels[1] has no 'kind'"),
        (http_config, lambda c: c["backend"].update(retry=3),
         "backend config retry must be a mapping, got int"),
        (http_config, lambda c: c["tasks"][0].pop("prompt"), "tasks[0] has no 'prompt'"),
        (http_config, lambda c: c["tasks"].append("q1"), "tasks[1] must be a mapping, got str"),
        (http_config, lambda c: c["tasks"][0]["judge"].pop("expected"),
         "tasks[0].judge has no 'expected'"),
        (lambda: reference_spec().to_dict(), lambda c: c["samples"][0].update(levels=[0.5, 0.9]),
         "simulator spec samples[0].levels[0] must be a mapping, got float"),
        (lambda: reference_spec().to_dict(), lambda c: c.update(samples={"s01": c["samples"][0]}),
         "simulator spec samples must be a list, got dict"),
        (lambda: reference_spec().to_dict(), lambda c: c["samples"].append("s09"),
         "simulator spec samples[8] must be a mapping, got str"),
        (http_config, lambda c: c["backend"].update(max_in_flight=None),
         "backend config 'max_in_flight': "),
        (http_config, lambda c: c["backend"].update(retry={"max_attempts": None}),
         "backend config retry 'max_attempts': "),
        (http_config, lambda c: c["tasks"][0].update(judge={"type": "external", "command": 5}),
         "tasks[0].judge 'command' must be a non-empty argv list, got 5"),
        (http_config, lambda c: c["tasks"][0]["judge"].update(type="numeric_match", expected=None),
         "tasks[0].judge 'expected': "),
        (http_config, lambda c: c["tasks"][0]["judge"].update(expected=None),
         "tasks[0].judge 'expected' must be a non-empty string, got None"),
        (http_config, lambda c: c["tasks"][0]["judge"].update(expected=[1, 2]),
         "tasks[0].judge 'expected' must be a non-empty string, got [1, 2]"),
        (http_config, lambda c: c["tasks"][0]["judge"].update(expected=42),
         "tasks[0].judge 'expected' must be a non-empty string, got 42"),
        (http_config, lambda c: c["tasks"][0]["judge"].update(expected=""),
         "tasks[0].judge 'expected' must be a non-empty string, got ''"),
        (http_config, lambda c: c["tasks"][0].update(sample_id=None),
         "tasks[0] 'sample_id' must be a non-empty string, got None"),
        (http_config, lambda c: c["tasks"][0].update(sample_id=7),
         "tasks[0] 'sample_id' must be a non-empty string, got 7"),
        (http_config, lambda c: c["tasks"][0].update(prompt=None),
         "tasks[0] 'prompt' must be a non-empty string, got None"),
        (http_config, lambda c: c["tasks"][0].update(prompt=""),
         "tasks[0] 'prompt' must be a non-empty string, got ''"),
        (lambda: reference_spec().to_dict(),
         lambda c: c["samples"][0]["levels"][1].update(p_correct=None),
         "simulator spec samples[0].levels[1] 'p_correct': float() argument must be"),
        (lambda: reference_spec().to_dict(),
         lambda c: c["samples"][2]["levels"][0].update(token_log_std="wide"),
         "simulator spec samples[2].levels[0] 'token_log_std': could not convert string"),
        (lambda: reference_spec().to_dict(), lambda c: c.update(seed=None),
         "simulator spec 'seed': int() argument must be"),
        (lambda: reference_spec().to_dict(), lambda c: c["samples"][3].update(id=None),
         "simulator spec samples[3] 'id' must be a non-empty string, got None"),
        (http_config, lambda c: c["backend"]["levels"][0].update(label=None),
         "backend config levels[0] 'label' must be a non-empty string, got None"),
        (http_config, lambda c: c["backend"].update(model=7),
         "backend config 'model' must be a non-empty string, got 7"),
        (http_config, lambda c: c["backend"].update(retry={"max_attempts": 0}),
         "retry max_attempts must be >= 1, got 0"),
        (http_config, lambda c: c["backend"].update(retry={"backoff_base": -1}),
         "retry backoff_base must be finite and >= 0, got -1.0"),
        (http_config,
         lambda c: c["tasks"][0].update(judge={"type": "external",
                                               "command": ["python", None, 3]}),
         "tasks[0].judge 'command'[1] must be a non-empty string, got None"),
        (http_config, lambda c: c["backend"].update(max_in_flight=2.5),
         "backend config 'max_in_flight': must be an integer, got 2.5"),
        (http_config, lambda c: c["backend"].update(retry={"max_attempts": 2.9}),
         "backend config retry 'max_attempts': must be an integer, got 2.9"),
        (http_config, lambda c: c["backend"].update(max_in_flight=True),
         "backend config 'max_in_flight': must be an integer, got True"),
        (lambda: reference_spec().to_dict(), lambda c: c.update(seed=4.5),
         "simulator spec 'seed': must be an integer, got 4.5"),
        (lambda: reference_spec().to_dict(), lambda c: c.update(sed=7),
         "simulator spec has unknown key 'sed'"),
        (lambda: reference_spec().to_dict(), lambda c: c["samples"][0].update(name="first"),
         "simulator spec samples[0] has unknown key 'name'"),
        (lambda: reference_spec().to_dict(),
         lambda c: c["samples"][1]["levels"][2].update(p_corect=0.5),
         "simulator spec samples[1].levels[2] has unknown key 'p_corect'"),
        (http_config, lambda c: c["backend"].update(max_inflight=4),
         "backend config has unknown key 'max_inflight'"),
        (http_config, lambda c: c["backend"].update(retry={"max_attempt": 9}),
         "backend config retry has unknown key 'max_attempt'"),
        (http_config, lambda c: c["backend"]["levels"][1].update(overrides={}),
         "backend config levels[1] has unknown key 'overrides'"),
        (http_config, lambda c: c["tasks"][0].update(answer="42"),
         "tasks[0] has unknown key 'answer'"),
        (http_config, lambda c: c["tasks"][0]["judge"].update(tol=0.5),
         "tasks[0].judge has unknown key 'tol'"),
        (http_config,
         lambda c: c["tasks"][0].update(judge={"type": "numeric_match", "expected": 42, "tolerance": 1}),
         "tasks[0].judge has unknown key 'tolerance'"),
        (http_config,
         lambda c: c["tasks"][0].update(judge={"type": "external", "command": ["./j.sh"], "expected": "42"}),
         "tasks[0].judge has unknown key 'expected'"),
        (http_config, lambda c: c.update(task=c.pop("tasks")), "run config has unknown key 'task'"),
        (lambda: backend_config_dict("http://127.0.0.1:9"), lambda c: None,
         "run config has unknown key 'base_url'"),
        (http_config, lambda c: c["backend"].update(request_template="hello"),
         "backend config 'request_template' must be a mapping, got 'hello'"),
        (http_config, lambda c: c["backend"].update(request_template=[1, 2]),
         "backend config 'request_template' must be a mapping, got [1, 2]"),
        (http_config, lambda c: c["backend"]["levels"][0].update(request_overrides=5),
         "backend config levels[0] 'request_overrides' must be a mapping, got 5"),
        (http_config, lambda c: c["backend"].update(min_request_interval=float("inf")),
         "min_request_interval must be finite and >= 0, got inf"),
        (http_config, lambda c: c["backend"].update(min_request_interval=float("nan")),
         "min_request_interval must be finite and >= 0, got nan"),
        (http_config,
         lambda c: c["tasks"][0].update(judge={"type": "numeric_match", "expected": 42, "tol": -1}),
         "numeric_match tol must be >= 0, got -1.0"),
        (http_config,
         lambda c: c["tasks"][0].update(judge={"type": "numeric_match", "expected": 42,
                                               "tol": float("nan")}),
         "numeric_match tol must be >= 0, got nan"),
        (lambda: reference_spec().to_dict(),
         lambda c: c["samples"][0]["levels"][1].update(token_log_std=float("nan")),
         "sample 's01' level 1: token_log_std nan must be finite and >= 0"),
        (lambda: reference_spec().to_dict(),
         lambda c: c["samples"][0]["levels"][1].update(token_log_mean=float("inf")),
         "sample 's01' level 1: token_log_mean inf must be finite and <= 709.78"),
        (lambda: reference_spec().to_dict(),
         lambda c: c["samples"][0]["levels"][1].update(token_log_mean=1000),
         "sample 's01' level 1: token_log_mean 1000.0 must be finite and <= 709.78"),
        (http_config,
         lambda c: c["backend"]["levels"][1]["request_overrides"].update(x="{{level.effort}}"),
         "backend config has unknown placeholders ['level.effort']; "
         "known: prompt, model, level.label, level.kind\n"),
    ], ids=["no-base-url", "level-without-kind", "retry-not-a-mapping", "task-without-prompt",
            "task-a-string", "judge-without-expected", "levels-numbers", "samples-an-object",
            "sample-a-string", "max-in-flight-null", "max-attempts-null", "judge-command-a-number",
            "numeric-expected-null", "exact-expected-null", "exact-expected-a-list",
            "exact-expected-a-number", "exact-expected-empty", "sample-id-null",
            "sample-id-a-number", "prompt-null", "prompt-empty", "p-correct-null",
            "token-log-std-a-word", "seed-null", "spec-sample-id-null", "level-label-null",
            "model-a-number", "max-attempts-zero", "backoff-base-negative",
            "judge-command-entries-not-text", "max-in-flight-not-whole",
            "max-attempts-not-whole", "max-in-flight-a-bool", "seed-not-whole",
            "unknown-spec-key", "unknown-sample-key", "unknown-spec-level-key",
            "unknown-backend-key", "unknown-retry-key", "unknown-backend-level-key",
            "unknown-task-key", "unknown-exact-match-key", "unknown-numeric-match-key",
            "unknown-external-key", "unknown-run-config-key", "flat-backend-config",
            "request-template-a-string", "request-template-a-list", "request-overrides-a-number",
            "min-request-interval-inf", "min-request-interval-nan", "tol-negative", "tol-nan",
            "token-log-std-nan", "token-log-mean-inf", "token-log-mean-overflows",
            "unknown-placeholder"])
    def test_a_malformed_config_exits_one_with_an_error(self, runner, tmp_path, config, edit,
                                                       expected):
        data = config()
        edit(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", str(path), "--naive", "1", "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an escaped KeyError or TypeError
        assert result.stderr.startswith(f"error: {expected}")
        assert "Traceback" not in all_text(result)
        assert not out.exists()

    @pytest.mark.parametrize("command, what", [("run", "run config"),
                                               ("simulate", "simulator spec")])
    def test_a_config_neither_json_nor_yaml_exits_one_naming_it(self, runner, tmp_path, command,
                                                                what):
        path = tmp_path / "c.yaml"
        path.write_text("a: [1, 2\nb: {\n")
        out = tmp_path / "runs"
        args = [command, str(path), "--out", str(out), *(["--naive", "1"] if command == "run" else [])]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {what} {path} is not valid JSON or YAML: ")
        assert "Traceback" not in all_text(result)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_a_config_nested_too_deeply_exits_one_naming_it(self, runner, tmp_path, command):
        path = tmp_path / "config.json"
        path.write_text(f'{{"samples": {DEEP}}}')
        result = runner.invoke(main, [command, str(path), "--out", str(tmp_path / "runs")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert " nests too deeply to read" in result.stderr
        assert str(path) in result.stderr


class TestHttpRun:
    def test_run_against_mock_endpoint(self, runner, tmp_path, mock_server, api_key):
        mock_server.reply = lambda body: {
            "choices": [{"message": {"content": "42"}}],
            "usage": {"completion_tokens": 64 if body["reasoning_effort"] == "low" else 256},
        }
        config = {
            "backend": backend_config_dict(mock_server.url),
            "tasks": [
                {
                    "sample_id": "q1",
                    "prompt": "What is the answer?",
                    "judge": {"type": "exact_match", "expected": "42"},
                },
                {
                    "sample_id": "q2",
                    "prompt": "Still 42?",
                    "judge": {"type": "exact_match", "expected": "41"},
                },
            ],
        }
        path = tmp_path / "backend.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "runs"
        result = runner.invoke(
            main, ["run", str(path), "--naive", "1", "--out", str(out), "--run-id", "h1"],
        )
        assert result.exit_code == 0, result.output
        bundle = json.loads((out / "h1.bundle.json").read_text())
        assert bundle["manifest"]["model"] == "mock-model"
        assert bundle["curve"] == [[64.0, 0.5], [256.0, 0.5]]

    def test_a_trial_the_backend_cannot_finish_aborts_the_run(self, runner, tmp_path, mock_server,
                                                                api_key):
        mock_server.status_queue = [503] * 50
        config = {
            "backend": backend_config_dict(mock_server.url,
                                           retry={"max_attempts": 3, "backoff_base": 0.0}),
            "tasks": [{"sample_id": "q1", "prompt": "?",
                       "judge": {"type": "exact_match", "expected": "42"}}],
        }
        path = tmp_path / "backend.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        result = runner.invoke(
            main, ["run", str(path), "--naive", "1", "--out", str(out), "--run-id", "h1"],
        )
        assert result.exit_code == 2
        assert len(mock_server.bodies) == 3  # the backend's max_attempts, and no more
        manifest = json.loads((out / "h1.manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert (out / "h1.jsonl").read_bytes() == b""  # opened by the run, and no trial stored

    @pytest.mark.parametrize("max_in_flight", [3, 1])
    def test_configurations_in_flight_follow_max_in_flight(self, runner, tmp_path, mock_server,
                                                           api_key, workers_seen, max_in_flight):
        mock_server.reply = keyed_reply(mock_server)
        config = {
            "backend": backend_config_dict(mock_server.url, max_in_flight=max_in_flight),
            "tasks": [{"sample_id": "q1", "prompt": "?",
                       "judge": {"type": "exact_match", "expected": "42"}}],
        }
        path = tmp_path / "backend.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["run", str(path), "--naive", "1", "--out", str(tmp_path / "runs")])
        assert result.exit_code == 0, result.output
        assert workers_seen == [max_in_flight]

    def test_dry_run_renders_without_contacting_the_server(self, runner, tmp_path, mock_server):
        config = {"backend": backend_config_dict(mock_server.url), "tasks": []}
        path = tmp_path / "backend.yaml"
        path.write_text(yaml.safe_dump(config))
        result = runner.invoke(main, ["run", str(path), "--dry-run"])
        assert result.exit_code == 0, result.output
        assert '"reasoning_effort": "low"' in result.output
        assert mock_server.bodies == []

    def test_dry_run_refuses_an_unknown_placeholder(self, runner, tmp_path, mock_server):
        backend = backend_config_dict(mock_server.url)
        backend["levels"][1]["request_overrides"]["reasoning_effort"] = "{{level.effort}}"
        path = tmp_path / "backend.json"
        path.write_text(json.dumps({"backend": backend}))
        result = runner.invoke(main, ["run", str(path), "--dry-run"])
        assert result.exit_code == 1, result.output
        assert result.stderr == ("error: backend config has unknown placeholders "
                                 "['level.effort']; known: prompt, model, level.label, "
                                 "level.kind\n")
        assert result.stdout == ""
        assert mock_server.bodies == []

    def test_a_probe_with_no_text_at_the_text_path_exits_one(self, runner, tmp_path, mock_server,
                                                             api_key):
        backend = backend_config_dict(mock_server.url, response_text_path="/choices/0/text")
        path = tmp_path / "backend.json"
        path.write_text(json.dumps({"backend": backend}))
        result = runner.invoke(main, ["run", str(path), "--dry-run", "--probe"])
        assert result.exit_code == 1, result.output
        assert result.stderr == "probe failed: response has no text at '/choices/0/text'\n"
        assert len(mock_server.bodies) == 1

    def test_a_probe_of_a_reply_a_trial_accepts_exits_zero(self, runner, tmp_path, mock_server,
                                                           api_key):
        path = tmp_path / "backend.json"
        path.write_text(json.dumps({"backend": backend_config_dict(mock_server.url)}))
        dry = runner.invoke(main, ["run", str(path), "--dry-run"])
        assert dry.exit_code == 0, dry.output
        result = runner.invoke(main, ["run", str(path), "--dry-run", "--probe"])
        assert result.exit_code == 0, result.output
        assert result.stdout == dry.stdout
        assert result.stderr == "probe resolved /usage/completion_tokens -> 128\n"
        assert [body["messages"][0]["content"] for body in mock_server.bodies] == [
            "(sample prompt)"]

    TEXT = {"message": {"content": "42"}}

    @pytest.mark.parametrize("overrides, reply, status, message", [
        ({"response_text_path": "/choices/0"}, {"choices": [TEXT], "usage": {"completion_tokens": 5}},
         200, "response value at '/choices/0' is an object, not text"),
        ({}, {"choices": [TEXT]}, 200,
         "response has no usage value at '/usage/completion_tokens'"),
        ({}, {"choices": [TEXT], "usage": {"completion_tokens": 0}}, 200,
         "usage value at '/usage/completion_tokens' must be > 0, got 0"),
        ({}, {"choices": [TEXT], "usage": {"completion_tokens": 10**400}}, 200,
         "usage value at '/usage/completion_tokens' is an integer too large for a float"),
        ({}, {}, 400, 'HTTP 400: {"error": {"code": 400}}'),
    ], ids=["object-text", "no-usage", "usage-0", "usage-10**400", "http-400"])
    def test_a_probe_of_a_reply_a_trial_refuses_exits_one(self, runner, tmp_path, mock_server,
                                                          api_key, overrides, reply, status,
                                                          message):
        mock_server.reply = lambda body: reply
        mock_server.status_queue = [status]
        path = tmp_path / "backend.json"
        path.write_text(json.dumps({"backend": backend_config_dict(mock_server.url, **overrides)}))
        result = runner.invoke(main, ["run", str(path), "--dry-run", "--probe"])
        assert result.exit_code == 1, result.output
        assert result.stderr == f"probe failed: {message}\n"
        assert result.stdout == runner.invoke(main, ["run", str(path), "--dry-run"]).stdout
        assert len(mock_server.bodies) == 1

    def test_a_usage_count_beyond_the_float_range_aborts_the_run(self, runner, tmp_path,
                                                                 mock_server, api_key):
        mock_server.reply = lambda body: {"choices": [{"message": {"content": "42"}}],
                                          "usage": {"completion_tokens": 10**400}}
        config = {"backend": backend_config_dict(mock_server.url),
                  "tasks": [{"sample_id": "q1", "prompt": "?",
                             "judge": {"type": "exact_match", "expected": "42"}}]}
        path = tmp_path / "backend.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", str(path), "--naive", "1", "--out", str(out),
                                      "--run-id", "h1"])
        assert result.exit_code == 2
        assert ("usage value at '/usage/completion_tokens' is an integer too large for a float"
                in result.stderr)
        assert (out / "h1.jsonl").read_bytes() == b""


class TestCompute:
    def test_recompute_reproduces_the_live_bundle(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        live = (out / "r1.bundle.json").read_bytes()
        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
        assert result.exit_code == 0, result.output
        assert (out / "r1.bundle.json").read_bytes() == live

    def test_accepts_a_direct_jsonl_path(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        result = runner.invoke(main, ["compute", str(out / "r1.jsonl")])
        assert result.exit_code == 0, result.output

    def test_empty_store_exits_one(self, runner, tmp_path):
        """No run to continue: exit 2 is only for a run that `run --resume` continues."""
        empty = tmp_path / "none"
        empty.mkdir()
        result = runner.invoke(main, ["compute", str(empty)])
        assert result.exit_code == 1
        assert f"error: no runs found under {empty}\n" in all_text(result)

    def test_every_cut_short_of_the_whole_file_exits_two(self, runner, tmp_path):
        """A line is stored once its newline is written, so at every cut of a finished run, the
        one that keeps the last record whole but for its newline included, `compute` exits 2."""
        levels = [{"p_correct": 0.5, "token_log_mean": 5.0, "token_log_std": 0.4},
                  {"p_correct": 0.7, "token_log_mean": 6.0, "token_log_std": 0.3}]
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps({"seed": 3, "samples": [{"id": "s", "levels": levels}]}))
        out = tmp_path / "runs"
        do_run(runner, spec, out, "--naive", "2", "--run-id", "r1")
        data = (out / "r1.jsonl").read_bytes()
        assert data.count(b"\n") == 4
        for cut in range(len(data) + 1):
            (out / "r1.jsonl").write_bytes(data[:cut])
            result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
            assert result.exit_code == (0 if cut == len(data) else 2), (cut, result.output)

    def test_unknown_run_id_exits_one(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        result = runner.invoke(main, ["compute", str(out), "--run-id", "ghost"])
        assert result.exit_code == 1
        assert f"error: run 'ghost': not found under {out}\n" in all_text(result)

    def test_incomplete_records_exit_two(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_text().strip().split("\n")
        trial_file.write_text("\n".join(lines[:-1]) + "\n")  # drop one configuration
        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
        assert result.exit_code == 2

    def test_torn_final_line_exits_two_naming_its_offset(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        data = trial_file.read_bytes()
        trial_file.write_bytes(data[:-20])
        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
        assert result.exit_code == 2
        offset = data.rindex(b"\n", 0, len(data) - 1) + 1
        assert f"byte {offset}" in all_text(result)

    def test_bad_line_ending_in_a_newline_exits_one(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        damaged = trial_file.read_bytes()[:-20] + b"\n"
        trial_file.write_bytes(damaged)
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
        assert trial_file.read_bytes() == damaged

    def test_a_bad_line_names_the_record_file_and_line(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_bytes().splitlines(keepends=True)
        lines[5] = lines[5].replace(b'"model":', b'"model"', 1)
        trial_file.write_bytes(b"".join(lines))
        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
        assert result.exit_code == 1
        assert (f"error: Expecting ':' delimiter: line 1 column 26 (char 25) "
                f"({trial_file}, line 6)\n") in all_text(result)

    @pytest.mark.parametrize("field, rule", [("completion_tokens", "must fit in a float"),
                                             ("correct", "must be in [0, 1]")],
                             ids=["completion_tokens", "correct"])
    def test_a_number_beyond_float_range_names_the_record_file_and_line(self, runner, spec_file,
                                                                        tmp_path, field, rule):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "3", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_text().splitlines(keepends=True)
        lines[5] = json.dumps({**json.loads(lines[5]), field: 10**400}) + "\n"
        trial_file.write_text("".join(lines))
        damaged = trial_file.read_bytes()
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)  # not an uncaught OverflowError
            assert f"error: {field}: {rule}, got {10**400} ({trial_file}, line 6)\n" in all_text(result)
        assert trial_file.read_bytes() == damaged

    def test_missing_out_parent_is_created(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        destination = tmp_path / "new" / "deeper" / "b.json"
        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1", "--out", str(destination)])
        assert result.exit_code == 0, result.output
        assert destination.read_bytes() == (out / "r1.bundle.json").read_bytes()

    @pytest.mark.parametrize("args, expected", [
        (["r1.manifest.json"], "is neither a store directory nor a <run_id>.jsonl record file"),
        (["r1.bundle.json"], "is neither a store directory nor a <run_id>.jsonl record file"),
        (["r1.jsonl", "--run-id", "r2"], "--run-id 'r2' names another run than r1.jsonl"),
    ], ids=["manifest", "bundle", "other-run-id"])
    def test_a_file_other_than_the_run_record_file_exits_one(self, runner, spec_file, tmp_path,
                                                              args, expected):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        result = runner.invoke(main, ["compute", str(out / args[0]), *args[1:]])
        assert result.exit_code == 1
        assert expected in all_text(result)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_the_manifest_is_decoded_once(self, runner, spec_file, tmp_path, monkeypatch):
        """By `compute`, and by a `run --resume`, which hands it to the record replay."""
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        decoded = []
        real = arise.store._decode

        def counting(cls, data):
            if cls is RunManifest:
                decoded.append(data["run_id"])
            return real(cls, data)

        monkeypatch.setattr(arise.store, "_decode", counting)
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            decoded.clear()
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert decoded == ["r1"], args[0]

    def test_ambiguous_store_requires_run_id(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r2")
        result = runner.invoke(main, ["compute", str(out)])
        assert result.exit_code == 1
        assert "--run-id" in all_text(result)


def hash_refusal(out: Path, run_id: str = "r1") -> str:
    """The start of `run --resume`'s refusal of a config whose hash is not the stored run's."""
    stored = json.loads((out / f"{run_id}.manifest.json").read_text())["config_hash"]
    return f"run {run_id!r} was started with a config that hashes to {stored}; this config hashes to"


def http_run_cut_in_half(runner: CliRunner, tmp_path: Path, mock_server) -> tuple[dict, Path, list]:
    """A config of two tasks, its `--naive 2` run h1 cut to half its records, and its run args."""
    mock_server.reply = keyed_reply(mock_server)
    config = {
        "backend": backend_config_dict(mock_server.url),
        "tasks": [{"sample_id": f"q{i}", "prompt": f"Question {i}?",
                   "judge": {"type": "exact_match", "expected": "42"}} for i in range(2)],
    }
    path = tmp_path / "backend.json"
    path.write_text(json.dumps(config))
    args = ["run", str(path), "--out", str(tmp_path / "runs"), "--run-id", "h1"]
    assert runner.invoke(main, [*args, "--naive", "2"]).exit_code == 0
    trial_file = tmp_path / "runs" / "h1.jsonl"
    lines = trial_file.read_text().splitlines(keepends=True)
    trial_file.write_text("".join(lines[: len(lines) // 2]))
    return config, path, args


class TestResume:
    def test_resume_completes_an_interrupted_run(self, runner, spec_file, tmp_path):
        full_dir = tmp_path / "full"
        do_run(runner, spec_file, full_dir, "--naive", "2", "--run-id", "r1")

        cut_dir = tmp_path / "cut"
        cut_dir.mkdir()
        (cut_dir / "r1.manifest.json").write_text((full_dir / "r1.manifest.json").read_text())
        kept = [
            line
            for line in (full_dir / "r1.jsonl").read_text().strip().split("\n")
            if json.loads(line)["trial_index"] == 0
        ]
        (cut_dir / "r1.jsonl").write_text("\n".join(kept) + "\n")

        result = runner.invoke(
            main,
            ["--seed", "42", "run", str(spec_file), "--out", str(cut_dir),
             "--run-id", "r1", "--resume"],
        )
        assert result.exit_code == 0, result.output
        assert (cut_dir / "r1.bundle.json").read_bytes() == (
            full_dir / "r1.bundle.json"
        ).read_bytes()

    @pytest.mark.parametrize("seed_args", [["--seed", "8"], []])
    def test_resume_refuses_a_different_seed(self, runner, spec_file, tmp_path, seed_args):
        # the spec file's own seed is 42, so resuming without --seed also conflicts
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "3", "--run-id", "r1", seed="7")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_text().splitlines(keepends=True)
        trial_file.write_text("".join(lines[: len(lines) // 2]))
        before = trial_file.read_bytes()
        result = runner.invoke(
            main, [*seed_args, "run", str(spec_file), "--out", str(out), "--run-id", "r1", "--resume"]
        )
        assert result.exit_code == 1
        text = all_text(result)
        assert "seed 7" in text
        assert f"seed {seed_args[1] if seed_args else 42}" in text
        assert trial_file.read_bytes() == before

    def test_a_resume_while_another_writer_holds_the_run_exits_one(self, runner, spec_file,
                                                                  tmp_path):
        full, out = tmp_path / "full", tmp_path / "cut"
        do_run(runner, spec_file, full, "--naive", "2", "--run-id", "r1")
        data = (full / "r1.jsonl").read_bytes()
        out.mkdir()
        (out / "r1.manifest.json").write_bytes((full / "r1.manifest.json").read_bytes())
        (out / "r1.jsonl").write_bytes(data[:data.index(b"\n", len(data) // 2) - 10])
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        resume = ["--seed", "42", "run", str(spec_file), "--out", str(out), "--run-id", "r1",
                  "--resume"]
        with open(out / "r1.jsonl", "rb") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            result = runner.invoke(main, resume)
            assert result.exit_code == 1, result.output
            assert (f"error: run 'r1' has another writer: it holds the lock on "
                    f"{out / 'r1.jsonl'}") in all_text(result)
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        result = runner.invoke(main, resume)
        assert result.exit_code == 0, result.output
        assert (out / "r1.bundle.json").read_bytes() == (full / "r1.bundle.json").read_bytes()

    @pytest.mark.parametrize("others", [("manifest.json",), ("manifest.json", "jsonl")],
                             ids=["manifest", "manifest-and-records"])
    def test_a_new_run_that_another_starts_first_exits_one(self, runner, spec_file, tmp_path,
                                                           monkeypatch, others):
        """Two new runs of one id both pass the check before the lock: the one that locks second
        finds the other's files under the lock, refuses, and writes nothing."""
        first, out = tmp_path / "first", tmp_path / "runs"
        do_run(runner, spec_file, first, "--naive", "1", "--run-id", "r1", seed="7")
        real = arise.store.TraceStore.completed_trials

        def started_meanwhile(self, manifest, resume=False):
            out.mkdir(exist_ok=True)
            for suffix in others:
                (out / f"r1.{suffix}").write_bytes((first / f"r1.{suffix}").read_bytes())
            return real(self, manifest, resume)

        monkeypatch.setattr(arise.store.TraceStore, "completed_trials", started_meanwhile)
        result = do_run(runner, spec_file, out, "--naive", "2", "--run-id", "r1")
        assert result.exit_code == 1, result.output
        assert result.stderr == (f"error: run 'r1' already exists under {out}; "
                                 f"continue it with --resume\n")
        assert ((out / "r1.manifest.json").read_bytes()
                == (first / "r1.manifest.json").read_bytes())
        if "jsonl" in others:
            assert (out / "r1.jsonl").read_bytes() == (first / "r1.jsonl").read_bytes()
        else:  # the opener created the record file; the run refused before it stored a trial
            assert (out / "r1.jsonl").read_bytes() == b""
        assert not (out / "r1.bundle.json").exists()

    @pytest.mark.parametrize("keep", [1, 90, -1])
    def test_resume_drops_a_torn_final_line(self, runner, spec_file, tmp_path, keep):
        full_dir = tmp_path / "full"
        do_run(runner, spec_file, full_dir, "--naive", "2", "--run-id", "r1")
        data = (full_dir / "r1.jsonl").read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        # keep -1 leaves the whole last record but not its newline
        cut = last + keep if keep > 0 else len(data) + keep

        cut_dir = tmp_path / "cut"
        cut_dir.mkdir()
        (cut_dir / "r1.manifest.json").write_text((full_dir / "r1.manifest.json").read_text())
        (cut_dir / "r1.jsonl").write_bytes(data[:cut])
        result = runner.invoke(
            main,
            ["--seed", "42", "run", str(spec_file), "--out", str(cut_dir),
             "--run-id", "r1", "--resume"],
        )
        assert result.exit_code == 0, result.output

        def bundle(path: Path) -> dict:
            loaded = json.loads(path.read_text())
            del loaded["manifest"]["started_at"]
            return loaded

        assert bundle(cut_dir / "r1.bundle.json") == bundle(full_dir / "r1.bundle.json")

    @pytest.mark.parametrize("reshape", [
        lambda spec: [s["levels"].append(dict(s["levels"][-1])) for s in spec["samples"]],
        lambda spec: spec["samples"].append({**spec["samples"][0], "id": "extra"}),
        lambda spec: spec["samples"].pop(),
    ], ids=["extra-level", "extra-sample", "fewer-samples"])
    def test_resume_refuses_a_config_of_another_shape(self, runner, spec_file, tmp_path, reshape):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "2", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_text().splitlines(keepends=True)
        trial_file.write_text("".join(lines[: len(lines) // 2]))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        spec = json.loads(spec_file.read_text())
        reshape(spec)
        reshaped = tmp_path / "reshaped.json"
        reshaped.write_text(json.dumps(spec))
        result = do_run(runner, reshaped, out, "--run-id", "r1", "--resume")
        assert result.exit_code == 1
        assert hash_refusal(out) in all_text(result)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_resume_refuses_a_renamed_sample(self, runner, spec_file, tmp_path):
        # half a --naive 2 run is cut, so the last sample has no records yet
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "2", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_text().splitlines(keepends=True)
        trial_file.write_text("".join(lines[: len(lines) // 2]))
        assert '"s08"' not in trial_file.read_text()
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        spec = json.loads(spec_file.read_text())
        assert spec["samples"][-1]["id"] == "s08"
        spec["samples"][-1]["id"] = "s99"
        renamed = tmp_path / "renamed.json"
        renamed.write_text(json.dumps(spec))
        result = do_run(runner, renamed, out, "--run-id", "r1", "--resume")
        assert result.exit_code == 1
        assert hash_refusal(out) in all_text(result)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_resume_refuses_an_edited_spec(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "2", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_text().splitlines(keepends=True)
        trial_file.write_text("".join(lines[: len(lines) // 2]))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        spec = json.loads(spec_file.read_text())
        for sample in spec["samples"]:
            for level in sample["levels"]:
                level["p_correct"] = 1.0
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(spec))
        result = do_run(runner, edited, out, "--run-id", "r1", "--resume")
        assert result.exit_code == 1
        assert hash_refusal(out) in all_text(result)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_an_http_resume_may_change_the_transport_but_not_the_tasks(
            self, runner, tmp_path, mock_server, api_key, monkeypatch):
        config, path, args = http_run_cut_in_half(runner, tmp_path, mock_server)
        out = tmp_path / "runs"
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        config["tasks"][1]["prompt"] = "Question 1, reworded?"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, [*args, "--resume"])
        assert result.exit_code == 1
        assert "resuming would mix the outcomes of both" in all_text(result)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

        monkeypatch.setenv("OTHER_KEY", "sk-other")
        config["tasks"][1]["prompt"] = "Question 1?"
        config["backend"].update(auth_env_var="OTHER_KEY", max_in_flight=3, min_request_interval=0.001,
                                 retry={"max_attempts": 5, "backoff_base": 0.0})
        path.write_text(json.dumps(config))
        result = runner.invoke(main, [*args, "--resume"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "h1.manifest.json").read_text())
        assert manifest["config_hash"] == json.loads(before["h1.manifest.json"])["config_hash"]

    def test_an_http_resume_refuses_swapped_tasks(self, runner, tmp_path, mock_server, api_key):
        """The hash covers the task order, which is the run's sample order."""
        config, path, args = http_run_cut_in_half(runner, tmp_path, mock_server)
        out = tmp_path / "runs"
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        config["tasks"].reverse()
        path.write_text(json.dumps(config))
        result = runner.invoke(main, [*args, "--resume"])
        assert result.exit_code == 1
        assert hash_refusal(out, "h1") in all_text(result)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_resume_requires_run_id(self, runner, spec_file, tmp_path):
        result = do_run(runner, spec_file, tmp_path / "runs", "--resume")
        assert result.exit_code == 1
        assert "--run-id" in all_text(result)

    def test_resume_rejects_mode_flags(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "2", "--run-id", "r1")
        result = do_run(runner, spec_file, out, "--resume", "--run-id", "r1", "--naive", "5")
        assert result.exit_code == 1
        assert "manifest" in all_text(result)

    @pytest.mark.parametrize("flag", [
        ["--adaptive"], ["--budget", "100"], ["--naive", "5"],
        ["--m-min", "3"],  # the default value, but given on the command line
        ["--m-max", "50"], ["--tau", "0.01"], ["--model", "beta"], ["--benchmark", "other"],
    ], ids=lambda flag: flag[0])
    def test_resume_refuses_every_run_setting_flag(self, runner, spec_file, tmp_path, flag):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "2", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_text().splitlines(keepends=True)
        trial_file.write_text("".join(lines[: len(lines) // 2]))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        result = do_run(runner, spec_file, out, "--resume", "--run-id", "r1", *flag)
        assert result.exit_code == 1
        assert f"takes the run settings from the stored manifest; drop {flag[0]}" in all_text(result)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_a_cut_at_every_byte_offset_resumes_or_is_refused(self, runner, tmp_path):
        levels = [{"p_correct": 0.5, "token_log_mean": 5.0, "token_log_std": 0.4},
                  {"p_correct": 0.7, "token_log_mean": 6.0, "token_log_std": 0.3}]
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps({"seed": 3, "samples": [{"id": "s", "levels": levels}]}))
        full_dir, cut_dir = tmp_path / "full", tmp_path / "cut"
        result = runner.invoke(main, ["run", str(spec), "--naive", "2", "--out", str(full_dir),
                                      "--run-id", "r1"])
        assert result.exit_code == 0, result.output
        data = (full_dir / "r1.jsonl").read_bytes()
        full_lines = data.splitlines(keepends=True)
        assert len(full_lines) == 4
        # the manifest of a run that crashed mid-draw
        manifest = (full_dir / "r1.manifest.json").read_bytes()
        assert manifest.count(b'"status": "complete"') == 1
        manifest = manifest.replace(b'"status": "complete"', b'"status": "running"')

        def masked(path: Path) -> bytes:
            return re.sub(rb'"(started_at|timestamp)": "[^"]*"', rb'"\1": ""', path.read_bytes())

        expected = masked(full_dir / "r1.bundle.json"), masked(full_dir / "r1.jsonl")
        cut_dir.mkdir()
        for cut in range(len(data) + 1):
            (cut_dir / "r1.manifest.json").write_bytes(manifest)
            (cut_dir / "r1.jsonl").write_bytes(data[:cut])
            (cut_dir / "r1.bundle.json").unlink(missing_ok=True)
            result = runner.invoke(main, ["run", str(spec), "--out", str(cut_dir),
                                          "--run-id", "r1", "--resume"])
            kept = data[:cut].splitlines(keepends=True)
            if any(line.endswith(b"\n") and line not in full_lines for line in kept):
                assert result.exit_code == 1, cut  # a bad newline-terminated line is never dropped
            else:
                assert result.exit_code == 0, (cut, result.output)
                assert (masked(cut_dir / "r1.bundle.json"), masked(cut_dir / "r1.jsonl")) == (
                    expected), cut


MODES_PAST_THE_PROBE = pytest.mark.parametrize(
    "mode, past", [(["--naive", "3"], 2), ([], 3), (["--budget", "150"], 3)],
    ids=["naive", "adaptive", "budget"])


def last_records_past(runner, spec_file: Path, full: Path, mode: list[str],
                      past: int) -> tuple[list[str], list[dict], int]:
    """A finished run's record lines, their records, and the line of the one to change.

    That is the last record of a configuration with a trial index of at
    least `past`: past the probe for adaptive (its stop check decides) and
    budget (a phase-2 draw).
    """
    do_run(runner, spec_file, full, *mode, "--run-id", "r1")
    lines = (full / "r1.jsonl").read_text().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    counts = Counter((r["sample_id"], r["level_index"]) for r in records)
    last = max(i for i, r in enumerate(records) if r["trial_index"] >= past
               and r["trial_index"] == counts[(r["sample_id"], r["level_index"])] - 1)
    return lines, records, last


class TestShortConfigurations:
    """`compute` refuses a configuration that `run --resume` would still draw for (exit 2)."""

    @pytest.mark.parametrize("status", ["complete", "running"])
    @MODES_PAST_THE_PROBE
    def test_compute_refuses_and_a_resume_ends_uncut(self, runner, spec_file, tmp_path, mode,
                                                      past, status):
        full = tmp_path / "full"
        lines, records, cut = last_records_past(runner, spec_file, full, mode, past)
        key = (records[cut]["sample_id"], records[cut]["level_index"])
        out = tmp_path / "cut"
        out.mkdir()
        manifest = json.loads((full / "r1.manifest.json").read_text())
        (out / "r1.manifest.json").write_text(json.dumps({**manifest, "status": status}, indent=2))
        (out / "r1.jsonl").write_text("".join(lines[:cut] + lines[cut + 1:]))
        stored = (out / "r1.jsonl").read_bytes()

        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
        assert result.exit_code == 2
        assert (f"error: run 'r1': configuration {key!r}: its records end before trial "
                f"{records[cut]['trial_index']}, which its stop rule draws; `run --resume` draws "
                f"the rest") in all_text(result)
        assert (out / "r1.jsonl").read_bytes() == stored
        assert not (out / "r1.bundle.json").exists()

        result = runner.invoke(main, ["--seed", "42", "run", str(spec_file), "--out", str(out),
                                      "--run-id", "r1", "--resume"])
        assert result.exit_code == 0, result.output
        assert (out / "r1.bundle.json").read_bytes() == (full / "r1.bundle.json").read_bytes()
        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
        assert result.exit_code == 0, result.output
        assert (out / "r1.bundle.json").read_bytes() == (full / "r1.bundle.json").read_bytes()


class TestRecordsNoRunWrites:
    """A trial past its configuration's stop rule, stored twice or after a gap is refused (exit 1)."""

    def refused(self, runner, spec_file: Path, out: Path, expected: str) -> None:
        """`compute` and `run --resume` both exit 1 with `expected`, and leave every file as it was."""
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert f"error: {expected}" in all_text(result)
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before, args[0]

    @MODES_PAST_THE_PROBE
    def test_a_trial_past_the_stop_rule(self, runner, spec_file, tmp_path, mode, past):
        out = tmp_path / "runs"
        _, records, last = last_records_past(runner, spec_file, out, mode, past)
        (out / "r1.bundle.json").unlink()
        extra = records[last]
        k = extra["trial_index"] + 1
        with open(out / "r1.jsonl", "a") as fh:
            fh.write(json.dumps({**extra, "trial_index": k}) + "\n")
        self.refused(runner, spec_file, out,
                     f"configuration ({extra['sample_id']!r}, level {extra['level_index']}) holds "
                     f"{k + 1} stored trials, but its stop rule stops at {k}")

    def test_a_duplicated_line_names_both_lines(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "3", "--run-id", "r1")
        (out / "r1.bundle.json").unlink()
        lines = (out / "r1.jsonl").read_text().splitlines(keepends=True)
        (out / "r1.jsonl").write_text("".join([*lines[:6], lines[5], *lines[6:]]))
        record = json.loads(lines[5])
        key = (record["sample_id"], record["level_index"])
        self.refused(runner, spec_file, out,
                     f"run 'r1': configuration {key!r} holds trial {record['trial_index']} twice "
                     f"({out / 'r1.jsonl'}, lines 6 and 7)")

    def test_a_resume_refused_after_a_draw_closes_the_record_file(self, runner, spec_file,
                                                                  tmp_path, monkeypatch):
        """A crashed run lacks s01's last trial and holds one too many for its last configuration."""
        import arise.store

        out = tmp_path / "runs"
        lines, records, last = last_records_past(runner, spec_file, out, ["--naive", "3"], 2)
        (out / "r1.bundle.json").unlink()
        manifest = out / "r1.manifest.json"
        manifest.write_text(manifest.read_text().replace('"status": "complete"', '"status": "running"'))
        assert [r["trial_index"] for r in records[:3]] == [0, 1, 2]
        extra = {**records[last], "trial_index": 3}
        (out / "r1.jsonl").write_text("".join([*lines[:2], *lines[3:], json.dumps(extra) + "\n"]))
        before = manifest.read_bytes()
        opened = []  # the record file handle of each run opened for appending
        real = arise.store.TraceStore.completed_trials

        def spy(store, listed, resume=False):
            replayed = real(store, listed, resume)
            if resume:
                opened.append(store._runs[listed.run_id][-1])
            return replayed

        monkeypatch.setattr(arise.store.TraceStore, "completed_trials", spy)
        result = runner.invoke(main, ["--seed", "42", "run", str(spec_file), "--out", str(out),
                                      "--run-id", "r1", "--resume"])
        assert result.exit_code == 1, result.output
        assert "holds 4 stored trials, but its stop rule stops at 3" in all_text(result)
        # the draw that came first, drawn again; its timestamp is the time of the redraw
        stamp = re.compile(r'"timestamp": "[^"]*"')
        assert stamp.sub("", (out / "r1.jsonl").read_text()).endswith(stamp.sub("", lines[2]))
        assert opened and all(handle.closed for handle in opened)
        assert manifest.read_bytes() == before

    def test_a_gap_in_the_trial_indices(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "3", "--run-id", "r1")
        (out / "r1.bundle.json").unlink()
        lines = (out / "r1.jsonl").read_text().splitlines(keepends=True)
        assert [json.loads(line)["trial_index"] for line in lines[:3]] == [0, 1, 2]
        (out / "r1.jsonl").write_text("".join([lines[0], *lines[2:]]))
        self.refused(runner, spec_file, out,
                     "run 'r1': configuration ('s01', 0) has non-contiguous trial indices [0, 2]")


# a level whose token draws are finite but far past 2**53: trial 0 of ('a', 1) draws about 6e306
HUGE_TOKENS_SPEC = {"seed": 7, "samples": [
    {"id": "a", "levels": [{"p_correct": 0.5, "token_log_mean": 5, "token_log_std": 0.5},
                           {"p_correct": 0.5, "token_log_mean": 705, "token_log_std": 3}]},
    {"id": "b", "levels": [{"p_correct": 0.5, "token_log_mean": 5, "token_log_std": 0.5},
                           {"p_correct": 0.5, "token_log_mean": 6, "token_log_std": 0.5}]}]}
PAST_2_TO_THE_53 = re.compile(r"^error: configuration \('a', level 1\) trial 0 has "
                              r"[0-9.]+e\+30[0-9] completion tokens, more than 2\*\*53\n\Z")


class TestTokenCountsPast2To53:
    """A trial with more tokens than a float holds exactly exits 1, drawn or stored, and is never
    written; the stop rule's statistics of such counts overflowed into a traceback."""

    @pytest.fixture()
    def huge_spec(self, tmp_path: Path) -> Path:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(HUGE_TOKENS_SPEC))
        return path

    def test_run_and_its_resume_refuse_the_draw(self, runner, huge_spec, tmp_path):
        out = tmp_path / "runs"
        args = ["run", str(huge_spec), "--out", str(out), "--run-id", "r1"]
        result = runner.invoke(main, [*args, "--naive", "10"])
        assert result.exit_code == 1
        assert PAST_2_TO_THE_53.match(result.stderr), result.stderr
        records = [json.loads(line) for line in (out / "r1.jsonl").read_text().splitlines()]
        assert {(r["sample_id"], r["level_index"]) for r in records} == {("a", 0)}
        assert len(records) == 10
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        result = runner.invoke(main, [*args, "--resume"])
        assert result.exit_code == 1
        assert PAST_2_TO_THE_53.match(result.stderr), result.stderr
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_simulate_refuses_the_draw(self, runner, huge_spec):
        result = runner.invoke(main, ["simulate", str(huge_spec), "-m", "naive:10", "--runs", "1"])
        assert result.exit_code == 1
        assert PAST_2_TO_THE_53.match(result.stderr), result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("tokens, code", [(2**53, 0), (2**53 + 2, 1), (10**300, 1)],
                             ids=["2**53", "2**53+2", "10**300"])
    def test_compute_refuses_a_stored_count(self, runner, spec_file, tmp_path, tokens, code):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        (out / "r1.bundle.json").unlink()
        trial_file = out / "r1.jsonl"
        first, *rest = trial_file.read_text().splitlines(keepends=True)
        record = json.loads(first)
        trial_file.write_text(json.dumps({**record, "completion_tokens": tokens}) + "\n"
                              + "".join(rest))
        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
        assert result.exit_code == code, result.output
        if code:
            assert result.stderr == (
                f"error: configuration ({record['sample_id']!r}, level {record['level_index']}) "
                f"trial 0 has {float(tokens)!r} completion tokens, more than 2**53\n")
            assert not (out / "r1.bundle.json").exists()


class TestRunBundleComesFromTheDrawnTrials:
    """`arise run` writes the bundle of the trials it drew; `compute` replays the same bytes."""

    def run_then_compute(self, runner, no_record_reads, out: Path, args: list[str]) -> bytes:
        with no_record_reads():
            result = runner.invoke(main, [*args, "--out", str(out), "--run-id", "r1"])
        assert result.exit_code == 0, result.output
        live = (out / "r1.bundle.json").read_bytes()
        result = runner.invoke(main, ["compute", str(out), "--run-id", "r1",
                                      "--out", str(out / "replayed.json")])
        assert result.exit_code == 0, result.output
        assert (out / "replayed.json").read_bytes() == live
        return live

    @pytest.mark.parametrize("mode", [["--adaptive"], ["--naive", "3"], ["--budget", "150"]])
    def test_a_new_run(self, runner, spec_file, tmp_path, no_record_reads, mode):
        self.run_then_compute(runner, no_record_reads, tmp_path / "runs",
                              ["--seed", "42", "run", str(spec_file), *mode])

    def cut_run(self, runner, spec_file: Path, tmp_path: Path) -> tuple[Path, Path]:
        """A `--naive 2` run, and a copy of it cut to its first 11 records with a running manifest."""
        full_dir, cut_dir = tmp_path / "full", tmp_path / "cut"
        result = do_run(runner, spec_file, full_dir, "--naive", "2", "--run-id", "r1")
        assert result.exit_code == 0, result.output
        cut_dir.mkdir()
        manifest = json.loads((full_dir / "r1.manifest.json").read_text())
        (cut_dir / "r1.manifest.json").write_text(json.dumps({**manifest, "status": "running"}))
        lines = (full_dir / "r1.jsonl").read_text().splitlines(keepends=True)
        (cut_dir / "r1.jsonl").write_text("".join(lines[:11]))  # s01 whole, s02 in part
        return full_dir, cut_dir

    def test_a_resumed_run(self, runner, spec_file, tmp_path, no_record_reads):
        full_dir, cut_dir = self.cut_run(runner, spec_file, tmp_path)
        live = self.run_then_compute(runner, no_record_reads, cut_dir,
                                     ["--seed", "42", "run", str(spec_file), "--resume"])
        assert live == (full_dir / "r1.bundle.json").read_bytes()



class TestFormatsAndScaling:
    def test_csv_format(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        result = runner.invoke(
            main,
            ["--format", "csv", "run", str(spec_file), "--naive", "1",
             "--out", str(out), "--run-id", "r1"],
        )
        assert result.exit_code == 0
        header = result.output.strip().split("\n")[0]
        assert header == "model,benchmark,arise,scaling_metric,n_samples,n_levels,unconverged_count"

    def test_csv_and_markdown_cells_are_escaped(self, runner, spec_file, tmp_path):
        out, model = tmp_path / "runs", 'gpt,4 "x"|y'
        result = runner.invoke(main, ["--format", "csv", "run", str(spec_file), "--naive", "1",
                                      "--model", model, "--out", str(out), "--run-id", "r1"])
        assert result.exit_code == 0, result.output
        header, row = csv.reader(result.output.splitlines()[:2])
        assert len(header) == len(row) == 7 and row[0] == model
        result = runner.invoke(main, ["report", str(out / "r1.bundle.json"),
                                      "--results-csv", str(tmp_path / "results.csv")])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[2].startswith('| gpt,4 "x"\\|y | ')
        header, row = csv.reader((tmp_path / "results.csv").read_text().splitlines())
        assert len(header) == len(row) == 6 and row[0] == model

    def test_json_format_parses(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        result = runner.invoke(
            main,
            ["--format", "json", "run", str(spec_file), "--naive", "1",
             "--out", str(out), "--run-id", "r1"],
        )
        assert result.exit_code == 0
        stdout_json = result.output[: result.output.rindex("]") + 1]
        rows = json.loads(stdout_json)
        assert rows[0]["n_samples"] == 8
        assert isinstance(rows[0]["arise"], float)

    def test_sm_x1000_scales_the_reported_metric(self, runner, spec_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        plain = runner.invoke(
            main,
            ["--format", "json", "run", str(spec_file), "--naive", "3",
             "--out", str(out_a), "--run-id", "r1"],
        )
        scaled = runner.invoke(
            main,
            ["--format", "json", "--sm-x1000", "run", str(spec_file), "--naive", "3",
             "--out", str(out_b), "--run-id", "r1"],
        )
        plain_sm = json.loads(plain.output[: plain.output.rindex("]") + 1])[0]["scaling_metric"]
        scaled_sm = json.loads(scaled.output[: scaled.output.rindex("]") + 1])[0]["scaling_metric"]
        assert scaled_sm == pytest.approx(1000 * plain_sm, abs=5e-4)  # both rounded to 6 dp


class TestExitCodes:
    """Exit 2 says that `run --resume` continues the run; every other refusal exits 1."""

    @pytest.mark.parametrize("args", [
        ["compute", "nowhere", "--run-id", "r1"],
        ["run", "{spec}", "--naive", "x", "--out", "runs"],
        ["--format", "xml", "compute", "runs"],
        ["frobnicate"],
    ], ids=["missing-path", "bad-option-value", "bad-group-option", "unknown-command"])
    def test_a_usage_error_exits_one(self, runner, spec_file, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, [arg.format(spec=spec_file) for arg in args])
        assert result.exit_code == 1, result.output
        assert "Error:" in all_text(result)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["compute", "resume"])
    def test_records_without_a_manifest_exit_one_naming_them(self, runner, spec_file, tmp_path,
                                                             command):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        (out / "r1.manifest.json").unlink()
        (out / "r1.bundle.json").unlink()
        before = (out / "r1.jsonl").read_bytes()
        if command == "compute":
            result = runner.invoke(main, ["compute", str(out), "--run-id", "r1"])
        else:
            result = do_run(runner, spec_file, out, "--run-id", "r1", "--resume")
        assert result.exit_code == 1, result.output
        assert (f"error: run 'r1': no manifest found; its records ({out / 'r1.jsonl'}) cannot "
                f"be replayed or resumed without one") in all_text(result)
        assert [path.name for path in out.iterdir()] == ["r1.jsonl"]
        assert (out / "r1.jsonl").read_bytes() == before

    @pytest.mark.parametrize("error, code", [
        (ValueError("bad value"), 1),
        (OSError("bad file"), 1),
        (IncompleteRunError("r1", "short of records"), 2),
        (ConfigurationError("a", 0, 3, RuntimeError("backend down")), 2),
    ], ids=["ValueError", "OSError", "IncompleteRunError", "ConfigurationError"])
    @pytest.mark.parametrize("command, callee", [
        ("run", "_load_run_config"),
        ("compute", "_locate_run"),
        ("simulate", "check_study"),
        ("report", "decode_file"),
    ], ids=["run", "compute", "simulate", "report"])
    def test_each_command_maps_an_error_to_its_code_and_one_error_line(
            self, runner, spec_file, tmp_path, monkeypatch, command, callee, error, code):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, callee, refuse)
        path = str(tmp_path if command == "compute" else spec_file)
        result = runner.invoke(main, [command, path])
        assert result.exit_code == code, result.output
        assert result.stderr == f"error: {error}\n"


class TestHelp:
    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_the_convergence_defaults_are_shown(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        text = " ".join(result.output.split())
        for option, default in (("--m-min INTEGER", "3"), ("--m-max INTEGER", "10"),
                                ("--tau FLOAT", "0.5")):
            assert f"{option} [default: {default}]" in text


class TestSimulate:
    def test_summary_and_per_run_rows(self, runner, spec_file, tmp_path):
        rows_path = tmp_path / "rows.csv"
        result = runner.invoke(
            main,
            ["simulate", str(spec_file), "--runs", "3", "-m", "adaptive",
             "-m", "naive:2", "--out", str(rows_path)],
        )
        assert result.exit_code == 0, result.output
        assert "adaptive" in result.output
        lines = rows_path.read_text().strip().split("\n")
        assert lines[0] == "mode,run,arise,scaling_metric,trials,unconverged"
        assert len(lines) == 1 + 2 * 3

    def test_rejects_unknown_mode(self, runner, spec_file):
        result = runner.invoke(main, ["simulate", str(spec_file), "-m", "wat"])
        assert result.exit_code == 1

    def test_missing_out_parent_is_created(self, runner, spec_file, tmp_path):
        rows_path = tmp_path / "new" / "deeper" / "rows.csv"
        result = runner.invoke(main, ["simulate", str(spec_file), "--runs", "1",
                                      "-m", "naive:1", "--out", str(rows_path)])
        assert result.exit_code == 0, result.output
        assert rows_path.read_text().startswith("mode,run,arise,scaling_metric,trials,unconverged")

    @pytest.mark.parametrize("args", [
        ["--runs", "1", "-m", "naive:1", "--out", "blocker/rows.csv"],  # the parent is a file
        ["--runs", "1", "-m", "adaptive", "-m", "naive:0", "--out", "new/rows.csv"],
        ["--runs", "0", "-m", "naive:1", "--out", "new/rows.csv"],
    ])
    def test_unusable_out_or_study_fails_before_any_draw(self, runner, spec_file, tmp_path,
                                                         monkeypatch, args):
        import arise.cli

        draws: list[object] = []
        monkeypatch.setattr(arise.cli, "replicate_study", lambda *a, **k: draws.append(a))
        (tmp_path / "blocker").write_text("")
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["simulate", str(spec_file), *args])
        assert result.exit_code == 1
        assert draws == []
        assert "arise_mean" not in result.output  # no table was printed
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("runs", ["1", "3", "5"])
    def test_one_cpu_and_two_print_and_write_the_same_bytes(self, runner, spec_file, tmp_path,
                                                            cpus, pool_sizes, runs):
        outputs = []
        for count in (1, 2):
            cpus(count)
            rows_path = tmp_path / f"rows{count}.csv"
            result = runner.invoke(main, ["--seed", "3", "simulate", str(spec_file), "--runs", runs,
                                          "-m", "adaptive", "-m", "naive:1", "-m", "budget",
                                          "--out", str(rows_path)])
            assert result.exit_code == 0, result.output
            outputs.append((result.stdout, rows_path.read_bytes()))
        assert pool_sizes == [2]  # three modes make at least three tasks
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_failed_draw_exits_one_with_no_rows_and_no_worker_left(
            self, runner, spec_file, tmp_path, monkeypatch, cpus, pool_sizes, count):
        import multiprocessing

        import arise.simulator

        real = arise.simulator.simulate_trial
        doomed = arise.simulator.derive_seed(42, "replication", 1)

        def draw(spec, sample_id, level_index, trial_index):  # forked workers inherit the patch
            if spec.seed == doomed:
                raise ValueError(f"no draw for {sample_id} in replication 1")
            return real(spec, sample_id, level_index, trial_index)

        monkeypatch.setattr(arise.simulator, "simulate_trial", draw)
        cpus(count)
        rows_path = tmp_path / "rows.csv"
        result = runner.invoke(main, ["simulate", str(spec_file), "--runs", "3", "-m", "naive:1",
                                      "--out", str(rows_path)])
        assert result.exit_code == 1
        assert "failed at trial 0: no draw for s01 in replication 1" in all_text(result)
        assert pool_sizes == ([2] if count == 2 else [])
        assert not rows_path.exists()
        assert multiprocessing.active_children() == []


class TestReport:
    def test_table_and_exports(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        exports = tmp_path / "exports"
        result = runner.invoke(
            main,
            ["report", str(out / "r1.bundle.json"), "--curves", "--transitions",
             "--results-csv", str(exports / "results.csv"), "--out-dir", str(exports)],
        )
        assert result.exit_code == 0, result.output
        assert (exports / "r1.curve.csv").exists()
        assert (exports / "r1.transitions.csv").exists()
        assert (exports / "results.csv").read_text().startswith(
            "model,benchmark,arise,scaling_metric,n_samples,levels"
        )

    def test_missing_results_csv_parent_is_created(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        results = tmp_path / "new" / "results.csv"
        result = runner.invoke(main, ["report", str(out / "r1.bundle.json"),
                                      "--results-csv", str(results)])
        assert result.exit_code == 0, result.output
        assert results.read_text().startswith("model,benchmark,arise,scaling_metric")

    def test_multiple_bundles_share_one_table(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        do_run(runner, spec_file, out, "--naive", "2", "--run-id", "r2")
        result = runner.invoke(
            main,
            ["--format", "csv", "report",
             str(out / "r1.bundle.json"), str(out / "r2.bundle.json")],
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert len(lines) == 3  # one header, two rows


class TestMalformedStoredFiles:
    """A stored file that lacks a field, holds an unknown one or is not an object exits 1 naming both."""

    def edit_record_line(self, out: Path, edit) -> None:
        trial_file = out / "r1.jsonl"
        first, *rest = trial_file.read_text().split("\n")
        trial_file.write_text("\n".join([json.dumps(edit(json.loads(first))), *rest]))

    def edit_json(self, path: Path, edit) -> None:
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data, indent=2))

    def compute(self, runner, out: Path):
        return runner.invoke(main, ["compute", str(out), "--run-id", "r1"])

    @pytest.mark.parametrize("edit, expected", [
        (lambda r: {k: v for k, v in r.items() if k != "model"}, "model: missing from the trial record"),
        (lambda r: [1, 2], "trial record: must be a JSON object, got list"),
        (lambda r: {**r, "extra": 1}, "extra: not a field of the trial record"),
    ])
    def test_bad_record_line(self, runner, spec_file, tmp_path, edit, expected):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        self.edit_record_line(out, edit)
        result = self.compute(runner, out)
        assert result.exit_code == 1
        assert f"error: {expected}" in all_text(result)
        assert "Traceback" not in all_text(result)

    def test_a_record_nested_too_deeply_names_the_file_and_line(self, runner, spec_file,
                                                                 tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "3", "--run-id", "r1")
        trial_file = out / "r1.jsonl"
        lines = trial_file.read_text().split("\n")
        lines[5] = lines[5].replace('"meta": {}', f'"meta": {{"x": {DEEP}}}')
        trial_file.write_text("\n".join(lines))
        result = self.compute(runner, out)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == (
            f"error: JSON value nests too deeply to decode ({trial_file}, line 6)\n")

    @pytest.mark.parametrize("field, value", [
        ("level_label", "level2"),
        ("level_index", 7),
        ("run_id", "r2"),
        ("model", "another-model"),
    ])
    def test_record_that_disagrees_with_its_manifest(self, runner, spec_file, tmp_path,
                                                      field, value):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        self.edit_record_line(out, lambda r: {**r, field: value})
        trial_file = out / "r1.jsonl"
        damaged = trial_file.read_bytes()
        level = value if field == "level_index" else 0
        expected = f"error: {field}: record (sample 's01', level {level}, trial 0) has {value!r}"
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            assert expected in all_text(result)
        assert trial_file.read_bytes() == damaged

    def test_record_of_a_sample_the_manifest_does_not_list(self, runner, spec_file, tmp_path):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        self.edit_record_line(out, lambda r: {**r, "sample_id": "s99"})
        trial_file = out / "r1.jsonl"
        damaged = trial_file.read_bytes()
        expected = ("error: sample_id: record (sample 's99', level 0, trial 0) has 's99', "
                    "but the manifest of run 'r1' does not list it")
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            assert expected in all_text(result)
        assert trial_file.read_bytes() == damaged

    @pytest.mark.parametrize("edit, expected", [
        (lambda m: m.pop("levels"), "levels: missing from the manifest"),
        (lambda m: m.update(spec_hash="abc"), "spec_hash: not a field of the manifest"),
        (lambda m: m["cfg"].pop("tau"), "tau: missing from the manifest cfg"),
        (lambda m: m.update(mode="bogus"), "mode: must be one of adaptive, fixed_budget, naive"),
        (lambda m: m.update(levels="ab"), "levels: must be a list of non-empty strings, got 'ab'"),
        (lambda m: m.update(n_samples="8"), "n_samples: must be a positive integer, got '8'"),
        (lambda m: m.update(sample_ids=m["sample_ids"][:-1]), "sample_ids: lists 7 samples"),
        (lambda m: m.update(config_hash=5), "config_hash: must be a non-empty string, got 5"),
        (lambda m: m.pop("sample_ids"), "sample_ids: missing from the manifest"),
        (lambda m: m.pop("config_hash"), "config_hash: missing from the manifest"),
        (lambda m: m.update(started_at=5), "started_at: must be a non-empty string, got 5"),
        (lambda m: m.update(run_id=""), "run_id: must be a non-empty string, got ''"),
        (lambda m: m.update(benchmark=7), "benchmark: must be a string, got 7"),
        (lambda m: m.update(model=["m"]), "model: must be a string, got ['m']"),
        (lambda m: m["cfg"].update(m_min=2.5), "m_min must be an integer, got 2.5"),
        (lambda m: m["cfg"].update(m_min=True, tau=True), "m_min must be an integer, got True"),
        (lambda m: m["cfg"].update(m_max="10"), "m_max must be an integer, got '10'"),
        (lambda m: m["cfg"].update(tau=True), "tau must be a real number, got True"),
    ])
    def test_bad_manifest(self, runner, spec_file, tmp_path, edit, expected):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        manifest = out / "r1.manifest.json"
        self.edit_json(manifest, edit)
        damaged = manifest.read_bytes()
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            assert f"error: {expected}" in all_text(result)
        assert manifest.read_bytes() == damaged  # a resume never rewrites what it cannot read

    @pytest.mark.parametrize("records", [False, True], ids=["no-records", "records"])
    def test_a_manifest_naming_another_run_is_refused_before_any_write(self, runner, spec_file,
                                                                      tmp_path, records):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        manifest = out / "r1.manifest.json"
        self.edit_json(manifest, lambda m: m.update(run_id="r2"))
        if not records:
            (out / "r1.jsonl").unlink()
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            assert result.stderr == (
                f"error: run_id: the manifest of run 'r1' names run 'r2' ({manifest})\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert not (out / "r2.manifest.json").exists()

    @pytest.mark.parametrize("damage, expected", [
        (lambda text: '{"run_id": ', "Expecting value: line 1 column 12 (char 11)"),
        (lambda text: text.replace('"adaptive"', '"bogus"').replace('"naive"', '"bogus"'),
         "mode: must be one of adaptive, fixed_budget, naive, got 'bogus'"),
        (lambda text: f'{{"run_id": {DEEP}}}', "JSON value nests too deeply to decode"),
    ], ids=["json", "field", "deep"])
    def test_a_bad_manifest_names_its_file(self, runner, spec_file, tmp_path, damage, expected):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        manifest = out / "r1.manifest.json"
        manifest.write_text(damage(manifest.read_text()))
        for args in (["compute", str(out), "--run-id", "r1"],
                     ["--seed", "42", "run", str(spec_file), "--out", str(out),
                      "--run-id", "r1", "--resume"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            assert f"error: {expected} ({manifest})\n" in all_text(result)

    @pytest.mark.parametrize("damage, expected", [
        (lambda text: text + "{}", r"Extra data: line \d+ column 2 \(char \d+\)"),
        (lambda text: text.replace('"curve"', '"kurve"', 1),
         "kurve: not a field of the result bundle"),
        (lambda text: DEEP, "JSON value nests too deeply to decode"),
    ], ids=["json", "field", "deep"])
    def test_a_bad_bundle_names_its_file(self, runner, spec_file, tmp_path, damage, expected):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        bundle = out / "r1.bundle.json"
        bundle.write_text(damage(bundle.read_text()))
        result = runner.invoke(main, ["report", str(bundle), "--out-dir", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert re.search(f"error: {expected} {re.escape(f'({bundle})')}\n", all_text(result))

    @pytest.mark.parametrize("edit, expected", [
        (lambda b: b.pop("curve"), "curve: missing from the result bundle"),
        (lambda b: b.update(notes="x"), "notes: not a field of the result bundle"),
        (lambda b: b["sample_scores"][0].pop("arise"), "arise: missing from the sample score"),
        (lambda b: b["curve"].append(b["curve"][-1]),
         "curve: has 4 points, but the manifest has 3 levels"),
        (lambda b: b["manifest"].update(started_at=5),
         "started_at: must be a non-empty string, got 5"),
        (lambda b: b["curve"].__setitem__(0, [1.0, 0.5, 2.0]),
         "curve: [1.0, 0.5, 2.0] is not a list of 2 values"),
        (lambda b: b["curve"].__setitem__(0, 7), "curve: 7 is not a list of 2 values"),
        (lambda b: b.update(sample_scores=5), "sample_scores: must be a list, got 5"),
        (lambda b: b.update(scaling_metric=None), "scaling_metric: must be a number, got None"),
        (lambda b: b.update(aggregate_arise="x"), "aggregate_arise: must be a number, got 'x'"),
        (lambda b: b["configurations"][0].update(converged="no"),
         "converged: must be a boolean, got 'no'"),
        (lambda b: b["curve"][0].__setitem__(1, None), "curve: must be a number, got None"),
        (lambda b: b["sample_scores"][0].update(improve=True),
         "improve: must be an integer, got True"),
        (lambda b: b["sample_scores"][0].update(sample_id=7), "sample_id: must be a string, got 7"),
    ])
    def test_bad_bundle_in_report(self, runner, spec_file, tmp_path, edit, expected):
        out = tmp_path / "runs"
        do_run(runner, spec_file, out, "--naive", "1", "--run-id", "r1")
        bundle = out / "r1.bundle.json"
        self.edit_json(bundle, edit)
        result = runner.invoke(main, ["report", str(bundle), "--curves",
                                      "--out-dir", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert f"error: {expected} ({bundle})" in all_text(result)
        assert not (tmp_path / "x").exists()
