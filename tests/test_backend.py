"""HTTP adapter: templating, judging, extraction, retries, and pacing."""

from __future__ import annotations

import logging
import math
import re
import sys
import threading
import time
import types
from contextlib import contextmanager

import pytest

from arise import (
    BackendConfig,
    BackendError,
    ExactMatchJudge,
    ExternalJudge,
    HttpBackend,
    JudgeError,
    JudgedTask,
    NumericMatchJudge,
    RequestLimiter,
    RetryPolicy,
    TokenExtractionError,
    TrialOutcome,
    config_hash,
    dry_run,
    merge_patch,
    parse_judge,
    parse_tasks,
    render_template,
    resolve_pointer,
    send_probe,
)

from conftest import backend_config_dict


# ----------------------------------------------------------------------
# pure pieces


class TestMergePatch:
    def test_adds_and_replaces_keys(self):
        out = merge_patch({"a": 1, "b": {"c": 2}}, {"b": {"d": 3}, "e": 4})
        assert out == {"a": 1, "b": {"c": 2, "d": 3}, "e": 4}

    def test_null_deletes_a_key(self):
        assert merge_patch({"a": 1, "b": 2}, {"b": None}) == {"a": 1}

    def test_non_object_patch_replaces_wholesale(self):
        assert merge_patch({"a": 1}, [1, 2]) == [1, 2]
        assert merge_patch({"a": {"deep": True}}, {"a": "flat"}) == {"a": "flat"}

    def test_original_is_not_mutated(self):
        target = {"a": {"b": 1}}
        merge_patch(target, {"a": {"b": 2}})
        assert target == {"a": {"b": 1}}


class TestResolvePointer:
    DOC = {"usage": {"completion_tokens": 57}, "choices": [{"message": {"content": "hi"}}]}

    def test_object_traversal(self):
        assert resolve_pointer(self.DOC, "/usage/completion_tokens") == 57

    def test_array_indexing(self):
        assert resolve_pointer(self.DOC, "/choices/0/message/content") == "hi"

    def test_missing_key_raises(self):
        with pytest.raises((KeyError, ValueError)):
            resolve_pointer(self.DOC, "/usage/prompt_tokens")

    def test_bad_index_raises(self):
        with pytest.raises((IndexError, ValueError)):
            resolve_pointer(self.DOC, "/choices/5/message")


class TestRenderTemplate:
    def test_replaces_placeholders_everywhere(self):
        template = {
            "model": "{{model}}",
            "messages": [{"role": "user", "content": "Q: {{prompt}}"}],
            "tag": "{{level.label}}/{{level.kind}}",
        }
        values = {"model": "m1", "prompt": "why?", "level.label": "low", "level.kind": "effort"}
        rendered, unresolved = render_template(template, values)
        assert rendered == {
            "model": "m1",
            "messages": [{"role": "user", "content": "Q: why?"}],
            "tag": "low/effort",
        }
        assert unresolved == []

    def test_reports_unknown_placeholders(self):
        rendered, unresolved = render_template({"x": "{{mystery}}"}, {"prompt": "p"})
        assert unresolved == ["mystery"]

    def test_rendering_is_deterministic(self):
        template = {"a": "{{prompt}}", "b": ["{{model}}", {"c": "{{prompt}}"}]}
        values = {"prompt": "p", "model": "m"}
        assert render_template(template, values) == render_template(template, values)

    def test_non_string_values_pass_through(self):
        rendered, _ = render_template({"temperature": 0.6, "n": 1}, {"prompt": "p"})
        assert rendered == {"temperature": 0.6, "n": 1}


class TestJudges:
    def test_exact_match_strips_whitespace(self):
        judge = ExactMatchJudge("Paris")
        assert judge.judge("  Paris \n", "s") == 1.0
        assert judge.judge("paris", "s") == 0.0

    def test_numeric_match_with_tolerance(self):
        judge = NumericMatchJudge(expected=408.0, tol=0.5)
        assert judge.judge("408.2", "s") == 1.0
        assert judge.judge("409", "s") == 0.0

    def test_numeric_parse_failure_is_wrong_not_error(self):
        assert NumericMatchJudge(expected=1.0).judge("no idea", "s") == 0.0

    def test_external_judge_runs_command(self):
        judge = ExternalJudge(
            (
                sys.executable,
                "-c",
                "import sys; text = sys.stdin.read(); "
                "print(1 if 'yes' in text and sys.argv[1] == 'q7' else 0)",
            )
        )
        assert judge.judge("yes indeed", "q7") == 1.0
        assert judge.judge("nope", "q7") == 0.0

    def test_external_judge_bad_exit_code_raises(self):
        judge = ExternalJudge((sys.executable, "-c", "import sys; sys.exit(3)"))
        with pytest.raises(JudgeError):
            judge.judge("text", "s")

    def test_external_judge_bad_output_raises(self):
        judge = ExternalJudge((sys.executable, "-c", "print('maybe')"))
        with pytest.raises(JudgeError) as err:
            judge.judge("text", "s")
        assert err.value.response == "text"

    def test_parse_judge_forms(self):
        assert parse_judge({"type": "exact_match", "expected": "x"}) == ExactMatchJudge("x")
        assert parse_judge({"type": "numeric_match", "expected": 2}) == NumericMatchJudge(2.0)
        parsed = parse_judge({"type": "external", "command": ["./j.sh", "arg"]})
        assert parsed == ExternalJudge(("./j.sh", "arg"))

    def test_a_bool_tolerance_is_refused(self):
        with pytest.raises(ValueError, match="^judge 'tol': must be a number, got True$"):
            parse_judge({"type": "numeric_match", "expected": 2, "tol": True})

    def test_parse_judge_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown judge type"):
            parse_judge({"type": "vibes"})

    def test_parse_judge_rejects_string_command(self):
        with pytest.raises(ValueError, match="argv list"):
            parse_judge({"type": "external", "command": "./j.sh arg"})

    @pytest.mark.parametrize("command, bad", [(["python", None, 3], None), (["./j.sh", ""], ""),
                                              ([["./j.sh"]], ["./j.sh"]), (["./j.sh", 3], 3)])
    def test_parse_judge_never_makes_a_command_argument_into_text(self, command, bad):
        with pytest.raises(ValueError, match=re.escape(
                f"judge 'command'[{command.index(bad)}] must be a non-empty string, got {bad!r}")):
            parse_judge({"type": "external", "command": command})


# ----------------------------------------------------------------------
# configuration


class TestBackendConfig:
    @pytest.mark.parametrize("retry, message", [
        ({"max_attempts": 0}, "retry max_attempts must be >= 1, got 0"),
        ({"max_attempts": -2}, "retry max_attempts must be >= 1, got -2"),
        ({"backoff_base": -1}, "retry backoff_base must be finite and >= 0, got -1.0"),
        ({"backoff_base": math.inf}, "retry backoff_base must be finite and >= 0, got inf"),
        ({"backoff_base": math.nan}, "retry backoff_base must be finite and >= 0, got nan"),
    ])
    def test_a_retry_policy_no_run_can_follow_is_refused(self, mock_server, retry, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BackendConfig.from_dict(backend_config_dict(mock_server.url, retry=retry))

    def test_the_least_retry_policy_is_one_attempt_without_backoff(self, mock_server):
        data = backend_config_dict(mock_server.url, retry={"max_attempts": 1, "backoff_base": 0})
        assert BackendConfig.from_dict(data).retry == RetryPolicy(1, 0.0)

    def test_from_dict_round_trip_of_key_fields(self, mock_server):
        cfg = BackendConfig.from_dict(backend_config_dict(mock_server.url))
        assert cfg.level_labels == ("low", "high")
        assert cfg.usage_path == "/usage/completion_tokens"
        assert cfg.retry.max_attempts == 3

    def test_rejects_single_level(self, mock_server):
        data = backend_config_dict(mock_server.url)
        data["levels"] = data["levels"][:1]
        with pytest.raises(ValueError, match="at least 2 levels"):
            BackendConfig.from_dict(data)

    def test_rejects_duplicate_labels(self, mock_server):
        data = backend_config_dict(mock_server.url)
        data["levels"][1]["label"] = "low"
        with pytest.raises(ValueError, match="unique"):
            BackendConfig.from_dict(data)

    @pytest.mark.parametrize("change, message", [
        ({"retry": {"backoff_base": True}},
         "backend config retry 'backoff_base': must be a number, got True"),
        ({"min_request_interval": False},
         "backend config 'min_request_interval': must be a number, got False"),
        ({"max_in_flight": True}, "backend config 'max_in_flight': must be an integer, got True"),
        ({"usage_path": 5}, "backend config 'usage_path' must be a non-empty string, got 5"),
        ({"usage_path": ""}, "backend config 'usage_path' must be a non-empty string, got ''"),
        ({"response_text_path": None},
         "backend config 'response_text_path' must be a non-empty string, got None"),
    ], ids=lambda value: next(iter(value)) if isinstance(value, dict) else None)
    def test_a_setting_of_the_wrong_type_is_refused(self, change, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BackendConfig.from_dict(backend_config_dict("http://127.0.0.1:8/v1", **change))

    @pytest.mark.parametrize("where", ["request_template", "request_overrides"])
    def test_an_unknown_placeholder_is_refused(self, where):
        data = backend_config_dict("http://127.0.0.1:8/v1")
        tree = (data["request_template"] if where == "request_template"
                else data["levels"][1]["request_overrides"])
        tree["reasoning_effort"] = "{{level.effort}}"
        message = ("backend config has unknown placeholders ['level.effort']; "
                   "known: prompt, model, level.label, level.kind")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BackendConfig.from_dict(data)

    def test_rejects_unknown_level_kind(self, mock_server):
        data = backend_config_dict(mock_server.url)
        data["levels"][0]["kind"] = "vibes"
        with pytest.raises(ValueError, match="kind"):
            BackendConfig.from_dict(data)


    def test_omitted_optional_keys_equal_the_stated_defaults(self):
        """Every optional key a config leaves out takes its dataclass default, hash included."""
        url = "http://127.0.0.1:8/v1"
        omitted = backend_config_dict(url)
        for level in omitted["levels"]:
            del level["request_overrides"]
        stated = backend_config_dict(
            url, usage_path="/usage/completion_tokens",
            response_text_path="/choices/0/message/content", max_in_flight=1,
            min_request_interval=0.0, retry={"max_attempts": 3, "backoff_base": 0.5})
        for level in stated["levels"]:
            level["request_overrides"] = {}
        judges = ({"type": "numeric_match", "expected": 42},
                  {"type": "numeric_match", "expected": 42, "tol": 0.0})
        omitted_backend, stated_backend = (
            HttpBackend(BackendConfig.from_dict(data),
                        parse_tasks([{"sample_id": "q1", "prompt": "?", "judge": judge}]))
            for data, judge in zip((omitted, stated), judges))
        assert omitted_backend.cfg == stated_backend.cfg
        assert parse_judge(judges[0]) == parse_judge(judges[1])
        assert (config_hash(omitted_backend.outcome_config)
                == config_hash(stated_backend.outcome_config))


def outcome_hash(url: str, expected: str = "42", **config_overrides) -> str:
    cfg = BackendConfig.from_dict(backend_config_dict(url, **config_overrides))
    tasks = parse_tasks([{"sample_id": "q1", "prompt": "?",
                          "judge": {"type": "exact_match", "expected": expected}}])
    return config_hash(HttpBackend(cfg, tasks).outcome_config)


class TestOutcomeConfig:
    @pytest.mark.parametrize("change", [
        {"base_url": "http://127.0.0.1:9/elsewhere"},
        {"auth_env_var": "OTHER_KEY"},
        {"max_in_flight": 4},
        {"min_request_interval": 0.5},
        {"retry": {"max_attempts": 9, "backoff_base": 0.0}},
    ], ids=lambda change: next(iter(change)))
    def test_transport_settings_leave_the_hash_alone(self, change):
        assert outcome_hash("http://127.0.0.1:8/v1", **change) == outcome_hash("http://127.0.0.1:8/v1")

    @pytest.mark.parametrize("change", [
        {"model": "another-model"},
        {"request_template": {"model": "{{model}}"}},
        {"usage_path": "/usage/total_tokens"},
        {"response_text_path": "/choices/0/text"},
        {"expected": "41"},
    ], ids=lambda change: next(iter(change)))
    def test_what_decides_outcomes_changes_the_hash(self, change):
        assert outcome_hash("http://127.0.0.1:8/v1", **change) != outcome_hash("http://127.0.0.1:8/v1")

    def test_the_hash_ignores_key_order(self):
        assert config_hash({"a": 1, "b": [0.5, "x"]}) == config_hash({"b": [0.5, "x"], "a": 1})


# ----------------------------------------------------------------------
# live round trips against the mock server


def make_backend(mock_server, **config_overrides) -> HttpBackend:
    cfg = BackendConfig.from_dict(backend_config_dict(mock_server.url, **config_overrides))
    tasks = parse_tasks(
        [
            {
                "sample_id": "q1",
                "prompt": "What is the answer?",
                "judge": {"type": "exact_match", "expected": "42"},
            }
        ]
    )
    return HttpBackend(cfg, tasks)


class TestHttpBackend:
    def test_judged_outcome_round_trip(self, mock_server, api_key):
        outcome = make_backend(mock_server).evaluate("q1", 0, 0)
        assert outcome.correct == 1.0
        assert outcome.tokens == 128.0

    def test_request_carries_rendered_template_and_level_override(self, mock_server, api_key):
        make_backend(mock_server).evaluate("q1", 1, 0)
        body = mock_server.bodies[0]
        assert body["model"] == "mock-model"
        assert body["messages"][0]["content"] == "What is the answer?"
        assert body["reasoning_effort"] == "high"

    def test_bearer_header_uses_env_credential(self, mock_server, api_key):
        make_backend(mock_server).evaluate("q1", 0, 0)
        assert mock_server.headers[0]["Authorization"] == f"Bearer {api_key}"

    def test_missing_credential_fails_before_any_request(self, mock_server, monkeypatch):
        monkeypatch.delenv("MOCK_API_KEY", raising=False)
        with pytest.raises(BackendError, match="MOCK_API_KEY"):
            make_backend(mock_server).evaluate("q1", 0, 0)
        assert mock_server.bodies == []

    def test_unknown_sample_or_level_rejected(self, mock_server, api_key):
        backend = make_backend(mock_server)
        with pytest.raises(ValueError, match="unknown sample"):
            backend.evaluate("zzz", 0, 0)
        with pytest.raises(ValueError, match="level index"):
            backend.evaluate("q1", 9, 0)

    def test_retries_on_transient_statuses_then_succeeds(self, mock_server, api_key, monkeypatch):
        naps: list[float] = []
        monkeypatch.setattr("arise.backend.time.sleep", lambda s: naps.append(s))
        mock_server.status_queue = [429, 503]
        outcome = make_backend(mock_server).evaluate("q1", 0, 0)
        assert outcome.correct == 1.0
        assert len(mock_server.bodies) == 3
        assert naps == sorted(naps)  # backoff never shrinks
        assert len(naps) == 2

    def test_gives_up_after_max_attempts(self, mock_server, api_key, monkeypatch):
        monkeypatch.setattr("arise.backend.time.sleep", lambda s: None)
        mock_server.status_queue = [500, 500, 500]
        with pytest.raises(BackendError, match="after 3 attempts"):
            make_backend(mock_server).evaluate("q1", 0, 0)

    def test_non_retryable_status_fails_immediately(self, mock_server, api_key):
        mock_server.status_queue = [404]
        with pytest.raises(BackendError, match="HTTP 404"):
            make_backend(mock_server).evaluate("q1", 0, 0)
        assert len(mock_server.bodies) == 1

    def test_missing_usage_value_raises_extraction_error(self, mock_server, api_key):
        mock_server.reply = lambda body: {"choices": [{"message": {"content": "42"}}]}
        with pytest.raises(TokenExtractionError):
            make_backend(mock_server).evaluate("q1", 0, 0)

    def test_non_integral_usage_value_rejected(self, mock_server, api_key):
        mock_server.reply = lambda body: {
            "choices": [{"message": {"content": "42"}}],
            "usage": {"completion_tokens": 12.7},
        }
        with pytest.raises(TokenExtractionError, match="not an integer"):
            make_backend(mock_server).evaluate("q1", 0, 0)

    def test_missing_response_text_raises(self, mock_server, api_key):
        mock_server.reply = lambda body: {"usage": {"completion_tokens": 5}}
        with pytest.raises(BackendError, match="no text"):
            make_backend(mock_server).evaluate("q1", 0, 0)

    @pytest.mark.parametrize("path, kind", [("/choices/0", "an object"), ("/choices", "an array")])
    def test_response_text_that_is_not_text_is_refused(self, mock_server, api_key, path, kind):
        message = f"response value at {path!r} is {kind}, not text"
        with pytest.raises(BackendError) as err:
            make_backend(mock_server, response_text_path=path).evaluate("q1", 0, 0)
        assert str(err.value) == message
        # the probe is a trial, so it refuses the same reply with the same error
        with pytest.raises(BackendError) as err:
            send_probe(BackendConfig.from_dict(
                backend_config_dict(mock_server.url, response_text_path=path)))
        assert str(err.value) == message

    @pytest.mark.parametrize("content, text", [(42, "42"), (4.5, "4.5"), (True, "True"),
                                               (None, "None")])
    def test_a_number_boolean_or_null_is_judged_as_str_writes_it(self, mock_server, api_key,
                                                                 content, text):
        mock_server.reply = lambda body: {"choices": [{"message": {"content": content}}],
                                          "usage": {"completion_tokens": 3}}
        cfg = BackendConfig.from_dict(backend_config_dict(mock_server.url))
        for expected, correct in ((text, 1.0), ("other", 0.0)):
            task = JudgedTask("q1", "?", ExactMatchJudge(expected))
            assert HttpBackend(cfg, [task]).evaluate("q1", 0, 0) == TrialOutcome(correct, 3.0)

    def test_a_usage_count_beyond_the_float_range_is_refused(self, mock_server, api_key):
        mock_server.reply = lambda body: {"choices": [{"message": {"content": "42"}}],
                                          "usage": {"completion_tokens": 10**400}}
        message = "usage value at '/usage/completion_tokens' is an integer too large for a float"
        with pytest.raises(TokenExtractionError) as err:
            make_backend(mock_server).evaluate("q1", 0, 0)
        assert str(err.value) == message
        with pytest.raises(TokenExtractionError) as err:
            send_probe(BackendConfig.from_dict(backend_config_dict(mock_server.url)))
        assert str(err.value) == message

    def test_credential_never_reaches_logs(self, mock_server, api_key, caplog):
        with caplog.at_level(logging.DEBUG, logger="arise.backend"):
            make_backend(mock_server).evaluate("q1", 0, 0)
        assert caplog.text  # the adapter does log request metadata
        assert api_key not in caplog.text


class TestPacing:
    def test_in_flight_requests_respect_the_cap(self, mock_server, api_key):
        from concurrent.futures import ThreadPoolExecutor

        mock_server.handler_delay = 0.05
        backend = make_backend(mock_server, max_in_flight=2)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda k: backend.evaluate("q1", 0, k), range(8)))
        assert mock_server.max_in_flight <= 2

    def test_request_starts_are_spaced_out(self, mock_server, api_key, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        import arise.backend

        # The limiter sees a clock that stands still, so each start it grants is
        # the clock's reading plus the sleep it asks for, whatever the threads do.
        local = threading.local()
        frozen = types.SimpleNamespace(monotonic=lambda: 100.0,
                                       sleep=lambda delay: setattr(local, "slept", delay))
        monkeypatch.setattr(arise.backend, "time", frozen)
        starts: list[float] = []
        slot = RequestLimiter.slot

        @contextmanager
        def recording_slot(limiter):
            local.slept = 0.0
            with slot(limiter):
                starts.append(100.0 + local.slept)
                yield

        monkeypatch.setattr(RequestLimiter, "slot", recording_slot)
        interval = 0.05
        backend = make_backend(mock_server, max_in_flight=4, min_request_interval=interval)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda k: backend.evaluate("q1", 0, k), range(6)))
        assert len(starts) == len(mock_server.bodies) == 6
        starts.sort()
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap >= interval - 0.005 for gap in gaps)


# ----------------------------------------------------------------------
# dry runs


class TestDryRun:
    def test_renders_one_request_per_level(self, mock_server):
        cfg = BackendConfig.from_dict(backend_config_dict(mock_server.url))
        requests = dry_run(cfg)
        assert len(requests) == 2
        assert requests[0]["reasoning_effort"] == "low"
        assert requests[1]["reasoning_effort"] == "high"
        assert mock_server.bodies == []

    def test_effort_levels_differ_only_in_the_effort_field(self, mock_server):
        data = backend_config_dict(mock_server.url)
        data["levels"] = [
            {"label": lab, "kind": "effort", "request_overrides": {"reasoning_effort": lab}}
            for lab in ("low", "medium", "high")
        ]
        stripped = []
        for request in dry_run(BackendConfig.from_dict(data)):
            body = dict(request)
            body.pop("reasoning_effort")
            stripped.append(body)
        assert stripped[0] == stripped[1] == stripped[2]

    def test_mode_levels_can_rewrite_the_system_prompt(self, mock_server):
        data = backend_config_dict(mock_server.url)
        data["request_template"] = {
            "model": "{{model}}",
            "messages": [
                {"role": "system", "content": "Answer directly."},
                {"role": "user", "content": "{{prompt}}"},
            ],
        }
        data["levels"] = [
            {"label": "no-think", "kind": "mode", "request_overrides": {}},
            {
                "label": "think",
                "kind": "mode",
                "request_overrides": {
                    "messages": [
                        {"role": "system", "content": "Think step by step, then answer."},
                        {"role": "user", "content": "{{prompt}}"},
                    ]
                },
            },
        ]
        requests = dry_run(BackendConfig.from_dict(data))
        assert requests[0]["messages"][0]["content"] == "Answer directly."
        assert requests[1]["messages"][0]["content"].startswith("Think step by step")

    def test_probe_resolves_usage_path(self, mock_server, api_key):
        cfg = BackendConfig.from_dict(backend_config_dict(mock_server.url))
        assert send_probe(cfg) == 128
        # the probe sends the first request that `dry_run` renders, once
        assert mock_server.bodies == [dry_run(cfg)[0]]

    def test_a_probe_failure_raises_the_trials_error(self, mock_server, api_key, monkeypatch):
        monkeypatch.setattr("arise.backend.time.sleep", lambda s: None)
        mock_server.status_queue = [500, 500, 500]
        cfg = BackendConfig.from_dict(backend_config_dict(mock_server.url))
        with pytest.raises(BackendError, match="request failed after 3 attempts: HTTP 500"):
            send_probe(cfg)
        assert len(mock_server.bodies) == 3

    def test_probe_fails_on_a_response_with_no_text_at_the_text_path(self, mock_server, api_key):
        cfg = BackendConfig.from_dict(
            backend_config_dict(mock_server.url, response_text_path="/choices/0/text"))
        with pytest.raises(BackendError) as err:
            send_probe(cfg)
        assert str(err.value) == "response has no text at '/choices/0/text'"
