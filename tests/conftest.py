"""Shared fixtures: scripted backends and an in-process mock HTTP endpoint."""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterator, Mapping

import pytest

from arise import TrialOutcome


class ScriptedBackend:
    """Returns pre-scripted outcomes keyed by (sample_id, level_index).

    Trial indices past the end of a script repeat its last entry, so a
    script can pin the interesting prefix and stay flat afterwards.
    """

    def __init__(self, script: dict[tuple[str, int], list[TrialOutcome]]):
        self.script = {key: list(seq) for key, seq in script.items()}
        self.calls: list[tuple[str, int, int]] = []

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
        self.calls.append((sample_id, level_index, trial_index))
        seq = self.script[(sample_id, level_index)]
        return seq[trial_index] if trial_index < len(seq) else seq[-1]


class FailingBackend:
    """Raises on trial `fail_at` of every configuration and succeeds on the others."""

    def __init__(self, fail_at: int, outcome: TrialOutcome = TrialOutcome(1.0, 100.0)):
        self.fail_at = fail_at
        self.outcome = outcome
        self.calls: list[tuple[str, int, int]] = []

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
        self.calls.append((sample_id, level_index, trial_index))
        if trial_index == self.fail_at:
            raise ConnectionError(f"backend failure at {(sample_id, level_index, trial_index)}")
        return self.outcome


class MockModelServer:
    """State shared between a test and the in-process HTTP handler."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.url = ""
        self.bodies: list[dict] = []
        self.headers: list[dict[str, str]] = []
        self.in_flight = 0
        self.max_in_flight = 0
        self.status_queue: list[int] = []  # consumed per request; empty means status(body)
        self.status: Callable[[dict], int] = lambda body: 200  # called under `lock`
        self.handler_delay = 0.0
        self.handler_jitter = 0.0  # each reply waits handler_delay plus up to this much more
        self.reply = self.default_reply

    @staticmethod
    def default_reply(body: dict) -> dict:
        return {
            "choices": [{"message": {"content": "42"}}],
            "usage": {"completion_tokens": 128},
        }


@contextmanager
def serve_mock_model() -> Iterator[MockModelServer]:
    """An in-process chat-completions endpoint on a free local port, for one `with` block."""
    state = MockModelServer()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            with state.lock:
                state.in_flight += 1
                state.max_in_flight = max(state.max_in_flight, state.in_flight)
            try:
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                with state.lock:
                    state.bodies.append(body)
                    state.headers.append(dict(self.headers.items()))
                    status = state.status_queue.pop(0) if state.status_queue else state.status(body)
                delay = state.handler_delay + random.uniform(0.0, state.handler_jitter)
                if delay:
                    time.sleep(delay)
            finally:
                # before the reply goes out, so a client's next request never overlaps this one
                with state.lock:
                    state.in_flight -= 1
            reply = state.reply(body) if status == 200 else {"error": {"code": status}}
            payload = json.dumps(reply).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args: object) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # a short poll interval lets shutdown() return quickly
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        yield state
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def body_key(body: dict) -> str:
    """A request body as text, the same for equal bodies."""
    return json.dumps(body, sort_keys=True)


def keyed_reply(server: MockModelServer, start: Mapping[str, int] | None = None) -> Callable[[dict], dict]:
    """A reply that depends only on the body and on how often that body was answered before.

    The sampler keeps the trials of one configuration sequential, so the
    n-th answer to a configuration's body is always its trial n, whatever
    the other configurations do meanwhile. `start` maps a body (as
    `body_key` writes it) to the answers it had before, for a resumed run.
    """
    answered = dict(start or {})

    def reply(body: dict) -> dict:
        key = body_key(body)
        with server.lock:
            occurrence = answered.get(key, 0)
            answered[key] = occurrence + 1
        digest = hashlib.sha256(f"{key}|{occurrence}".encode()).digest()
        scale = 4 if body.get("reasoning_effort") == "high" else 1
        return {
            "choices": [{"message": {"content": "42" if digest[0] % 3 else "41"}}],
            "usage": {"completion_tokens": scale * (40 + digest[1])},
        }

    return reply


@pytest.fixture()
def mock_server():
    with serve_mock_model() as state:
        yield state


def backend_config_dict(url: str, **overrides) -> dict:
    """A minimal two-level chat-completions config pointed at `url`."""
    data = {
        "base_url": url,
        "auth_env_var": "MOCK_API_KEY",
        "model": "mock-model",
        "request_template": {
            "model": "{{model}}",
            "messages": [{"role": "user", "content": "{{prompt}}"}],
        },
        "levels": [
            {"label": "low", "kind": "effort", "request_overrides": {"reasoning_effort": "low"}},
            {"label": "high", "kind": "effort", "request_overrides": {"reasoning_effort": "high"}},
        ],
    }
    data.update(overrides)
    return data


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("MOCK_API_KEY", "sk-mock-test-credential-000")
    return "sk-mock-test-credential-000"


@pytest.fixture()
def cpus(monkeypatch) -> Callable[[int], None]:
    """Set how many CPUs this process may use, as `replicate_study` counts them."""

    def set_count(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)

    return set_count


@pytest.fixture()
def pool_sizes(monkeypatch) -> list[int]:
    """The worker count of every process pool constructed, in order; each pool still runs."""
    import concurrent.futures

    sizes: list[int] = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, *args, **kwargs):
        sizes.append(max_workers)
        return real(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return sizes


@pytest.fixture()
def no_record_reads(monkeypatch) -> Callable[[], object]:
    """A context in which decoding a stored record line raises, but for a resume's one preload.

    `arise run` builds its bundle from the trials it drew, so inside the
    context it runs to the end; the bundle `compute` replays afterwards
    must carry the same bytes.
    """
    import arise.store
    from arise import RunManifest, TraceStore

    real_completed, real_read = TraceStore.completed_trials, arise.store._read_line
    preloading = False

    def completed_trials(self, manifest: RunManifest, resume: bool = False):
        nonlocal preloading
        if not resume:
            raise AssertionError(f"run {manifest.run_id!r}: stored records replayed")
        preloading = True
        try:
            return real_completed(self, manifest, resume=True)
        finally:
            preloading = False

    def read_line(line: bytes, *args: object):
        if not preloading:
            raise AssertionError(f"stored record read outside a resume's preload: {line!r}")
        return real_read(line, *args)

    @contextmanager
    def context() -> Iterator[None]:
        with monkeypatch.context() as patch:
            patch.setattr(TraceStore, "completed_trials", completed_trials)
            patch.setattr(arise.store, "_read_line", read_line)
            yield

    return context
