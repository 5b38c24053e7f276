"""In-process mock chat-completions server for the `http-run` workload.

The server, not the client, decides every answer: trial t of task s at
level j is graded right with probability p[s][j] and costs a log-normal
number of tokens, both drawn from a stream keyed by (seed, s, j, t). The
server tells trials apart by counting the 200 answers it has sent per
(task, level); that is sound because the sampler keeps the trials of one
configuration strictly sequential. Every tenth first attempt is refused
with 503, so the number of injected refusals is a fixed share of the
trials whatever the seed. Each reply waits a fixed latency first.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REFUSE_EVERY = 10  # every REFUSE_EVERY-th first attempt gets a 503


def keyed_rng(*parts: object) -> random.Random:
    text = "|".join(str(p) for p in parts)
    return random.Random(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big"))


@dataclass(frozen=True)
class MockTask:
    sample_id: str
    prompt: str
    kind: str  # "exact" or "numeric"
    expected: str
    wrong: str
    p_correct: tuple[float, ...]  # per level
    token_log_mean: tuple[float, ...]
    token_log_std: tuple[float, ...]


class MockState:
    """Everything the server decided and saw; shared with the benchmark thread."""

    def __init__(self, seed: int, tasks: list[MockTask], levels: tuple[str, ...], latency_s: float):
        self.seed = seed
        self.by_prompt = {t.prompt: t for t in tasks}
        self.levels = levels
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.next_trial: dict[tuple[str, int], int] = {}
            self.attempts: dict[tuple[str, int, int], int] = {}
            self.sent: dict[tuple[str, int, int], tuple[float, int]] = {}
            self.posts = 0
            self.refused = 0
            self.first_attempts = 0
            self.server_s: list[float] = []
            self.in_flight = 0
            self.max_in_flight = 0

    def answer(self, body: dict) -> tuple[int, dict]:
        """Decide the reply to one request; returns (status, payload)."""
        prompt = body["messages"][-1]["content"]
        task = self.by_prompt.get(prompt)
        with self.lock:
            self.posts += 1
            if task is None:  # a probe
                return 200, _completion("ok", 1)
            j = self.levels.index(body["reasoning_effort"])
            t = self.next_trial.get((task.sample_id, j), 0)
            key = (task.sample_id, j, t)
            tries = self.attempts.get(key, 0)
            self.attempts[key] = tries + 1
            if tries == 0:
                self.first_attempts += 1
                if self.first_attempts % REFUSE_EVERY == 0:
                    self.refused += 1
                    return 503, {"error": {"code": 503, "message": "overloaded"}}
            self.next_trial[(task.sample_id, j)] = t + 1
        rng = keyed_rng(self.seed, task.sample_id, j, t)
        correct = rng.random() < task.p_correct[j]
        tokens = max(1, round(rng.lognormvariate(task.token_log_mean[j], task.token_log_std[j])))
        with self.lock:
            self.sent[key] = (1.0 if correct else 0.0, tokens)
        return 200, _completion(task.expected if correct else task.wrong, tokens)


def _completion(text: str, tokens: int) -> dict:
    return {
        "object": "chat.completion",
        "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
        "usage": {"completion_tokens": tokens},
    }


class MockServer:
    """A ThreadingHTTPServer on 127.0.0.1 with keep-alive, serving MockState."""

    def __init__(self, state: MockState):
        self.state = state

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True  # headers and body go out in separate writes

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                start = time.perf_counter()
                with state.lock:
                    state.in_flight += 1
                    state.max_in_flight = max(state.max_in_flight, state.in_flight)
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    body = json.loads(self.rfile.read(length))
                    status, reply = state.answer(body)
                    time.sleep(state.latency_s)
                    payload = json.dumps(reply).encode()
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                finally:
                    with state.lock:
                        state.in_flight -= 1
                        state.server_s.append(time.perf_counter() - start)

            def log_message(self, *args: object) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/v1/chat/completions"

    def close(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=10)
        self._server.server_close()


def make_tasks(seed: int, n_tasks: int, n_levels: int) -> list[MockTask]:
    """Half exact-match, half numeric-match tasks with per-level outcome laws."""
    rng = keyed_rng(seed, "tasks")
    words = ("Paris", "Lima", "Oslo", "Quito", "Accra", "Hanoi", "Riga", "Doha")
    tasks = []
    for i in range(n_tasks):
        sid = f"t{i:03d}"
        if i % 2 == 0:
            a, b = rng.randint(11, 99), rng.randint(11, 99)
            kind, prompt, expected, wrong = "numeric", f"[{sid}] What is {a} * {b}?", str(a * b), str(a * b + 1)
        else:
            word = words[rng.randrange(len(words))]
            kind, prompt, expected, wrong = "exact", f"[{sid}] Repeat the word {word}.", word, "unsure"
        base = rng.uniform(5.5, 6.8)
        tasks.append(MockTask(
            sample_id=sid, prompt=prompt, kind=kind, expected=expected, wrong=wrong,
            p_correct=tuple(rng.uniform(0.05, 0.95) for _ in range(n_levels)),
            token_log_mean=tuple(base + 0.9 * j + rng.uniform(-0.2, 0.2) for j in range(n_levels)),
            token_log_std=tuple(rng.uniform(0.2, 0.6) for _ in range(n_levels)),
        ))
    return tasks


def backend_config(url: str, tasks: list[MockTask], levels: tuple[str, ...],
                   auth_env_var: str, max_in_flight: int, backoff_s: float) -> dict:
    """An `arise run` config aimed at the mock server."""
    return {
        "backend": {
            "base_url": url,
            "auth_env_var": auth_env_var,
            "model": "mock-reasoner",
            "max_in_flight": max_in_flight,
            "min_request_interval": 0.0,
            "retry": {"max_attempts": 3, "backoff_base": backoff_s},
            "usage_path": "/usage/completion_tokens",
            "response_text_path": "/choices/0/message/content",
            "request_template": {
                "model": "{{model}}",
                "messages": [{"role": "user", "content": "{{prompt}}"}],
            },
            "levels": [
                {"label": label, "kind": "effort", "request_overrides": {"reasoning_effort": label}}
                for label in levels
            ],
        },
        "tasks": [
            {
                "sample_id": t.sample_id,
                "prompt": t.prompt,
                "judge": ({"type": "numeric_match", "expected": t.expected} if t.kind == "numeric"
                          else {"type": "exact_match", "expected": t.expected}),
            }
            for t in tasks
        ],
    }
