"""HTTP adapter that turns judged prompts into trial outcomes.

Speaks to completion-style JSON APIs: one POST per trial, with the request
shaped by a template plus per-level merge-patch overrides, correctness
decided by a pluggable judge, and the token count pulled from a
configurable path in the response. A shared limiter enforces both a
concurrency cap and a minimum interval between request starts. The API
credential is read from a named environment variable at request time and
never logged or persisted.
"""

from __future__ import annotations

import copy
import logging
import math
import os
import re
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import requests

from .sampling import TrialOutcome
from .store import _encode, read_config

__all__ = [
    "BackendError",
    "TokenExtractionError",
    "JudgeError",
    "ExactMatchJudge",
    "NumericMatchJudge",
    "ExternalJudge",
    "JudgedTask",
    "LevelSpec",
    "RetryPolicy",
    "RequestLimiter",
    "BackendConfig",
    "HttpRunConfig",
    "HttpBackend",
    "send_probe",
    "merge_patch",
    "resolve_pointer",
    "render_template",
    "parse_judge",
    "parse_tasks",
    "dry_run",
]

log = logging.getLogger("arise.backend")

_PLACEHOLDER = re.compile(r"\{\{([A-Za-z0-9_.]+)\}\}")
_RETRY_STATUSES = {429} | set(range(500, 600))
_STAND_IN = "(sample prompt)"  # the prompt of `dry_run`'s requests and of the probe's task
# the `BackendConfig` fields that say how a request travels, not what it asks: never hashed
_TRANSPORT = ("base_url", "auth_env_var", "max_in_flight", "min_request_interval", "retry")


class BackendError(RuntimeError):
    """The API call could not produce a usable response."""


class TokenExtractionError(BackendError):
    """The response lacks a positive integer at the usage path."""


class JudgeError(BackendError):
    """The judging process itself failed (not a wrong answer)."""

    def __init__(self, message: str, response: str):
        super().__init__(message)
        self.response = response  # raw model response text for postmortems


def merge_patch(target: Any, patch: Any) -> Any:
    """Apply a JSON merge patch: objects merge recursively, null deletes a key."""
    if not isinstance(patch, dict):
        return copy.deepcopy(patch)
    result = dict(target) if isinstance(target, dict) else {}
    for key, value in patch.items():
        if value is None:
            result.pop(key, None)
        else:
            result[key] = merge_patch(result.get(key), value)
    return result


def resolve_pointer(document: Any, path: str) -> Any:
    """Walk a slash-separated path ('/usage/completion_tokens'); ints index lists."""
    node = document
    for segment in path.strip("/").split("/"):
        if not segment:
            continue
        if isinstance(node, list):
            node = node[int(segment)]
        elif isinstance(node, dict):
            node = node[segment]
        else:
            raise KeyError(segment)
    return node


def render_template(template: Any, values: Mapping[str, str]) -> tuple[Any, list[str]]:
    """Substitute {{name}} placeholders in every string of a JSON-like tree.

    Returns the rendered copy and the names of any placeholders that had no
    value (left in place for the caller to report).
    """
    unresolved: list[str] = []

    def walk(node: Any) -> Any:
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        if isinstance(node, str):
            def sub(match: re.Match) -> str:
                name = match.group(1)
                if name in values:
                    return str(values[name])
                unresolved.append(name)
                return match.group(0)
            return _PLACEHOLDER.sub(sub, node)
        return node

    return walk(template), unresolved


# ----------------------------------------------------------------------
# judges


@dataclass(frozen=True)
class ExactMatchJudge:
    expected: str

    def judge(self, text: str, sample_id: str) -> float:
        return 1.0 if text.strip() == self.expected.strip() else 0.0


@dataclass(frozen=True)
class NumericMatchJudge:
    expected: float
    tol: float = 0.0

    def __post_init__(self) -> None:
        if not self.tol >= 0:  # NaN fails too: such a judge marks no answer correct
            raise ValueError(f"numeric_match tol must be >= 0, got {self.tol}")

    def judge(self, text: str, sample_id: str) -> float:
        try:
            value = float(text.strip())
        except ValueError:
            return 0.0  # non-numeric answer is wrong, not a judge failure
        return 1.0 if abs(value - self.expected) <= self.tol else 0.0


@dataclass(frozen=True)
class ExternalJudge:
    """Delegates to a command: response text on stdin, sample id as the last argument.

    The command must exit 0 and print '1' or '0' on stdout; anything else is
    a judging error.
    """

    command: tuple[str, ...]

    def judge(self, text: str, sample_id: str) -> float:
        try:
            proc = subprocess.run(
                [*self.command, sample_id],
                input=text,
                capture_output=True,
                text=True,
                timeout=120,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise JudgeError(f"judge command failed to run: {exc}", response=text) from exc
        if proc.returncode != 0:
            raise JudgeError(
                f"judge command exited {proc.returncode}: {proc.stderr.strip()[:200]}",
                response=text,
            )
        verdict = proc.stdout.strip()
        if verdict not in ("0", "1"):
            raise JudgeError(f"judge printed {verdict!r}, expected '0' or '1'", response=text)
        return float(verdict)


Judge = ExactMatchJudge | NumericMatchJudge | ExternalJudge
# a judge config's `type` -> the class that its other keys are read into
_JUDGES = {"exact_match": ExactMatchJudge, "numeric_match": NumericMatchJudge,
           "external": ExternalJudge}


def _read_argv(command: object, what: str, key: str) -> tuple[str, ...]:
    if not isinstance(command, list) or not command:
        raise ValueError(f"{what} {key!r} must be a non-empty argv list, got {command!r}")
    for i, arg in enumerate(command):  # an argument is never made into text
        if not isinstance(arg, str) or not arg:
            raise ValueError(f"{what} {key!r}[{i}] must be a non-empty string, got {arg!r}")
    return tuple(command)


def parse_judge(data: Mapping, what: str = "judge") -> Judge:
    """The judge class that `data`'s `type` names, read from `data`'s other keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a mapping, got {type(data).__name__}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _JUDGES:
        raise ValueError(f"unknown judge type {kind!r}")
    return read_config(_JUDGES[kind], {k: v for k, v in data.items() if k != "type"}, what,
                       command=_read_argv)


@dataclass(frozen=True)
class JudgedTask:
    """One prompt plus the judge that grades its responses."""

    sample_id: str
    prompt: str
    judge: Judge


def parse_tasks(entries: Sequence[Mapping]) -> tuple[JudgedTask, ...]:
    # a task is a list entry, so its judge is named `tasks[i].judge`
    return read_config(tuple[JudgedTask, ...], entries, "tasks",
                       judge=lambda data, task, key: parse_judge(data, f"{task}.{key}"))


# ----------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class LevelSpec:
    """One scaling level: a label, its kind, and the request shape it implies."""

    label: str
    kind: str  # "effort" (e.g. low/medium/high) or "mode" (e.g. think/no-think)
    request_overrides: Mapping = field(default_factory=dict)  # JSON merge patch


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_base: float = 0.5  # seconds; delay doubles per attempt

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"retry max_attempts must be >= 1, got {self.max_attempts}")
        if not 0 <= self.backoff_base < math.inf:  # NaN fails too
            raise ValueError(f"retry backoff_base must be finite and >= 0, got {self.backoff_base}")


@dataclass(frozen=True)
class BackendConfig:
    base_url: str
    auth_env_var: str  # name of the variable holding the credential
    model: str
    request_template: Mapping
    levels: tuple[LevelSpec, ...]
    usage_path: str = "/usage/completion_tokens"
    response_text_path: str = "/choices/0/message/content"
    max_in_flight: int = 1
    min_request_interval: float = 0.0  # seconds between request starts
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ValueError(f"backend config needs at least 2 levels, got {len(self.levels)}")
        labels = [lv.label for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise ValueError("level labels must be unique")
        for lv in self.levels:
            if lv.kind not in ("effort", "mode"):
                raise ValueError(f"level {lv.label!r} has unknown kind {lv.kind!r}")
        values = _request_values(self, self.levels[0], "")  # a name is known whatever its value
        trees = (self.request_template, *(lv.request_overrides for lv in self.levels))
        unknown = sorted({name for tree in trees for name in render_template(tree, values)[1]})
        if unknown:
            raise ValueError(f"backend config has unknown placeholders {unknown}; "
                             f"known: {', '.join(values)}")
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if not 0 <= self.min_request_interval < math.inf:  # NaN fails too
            raise ValueError(f"min_request_interval must be finite and >= 0, "
                             f"got {self.min_request_interval}")

    @property
    def level_labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    @classmethod
    def from_dict(cls, data: Mapping) -> "BackendConfig":
        return read_config(cls, data, "backend config")


@dataclass(frozen=True)
class HttpRunConfig:
    """An HTTP run config: the backend and the tasks a run asks it (`--dry-run` needs none)."""

    backend: BackendConfig
    tasks: tuple[JudgedTask, ...] = ()


class RequestLimiter:
    """Caps concurrent requests and spaces out request starts globally."""

    def __init__(self, max_in_flight: int, min_interval: float):
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._clock_lock = threading.Lock()
        self._min_interval = min_interval
        self._next_start = 0.0

    @contextmanager
    def slot(self) -> Iterator[None]:
        with self._slots:
            with self._clock_lock:
                now = time.monotonic()
                start = max(now, self._next_start)
                self._next_start = start + self._min_interval
            delay = start - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            yield


def _request_values(cfg: BackendConfig, level: LevelSpec, prompt: str) -> dict[str, str]:
    """The value of each placeholder a request may hold; its keys are the only names known."""
    return {"prompt": prompt, "model": cfg.model, "level.label": level.label,
            "level.kind": level.kind}


def _render_request(cfg: BackendConfig, prompt: str, level: LevelSpec) -> dict:
    # every placeholder resolves: `BackendConfig` refuses an unknown one
    values = _request_values(cfg, level, prompt)
    return merge_patch(render_template(cfg.request_template, values)[0],
                       render_template(level.request_overrides, values)[0])


def _response_text(cfg: BackendConfig, payload: Any) -> str:
    """The text a judge reads: a string, or a number, boolean or null as `str` writes it."""
    try:
        value = resolve_pointer(payload, cfg.response_text_path)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise BackendError(f"response has no text at {cfg.response_text_path!r}") from exc
    if isinstance(value, (dict, list)):
        kind = "an object" if isinstance(value, dict) else "an array"
        raise BackendError(f"response value at {cfg.response_text_path!r} is {kind}, not text")
    return str(value)


def _extract_tokens(cfg: BackendConfig, payload: Any) -> float:
    """The whole, positive count at the usage path, as the float a trial outcome holds."""
    try:
        value = resolve_pointer(payload, cfg.usage_path)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise TokenExtractionError(
            f"response has no usage value at {cfg.usage_path!r}"
        ) from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TokenExtractionError(f"usage value at {cfg.usage_path!r} is not a number: {value!r}")
    try:
        tokens = float(value)
    except OverflowError:  # an integer such as 10**400
        raise TokenExtractionError(
            f"usage value at {cfg.usage_path!r} is an integer too large for a float") from None
    if not (math.isfinite(tokens) and tokens.is_integer()):
        raise TokenExtractionError(f"usage value at {cfg.usage_path!r} is not an integer: {value!r}")
    if tokens <= 0:
        raise TokenExtractionError(
            f"usage value at {cfg.usage_path!r} must be > 0, got {int(tokens)}")
    return tokens


class HttpBackend:
    """EvaluationBackend over an HTTP JSON API for a fixed task set."""

    def __init__(self, cfg: BackendConfig, tasks: Sequence[JudgedTask]):
        ids = [t.sample_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task sample ids must be unique")
        self.cfg = cfg
        self._tasks = {t.sample_id: t for t in tasks}
        self._limiter = RequestLimiter(cfg.max_in_flight, cfg.min_request_interval)
        self._session = requests.Session()

    @property
    def outcome_config(self) -> dict:
        """What decides the outcomes: every `BackendConfig` field not in `_TRANSPORT` (so a new
        field is hashed), and the tasks, each judge with its class name as `type`. Transport
        settings are left out, so a run can resume through another endpoint or concurrency."""
        config = {k: v for k, v in _encode(self.cfg).items() if k not in _TRANSPORT}
        config["tasks"] = [{**_encode(t), "judge": {"type": type(t.judge).__name__,
                                                    **_encode(t.judge)}}
                           for t in self._tasks.values()]
        return config

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
        """One API call -> one judged trial outcome."""
        task = self._tasks.get(sample_id)
        if task is None:
            raise ValueError(f"unknown sample id {sample_id!r}")
        if not 0 <= level_index < len(self.cfg.levels):
            raise ValueError(f"level index {level_index} out of range")
        level = self.cfg.levels[level_index]
        response = self._post(_render_request(self.cfg, task.prompt, level), sample_id,
                              level.label, trial_index)
        correct = task.judge.judge(_response_text(self.cfg, response), sample_id)
        return TrialOutcome(float(correct), _extract_tokens(self.cfg, response))

    def _post(self, payload: dict, sample_id: str, level_label: str, trial_index: int) -> Any:
        credential = os.environ.get(self.cfg.auth_env_var)
        if not credential:
            raise BackendError(
                f"credential environment variable {self.cfg.auth_env_var!r} is not set"
            )
        headers = {"Authorization": f"Bearer {credential}"}
        policy = self.cfg.retry
        last_error: Exception | None = None
        for attempt in range(1, policy.max_attempts + 1):
            log.debug(
                "POST %s sample=%s level=%s trial=%d attempt=%d/%d",
                self.cfg.base_url, sample_id, level_label, trial_index, attempt, policy.max_attempts,
            )
            with self._limiter.slot():
                try:
                    resp = self._session.post(
                        self.cfg.base_url, json=payload, headers=headers, timeout=120
                    )
                except requests.RequestException as exc:
                    last_error = exc
                else:
                    if resp.status_code == 200:
                        try:
                            return resp.json()
                        except ValueError as exc:
                            raise BackendError(f"response is not JSON: {exc}") from exc
                    if resp.status_code not in _RETRY_STATUSES:
                        raise BackendError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                    last_error = BackendError(f"HTTP {resp.status_code}")
            if attempt < policy.max_attempts:
                # exponential, therefore non-decreasing, backoff
                time.sleep(policy.backoff_base * 2 ** (attempt - 1))
        raise BackendError(
            f"request failed after {policy.max_attempts} attempts: {last_error}"
        ) from last_error


def dry_run(cfg: BackendConfig) -> tuple[dict, ...]:
    """The request each level would send, rendered with the stand-in prompt; nothing is sent.
    Every placeholder resolves: `BackendConfig` refuses an unknown one."""
    return tuple(_render_request(cfg, _STAND_IN, level) for level in cfg.levels)


def send_probe(cfg: BackendConfig) -> int:
    """One trial of a stand-in task at the first level, `HttpBackend.evaluate` of `dry_run`'s
    first request: a reply that a trial refuses raises the trial's BackendError. Returns the
    trial's token count."""
    task = JudgedTask("probe", _STAND_IN, ExactMatchJudge(""))
    return int(HttpBackend(cfg, [task]).evaluate("probe", 0, 0).tokens)
