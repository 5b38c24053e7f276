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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import requests

from .sampling import TrialOutcome
from .store import config_mapping, config_rows, read_mapping

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
    "HttpBackend",
    "DryRunReport",
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


def _given(data: Mapping, **convert: Callable[[Any], Any]) -> dict:
    """The keys of `data` that `convert` names, each value converted; a key the
    config leaves out is left to the dataclass default."""
    return {name: to(data[name]) for name, to in convert.items() if name in data}


def parse_judge(data: Mapping, what: str = "judge") -> Judge:
    kind = config_mapping(data, what).get("type")
    if kind == "exact_match":
        return ExactMatchJudge(expected=str(config_mapping(data, what, "expected")["expected"]))
    if kind == "numeric_match":
        return NumericMatchJudge(expected=float(config_mapping(data, what, "expected")["expected"]),
                                 **_given(data, tol=float))
    if kind == "external":
        command = config_mapping(data, what, "command")["command"]
        if isinstance(command, str) or not command:
            raise ValueError("external judge 'command' must be a non-empty argv list")
        return ExternalJudge(command=tuple(str(c) for c in command))
    raise ValueError(f"unknown judge type {kind!r}")


@dataclass(frozen=True)
class JudgedTask:
    """One prompt plus the judge that grades its responses."""

    sample_id: str
    prompt: str
    judge: Judge


def parse_tasks(entries: Sequence[Mapping]) -> list[JudgedTask]:
    return [
        JudgedTask(
            sample_id=str(e["sample_id"]),
            prompt=str(e["prompt"]),
            judge=parse_judge(e["judge"], f"tasks[{i}].judge"),
        )
        for i, e in enumerate(config_rows(entries, "tasks", "sample_id", "prompt", "judge"))
    ]


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
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.min_request_interval < 0:
            raise ValueError("min_request_interval must be >= 0")

    @property
    def level_labels(self) -> tuple[str, ...]:
        return tuple(lv.label for lv in self.levels)

    @classmethod
    def from_dict(cls, data: Mapping) -> "BackendConfig":
        config_mapping(data, "backend config", "base_url", "auth_env_var", "model",
                       "request_template", "levels")
        return cls(
            base_url=str(data["base_url"]),
            auth_env_var=str(data["auth_env_var"]),
            model=str(data["model"]),
            request_template=data["request_template"],
            levels=tuple(
                LevelSpec(label=str(lv["label"]), kind=str(lv["kind"]),
                          **_given(lv, request_overrides=lambda overrides: overrides))
                for lv in config_rows(data["levels"], "backend config levels", "label", "kind")
            ),
            **_given(
                data,
                usage_path=str,
                response_text_path=str,
                max_in_flight=int,
                min_request_interval=float,
                retry=lambda retry: RetryPolicy(**_given(
                    config_mapping(retry, "backend config retry"), max_attempts=int,
                    backoff_base=float)),
            ),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "BackendConfig":
        return cls.from_dict(read_mapping(path, "backend config"))


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


def _render_request(cfg: BackendConfig, prompt: str, level: LevelSpec) -> tuple[dict, list[str]]:
    values = {
        "prompt": prompt,
        "model": cfg.model,
        "level.label": level.label,
        "level.kind": level.kind,
    }
    rendered, unresolved = render_template(cfg.request_template, values)
    overrides, more_unresolved = render_template(level.request_overrides, values)
    return merge_patch(rendered, overrides), unresolved + more_unresolved


def _extract_tokens(cfg: BackendConfig, payload: Any) -> int:
    try:
        value = resolve_pointer(payload, cfg.usage_path)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise TokenExtractionError(
            f"response has no usage value at {cfg.usage_path!r}"
        ) from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TokenExtractionError(f"usage value at {cfg.usage_path!r} is not a number: {value!r}")
    if isinstance(value, float) and not (math.isfinite(value) and value == int(value)):
        raise TokenExtractionError(f"usage value at {cfg.usage_path!r} is not an integer: {value!r}")
    tokens = int(value)
    if tokens <= 0:
        raise TokenExtractionError(f"usage value at {cfg.usage_path!r} must be > 0, got {tokens}")
    return tokens


class HttpBackend:
    """EvaluationBackend over an HTTP JSON API for a fixed task set."""

    def __init__(self, cfg: BackendConfig, tasks: Sequence[JudgedTask], session: requests.Session | None = None):
        ids = [t.sample_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task sample ids must be unique")
        self.cfg = cfg
        self._tasks = {t.sample_id: t for t in tasks}
        self._limiter = RequestLimiter(cfg.max_in_flight, cfg.min_request_interval)
        self._session = session or requests.Session()

    @property
    def sample_ids(self) -> tuple[str, ...]:
        return tuple(self._tasks)

    @property
    def outcome_config(self) -> dict:
        """What decides the outcomes: the model, the requests, the response paths and the tasks.

        Transport settings (base_url, auth_env_var, max_in_flight,
        min_request_interval, retry) are left out, so a run can resume
        through another endpoint or at another concurrency.
        """
        cfg = self.cfg
        return {
            "model": cfg.model,
            "request_template": cfg.request_template,
            "levels": [asdict(level) for level in cfg.levels],
            "usage_path": cfg.usage_path,
            "response_text_path": cfg.response_text_path,
            "tasks": [
                {"sample_id": t.sample_id, "prompt": t.prompt,
                 "judge": {"type": type(t.judge).__name__, **asdict(t.judge)}}
                for t in self._tasks.values()
            ],
        }

    def evaluate(self, sample_id: str, level_index: int, trial_index: int) -> TrialOutcome:
        """One API call -> one judged trial outcome."""
        task = self._tasks.get(sample_id)
        if task is None:
            raise ValueError(f"unknown sample id {sample_id!r}")
        if not 0 <= level_index < len(self.cfg.levels):
            raise ValueError(f"level index {level_index} out of range")
        level = self.cfg.levels[level_index]
        payload, unresolved = _render_request(self.cfg, task.prompt, level)
        if unresolved:
            raise BackendError(f"unresolved placeholders: {sorted(set(unresolved))}")
        response = self._post(payload, sample_id, level.label, trial_index)
        try:
            text = resolve_pointer(response, self.cfg.response_text_path)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise BackendError(
                f"response has no text at {self.cfg.response_text_path!r}"
            ) from exc
        correct = task.judge.judge(str(text), sample_id)
        tokens = _extract_tokens(self.cfg, response)
        return TrialOutcome(float(correct), float(tokens))

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


@dataclass(frozen=True)
class DryRunReport:
    """What would be sent, per level, and anything that cannot resolve."""

    requests: tuple[dict, ...]  # rendered with a stand-in prompt, one per level
    unresolved: tuple[str, ...]  # placeholder names with no value
    usage_path: str
    probe_tokens: int | None = None  # set when a probe call ran and resolved
    probe_error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.unresolved and self.probe_error is None


def dry_run(cfg: BackendConfig, probe: bool = False, session: requests.Session | None = None) -> DryRunReport:
    """Render one request per level without sending; optionally send one probe.

    Template problems are collected into the report, never raised.
    """
    stand_in = "(sample prompt)"
    rendered: list[dict] = []
    unresolved: list[str] = []
    for level in cfg.levels:
        request, missing = _render_request(cfg, stand_in, level)
        rendered.append(request)
        unresolved.extend(missing)
    probe_tokens: int | None = None
    probe_error: str | None = None
    if probe:
        backend = HttpBackend(
            cfg, [JudgedTask("probe", stand_in, ExactMatchJudge(""))], session=session
        )
        try:
            response = backend._post(rendered[0], "probe", cfg.levels[0].label, 0)
            probe_tokens = _extract_tokens(cfg, response)
        except BackendError as exc:
            probe_error = str(exc)
    return DryRunReport(
        requests=tuple(rendered),
        unresolved=tuple(sorted(set(unresolved))),
        usage_path=cfg.usage_path,
        probe_tokens=probe_tokens,
        probe_error=probe_error,
    )
