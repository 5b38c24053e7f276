"""Spans around the program's layer entry points, recorded from outside the program.

`Tracer.install()` replaces each target function or method with a wrapper
that records (name, start, end, parent) and restores the originals on
`uninstall()`. Module-level functions are replaced in every loaded
`arise` module that imported them by name, so calls through
`from .x import f` are seen too. Spans live in per-thread arrays and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, TextIO

# (module, attribute path, span name); the span name's prefix is its layer.
TARGETS = (
    ("arise.cli", "_load_run_config", "cli.config_load"),
    ("arise.simulator", "SyntheticModelSpec.from_file", "cli.config_load"),
    ("arise.simulator", "replicate_study", "simulator.study"),
    ("arise.simulator", "SimulatorBackend.evaluate", "simulator.evaluate"),
    ("arise.simulator", "simulate_trial", "simulator.draw"),
    ("arise.simulator", "SyntheticModelSpec.params", "simulator.params"),
    ("arise.sampling", "run_evaluation", "sampling.run_evaluation"),
    ("arise.sampling", "should_continue", "sampling.should_continue"),
    ("arise.store", "TraceStore.append_trial", "store.append"),
    ("arise.store", "TraceStore.completed_trials", "store.parse"),
    ("arise.store", "TraceStore.recompute", "store.recompute"),
    ("arise.metrics", "arise_aggregate", "metrics.aggregate"),
    ("arise.metrics", "scaling_metric", "metrics.scaling_metric"),
    ("arise.backend", "HttpBackend.evaluate", "backend.evaluate"),
    ("requests", "Session.post", "backend.post"),
)
# run_evaluation's per-trial callback belongs to the caller (the CLI writes the store there).
CALLBACK_SPAN = "cli.on_trial"


@dataclass
class _Buffer:
    name: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    stack: list = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: list[Callable[[], None]] = []
        self.missing: list[str] = []

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def wrap(self, span_name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or self._buffer()
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()

        return traced

    def span(self, span_name: str, fn: Callable, *args, **kwargs):
        """Call fn inside one span of its own."""
        return self.wrap(span_name, fn)(*args, **kwargs)

    def install(self) -> None:
        for module_name, path, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(owner, type):
                self._patch_method(owner, attr, raw, span_name)
            else:
                self._patch_function(raw, span_name)

    def _patch_method(self, cls: type, attr: str, raw: object, span_name: str) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(span_name, raw.__func__))
        else:
            wrapped = self.wrap(span_name, raw)
        setattr(cls, attr, wrapped)
        self._restore.append(lambda: setattr(cls, attr, raw))

    def _patch_function(self, fn: Callable, span_name: str) -> None:
        wrapped = self.wrap(span_name, fn)
        if span_name == "sampling.run_evaluation":
            wrapped = self._trace_callback(wrapped)
        for module in [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "arise"]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._restore.append(functools.partial(setattr, module, attr, fn))

    def _trace_callback(self, run_evaluation: Callable) -> Callable:
        @functools.wraps(run_evaluation)
        def wrapped(*args, **kwargs):
            if kwargs.get("on_trial") is not None:
                kwargs["on_trial"] = self.wrap(CALLBACK_SPAN, kwargs["on_trial"])
            return run_evaluation(*args, **kwargs)

        return wrapped

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds, per span name."""
        out: dict[str, list[float]] = {name: [] for name in self.names}
        with self._lock:
            buffers = list(self._buffers)
        lists = [out[name] for name in self.names]
        for b in buffers:
            for n, s, e in zip(b.name, b.start, b.end):
                lists[n].append(e - s)
        return out

    def self_time(self, root_name: str) -> float:
        """Summed self time of the root spans' layer: each root's duration minus
        the time its descendants from other layers cover."""
        layer = root_name.split(".")[0]
        foreign_ids = {nid for name, nid in self._ids.items() if name.split(".")[0] != layer}
        root = self._ids.get(root_name)
        total = 0.0
        with self._lock:
            buffers = list(self._buffers)
        for b in buffers:
            # children start after their parent, so a reverse pass sees them first
            covered = array("d", bytes(8 * len(b.name)))
            for i in range(len(b.name) - 1, -1, -1):
                nid, parent = b.name[i], b.parent[i]
                if nid == root:
                    total += b.end[i] - b.start[i] - covered[i]
                if parent >= 0:
                    covered[parent] += b.end[i] - b.start[i] if nid in foreign_ids else covered[i]
        return total

    def write(self, fh: TextIO) -> int:
        """Write every span as CSV (thread, index, name, start, end, parent); returns the count."""
        count = 0
        with self._lock:
            buffers = list(self._buffers)
        fh.write("thread,index,name,start_s,end_s,parent\n")
        for t, b in enumerate(buffers):
            for i, (n, s, e, p) in enumerate(zip(b.name, b.start, b.end, b.parent)):
                fh.write(f"{t},{i},{self.names[n]},{s:.9f},{e:.9f},{p}\n")
            count += len(b.name)
        return count
