"""The package namespace: one `arise.<name>` per name a submodule exports."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import arise

MODULES = ("metrics", "sampling", "simulator", "store", "backend")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_is_reachable_from_the_package(module_name):
    module = importlib.import_module(f"arise.{module_name}")
    for name in module.__all__:
        assert getattr(arise, name) is getattr(module, name), name
        assert name in arise.__all__, name


def test_package_all_has_no_duplicates():
    assert len(arise.__all__) == len(set(arise.__all__))


def test_request_limiter_stays_exported():
    assert arise.RequestLimiter is importlib.import_module("arise.backend").RequestLimiter


def test_every_traced_entry_point_exists(monkeypatch):
    """`perfbench --trace 1` wraps these by name; a renamed one must fail here, not only there."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracing.TARGETS and tracer.missing == []
