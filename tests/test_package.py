"""The package namespace: one `arise.<name>` per name a submodule exports."""

from __future__ import annotations

import importlib

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
