"""The package namespace: one `arise.<name>` per name a submodule exports."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import arise

MODULES = ("metrics", "sampling", "simulator", "store", "backend")
SOURCE = Path(arise.__file__).resolve().parent


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


def module_imports(tree: ast.Module) -> dict[str, int]:
    """The names a module's own imports bind (not those inside a function or a class) -> line."""
    bound: dict[str, int] = {}
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        else:
            nodes.extend(ast.iter_child_nodes(node))
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code or in a string annotation, and every name in its
    `__all__`, which it may import only to export."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def test_no_module_imports_a_name_it_does_not_use():
    """An import that a removal left behind fails here."""
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in module_imports(tree).items() if name not in used]
    assert unused == []


def is_click_command(node: ast.AST) -> bool:
    """Decorated with `<group>.command(...)` or `click.group(...)`: click calls it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_no_definition_is_only_used_by_tests():
    """Every function, method and class of the package is named by package code, listed in an
    `__all__` or a click command: code that only tests call is dead code with a test."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    named, exported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                exported.update(ast.literal_eval(node.value))
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in named | exported and not is_click_command(node)]
    assert unused == []


def caught_names(handler: ast.ExceptHandler) -> set[str]:
    """The names an `except` clause catches: `except X`, `except m.X` and `except (X, Y)`."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else t.attr
            for t in types if isinstance(t, (ast.Name, ast.Attribute))}


def test_every_exception_class_is_caught_by_package_code():
    """An exception class is kept only where a caller tells it apart: some `except` clause of the
    package names it. One that none names raises what its base would, under another name."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    caught = {name for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for name in caught_names(node)}
    uncaught = []
    for stem, tree in trees.items():
        module = importlib.import_module("arise" if stem == "__init__" else f"arise.{stem}")
        uncaught += [f"{stem}.py:{node.lineno} {node.name}" for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and issubclass(getattr(module, node.name), BaseException)
                     and node.name not in caught]
    assert uncaught == []
