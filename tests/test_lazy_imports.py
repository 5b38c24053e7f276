"""What each command loads: only HTTP paths import `arise.backend` and `requests`.

Each case runs in a child process, because the test process has already
imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arise

SRC = str(Path(arise.__file__).resolve().parent.parent)
HTTP_MODULES = ("requests", "arise.backend")

# prints which of HTTP_MODULES the process has loaded
LOADED = f"import json, sys; print(json.dumps([m for m in {HTTP_MODULES!r} if m in sys.modules]))"
# runs the CLI on argv first
CLI = f"""
import sys
from arise.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
{LOADED}
"""


def loaded_by(code: str, *argv: str, cwd: Path) -> list[str]:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("lazy")
    (path / "spec.json").write_text(json.dumps(arise.reference_spec().to_dict()))
    return path


def test_import_arise_leaves_the_backend_unloaded(workdir):
    assert loaded_by("import arise\n" + LOADED, cwd=workdir) == []


# in order: run writes the store that compute reads and the bundle that report renders
@pytest.mark.parametrize("argv", [
    ("--help",),
    ("run", "spec.json", "--naive", "1", "--out", "runs", "--run-id", "r1"),
    ("compute", "runs", "--run-id", "r1"),
    ("report", "runs/r1.bundle.json", "--out-dir", "exports", "--curves"),
    ("simulate", "spec.json", "--runs", "1", "-m", "naive:1"),
], ids=lambda argv: argv[0])
def test_command_leaves_the_backend_unloaded(workdir, argv):
    assert loaded_by(CLI, *argv, cwd=workdir) == []


def test_backend_names_load_on_first_use(workdir):
    code = "from arise import HttpBackend\n" + LOADED
    assert loaded_by(code, cwd=workdir) == list(HTTP_MODULES)
