"""Golden outputs: what `arise` writes for fixed inputs, compared byte for byte.

Each case runs CLI commands at a fixed seed and returns the files and
stdout they produce. Every output must equal its checked-in copy under
`tests/golden/<case>/`, except for wall-clock values (`started_at` in manifests
and bundles, `timestamp` in trial records), which are masked on both
sides. HTTP cases run against the in-process mock server, whose reply
is a function of the request body and of how many times that body was
answered before (`conftest.keyed_reply`), so a configuration's n-th
trial always gets the same reply.

Regenerate the fixtures (only when an output is meant to change) with
`PYTHONPATH=src:tests python tests/test_golden.py`.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from arise import HttpBackend, SimulatorBackend
from arise.cli import main
from arise.store import (_RECORD_FIELDS, ResultBundle, RunManifest, TraceStore, _check_record,
                         _decode, _encode)

from conftest import MockModelServer, backend_config_dict, keyed_reply, serve_mock_model

GOLDEN = Path(__file__).parent / "golden"
SPEC = Path(__file__).parent.parent / "configs" / "reference_spec.json"
API_KEY_VAR = "MOCK_API_KEY"
_WALL_CLOCK = re.compile(rb'"(started_at|timestamp)": "[^"]*"')


def masked(data: bytes) -> bytes:
    return _WALL_CLOCK.sub(rb'"\1": "*"', data)


def invoke(*args: str) -> str:
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return result.stdout


def run_files(out: Path, run_id: str, prefix: str, stdout: str) -> dict[str, bytes]:
    return {
        f"{prefix}.stdout": stdout.encode(),
        f"{prefix}.jsonl": (out / f"{run_id}.jsonl").read_bytes(),
        f"{prefix}.manifest.json": (out / f"{run_id}.manifest.json").read_bytes(),
        f"{prefix}.bundle.json": (out / f"{run_id}.bundle.json").read_bytes(),
    }


def sim_runs(tmp: Path) -> dict[str, bytes]:
    """Adaptive, naive:3 and budget runs of the reference spec, one table format each, then `report`."""
    out = tmp / "runs"
    files: dict[str, bytes] = {}
    for prefix, fmt, mode in (("sim_adaptive", "markdown", ()),
                              ("sim_naive3", "csv", ("--naive", "3")),
                              ("sim_budget", "json", ("--budget", "150"))):
        stdout = invoke("--seed", "7", "--format", fmt, "run", str(SPEC), *mode,
                        "--out", str(out), "--run-id", prefix)
        files.update(run_files(out, prefix, prefix, stdout))
    exports = tmp / "exports"
    bundles = [str(out / f"{p}.bundle.json") for p in ("sim_adaptive", "sim_naive3", "sim_budget")]
    files["report.stdout"] = invoke(
        "--sm-x1000", "report", *bundles, "--curves", "--transitions",
        "--results-csv", str(exports / "results.csv"), "--out-dir", str(exports),
    ).encode()
    for path in sorted(exports.iterdir()):
        files[f"report.{path.name}"] = path.read_bytes()
    return files


def simulate_outputs(tmp: Path) -> dict[str, bytes]:
    """`simulate` in every table format, with the per-run CSV."""
    tmp.mkdir(parents=True, exist_ok=True)
    files: dict[str, bytes] = {}
    for fmt in ("markdown", "csv", "json"):
        csv_path = tmp / f"simulate.{fmt}.csv"
        files[f"simulate.{fmt}.stdout"] = invoke(
            "--seed", "11", "--format", fmt, "simulate", str(SPEC), "--runs", "3",
            "-m", "adaptive", "-m", "naive:1", "-m", "budget", "-m", "budget:100",
            "--out", str(csv_path),
        ).encode()
        per_run = csv_path.read_bytes()
        assert files.setdefault("simulate.out.csv", per_run) == per_run  # the format is stdout's only
    return files


def http_config(tmp: Path, server: MockModelServer) -> Path:
    """The golden HTTP runs' config: three tasks against the mock server."""
    config = {
        "backend": backend_config_dict(server.url, retry={"max_attempts": 3, "backoff_base": 0.0}),
        "tasks": [
            {"sample_id": f"q{i}", "prompt": f"Question {i}: what is six times seven?",
             "judge": {"type": "exact_match", "expected": "42"}}
            for i in range(3)
        ],
    }
    tmp.mkdir(parents=True, exist_ok=True)
    path = tmp / "mock_backend.json"
    path.write_text(json.dumps(config))
    return path


def http_runs(tmp: Path, server: MockModelServer) -> dict[str, bytes]:
    """A naive and a --budget run against the mock server."""
    path = http_config(tmp, server)
    out = tmp / "runs"
    files: dict[str, bytes] = {}
    for prefix, mode in (("http_naive", ("--naive", "4")), ("http_budget", ("--budget", "30"))):
        server.reply = keyed_reply(server)
        stdout = invoke("run", str(path), *mode, "--out", str(out), "--run-id", prefix)
        files.update(run_files(out, prefix, prefix, stdout))
    return files


def compare(case: str, actual: dict[str, bytes]) -> None:
    expected_dir = GOLDEN / case
    assert sorted(actual) == sorted(p.name for p in expected_dir.iterdir())
    for name, data in actual.items():
        expected = (expected_dir / name).read_bytes()
        assert masked(data) == masked(expected), f"{case}/{name} differs from its golden copy"


def test_simulator_runs_and_report_match_golden(tmp_path):
    compare("sim", sim_runs(tmp_path))


def test_simulate_matches_golden(tmp_path):
    compare("simulate", simulate_outputs(tmp_path))


def test_http_runs_match_golden(tmp_path, mock_server, api_key):
    compare("http", http_runs(tmp_path, mock_server))


def test_stored_files_survive_a_decode_and_re_encode():
    """Every checked-in record line, manifest and bundle reads back and writes out the same bytes;
    each record line agrees with its own run's manifest."""
    paths = sorted(GOLDEN.glob("**/*.jsonl"))
    assert paths
    for path in paths:
        run = TraceStore(path.parent).read_manifest(path.stem)
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            data = json.loads(line)
            _check_record(data, run)
            assert tuple(data) == _RECORD_FIELDS and json.dumps(data) == line
    for suffix, cls in ((".manifest.json", RunManifest), (".bundle.json", ResultBundle)):
        paths = sorted(GOLDEN.glob(f"**/*{suffix}"))
        assert paths
        for path in paths:
            text = path.read_text()
            assert json.dumps(_encode(_decode(cls, json.loads(text))), indent=2) == text, path


GOLDEN_RUNS = sorted(p.relative_to(GOLDEN).as_posix().removesuffix(".manifest.json")
                     for p in GOLDEN.glob("*/*.manifest.json"))


@pytest.mark.parametrize("run", GOLDEN_RUNS)
def test_every_golden_run_computes_to_its_bundle(run):
    """No configuration of a finished run stops short of its stop rule."""
    group, run_id = run.split("/")
    bundle = TraceStore(GOLDEN / group).recompute(run_id)
    assert json.dumps(_encode(bundle), indent=2) == (GOLDEN / f"{run}.bundle.json").read_text()


@pytest.mark.parametrize("run", GOLDEN_RUNS)
def test_compute_streams_the_bytes_of_to_json(tmp_path, run):
    """The bundle file `compute` streams is `json.dumps(_encode(bundle), indent=2)`, byte for byte."""
    group, run_id = run.split("/")
    out = tmp_path / "bundle.json"
    invoke("compute", str(GOLDEN / group), "--run-id", run_id, "--out", str(out))
    text = json.dumps(_encode(TraceStore(GOLDEN / group).recompute(run_id)), indent=2)
    assert out.read_text() == text == (GOLDEN / f"{run}.bundle.json").read_text()
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("run", GOLDEN_RUNS)
def test_a_resume_of_a_finished_golden_run_draws_nothing(tmp_path, monkeypatch, mock_server,
                                                         api_key, run):
    """`run --resume` replays every stored trial, draws none, and rewrites the golden files."""
    group, run_id = run.split("/")
    for suffix in (".jsonl", ".manifest.json"):
        (tmp_path / f"{run_id}{suffix}").write_bytes((GOLDEN / f"{run}{suffix}").read_bytes())

    def draw(backend, *trial):
        raise AssertionError(f"a finished run drew trial {trial}")

    monkeypatch.setattr(SimulatorBackend, "evaluate", draw)
    monkeypatch.setattr(HttpBackend, "evaluate", draw)
    if group == "sim":
        args = ["--seed", "7", "run", str(SPEC)]
    else:
        args = ["run", str(http_config(tmp_path / "config", mock_server))]
    invoke(*args, "--out", str(tmp_path), "--run-id", run_id, "--resume")
    for suffix in (".jsonl", ".manifest.json", ".bundle.json"):
        assert (tmp_path / f"{run_id}{suffix}").read_bytes() == (
            GOLDEN / f"{run}{suffix}").read_bytes(), suffix


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.setdefault(API_KEY_VAR, "sk-golden")
    with tempfile.TemporaryDirectory() as tmp, serve_mock_model() as server:
        root = Path(tmp)
        cases = {"sim": sim_runs(root / "sim"), "simulate": simulate_outputs(root / "simulate"),
                 "http": http_runs(root / "http", server)}
    for case, outputs in cases.items():
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, data in sorted(outputs.items()):
            (GOLDEN / case / name).write_bytes(data)
            sys.stdout.write(f"wrote {GOLDEN / case / name} ({len(data)} bytes)\n")
