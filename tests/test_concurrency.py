"""HTTP runs draw several configurations at once, and no stored byte that matters depends on it.

The mock server answers with jittered latency, so requests finish in a
different order on every run. Its replies are keyed by request body and
by how often that body was answered before (`conftest.keyed_reply`), and
it refuses every fifth request of a body with 503, so what a
configuration draws does not depend on the other configurations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import arise
from arise.cli import main

from conftest import MockModelServer, backend_config_dict, body_key, keyed_reply

PROMPTS = {f"q{i}": f"Question {i}: what is six times seven?" for i in range(4)}
MODES = {"naive": ("--naive", "3"), "budget": ("--budget", "40")}
SRC = str(Path(arise.__file__).resolve().parent.parent)


class Served:
    """Points the mock server at fresh keyed replies and counts what it sent."""

    def __init__(self, server: MockModelServer, start: dict[str, int] | None = None):
        self.server = server
        self.refused = 0
        requests: Counter[str] = Counter()

        def status(body: dict) -> int:  # under server.lock
            key = body_key(body)
            requests[key] += 1
            if requests[key] % 5 == 3:  # never twice in a row, so no trial runs out of retries
                self.refused += 1
                return 503
            return 200

        server.reply = keyed_reply(server, start)
        server.status = status
        server.handler_jitter = 0.004
        server.bodies.clear()
        server.max_in_flight = 0

    @property
    def posts(self) -> int:
        return len(self.server.bodies)


def write_config(directory: Path, url: str, max_in_flight: int) -> Path:
    config = {
        "backend": backend_config_dict(url, max_in_flight=max_in_flight,
                                       retry={"max_attempts": 3, "backoff_base": 0.0}),
        "tasks": [{"sample_id": sid, "prompt": prompt,
                   "judge": {"type": "exact_match", "expected": "42"}}
                  for sid, prompt in PROMPTS.items()],
    }
    directory.mkdir(parents=True)
    path = directory / "mock.json"  # one name, so every run records the same benchmark
    path.write_text(json.dumps(config))
    return path


def run(config: Path, out: Path, *args: str) -> str:
    result = CliRunner().invoke(main, ["run", str(config), "--out", str(out), "--run-id", "r", *args])
    assert result.exit_code == 0, result.output
    return result.stdout


def bundle_without_clock(out: Path) -> dict:
    bundle = json.loads((out / "r.bundle.json").read_text())
    del bundle["manifest"]["started_at"]
    return bundle


def records_without_clock(out: Path) -> list[dict]:
    lines = [json.loads(line) for line in (out / "r.jsonl").read_text().splitlines()]
    for line in lines:
        del line["timestamp"]
    return lines


@pytest.mark.parametrize("mode", sorted(MODES))
def test_bundles_do_not_depend_on_max_in_flight(tmp_path, mock_server, api_key, mode):
    outs, stdouts, in_flight = {}, {}, {}
    for max_in_flight in (1, 4):
        served = Served(mock_server)
        config = write_config(tmp_path / f"config{max_in_flight}", mock_server.url, max_in_flight)
        out = outs[max_in_flight] = tmp_path / f"runs{max_in_flight}"
        stdouts[max_in_flight] = run(config, out, *MODES[mode])
        trials = len(records_without_clock(out))
        assert served.posts == trials + served.refused
        assert served.refused > 0
        in_flight[max_in_flight] = mock_server.max_in_flight

    # arise run draws max_in_flight configurations at once
    assert in_flight[1] == 1
    assert 2 <= in_flight[4] <= 4
    assert stdouts[1] == stdouts[4]
    assert bundle_without_clock(outs[1]) == bundle_without_clock(outs[4])
    # the bundle bytes match too, wall clock aside; only the record line order may vary
    texts = [(outs[k] / "r.bundle.json").read_text().splitlines() for k in (1, 4)]
    assert [line for line in texts[0] if "started_at" not in line] == [
        line for line in texts[1] if "started_at" not in line
    ]
    key = lambda r: (r["sample_id"], r["level_index"], r["trial_index"])  # noqa: E731
    assert sorted(records_without_clock(outs[1]), key=key) == sorted(
        records_without_clock(outs[4]), key=key)

    # any line order a concurrent run could write replays to the same bytes
    reordered = tmp_path / "reordered"
    reordered.mkdir()
    (reordered / "r.manifest.json").write_bytes((outs[4] / "r.manifest.json").read_bytes())
    lines = (outs[4] / "r.jsonl").read_text().splitlines(keepends=True)
    (reordered / "r.jsonl").write_text("".join(reversed(lines)))
    result = CliRunner().invoke(main, ["compute", str(reordered), "--run-id", "r"])
    assert result.exit_code == 0, result.output
    assert (reordered / "r.bundle.json").read_bytes() == (outs[4] / "r.bundle.json").read_bytes()


def cut_run(tmp_path: Path, server: MockModelServer, max_in_flight: int,
            mode: str) -> tuple[Path, Path, Path, dict[str, int]]:
    """A run drawn whole, and a copy of it cut inside a record line: (config, whole run's store,
    cut store, answers each body had before the cut), the last for `Served(server, start)`, so
    the server resumes each configuration at the trial the store resumes it at."""
    config = write_config(tmp_path / "config", server.url, max_in_flight)
    full = tmp_path / "full"
    Served(server)
    run(config, full, *MODES[mode])
    bodies = {(b["messages"][0]["content"], b["reasoning_effort"]): body_key(b)
              for b in server.bodies}

    data = (full / "r.jsonl").read_bytes()
    cut = data.index(b"\n", len(data) // 2) - 10  # inside a record line
    cut_dir = tmp_path / "cut"
    cut_dir.mkdir()
    (cut_dir / "r.manifest.json").write_bytes((full / "r.manifest.json").read_bytes())
    (cut_dir / "r.jsonl").write_bytes(data[:cut])
    kept = Counter((r["sample_id"], r["level_index"])
                   for r in map(json.loads, data[:cut].splitlines()[:-1]))
    labels = ("low", "high")
    return config, full, cut_dir, {bodies[(PROMPTS[sid], labels[j])]: n
                                   for (sid, j), n in kept.items()}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_concurrent_run_cut_mid_line_resumes_to_the_uncut_bundle(tmp_path, mock_server, api_key,
                                                                     mode):
    config, full, cut_dir, start = cut_run(tmp_path, mock_server, 4, mode)
    runner = CliRunner()
    assert runner.invoke(main, ["compute", str(cut_dir), "--run-id", "r"]).exit_code == 2

    served = Served(mock_server, start)
    run(config, cut_dir, "--resume")
    resumed = len(records_without_clock(cut_dir)) - sum(start.values())
    assert served.posts == resumed + served.refused
    assert bundle_without_clock(cut_dir) == bundle_without_clock(full)


def test_of_two_resumes_in_two_processes_one_finishes_and_one_writes_nothing(tmp_path, mock_server,
                                                                             api_key):
    """Two `arise run --resume` children of one cut run overlap: the server holds its replies to
    the first, which holds the run's lock, until the second has exited."""
    config, full, cut_dir, start = cut_run(tmp_path, mock_server, 2, "naive")
    Served(mock_server, start)
    keyed, asked, released = mock_server.reply, threading.Event(), threading.Event()

    def held(body: dict) -> dict:
        asked.set()
        released.wait(timeout=120)
        return keyed(body)

    mock_server.reply = held
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    resume = [sys.executable, "-m", "arise.cli", "run", str(config), "--out", str(cut_dir),
              "--run-id", "r", "--resume"]

    def start() -> subprocess.Popen:
        return subprocess.Popen(resume, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)

    first = start()
    try:
        while not asked.wait(timeout=0.05):  # the first child has locked the run and is drawing
            assert first.poll() is None, first.communicate()
        before = {path.name: path.read_bytes() for path in cut_dir.iterdir()}
        second = start()
        # a timeout kills nothing: a second writer would wait on the held replies, then draw
        second_out, second_err = second.communicate(timeout=60)
        after = {path.name: path.read_bytes() for path in cut_dir.iterdir()}
    finally:
        released.set()
    stdout, stderr = first.communicate(timeout=120)
    assert first.returncode == 0, stderr
    assert second.returncode == 1, second_err
    assert second_err == (f"error: run 'r' has another writer: it holds the lock on "
                          f"{cut_dir / 'r.jsonl'}\n")
    assert second_out == ""
    assert after == before

    result = CliRunner().invoke(main, ["compute", str(cut_dir), "--run-id", "r"])
    assert result.exit_code == 0, result.output
    assert result.stdout == stdout
    assert (cut_dir / "r.bundle.json").read_bytes() == (full / "r.bundle.json").read_bytes()


def test_a_concurrent_run_writes_the_bundle_compute_replays(tmp_path, mock_server, api_key,
                                                             no_record_reads):
    """The bundle comes from the trials drawn, whichever order their records landed in."""
    config = write_config(tmp_path / "config", mock_server.url, 2)
    out = tmp_path / "runs"
    Served(mock_server)
    with no_record_reads():
        run(config, out, *MODES["budget"])
    assert mock_server.max_in_flight == 2
    result = CliRunner().invoke(main, ["compute", str(out), "--run-id", "r",
                                       "--out", str(tmp_path / "replayed.json")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "replayed.json").read_bytes() == (out / "r.bundle.json").read_bytes()
