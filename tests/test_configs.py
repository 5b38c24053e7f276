"""Every file in `configs/` loads the way the command that reads it does."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from arise import SyntheticModelSpec, merge_patch, read_mapping
from arise.cli import main

from conftest import CONFIGS


def dry_run_requests(text: str) -> list[dict]:
    """The JSON documents that `run --dry-run` prints one after another."""
    decoder, requests, at = json.JSONDecoder(), [], 0
    while text[at:].strip():
        while text[at].isspace():
            at += 1
        request, at = decoder.raw_decode(text, at)
        requests.append(request)
    return requests


@pytest.mark.parametrize("path", sorted(CONFIGS.iterdir()), ids=lambda path: path.name)
def test_a_shipped_config_loads(path, tmp_path):
    data = read_mapping(path, "config")
    if "samples" in data:  # a simulator spec, as `run` and `simulate` read it
        assert SyntheticModelSpec.from_file(path).sample_ids
        return
    # an HTTP run config: `run --dry-run` renders a request per level and contacts nothing
    result = CliRunner().invoke(main, ["run", str(path), "--dry-run",
                                       "--out", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    levels = data["backend"]["levels"]
    requests = dry_run_requests(result.stdout)
    assert len(requests) == len(levels)
    for request, level in zip(requests, levels):  # each carries its level's overrides
        assert merge_patch(request, level["request_overrides"]) == request
    assert not (tmp_path / "runs").exists()
