"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    # Shared, so each traced run is held to the digest its untraced run stored.
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_runs_pass_their_checks_and_report_every_metric(workload, out):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(workload, seed=0, seconds=1, trace=trace, size=run.TINY, out=out)
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in DECLARED[kind]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_peak_rss_is_the_commands_own():
    ballast = bytearray(200 * 1024 * 1024)
    ballast[:: 1 << 12] = b"x" * len(ballast[:: 1 << 12])  # touch every page
    cmd = run.cli("--help")
    del ballast
    assert cmd.code == 0 and cmd.rss_mb is not None and 0 < cmd.rss_mb < 100
    assert 0 < cmd.norm_s and 0 < cmd.seconds <= cmd.elapsed


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "pipeline", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
