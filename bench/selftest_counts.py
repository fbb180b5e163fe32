"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest_counts.py

Two traced runs at the same seed must report identical counts, so later
changes can cite them as exact counts. The traced runs take a few minutes on
a 2-CPU host. The file name keeps it out of the repository's default test
collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402

COUNTS = ("propagation.sequences", "propagation.eval_calls",
          "propagation.legs_evaluated", "propagation.legs_valid_frac",
          "fields.legs_weighed", "fields.legs_nonzero_frac",
          "imaging.sum_entries",
          "imaging.sum_entries_nonzero", "imaging.chunks",
          "propagation.sbr_calls", "propagation.sbr_paths",
          "io.bytes_written")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _traced(workload: str, out: Path) -> dict:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds",
                "1", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload", ["hidden", "plates"])
def test_counts_repeat_exactly(workload, tmp_path):
    first = _traced(workload, tmp_path)
    second = _traced(workload, tmp_path)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_program(tmp_path):
    # A directory with only BENCHMARK.json and the benchmark: no result.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "hidden", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, 0, 0)[0] == \
        "improved"
    assert compare.verdict(parent, faster, "lower", 0.1, 0, 1)[0] == \
        "no worse"
    assert compare.verdict(parent, parent, "lower", 0.1, 0, 0)[0] == \
        "no worse"
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1, 0, 0)[0] == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1, 0, 0)[0] == \
        "unresolved"
