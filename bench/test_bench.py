"""Tests of the benchmark itself: the tiny-grid self-check and the bare-directory failure."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def test_self_check_passes_on_tiny_grids():
    proc = subprocess.run([sys.executable, str(RUN), "--self-check"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("self-check ok")


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seed-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        assert "metrics" not in parsed
