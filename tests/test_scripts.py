"""Smoke test: every study script runs to completion on a small input."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["dock_curve.py", "--omega", "200"],
        ["mesh_study.py", "--halvings", "2"],
        ["scaling_study.py", "--sizes", "10", "20", "--repeats", "1"],
        ["convergence_study.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
