"""Smoke tests: ``scripts/dock_curve.py`` runs to completion on a small
input, with or without numpy, ``scripts/make_golden.py`` renders the
committed golden file, every Python example in the README runs, and so do
the README's Quick start commands."""
from __future__ import annotations

import filecmp
import importlib.util
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["dock_curve.py", "--omega", "200"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv, tmp_path):
    # A ``numpy`` module that fails to import, first on the path, stands in
    # for an install without numpy: the script must print the same.
    (tmp_path / "numpy.py").write_text("raise ImportError('numpy is not installed')\n")
    outputs = []
    for path in [str(ROOT / "src"), f"{tmp_path}{os.pathsep}{ROOT / 'src'}"]:
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0]
    assert outputs[1] == outputs[0]


def test_make_golden_renders_the_committed_file():
    spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = module.golden_text()
    assert text.encode() == (ROOT / "tests" / "golden" / "dock_mass.csv").read_bytes()


def test_readme_python_blocks_run():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code in blocks:
        result = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, f"{code}\n{result.stderr}"


def test_readme_quick_start_commands_run(tmp_path):
    # Each block runs in a directory holding a copy of data/, with
    # ``python -m tempro`` for ``tempro``; it must succeed and leave the
    # bundled files as they are.
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("\n## Quick start\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```sh\n(.*?)^```", quick_start, re.DOTALL | re.MULTILINE)
    assert blocks
    shutil.copytree(ROOT / "data", tmp_path / "data")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    tempro = f"{shlex.quote(sys.executable)} -m tempro"
    for block in blocks:
        script = re.sub(r"^tempro ", tempro + " ", block, flags=re.MULTILINE)
        assert script != block
        result = subprocess.run(
            ["sh", "-e", "-c", script],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, f"{block}\n{result.stderr}"
    compared = filecmp.dircmp(ROOT / "data", tmp_path / "data")
    assert (compared.left_only, compared.right_only) == ([], [])
    _, changed, errors = filecmp.cmpfiles(
        ROOT / "data", tmp_path / "data", compared.common_files, shallow=False
    )
    assert (changed, errors) == ([], [])
