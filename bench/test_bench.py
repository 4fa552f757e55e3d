"""Tests of the benchmark itself: seeded inputs and answer checks.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module", params=NAMES)
def generated(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    return workloads.write(request.param, 7, out), out


def test_same_seed_gives_identical_files(generated, tmp_path):
    plan, first = generated
    workloads.write(plan["workload"], 7, tmp_path)
    assert _files(tmp_path) == _files(first)


def test_other_seed_gives_other_inputs(generated, tmp_path):
    plan, first = generated
    workloads.write(plan["workload"], 8, tmp_path)
    assert (tmp_path / "observations.txt").read_bytes() != (first / "observations.txt").read_bytes()
    if plan["workload"] != "dock":  # dock's theory and facts are the README example
        assert (tmp_path / "facts.txt").read_bytes() != (first / "facts.txt").read_bytes()


def test_expected_answers_are_informative(generated):
    plan, _ = generated
    assert plan["query"]["expected"] > 1e-3
    values = [v for v in plan["query_all"]["expected"].values() if v is not None]
    assert any(v > 0 for v in values)
    assert plan["acquire"]["insts"] > 0


def _printed(value: float) -> str:
    return format(value, ".12g")  # the CLI's CSV precision


def _answers(plan: dict) -> tuple[str, str]:
    query = _printed(plan["query"]["expected"]) + "\n"
    lines = [f"{name} {_printed(v if v is not None else 0.5)}"
             for name, v in sorted(plan["query_all"]["expected"].items())]
    return query, "\n".join(lines) + "\n"


def test_checks_accept_printed_oracle(generated):
    plan, _ = generated
    query, query_all = _answers(plan)
    assert checks.check_query(query, plan["query"]["expected"]) is None
    assert checks.check_query_all(query_all, plan["query_all"]["expected"]) is None


def test_checks_reject_perturbed_answers(generated):
    plan, _ = generated
    expected = plan["query"]["expected"]
    for wrong in (expected * (1 + 1e-9), expected - 1e-10, 0.0, float("nan")):
        assert checks.check_query(_printed(wrong), expected) is not None
    assert checks.check_query(f"{_printed(expected)}\n{_printed(expected)}", expected) is not None

    _, query_all = _answers(plan)
    lines = query_all.splitlines()
    assert checks.check_query_all("\n".join(lines[1:]), plan["query_all"]["expected"]) is not None
    assert checks.check_query_all(query_all + "EXTRA(X) 0\n", plan["query_all"]["expected"]) is not None
    checked = [i for i, (name, v) in enumerate(sorted(plan["query_all"]["expected"].items()))
               if v is not None and v > 0]
    for i in checked[:1] + checked[-1:]:
        name, value = lines[i].split()
        bad = lines[:i] + [f"{name} {_printed(float(value) * (1 + 1e-9))}"] + lines[i + 1:]
        assert checks.check_query_all("\n".join(bad), plan["query_all"]["expected"]) is not None


def test_acquire_check(generated):
    plan, _ = generated
    acq = plan["acquire"]
    state = acq["state"].replace("insts 0", f"insts {acq['insts']}").replace(
        "lambda inf", f"lambda {acq['lambda']!r}")
    assert checks.check_acquire(state, acq["insts"], acq["lambda"]) is None
    off_by_one = state.replace(f"insts {acq['insts']}", f"insts {acq['insts'] - 1}")
    assert checks.check_acquire(off_by_one, acq["insts"], acq["lambda"]) is not None
    drifted = state.replace(repr(acq["lambda"]), repr(acq["lambda"] * (1 + 1e-9)))
    assert checks.check_acquire(drifted, acq["insts"], acq["lambda"]) is not None
    assert checks.check_acquire(acq["state"], acq["insts"], acq["lambda"]) is not None


def test_dock_cli_answers_pass_checks(tmp_path):
    """The real CLI on the dock workload passes every check."""
    plan = workloads.write("dock", 3, tmp_path)
    runner = run.Runner(tmp_path, deadline=time.monotonic() + 120)
    commands = run.Commands(plan, runner)
    outputs = {command: commands.run(command) for command in run.COMMANDS}
    assert runner.failures == [] and runner.attempted == 4
    assert outputs["query"].rss_mb > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    """One traced pass on dock yields every per-layer metric, and the self
    times under each command add up to its span."""
    plan = workloads.write("dock", 3, tmp_path)
    runner = run.Runner(tmp_path, deadline=time.monotonic() + 120)
    samples = run.traced_run(plan, runner, seconds=0)
    assert runner.failures == []
    assert [name for name in run.PER_LAYER if not samples[name]] == []
    assert samples["theory.rules"] == [2] and samples["cli.rows_matched"] == [1]


def test_self_times_split_a_span_tree():
    spans = [
        {"id": 0, "name": "cli.project", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "refinement.refine", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "tokens.load", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    total, own, gap = run._self_times(spans)
    assert total == {"cli.project": 10.0, "refinement.refine": 3.0, "tokens.load": 1.0}
    assert own["cli.project"] == 6.0 and gap == 0.0


def test_missing_package_exits_without_result(tmp_path):
    """A tree holding only the benchmark fails fast and prints no result."""
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "dock", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
