"""End-to-end and per-layer benchmark of the tempro command line.

One run generates a seeded workload, then repeats ``project``, a ground
``query``, a pattern ``query`` and ``acquire`` until ``--seconds`` have
passed.  Every command runs in a fresh child process, one at a time; its
answer is checked against an oracle and its wall time and peak RSS (from
``os.wait4``) are recorded.  ``setup_s`` is the median of repeated
``tempro --help`` calls: interpreter start, import and parser.

With ``--trace 1`` the commands also run in-process under ``traced.py`` and
the run reports per-layer self times and counts instead.

    python3 bench/run.py --workload trucks-200 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The package is imported from
``src`` next to this directory; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_acquire, check_query, check_query_all
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # before the first iteration; each timed iteration adds two
HARD_LIMIT_S = 170.0  # a run never outlives this, whatever --seconds says

END_TO_END = {
    "setup_s": "s", "project_s": "s", "query_s": "s", "query_all_s": "s",
    "acquire_s": "s", "project_rss_mb": "MB", "query_rss_mb": "MB", "output_mb": "MB",
}


@dataclass
class Outcome:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Runs ``python3 <argv>`` in a fresh child inside the work directory and
    counts attempted and failed commands."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # Imports read the bytecode cache, as they do for users, so the
        # untimed warm-up must be allowed to write it.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, argv: list[str]) -> Outcome:
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out, "w") as so, open(err, "w") as se:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work,
                                    env=self.env, stdout=so, stderr=se)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       out.read_text(), err.read_text())

    def expect(self, what: str, outcome: Outcome, problem: str | None = None) -> bool:
        """Count one attempted command; record it as failed on a non-zero
        exit or a failed check."""
        self.attempted += 1
        if outcome.code != 0:
            problem = f"exit {outcome.code}: {outcome.stderr.strip()[-200:]}"
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
        return problem is None

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def tempro(*args: str) -> list[str]:
    return ["-m", "tempro", *args]


def traced(spans: str, *args: str) -> list[str]:
    return [str(BENCH / "traced.py"), spans, *args]


class Commands:
    """The four CLI calls of one iteration, with their checks."""

    def __init__(self, plan: dict, runner: Runner):
        self.plan, self.runner = plan, runner
        self.csv = runner.work / "out.csv"
        self.state = runner.work / "state.txt"

    def argv(self, command: str) -> list[str]:
        p = self.plan
        if command == "project":
            return ["project", "--theory", p["theory"], "--facts", p["facts"],
                    "--delta", repr(p["delta"]), "--omega", str(p["omega"]),
                    "--epsilon", repr(p["epsilon"]), "--out", self.csv.name]
        if command == "query":
            q = p["query"]
            return ["query", "--csv", self.csv.name, "--fact", q["fact"], "--time", repr(q["time"])]
        if command == "query_all":
            q = p["query_all"]
            return ["query", "--csv", self.csv.name, "--fact", q["pattern"], "--time", repr(q["time"])]
        return ["acquire", "--state", self.state.name,
                "--observations", p["acquire"]["observations"]]

    def run(self, command: str, wrap=tempro) -> Outcome:
        """Run and check one command; ``wrap`` builds the child's argv."""
        p, runner = self.plan, self.runner
        if command == "project":
            self.csv.unlink(missing_ok=True)  # a failed run must not leave an old answer
        if command == "acquire":
            self.state.write_text(p["acquire"]["state"])
        outcome = runner.run(wrap(*self.argv(command)))
        problem = None
        if outcome.code == 0:
            if command == "project" and not self.csv.is_file():
                problem = "no CSV written"
            elif command == "query":
                problem = check_query(outcome.stdout, p["query"]["expected"])
            elif command == "query_all":
                problem = check_query_all(outcome.stdout, p["query_all"]["expected"])
            elif command == "acquire":
                problem = check_acquire(self.state.read_text(), p["acquire"]["insts"],
                                        p["acquire"]["lambda"])
        runner.expect(command, outcome, problem)
        return outcome


COMMANDS = ("project", "query", "query_all", "acquire")


def setup_probes(runner: Runner, count: int) -> list[float]:
    walls = []
    for _ in range(count):
        outcome = runner.run(tempro("--help"))
        ok = runner.expect("setup", outcome, None if "usage:" in outcome.stdout else "no usage text")
        if ok:
            walls.append(outcome.wall)
    return walls


def timed_run(plan: dict, runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Repeat the workload untraced; returns the samples of each metric."""
    start = time.monotonic()
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    samples["setup_s"] = setup_probes(runner, SETUP_PROBES)
    commands = Commands(plan, runner)
    while not runner.expired:
        for command in COMMANDS:
            if command in ("project", "query_all"):  # spread set-up samples over the run
                samples["setup_s"] += setup_probes(runner, 1)
            outcome = commands.run(command)
            samples[f"{command}_s"].append(outcome.wall)
            if command == "project":
                samples["project_rss_mb"].append(outcome.rss_mb)
                if commands.csv.is_file():
                    samples["output_mb"].append(commands.csv.stat().st_size / 1e6)
            elif command == "query":
                samples["query_rss_mb"].append(outcome.rss_mb)
        if time.monotonic() - start >= seconds:
            break
    return samples


def _self_times(spans: list[dict]) -> tuple[dict, dict, float]:
    """Total and self time per span name, and the largest gap between a
    root span and the sum of self times under it."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + duration
        own[s["name"]] = own.get(s["name"], 0.0) + duration - children.get(s["id"], 0.0)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    gap = abs(roots - sum(own.values()))
    if any(v < -1e-9 for v in own.values()):
        gap = max(gap, -min(own.values()))
    return total, own, gap


# per-layer metric -> (command, "self" | "total", span name)
LAYER_TIMES = {
    "theory.parse_s": ("project", "self", "theory.parse"),
    "tokens.parse_facts_s": ("project", "self", "tokens.parse_facts"),
    "tokens.load_s": ("project", "self", "tokens.load"),
    "projection.project_s": ("project", "self", "projection.project"),
    "refinement.refine_s": ("project", "self", "refinement.refine"),
    "cli.project_s": ("project", "total", "cli.project"),
    "cli.project_self_s": ("project", "self", "cli.project"),
    "cli.query_s": ("query", "total", "cli.query"),
    "cli.query_load_s": ("query", "total", "cli.load_csv"),
    "cli.query_all_s": ("query_all", "total", "cli.query"),
    "acquisition.parse_s": ("acquire", "self", "acquisition.parse"),
    "acquisition.fold_s": ("acquire", "self", "cli.acquire"),
    "acquisition.save_s": ("acquire", "self", "acquisition.save"),
}
ROOT_SPAN = {"project": "cli.project", "query": "cli.query",
             "query_all": "cli.query", "acquire": "cli.acquire"}
COUNTS = {
    "project": ["theory.rules", "tokens.basic_events", "tokens.window_cells",
                "projection.tokens_created", "projection.join_pairs", "projection.match_ratio",
                "refinement.token_cells", "refinement.live_cells", "refinement.live_ratio",
                "refinement.closures", "refinement.clamped", "cli.rows_written",
                "cli.zero_row_share"],
    "query": ["cli.rows_scanned", "cli.rows_matched"],
    "query_all": [],
    "acquire": ["acquisition.observations"],
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: ("share" if name.endswith(("_ratio", "_share")) else "count")
       for names in COUNTS.values() for name in names},
    "cli.rows_matched_all": "count",
    **{f"trace.{command}_overhead_s": "s" for command in COMMANDS},
}


def traced_run(plan: dict, runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Pair an untraced and a traced pass of each command until ``seconds``
    have passed; returns the samples of each metric."""
    start = time.monotonic()
    setup = setup_probes(runner, SETUP_PROBES)
    setup_s = statistics.median(setup) if setup else 0.0
    commands = Commands(plan, runner)
    spans_path = runner.work / "spans.json"
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    while not runner.expired:
        for command in COMMANDS:
            plain = commands.run(command)
            spans_path.unlink(missing_ok=True)
            outcome = commands.run(command, lambda *a: traced(spans_path.name, *a))
            if outcome.code != 0 or not spans_path.is_file():
                continue
            trace = json.loads(spans_path.read_text())
            total, own, gap = _self_times(trace["spans"])
            if gap > 1e-6:
                runner.failures.append(f"{command}: self times miss the command span by {gap:.3g} s")
            for name, (cmd, kind, span) in LAYER_TIMES.items():
                if cmd == command:
                    samples[name].append((own if kind == "self" else total).get(span, 0.0))
            counts = trace["counts"]
            for name in COUNTS[command]:
                if name in counts:  # a count the layers no longer expose is reported missing
                    samples[name].append(counts[name])
            if command == "query_all" and "cli.rows_matched" in counts:
                samples["cli.rows_matched_all"].append(counts["cli.rows_matched"])
            samples[f"trace.{command}_overhead_s"].append(
                total[ROOT_SPAN[command]] - (plain.wall - setup_s))
        if time.monotonic() - start >= seconds:
            break
    return samples


def _describe(name: str, values: list[float], unit: str) -> str:
    """Median, sample count, minimum, quartiles, and the highest percentile
    with at least ten samples beyond it."""
    n = len(values)
    text = f"{name:34s} {statistics.median(values):12.6g} {unit:6s} n={n}  min={min(values):.6g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.6g} q3={q3:.6g}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        rank = sorted(values)[max(0, -(-pct * n // 100) - 1)]
        text += f"  p{pct}={rank:.6g}"
    else:
        text += "  no tail percentile (needs n >= 20)"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tempro" / "__init__.py").is_file():
        print(f"error: no tempro package under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through Runner.run so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + HARD_LIMIT_S)
    try:
        gen = runner.run([str(BENCH / "workloads.py"), "--workload", args.workload,
                          "--seed", str(args.seed), "--out", str(work)])
        if gen.code != 0:
            print(f"error: workload generation failed:\n{gen.stderr}", file=sys.stderr)
            return 1
        plan = json.loads((work / "plan.json").read_text())
        if not Path(plan["tempro"]).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported tempro from {plan['tempro']}, not {SRC}", file=sys.stderr)
            return 1
        runner.run(tempro("--help"))  # untimed: fills the bytecode cache
        run = traced_run if args.trace else timed_run
        samples = run(plan, runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: statistics.median(samples[name]) for name in units if samples.get(name)}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in metrics:
        print(_describe(name, samples[name], units[name]))
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"error_rate {failed}/{runner.attempted} = {failed / max(1, runner.attempted):.4g}")
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"FAILED no samples for {', '.join(missing)}")
    result = {
        "correct": failed == 0 and not missing,
        "attempted": max(1, runner.attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
