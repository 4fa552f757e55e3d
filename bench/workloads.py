"""Seeded workloads for the tempro benchmark, with their expected answers.

Each workload writes a theory, a basic-facts file, an acquisition state and
a file of completed stays into a directory, plus ``plan.json``: the CLI
arguments for ``project``, ``query`` and ``acquire`` and the answer each
command must give.  The same seed gives byte-identical files.

The expected answers come from oracles that do not run the projection
pipeline: the committed golden dock curve, the closed-form exponential
impulse, and the quadratic ``convolve_direct`` over independently computed
window densities.

Usage (the package is imported from ``src``)::

    PYTHONPATH=src python3 bench/workloads.py --workload trucks-200 --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
import math
import pathlib
import random
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parent.parent
EPSILON = 1e-4

DOCK_DELTA, DOCK_OMEGA, DOCK_TIME = 2.0, 1440, 60.0
DOCK_STAYS = 2000

TRUCKS_DELTA = 1.0
TRUCKS_RATE = 0.0693

JOIN_DELTA, JOIN_OMEGA = 20.0, 50
JOIN_ATDOCK_RATE = 0.0034195529591700387
JOIN_SLOPE = 0.004
JOIN_KAPPA = 0.9
JOIN_STAYS = 10000

TRUCKS_THEORY = f"""\
persist ATDOCK(?truck) exp {TRUCKS_RATE!r}
project ALWAYS, ARRIVE(?truck) => ATDOCK(?truck) @ 1.0
"""

JOIN_THEORY = f"""\
persist ATDOCK(?t) exp {JOIN_ATDOCK_RATE!r}
persist LOADED(?t) lin {JOIN_SLOPE!r}
project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0
project ATDOCK(?t), LOAD(?t) => LOADED(?t) @ {JOIN_KAPPA!r}
"""


def _cell(t: float, delta: float) -> int | None:
    """1-based cell holding ``t`` on a grid at origin 0, or None when ``t``
    sits so close to a cell boundary that rounding could move it."""
    k = t / delta
    if abs(k - round(k)) < 1e-6:
        return None
    return math.floor(k) + 1


def _stays(seed: int, pattern: str, lifetime, count: int):
    """Completed stays of ``count`` entities, none censored."""
    from tempro import PoissonArrivals, Scenario, generate, parse_pattern_text

    scenario = Scenario(seed, [(parse_pattern_text(pattern), lifetime)],
                        PoissonArrivals(1.0), count, math.inf)
    return generate(scenario)


def _acquire_plan(out: pathlib.Path, seed: int, pattern: str, family: str,
                  lifetime, count: int) -> dict:
    """Write the initial state and the stays; return the expected fold."""
    sim = _stays(seed, pattern, lifetime, count)
    (out / "observations.txt").write_text(sim.observations_text)
    durations = [departure - arrival for _, arrival, departure in sim.observations]
    mean = math.fsum(durations) / len(durations)
    lam = math.log(2) / mean if family == "exponential" else 0.5 / mean
    return {
        "state": f"class {pattern} {family} insts 0 sum 0.0 lambda inf\n",
        "observations": "observations.txt",
        "insts": len(durations),
        "lambda": lam,
    }


def _closed(values: list[float]) -> list[float]:
    """Apply the sweep's closure rule: the first cell whose mass falls below
    epsilon after having reached it keeps its value; every later cell is 0."""
    out, seen = [], False
    for v in values:
        out.append(v)
        if seen and v < EPSILON:
            return out + [0.0] * (len(values) - len(out))
        seen = seen or v >= EPSILON
    return out


def dock(seed: int, out: pathlib.Path) -> dict:
    """The README's loading-dock example, checked against the golden curve."""
    (out / "theory.rules").write_text((ROOT / "data" / "dock.rules").read_text())
    (out / "facts.txt").write_text((ROOT / "data" / "dock.facts").read_text())
    golden = {}
    for line in (ROOT / "tests" / "golden" / "dock_mass.csv").read_text().splitlines():
        if line and not line.startswith(("#", "cell,")):
            cell, _, value = line.split(",")
            golden[int(cell)] = float(value)
    expected = golden[math.floor(DOCK_TIME / DOCK_DELTA) + 1]  # t=60 starts cell 31
    from tempro import ExponentialLifetime

    return {
        "delta": DOCK_DELTA, "omega": DOCK_OMEGA, "epsilon": EPSILON,
        "query": {"fact": "ATDOCK(TRUCK14)", "time": DOCK_TIME, "expected": expected},
        "query_all": {"pattern": "ATDOCK(?t)", "time": DOCK_TIME,
                      "expected": {"ATDOCK(TRUCK14)": expected}},
        "acquire": _acquire_plan(out, seed, "TRUCKAT(?d)", "exponential",
                                 ExponentialLifetime(0.1), DOCK_STAYS),
    }


def trucks(count: int, omega: int, stays: int, seed: int, out: pathlib.Path) -> dict:
    """``count`` point arrivals from the simulator on ``omega`` cells; every
    curve is an exponential impulse ``c * exp(-r*delta*m)``, closed once it
    drops below epsilon.  ``acquire`` folds ``stays`` completed stays."""
    from tempro import ExponentialLifetime

    sim = _stays(seed, "ATDOCK(?truck)", ExponentialLifetime(TRUCKS_RATE), count)
    arrivals = {}
    lines = []
    for line in sim.facts_text.splitlines():
        # event ARRIVE(E<k>) est <a> lst <a> kappa 1.0
        words = line.split()
        if float(words[3]) < TRUCKS_DELTA * omega:
            lines.append(line)
            arrivals[words[1][len("ARRIVE("):-1]] = float(words[3])
    (out / "theory.rules").write_text(TRUCKS_THEORY)
    (out / "facts.txt").write_text("\n".join(lines) + "\n")

    rd = TRUCKS_RATE * TRUCKS_DELTA
    c = -math.expm1(-rd) / rd
    impulse = _closed([c * math.exp(-rd * m) for m in range(omega)])
    assert min(abs(v / EPSILON - 1) for v in impulse if v) > 1e-9, "closure too close to call"
    live = impulse.index(0.0)

    rng = random.Random(seed)
    candidates = sorted(
        e for e, a in arrivals.items()
        if _cell(a, TRUCKS_DELTA) is not None and _cell(a, TRUCKS_DELTA) + live // 2 <= omega
    )
    entity = rng.choice(candidates)
    offset = rng.randrange(live // 2)
    cell = _cell(arrivals[entity], TRUCKS_DELTA) + offset
    time = (cell - 0.5) * TRUCKS_DELTA
    expected_all = {}
    for e, a in arrivals.items():
        first = _cell(a, TRUCKS_DELTA)
        if first is not None:
            expected_all[f"ATDOCK({e})"] = impulse[cell - first] if first <= cell else 0.0
        else:
            expected_all[f"ATDOCK({e})"] = None  # boundary arrival: present, unchecked
    return {
        "delta": TRUCKS_DELTA, "omega": omega, "epsilon": EPSILON,
        "query": {"fact": f"ATDOCK({entity})", "time": time, "expected": impulse[offset]},
        "query_all": {"pattern": "ATDOCK(?truck)", "time": time, "expected": expected_all},
        "acquire": _acquire_plan(out, seed, "ATDOCK(?truck)", "exponential",
                                 ExponentialLifetime(TRUCKS_RATE), stays),
    }


def _window_density(est: float, lst: float, kappa: float, delta: float, omega: int) -> list[float]:
    """Truncated-Gaussian window density per cell, from the format's
    definition (mean at the midpoint, sigma a sixth of the width)."""
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    mu, sigma = 0.5 * (est + lst), (lst - est) / 6.0
    z = phi((lst - mu) / sigma) - phi((est - mu) / sigma)
    values = [0.0] * omega
    for i in range(max(1, math.floor(est / delta) + 1), min(omega, math.floor(lst / delta) + 1) + 1):
        lo, hi = max(est, (i - 1) * delta), min(lst, i * delta)
        if hi > lo:
            values[i - 1] = kappa * (phi((hi - mu) / sigma) - phi((lo - mu) / sigma)) / z / delta
    return values


def join(count: int, seed: int, out: pathlib.Path) -> dict:
    """``count`` dock arrivals plus loads: ``LOADED`` needs the
    ``ATDOCK x LOAD`` join.

    The oracle for ``LOADED(T<k>)`` is ``convolve_direct`` of its onset
    density ``kappa * LOAD density * ATDOCK mass`` with the linear survivor.
    """
    import numpy as np
    from tempro import (Exponential, Linear, StepSeries, TimeGrid, UniformLifetime,
                        convolve_direct)

    rng = random.Random(seed)
    windows = []
    for _ in range(count):
        a = round(rng.uniform(0.0, 800.0), 3)
        b = round(a + rng.uniform(5.0, 30.0), 3)
        windows.append((a, b))
    arrive = [f"event ARRIVE(T{k}) est {a!r} lst {a + 40.0!r} kappa 1.0"
              for k, (a, _) in enumerate(windows, 1)]
    load = [f"event LOAD(T{k}) est {b!r} lst {b + 40.0!r} kappa 0.8"
            for k, (_, b) in enumerate(windows, 1)]
    (out / "theory.rules").write_text(JOIN_THEORY)
    (out / "facts.txt").write_text("\n".join(arrive + load) + "\n")

    grid = TimeGrid(0.0, JOIN_DELTA, JOIN_OMEGA)

    def loaded_curve(a: float, b: float) -> list[float]:
        arrive_d = _window_density(a, a + 40.0, 1.0, JOIN_DELTA, JOIN_OMEGA)
        atdock = _closed(convolve_direct(StepSeries(grid, np.array(arrive_d)),
                                         Exponential(JOIN_ATDOCK_RATE)).values.tolist())
        load_d = _window_density(b, b + 40.0, 0.8, JOIN_DELTA, JOIN_OMEGA)
        onset = [JOIN_KAPPA * d * m for d, m in zip(load_d, atdock)]
        return _closed(convolve_direct(StepSeries(grid, np.array(onset)),
                                       Linear(JOIN_SLOPE)).values.tolist())

    k = rng.randrange(count)
    a, b = windows[k]
    cell = math.floor((b + 40.0) / JOIN_DELTA) + 2  # the cell after the load window
    time = (cell - 0.5) * JOIN_DELTA
    expected_all = {f"LOADED(T{e})": loaded_curve(*w)[cell - 1]
                    for e, w in enumerate(windows, 1)}
    return {
        "delta": JOIN_DELTA, "omega": JOIN_OMEGA, "epsilon": EPSILON,
        "query": {"fact": f"LOADED(T{k + 1})", "time": time,
                  "expected": expected_all[f"LOADED(T{k + 1})"]},
        "query_all": {"pattern": "LOADED(?t)", "time": time, "expected": expected_all},
        "acquire": _acquire_plan(out, seed, "LOADED(?t)", "linear",
                                 UniformLifetime(10.0, 240.0), JOIN_STAYS),
    }


WORKLOADS = {
    "dock": dock,
    "trucks-200": partial(trucks, 200, 300, 10000),
    "join-1k": partial(join, 1000),
    # Full-size variants, too slow for a timed run on two cores; run by hand.
    "trucks-1k": partial(trucks, 1000, 1100, 100000),
    "join-2k": partial(join, 2000),
}


def write(name: str, seed: int, out: pathlib.Path) -> dict:
    """Write workload ``name`` for ``seed`` into ``out``; returns the plan."""
    out.mkdir(parents=True, exist_ok=True)
    import tempro

    plan = WORKLOADS[name](seed, out)
    plan.update(workload=name, seed=seed, theory="theory.rules", facts="facts.txt",
                tempro=tempro.__file__)
    (out / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True) + "\n")
    return plan


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=pathlib.Path)
    args = parser.parse_args()
    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
