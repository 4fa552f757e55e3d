"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one ``ACCEPTANCE n PASS`` line (visible under ``pytest -s``)
so the gate can be eyeballed as a checklist.  Tolerances are fixed here and
are not to be loosened to make a failing build pass.
"""
from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from tempro import (
    CausalTheory,
    Exponential,
    Pattern,
    StepSeries,
    TimeGrid,
    TokenStore,
    UserSupplied,
    add_basic_event,
    convolve_direct,
    parse_scenario,
    parse_theory,
    project,
    rate,
    refine,
    run_convergence,
    survivor_eval,
)
from tempro.cli import main as cli_main
from test_cli import _read_dense_csv
from test_refinement import _layered_store, _oracle_refine, _random_layered_setup

HALF_PER_15 = -math.log(0.95) / 15.0


def _report(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {message}")


def _random_density(rng: random.Random, grid: TimeGrid) -> np.ndarray:
    """A non-negative density with unit-or-less total mass, varied in shape."""
    n = grid.omega
    shape = rng.choice(["spike", "block", "noise", "mixed"])
    values = np.zeros(n)
    if shape == "spike":
        values[rng.randrange(n)] = 1.0
    elif shape == "block":
        a = rng.randrange(n)
        b = min(n, a + rng.randint(1, max(1, n // 4)))
        values[a:b] = rng.uniform(0.2, 1.0)
    elif shape == "noise":
        values = np.array([rng.random() for _ in range(n)])
    else:
        values = np.array([rng.random() * (rng.random() < 0.3) for _ in range(n)])
    total = values.sum() * grid.delta
    if total > 0:
        values *= rng.uniform(0.1, 1.0) / total
    return values


def _hand_built_fact(grid: TimeGrid, lam: float, density: np.ndarray):
    """A store holding one fact fed by an event with an explicit density."""
    store = TokenStore()
    event = store.add_event(
        Pattern("E", ("X",)), grid.origin, grid.origin, 1.0, UserSupplied(), StepSeries(grid, density)
    )
    fact = store.add_fact(
        Pattern("F", ("X",)), event.tid, Exponential(lam), grid.origin, UserSupplied()
    )
    return store, event, fact


def test_c01_incremental_matches_direct_convolution():
    """Cell-by-cell recurrence vs whole-curve convolution on random inputs."""
    rng = random.Random(101)
    started = time.perf_counter()
    worst = 0.0
    trials = 0

    # (a) the recurrence as exercised through the full sweep
    for _ in range(50):
        delta = rng.uniform(0.1, 2.0)
        omega = rng.randint(20, 1000)
        lam = rng.uniform(0.0, 2.0)
        kappa = rng.uniform(0.1, 1.0)
        horizon = delta * omega
        est = rng.uniform(0.0, 0.8) * horizon
        lst = min(horizon, est + rng.uniform(0.0, 0.4) * horizon)
        theory = parse_theory(
            f"persist F(?x) exp {lam!r}\n"
            f"project ALWAYS, E(?x) => F(?x) @ {kappa!r}\n"
        )
        grid = TimeGrid(0.0, delta, omega)
        store = TokenStore()
        add_basic_event(store, Pattern("E", ("X",)), est, lst, 1.0, grid)
        project(theory, store, grid)
        refine(store, theory, grid, epsilon=0.0)
        (onset,) = store.events_of_type(("F", 1))
        (fact,) = store.facts_of_type(("F", 1))
        direct = convolve_direct(onset.density, Exponential(lam))
        worst = max(worst, float(np.abs(np.asarray(fact.mass.window(1, omega)) - np.asarray(direct.values)).max()))
        trials += 1

    # (b) the recurrence on arbitrary density shapes
    for _ in range(60):
        delta = rng.uniform(0.1, 2.0)
        omega = rng.randint(10, 1000)
        lam = rng.uniform(0.0, 2.0)
        grid = TimeGrid(0.0, delta, omega)
        density = _random_density(rng, grid)
        store, event, fact = _hand_built_fact(grid, lam, density)
        refine(store, CausalTheory(), grid, epsilon=0.0)
        direct = convolve_direct(event.density, Exponential(lam))
        worst = max(worst, float(np.abs(np.asarray(fact.mass.window(1, omega)) - np.asarray(direct.values)).max()))
        trials += 1

    elapsed = time.perf_counter() - started
    assert trials >= 100
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(1, f"{trials} random curves, worst |inc - direct| = {worst:.2e}, {elapsed:.2f}s")


def test_c02_clipping_never_exceeds_plain_convolution():
    """Ceiling-aware curve stays under the plain one; no ceiling means equal."""
    rng = random.Random(202)
    worst_equal = 0.0
    for _ in range(100):
        delta = rng.uniform(0.1, 2.0)
        omega = rng.randint(5, 300)
        lam = rng.uniform(0.0, 2.0)
        grid = TimeGrid(0.0, delta, omega)
        f = StepSeries(grid, _random_density(rng, grid))
        g = StepSeries(grid, _random_density(rng, grid) * rng.uniform(0.0, 2.0))
        clipped = convolve_direct(f, Exponential(lam), g)
        direct = convolve_direct(f, Exponential(lam))
        assert np.all(np.asarray(clipped.values) <= np.asarray(direct.values)), "clipped curve exceeded plain"
        zero = convolve_direct(f, Exponential(lam), StepSeries(grid, []))
        worst_equal = max(worst_equal, float(np.abs(np.asarray(zero.values) - np.asarray(direct.values)).max()))
    assert worst_equal <= 1e-9
    _report(2, f"dominance on 100 random pairs; zero-ceiling gap {worst_equal:.2e}")


def test_c03_golden_dock_curve(tmp_path, data_dir, golden_dir):
    """The committed loading-dock curve reproduces bit-for-bit in shape."""
    golden_lines = (golden_dir / "dock_mass.csv").read_text().splitlines()
    golden_meta = {}
    rows = []
    for line in golden_lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            golden_meta[key.strip()] = value.strip()
        elif not line.startswith("cell,"):
            cell_s, _, value_s = line.split(",")
            rows.append((int(cell_s), float(value_s)))
    golden = np.array([v for _, v in rows])
    golden_close = int(golden_meta["close_cell"])

    out = tmp_path / "dock.csv"
    code = cli_main(
        ["project", "--theory", str(data_dir / "dock.rules"),
         "--facts", str(data_dir / "dock.facts"),
         "--delta", "2", "--omega", "1440", "--epsilon", "0.0001",
         "--out", str(out)]
    )
    assert code == 0
    _, rows = _read_dense_csv(out)
    got = np.array(
        [
            float(r["value"])
            for r in rows
            if r["type"] == "ATDOCK(TRUCK14)" and r["kind"] == "mass"
        ]
    )
    assert got.shape == golden.shape == (1440,)
    worst = float(np.abs(got - golden).max())
    assert worst <= 1e-9, f"worst deviation from golden {worst:.3e}"

    # shape: single rise while arrivals are possible, then decay to closure
    window_cells = 5  # [0, 10] on the 2-minute mesh
    assert np.all(np.diff(got[:window_cells]) >= 0)
    assert np.all(np.diff(got[window_cells:golden_close]) < 0)
    assert np.all(got[golden_close:] == 0.0)
    assert got[golden_close - 1] < 1e-4
    _report(3, f"1440-cell curve matches golden (max dev {worst:.2e}), closure at cell {golden_close}")


def test_c04_half_life_halves_mass():
    """A half-life decay parameter halves the curve every half-life."""
    h = 10.0
    delta = 0.5
    theory = parse_theory(
        f"persist F(?x) exp {math.log(2.0) / h!r}\n"
        "project ALWAYS, E(?x) => F(?x) @ 1.0\n"
    )
    grid = TimeGrid(0.0, delta, 200)
    store = TokenStore()
    add_basic_event(store, Pattern("E", ("X",)), 0.0, 0.0, 1.0, grid)
    project(theory, store, grid)
    refine(store, theory, grid, epsilon=0.0)
    m = store.facts_of_type(("F", 1))[0].mass.window(1, grid.omega)
    steps = int(h / delta)
    r1 = m[0 + steps] / m[0]
    r2 = m[0 + 2 * steps] / m[0 + steps]
    assert abs(r1 - 0.5) <= 1e-6 * 0.5
    assert abs(r2 - 0.5) <= 1e-6 * 0.5
    _report(4, f"mass ratios over one half-life: {r1:.9f}, {r2:.9f}")


def test_c05_survivor_checkpoint_values():
    """Five-percent-per-quarter-hour decay at 15/30/45 minutes."""
    survivor = Exponential(HALF_PER_15)
    expected = [(15.0, 0.95), (30.0, 0.9025), (45.0, 0.857375)]
    for elapsed, want in expected:
        got = survivor_eval(survivor, elapsed)
        assert abs(got - want) <= 1e-9, f"survivor({elapsed}) = {got!r}"
    _report(5, "survivor checkpoints 0.95 / 0.9025 / 0.857375 hit to 1e-9")


def test_c06_acquisition_converges_on_simulated_stays(data_dir):
    """Learned decay approaches the true one as observations accumulate."""
    started = time.perf_counter()
    scenario = parse_scenario((data_dir / "trucks.scenario").read_text())
    rows = run_convergence(scenario, "exponential")
    elapsed = time.perf_counter() - started
    by_n = {r.n: r for r in rows}
    assert 10_000 in by_n and 100 in by_n
    reference = rate("exponential", 10.0)
    assert rows[0].reference == reference
    err_final = by_n[10_000].relative_error
    assert err_final <= 0.02, f"relative error after 10k stays: {err_final:.4f}"
    assert err_final <= by_n[100].relative_error
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(
        6,
        "errors "
        + " -> ".join(f"{by_n[n].relative_error:.4f}@{n}" for n in sorted(by_n))
        + f", {elapsed:.2f}s",
    )


def test_c07_rate_values_bit_exact():
    """Closed-form decay parameters are exact, not approximate."""
    assert rate("linear", 4.0) == 0.125
    assert rate("exponential", 10.0) == math.log(2.0) / 10.0
    assert rate("linear", 0.0) == math.inf
    assert rate("exponential", 0.0) == math.inf
    _report(7, "linear 1/8 and exponential ln2/10 reproduced bit-exactly")


def _refine_setup(n_facts: int):
    """The store, theory and grid of ``n_facts`` projected facts, ready to refine."""
    theory = parse_theory(
        "persist F(?x) exp 0.05\nproject ALWAYS, E(?x) => F(?x) @ 1.0\n"
    )
    grid = TimeGrid(0.0, 1.0, 300)
    store = TokenStore()
    for k in range(n_facts):
        add_basic_event(
            store, Pattern("E", (f"X{k}",)), float(k % 200), float(k % 200) + 10.0, 1.0, grid
        )
    project(theory, store, grid)
    assert len(store.facts_of_type(("F", 1))) == n_facts
    return store, theory, grid


def test_c08_refine_time_scales_linearly():
    """Wall time grows roughly linearly in the number of live facts.  Each
    round times every size once, so a slow spell of the machine falls on all
    sizes alike; each size keeps its best time over the rounds."""
    sizes = [10, 100, 1000]
    setups = [_refine_setup(n) for n in sizes]
    times = [math.inf] * len(sizes)
    for _ in range(5):
        for i, (store, theory, grid) in enumerate(setups):
            start = time.perf_counter()
            refine(store, theory, grid, epsilon=0.0)
            times[i] = min(times[i], time.perf_counter() - start)
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    xbar, ybar = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert 0.8 <= slope <= 1.3, f"log-log slope {slope:.3f}, times {times}"
    _report(
        8,
        "refine times "
        + ", ".join(f"{t * 1e3:.1f}ms@{n}" for n, t in zip(sizes, times))
        + f"; slope {slope:.2f}",
    )


def test_c09_evaluation_orders_bit_identical():
    """Token-major refine and the per-cell oracle sweep agree bit for bit."""
    rng = random.Random(909)
    compared = 0
    for trial in range(24):
        theory, grid, events, epsilon = _random_layered_setup(rng)
        got = _layered_store(theory, grid, events)
        refine(got, theory, grid, epsilon)
        want = _oracle_refine(_layered_store(theory, grid, events), theory, grid, epsilon)
        assert len(got.facts) == len(want.facts) and len(got.facts) >= 2
        for a, b in zip(got.events, want.events):
            assert np.array_equal(a.density.window(1, grid.omega), b.density.window(1, grid.omega)), (
                f"trial {trial}: densities differ"
            )
        for a, b in zip(got.facts, want.facts):
            assert np.array_equal(a.mass.window(1, grid.omega), b.mass.window(1, grid.omega)), (
                f"trial {trial}: masses differ"
            )
        assert [f.close_cell for f in got.facts] == [f.close_cell for f in want.facts]
        assert got.sweep_stats == want.sweep_stats
        compared += 1
    assert compared >= 20
    _report(9, f"{compared} random acyclic rule sets identical to the per-cell sweep")


def test_c10_mesh_halving_converges(data_dir):
    """Halving the cell width shrinks the error by at least 1.5x per step."""
    lam = HALF_PER_15
    horizon = 160.0
    reference_delta = 4.0 / 16.0

    def curve(delta: float) -> np.ndarray:
        theory = parse_theory(
            f"persist ATDOCK(?t) exp {lam!r}\n"
            "project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0\n"
        )
        grid = TimeGrid(0.0, delta, int(round(horizon / delta)))
        store = TokenStore()
        add_basic_event(store, Pattern("ARRIVE", ("TRUCK14",)), 0.0, 10.0, 1.0, grid)
        project(theory, store, grid)
        refine(store, theory, grid, epsilon=0.0)
        return np.asarray(store.facts_of_type(("ATDOCK", 1))[0].mass.window(1, grid.omega))

    reference = curve(reference_delta)

    def error_at(delta: float) -> float:
        coarse = curve(delta)
        step = int(round(delta / reference_delta))
        aligned = reference[step - 1 :: step]
        assert aligned.shape == coarse.shape
        return float(np.abs(coarse - aligned).max())

    errors = [error_at(d) for d in (4.0, 2.0, 1.0)]
    assert errors[0] > errors[1] > errors[2] > 0
    f1 = errors[0] / errors[1]
    f2 = errors[1] / errors[2]
    assert f1 >= 1.5 and f2 >= 1.5, f"errors {errors}, factors {f1:.2f}, {f2:.2f}"
    _report(
        10,
        "sup errors "
        + ", ".join(f"{e:.2e}" for e in errors)
        + f"; shrink factors {f1:.2f}, {f2:.2f}",
    )
