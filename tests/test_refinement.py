"""Numerical sweep: survivor curves, convolution, clipping, cycles, closure.

The expected values here come from closed-form continuous-time integrals
(computed inline, independently of the vectorised implementation): for a
density that is constant within cells, decay mass evaluated at cell ends has
an exact analytic form, so the discrete curves can be checked against real
integrals rather than against the code's own recurrence.
"""
from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempro import (
    CyclicOpenTokens,
    EventToken,
    Exponential,
    Linear,
    Pattern,
    RuleDerived,
    StepSeries,
    SweepStats,
    TimeGrid,
    TokenStore,
    add_basic_event,
    convolve_direct,
    dependency_graph,
    parse_theory,
    project,
    refine,
    series_integral,
    survivor_eval,
    within_cell_factor,
)
from tempro import refinement
from tempro.refinement import _check_open_types
from tempro.tokens import load_basic_facts, user_density

HALF_PER_15 = -math.log(0.95) / 15.0  # 5% loss per 15 minutes


def _series(grid: TimeGrid, values) -> StepSeries:
    return StepSeries(grid, np.asarray(values, dtype=float))


def _cells(s: StepSeries):
    """Every cell of ``s``, ``1..omega``, for reading by position."""
    return s.window(1, s.grid.omega)


def _oracle_convolve(f: StepSeries, survivor) -> list[float]:
    """Scalar double-loop rendering of the survivor convolution."""
    grid = f.grid
    d = grid.delta
    values = _cells(f)
    out = []
    for k in range(1, grid.omega + 1):
        total = 0.0
        for j in range(1, k + 1):
            if isinstance(survivor, Exponential):
                lam = survivor.rate
                c = within_cell_factor(lam, d)
                total += float(values[j - 1]) * d * c * math.exp(-lam * (k - j) * d) \
                    if not math.isinf(lam) else 0.0
            else:
                total += float(values[j - 1]) * d * max(0.0, 1.0 - survivor.slope * (k - j) * d)
        out.append(total)
    return out


def _mass_update_lin(store: TokenStore, token, i: int, first: int) -> float:
    """One cell of the linear-survivor convolution, unclamped, summed over
    source cells ``first..i`` in order."""
    delta = token.mass.grid.delta
    slope = token.persistence.slope
    if slope <= 0.0:
        cutoff = token.mass.grid.omega
    elif math.isinf(slope):
        cutoff = 0
    else:
        cutoff = min(token.mass.grid.omega, int(math.floor(1.0 / (slope * delta))) + 1)
    src = list(store)[token.initiating_event].density.values
    value = 0.0
    for j in range(max(first, i - cutoff), i + 1):
        weight = 1.0 - slope * (i - j) * delta
        if weight > 0.0:
            value += float(src[j - 1]) * delta * weight
    return value


def _oracle_refine(store: TokenStore, theory, grid: TimeGrid, epsilon: float) -> TokenStore:
    """Per-cell reference sweep for ``refine``.

    Every cell, every token: each token's inputs at the cell are brought up
    to date first by recursive descent, then its value at the cell is
    computed: a derived density as the product of its inputs, a mass by the
    exponential recurrence or the linear convolution sum.  The open-type
    cycle check runs at every cell where a fact opened or closed since the
    last cell.
    """
    omega = grid.omega
    tokens = list(store)
    for event in store.events:
        event.density = _series(grid, _cells(user_density(event, grid)) if event.is_user else np.zeros(omega))
    for fact in store.facts:
        fact.mass = StepSeries.ones(grid) if fact.is_builtin else _series(grid, np.zeros(omega))
    graph = dependency_graph(theory)
    stats = SweepStats()
    spans = {}  # derived tid -> (first, last cell it is updated in)
    for event in store.events:
        if not event.is_user:
            spans[event.tid] = (
                max(1, grid.time_to_cell(event.est)),
                min(omega, grid.time_to_cell(event.lst)),
            )
    opens_at = {}
    for fact in store.facts:
        fact.close_cell = None
        if not fact.is_builtin:
            first = max(1, grid.time_to_cell(fact.est))
            spans[fact.tid] = (first, omega)
            opens_at.setdefault(first, []).append(fact)
    supported = set()
    stamp = {}
    open_counts = {}
    changed = False

    def update_fact(fact, i, first):
        nonlocal changed
        survivor = fact.persistence
        if isinstance(survivor, Exponential):
            rate, delta = survivor.rate, grid.delta
            decay = 0.0 if math.isinf(rate) else math.exp(-rate * delta)
            prev = float(fact.mass.values[i - 2]) if i >= 2 else 0.0
            density = float(tokens[fact.initiating_event].density.values[i - 1])
            raw = decay * prev + density * (delta * within_cell_factor(rate, delta))
        else:
            raw = _mass_update_lin(store, fact, i, first)
        value = min(1.0, raw)
        fact.mass.values[i - 1] = value
        stats.clamped += raw > 1.0
        if epsilon > 0.0:
            if value >= epsilon:
                supported.add(fact.tid)
            elif fact.tid in supported:
                fact.close_cell = i
                stats.closures += 1
                open_counts[fact.fact_type.key] -= 1
                changed = True

    def ensure(tid, i):
        if stamp.get(tid) == i:
            return
        stamp[tid] = i
        if tid not in spans:
            return  # user density or ALWAYS mass: prefilled
        token = tokens[tid]
        first, last = spans[tid]
        if isinstance(token, EventToken):
            ensure(token.derivation.trigger, i)
            for ant in token.derivation.antecedents:
                ensure(ant, i)
            if first <= i <= last:
                value = token.kappa * tokens[token.derivation.trigger].density.values[i - 1]
                for ant in token.derivation.antecedents:
                    value *= tokens[ant].mass.values[i - 1]
                token.density.values[i - 1] = value
        else:
            ensure(token.initiating_event, i)
            if first <= i and token.close_cell is None:
                update_fact(token, i, first)

    for i in range(1, omega + 1):
        stats.cells += 1
        for fact in opens_at.get(i, ()):
            key = fact.fact_type.key
            open_counts[key] = open_counts.get(key, 0) + 1
            changed = True
        if changed:
            changed = False
            cycle = graph.find_cycle(within={k for k, n in open_counts.items() if n > 0})
            if cycle is not None:
                raise CyclicOpenTokens(i, cycle)
        for tid in range(len(store)):
            ensure(tid, i)
    store.sweep_stats = stats
    return store


def _assert_same_as_oracle(build, epsilon: float) -> None:
    """``refine`` and ``_oracle_refine`` agree bit for bit, sign of zero
    included, on two stores from ``build() -> (theory, grid, store)``."""
    theory, grid, store = build()
    refine(store, theory, grid, epsilon)
    _, _, want = build()
    _oracle_refine(want, theory, grid, epsilon)
    _assert_same_curves(store, want)


def _assert_same_curves(store: TokenStore, want: TokenStore) -> None:
    """The curves, closures and sweep stats of two refined stores agree bit
    for bit, sign of zero included."""
    assert len(store.events) == len(want.events) and len(store.facts) == len(want.facts)
    for got, exp in zip(store.events, want.events):
        assert _cells(got.density).tobytes() == _cells(exp.density).tobytes(), f"density of {got.tid}"
    for got, exp in zip(store.facts, want.facts):
        assert _cells(got.mass).tobytes() == _cells(exp.mass).tobytes(), f"mass of {got.tid}"
        assert got.close_cell == exp.close_cell
    assert store.sweep_stats == want.sweep_stats


def _random_layered_setup(rng: random.Random, negative_zero: bool = False):
    """A random acyclic rule set plus matching basic events.

    Types are organised in layers; rules only point upward, so the type
    dependency graph cannot contain a cycle.  Trigger windows move later as
    the layers go up so every rule actually fires.  ``negative_zero`` adds a
    ``kappa -0`` rule and a rule triggered by its onsets, whose densities are
    then negative zeros.
    """
    n_layers = rng.randint(2, 4)
    names = [
        [f"T{layer}X{i}" for i in range(rng.randint(1, 2))]
        for layer in range(n_layers)
    ]
    lines = []
    events = []
    for layer in range(n_layers):
        for t in names[layer]:
            if rng.random() < 0.5:
                lines.append(f"persist {t}(?x) exp {round(rng.uniform(0.0, 0.4), 3)}")
            else:
                lines.append(f"persist {t}(?x) lin {round(rng.uniform(0.01, 0.2), 3)}")
    counter = 0
    for layer in range(n_layers):
        lower = [t for lv in names[:layer] for t in lv]
        for t in names[layer]:
            trigger = f"EV{counter}"
            counter += 1
            if layer == 0:
                ants = ["ALWAYS"]
            else:
                ants = rng.sample(lower, k=min(len(lower), rng.randint(1, 2)))
            kappa = round(rng.uniform(0.2, 1.0), 3)
            head = ", ".join(f"{a}(?x)" if a != "ALWAYS" else a for a in ants)
            lines.append(f"project {head}, {trigger}(?x) => {t}(?x) @ {kappa!r}")
            start = 4.0 * layer + rng.uniform(0.0, 2.0)
            events.append((trigger, start, start + rng.uniform(0.0, 3.0)))
    if negative_zero:
        lines += [
            "persist NZ(?x) exp 0.1",
            "persist NZD(?x) lin 0.05",
            "project ALWAYS, EVNZ(?x) => NZ(?x) @ -0",
            f"project {names[0][0]}(?x), NZ(?x) => NZD(?x) @ 0.5",
        ]
        events.append(("EVNZ", 1.0, 5.0))
    theory = parse_theory("\n".join(lines) + "\n")
    delta = rng.choice([0.25, 0.5, 1.0])
    horizon = 4.0 * n_layers + 20.0
    grid = TimeGrid(0.0, delta, int(horizon / delta))
    epsilon = rng.choice([0.0, 1e-4, 1e-3])
    return theory, grid, events, epsilon


def _small_rule_set(rng: random.Random, cyclic: bool):
    """Two to five rules over the fact types A, B and C, each with a trigger
    event of its own, plus one basic event per trigger.

    The forward rules' antecedent types come before their consequents in a
    random order of the types, so they alone make no dependency cycle.  With
    ``cyclic`` one more rule closes a cycle: it reverses a forward rule or
    derives a type from itself.
    """
    types = rng.sample("ABC", 3)
    lines = []
    for t in types:
        if rng.random() < 0.5:
            lines.append(f"persist {t}(?x) exp {round(rng.uniform(0.05, 2.0), 3)}")
        else:
            lines.append(f"persist {t}(?x) lin {round(rng.uniform(0.02, 0.5), 3)}")
    rules = [("ALWAYS", types[0])]
    for _ in range(rng.randint(1, 3)):
        hi = rng.randint(1, 2)
        rules.append((types[rng.randint(0, hi - 1)], types[hi]))
    if cyclic:
        ant, con = rng.choice(rules[1:])
        rules.append((con, ant) if rng.random() < 0.7 else (con, con))
    rng.shuffle(rules)
    events = []
    for k, (ant, con) in enumerate(rules):
        head = ant if ant == "ALWAYS" else f"{ant}(?x)"
        lines.append(f"project {head}, E{k}(?x) => {con}(?x) @ {round(rng.uniform(0.2, 1.0), 3)!r}")
        start = rng.uniform(0.0, 12.0)
        events.append((f"E{k}", start, start + rng.uniform(0.0, 4.0)))
    theory = parse_theory("\n".join(lines) + "\n")
    grid = TimeGrid(0.0, rng.choice([0.5, 1.0]), 40)
    return theory, grid, events, rng.choice([0.0, 1e-4, 1e-3, 0.05])


def _unconditional_open_type_check(store: TokenStore, theory, grid: TimeGrid):
    """The open-type check made over every fact with cells, whatever the
    theory, from a refined store; the ``(cell, cycle)`` it raises, or None."""
    opened = []
    for fact in store.facts:
        first = max(1, grid.time_to_cell(fact.est))
        if not fact.is_builtin and first <= grid.omega:
            opened.append((first, fact.close_cell, fact.fact_type.key))
    try:
        _check_open_types(dependency_graph(theory), opened)
    except CyclicOpenTokens as exc:
        return exc.cell, exc.cycle
    return None


def _layered_store(theory, grid: TimeGrid, events) -> TokenStore:
    store = TokenStore()
    for name, est, lst in events:
        add_basic_event(store, Pattern(name, ("X",)), est, lst, 1.0, grid)
    project(theory, store, grid)
    return store


# ---------------------------------------------------------------------------
# survivor primitives


class TestSurvivorEval:
    def test_five_percent_per_quarter_hour(self):
        s = Exponential(HALF_PER_15)
        assert survivor_eval(s, 15.0) == pytest.approx(0.95, abs=1e-9)
        assert survivor_eval(s, 30.0) == pytest.approx(0.9025, abs=1e-9)
        assert survivor_eval(s, 45.0) == pytest.approx(0.857375, abs=1e-9)

    def test_half_life_identity(self):
        h = 12.5
        s = Exponential(math.log(2.0) / h)
        assert survivor_eval(s, h) == pytest.approx(0.5, rel=1e-12)
        assert survivor_eval(s, 2 * h) == pytest.approx(0.25, rel=1e-12)

    def test_linear_hits_zero_and_stays(self):
        s = Linear(0.125)
        assert survivor_eval(s, 4.0) == pytest.approx(0.5)
        assert survivor_eval(s, 8.0) == 0.0
        assert survivor_eval(s, 100.0) == 0.0

    def test_degenerate_rates(self):
        assert survivor_eval(Exponential(0.0), 1e9) == 1.0
        assert survivor_eval(Exponential(math.inf), 1e-9) == 0.0
        assert survivor_eval(Linear(0.0), 1e9) == 1.0
        assert survivor_eval(Linear(math.inf), 1e-9) == 0.0

    def test_zero_elapsed_is_certain(self):
        assert survivor_eval(Exponential(math.inf), 0.0) == 1.0
        assert survivor_eval(Linear(math.inf), 0.0) == 1.0

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            survivor_eval(Exponential(0.1), -1.0)

    @given(
        st.one_of(
            st.builds(Exponential, rate=st.floats(0, 10, allow_nan=False)),
            st.builds(Linear, slope=st.floats(0, 10, allow_nan=False)),
        ),
        st.floats(0, 1000, allow_nan=False),
        st.floats(0, 1000, allow_nan=False),
    )
    def test_bounded_and_monotone(self, survivor, t1, t2):
        lo, hi = sorted((t1, t2))
        a, b = survivor_eval(survivor, lo), survivor_eval(survivor, hi)
        assert 0.0 <= b <= a <= 1.0


class TestWithinCellFactor:
    def test_no_decay_is_unity(self):
        assert within_cell_factor(0.0, 0.5) == 1.0

    def test_instant_decay_is_zero(self):
        assert within_cell_factor(math.inf, 0.5) == 0.0

    def test_rate_that_underflows_against_delta_is_unity(self):
        assert 5e-324 * 0.25 == 0.0
        assert within_cell_factor(5e-324, 0.25) == 1.0

    def test_unit_product_value(self):
        # (1 - e^-1) / 1, straight from the defining integral
        assert within_cell_factor(2.0, 0.5) == pytest.approx(1.0 - math.exp(-1.0))

    @given(st.floats(1e-6, 5.0), st.floats(1e-3, 5.0))
    def test_between_endpoint_survivals(self, lam, delta):
        c = within_cell_factor(lam, delta)
        assert math.exp(-lam * delta) < c < 1.0

    def test_small_rate_expansion(self):
        # c = 1 - x/2 + x^2/6 - ... for x = lam * delta
        x = 1e-4
        assert within_cell_factor(x, 1.0) == pytest.approx(
            1 - x / 2 + x * x / 6, rel=1e-9
        )


# ---------------------------------------------------------------------------
# direct convolution against closed forms


class TestConvolveDirect:
    def test_impulse_exponential_decay(self):
        # All mass lands in cell 1 and then decays: the continuous integral
        # for a one-cell burst gives m_k = v*d*c * exp(-lam*(k-1)*d) exactly.
        grid = TimeGrid(0.0, 0.5, 40)
        lam = 0.8
        f = StepSeries(grid, [2.0])
        got = convolve_direct(f, Exponential(lam))
        c = within_cell_factor(lam, grid.delta)
        for k in range(1, 41):
            want = 2.0 * grid.delta * c * math.exp(-lam * (k - 1) * grid.delta)
            assert got.values[k - 1] == pytest.approx(want, rel=1e-12)

    def test_constant_fill_matches_continuous_integral(self):
        # For f(t) = v on [0, k*d], mass at the cell end is v(1-e^{-lam k d})/lam.
        grid = TimeGrid(0.0, 0.25, 60)
        lam = 1.3
        v = 0.9
        f = _series(grid, [v] * 60)
        got = convolve_direct(f, Exponential(lam))
        for k in (1, 2, 7, 30, 60):
            want = v * (1.0 - math.exp(-lam * k * grid.delta)) / lam
            assert got.values[k - 1] == pytest.approx(want, rel=1e-12)

    def test_no_decay_accumulates_integral(self):
        grid = TimeGrid(0.0, 0.5, 20)
        f = _series(grid, np.linspace(0.1, 1.0, 20))
        got = convolve_direct(f, Exponential(0.0))
        for k in (1, 5, 20):
            assert got.values[k - 1] == pytest.approx(
                series_integral(f, 1, k), rel=1e-12
            )

    def test_half_life_halves_peak(self):
        h = 4.0
        grid = TimeGrid(0.0, 0.5, 40)
        f = StepSeries(grid, [1.0])
        got = convolve_direct(f, Exponential(math.log(2.0) / h))
        steps = int(h / grid.delta)
        assert got.values[steps] == pytest.approx(got.values[0] / 2.0, rel=1e-9)
        assert got.values[2 * steps] == pytest.approx(got.values[0] / 4.0, rel=1e-9)

    def test_instant_decay_leaves_nothing(self):
        grid = TimeGrid(0.0, 0.5, 10)
        f = _series(grid, [1.0] * 10)
        got = convolve_direct(f, Exponential(math.inf))
        assert np.all(np.asarray(got.values) == 0.0)

    def test_impulse_linear_ramp(self):
        grid = TimeGrid(0.0, 1.0, 12)
        s = 0.125  # survivor hits zero after 8 time units
        f = StepSeries(grid, [1.0])
        got = convolve_direct(f, Linear(s))
        for k in range(1, 13):
            want = 1.0 * max(0.0, 1.0 - s * (k - 1))
            assert got.values[k - 1] == pytest.approx(want, rel=1e-12)
        assert got.values[9] == 0.0  # strictly beyond the ramp

    def test_linear_matches_double_loop(self):
        grid = TimeGrid(0.0, 0.5, 25)
        rng = np.random.default_rng(7)
        f = _series(grid, rng.uniform(0, 1, 25))
        got = convolve_direct(f, Linear(0.3))
        want = _oracle_convolve(f, Linear(0.3))
        assert np.allclose(got.values, want, rtol=1e-12, atol=1e-15)

    def test_exponential_matches_double_loop(self):
        grid = TimeGrid(0.0, 0.5, 25)
        rng = np.random.default_rng(8)
        f = _series(grid, rng.uniform(0, 1, 25))
        got = convolve_direct(f, Exponential(0.6))
        want = _oracle_convolve(f, Exponential(0.6))
        assert np.allclose(got.values, want, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# ceiling-clipped convolution


class TestClip:
    def test_zero_ceiling_density_equals_direct_exactly(self):
        grid = TimeGrid(0.0, 0.5, 30)
        rng = np.random.default_rng(9)
        f = _series(grid, rng.uniform(0, 1, 30))
        lam = 0.4
        a = convolve_direct(f, Exponential(lam))
        b = convolve_direct(f, Exponential(lam), StepSeries(grid, []))
        assert np.array_equal(a.values, b.values)  # bitwise, same reduction

    def test_saturating_ceiling_kills_later_contributions(self):
        grid = TimeGrid(0.0, 1.0, 8)
        f = StepSeries(grid, [1.0])
        g = StepSeries(grid, [1.0], 2)  # ceiling uses up the whole budget within cell 2
        lam = 0.2
        got = convolve_direct(f, Exponential(lam), g)
        c = within_cell_factor(lam, 1.0)
        assert got.values[0] == pytest.approx(c, rel=1e-12)
        assert np.all(np.asarray(got.values)[1:] == 0.0)

    def test_partial_ceiling_scales_bracket(self):
        grid = TimeGrid(0.0, 1.0, 6)
        f = StepSeries(grid, [1.0])
        g = _series(grid, [0.0, 0.25, 0.0, 0.0, 0.0, 0.0])
        lam = 0.0
        got = convolve_direct(f, Exponential(lam), g)
        # with no decay, the source mass is 1.0; from cell 2 on, the bracket
        # drops to 1 - 0.25 = 0.75
        assert got.values[0] == pytest.approx(1.0)
        assert np.allclose(got.values[1:], 0.75)

    @given(st.integers(0, 2**32 - 1))
    def test_never_exceeds_unclipped(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        grid = TimeGrid(0.0, float(rng.uniform(0.1, 2.0)), n)
        f = _series(grid, rng.uniform(0, 1, n))
        g = _series(grid, rng.uniform(0, 0.5, n))
        lam = float(rng.uniform(0, 2))
        clipped = convolve_direct(f, Exponential(lam), g)
        direct = convolve_direct(f, Exponential(lam))
        assert np.all(np.asarray(clipped.values) <= np.asarray(direct.values))

    def test_bracket_floor_at_zero(self):
        # an over-saturated ceiling must not go negative and re-add mass
        grid = TimeGrid(0.0, 1.0, 5)
        f = _series(grid, [1.0, 0.0, 0.0, 0.0, 0.0])
        g = _series(grid, [0.0, 3.0, 0.0, 0.0, 0.0])
        got = convolve_direct(f, Exponential(0.0), g)
        assert np.all(np.asarray(got.values) >= 0.0)
        assert np.all(np.asarray(got.values)[1:] == 0.0)


# ---------------------------------------------------------------------------
# the row-at-a-time forms against the omega x omega matrix forms they replaced


def _matrix_terms(f: StepSeries, survivor) -> np.ndarray:
    """Contribution of source cell j (column) to evaluation cell k (row),
    before any clipping."""
    grid = f.grid
    n = grid.omega
    delta = grid.delta
    idx = np.arange(n)
    elapsed = (idx[:, None] - idx[None, :]) * delta
    mask = elapsed >= 0
    if isinstance(survivor, Exponential):
        rate = survivor.rate
        if math.isinf(rate):
            return np.zeros((n, n))
        coef = delta * within_cell_factor(rate, delta)
        kernel = coef * np.exp(-rate * np.where(mask, elapsed, 0.0))
    else:
        slope = survivor.slope
        if math.isinf(slope):
            weight = np.where(elapsed == 0, 1.0, 0.0)
        else:
            weight = np.clip(1.0 - slope * np.where(mask, elapsed, 0.0), 0.0, None)
        kernel = delta * weight
    return np.where(mask, np.asarray(_cells(f))[None, :] * kernel, 0.0)


def _matrix_convolve(f: StepSeries, survivor, g: StepSeries | None = None) -> np.ndarray:
    """``convolve_direct`` with the whole terms and bracket matrices in
    memory, summed by rows."""
    terms = _matrix_terms(f, survivor)
    if g is None:
        return terms.sum(axis=1)
    grid = f.grid
    cum = np.zeros(grid.omega + 1)
    np.cumsum(np.asarray(_cells(g)) * grid.delta, out=cum[1:])
    integral = cum[1:, None] - cum[None, :-1]
    bracket = np.clip(1.0 - integral, 0.0, None)
    return (terms * bracket).sum(axis=1)


# Pairwise summation adds blocks of 8 and splits rows longer than 128.
_OMEGAS = st.sampled_from([1, 7, 8, 9, 128, 129, 256, 257, 300]) | st.integers(1, 300)
_RATES = st.sampled_from([0.0, math.inf]) | st.floats(0.0, 50.0)


def _values(rng: np.random.Generator, omega: int, scale: float) -> np.ndarray:
    """Uniform values on [0, scale) with a random share of 0.0 and of -0.0."""
    values = rng.uniform(0.0, scale, omega)
    values[rng.random(omega) < rng.choice([0.0, 0.3, 1.0])] = 0.0
    values[rng.random(omega) < rng.choice([0.0, 0.3, 1.0])] = -0.0
    return values


@st.composite
def _convolution_case(draw):
    omega = draw(_OMEGAS)
    grid = TimeGrid(0.0, draw(st.sampled_from([0.25, 1.0]) | st.floats(0.01, 10.0)), omega)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # f stores cells first..last only, as refine's curves do
    first = draw(st.integers(1, omega))
    last = draw(st.integers(first - 1, omega))
    values = _values(rng, omega, draw(st.sampled_from([1e-300, 1.0, 5.0])))
    f = StepSeries(grid, values[first - 1 : last], first)
    # from no annihilation at all to a bracket that reaches 0 within a cell
    g = _series(grid, _values(rng, omega, draw(st.sampled_from([0.0, 1e-3, 1.0, 100.0]))))
    return f, g, draw(_RATES), draw(_RATES)


@given(_convolution_case())
def test_row_forms_equal_matrix_forms_bit_for_bit(case):
    # tobytes() also tells 0.0 from -0.0
    f, g, rate, slope = case
    for survivor in (Exponential(rate), Linear(slope)):
        got = convolve_direct(f, survivor).values
        assert got.tobytes() == _matrix_convolve(f, survivor).tobytes()
        got = convolve_direct(f, survivor, g).values
        assert got.tobytes() == _matrix_convolve(f, survivor, g).tobytes()


def test_quadratic_forms_run_in_linear_memory():
    # One omega x omega float64 array at omega = 20000 is 3.2 GB.
    omega = 20_000
    grid = TimeGrid(0.0, 1.0, omega)
    rng = np.random.default_rng(5)
    f = _series(grid, rng.uniform(0, 1, omega))
    g = _series(grid, rng.uniform(0, 1e-4, omega))
    runs = {
        "annihilated": lambda: convolve_direct(f, Exponential(0.01), g),
        "exponential": lambda: convolve_direct(f, Exponential(0.01)),
        "linear": lambda: convolve_direct(f, Linear(0.001)),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000, name


# ---------------------------------------------------------------------------
# full sweep


def _dock_setup(delta=1.0, omega=200, lam=HALF_PER_15, kappa=1.0, window=(0.0, 10.0)):
    theory = parse_theory(
        f"persist ATDOCK(?t) exp {lam!r}\n"
        f"project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ {kappa!r}\n"
    )
    grid = TimeGrid(0.0, delta, omega)
    store = TokenStore()
    add_basic_event(store, Pattern("ARRIVE", ("TRUCK14",)), window[0], window[1], 1.0, grid)
    project(theory, store, grid)
    return theory, grid, store


class TestRefineSweep:
    def test_sweep_equals_direct_convolution(self):
        theory, grid, store = _dock_setup()
        refine(store, theory, grid, epsilon=0.0)
        (dock,) = store.facts_of_type(("ATDOCK", 1))
        (arrive,) = store.events_of_type(("ARRIVE", 1))
        want = convolve_direct(arrive.density, Exponential(HALF_PER_15))
        assert np.allclose(_cells(dock.mass), want.values, rtol=0, atol=1e-9)

    def test_sweep_equals_scalar_oracle(self):
        theory, grid, store = _dock_setup(delta=2.0, omega=40)
        refine(store, theory, grid, epsilon=0.0)
        (dock,) = store.facts_of_type(("ATDOCK", 1))
        (arrive,) = store.events_of_type(("ARRIVE", 1))
        want = _oracle_convolve(arrive.density, Exponential(HALF_PER_15))
        assert np.allclose(_cells(dock.mass), want, rtol=0, atol=1e-9)

    def test_kappa_scales_curve_linearly(self):
        theory1, grid, store1 = _dock_setup(kappa=1.0, omega=60)
        refine(store1, theory1, grid, epsilon=0.0)
        theory2, _, store2 = _dock_setup(kappa=0.5, omega=60)
        refine(store2, theory2, grid, epsilon=0.0)
        m1 = np.asarray(_cells(store1.facts_of_type(("ATDOCK", 1))[0].mass))
        m2 = _cells(store2.facts_of_type(("ATDOCK", 1))[0].mass)
        assert np.allclose(m2, 0.5 * m1, rtol=1e-12, atol=1e-15)

    def test_unimodal_rise_then_decay(self):
        theory, grid, store = _dock_setup()
        refine(store, theory, grid)
        (dock,) = store.facts_of_type(("ATDOCK", 1))
        (arrive,) = store.events_of_type(("ARRIVE", 1))
        m = _cells(dock.mass)
        last_density = int(np.nonzero(_cells(arrive.density))[0].max())
        assert np.all(np.diff(m[: last_density + 1]) >= 0)
        end = dock.close_cell or grid.omega
        assert np.all(np.diff(m[last_density + 1 : end]) < 0)

    def test_mass_decays_exponentially_after_window(self):
        theory, grid, store = _dock_setup(omega=100)
        refine(store, theory, grid, epsilon=0.0)
        m = _cells(store.facts_of_type(("ATDOCK", 1))[0].mass)
        # beyond the arrival window the curve is a pure survivor tail
        ratio = m[60] / m[40]
        assert ratio == pytest.approx(math.exp(-HALF_PER_15 * 20.0), rel=1e-9)

    def test_user_densities_preserved(self):
        theory, grid, store = _dock_setup()
        refine(store, theory, grid)
        (arrive,) = store.events_of_type(("ARRIVE", 1))
        assert series_integral(arrive.density) == pytest.approx(1.0, rel=1e-9)

    def test_stats_recorded(self):
        theory, grid, store = _dock_setup()
        refine(store, theory, grid)
        stats = store.sweep_stats
        assert stats.cells == grid.omega
        assert stats.clamped == 0

    def test_invalid_arguments(self):
        theory, grid, store = _dock_setup()
        with pytest.raises(ValueError):
            refine(store, theory, grid, epsilon=-0.1)

    def test_rerefine_is_idempotent(self):
        theory, grid, store = _dock_setup()
        refine(store, theory, grid)
        first = np.asarray(_cells(store.facts_of_type(("ATDOCK", 1))[0].mass)).copy()
        refine(store, theory, grid)
        second = _cells(store.facts_of_type(("ATDOCK", 1))[0].mass)
        assert np.array_equal(first, second)


class TestLinearFactSweep:
    def test_linear_fact_matches_direct(self):
        theory = parse_theory(
            "persist CHARGED(?b) lin 0.125\n"
            "project ALWAYS, PLUG(?b) => CHARGED(?b) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 40)
        store = TokenStore()
        add_basic_event(store, Pattern("PLUG", ("B1",)), 0.0, 4.0, 1.0, grid)
        project(theory, store, grid)
        refine(store, theory, grid, epsilon=0.0)
        (fact,) = store.facts_of_type(("CHARGED", 1))
        (plug,) = store.events_of_type(("PLUG", 1))
        want = convolve_direct(plug.density, Linear(0.125))
        assert np.allclose(_cells(fact.mass), want.values, rtol=0, atol=1e-9)
        # every source cell is dead after the 8-unit ramp runs out
        assert _cells(fact.mass)[-1] == 0.0

    def test_infinite_slope_keeps_the_occurrence_cell(self):
        # Lag 0 weighs 1 at every slope; 1 - inf*0*delta would be NaN.
        theory = parse_theory(
            "persist F(?x) lin inf\n"
            "project ALWAYS, E(?x) => F(?x) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 6)
        store = TokenStore()
        add_basic_event(store, Pattern("E", ("A",)), 2.0, 2.0, 1.0, grid)
        project(theory, store, grid)
        refine(store, theory, grid, epsilon=1e-4)
        (fact,) = store.facts_of_type(("F", 1))
        (event,) = store.events_of_type(("E", 1))
        want = convolve_direct(event.density, Linear(math.inf))
        assert list(_cells(fact.mass)) == list(want.values) == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]


class TestClosure:
    def test_fact_closes_when_mass_spent(self):
        theory, grid, store = _dock_setup(delta=2.0, omega=1440)
        refine(store, theory, grid, epsilon=1e-4)
        (dock,) = store.facts_of_type(("ATDOCK", 1))
        assert dock.close_cell is not None
        m = np.asarray(_cells(dock.mass))
        assert m[dock.close_cell - 1] < 1e-4
        assert np.all(m[dock.close_cell :] == 0.0)
        assert store.sweep_stats.closures == 1

    def test_zero_epsilon_disables_closure(self):
        theory, grid, store = _dock_setup(delta=2.0, omega=1440)
        refine(store, theory, grid, epsilon=0.0)
        (dock,) = store.facts_of_type(("ATDOCK", 1))
        assert dock.close_cell is None
        assert _cells(dock.mass)[-1] > 0.0

    def test_never_supported_fact_never_closes(self):
        # peak mass stays below epsilon, so there is nothing to close
        theory, grid, store = _dock_setup(kappa=1e-6, omega=100)
        refine(store, theory, grid, epsilon=1e-4)
        (dock,) = store.facts_of_type(("ATDOCK", 1))
        assert dock.close_cell is None
        assert np.asarray(_cells(dock.mass)).max() < 1e-4

    def test_downstream_density_sees_closure(self):
        theory = parse_theory(
            "persist A(?x) exp 2.0\npersist B(?x) exp 0.0\n"
            "project ALWAYS, EA(?x) => A(?x) @ 1.0\n"
            "project A(?x), EB(?x) => B(?x) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 30)
        store = TokenStore()
        add_basic_event(store, Pattern("EA", ("X",)), 0.0, 0.0, 1.0, grid)
        add_basic_event(store, Pattern("EB", ("X",)), 0.0, 25.0, 1.0, grid)
        project(theory, store, grid)
        refine(store, theory, grid, epsilon=1e-4)
        (a,) = store.facts_of_type(("A", 1))
        (b_onset,) = store.events_of_type(("B", 1))
        assert a.close_cell is not None
        c = a.close_cell
        assert np.all(np.asarray(_cells(b_onset.density))[c:] == 0.0)
        assert np.any(np.asarray(_cells(b_onset.density))[:c] > 0.0)


class TestSpans:
    """Each curve stores only its span, so memory follows the live cells."""

    @staticmethod
    def _arrivals(count, omega, epsilon):
        theory = parse_theory("persist F(?x) exp 0.2\nproject ALWAYS, E(?x) => F(?x) @ 1.0\n")
        grid = TimeGrid(0.0, 1.0, omega)
        store = TokenStore()
        for k in range(count):
            t = float(k * 10)
            add_basic_event(store, Pattern("E", (f"X{k}",)), t, t, 1.0, grid)
        project(theory, store, grid)
        refine(store, theory, grid, epsilon)
        return grid, store

    def test_stored_cells_far_below_tokens_times_omega(self):
        grid, store = self._arrivals(500, 5000, 1e-4)
        stored = sum(len(e.density.values) for e in store.events)
        stored += sum(len(f.mass.values) for f in store.facts)
        assert len(store) == 1501
        # 500 one-cell arrivals and onsets, 500 facts of at most 47 cells
        # each, and ALWAYS over every cell: about 30 000 of 7.5 million.
        assert stored < len(store) * grid.omega / 100

    @pytest.mark.parametrize("epsilon", [1e-4, 0.0])
    def test_fact_spans_first_cell_to_close_cell_or_omega(self, epsilon):
        grid, store = self._arrivals(20, 400, epsilon)
        for event in store.events:
            assert (event.density.first, len(event.density.values)) == (grid.time_to_cell(event.est), 1)
        for fact in store.facts[1:]:
            end = fact.close_cell if epsilon else grid.omega
            assert (fact.close_cell is not None) == bool(epsilon)
            assert fact.mass.first == grid.time_to_cell(fact.est)
            assert fact.mass.first + len(fact.mass.values) - 1 == end

    def test_fact_starts_at_its_own_est(self):
        # Facts built by hand: F starts after its onset's window opens, and
        # G's onset lies before the grid, so its span is empty.  Each fact
        # starts at its own first cell and reads its onset's density there.
        theory = parse_theory("project ALWAYS, E(?x) => F(?x) @ 1.0\n")
        grid = TimeGrid(0.0, 1.0, 30)
        store = TokenStore()
        always = store.ensure_always()
        trigger = add_basic_event(store, Pattern("E", ("X",)), 2.0, 9.0, 1.0, grid)
        derivation = RuleDerived(0, trigger.tid, (always.tid,))
        for name, est, lst, fact_est in [("F", 2.0, 9.0, 5.0), ("G", -9.0, -3.0, -9.0)]:
            onset = store.add_event(Pattern(name, ("X",)), est, lst, 1.0, derivation)
            store.add_fact(Pattern(name, ("X",)), onset.tid, Linear(0.1), fact_est, derivation)
        refine(store, theory, grid, 0.0)
        (f,) = store.facts_of_type(("F", 1))
        (g,) = store.facts_of_type(("G", 1))
        assert (f.mass.first, g.mass.first) == (6, 1)
        onset = list(store)[f.initiating_event].density
        assert f.mass.values[0] == onset.window(6, 6)[0] * grid.delta > 0.0
        assert g.mass.values.tobytes() == bytes(8 * grid.omega)


class TestCycleDetection:
    CYCLIC = (
        "persist A(?x) exp 0.1\npersist B(?x) exp 0.1\n"
        "project B(?x), EA(?x) => A(?x) @ 1.0\n"
        "project A(?x), EB(?x) => B(?x) @ 1.0\n"
        "project ALWAYS, E0(?x) => A(?x) @ 1.0\n"
    )

    def _cyclic_store(self, grid):
        theory = parse_theory(self.CYCLIC)
        store = TokenStore()
        add_basic_event(store, Pattern("E0", ("X",)), 0.0, 1.0, 1.0, grid)
        add_basic_event(store, Pattern("EB", ("X",)), 2.0, 3.0, 1.0, grid)
        project(theory, store, grid)
        return theory, store

    def test_open_type_cycle_raises(self):
        grid = TimeGrid(0.0, 1.0, 20)
        theory, store = self._cyclic_store(grid)
        # both fact types are open once B starts at t=2 (cell 3)
        with pytest.raises(CyclicOpenTokens) as exc:
            refine(store, theory, grid)
        err = exc.value
        assert err.cell == 3
        assert err.cycle[0] == err.cycle[-1]
        assert {("A", 1), ("B", 1)} <= set(err.cycle)
        assert "A/1" in str(err)

    def test_cycle_same_as_oracle(self):
        grid = TimeGrid(0.0, 1.0, 20)
        theory, store = self._cyclic_store(grid)
        with pytest.raises(CyclicOpenTokens) as got:
            refine(store, theory, grid)
        theory, store = self._cyclic_store(grid)
        with pytest.raises(CyclicOpenTokens) as want:
            _oracle_refine(store, theory, grid, 1e-4)
        assert (got.value.cell, got.value.cycle) == (want.value.cell, want.value.cycle)

    def test_acyclic_instance_of_cyclic_types_is_fine_once_closed(self):
        # same rule set, but the B trigger never matches: only A is ever
        # open, so the B->A arc never completes a live cycle
        theory = parse_theory(self.CYCLIC)
        grid = TimeGrid(0.0, 1.0, 20)
        store = TokenStore()
        add_basic_event(store, Pattern("E0", ("X",)), 0.0, 1.0, 1.0, grid)
        project(theory, store, grid)
        refine(store, theory, grid)
        assert len(store.facts_of_type(("A", 1))) == 1

    @pytest.mark.parametrize(
        "b_offset, second_a_offset, raise_offset",
        [(0, None, 0), (1, None, None), (1, 5, 5)],
        ids=["b-opens-as-a-closes", "a-closed-before-b-opens", "second-a-opens-later"],
    )
    def test_closure_before_opening_removes_cycle(self, b_offset, second_a_offset, raise_offset):
        # A (fast decay) closes at cell c.  A fact closing at c is still
        # open at c, so B opening at c completes the cycle; B opening at c+1
        # does not.  B's mass never reaches epsilon, so B stays open, and a
        # second A token opening later completes the cycle at its own cell.
        theory = parse_theory(
            "persist A(?x) exp 2.0\npersist B(?x) exp 0.1\n"
            "project B(?x), EA(?x) => A(?x) @ 1.0\n"
            "project A(?x), EB(?x) => B(?x) @ 1.0\n"
            "project ALWAYS, E0(?x) => A(?x) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 30)

        def build(*cells):
            store = TokenStore()
            for name, cell in zip(("E0", "EB", "E0"), cells):
                if cell is not None:
                    t = grid.cell_start(cell)
                    add_basic_event(store, Pattern(name, ("X",)), t, t, 1.0, grid)
            project(theory, store, grid)
            return theory, grid, store

        _, _, alone = build(1)
        refine(alone, theory, grid)
        close = alone.facts_of_type(("A", 1))[0].close_cell
        cells = (1, close + b_offset, None if second_a_offset is None else close + second_a_offset)
        if raise_offset is None:
            _assert_same_as_oracle(lambda: build(*cells), 1e-4)
            return
        _, _, store = build(*cells)
        with pytest.raises(CyclicOpenTokens) as got:
            refine(store, theory, grid)
        _, _, store = build(*cells)
        with pytest.raises(CyclicOpenTokens) as want:
            _oracle_refine(store, theory, grid, 1e-4)
        assert got.value.cell == want.value.cell == close + raise_offset
        assert got.value.cycle == want.value.cycle

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_check_on_cyclic_theories_only_same_as_unconditional(self, seed, cyclic):
        # refine records and checks the open types only when the dependency
        # relation has a cycle; it raises as the check made over every fact
        # and the per-cell oracle do, and otherwise leaves the same curves.
        theory, grid, events, epsilon = _small_rule_set(random.Random(seed), cyclic)
        assert (dependency_graph(theory).find_cycle() is not None) == cyclic
        store = _layered_store(theory, grid, events)
        try:
            refine(store, theory, grid, epsilon)
            got = None
        except CyclicOpenTokens as exc:
            got = (exc.cell, exc.cycle)
        assert got == _unconditional_open_type_check(store, theory, grid)
        want = _layered_store(theory, grid, events)
        try:
            _oracle_refine(want, theory, grid, epsilon)
        except CyclicOpenTokens as exc:
            assert got == (exc.cell, exc.cycle)
            return
        assert got is None
        _assert_same_curves(store, want)

    def test_acyclic_theories_make_no_open_type_check(
        self, monkeypatch, dock_rules_text, dock_facts_text
    ):
        calls = []
        monkeypatch.setattr(refinement, "_check_open_types", lambda *args: calls.append(args))
        dock = parse_theory(dock_rules_text)
        grid = TimeGrid(0.0, 2.0, 1440)
        store = TokenStore()
        load_basic_facts(store, dock_facts_text, grid)
        project(dock, store, grid)
        refine(store, dock, grid)
        join = parse_theory(
            "persist ATDOCK(?t) exp 0.0034195529591700387\npersist LOADED(?t) lin 0.004\n"
            "project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0\n"
            "project ATDOCK(?t), LOAD(?t) => LOADED(?t) @ 0.9\n"
        )
        grid = TimeGrid(0.0, 20.0, 50)
        store = TokenStore()
        for k in range(20):
            add_basic_event(store, Pattern("ARRIVE", (f"T{k}",)), 10.0 * k, 10.0 * k + 40.0, 1.0, grid)
            add_basic_event(store, Pattern("LOAD", (f"T{k}",)), 10.0 * k + 9.0, 10.0 * k + 49.0, 0.8, grid)
        project(join, store, grid)
        refine(store, join, grid)
        assert len(store.facts_of_type(("LOADED", 1))) == 20
        assert calls == []
        grid = TimeGrid(0.0, 1.0, 20)
        theory, store = self._cyclic_store(grid)
        refine(store, theory, grid)  # the counter does not raise
        assert len(calls) == 1


class TestOrderEquivalence:
    """``refine`` against the per-cell ``_oracle_refine``, bit for bit."""

    def test_dock_bitwise_identical(self):
        _assert_same_as_oracle(_dock_setup, 1e-4)

    def test_chain_bitwise_identical(self):
        text = (
            "persist A(?x) exp 0.3\npersist B(?x) exp 0.2\npersist C(?x) lin 0.05\n"
            "project ALWAYS, E(?x) => A(?x) @ 0.9\n"
            "project A(?x), F(?x) => B(?x) @ 0.8\n"
            "project B(?x), A(?x), G(?x) => C(?x) @ 0.7\n"
        )
        theory = parse_theory(text)
        grid = TimeGrid(0.0, 0.5, 80)

        def build():
            store = TokenStore()
            add_basic_event(store, Pattern("E", ("X",)), 0.0, 3.0, 1.0, grid)
            add_basic_event(store, Pattern("F", ("X",)), 4.0, 9.0, 0.8, grid)
            add_basic_event(store, Pattern("G", ("X",)), 10.0, 18.0, 0.6, grid)
            project(theory, store, grid)
            return theory, grid, store

        _assert_same_as_oracle(build, 1e-4)

    def test_onsets_with_their_triggers_window_bitwise_identical(self):
        # Hand-built onsets with their trigger's window: F's trigger holds a
        # hand-set density past its window's cells, which F reads only
        # inside them; F's onset triggers G's; ALWAYS is an antecedent of
        # both, and F's fact one of G's.
        theory = parse_theory("persist F(?x) exp 0.2\npersist G(?x) lin 0.1\n")
        grid = TimeGrid(0.0, 1.0, 30)

        def build():
            store = TokenStore()
            always = store.ensure_always()
            trigger = add_basic_event(store, Pattern("E", ("X",)), 2.0, 9.0, 1.0, grid)
            trigger.density = StepSeries(grid, np.full(grid.omega, 0.05))
            antecedents = (always.tid,)
            for name, survivor in [("F", Exponential(0.2)), ("G", Linear(0.1))]:
                derivation = RuleDerived(0, trigger.tid, antecedents)
                trigger = store.add_event(Pattern(name, ("X",)), 2.0, 9.0, 0.8, derivation)
                fact = store.add_fact(Pattern(name, ("X",)), trigger.tid, survivor, 2.0, derivation)
                antecedents = (always.tid, fact.tid)
            return theory, grid, store

        _assert_same_as_oracle(build, 1e-4)
        _, _, store = build()
        refine(store, theory, grid, 1e-4)
        assert [(e.density.first, len(e.density.values)) for e in store.events[1:]] == [(3, 8), (3, 8)]

    def test_onsets_with_another_window_than_their_triggers_bitwise_identical(self):
        # Hand-built onsets, as in test_fact_starts_at_its_own_est: F's
        # window lies inside its trigger's and its fact starts after it
        # opens, G's lies before the grid, and H's runs past its trigger's.
        theory = parse_theory("persist F(?x) lin 0.1\n")
        grid = TimeGrid(0.0, 1.0, 30)

        def build():
            store = TokenStore()
            always = store.ensure_always()
            trigger = add_basic_event(store, Pattern("E", ("X",)), 2.0, 9.0, 1.0, grid)
            derivation = RuleDerived(0, trigger.tid, (always.tid,))
            for name, est, lst, fact_est in [
                ("F", 4.0, 7.5, 5.0), ("G", -9.0, -3.0, -9.0), ("H", 2.0, 12.0, 2.0)
            ]:
                onset = store.add_event(Pattern(name, ("X",)), est, lst, 1.0, derivation)
                store.add_fact(Pattern(name, ("X",)), onset.tid, Linear(0.1), fact_est, derivation)
            return theory, grid, store

        _assert_same_as_oracle(build, 1e-4)

    def test_clamps_counted_up_to_close_cell(self):
        # A hand-set user density integrating to 3 twice over: masses pass 1
        # and are clamped, the facts close between the bursts, and the second
        # burst must neither reopen them nor count as clamps.
        theory = parse_theory(
            "persist A(?x) exp 0.5\npersist L(?x) lin 0.2\n"
            "project ALWAYS, E(?x) => A(?x) @ 1.0\n"
            "project ALWAYS, E(?x) => L(?x) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 40)

        def build():
            store = TokenStore()
            event = add_basic_event(store, Pattern("E", ("X",)), 0.0, 30.0, 1.0, grid)
            values = np.zeros(grid.omega)
            values[[0, 1, 2, 25, 26, 27]] = 1.0
            event.density = StepSeries(grid, values)
            project(theory, store, grid)
            return theory, grid, store

        _assert_same_as_oracle(build, 1e-4)
        _, _, store = build()
        refine(store, theory, grid, 1e-4)
        assert store.sweep_stats.clamped >= 2
        assert all(f.close_cell is not None and f.close_cell < 26 for f in store.facts[1:])

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-4, 1e-3]))
    def test_random_layered_rule_sets(self, seed, epsilon):
        theory, grid, events, _ = _random_layered_setup(random.Random(seed), negative_zero=True)
        _assert_same_as_oracle(lambda: (theory, grid, _layered_store(theory, grid, events)), epsilon)

    def test_negative_zero_kappa_reaches_densities(self):
        theory, grid, events, _ = _random_layered_setup(random.Random(3), negative_zero=True)
        store = _layered_store(theory, grid, events)
        refine(store, theory, grid, 1e-4)
        (onset,) = store.events_of_type(("NZD", 1))
        assert np.any(np.signbit(_cells(onset.density)))


class TestFamilyLoops:
    """Each survivor family's loop against the per-cell ``_oracle_refine``."""

    @pytest.fixture(autouse=True)
    def _lag_zero_weighs_one(self, monkeypatch):
        # Lag 0 weighs 1 at every slope, as in survivor_eval.  At slope inf it
        # is the only lag, and _mass_update_lin's formula gives it NaN and
        # drops it, so the oracle here adds it as refine does: 0.0 plus the
        # source cell times delta times 1.0.
        lin = _mass_update_lin

        def update(store, token, i, first):
            if math.isinf(token.persistence.slope):
                src = list(store)[token.initiating_event].density.values
                return 0.0 + float(src[i - 1]) * token.mass.grid.delta * 1.0
            return lin(store, token, i, first)

        monkeypatch.setitem(globals(), "_mass_update_lin", update)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-4])
    def test_lin_facts_of_one_slope_from_different_cells(self, epsilon):
        # Five L facts of one slope start at five cells; the one that starts
        # first outlives its 40-lag ramp, the later ones reach the horizon
        # first, and the burst clamps.  lin 0 and lin inf ride along.
        theory = parse_theory(
            "persist L(?x) lin 0.05\npersist Z(?x) lin 0\npersist I(?x) lin inf\n"
            "project ALWAYS, E(?x) => L(?x) @ 0.9\n"
            "project ALWAYS, E(?x) => Z(?x) @ 0.4\n"
            "project ALWAYS, E(?x) => I(?x) @ 0.7\n"
        )
        grid = TimeGrid(0.0, 0.5, 60)
        windows = [(0.0, 3.0), (2.2, 2.2), (7.5, 12.0), (20.0, 26.0), (27.0, 40.0), (13.0, 14.5)]

        def build():
            store = TokenStore()
            for n, (est, lst) in enumerate(windows):
                event = add_basic_event(store, Pattern("E", (f"X{n}",)), est, lst, 1.0, grid)
            event.density = StepSeries(grid, [3.0, 0.0, 3.0, 0.5], 27)  # cells 27..30
            project(theory, store, grid)
            return theory, grid, store

        _assert_same_as_oracle(build, epsilon)
        _, _, store = build()
        refine(store, theory, grid, epsilon)
        firsts = [f.mass.first for f in store.facts_of_type(("L", 1))]
        assert len(set(firsts)) == len(windows)
        assert store.sweep_stats.clamped >= 2

    def test_exponential_fact_clamped_then_closed(self):
        theory = parse_theory("persist A(?x) exp 2.0\nproject ALWAYS, E(?x) => A(?x) @ 1.0\n")
        grid = TimeGrid(0.0, 1.0, 30)

        def build():
            store = TokenStore()
            event = add_basic_event(store, Pattern("E", ("X",)), 3.0, 6.0, 1.0, grid)
            event.density = StepSeries(grid, [0.5, 3.0, 3.0, 0.5], 4)  # cells 4..7
            project(theory, store, grid)
            return theory, grid, store

        _assert_same_as_oracle(build, 1e-3)
        _, _, store = build()
        refine(store, theory, grid, 1e-3)
        (fact,) = store.facts_of_type(("A", 1))
        assert store.sweep_stats.clamped == 2
        assert fact.mass.first == 4 and fact.close_cell == 4 + len(fact.mass.values) - 1 < 15
        assert list(fact.mass.values[1:3]) == [1.0, 1.0]
        assert 0.0 < fact.mass.values[-1] < 1e-3

