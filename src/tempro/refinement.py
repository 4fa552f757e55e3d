"""Probability refinement: fill in every token's curve, one token at a time.

After projection has decided which tokens exist, refinement computes each
token's whole curve in one step, in token-id order.  A rule-derived token
refers only to tokens with smaller ids (its trigger, its antecedents, a fact's
initiating event), so every curve a token reads is complete before the token
is computed:

* a derived onset event's density over its window cells ``[first, last]`` is
  ``kappa * density(trigger) * prod_j mass(antecedent_j)``, taken cell by
  cell (independence of the enabling conditions), and zero elsewhere;
* an exponentially persisting fact's mass obeys the exact recurrence
  ``mass[i] = exp(-r*delta) * mass[i-1] + density[i] * delta * c`` where
  ``c = (1 - exp(-r*delta)) / (r*delta)`` accounts for decay between an
  occurrence inside cell ``i`` and the cell's end (``c = 1`` when ``r = 0``);
* a linearly persisting fact's mass is the direct convolution sum of its
  initiating density with the survivor, which has no such recurrence.

A fact's mass is clipped to 1.  The fact *closes* at the first cell where its
mass falls below ``epsilon`` after having reached ``epsilon``; from then on
its mass is zero and downstream products see 0.  ``epsilon=0`` disables
closure.

A fact is open from its first cell through its close cell.  The theory's
dependency relation must have no cycle among the fact types open at one
cell; the check runs at each cell where a fact opens, and a cycle raises
:class:`CyclicOpenTokens` naming that cell and the cycle.  A relation with
no cycle has none among any set of its types, so the check runs only when
the relation has a cycle.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from itertools import chain, groupby, repeat

from . import _Record
from .core import StepSeries, TimeGrid
from .theory import (
    CausalTheory,
    DependencyGraph,
    Exponential,
    Survivor,
    TypeKey,
    dependency_graph,
)
from .tokens import EventToken, TokenStore, user_density

#: The closure threshold ``refine`` and ``tempro project --epsilon`` use
#: when none is given.
DEFAULT_EPSILON = 1e-4


class CyclicOpenTokens(RuntimeError):
    """The fact types open at one cell depend on each other cyclically."""

    def __init__(self, cell: int, cycle: list[TypeKey]):
        names = " -> ".join(f"{name}/{arity}" for name, arity in cycle)
        super().__init__(f"open tokens at cell {cell} form a dependency cycle: {names}")
        self.cell = cell
        self.cycle = cycle


class SweepStats(_Record):
    __slots__ = ("cells", "clamped", "closures")

    def __init__(self, cells: int = 0, clamped: int = 0, closures: int = 0) -> None:
        self.cells = cells
        self.clamped = clamped  # mass values clipped into [0, 1]
        self.closures = closures


def within_cell_factor(rate: float, delta: float) -> float:
    """Average survival from a uniform occurrence time in a cell to its end.

    Equals ``(1 - exp(-rate*delta)) / (rate*delta)``, continuously extended
    to 1 where ``rate*delta`` is 0 (also when it underflows to 0) and 0 at
    ``rate = inf``.
    """
    x = rate * delta
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


def survivor_eval(survivor: Survivor, elapsed: float) -> float:
    """Probability that a fact still holds ``elapsed`` time after initiation."""
    if elapsed < 0:
        raise ValueError(f"elapsed time must be >= 0, got {elapsed}")
    if elapsed == 0:
        return 1.0
    if isinstance(survivor, Exponential):
        return math.exp(-survivor.rate * elapsed)
    return max(0.0, 1.0 - survivor.slope * elapsed)


def _lag_weights(survivor: Survivor, grid: TimeGrid):
    """``delta * rho(lag)`` for lags ``0..omega-1``: for exponential survivors
    the exact per-cell kernel of the incremental recurrence, for linear ones
    the midpoint weight ``max(0, 1 - slope*lag*delta)``; 0 for every lag at
    an infinite rate."""
    import numpy as np

    delta = grid.delta
    elapsed = np.arange(grid.omega) * delta
    if isinstance(survivor, Exponential):
        rate = survivor.rate
        if math.isinf(rate):
            return np.zeros(grid.omega)
        return delta * within_cell_factor(rate, delta) * np.exp(-rate * elapsed)
    slope = survivor.slope
    if math.isinf(slope):
        weight = np.where(elapsed == 0, 1.0, 0.0)
    else:
        weight = np.clip(1.0 - slope * elapsed, 0.0, None)
    return delta * weight


def _rows(f: StepSeries, weights) -> Iterator:
    """Row k = 0..omega-1 of the contributions ``f[j] * weights[k-j]`` (0 for
    j > k), each in the same reused buffer, which keeps its full length so
    that every row is summed in the same pairwise order."""
    import numpy as np

    values = np.frombuffer(f.window(1, f.grid.omega))
    row = np.zeros(len(values))
    for k in range(len(values)):
        np.multiply(values[: k + 1], weights[k::-1], out=row[: k + 1])
        yield row


def convolve_direct(f: StepSeries, survivor: Survivor, g: StepSeries | None = None) -> StepSeries:
    """Direct (quadratic) evaluation of the persistence convolution, the
    independent reference for the recurrences in :func:`refine`.

    ``out[k] = sum_{j<=k} f[j] * delta * rho(j, k)`` where ``rho`` is the
    survivor evaluated from cell j's contribution to the end of cell k, as
    :func:`_lag_weights` states it.  Given annihilating events ``g``, each
    contribution is also scaled by ``max(0, 1 - integral(g, j..k))``, the
    probability that no annihilating event has occurred since it; with
    ``g = 0`` the result equals the unclipped one exactly, and it never
    exceeds it.  Mass
    clipped this way is not returned to the unclipped curve, so overlapping
    windows double-count the annihilation; callers wanting exact semantics
    must keep ``g`` disjoint from surviving contributions.
    """
    grid = f.grid
    rows = _rows(f, _lag_weights(survivor, grid))
    if g is None:
        return StepSeries(grid, [row.sum() for row in rows])
    import numpy as np

    if g.grid != grid:
        raise ValueError("f and g must share a grid")
    cum = np.zeros(grid.omega + 1)
    np.cumsum(np.frombuffer(g.window(1, grid.omega)) * grid.delta, out=cum[1:])
    sums = []
    for k, row in enumerate(rows):
        integral = cum[k + 1] - cum[:-1]  # integral of g over cells j..k
        sums.append((row * np.clip(1.0 - integral, 0.0, None)).sum())
    return StepSeries(grid, sums)


def _exponential_span(
    density: array, cells: int, rate: float, delta: float, epsilon: float
) -> tuple[list[float], int, bool]:
    """The masses of an exponentially persisting fact from its first cell
    on, the number of clipped cells, and whether the last mass closed it.

    ``density`` holds the initiating density of the first cells, and the
    rest of the ``cells`` cells read ``+0.0``.  Each mass decays the
    previous one as it was kept, clipped to 1.  The span runs through the
    close cell, or through all ``cells`` cells when the fact never closes.
    """
    decay = 0.0 if math.isinf(rate) else math.exp(-rate * delta)
    coef = delta * within_cell_factor(rate, delta)
    out: list[float] = []
    clamped = 0
    supported = False
    prev = 0.0
    for d in chain(density, repeat(0.0, cells - len(density))):
        prev = decay * prev + d * coef
        if prev > 1.0:
            prev = 1.0
            clamped += 1
        out.append(prev)
        # Masses are never negative, so epsilon = 0 never closes.
        if prev >= epsilon:
            supported = True
        elif supported:
            return out, clamped, True
    return out, clamped, False


def _linear_weights(slope: float, delta: float, omega: int) -> list[float]:
    """The weights ``1 - slope*lag*delta`` of lags ``0..omega-1`` up to the
    first that is not positive.  They are positive and non-increasing in the
    lag.  Lag 0 weighs 1 at every slope, as in survivor_eval; the formula
    would give NaN at slope inf."""
    weights = [1.0]
    for lag in range(1, omega):
        weight = 1.0 - slope * lag * delta
        if not weight > 0.0:
            break
        weights.append(weight)
    return weights


def _linear_span(
    density: array, cells: int, weights: list[float], delta: float, epsilon: float
) -> tuple[list[float], int, bool]:
    """The masses of a linearly persisting fact from its first cell on, the
    number of clipped cells, and whether the last mass closed it.

    ``density`` and ``cells`` are as in :func:`_exponential_span`, and
    ``weights`` are :func:`_linear_weights`.  Each source cell, in ascending
    order, adds ``density * delta`` times the weight of each lag to the
    cells after it; a cell's mass is final, clipped to 1 and checked for
    closure once every source up to it is added.  Every cell thus sums its
    contributions in ascending source order, from 0.0.  A ``±0.0`` source
    adds nothing to such a sum and is skipped, as is every cell past
    ``density``.
    """
    out = [0.0] * cells
    reach = len(weights)
    clamped = 0
    supported = False
    for j, d in enumerate(chain(density, repeat(0.0, cells - len(density)))):
        if d:
            source = d * delta
            # A slice ending past the list stops at its end, as zip does.
            out[j : j + reach] = [
                total + source * weight for total, weight in zip(out[j : j + reach], weights)
            ]
        value = out[j]
        if value > 1.0:
            out[j] = value = 1.0
            clamped += 1
        if value >= epsilon:
            supported = True
        elif supported:
            del out[j + 1 :]
            return out, clamped, True
    return out, clamped, False


def _check_open_types(
    graph: DependencyGraph, opened: list[tuple[int, int | None, TypeKey]]
) -> None:
    """Raise :class:`CyclicOpenTokens` at the first cell where a fact opens
    and the open fact types form a cycle of the dependency relation
    ``graph``.

    ``opened`` holds ``(first cell, close cell, type)`` per fact in tid
    order.  A fact closing at cell ``c`` is still open at ``c``.  Closures
    only shrink the open set, so only a cell where a type joins it can fail.
    """
    closes = sorted((close, key) for _, close, key in opened if close is not None)
    counts: dict[TypeKey, int] = {}
    done = 0
    for cell, group in groupby(sorted(opened, key=lambda o: o[0]), key=lambda o: o[0]):
        while done < len(closes) and closes[done][0] < cell:
            counts[closes[done][1]] -= 1
            done += 1
        grew = False
        for _, _, key in group:
            grew = grew or counts.get(key, 0) == 0
            counts[key] = counts.get(key, 0) + 1
        if grew:
            cycle = graph.find_cycle(within={key for key, n in counts.items() if n > 0})
            if cycle is not None:
                raise CyclicOpenTokens(cell, cycle)


def refine(
    store: TokenStore,
    theory: CausalTheory,
    grid: TimeGrid,
    epsilon: float = DEFAULT_EPSILON,
) -> TokenStore:
    """Fill every token's curve on ``grid``, one token at a time in tid order.

    The store must already be projected.  User event densities are kept when
    already on ``grid``; every other curve is recomputed, so refining twice
    is idempotent.  A derived event's curve spans its window's cells, and a
    fact's its first cell through its close cell, or through ``omega`` if it
    never closes.  :class:`CyclicOpenTokens` is raised after every curve and
    the stats are in place; the open fact types are recorded and checked
    only when the theory's dependency relation has a cycle.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    omega = grid.omega
    delta = grid.delta
    stats = SweepStats(cells=omega)
    graph = dependency_graph(theory)
    # (first cell, close cell, type) per fact with cells, or None when no
    # set of open types can form a cycle.
    opened: list[tuple[int, int | None, TypeKey]] | None = (
        [] if graph.find_cycle() is not None else None
    )
    lin_weights: dict[float, list[float]] = {}  # by slope, on this grid
    tokens = list(store)  # a token refers only to smaller tids, so each is in this list
    # The first and last cell of each event's window, by tid; 0 until an
    # event's window cells are first needed.
    firsts = [0] * len(tokens)
    lasts = [0] * len(tokens)
    always = store.always.tid if store.always is not None else -1
    for token in tokens:
        if isinstance(token, EventToken):
            if token.is_user:
                user_density(token, grid)
                continue
            derivation = token.derivation
            trigger = tokens[derivation.trigger]
            if token.est == trigger.est and token.lst == trigger.lst:
                # The trigger's window, whose cells it may already know.
                tid = trigger.tid
                if not firsts[tid]:
                    firsts[tid] = max(1, grid.time_to_cell(trigger.est))
                    lasts[tid] = min(omega, grid.time_to_cell(trigger.lst))
                first, last = firsts[tid], lasts[tid]
            else:
                first = max(1, grid.time_to_cell(token.est))
                last = min(omega, grid.time_to_cell(token.lst))
            firsts[token.tid], lasts[token.tid] = first, last
            span: list[float] = []
            if first <= last:
                kappa = token.kappa
                density = trigger.density
                if density.first == first and len(density.values) == last + 1 - first:
                    values = density.values  # the trigger's span is this window
                else:
                    values = density.window(first, last)
                span = [kappa * d for d in values]
                for ant in derivation.antecedents:
                    if ant != always:  # ALWAYS's mass is 1.0, and v * 1.0 is v
                        span = [v * m for v, m in zip(span, tokens[ant].mass.window(first, last))]
            token.density = StepSeries(grid, span, first if span else 1)
            continue
        token.close_cell = None
        if token.is_builtin:
            token.mass = StepSeries.ones(grid)
            continue
        # The fact reads its onset's density from its own first cell through
        # the end of the onset's span, and zeros after that.
        onset = tokens[token.initiating_event]
        first = firsts[onset.tid]
        if not (first and token.est == onset.est):
            first = max(1, grid.time_to_cell(token.est))
        source = onset.density
        density = source.window(first, source.first + len(source.values) - 1)
        span = []
        if first <= omega:
            cells = omega + 1 - first
            survivor = token.persistence
            if isinstance(survivor, Exponential):
                span, clamped, closed = _exponential_span(
                    density, cells, survivor.rate, delta, epsilon
                )
            else:
                weights = lin_weights.get(survivor.slope)
                if weights is None:
                    weights = lin_weights[survivor.slope] = _linear_weights(
                        survivor.slope, delta, omega
                    )
                span, clamped, closed = _linear_span(density, cells, weights, delta, epsilon)
            stats.clamped += clamped
            if closed:
                token.close_cell = first - 1 + len(span)
                stats.closures += 1
            if opened is not None:
                opened.append((first, token.close_cell, token.fact_type.key))
        token.mass = StepSeries(grid, span, first if span else 1)
    store.sweep_stats = stats
    if opened is not None:
        _check_open_types(graph, opened)
    return store
