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
:class:`CyclicOpenTokens` naming that cell and the cycle.
"""
from __future__ import annotations

import itertools
import math
import sys
from array import array
from collections.abc import Iterable, Iterator

from . import _Record
from .core import StepSeries, TimeGrid
from .theory import CausalTheory, Exponential, Survivor, TypeKey, dependency_graph
from .tokens import EventToken, TokenStore, user_density


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


def _exponential_masses(density: Iterable[float], rate: float, delta: float) -> Iterator[float]:
    """The recurrence masses from a fact's first cell on, one per cell.  Each
    cell decays the previous mass as :func:`_clamp_and_close` keeps it,
    clipped to 1."""
    decay = 0.0 if math.isinf(rate) else math.exp(-rate * delta)
    coef = delta * within_cell_factor(rate, delta)
    prev = 0.0
    for d in density:
        value = decay * prev + d * coef
        yield value
        prev = 1.0 if value > 1.0 else value


def _linear_masses(density: array, slope: float, delta: float) -> Iterator[float]:
    """The convolution masses from a fact's first cell on, one per cell.

    Each source cell, in ascending order, adds ``density * delta`` times the
    weight ``1 - slope*lag*delta`` of each lag with a positive weight to the
    cells after it; a cell is yielded once every source up to it is added.
    Every cell thus sums its contributions in ascending source order, from
    0.0.  A ``±0.0`` source adds nothing to such a sum and is skipped.
    """
    n = len(density)
    # Positive and non-increasing in the lag.  Lag 0 weighs 1 at every
    # slope, as in survivor_eval; the formula would give NaN at slope inf.
    weights = [1.0]
    for lag in range(1, n):
        weight = 1.0 - slope * lag * delta
        if not weight > 0.0:
            break
        weights.append(weight)
    out = [0.0] * n
    for j, d in enumerate(density):
        if d:
            source = d * delta
            stop = min(n, j + len(weights))
            out[j:stop] = [total + source * weight for total, weight in zip(out[j:stop], weights)]
        yield out[j]


def _clamp_and_close(masses: Iterable[float], epsilon: float) -> tuple[list[float], int, bool]:
    """``masses`` clipped to 1 from a fact's first cell through its close cell
    (or the last cell), the number of clipped cells, and whether the last
    value closed the fact."""
    out: list[float] = []
    clamped = 0
    supported = False
    for value in masses:
        if value > 1.0:
            value = 1.0
            clamped += 1
        out.append(value)
        # Masses are never negative, so epsilon = 0 never closes.
        if value >= epsilon:
            supported = True
        elif supported:
            return out, clamped, True
    return out, clamped, False


def _check_open_types(theory: CausalTheory, opened: list[tuple[int, int | None, TypeKey]]) -> None:
    """Raise :class:`CyclicOpenTokens` at the first cell where a fact opens
    and the open fact types form a dependency cycle.

    ``opened`` holds ``(first cell, close cell, type)`` per fact in tid
    order.  A fact closing at cell ``c`` is still open at ``c``.  Closures
    only shrink the open set, so only a cell where a type joins it can fail.
    """
    graph = dependency_graph(theory)
    closes = sorted((close, key) for _, close, key in opened if close is not None)
    counts: dict[TypeKey, int] = {}
    done = 0
    for cell, group in itertools.groupby(sorted(opened, key=lambda o: o[0]), key=lambda o: o[0]):
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
    epsilon: float = 1e-4,
) -> TokenStore:
    """Fill every token's curve on ``grid``, one token at a time in tid order.

    The store must already be projected.  User event densities are kept when
    already on ``grid``; every other curve is recomputed, so refining twice
    is idempotent.  A derived event's curve spans its window's cells, and a
    fact's its first cell through its close cell, or through ``omega`` if it
    never closes.  Each fact's first cell, close cell, peak mass and clamps
    are logged at DEBUG level to the logger of this module, when ``logging``
    is loaded; this module does not load it, since a logger can only be at
    DEBUG once something has loaded and configured it.
    :class:`CyclicOpenTokens` is raised after every curve and the stats are
    in place.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    omega = grid.omega
    delta = grid.delta
    logging = sys.modules.get("logging")
    logger = logging.getLogger(__name__) if logging is not None else None
    debug = logger is not None and logger.isEnabledFor(logging.DEBUG)
    stats = SweepStats(cells=omega)
    opened: list[tuple[int, int | None, TypeKey]] = []
    tokens = list(store)  # a token refers only to smaller tids, so each is in this list
    for token in tokens:
        if isinstance(token, EventToken):
            if token.is_user:
                user_density(token, grid)
                continue
            derivation = token.derivation
            first = max(1, grid.time_to_cell(token.est))
            last = min(omega, grid.time_to_cell(token.lst))
            span: list[float] = []
            if first <= last:
                kappa = token.kappa
                span = [kappa * d for d in tokens[derivation.trigger].density.window(first, last)]
                for ant in derivation.antecedents:
                    span = [v * m for v, m in zip(span, tokens[ant].mass.window(first, last))]
            token.density = StepSeries(grid, span, first if span else 1)
            continue
        token.close_cell = None
        if token.is_builtin:
            token.mass = StepSeries.ones(grid)
            continue
        first = max(1, grid.time_to_cell(token.est))
        span = []
        if first <= omega:
            density = tokens[token.initiating_event].density.window(first, omega)
            survivor = token.persistence
            if isinstance(survivor, Exponential):
                masses = _exponential_masses(density, survivor.rate, delta)
            else:
                masses = _linear_masses(density, survivor.slope, delta)
            span, clamped, closed = _clamp_and_close(masses, epsilon)
            stats.clamped += clamped
            if closed:
                token.close_cell = first - 1 + len(span)
                stats.closures += 1
            opened.append((first, token.close_cell, token.fact_type.key))
            if debug:
                logger.debug(
                    "fact %d %s: first cell %d, close cell %s, peak mass %.12g, clamps %d",
                    token.tid, token.fact_type, first, token.close_cell, max(span), clamped,
                )
        token.mass = StepSeries(grid, span, first if span else 1)
    store.sweep_stats = stats
    _check_open_types(theory, opened)
    return store
