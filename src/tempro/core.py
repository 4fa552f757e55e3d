"""Time discretization and piecewise-constant series arithmetic.

Every probability curve in this package is a step function over a uniform
grid of time cells.  Cell ``i`` (1-based, ``1 <= i <= omega``) covers the
half-open interval ``[origin + (i-1)*delta, origin + i*delta)``.  Event
curves hold a probability *density* per cell (probability per unit time);
fact curves hold a probability *mass* per cell.
"""
from __future__ import annotations

import math
from array import array

from . import _FrozenRecord, _Record

# Relative tolerance for taking a float ratio as a whole number of cells: a
# time on a cell boundary snaps onto it, so that e.g. 0.3 / 0.1 lands in the
# cell starting at 0.3 rather than the one below, and a mesh within it of a
# divisor of delta counts as that divisor.
SNAP_REL = 1e-9


class GridError(ValueError):
    """Invalid grid construction or an operation across mismatched grids."""


class TimeGrid(_FrozenRecord):
    """Uniform discretization of the projection window.

    origin: left edge of cell 1 (abstract time units).
    delta:  cell width, strictly positive.
    omega:  number of cells, at least 1.
    """

    __slots__ = ("origin", "delta", "omega")

    def __init__(self, origin: float, delta: float, omega: int) -> None:
        if not (math.isfinite(delta) and delta > 0):
            raise GridError(f"delta must be finite and > 0, got {delta!r}")
        if not (isinstance(omega, int) and omega >= 1):
            raise GridError(f"omega must be an integer >= 1, got {omega!r}")
        if not math.isfinite(origin):
            raise GridError(f"origin must be finite, got {origin!r}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "omega", omega)

    @property
    def end(self) -> float:
        """Right edge of the last cell (exclusive)."""
        return self.origin + self.omega * self.delta

    def cell_start(self, i: int) -> float:
        return self.origin + (i - 1) * self.delta

    def cell_end(self, i: int) -> float:
        return self.origin + i * self.delta

    def time_to_cell(self, t: float) -> int:
        """Index of the cell containing ``t`` (cells are left-closed).

        The result may fall outside ``1..omega`` for times outside the grid;
        callers decide whether that is an error.  Times within a tiny relative
        tolerance of a boundary are snapped onto it.
        """
        k = (t - self.origin) / self.delta
        if math.isinf(k):  # off the grid, and too large for int()
            return 0 if k < 0 else self.omega + 1
        nearest = round(k)
        if abs(k - nearest) <= SNAP_REL * max(1.0, abs(k)):
            k = nearest
        return int(math.floor(k)) + 1

    def contains_cell(self, i: int) -> bool:
        return 1 <= i <= self.omega

    def refined(self, factor: int) -> "TimeGrid":
        """Grid over the same span with each cell split into ``factor`` parts."""
        if not (isinstance(factor, int) and factor >= 1):
            raise GridError(f"refinement factor must be an integer >= 1, got {factor!r}")
        return TimeGrid(self.origin, self.delta / factor, self.omega * factor)


class StepSeries(_Record):
    """A step function over a :class:`TimeGrid`, stored as its span.

    Used both for per-cell event densities and per-cell fact masses.
    ``values`` holds cells ``first .. first+len(values)-1``, which must lie
    in ``1..omega``; every other cell reads ``+0.0``, and :meth:`window`
    expands any run of cells.  Values must be finite and non-negative.  They
    are kept as an ``array('d')``, 8 bytes per cell: an ``array('d')`` passed
    in is kept as it is, and any other sequence of numbers is copied into one.
    """

    __slots__ = ("grid", "values", "first")

    def __init__(self, grid: TimeGrid, values: array, first: int = 1) -> None:
        if not (isinstance(values, array) and values.typecode == "d"):
            values = array("d", values)
        omega = grid.omega
        if not (isinstance(first, int) and 1 <= first <= omega + 1 - len(values)):
            raise GridError(
                f"a span of {len(values)} cells from cell {first!r} does not fit in 1..{omega}"
            )
        # min may skip a NaN, so finiteness is checked first: any NaN or
        # infinity makes the sum non-finite, and a sum that overflowed is told
        # apart by checking each value.
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise ValueError("series values must be finite")
        if values and min(values) < 0:
            raise ValueError("series values must be non-negative")
        self.grid = grid
        self.values = values
        self.first = first

    @classmethod
    def ones(cls, grid: TimeGrid) -> "StepSeries":
        return cls(grid, array("d", [1.0]) * grid.omega)

    def window(self, lo: int, hi: int) -> array:
        """The values of cells ``lo..hi``, ``+0.0`` outside the span, as a
        fresh array.

        A range inside the span is one slice, the common case for a token
        reading its inputs over its own cells; a range that reaches past the
        span is padded with zeros on either side.
        """
        first = self.first
        if first <= lo and hi < first + len(self.values):
            return self.values[lo - first : hi + 1 - first]
        # The span's cells inside lo..hi are a..b-1 (a = b when there are none).
        a = min(max(lo, first), hi + 1)
        b = max(min(hi + 1, first + len(self.values)), a)
        zero = array("d", [0.0])
        return zero * (a - lo) + self.values[a - first : b - first] + zero * (hi + 1 - b)


def series_integral(s: StepSeries, from_cell: int = 1, to_cell: int | None = None) -> float:
    """Discrete integral ``sum(values[i] * delta)`` over cells ``from_cell..to_cell``.

    Cell bounds are 1-based and inclusive; ``to_cell`` defaults to the last cell.
    """
    if to_cell is None:
        to_cell = s.grid.omega
    if not (1 <= from_cell <= to_cell <= s.grid.omega):
        raise ValueError(
            f"cell range {from_cell}..{to_cell} outside 1..{s.grid.omega}"
        )
    import numpy as np

    return float(np.frombuffer(s.window(from_cell, to_cell)).sum() * s.grid.delta)


def auto_mesh_factor(delta: float, window_widths: list[float]) -> int:
    """Subdivision factor so the working cell is at most half the smallest window.

    ``window_widths`` are the time spans of the input event windows.  Windows
    of zero width (point events) are exact at any mesh and are ignored.  When
    no positive width remains, the grid is left unrefined.  A window too
    narrow for the factor to be a finite number is a :class:`GridError`.
    """
    positive = [w for w in window_widths if w > 0]
    if not positive:
        return 1
    target = min(positive) / 2.0
    if target >= delta:
        return 1
    ratio = delta / target
    if math.isinf(ratio):
        raise GridError(
            f"the narrowest event window ({min(positive)!r}) is too narrow to divide delta {delta!r}"
        )
    return math.ceil(ratio - SNAP_REL)
