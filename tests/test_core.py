"""Time grid, step-function series, integrals, and the auto mesh factor."""
from __future__ import annotations

import math
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempro import (
    GridError,
    StepSeries,
    TimeGrid,
    auto_mesh_factor,
    series_integral,
)

# ---------------------------------------------------------------------------
# strategies


def grids(max_omega: int = 64):
    return st.builds(
        TimeGrid,
        origin=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        delta=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
        omega=st.integers(1, max_omega),
    )


def series_on(grid: TimeGrid):
    return st.lists(
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        min_size=grid.omega,
        max_size=grid.omega,
    ).map(lambda vs: StepSeries(grid, np.array(vs, dtype=float)))


# ---------------------------------------------------------------------------
# TimeGrid


class TestTimeGrid:
    def test_cell_bounds(self):
        g = TimeGrid(0.0, 0.5, 10)
        assert g.cell_start(1) == 0.0
        assert g.cell_end(1) == 0.5
        assert g.cell_start(10) == pytest.approx(4.5)
        assert g.end == pytest.approx(5.0)

    def test_cells_are_left_closed(self):
        g = TimeGrid(0.0, 0.5, 10)
        assert g.time_to_cell(0.0) == 1
        assert g.time_to_cell(0.49) == 1
        assert g.time_to_cell(0.5) == 2

    def test_boundary_snapping_absorbs_float_noise(self):
        g = TimeGrid(0.0, 0.1, 50)
        # 0.3 is not representable; 0.3/0.1 is slightly below 3 in floats but
        # must land in the cell starting at 0.3, not the one before it.
        assert g.time_to_cell(0.3) == 4
        assert g.time_to_cell(0.2999999) == 3  # genuinely inside cell 3

    def test_nonzero_origin(self):
        g = TimeGrid(-5.0, 1.0, 10)
        assert g.time_to_cell(-5.0) == 1
        assert g.time_to_cell(0.0) == 6
        assert g.cell_start(6) == 0.0

    def test_quotient_past_float_range_maps_off_the_grid(self):
        g = TimeGrid(0.0, 1e-320, 10)
        assert g.time_to_cell(10.0) == 11
        assert g.time_to_cell(-10.0) == 0

    def test_contains_cell(self):
        g = TimeGrid(0.0, 1.0, 5)
        assert not g.contains_cell(0)
        assert g.contains_cell(1)
        assert g.contains_cell(5)
        assert not g.contains_cell(6)

    def test_refined(self):
        g = TimeGrid(1.0, 2.0, 6)
        f = g.refined(4)
        assert f == TimeGrid(1.0, 0.5, 24)
        assert f.end == g.end

    @pytest.mark.parametrize(
        "origin,delta,omega",
        [
            (0.0, 0.0, 5),
            (0.0, -1.0, 5),
            (0.0, math.inf, 5),
            (math.nan, 1.0, 5),
            (0.0, 1.0, 0),
            (0.0, 1.0, -3),
        ],
    )
    def test_invalid_grid_rejected(self, origin, delta, omega):
        with pytest.raises(GridError):
            TimeGrid(origin, delta, omega)

    @given(grids(), st.integers(1, 64))
    def test_time_to_cell_inverts_cell_start(self, g: TimeGrid, k: int):
        if k > g.omega:
            k = 1 + (k - 1) % g.omega
        assert g.time_to_cell(g.cell_start(k)) == k


# ---------------------------------------------------------------------------
# StepSeries


class TestStepSeries:
    @pytest.mark.parametrize(
        "length,first",
        [(6, 1), (1, 6), (2, 5), (4, 3), (0, 7), (0, 0), (1, 0), (1, -1), (1, 1.0)],
    )
    def test_span_that_does_not_fit_rejected(self, length, first):
        g = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(GridError, match="does not fit in 1..5"):
            StepSeries(g, np.ones(length), first)

    @pytest.mark.parametrize("length,first", [(5, 1), (4, 1), (1, 5), (2, 4), (0, 1), (0, 6)])
    def test_span_that_fits_kept(self, length, first):
        g = TimeGrid(0.0, 1.0, 5)
        s = StepSeries(g, np.ones(length), first)
        assert (list(s.values), s.first) == ([1.0] * length, first)

    def test_empty_span_reads_zero_everywhere(self):
        g = TimeGrid(0.0, 1.0, 4)
        s = StepSeries(g, [])
        assert s.window(1, 4).tobytes() == bytes(32)
        assert series_integral(s) == 0.0

    def test_window_across_and_outside_the_span(self):
        g = TimeGrid(0.0, 1.0, 8)
        s = StepSeries(g, [1.0, -0.0, 3.0], 3)  # cells 3..5
        assert list(s.window(1, 8)) == [0.0, 0.0, 1.0, 0.0, 3.0, 0.0, 0.0, 0.0]
        assert list(s.window(2, 4)) == [0.0, 1.0, 0.0]
        assert list(s.window(4, 7)) == [0.0, 3.0, 0.0, 0.0]
        assert list(s.window(3, 5)) == [1.0, 0.0, 3.0]
        assert list(s.window(6, 8)) == [0.0] * 3
        assert list(s.window(1, 2)) == [0.0] * 2
        assert list(s.window(5, 4)) == []
        # cells outside the span read +0.0; the span's own -0.0 keeps its sign
        assert np.signbit(s.window(1, 8)).tolist() == [False] * 3 + [True] + [False] * 4
        assert isinstance(s.window(1, 8), array) and s.window(1, 8).typecode == "d"

    @given(st.data())
    def test_window_equals_a_zero_padded_oracle(self, data):
        # Small grids put lo..hi inside the span, across it, outside it, on
        # an empty span and at lo = hi + 1 alike.
        omega = data.draw(st.integers(1, 12))
        length = data.draw(st.integers(0, omega))
        first = data.draw(st.integers(1, omega + 1 - length))
        values = data.draw(st.lists(st.one_of(st.just(-0.0), st.floats(0.0, 10.0)),
                                    min_size=length, max_size=length))
        lo = data.draw(st.integers(1, omega + 1))
        hi = data.draw(st.integers(lo - 1, omega))
        s = StepSeries(TimeGrid(0.0, 1.0, omega), values, first)
        padded = [0.0] * (first - 1) + values + [0.0] * (omega + 1 - first - length)
        got = s.window(lo, hi)
        assert isinstance(got, array) and got.typecode == "d"
        assert got.tobytes() == array("d", padded[lo - 1 : hi]).tobytes()
        # The result is the caller's own: changing it leaves the span as it was.
        kept = s.values.tobytes()
        got.append(5.0)
        got[0] = 7.0
        assert s.values.tobytes() == kept

    def test_checks_read_the_span_only(self):
        g = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="finite"):
            StepSeries(g, [math.nan], 4)
        with pytest.raises(ValueError, match="non-negative"):
            StepSeries(g, [0.5, -1.0], 2)

    def test_non_finite_rejected(self):
        g = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            StepSeries(g, np.array([1.0, math.nan, 0.0]))
        with pytest.raises(ValueError):
            StepSeries(g, np.array([1.0, math.inf, 0.0]))

    def test_negative_values_rejected(self):
        g = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            StepSeries(g, np.array([0.0, -0.25, 0.0]))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (math.nan, "series values must be finite"),
            (math.inf, "series values must be finite"),
            (-math.inf, "series values must be finite"),
            (-1e-300, "series values must be non-negative"),
            (-0.0, None),
        ],
    )
    def test_validation_message(self, bad, message):
        g = TimeGrid(0.0, 1.0, 3)
        values = np.array([0.5, bad, 1.0])
        if message is None:
            assert np.signbit(StepSeries(g, values).values[1])
            return
        with pytest.raises(ValueError, match=f"^{message}$"):
            StepSeries(g, values)

    def test_finite_values_whose_sum_overflows_accepted(self):
        g = TimeGrid(0.0, 1.0, 3)
        assert list(StepSeries(g, [1e308, 1e308, 1e308]).values) == [1e308] * 3

    def test_non_finite_reported_before_negative(self):
        g = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="finite"):
            StepSeries(g, np.array([-1.0, math.nan, 0.0]))

    def test_constructors(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert np.array_equal(StepSeries(g, []).window(1, 4), np.zeros(4))
        assert np.array_equal(StepSeries.ones(g).values, np.ones(4))
        assert StepSeries.ones(g).first == 1


# ---------------------------------------------------------------------------
# series_integral


class TestSeriesIntegral:
    def test_constant_series(self):
        g = TimeGrid(0.0, 0.5, 10)
        assert series_integral(StepSeries.ones(g)) == pytest.approx(5.0)

    def test_single_cell(self):
        g = TimeGrid(0.0, 0.25, 8)
        vals = np.zeros(8)
        vals[2] = 3.0
        assert series_integral(StepSeries(g, vals)) == pytest.approx(0.75)
        assert series_integral(StepSeries(g, vals), 3, 3) == pytest.approx(0.75)
        assert series_integral(StepSeries(g, vals), 4, 8) == 0.0

    def test_range_validation(self):
        g = TimeGrid(0.0, 1.0, 5)
        s = StepSeries.ones(g)
        with pytest.raises(ValueError):
            series_integral(s, 0, 3)
        with pytest.raises(ValueError):
            series_integral(s, 1, 6)
        with pytest.raises(ValueError):
            series_integral(s, 4, 2)

    @given(grids().flatmap(lambda g: st.tuples(st.just(g), series_on(g))))
    def test_split_additivity(self, gs):
        g, s = gs
        if g.omega < 2:
            return
        mid = g.omega // 2
        whole = series_integral(s)
        left = series_integral(s, 1, mid)
        right = series_integral(s, mid + 1, g.omega)
        assert whole == pytest.approx(left + right, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# auto mesh selection


class TestAutoMeshFactor:
    def test_wide_windows_leave_grid_alone(self):
        assert auto_mesh_factor(2.0, [10.0]) == 1

    def test_narrow_window_forces_subdivision(self):
        # Narrowest window 5: the cell must not exceed 2.5, so delta=8 needs
        # a factor of ceil(8 / 2.5) = 4.
        assert auto_mesh_factor(8.0, [10.0, 5.0]) == 4

    def test_point_windows_ignored(self):
        assert auto_mesh_factor(1.0, [0.0]) == 1
        assert auto_mesh_factor(1.0, []) == 1

    @given(
        st.floats(0.01, 10, allow_nan=False),
        st.lists(st.floats(0.001, 100, allow_nan=False), min_size=1, max_size=5),
    )
    def test_factor_gives_at_least_two_cells_per_window(self, delta, widths):
        k = auto_mesh_factor(delta, widths)
        assert k >= 1
        assert delta / k <= min(widths) / 2 + 1e-12
