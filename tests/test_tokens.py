"""Token store, basic-event densities, and the observed-facts file format."""
from __future__ import annotations

import importlib.util
import itertools
import math
import pathlib
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempro import (
    ALWAYS,
    CausalTheory,
    Exponential,
    ParseError,
    Pattern,
    RuleDerived,
    StepSeries,
    TimeGrid,
    TokenStore,
    UserSupplied,
    add_basic_event,
    generate,
    load_basic_facts,
    parse_basic_facts,
    parse_scenario,
    refine,
    series_integral,
)
from tempro.theory import parse_ground_pattern, statements
from tempro.tokens import _EVENT_RE, BasicEventSpec, user_density

ARRIVE_T14 = Pattern("ARRIVE", ("TRUCK14",))
DOCK_T14 = Pattern("ATDOCK", ("TRUCK14",))


def _onset(store, trigger, event_type, antecedents):
    """A rule-derived event of ``event_type`` triggered by ``trigger``."""
    return store.add_event(event_type, 0.0, 1.0, 1.0, RuleDerived(0, trigger.tid, antecedents))


def _phi(z: float) -> float:
    """Standard normal CDF, written out independently of the implementation."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _oracle_window_masses(grid: TimeGrid, est: float, lst: float, kappa: float):
    """Per-cell probability mass of a normal truncated to [est, lst].

    The distribution is centred on the window with the six-sigma convention
    (sigma = width / 6), renormalised over the window, and integrated over
    each grid cell; cells beyond the horizon simply lose their share.
    """
    mu = 0.5 * (est + lst)
    sigma = (lst - est) / 6.0
    z = lambda t: (t - mu) / sigma
    total = _phi(z(lst)) - _phi(z(est))
    out = []
    for k in range(1, grid.omega + 1):
        lo = max(grid.cell_start(k), est)
        hi = min(grid.cell_end(k), lst)
        out.append(kappa * (_phi(z(hi)) - _phi(z(lo))) / total if hi > lo else 0.0)
    return out


def _two_cdf_window_density(grid: TimeGrid, est: float, lst: float, kappa: float):
    """The window density with both CDF ends evaluated anew for every cell,
    in the same floating-point operation order as the library."""
    values = np.zeros(grid.omega)
    mu = 0.5 * (est + lst)
    sigma = (lst - est) / 6.0
    z = _phi((lst - mu) / sigma) - _phi((est - mu) / sigma)
    first = max(1, grid.time_to_cell(est))
    last = min(grid.omega, grid.time_to_cell(lst))
    for i in range(first, last + 1):
        lo = max(est, grid.cell_start(i))
        hi = min(lst, grid.cell_end(i))
        if hi > lo:
            weight = (_phi((hi - mu) / sigma) - _phi((lo - mu) / sigma)) / z
            values[i - 1] = kappa * weight / grid.delta
    return values


class TestTokenStore:
    def test_ids_unique_and_partitioned(self):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 0.0, 5.0, 1.0, g)
        a = store.ensure_always()
        assert e.tid != a.tid
        tokens = list(store)
        assert tokens[e.tid] is e
        assert tokens[a.tid] is a
        assert [t.tid for t in store.events] == [e.tid]
        assert [t.tid for t in store.facts] == [a.tid]

    def test_lookup_by_type(self):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        add_basic_event(store, ARRIVE_T14, 0.0, 5.0, 1.0, g)
        add_basic_event(store, Pattern("ARRIVE", ("TRUCK9",)), 1.0, 2.0, 0.5, g)
        arrivals = store.events_of_type(("ARRIVE", 1))
        assert len(arrivals) == 2
        assert store.events_of_type(("DEPART", 1)) == []

    def test_always_is_idempotent_and_builtin(self):
        store = TokenStore()
        a = store.ensure_always()
        assert store.ensure_always() is a
        assert a.is_builtin
        assert a.fact_type == ALWAYS
        assert a.est == -math.inf
        assert a.persistence is None

    def test_non_ground_tokens_rejected(self):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        with pytest.raises(ValueError):
            add_basic_event(store, Pattern("ARRIVE", ("?t",)), 0.0, 5.0, 1.0, g)

    @pytest.mark.parametrize(
        "add, message, size",
        [
            (lambda s, e, f: s.add_fact(ARRIVE_T14, 99, None, 0.0, UserSupplied()),
             "initiating event 99 names no event token", 2),
            (lambda s, e, f: s.add_fact(ARRIVE_T14, f.tid, None, 0.0, UserSupplied()),
             "initiating event 1 names no event token", 2),
            (lambda s, e, f: s.add_event(ARRIVE_T14, 0.0, 1.0, 1.0, RuleDerived(0, 99, ())),
             "trigger 99 names no event token", 2),
            (lambda s, e, f: s.add_event(ARRIVE_T14, 0.0, 1.0, 1.0, RuleDerived(0, f.tid, ())),
             "trigger 1 names no event token", 2),
            (lambda s, e, f: s.add_event(ARRIVE_T14, 0.0, 1.0, 1.0, RuleDerived(0, e.tid, (99,))),
             "antecedent 99 names no fact token", 2),
            (lambda s, e, f: s.add_event(ARRIVE_T14, 0.0, 1.0, 1.0, RuleDerived(0, e.tid, (-1,))),
             "antecedent -1 names no fact token", 2),
            (lambda s, e, f: s.add_event(ARRIVE_T14, 0.0, 1.0, 1.0, RuleDerived(0, e.tid, (e.tid,))),
             "antecedent 0 names no fact token", 2),
            (lambda s, e, f: s.add_fact(ARRIVE_T14, e.tid, Exponential(0.1), 0.0,
                                        RuleDerived(0, e.tid, (e.tid,))),
             "initiating event 0 is not this derivation's onset", 2),
            (lambda s, e, f: s.add_fact(DOCK_T14, _onset(s, e, DOCK_T14, (f.tid,)).tid,
                                        Exponential(0.1), 0.0, RuleDerived(0, e.tid, ())),
             "initiating event 2 is not this derivation's onset", 3),
            (lambda s, e, f: s.add_fact(ARRIVE_T14, _onset(s, e, DOCK_T14, ()).tid,
                                        Exponential(0.1), 0.0, RuleDerived(0, e.tid, ())),
             "initiating event 2 is not this derivation's onset", 3),
        ],
        ids=[
            "fact-missing-event", "fact-event-is-fact", "missing-trigger",
            "trigger-is-fact", "missing-antecedent", "negative-antecedent",
            "event-antecedent-of-event", "antecedent-is-event",
            "onset-of-other-derivation", "onset-of-other-type",
        ],
    )
    def test_dangling_reference_rejected(self, add, message, size):
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 0.0, 5.0, 1.0, TimeGrid(0.0, 1.0, 10))
        f = store.ensure_always()
        with pytest.raises(ValueError, match=f"^{message}$"):
            add(store, e, f)
        assert len(store) == size

    @pytest.mark.parametrize("derivation", [UserSupplied(), RuleDerived(0, 0, ())])
    def test_fact_without_persistence_rejected(self, derivation):
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 0.0, 5.0, 1.0, TimeGrid(0.0, 1.0, 10))
        dock = Pattern("ATDOCK", ("TRUCK14",))
        with pytest.raises(ValueError, match=r"^fact ATDOCK\(TRUCK14\) has no persistence survivor$"):
            store.add_fact(dock, e.tid, None, 0.0, derivation)
        assert len(store) == 1

    def test_derived_event_keeps_only_its_derivation(self):
        # The store checks a derivation's tokens as the onset is added and
        # keeps no set of the ground types the derivation passes through.
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 0.0, 5.0, 1.0, g)
        dock = Pattern("ATDOCK", ("TRUCK14",))
        onset = store.add_event(dock, 0.0, 5.0, 1.0, RuleDerived(0, e.tid, ()))
        assert onset.derivation == RuleDerived(0, e.tid, ())
        assert not hasattr(store, "ancestry")


class TestWindowDensity:
    def test_point_event_occupies_one_cell(self):
        g = TimeGrid(0.0, 1.0, 20)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 5.0, 5.0, 1.0, g)
        d = e.density.window(1, g.omega)
        assert d[5] == pytest.approx(1.0)  # cell 6 holds [5, 6); density 1/delta
        assert np.count_nonzero(d) == 1
        assert series_integral(e.density) == pytest.approx(1.0)

    def test_point_event_density_scales_with_delta(self):
        g = TimeGrid(0.0, 0.25, 40)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 5.0, 5.0, 0.5, g)
        assert e.density.window(1, g.omega)[20] == pytest.approx(0.5 / 0.25)
        assert series_integral(e.density) == pytest.approx(0.5)

    def test_window_matches_truncated_normal_oracle(self):
        g = TimeGrid(0.0, 1.0, 30)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 0.0, 10.0, 1.0, g)
        expected = _oracle_window_masses(g, 0.0, 10.0, 1.0)
        for k in range(1, g.omega + 1):
            got = e.density.window(1, g.omega)[k - 1] * g.delta
            assert got == pytest.approx(expected[k - 1], abs=1e-12), f"cell {k}"

    def test_window_density_is_symmetric_and_unimodal(self):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 0.0, 10.0, 1.0, g)
        d = e.density.window(1, g.omega)
        assert np.allclose(d, d[::-1], atol=1e-12)
        mid = len(d) // 2
        assert np.all(np.diff(d[:mid]) > 0)

    def test_window_integral_equals_kappa(self):
        g = TimeGrid(0.0, 0.5, 40)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 0.0, 10.0, 0.8, g)
        assert series_integral(e.density) == pytest.approx(0.8, rel=1e-9)

    def test_window_straddling_grid_start_loses_outside_share(self):
        # Window [-5, 5] centred on 0: exactly half the distribution lies
        # before the grid, so the in-grid integral is kappa / 2.
        g = TimeGrid(0.0, 0.5, 40)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, -5.0, 5.0, 1.0, g)
        assert series_integral(e.density) == pytest.approx(0.5, rel=1e-9)

    def test_window_straddling_horizon_loses_tail(self):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 5.0, 15.0, 1.0, g)
        expected = _oracle_window_masses(g, 5.0, 15.0, 1.0)
        assert np.allclose(np.asarray(e.density.window(1, g.omega)) * g.delta, expected, atol=1e-12)
        assert series_integral(e.density) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize(
        "est,lst,kappa",
        [
            (5.0, 4.0, 1.0),  # window reversed
            (0.0, 5.0, 1.5),  # kappa above 1
            (0.0, 5.0, -0.1),  # kappa negative
            (math.nan, 5.0, 1.0),
            (20.0, 25.0, 1.0),  # entirely beyond the horizon
            (-10.0, -5.0, 1.0),  # entirely before the grid
        ],
    )
    def test_invalid_windows_rejected(self, est, lst, kappa):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        with pytest.raises(ValueError):
            add_basic_event(store, ARRIVE_T14, est, lst, kappa, g)

    def test_zero_kappa_gives_zero_density(self):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        e = add_basic_event(store, ARRIVE_T14, 0.0, 5.0, 0.0, g)
        assert np.all(np.asarray(e.density.window(1, g.omega)) == 0.0)

    @given(
        st.floats(0.0, 30.0, allow_nan=False),
        st.floats(0.1, 20.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_in_grid_integral_never_exceeds_kappa(self, est, width, kappa):
        g = TimeGrid(0.0, 0.5, 80)  # horizon 40
        store = TokenStore()
        lst = est + width
        if est >= g.end:
            return
        e = add_basic_event(store, ARRIVE_T14, est, lst, kappa, g)
        total = series_integral(e.density)
        assert total <= kappa + 1e-9
        if lst <= g.end:
            assert total == pytest.approx(kappa, rel=1e-9, abs=1e-12)


# Finite times at the edges of the float range: zeros, subnormals, the
# largest float and values near +-9e307, whose sum or difference overflows.
_EDGE_TIMES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0,
    9e307, -9e307, 8.98846567431158e307, -8.98846567431158e307,
    1.7976931348623157e308, -1.7976931348623157e308,
]
_FINITE_TIMES = st.one_of(
    st.sampled_from(_EDGE_TIMES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-100.0, 100.0),
)


class TestAnyFiniteWindow:
    @settings(max_examples=300)
    @given(
        _FINITE_TIMES,
        _FINITE_TIMES,
        st.floats(0.0, 1.0),
        st.floats(-300.0, 307.0),
        st.integers(1, 40),
        st.data(),
    )
    def test_curve_or_value_error(self, a, b, kappa, exponent, omega, data):
        est, lst = sorted((a, b))
        delta = 10.0 ** exponent
        # A grid near the window, so that most windows meet it.
        origin = data.draw(st.one_of(
            st.sampled_from([est, lst, 0.0]),
            st.sampled_from([est - delta * omega / 2, 0.5 * est + 0.5 * lst]).filter(math.isfinite),
            _FINITE_TIMES,
        ))
        g = TimeGrid(origin, delta, omega)
        try:
            token = add_basic_event(TokenStore(), ARRIVE_T14, est, lst, kappa, g)
        except ValueError:
            return
        values = token.density.values
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        # Up to rounding: relative 1e-9, and a value among the subnormals
        # rounds to a multiple of 5e-324, which delta scales back up.
        slack = kappa * 1e-9 + len(values) * 5e-324 * delta
        assert math.fsum(values) * delta <= kappa + slack


class TestWindowDensityCdfOnce:
    @given(
        st.sampled_from([0.0, -3.7, 12.25]),
        st.sampled_from([1.0, 0.1, 0.3, 2.5]),
        st.integers(1, 60),
        st.floats(-20.0, 80.0, allow_nan=False),
        st.floats(1e-6, 40.0, allow_nan=False),
        st.sampled_from([1.0, 0.37, 0.0, -0.0]),
    )
    def test_bitwise_equal_to_two_cdfs_per_cell(self, origin, delta, omega, est, width, kappa):
        g = TimeGrid(origin, delta, omega)
        lst = est + width
        if est >= g.end or lst < g.origin:
            return
        got = add_basic_event(TokenStore(), ARRIVE_T14, est, lst, kappa, g).density.window(1, g.omega)
        # tobytes also tells -0.0 from 0.0
        assert got.tobytes() == _two_cdf_window_density(g, est, lst, kappa).tobytes()

    def test_boundaries_on_cell_edges_match_bitwise(self):
        g = TimeGrid(0.0, 0.1, 50)
        windows = [(0.3, 0.7), (0.0, 5.0), (0.25, 0.30000000000000004), (1.0, 9.0)]
        for (est, lst), kappa in itertools.product(windows, [1.0, -0.0]):
            got = add_basic_event(TokenStore(), ARRIVE_T14, est, lst, kappa, g).density.window(1, g.omega)
            assert got.tobytes() == _two_cdf_window_density(g, est, lst, kappa).tobytes()

    def test_one_cdf_per_cell_boundary(self, monkeypatch):
        import tempro.tokens as tokens

        calls = []
        cdf = tokens._norm_cdf
        monkeypatch.setattr(tokens, "_norm_cdf", lambda x: calls.append(x) or cdf(x))
        g = TimeGrid(0.0, 1.0, 30)
        add_basic_event(TokenStore(), ARRIVE_T14, 2.5, 12.5, 1.0, g)
        # n + 1 boundaries for the n = 11 cells: the normaliser's two ends,
        # est and lst at -3 and +3 standard deviations, serve the end cells
        assert len(calls) == 11 + 1
        assert calls[:2] == [-3.0, 3.0]


class TestUserDensity:
    def test_reuses_user_density_on_same_grid(self):
        g = TimeGrid(0.0, 1.0, 10)
        user = add_basic_event(TokenStore(), ARRIVE_T14, 0.0, 5.0, 1.0, g)
        built = user.density
        assert user_density(user, TimeGrid(0.0, 1.0, 10)) is built  # equal grid, another object
        assert user.density is built

    def test_regrids_existing_density(self):
        g = TimeGrid(0.0, 1.0, 10)
        user = add_basic_event(TokenStore(), ARRIVE_T14, 0.0, 5.0, 1.0, g)
        fine = g.refined(2)
        assert user_density(user, fine) is user.density
        assert user.density.grid == fine
        assert series_integral(user.density) == pytest.approx(1.0)

    def test_event_added_without_density_gets_its_window_density(self):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        user = store.add_event(ARRIVE_T14, 2.5, 7.5, 0.8, UserSupplied())
        refine(store, CausalTheory(), g)
        built = add_basic_event(TokenStore(), ARRIVE_T14, 2.5, 7.5, 0.8, g).density
        assert user.density.grid == g
        assert (user.density.values.tobytes(), user.density.first) == (built.values.tobytes(), built.first)

    @pytest.mark.parametrize(
        "est, lst",
        [(-20.0, -15.0), (50.0, 55.0), (-20.0, -20.0), (50.0, 50.0)],
        ids=["before", "past", "point-before", "point-past"],
    )
    def test_event_outside_the_horizon_gets_the_empty_span(self, est, lst):
        g = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        user = store.add_event(ARRIVE_T14, est, lst, 1.0, UserSupplied())
        refine(store, CausalTheory(), g)
        assert (len(user.density.values), user.density.first) == (0, 1)


class TestBasicFactsFormat:
    def test_parse_example_line(self):
        (spec,) = parse_basic_facts("event ARRIVE(TRUCK14) est 0 lst 10 kappa 1.0\n")
        assert spec.event_type == ARRIVE_T14
        assert (spec.est, spec.lst, spec.kappa) == (0.0, 10.0, 1.0)
        assert spec.line == 1

    def test_comments_and_blanks(self):
        specs = parse_basic_facts(
            "# observed this morning\n\nevent A(X) est 1 lst 2 kappa 0.5\n"
        )
        assert len(specs) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "event ARRIVE(?t) est 0 lst 10 kappa 1.0",  # non-ground
            "event ARRIVE(TRUCK14) est 0 lst 10",  # missing kappa
            "event ARRIVE(TRUCK14) est ten lst 10 kappa 1.0",
            "fact ARRIVE(TRUCK14) est 0 lst 10 kappa 1.0",
            "event ARRIVE(TRUCK14) est 0 lst 10 kappa 2.0",
            "event ARRIVE(TRUCK14) lst 10 est 0 kappa 1.0",  # wrong order
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ParseError):
            parse_basic_facts(line + "\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_basic_facts("event A(X) est 0 lst 1 kappa 1.0\nevent B(Y) est 0\n")
        assert exc.value.line == 2

    def test_load_adds_tokens(self, dock_facts_text):
        g = TimeGrid(0.0, 1.0, 60)
        store = TokenStore()
        tokens = load_basic_facts(store, dock_facts_text, g)
        assert len(tokens) == 1
        assert tokens[0].event_type == ARRIVE_T14
        assert tokens[0].is_user
        assert isinstance(tokens[0].derivation, UserSupplied)

    def test_load_reports_window_problems_as_parse_errors(self):
        g = TimeGrid(0.0, 1.0, 5)
        store = TokenStore()
        with pytest.raises(ParseError) as exc:
            load_basic_facts(store, "event A(X) est 90 lst 99 kappa 1.0\n", g)
        assert exc.value.line == 1


def _reader_basic_facts(text):
    """The basic events of ``text`` read by the statement reader alone: the
    whole of ``parse_basic_facts`` before it read lines in the writers'
    layout with one regex match."""
    specs = []
    for cur in statements(text):
        cur.take("event")
        pattern = parse_ground_pattern(cur, "basic event")
        cur.take("est")
        est = cur.take_number("the earliest start time")
        cur.take("lst")
        lst = cur.take_number("the latest start time")
        if not (math.isfinite(est) and math.isfinite(lst) and est <= lst):
            raise cur.error(f"window [{est}, {lst}] is invalid", back=1)
        cur.take("kappa")
        kappa = cur.take_number(
            "an occurrence probability", "kappa must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0
        )
        cur.expect_end()
        specs.append(BasicEventSpec(pattern, est, lst, kappa, cur.lineno))
    return specs


def _outcome(read, text):
    """What ``read`` makes of ``text``: each event with its numbers as bits,
    or the message, line and column of its error."""
    try:
        return [
            (spec.event_type, struct.pack("<ddd", spec.est, spec.lst, spec.kappa), spec.line)
            for spec in read(text)
        ]
    except ParseError as exc:
        return (exc.message, exc.line, exc.col)


_NUMBERS = st.one_of(
    st.floats(0, 1).map(repr),
    st.floats(allow_nan=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([
        "1e999", "-1e999", "inf", "INF", "-inf", "nan", "\u0663", "1\u0663", ".5", "5.",
        "+.5e-3", "1E0", "1e", "1e+", "-", "1_0", "0x1", "1.5.2", "-0", "-0.0", "1.e0",
    ]),
)
_SEPARATOR = st.sampled_from(["  ", "\t", " \t ", "", "\x0c", "\u00a0", "#"])
_WORD = st.sampled_from(["Event", "events", "est", "lst", "kappa", "X"])
# What may replace each field of a line in the layout the writers use.
_VARIANTS = [
    st.sampled_from([" ", "\t", "\x0c", "\ufeff"]),
    _WORD, _SEPARATOR,
    st.sampled_from([
        "T", "T(A,B)", "A_1(B_2,C3)", "T(A, B)", "T( A)", "T (A)", "T()", "T(A,)", "T(A",
        "T(?x)", "t(A)", "T(a)", "_T(A)", "T\u00c9(A)",
    ]),
    _SEPARATOR, _WORD, _SEPARATOR, _NUMBERS, _SEPARATOR, _WORD, _SEPARATOR, _NUMBERS,
    _SEPARATOR, _WORD, _SEPARATOR, _NUMBERS,
    st.sampled_from([" ", "\t", " # seen", "#", " X", " 5", "\x0c"]),
]


@st.composite
def _fact_lines(draw):
    """A line in the layout the writers use with up to three of its fields
    replaced by a fault or a legal variation."""
    est, lst = sorted(draw(st.lists(st.floats(0, 1e6), min_size=2, max_size=2)))
    kappa = draw(st.floats(0, 1))
    fields = ["", "event", " ", "ARRIVE(E1)", " ", "est", " ", repr(est), " ", "lst", " ",
              repr(lst), " ", "kappa", " ", repr(kappa), ""]
    for i in draw(st.lists(st.integers(0, len(fields) - 1), max_size=3)):
        fields[i] = draw(_VARIANTS[i])
    return "".join(fields)


_TEXTS = st.builds(
    lambda lines, end: end.join(lines) + end,
    st.lists(_fact_lines() | st.sampled_from(["", "# note"]), min_size=1, max_size=4),
    st.sampled_from(["\n", "\r\n", "\r"]),
)


def _workloads():
    """The benchmark's workload module, which is no package."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBasicFactsFastPath:
    """``parse_basic_facts`` reads the layout ``simulate`` and the benchmark
    workloads write with one regex match per line; the statement reader,
    which reads every other line, is its oracle."""

    @settings(max_examples=1000)  # each variant of a field is in few drawn lines
    @given(_TEXTS)
    @example("event A(X) est 0 lst 1 kappa 1 # seen\n")
    @example("event\tA(X,Y)\test\t0\tlst\t1\tkappa\t1\t\n")
    @example("event A(X) est 0 lst 1 kappa 1\r\nevent B(Y) est 2 lst 3 kappa 0.5\r\n")
    @example("event A(X) est 0 lst 1 kappa 1\revent B(Y) est 2 lst 3 kappa 0.5\r")
    @example("event A(X) est 0 lst 1\x0ckappa 1\n")
    @example("event A(X) est \u0663 lst 5 kappa 1\n")
    @example("event A(X) est 0 lst inf kappa 1\n")
    @example("event A(X) est 0 lst 1e999 kappa 1\n")
    @example("event A(X) est -1e999 lst 1 kappa 1\n")
    @example("event A(X) est 1.5.2 lst 5 kappa 1\n")
    @example("event A(X) est 0 lst0 kappa 1\n")
    @example("event a(X) est 0 lst 1 kappa 1\n")
    @example("event A( X ,Y) est 0 lst 1 kappa 1\n")
    @example("event A(X) est 5 lst 4 kappa 1\n")
    @example("event A(X) est 0 lst 1 kappa 1.5\n")
    @example("event A(X) est 0 lst 1 kappa -0.0\n")
    @example("event DOCKFREE est 0 lst 1 kappa 1\n")
    @example("event Aest 0 lst 1 kappa 1\n")
    @example("event A(X) est 0 lst 1kappa 1\n")
    def test_same_specs_or_error_as_the_statement_reader(self, text):
        assert _outcome(parse_basic_facts, text) == _outcome(_reader_basic_facts, text)

    def test_negative_zero_kappa_stays_negative(self):
        (spec,) = parse_basic_facts("event A(X) est 0 lst 1 kappa -0.0\n")
        assert re.fullmatch(_EVENT_RE, "event A(X) est 0 lst 1 kappa -0.0")
        assert math.copysign(1.0, spec.kappa) == -1.0

    def test_every_line_simulate_writes_takes_the_fast_path(self):
        scenario = parse_scenario(
            "scenario seed 3 class T(?x) exp 0.5 class U(?x) uniform 0 1e-300 "
            "arrivals poisson 1e6 count 200 horizon 1e300\n"
        )
        text = generate(scenario).facts_text
        lines = text.splitlines()
        assert len(lines) == 200
        assert all(re.fullmatch(_EVENT_RE, line) for line in lines)
        assert _outcome(parse_basic_facts, text) == _outcome(_reader_basic_facts, text)

    @pytest.mark.parametrize("name", ["dock", "trucks-200", "join-1k"])
    def test_every_event_line_of_a_workload_takes_the_fast_path(self, tmp_path, name):
        # The dock facts, the README example, open with a comment line.
        _workloads().write(name, 3, tmp_path)
        text = (tmp_path / "facts.txt").read_text()
        events = [line for line in text.splitlines() if not line.startswith("#")]
        assert events and all(re.fullmatch(_EVENT_RE, line) for line in events)
        assert _outcome(parse_basic_facts, text) == _outcome(_reader_basic_facts, text)
