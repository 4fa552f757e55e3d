"""Learning decay parameters from observed lifetimes, and the state file."""
from __future__ import annotations

import math
import os
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempro import (
    AcquisitionClass,
    AcquisitionStore,
    ParseError,
    Pattern,
    UnknownClassError,
    generate,
    load_state,
    parse_observations,
    parse_scenario,
    rate,
    save_state,
    save_state_file,
    unify,
)
from tempro import acquisition
from tempro.acquisition import _OBSERVE_RE, _observation
from tempro.cli import main
from tempro.theory import statements

TRUCK = Pattern("TRUCKAT", ("?d",))


class TestRate:
    def test_linear_family(self):
        # a ramp of slope s has area 1/(2s); mean 4 gives slope 1/8 exactly
        assert rate("linear", 4.0) == 0.125
        assert rate("linear", 10.0) == 0.05

    def test_exponential_family(self):
        assert rate("exponential", 10.0) == math.log(2.0) / 10.0
        assert rate("exponential", 1.0) == math.log(2.0)

    def test_zero_mean_is_instant(self):
        assert rate("linear", 0.0) == math.inf
        assert rate("exponential", 0.0) == math.inf

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            rate("gamma", 1.0)
        with pytest.raises(ValueError):
            rate("linear", -1.0)

    def test_linear_area_recovers_mean(self):
        # numeric check of the defining property: integral of the ramp
        # survivor max(0, 1 - s t) over t >= 0 equals the mean
        mu = 7.3
        s = rate("linear", mu)
        t_end = 1.0 / s
        n = 1_000_000
        dt = t_end / n
        area = sum((1.0 - s * (i + 0.5) * dt) * dt for i in range(n))
        assert area == pytest.approx(mu, rel=1e-6)

    def test_exponential_half_life_recovers_mean(self):
        mu = 7.3
        lam = rate("exponential", mu)
        assert math.exp(-lam * mu) == pytest.approx(0.5, rel=1e-12)

    @given(st.floats(1e-6, 1e6), st.sampled_from(["linear", "exponential"]))
    def test_positive_and_decreasing_in_mean(self, mu, family):
        r = rate(family, mu)
        assert r > 0
        assert rate(family, mu * 2) < r


def _observed(family, *durations, key=TRUCK):
    cls = AcquisitionClass(key, family)
    for duration in durations:
        cls.observe(duration)
    return cls


class TestObserve:
    def test_first_observation(self):
        cls = AcquisitionClass(TRUCK, "exponential")
        assert cls.insts == 0
        assert cls.lam == math.inf
        cls.observe(10.0)
        assert cls.insts == 1
        assert cls.total == 10.0
        assert cls.mean == 10.0
        assert cls.lam == rate("exponential", 10.0)

    def test_running_mean(self):
        cls = _observed("exponential", 10.0, 20.0)
        assert cls.insts == 2
        assert cls.mean == 15.0
        assert cls.lam == rate("exponential", 15.0)

    def test_linear_family_mean(self):
        cls = _observed("linear", 4.0, key=Pattern("CHARGED", ("?b",)))
        assert cls.lam == 0.125

    def test_zero_duration_allowed(self):
        cls = _observed("exponential", 0.0)
        assert cls.mean == 0.0
        assert cls.lam == math.inf

    @pytest.mark.parametrize("duration", [-1.0, math.inf, -math.inf, math.nan])
    def test_negative_or_nonfinite_rejected(self, duration):
        cls = AcquisitionClass(TRUCK, "exponential")
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            cls.observe(duration)

    def test_total_that_overflows_rejected(self):
        cls = _observed("exponential", 1e308)
        with pytest.raises(ValueError, match=r"sum of TRUCKAT\(\?d\) durations overflows"):
            cls.observe(1.7e308)

    @pytest.mark.parametrize("duration", [-1.0, math.inf, math.nan, 1.7e308])
    def test_rejected_duration_leaves_insts_and_total_unchanged(self, duration):
        cls = _observed("exponential", 1e308)
        with pytest.raises(ValueError):
            cls.observe(duration)
        assert (cls.insts, cls.total) == (1, 1e308)

    @given(st.lists(st.floats(0, 1e4, allow_nan=False), max_size=30))
    def test_fold_matches_left_to_right_sum(self, durations):
        cls = _observed("exponential", *durations)
        total = 0.0
        for d in durations:
            total += d
        assert cls.insts == len(durations)
        assert cls.total == total

    @given(st.lists(st.floats(0, 1e4, allow_nan=False), min_size=1, max_size=30))
    def test_order_independent_within_tolerance(self, durations):
        a = _observed("exponential", *durations)
        b = _observed("exponential", *reversed(durations))
        assert a.insts == b.insts
        assert a.total == pytest.approx(b.total, rel=1e-9, abs=1e-12)
        if math.isfinite(a.lam):
            assert a.lam == pytest.approx(b.lam, rel=1e-9)

    @given(st.lists(st.floats(0.01, 1e4, allow_nan=False), min_size=1, max_size=30))
    def test_lambda_tracks_running_mean(self, durations):
        cls = _observed("exponential", *durations)
        assert cls.lam == rate("exponential", cls.total / cls.insts)


class TestStoreObserve:
    def _store(self):
        return AcquisitionStore(
            [
                AcquisitionClass(Pattern("TRUCKAT", ("DOCK1",)), "exponential"),
                AcquisitionClass(TRUCK, "exponential"),
            ]
        )

    def test_first_matching_class_wins(self):
        store = self._store()
        store.observe(Pattern("TRUCKAT", ("DOCK1",)), 5.0)
        store.observe(Pattern("TRUCKAT", ("DOCK9",)), 20.0)
        store.observe(Pattern("TRUCKAT", ("DOCK9",)), 1.0)
        assert [(c.insts, c.total) for c in store.classes] == [(1, 5.0), (2, 21.0)]

    def test_unknown_key_lists_known_classes(self):
        store = self._store()
        with pytest.raises(UnknownClassError) as exc:
            store.observe(Pattern("SHIPAT", ("PIER1",)), 1.0)
        assert "SHIPAT(PIER1)" in str(exc.value)
        assert "TRUCKAT(?d)" in str(exc.value)

    def test_routes_before_checking_the_duration(self):
        # an unknown key is reported even when its duration is bad too
        with pytest.raises(UnknownClassError):
            self._store().observe(Pattern("SHIPAT", ("PIER1",)), -1.0)

    def test_negative_duration_rejected(self):
        store = self._store()
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            store.observe(Pattern("TRUCKAT", ("DOCK9",)), -1.0)
        assert [(c.insts, c.total) for c in store.classes] == [(0, 0.0), (0, 0.0)]

    def test_empty_store_rejects_every_key(self):
        with pytest.raises(UnknownClassError, match=r"known classes: \(none\)"):
            AcquisitionStore().observe(TRUCK, 1.0)


def _first_unify(classes, key):
    """The class ``key`` folds into by the plain rule: the first in file
    order whose pattern ``key`` unifies with."""
    for cls in classes:
        if unify(cls.key, key) is not None:
            return cls
    raise UnknownClassError(key, [c.key for c in classes])


# Open patterns, constants, repeated variables and arity 0 all come from
# drawing each argument from constants and two variables.
_CLASS_PATTERNS = st.builds(
    Pattern, st.sampled_from(["P", "Q"]),
    st.lists(st.sampled_from(["A", "B", "?x", "?y"]), max_size=2).map(tuple),
)
_KEYS = st.builds(
    Pattern, st.sampled_from(["P", "Q", "R"]),
    st.lists(st.sampled_from(["A", "B", "C"]), max_size=2).map(tuple),
)


class TestRouter:
    @given(st.lists(_CLASS_PATTERNS, max_size=6), st.lists(_KEYS, max_size=12))
    @example(  # a constant class before an open class of the same type
        [Pattern("P", ("A",)), Pattern("P", ("?x",)), Pattern("Q", ("?x", "?x")),
         Pattern("Q", ("?x", "?y")), Pattern("P")],
        [Pattern("P", ("A",)), Pattern("P", ("B",)), Pattern("Q", ("A", "A")),
         Pattern("Q", ("A", "B")), Pattern("P"), Pattern("R")],
    )
    def test_routes_as_the_first_unify(self, patterns, keys):
        classes = [AcquisitionClass(p, "exponential") for p in patterns]
        route = AcquisitionStore(classes).router()
        store = AcquisitionStore([AcquisitionClass(p, "exponential") for p in patterns])
        for key in keys:
            try:
                expected = classes.index(_first_unify(classes, key))
            except UnknownClassError as exc:
                with pytest.raises(UnknownClassError) as got:
                    route(key)
                assert str(got.value) == str(exc)
                with pytest.raises(UnknownClassError) as got:
                    store.observe(key, 1.0)
                assert str(got.value) == str(exc)
                continue
            assert route(key) is classes[expected]
            before = [c.insts for c in store.classes]
            store.observe(key, 1.0)
            before[expected] += 1
            assert [c.insts for c in store.classes] == before

    def test_one_open_class_folds_without_unify(self, monkeypatch, tmp_path, capsys):
        calls = []

        def counting(pattern, ground, binding=None):
            calls.append(ground)
            return unify(pattern, ground, binding)

        monkeypatch.setattr(acquisition, "unify", counting)
        store = AcquisitionStore([AcquisitionClass(TRUCK, "exponential")])
        route = store.router()
        for k in range(50):
            route(Pattern("TRUCKAT", (f"DOCK{k}",))).observe(float(k))
            store.observe(Pattern("TRUCKAT", (f"DOCK{k}",)), 1.0)
        assert (store.classes[0].insts, store.classes[0].total) == (100, sum(range(50)) + 50.0)
        state, obs = tmp_path / "state", tmp_path / "obs.txt"
        state.write_text(save_state(AcquisitionStore([AcquisitionClass(TRUCK, "exponential")])))
        obs.write_text("".join(f"observe TRUCKAT(DOCK{k}) arrival 0 departure {k}\n" for k in range(50)))
        assert main(["acquire", "--state", str(state), "--observations", str(obs)]) == 0
        assert "folded 50 observations" in capsys.readouterr().out
        assert calls == []
        # a constant class first sends keys of its type to ``unify``
        AcquisitionStore([AcquisitionClass(Pattern("TRUCKAT", ("DOCK1",)), "exponential")]
                         + store.classes).observe(Pattern("TRUCKAT", ("DOCK9",)), 1.0)
        assert calls == [Pattern("TRUCKAT", ("DOCK9",))] * 2

    def test_routes_by_the_classes_when_it_is_made(self):
        store = AcquisitionStore([AcquisitionClass(TRUCK, "exponential")])
        route = store.router()
        store.classes.insert(0, AcquisitionClass(Pattern("TRUCKAT", ("?e",)), "linear"))
        assert route(Pattern("TRUCKAT", ("DOCK1",))).family == "exponential"
        assert store.router()(Pattern("TRUCKAT", ("DOCK1",))).family == "linear"


class TestStateFile:
    def test_round_trip_is_byte_identical(self):
        store = AcquisitionStore(
            [
                AcquisitionClass(TRUCK, "exponential", 3, 31.7),
                AcquisitionClass(Pattern("CHARGED", ("?b",)), "linear", 0, 0.0),
            ]
        )
        text = save_state(store)
        again = save_state(load_state(text))
        assert again == text

    def test_fresh_class_line(self):
        text = save_state(AcquisitionStore([AcquisitionClass(TRUCK, "exponential")]))
        assert text == "class TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf\n"

    def test_loads_data_fixture(self, data_dir):
        store = load_state((data_dir / "trucks.state").read_text())
        (cls,) = store.classes
        assert cls.key == TRUCK
        assert cls.family == "exponential"
        assert cls.insts == 0

    def test_count_above_two_to_the_53_reloads_exactly(self):
        count = 2**53 + 1  # the nearest float is 2**53
        text = f"class TRUCKAT(?d) exponential insts {count} sum 1.0 lambda 0.0\n"
        store = load_state(text)
        assert store.classes[0].insts == count
        saved = save_state(store)
        assert f" insts {count} " in saved
        assert save_state(load_state(saved)) == saved

    def test_lambda_recomputed_not_trusted(self):
        store = load_state(
            "class TRUCKAT(?d) exponential insts 2 sum 20.0 lambda 99.0\n"
        )
        assert store.classes[0].lam == rate("exponential", 10.0)

    @pytest.mark.parametrize(
        "line",
        [
            "class TRUCKAT(?d) gamma insts 0 sum 0.0 lambda inf",
            "class TRUCKAT(?d) exponential insts -1 sum 0.0 lambda inf",
            "class TRUCKAT(?d) exponential insts 1.5 sum 0.0 lambda inf",
            "class TRUCKAT(?d) exponential insts 0 sum -4 lambda inf",
            "class TRUCKAT(?d) exponential insts 0 sum 0.0",
            "klass TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf",
        ],
    )
    def test_malformed_state_rejected(self, line):
        with pytest.raises(ParseError):
            load_state(line + "\n")

    def test_comments_allowed(self):
        store = load_state("# learned so far\nclass TRUCKAT(?d) exponential insts 0 sum 0.0 lambda inf\n")
        assert len(store.classes) == 1

    def test_save_state_file_atomic_replace(self, tmp_path):
        path = tmp_path / "learned.state"
        path.write_text("old contents\n")
        store = AcquisitionStore([AcquisitionClass(TRUCK, "exponential", 1, 10.0)])
        save_state_file(store, str(path))
        assert path.read_text() == save_state(store)
        assert os.listdir(tmp_path) == ["learned.state"]  # no temp debris


class TestObservationFormat:
    def test_parse_example(self):
        (obs,) = parse_observations(
            "observe TRUCKAT(DOCK3) arrival 4.0 departure 19.5\n"
        )
        assert obs.key == Pattern("TRUCKAT", ("DOCK3",))
        assert (obs.arrival, obs.departure) == (4.0, 19.5)
        assert obs.line == 1

    @pytest.mark.parametrize(
        "line",
        [
            "observe TRUCKAT(?d) arrival 4.0 departure 19.5",  # non-ground
            "observe TRUCKAT(DOCK3) arrival 4.0 departure 3.0",  # leaves early
            "observe TRUCKAT(DOCK3) departure 19.5 arrival 4.0",
            "observe TRUCKAT(DOCK3) arrival 4.0",
            "watch TRUCKAT(DOCK3) arrival 4.0 departure 19.5",
        ],
    )
    def test_malformed_observations_rejected(self, line):
        with pytest.raises(ParseError):
            parse_observations(line + "\n")

    def test_blank_and_comment_lines(self):
        assert parse_observations("# nothing yet\n\n") == []


def _cursor_observations(text):
    """The observations of ``text`` read by the statement reader alone."""
    return [_observation(cur) for cur in statements(text)]


def _outcome(read, text):
    """What ``read`` makes of ``text``: each observation with its times as
    bits, or the message, line and column of its error."""
    try:
        return [
            (obs.key, struct.pack("<dd", obs.arrival, obs.departure), obs.line)
            for obs in read(text)
        ]
    except ParseError as exc:
        return (exc.message, exc.line, exc.col)


_NUMBERS = st.one_of(
    st.floats(0, 1e6).map(repr),
    st.floats(allow_nan=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([
        "1e999", "-1e999", "inf", "INF", "-inf", "nan", "\u0663", "1\u0663", ".5", "5.",
        "+.5e-3", "1E5", "1e", "1e+", "-", "1_0", "0x10", "1.5.2", "-0", "-0.0", "1.e3",
    ]),
)
_SEPARATOR = st.sampled_from(["  ", "\t", " \t ", "", "\x0c", "\u00a0", "#"])
_WORD = st.sampled_from(["Observe", "observed", "arrive", "leave", "departure", "X"])
# What may replace each field of a line in the layout ``simulate`` writes.
_VARIANTS = [
    st.sampled_from([" ", "\t", "\x0c"]),
    _WORD, _SEPARATOR,
    st.sampled_from([
        "T", "T(A,B)", "A_1(B_2,C3)", "T(A, B)", "T( A)", "T (A)", "T()", "T(A,)", "T(A",
        "T(?x)", "t(A)", "T(a)", "_T(A)", "T\u00c9(A)",
    ]),
    _SEPARATOR, _WORD, _SEPARATOR, _NUMBERS, _SEPARATOR, _WORD, _SEPARATOR, _NUMBERS,
    st.sampled_from([" ", "\t", " # done", "#", " X", " 5", "\x0c"]),
]


@st.composite
def _observation_lines(draw):
    """A line in the layout ``simulate`` writes with up to three of its
    fields replaced by a fault or a legal variation."""
    arrival, departure = sorted(draw(st.lists(st.floats(0, 1e6), min_size=2, max_size=2)))
    fields = ["", "observe", " ", "TRUCKAT(E1)", " ", "arrival", " ", repr(arrival), " ",
              "departure", " ", repr(departure), ""]
    for i in draw(st.lists(st.integers(0, len(fields) - 1), max_size=3)):
        fields[i] = draw(_VARIANTS[i])
    return "".join(fields)


_TEXTS = st.builds(
    lambda lines, end: end.join(lines) + end,
    st.lists(_observation_lines() | st.sampled_from(["", "# note"]), min_size=1, max_size=4),
    st.sampled_from(["\n", "\r\n", "\r"]),
)


class TestObservationFastPath:
    """``parse_observations`` reads the layout ``simulate`` writes with one
    regex match per line; the statement reader, which reads every other
    line, is its oracle."""

    @settings(max_examples=1000)  # each variant of a field is in few drawn lines
    @given(_TEXTS)
    @example("observe T(A) arrival -1e999 departure 0\n")
    @example("observe T(A) arrival 0 departure 1e999\n")
    @example("observe DOCKFREE arrival 0 departure 1\n")
    @example("observe t(A) arrival 0 departure 1\n")
    @example("observe T(A) arrival 0 departure 1 # done\n")
    @example("observe\tT(A,B)\tarrival\t0\tdeparture\t1\t\n")
    @example("observe T(A) arrival \u0663 departure 5\n")
    @example("observe T(A) arrival 1departure 5\n")
    @example("observe T(A) arrival0 departure 5\n")
    @example("observe Tarrival 0 departure 5\n")
    @example("observe T(A) arrival 1.5.2 departure 5\n")
    @example("observe T(A) arrival 0 departure INF\n")
    @example("observe T(A) arrival 0 departure 1\r\nobserve T(B) arrival 2 departure 3\r\n")
    def test_same_observations_or_error_as_the_statement_reader(self, text):
        assert _outcome(parse_observations, text) == _outcome(_cursor_observations, text)

    def test_every_line_simulate_writes_takes_the_fast_path(self):
        scenario = parse_scenario(
            "scenario seed 3 class T(?x) exp 0.5 class U(?x) uniform 0 1e-300 "
            "arrivals poisson 1e6 count 200 horizon 1e300\n"
        )
        text = generate(scenario).observations_text
        lines = text.splitlines()
        assert len(lines) == 200
        assert all(re.fullmatch(_OBSERVE_RE, line) for line in lines)
        assert _outcome(parse_observations, text) == _outcome(_cursor_observations, text)

