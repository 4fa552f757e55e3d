"""Synthetic scenario generation and acquisition convergence measurement."""
from __future__ import annotations

import math
import random

import pytest

from tempro import (
    ExponentialLifetime,
    FixedLifetime,
    ParseError,
    Pattern,
    PoissonArrivals,
    Scenario,
    ScheduledArrivals,
    UniformLifetime,
    generate,
    parse_basic_facts,
    parse_observations,
    parse_scenario,
    rate,
    run_convergence,
)

TRUCK = Pattern("TRUCKAT", ("?d",))


def _scenario(**overrides) -> Scenario:
    base = dict(
        seed=42,
        classes=[(TRUCK, ExponentialLifetime(0.1))],
        arrivals=PoissonArrivals(1.0),
        count=50,
        horizon=10_000.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestLifetimes:
    def test_means(self):
        assert ExponentialLifetime(0.1).mean == pytest.approx(10.0)
        assert UniformLifetime(2.0, 6.0).mean == pytest.approx(4.0)
        assert FixedLifetime(7.0).mean == 7.0

    def test_uniform_mean_where_lo_plus_hi_overflows(self):
        assert UniformLifetime(1e308, 1.7e308).mean == 1.35e308
        assert UniformLifetime(0.0, 1.7976931348623157e308).mean == 0.5 * 1.7976931348623157e308

    # 0.5 * 5e-324 rounds to 0, so halving lo and hi apart would lose the first case
    @pytest.mark.parametrize("lo,hi", [(5e-324, 5e-324), (0.1, 0.7), (3.0, 3.0), (0.0, 1e308)])
    def test_uniform_mean_is_half_the_sum_where_it_is_finite(self, lo, hi):
        assert UniformLifetime(lo, hi).mean == 0.5 * (lo + hi)

    def test_sampling_ranges(self):
        rng = random.Random(0)
        u = UniformLifetime(2.0, 6.0)
        for _ in range(200):
            assert 2.0 <= u.sample(rng) < 6.0
        f = FixedLifetime(7.0)
        assert f.sample(rng) == 7.0
        e = ExponentialLifetime(0.5)
        assert all(e.sample(rng) >= 0.0 for _ in range(200))


class TestGenerate:
    def test_fixed_schedule_fixed_lifetimes(self):
        sc = _scenario(
            classes=[(TRUCK, FixedLifetime(10.0))],
            arrivals=ScheduledArrivals((0.0, 5.0, 10.0)),
            count=3,
        )
        out = generate(sc)
        assert [a for (_, a, _) in out.observations] == [0.0, 5.0, 10.0]
        assert [d for (_, _, d) in out.observations] == [10.0, 15.0, 20.0]
        keys = [str(k) for (k, _, _) in out.observations]
        assert keys == ["TRUCKAT(E1)", "TRUCKAT(E2)", "TRUCKAT(E3)"]

    def test_outputs_parse_with_package_parsers(self):
        out = generate(_scenario(count=20))
        events = parse_basic_facts(out.facts_text)
        assert len(events) == 20
        assert all(e.event_type.name == "ARRIVE" and e.est == e.lst for e in events)
        observations = parse_observations(out.observations_text)
        assert len(observations) == len(out.observations)

    def test_deterministic_for_fixed_seed(self):
        a, b = generate(_scenario()), generate(_scenario())
        assert a.facts_text == b.facts_text
        assert a.observations_text == b.observations_text

    def test_seed_changes_output(self):
        a, b = generate(_scenario()), generate(_scenario(seed=43))
        assert a.observations_text != b.observations_text

    def test_round_robin_class_assignment(self):
        ship = Pattern("SHIPAT", ("?p",))
        sc = _scenario(
            classes=[(TRUCK, FixedLifetime(1.0)), (ship, FixedLifetime(2.0))],
            arrivals=ScheduledArrivals((0.0, 0.0, 0.0, 0.0)),
            count=4,
        )
        out = generate(sc)
        names = [k.name for (k, _, _) in out.observations]
        assert names == ["TRUCKAT", "SHIPAT", "TRUCKAT", "SHIPAT"]
        assert [str(k) for (k, _, _) in out.observations] == [
            "TRUCKAT(E1)", "SHIPAT(E2)", "TRUCKAT(E3)", "SHIPAT(E4)"
        ]

    def test_horizon_censors_incomplete_stays(self):
        sc = _scenario(
            classes=[(TRUCK, FixedLifetime(10.0))],
            arrivals=ScheduledArrivals((0.0, 95.0, 200.0)),
            count=3,
            horizon=100.0,
        )
        out = generate(sc)
        # E2 is still there at the horizon, E3 never arrives
        assert len(out.observations) == 1
        assert len(parse_basic_facts(out.facts_text)) == 2

    def test_zero_count(self):
        out = generate(_scenario(count=0, arrivals=ScheduledArrivals(())))
        assert out.facts_text == ""
        assert out.observations == []

    def test_schedule_length_must_match_count(self):
        sc = _scenario(arrivals=ScheduledArrivals((0.0, 1.0)), count=3)
        with pytest.raises(ValueError):
            generate(sc)

    def test_poisson_arrivals_are_increasing(self):
        out = generate(_scenario(count=100))
        arrivals = [e.est for e in parse_basic_facts(out.facts_text)]
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))

    def test_law_of_large_numbers(self):
        sc = _scenario(count=10_000, horizon=1e9)
        out = generate(sc)
        durations = [d - a for (_, a, d) in out.observations]
        mean = sum(durations) / len(durations)
        assert mean == pytest.approx(10.0, rel=0.05)


class TestConvergence:
    def test_rows_shape_and_reference(self):
        rows = run_convergence(_scenario(count=1000, horizon=1e9), "exponential")
        assert [r.n for r in rows] == [10, 100, 1000]
        ref = rate("exponential", 10.0)
        assert all(r.reference == ref for r in rows)
        assert all(r.class_key == "TRUCKAT(?d)" for r in rows)

    def test_acquired_matches_prefix_mean(self):
        sc = _scenario(count=100, horizon=1e9)
        rows = run_convergence(sc, "exponential")
        out = generate(sc)
        durations = [d - a for (_, a, d) in out.observations]
        first10 = sum(durations[:10]) / 10.0
        assert rows[0].acquired == pytest.approx(rate("exponential", first10), rel=1e-12)

    def test_relative_error_definition(self):
        rows = run_convergence(_scenario(count=100, horizon=1e9), "exponential")
        for r in rows:
            assert r.relative_error == pytest.approx(
                abs(r.acquired - r.reference) / r.reference, rel=1e-12
            )

    def test_linear_family_uses_linear_reference(self):
        rows = run_convergence(_scenario(count=100, horizon=1e9), "linear")
        assert rows[0].reference == rate("linear", 10.0)

    def test_classes_sharing_name_and_arity_stay_apart(self):
        sc = parse_scenario(
            "scenario seed 3 class TRUCK(?c) fixed 10 class TRUCK(?d) fixed 30 "
            "arrivals poisson 1 count 40 horizon 1e9"
        )
        rows = run_convergence(sc, "exponential")
        assert [(r.class_key, r.n) for r in rows] == [("TRUCK(?c)", 10), ("TRUCK(?d)", 10)]
        assert [r.reference for r in rows] == [rate("exponential", 10.0), rate("exponential", 30.0)]
        assert [r.relative_error for r in rows] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_zero_reference_rate_reads_as_the_infinite_one(self):
        class Endless(FixedLifetime):
            """Finite stays from a lifetime whose mean is infinite, as
            ``ExponentialLifetime(5e-324)`` has."""

            @property
            def mean(self) -> float:
                return math.inf

        rows = run_convergence(_scenario(classes=[(TRUCK, Endless(5.0))], count=10), "exponential")
        assert [(r.n, r.reference, r.relative_error) for r in rows] == [(10, 0.0, math.inf)]

    def test_golden_scenario_error_shrinks(self, data_dir):
        sc = parse_scenario((data_dir / "trucks.scenario").read_text())
        rows = run_convergence(sc, "exponential")
        errs = [r.relative_error for r in rows]
        assert [r.n for r in rows] == [10, 100, 1000, 10000]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.02


class TestScenarioFormat:
    def test_parse_golden_file(self, data_dir):
        sc = parse_scenario((data_dir / "trucks.scenario").read_text())
        assert sc.seed == 17
        assert sc.classes == [(TRUCK, ExponentialLifetime(0.1))]
        assert sc.arrivals == PoissonArrivals(1.0)
        assert sc.count == 10_000
        assert sc.horizon == 40_000.0

    def test_parse_uniform_and_fixed(self):
        sc = parse_scenario(
            "scenario seed 1 class A(?x) uniform 2 6 class B(?x) fixed 7 "
            "arrivals at 0, 1, 2 count 3 horizon 100"
        )
        assert sc.classes == [
            (Pattern("A", ("?x",)), UniformLifetime(2.0, 6.0)),
            (Pattern("B", ("?x",)), FixedLifetime(7.0)),
        ]
        assert sc.arrivals == ScheduledArrivals((0.0, 1.0, 2.0))

    @pytest.mark.parametrize(
        "text",
        [
            "scenario seed -1 class A(?x) exp 0.1 arrivals poisson 1 count 1 horizon 10",
            "scenario seed 1 arrivals poisson 1 count 1 horizon 10",  # no class
            "scenario seed 1 class A(?x) exp 0 arrivals poisson 1 count 1 horizon 10",
            "scenario seed 1 class A(?x) uniform 6 2 arrivals poisson 1 count 1 horizon 10",
            "scenario seed 1 class A(?x) exp 0.1 arrivals poisson 0 count 1 horizon 10",
            "scenario seed 1 class A(?x) exp 0.1 arrivals at 0, 1 count 3 horizon 10",
            "scenario seed 1 class A(?x) exp 0.1 arrivals poisson 1 count -2 horizon 10",
            "scenario seed 1 class A(?x) exp 0.1 arrivals poisson 1 count 1 horizon inf",
            "scenario seed 1.5 class A(?x) exp 0.1 arrivals poisson 1 count 1 horizon 10",
            "scenario seed 1 class A(?x) weibull 1 arrivals poisson 1 count 1 horizon 10",
        ],
    )
    def test_malformed_scenarios_rejected(self, text):
        with pytest.raises(ParseError):
            parse_scenario(text + "\n")

    def test_two_statements_rejected(self):
        good = "scenario seed 1 class A(?x) exp 0.1 arrivals poisson 1 count 1 horizon 10"
        with pytest.raises(ParseError):
            parse_scenario(good + "\n" + good + "\n")
