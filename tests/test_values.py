"""Value semantics of the package's record classes.

Each record compares equal to an object of the same type with equal fields.
The frozen ones hash by their fields and refuse assignment with an
``AttributeError``; the mutable ones can be assigned and are unhashable.
A record's fields are its ``__slots__``, so each record class must define
its own.
"""
from __future__ import annotations

import pytest

from tempro import (
    AcquisitionClass,
    BasicEventSpec,
    CausalTheory,
    ConvergenceRow,
    DependencyGraph,
    EventToken,
    Exponential,
    FactToken,
    FixedLifetime,
    Linear,
    Pattern,
    PersistenceRule,
    PoissonArrivals,
    ProjectionRule,
    RuleDerived,
    Scenario,
    ScheduledArrivals,
    SimulationOutput,
    StepSeries,
    SweepStats,
    TimeGrid,
    UniformLifetime,
    UserSupplied,
)
from tempro import _Record
from tempro.simulator import ExponentialLifetime
from tempro.tokens import BuiltIn

GRID = TimeGrid(0.0, 0.5, 8)
A = Pattern("A", ("X",))
RULE = ProjectionRule((Pattern("B", ("?x",)),), Pattern("E", ("?x",)), Pattern("A", ("?x",)), 0.5)
PERSIST = PersistenceRule(Pattern("A", ("?x",)), Exponential(0.1))

# Per record: a maker of fresh equal objects, a field, an object equal to a
# fresh one but for that field, and whether the record is frozen.  A record
# without fields has no field to change.
CASES = {
    "Pattern": (lambda: Pattern("A", ("X", "Y")), "args", Pattern("A", ("X",)), True),
    "TimeGrid": (lambda: TimeGrid(0.0, 0.5, 8), "omega", TimeGrid(0.0, 0.5, 9), True),
    "Exponential": (lambda: Exponential(0.1), "rate", Exponential(0.2), True),
    "Linear": (lambda: Linear(0.1), "slope", Linear(0.2), True),
    "PersistenceRule": (
        lambda: PersistenceRule(Pattern("A", ("?x",)), Exponential(0.1)),
        "survivor", PersistenceRule(Pattern("A", ("?x",)), Linear(0.1)), True,
    ),
    "ProjectionRule": (
        lambda: ProjectionRule((Pattern("B"),), Pattern("E"), Pattern("A"), 0.5),
        "kappa", ProjectionRule((Pattern("B"),), Pattern("E"), Pattern("A"), 0.25), True,
    ),
    "RuleDerived": (lambda: RuleDerived(0, 1, (2, 3)), "trigger", RuleDerived(0, 4, (2, 3)), True),
    "UserSupplied": (UserSupplied, None, None, True),
    "BuiltIn": (BuiltIn, None, None, True),
    "BasicEventSpec": (
        lambda: BasicEventSpec(A, 0.0, 1.0, 1.0, 3), "line", BasicEventSpec(A, 0.0, 1.0, 1.0, 4), True,
    ),
    "ExponentialLifetime": (
        lambda: ExponentialLifetime(0.1), "rate", ExponentialLifetime(0.2), True,
    ),
    "UniformLifetime": (lambda: UniformLifetime(1.0, 2.0), "hi", UniformLifetime(1.0, 3.0), True),
    "FixedLifetime": (lambda: FixedLifetime(3.0), "duration", FixedLifetime(4.0), True),
    "PoissonArrivals": (lambda: PoissonArrivals(1.0), "rate", PoissonArrivals(2.0), True),
    "ScheduledArrivals": (
        lambda: ScheduledArrivals((1.0, 2.0)), "times", ScheduledArrivals((1.0,)), True,
    ),
    "ConvergenceRow": (
        lambda: ConvergenceRow("A", 10, 0.1, 0.1, 0.0), "n", ConvergenceRow("A", 11, 0.1, 0.1, 0.0),
        True,
    ),
    "EventToken": (
        lambda: EventToken(0, A, 0.0, 1.0, 1.0, UserSupplied()), "kappa",
        EventToken(0, A, 0.0, 1.0, 0.5, UserSupplied()), False,
    ),
    "FactToken": (
        lambda: FactToken(1, A, 0, Exponential(0.1), 0.0, RuleDerived(0, 0, ())), "close_cell",
        FactToken(1, A, 0, Exponential(0.1), 0.0, RuleDerived(0, 0, ()), None, 3), False,
    ),
    "StepSeries": (
        lambda: StepSeries(GRID, [0.5, 0.25], 2), "first", StepSeries(GRID, [0.5, 0.25], 3), False,
    ),
    "CausalTheory": (
        lambda: CausalTheory((RULE,), (PERSIST,)), "persistence_rules", CausalTheory((RULE,)), False,
    ),
    "DependencyGraph": (
        lambda: DependencyGraph({("A", 1)}, {(("B", 1), ("A", 1))}), "arcs",
        DependencyGraph({("A", 1)}), False,
    ),
    "SweepStats": (lambda: SweepStats(4, 1, 2), "clamped", SweepStats(4, 0, 2), False),
    "AcquisitionClass": (
        lambda: AcquisitionClass(Pattern("T", ("?c",)), "linear", 2, 3.0), "insts",
        AcquisitionClass(Pattern("T", ("?c",)), "linear", 3, 3.0), False,
    ),
    "Scenario": (
        lambda: Scenario(1, [(Pattern("T", ("?c",)), FixedLifetime(1.0))], PoissonArrivals(1.0), 5, 10.0),
        "count",
        Scenario(1, [(Pattern("T", ("?c",)), FixedLifetime(1.0))], PoissonArrivals(1.0), 6, 10.0),
        False,
    ),
    "SimulationOutput": (
        lambda: SimulationOutput("event A est 0 lst 0 kappa 1.0\n", [(A, 0.0, 1.0)], ""),
        "observations_text",
        SimulationOutput("event A est 0 lst 0 kappa 1.0\n", [(A, 0.0, 1.0)], "x"),
        False,
    ),
}


@pytest.mark.parametrize("make,field,changed,frozen", CASES.values(), ids=list(CASES))
def test_record_value_semantics(make, field, changed, frozen):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != object()
    if changed is not None:
        assert a != changed and changed != a
    if frozen:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field or "name", None)
        assert a == b
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        setattr(a, field, getattr(changed, field))
        assert a == changed and a != b


@pytest.mark.parametrize(
    "a,b",
    [(Exponential(0.1), Linear(0.1)), (UserSupplied(), BuiltIn())],
    ids=["survivors", "markers"],
)
def test_records_of_different_types_differ(a, b):
    assert a != b and b != a


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_every_record_defines_its_slots_and_is_covered():
    records = [cls for cls in _subclasses(_Record) if not cls.__name__.startswith("_")]
    assert [cls.__name__ for cls in records if "__slots__" not in vars(cls)] == []
    assert sorted(cls.__name__ for cls in records) == sorted(CASES)
