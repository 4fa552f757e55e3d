"""tempro: probabilistic temporal projection.

Given a causal theory (projection rules that say which facts an event makes
true, and persistence rules that say how belief in a fact decays) plus
observed basic events with uncertain timing, tempro computes a probability
curve over discrete time for every predicted fact and event, and can refine
the persistence rates online from observed lifetimes.
"""

__version__ = "0.1.0"


class _Record:
    """Base of the package's value classes.  A record's ``__slots__`` name
    its fields in order, and its own ``__init__`` sets them.  Two records are
    equal when they have the same type and equal fields.  A plain record is
    mutable and so unhashable; a :class:`_FrozenRecord` hashes by its fields
    and refuses assignment.

    These stand in for ``dataclasses``, whose import (with ``inspect``) and
    generated classes cost about 15 ms of every command's start-up.  They live
    here because every module of the package loads its package first.
    """

    __slots__ = ()
    __hash__ = None

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other is self:  # as comparing its fields would: each is itself
            return True
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _FrozenRecord(_Record):
    """A record that cannot change: its ``__init__`` sets each field with
    ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


# After the records, which every module imports from here.
from .acquisition import (
    AcquisitionClass, AcquisitionStore, UnknownClassError, load_state, parse_observations, rate,
    save_state, save_state_file,
)
from .core import GridError, StepSeries, TimeGrid, auto_mesh_factor, series_integral
from .projection import project
from .refinement import (
    CyclicOpenTokens, SweepStats, convolve_direct, refine, survivor_eval, within_cell_factor,
)
from .simulator import (
    ConvergenceRow, ExponentialLifetime, FixedLifetime, PoissonArrivals, Scenario,
    ScheduledArrivals, SimulationOutput, UniformLifetime, generate, parse_scenario,
    run_convergence,
)
from .theory import (
    ALWAYS, CausalTheory, DependencyGraph, Exponential, Linear, ParseError, Pattern,
    PersistenceRule, ProjectionRule, dependency_graph, parse_pattern_text, parse_theory, unify,
)
from .tokens import (
    BasicEventSpec, EventToken, FactToken, RuleDerived, TokenStore, UserSupplied,
    add_basic_event, load_basic_facts, parse_basic_facts,
)

__all__ = [
    "AcquisitionClass", "AcquisitionStore", "UnknownClassError", "load_state",
    "parse_observations", "rate", "save_state", "save_state_file",
    "GridError", "StepSeries", "TimeGrid", "auto_mesh_factor", "series_integral",
    "project",
    "CyclicOpenTokens", "SweepStats", "convolve_direct", "refine", "survivor_eval",
    "within_cell_factor",
    "ConvergenceRow", "ExponentialLifetime", "FixedLifetime", "PoissonArrivals", "Scenario",
    "ScheduledArrivals", "SimulationOutput", "UniformLifetime", "generate", "parse_scenario",
    "run_convergence",
    "ALWAYS", "CausalTheory", "DependencyGraph", "Exponential", "Linear", "ParseError",
    "Pattern", "PersistenceRule", "ProjectionRule", "dependency_graph", "parse_pattern_text",
    "parse_theory", "unify",
    "BasicEventSpec", "EventToken", "FactToken", "RuleDerived", "TokenStore", "UserSupplied",
    "add_basic_event", "load_basic_facts", "parse_basic_facts",
]
