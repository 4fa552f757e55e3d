"""tempro: probabilistic temporal projection.

Given a causal theory (projection rules that say which facts an event makes
true, and persistence rules that say how belief in a fact decays) plus
observed basic events with uncertain timing, tempro computes a probability
curve over discrete time for every predicted fact and event, and can refine
the persistence rates online from observed lifetimes.

Importing the package loads none of its modules: each exported name loads
its home module the first time it is read, so ``python -m tempro query``
does not pay for the simulator or the refiner.
"""

# Each exported name, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "acquisition": "AcquisitionClass AcquisitionStore UnknownClassError load_state "
                       "parse_observations rate save_state save_state_file",
        "core": "GridError StepSeries TimeGrid auto_mesh_factor series_integral",
        "projection": "project",
        "refinement": "CyclicOpenTokens SweepStats convolve_direct refine survivor_eval "
                      "within_cell_factor",
        "simulator": "ConvergenceRow ExponentialLifetime FixedLifetime PoissonArrivals Scenario "
                     "ScheduledArrivals SimulationOutput UniformLifetime generate "
                     "parse_scenario run_convergence",
        "theory": "ALWAYS CausalTheory DependencyGraph Exponential Linear ParseError Pattern "
                  "PersistenceRule ProjectionRule dependency_graph parse_pattern_text "
                  "parse_theory unify",
        "tokens": "BasicEventSpec EventToken FactToken RuleDerived TokenStore UserSupplied "
                  "add_basic_event load_basic_facts parse_basic_facts",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load ``name``'s home module and bind ``name`` here (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .<module> import <name>``, which ``-X importtime`` reports.
    value = globals()[name] = getattr(__import__(module, globals(), None, [name], 1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


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
