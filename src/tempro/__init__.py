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
