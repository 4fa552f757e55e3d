"""tempro: probabilistic temporal projection.

Given a causal theory (projection rules that say which facts an event makes
true, and persistence rules that say how belief in a fact decays) plus
observed basic events with uncertain timing, tempro computes a probability
curve over discrete time for every predicted fact and event, and can refine
the persistence rates online from observed lifetimes.
"""
from .acquisition import (
    AcquisitionClass,
    AcquisitionStore,
    UnknownClassError,
    load_state,
    parse_observations,
    rate,
    save_state,
    save_state_file,
)
from .core import (
    GridError,
    StepSeries,
    TimeGrid,
    auto_mesh_factor,
    series_integral,
)
from .projection import project
from .refinement import (
    CyclicOpenTokens,
    SweepStats,
    clip,
    convolve_direct,
    refine,
    survivor_eval,
    within_cell_factor,
)
from .simulator import (
    ConvergenceRow,
    ExponentialLifetime,
    FixedLifetime,
    PoissonArrivals,
    Scenario,
    ScheduledArrivals,
    SimulationOutput,
    UniformLifetime,
    generate,
    parse_scenario,
    run_convergence,
)
from .theory import (
    ALWAYS,
    CausalTheory,
    DependencyGraph,
    Exponential,
    Linear,
    ParseError,
    Pattern,
    PersistenceRule,
    ProjectionRule,
    dependency_graph,
    parse_pattern_text,
    parse_theory,
    unify,
)
from .tokens import (
    BasicEventSpec,
    EventToken,
    FactToken,
    RuleDerived,
    TokenStore,
    UserSupplied,
    add_basic_event,
    load_basic_facts,
    parse_basic_facts,
)

__version__ = "0.1.0"
