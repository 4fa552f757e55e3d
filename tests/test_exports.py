"""The package's exported names: each is the object its home module
defines, and ``__all__`` lists exactly them."""
from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import tempro

# Every name the package exports, by its home module.
EXPORTS = {
    "acquisition": ["AcquisitionClass", "AcquisitionStore", "UnknownClassError", "load_state",
                    "parse_observations", "rate", "save_state", "save_state_file"],
    "core": ["GridError", "StepSeries", "TimeGrid", "auto_mesh_factor", "series_integral"],
    "projection": ["project"],
    "refinement": ["CyclicOpenTokens", "SweepStats", "convolve_direct", "refine",
                   "survivor_eval", "within_cell_factor"],
    "simulator": ["ConvergenceRow", "ExponentialLifetime", "FixedLifetime", "PoissonArrivals",
                  "Scenario", "ScheduledArrivals", "SimulationOutput", "UniformLifetime",
                  "generate", "parse_scenario", "run_convergence"],
    "theory": ["ALWAYS", "CausalTheory", "DependencyGraph", "Exponential", "Linear",
               "ParseError", "Pattern", "PersistenceRule", "ProjectionRule",
               "dependency_graph", "parse_pattern_text", "parse_theory", "unify"],
    "tokens": ["BasicEventSpec", "EventToken", "FactToken", "RuleDerived", "TokenStore",
               "UserSupplied", "add_basic_event", "load_basic_facts", "parse_basic_facts"],
}
HOMES = [(name, module) for module, names in EXPORTS.items() for name in names]


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_exported_set():
    assert len(HOMES) == 53
    assert sorted(tempro.__all__) == sorted(name for name, _ in HOMES)
    assert set(tempro.__all__) <= set(dir(tempro))
    assert tempro.__version__ == "0.1.0"


@pytest.mark.parametrize("name,module", HOMES, ids=[name for name, _ in HOMES])
def test_export_is_its_home_modules_object(name, module):
    namespace: dict = {}
    exec(f"from tempro import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"tempro.{module}"), name)


def test_star_import_binds_every_export():
    out = _fresh("from tempro import *\nprint(*sorted(k for k in dir() if not k.startswith('_')))")
    assert out.split() == sorted(name for name, _ in HOMES)


@pytest.mark.parametrize("name", ["nope", "statements", "Survivor"])
def test_unknown_attribute_is_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'tempro' has no attribute '{name}'"):
        getattr(tempro, name)
