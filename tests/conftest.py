"""Shared fixtures and hypothesis configuration for the test suite."""
from __future__ import annotations

import os
import pathlib

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture(scope="session")
def golden_dir() -> pathlib.Path:
    return GOLDEN


@pytest.fixture(scope="session")
def dock_rules_text() -> str:
    return (DATA / "dock.rules").read_text()


@pytest.fixture(scope="session")
def dock_facts_text() -> str:
    return (DATA / "dock.facts").read_text()


@pytest.fixture(scope="session", autouse=True)
def _child_pythonpath():
    """Child interpreters (``python -m tempro``) import the package from
    ``src`` as this process does, whether or not PYTHONPATH is set."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield
