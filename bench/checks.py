"""Checks of the CLI's answers against a workload plan's expected values.

Each check returns ``None`` when the answer is right and a one-line reason
when it is wrong.  A value passes when it lies within the CSV's printed
precision of the oracle: twelve significant digits, plus the rounding of
``1 - (1 - m)`` that ``query`` applies to a single mass.
"""
from __future__ import annotations

REL_TOL = 1e-11
ABS_TOL = 1e-15


def close(got: float, expected: float) -> bool:
    return abs(got - expected) <= REL_TOL * abs(expected) + ABS_TOL


def check_query(stdout: str, expected: float) -> str | None:
    """A ground query prints one number."""
    lines = stdout.split()
    if len(lines) != 1:
        return f"expected one value, got {len(lines)} tokens"
    try:
        got = float(lines[0])
    except ValueError:
        return f"not a number: {lines[0]!r}"
    if not close(got, expected):
        return f"value {got!r} != expected {expected!r}"
    return None


def check_query_all(stdout: str, expected: dict[str, float | None]) -> str | None:
    """A pattern query prints ``TYPE value``, one line per fact of the type.

    An expected value of ``None`` marks a fact that must be listed but whose
    value the oracle leaves unchecked.
    """
    got: dict[str, float] = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) != 2 or parts[0] in got:
            return f"malformed or repeated line {line!r}"
        try:
            got[parts[0]] = float(parts[1])
        except ValueError:
            return f"not a number in {line!r}"
    if got.keys() != expected.keys():
        missing = sorted(expected.keys() - got.keys())[:3]
        extra = sorted(got.keys() - expected.keys())[:3]
        return f"{len(got)} facts listed, {len(expected)} expected (missing {missing}, extra {extra})"
    for name, value in expected.items():
        if value is not None and not close(got[name], value):
            return f"{name}: {got[name]!r} != expected {value!r}"
    return None


def check_acquire(state_text: str, insts: int, lam: float) -> str | None:
    """The state file holds one class with ``insts`` observations and the
    decay parameter of their mean."""
    words = state_text.split()
    try:
        got_insts = int(words[words.index("insts") + 1])
        got_lam = float(words[words.index("lambda") + 1])
    except (ValueError, IndexError):
        return f"unreadable state {state_text.strip()!r}"
    if got_insts != insts:
        return f"insts {got_insts} != expected {insts}"
    if not close(got_lam, lam):
        return f"lambda {got_lam!r} != expected {lam!r}"
    return None
