"""Online acquisition of persistence rates from observed lifetimes.

Each tracked *class* (a fact-type pattern such as ``TRUCK(?c)``) accumulates
completed stay durations and maintains the decay parameter of its survivor
family from the running mean duration:

* exponential family: ``rate = ln(2) / mean`` (the mean is treated as the
  half-life);
* linear family: ``slope = 0.5 / mean`` (a slope whose area under the
  survivor equals the mean).

Each stay is folded into its class in place by
:meth:`AcquisitionStore.observe`, which routes it to the first matching class
and calls :meth:`AcquisitionClass.observe`; a fold of many stays takes the
routing function once from :meth:`AcquisitionStore.router`.  Only completed
observations are fed in; stays still in progress at the end of a run are
censored and never reach it, which biases the mean slightly low on busy
horizons but keeps the update one line long.

State file format, one class per line::

    class TRUCK(?c) exponential insts 3 sum 42.0 lambda 0.0495...

The ``lambda`` column is informational (it is always recomputed from
``sum/insts``); ``inf`` denotes a class with no data yet.
"""
from __future__ import annotations

import math
import os
import shutil
import tempfile
from collections import namedtuple
from collections.abc import Callable

from . import _Record
from .theory import (
    _GROUND_KEY,
    _NUMBER,
    VARIABLE_PREFIX,
    Pattern,
    TokenCursor,
    TypeKey,
    key_pattern,
    parse_ground_pattern,
    parse_pattern,
    read_lines,
    unify,
)

FAMILIES = ("linear", "exponential")


def rate(family: str, mu: float) -> float:
    """Decay parameter of the given survivor family for mean duration ``mu``.

    ``mu = 0`` maps to ``inf`` (instant decay); negative means are rejected.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown survivor family {family!r}")
    if math.isnan(mu) or mu < 0:
        raise ValueError(f"mean duration must be >= 0, got {mu}")
    if mu == 0:
        return math.inf
    if family == "linear":
        return 0.5 / mu
    return math.log(2) / mu


class AcquisitionClass(_Record):
    """Running lifetime statistics for one tracked fact-type pattern.

    ``total`` is kept as the exact running sum so saved state reloads
    bit-identically; the decay parameter is always derived from it.
    """

    __slots__ = ("key", "family", "insts", "total")

    def __init__(self, key: Pattern, family: str, insts: int = 0, total: float = 0.0) -> None:
        if family not in FAMILIES:
            raise ValueError(f"unknown survivor family {family!r}")
        self.key = key
        self.family = family
        self.insts = insts
        self.total = total

    @property
    def mean(self) -> float:
        return self.total / self.insts if self.insts else 0.0

    @property
    def lam(self) -> float:
        """Current decay parameter; ``inf`` until the first observation."""
        return rate(self.family, self.mean) if self.insts else math.inf

    def observe(self, duration: float) -> None:
        """Fold one completed stay duration into the statistics, in place.

        A total that overflows to ``inf`` is rejected: no state file could
        hold it, since ``load_state`` requires a finite ``sum``.  A rejected
        duration leaves the class unchanged."""
        if math.isnan(duration) or math.isinf(duration) or duration < 0:
            raise ValueError(f"duration must be finite and >= 0, got {duration}")
        total = self.total + duration
        if math.isinf(total):
            raise ValueError(f"sum of {self.key} durations overflows: {self.total} + {duration}")
        self.insts += 1
        self.total = total


class UnknownClassError(ValueError):
    """An observation key matched no configured acquisition class."""

    def __init__(self, key: Pattern, known: list[Pattern]):
        known_text = ", ".join(str(k) for k in known) or "(none)"
        super().__init__(f"no acquisition class matches {key}; known classes: {known_text}")
        self.key = key
        self.known = known


def _is_open(pattern: Pattern) -> bool:
    """Every argument of ``pattern`` is a variable, each a different one."""
    args = pattern.args
    return all(a.startswith(VARIABLE_PREFIX) for a in args) and len(set(args)) == len(args)


class AcquisitionStore:
    """The configured classes, in file order; first matching pattern wins."""

    def __init__(self, classes: list[AcquisitionClass] | None = None):
        self.classes: list[AcquisitionClass] = list(classes or [])

    def router(self) -> Callable[[Pattern], AcquisitionClass]:
        """The function that gives a key's class: the first class, in file
        order, whose pattern the key unifies with, or :class:`UnknownClassError`.

        It routes by the classes as they are now.  A pattern is *open* when
        every argument is a distinct variable: every key of its type unifies
        with it.  So when the first class of a type is open, it is the class
        of every key of that type, which a dict by ``(name, arity)`` gives
        without a ``unify``.  A key of any other type is matched with
        ``unify`` against each class in file order."""
        classes = list(self.classes)
        heads: dict[TypeKey, AcquisitionClass] = {}
        for cls in classes:
            heads.setdefault(cls.key.key, cls)
        first = {k: cls for k, cls in heads.items() if _is_open(cls.key)}

        def route(key: Pattern) -> AcquisitionClass:
            cls = first.get((key.name, len(key.args)))
            if cls is not None:
                return cls
            for cls in classes:
                if unify(cls.key, key) is not None:
                    return cls
            raise UnknownClassError(key, [c.key for c in classes])

        return route

    def observe(self, key: Pattern, duration: float) -> None:
        """Fold one completed stay of ``key`` into the first class it matches."""
        self.router()(key).observe(duration)


def _format_number(x: float) -> str:
    return "inf" if math.isinf(x) else repr(x)


def save_state(store: AcquisitionStore) -> str:
    lines = [
        f"class {cls.key} {cls.family} insts {cls.insts} "
        f"sum {_format_number(cls.total)} lambda {_format_number(cls.lam)}"
        for cls in store.classes
    ]
    return "\n".join(lines) + "\n" if lines else ""


def load_state(text: str) -> AcquisitionStore:
    return AcquisitionStore(read_lines(text, _state_class))


def _state_class(cur: TokenCursor) -> AcquisitionClass:
    """The class on ``cur``'s line of a state file, or the
    :class:`ParseError` of its leftmost fault."""
    cur.take("class")
    key = parse_pattern(cur)
    family = cur.take_word(FAMILIES)
    cur.take("insts")
    insts = cur.take_count("insts", "an observation count")
    cur.take("sum")
    total = cur.take_number(
        "a duration sum", "sum must be finite and >= 0", lambda v: 0 <= v < math.inf
    )
    if insts == 0 and total != 0:
        raise cur.error(f"sum must be 0 when insts is 0, got {total}", back=1)
    cur.take("lambda")
    cur.take_number("a decay parameter")  # informational; recomputed
    cur.expect_end()
    return AcquisitionClass(key, family, insts, total)


def save_state_file(store: AcquisitionStore, path: str) -> None:
    """Atomic save: write to a temp file in the same directory, then rename.
    A symlink is resolved first, so its target is replaced and the link
    stays.  An existing file keeps its permission bits; ``mkstemp`` makes
    the temp file 0600."""
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".acquire-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(save_state(store))
        if os.path.exists(path):
            shutil.copymode(path, tmp_path)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


Observation = namedtuple("Observation", "key arrival departure line")


# The layout ``simulate`` writes: a ground key without blanks, numbers in
# ASCII digits, spaces or tabs between the fields, and no comment.  Each
# group is a whole token of the statement reader, so a line it matches reads
# to the same key and numbers there.
_OBSERVE_RE = (
    rf"[ \t]*observe[ \t]+{_GROUND_KEY}"
    rf"[ \t]+arrival[ \t]+({_NUMBER})[ \t]+departure[ \t]+({_NUMBER})[ \t]*"
)


def parse_observations(text: str) -> list[Observation]:
    """Parse completed-stay observations, one per line::

        observe TRUCK(ACME) arrival 0 departure 12.5

    :func:`read_lines` reads a line in the layout of ``_OBSERVE_RE`` whose
    stay is valid from the regex match alone, and every other line with
    :func:`_observation`.
    """
    return read_lines(text, _observation, _OBSERVE_RE, _observed)


def _observed(match, lineno: int) -> Observation | None:
    """The observation of a ``_OBSERVE_RE`` match, or None when its stay
    fails :func:`_observation`'s check."""
    name, args, arrival, departure = match.groups()
    arrival, departure = float(arrival), float(departure)
    if -math.inf < arrival <= departure < math.inf:
        return Observation(key_pattern(name, args), arrival, departure, lineno)
    return None


def _observation(cur: TokenCursor) -> Observation:
    """The observation on ``cur``'s line, read token by token, or the
    :class:`ParseError` of its leftmost fault."""
    cur.take("observe")
    key = parse_ground_pattern(cur, "observation key")
    cur.take("arrival")
    arrival = cur.take_number("an arrival time")
    cur.take("departure")
    departure = cur.take_number("a departure time")
    if not (math.isfinite(arrival) and math.isfinite(departure)) or departure < arrival:
        raise cur.error(f"invalid stay [{arrival}, {departure}]", back=1)
    cur.expect_end()
    return Observation(key, arrival, departure, cur.lineno)
