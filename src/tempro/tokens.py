"""Tokens: concrete event and fact instances with their probability curves.

An *event token* is one possible occurrence of a ground event type inside a
time window ``[est, lst]`` (earliest/latest start time), carrying a per-cell
occurrence density.  A *fact token* is one derivation of a ground fact,
initiated by exactly one event token and decaying according to a persistence
survivor; it carries a per-cell probability mass.

User-supplied event tokens ("basic facts") get a truncated-Gaussian density
over their window: mean at the window midpoint, standard deviation one sixth
of the window width, scaled so the discrete integral over the window equals
the stated occurrence probability ``kappa``.  A zero-width window puts all of
``kappa`` into the single cell containing it.
"""
from __future__ import annotations

import math
import re
from array import array
from collections.abc import Iterator

from . import _FrozenRecord, _Record
from .core import StepSeries, TimeGrid
from .theory import (
    _NAME,
    _NUMBER,
    GroundKey,
    ParseError,
    Pattern,
    Survivor,
    TokenCursor,
    TypeKey,
    is_variable,
    line_cursor,
    parse_ground_pattern,
    split_lines,
)


class UserSupplied(_FrozenRecord):
    """Derivation marker for tokens read from a basic-facts file."""

    __slots__ = ()


class BuiltIn(_FrozenRecord):
    """Derivation marker for the ALWAYS token."""

    __slots__ = ()


class RuleDerived(_FrozenRecord):
    """Derivation by one projection-rule instantiation.

    ``trigger`` and ``antecedents`` are token ids; together with the rule
    index they identify the instantiation, so re-projection cannot duplicate
    tokens.
    """

    __slots__ = ("rule_index", "trigger", "antecedents")

    def __init__(self, rule_index: int, trigger: int, antecedents: tuple[int, ...]) -> None:
        object.__setattr__(self, "rule_index", rule_index)
        object.__setattr__(self, "trigger", trigger)
        object.__setattr__(self, "antecedents", antecedents)


Derivation = UserSupplied | BuiltIn | RuleDerived


class EventToken(_Record):
    __slots__ = ("tid", "event_type", "est", "lst", "kappa", "derivation", "density")

    def __init__(
        self,
        tid: int,
        event_type: Pattern,
        est: float,
        lst: float,
        kappa: float,
        derivation: Derivation,
        density: StepSeries | None = None,
    ) -> None:
        self.tid = tid
        self.event_type = event_type
        self.est = est
        self.lst = lst
        self.kappa = kappa
        self.derivation = derivation
        self.density = density

    @property
    def is_user(self) -> bool:
        return isinstance(self.derivation, UserSupplied)


class FactToken(_Record):
    __slots__ = (
        "tid", "fact_type", "initiating_event", "persistence", "est", "derivation", "mass",
        "close_cell",
    )

    def __init__(
        self,
        tid: int,
        fact_type: Pattern,
        initiating_event: int,
        persistence: Survivor | None,
        est: float,
        derivation: Derivation,
        mass: StepSeries | None = None,
        close_cell: int | None = None,
    ) -> None:
        self.tid = tid
        self.fact_type = fact_type
        self.initiating_event = initiating_event  # token id of the event that makes this fact true
        self.persistence = persistence  # None only for the built-in ALWAYS token
        self.est = est
        self.derivation = derivation
        self.mass = mass
        self.close_cell = close_cell  # cell where refine closed the mass; None if open

    @property
    def closed(self) -> bool:
        return self.close_cell is not None

    @property
    def is_builtin(self) -> bool:
        return isinstance(self.derivation, BuiltIn)


Token = EventToken | FactToken


class TokenStore:
    """All tokens of one projection problem, in one list indexed by id.

    Tokens get consecutive ids in creation order; ``events`` and ``facts``
    are the list's two partitions.  ``ancestry`` maps each token to the ground
    types its derivation passes through (its own included), which the
    projector uses to cut self-supporting chains; a rule-derived fact shares
    its onset event's derivation check and ancestry set.

    The indexes hold tokens in creation order: by type, and facts also by
    ``(name, arity, argument position, value)``, so the projector can find the
    facts agreeing with an antecedent's bound arguments without a type scan.
    """

    def __init__(self) -> None:
        self.events: list[EventToken] = []
        self.facts: list[FactToken] = []
        self._tokens: list[Token] = []
        self._events_by_key: dict[TypeKey, list[EventToken]] = {}
        self._facts_by_key: dict[TypeKey, list[FactToken]] = {}
        self._facts_by_arg: dict[tuple[str, int, int, str], list[FactToken]] = {}
        self.ancestry: dict[int, frozenset[GroundKey]] = {}
        self.derivation_keys: set[tuple] = set()
        self.always: FactToken | None = None
        self.sweep_stats = None  # set by refinement.refine

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self) -> Iterator[Token]:
        """Every token in tid order."""
        return iter(self._tokens)

    def token(self, tid: int) -> Token:
        if (token := self._find(tid)) is None:
            raise KeyError(tid)
        return token

    def _find(self, tid: int) -> Token | None:
        """The token with id ``tid``, or None; a negative id names no token."""
        return self._tokens[tid] if 0 <= tid < len(self._tokens) else None

    def add_event(
        self,
        event_type: Pattern,
        est: float,
        lst: float,
        kappa: float,
        derivation: Derivation,
        density: StepSeries | None = None,
    ) -> EventToken:
        if not event_type.is_ground:
            raise ValueError(f"event token type must be ground, got {event_type}")
        ancestry = {(event_type.name, event_type.args)}
        if isinstance(derivation, RuleDerived):  # names only existing tokens, so smaller ids
            if not isinstance(self._find(derivation.trigger), EventToken):
                raise ValueError(f"trigger {derivation.trigger} names no event token")
            ancestry.update(self.ancestry[derivation.trigger])
            for ant in derivation.antecedents:
                if not isinstance(self._find(ant), FactToken):
                    raise ValueError(f"antecedent {ant} names no fact token")
                ancestry.update(self.ancestry[ant])
        token = EventToken(len(self._tokens), event_type, est, lst, kappa, derivation, density)
        self._tokens.append(token)
        self.events.append(token)
        self._events_by_key.setdefault(event_type.key, []).append(token)
        self.ancestry[token.tid] = frozenset(ancestry)
        return token

    def add_fact(
        self,
        fact_type: Pattern,
        initiating_event: int,
        persistence: Survivor | None,
        est: float,
        derivation: Derivation,
    ) -> FactToken:
        """A rule-derived fact must be initiated by its onset, the event of the
        same type and derivation, whose derivation :meth:`add_event` checked;
        the fact shares that event's ancestry set."""
        if not fact_type.is_ground:
            raise ValueError(f"fact token type must be ground, got {fact_type}")
        onset = self._find(initiating_event)
        if not (isinstance(derivation, BuiltIn) or isinstance(onset, EventToken)):
            raise ValueError(f"initiating event {initiating_event} names no event token")
        if persistence is None and not isinstance(derivation, BuiltIn):
            raise ValueError(f"fact {fact_type} has no persistence survivor")
        if not isinstance(derivation, RuleDerived):
            ancestry = frozenset({(fact_type.name, fact_type.args)})
        elif isinstance(onset, EventToken) and (onset.derivation, onset.event_type) == (derivation, fact_type):
            ancestry = self.ancestry[initiating_event]
        else:
            raise ValueError(f"initiating event {initiating_event} is not this derivation's onset")
        token = FactToken(len(self._tokens), fact_type, initiating_event, persistence, est, derivation)
        self._tokens.append(token)
        self.facts.append(token)
        self._facts_by_key.setdefault(fact_type.key, []).append(token)
        name, arity = fact_type.key
        for position, value in enumerate(fact_type.args):
            self._facts_by_arg.setdefault((name, arity, position, value), []).append(token)
        self.ancestry[token.tid] = ancestry
        return token

    def ensure_always(self) -> FactToken:
        """The built-in ALWAYS fact token: timelessly true, never decays."""
        if self.always is None:
            self.always = self.add_fact(
                Pattern("ALWAYS"),
                initiating_event=-1,
                persistence=None,  # never consulted: the token is never updated
                est=-math.inf,
                derivation=BuiltIn(),
            )
        return self.always

    def events_of_type(self, key: TypeKey) -> list[EventToken]:
        return list(self._events_by_key.get(key, ()))

    def count_of_type(self, key: TypeKey) -> int:
        """The number of event and fact tokens of type ``key``."""
        return len(self._events_by_key.get(key, ())) + len(self._facts_by_key.get(key, ()))

    def facts_of_type(self, key: TypeKey) -> list[FactToken]:
        return list(self._facts_by_key.get(key, ()))

    def fact_candidates(self, pattern: Pattern) -> list[FactToken]:
        """The facts that could unify with ``pattern``, in creation order.

        This is the smallest index list among ``pattern``'s constant
        arguments, or every fact of its type when no argument is constant.
        Each such list is a subset of :meth:`facts_of_type` in the same
        order that holds every fact agreeing with that argument, so filtering
        it with ``unify`` gives the same facts in the same order as filtering
        the whole type.  The list is the store's own: read only, add no fact.
        """
        name, arity = pattern.key
        bound = [
            self._facts_by_arg.get((name, arity, position, value), [])
            for position, value in enumerate(pattern.args)
            if not is_variable(value)
        ]
        if not bound:
            return self._facts_by_key.get(pattern.key, [])
        return min(bound, key=len)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _window_density(grid: TimeGrid, est: float, lst: float, kappa: float) -> StepSeries:
    """Truncated-Gaussian occurrence density for a user event window.

    The in-window discrete integral equals ``kappa``; cells outside the grid
    are dropped, so a window sticking out of the horizon keeps only the mass
    that falls inside.
    """
    if est == lst:
        cell = grid.time_to_cell(est)
        if not grid.contains_cell(cell):
            raise ValueError(f"point event at {est} lies outside the horizon")
        return StepSeries(grid, [kappa / grid.delta], cell)
    mu = 0.5 * (est + lst)
    sigma = (lst - est) / 6.0
    z = _norm_cdf((lst - mu) / sigma) - _norm_cdf((est - mu) / sigma)
    first = max(1, grid.time_to_cell(est))
    last = min(grid.omega, grid.time_to_cell(lst))
    values = array("d", [0.0]) * (last + 1 - first)
    # Cell i covers [lo, hi] = its edges clipped to the window.  Clipping is
    # monotone and cell_end(i) is the same float as cell_start(i + 1), so one
    # CDF value per clipped boundary serves both cells that share it; a cell
    # is skipped exactly when its clipped edges coincide.
    lo = min(lst, max(est, grid.cell_start(first)))
    cdf_lo = _norm_cdf((lo - mu) / sigma)
    for i in range(first, last + 1):
        hi = min(lst, max(est, grid.cell_end(i)))
        if hi <= lo:
            continue
        cdf_hi = _norm_cdf((hi - mu) / sigma)
        weight = (cdf_hi - cdf_lo) / z
        values[i - first] = kappa * weight / grid.delta
        lo, cdf_lo = hi, cdf_hi
    return StepSeries(grid, values, first)


def add_basic_event(
    store: TokenStore,
    event_type: Pattern,
    est: float,
    lst: float,
    kappa: float,
    grid: TimeGrid,
) -> EventToken:
    """Add a user-supplied event token with its window density filled in."""
    if not event_type.is_ground:
        raise ValueError(f"basic event type must be ground, got {event_type}")
    if not (math.isfinite(est) and math.isfinite(lst) and est <= lst):
        raise ValueError(f"invalid window [{est}, {lst}]")
    if not (0.0 <= kappa <= 1.0):
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    if est >= grid.end or lst < grid.origin or (est == lst and not grid.contains_cell(grid.time_to_cell(est))):
        raise ValueError(
            f"window [{est}, {lst}] lies entirely outside the horizon "
            f"[{grid.origin}, {grid.end})"
        )
    density = _window_density(grid, est, lst, kappa)
    return store.add_event(event_type, est, lst, kappa, UserSupplied(), density)


def user_density(event: EventToken, grid: TimeGrid) -> StepSeries:
    """The window density of user event ``event`` on ``grid``: kept when
    already on ``grid`` (as :func:`add_basic_event` builds it) and recomputed
    from the window otherwise."""
    if event.density is None or event.density.grid != grid:
        event.density = _window_density(grid, event.est, event.lst, event.kappa)
    return event.density


class BasicEventSpec(_FrozenRecord):
    __slots__ = ("event_type", "est", "lst", "kappa", "line")

    def __init__(self, event_type: Pattern, est: float, lst: float, kappa: float, line: int) -> None:
        object.__setattr__(self, "event_type", event_type)
        object.__setattr__(self, "est", est)
        object.__setattr__(self, "lst", lst)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "line", line)


# The layout ``simulate`` and the benchmark workloads write: a ground key
# without blanks, numbers in ASCII digits, spaces or tabs between the
# fields, and no comment.  Each group is a whole token of the statement
# reader, so a line it matches reads to the same key and numbers there.
_EVENT_RE = re.compile(
    rf"[ \t]*event[ \t]+({_NAME})(?:\(({_NAME}(?:,{_NAME})*)\))?[ \t]+est[ \t]+({_NUMBER})"
    rf"[ \t]+lst[ \t]+({_NUMBER})[ \t]+kappa[ \t]+({_NUMBER})[ \t]*"
)


def parse_basic_facts(text: str) -> list[BasicEventSpec]:
    """Parse the basic-facts format, one observed event per line::

        event ARRIVE(TRUCK14) est 0 lst 10 kappa 1.0

    A line in the layout of ``_EVENT_RE`` whose window and ``kappa`` are
    valid is read from the regex match alone.  Every other line, such as one
    with a comment or a fault, goes to the statement reader,
    :func:`_basic_fact`, which reads it or raises its positioned error.
    """
    specs: list[BasicEventSpec] = []
    fast = _EVENT_RE.fullmatch
    for lineno, line in enumerate(split_lines(text), start=1):
        match = fast(line)
        if match is not None:
            name, args, est, lst, kappa = match.groups()
            est, lst, kappa = float(est), float(lst), float(kappa)
            # _basic_fact's checks; a number of the regex is never nan
            if -math.inf < est <= lst < math.inf and 0.0 <= kappa <= 1.0:
                key = Pattern(name, tuple(args.split(",")) if args else ())
                specs.append(BasicEventSpec(key, est, lst, kappa, lineno))
                continue
        cur = line_cursor(line, lineno)
        if cur is not None:
            specs.append(_basic_fact(cur))
    return specs


def _basic_fact(cur: TokenCursor) -> BasicEventSpec:
    """The basic event on ``cur``'s line, read token by token, or the
    :class:`ParseError` of its leftmost fault."""
    cur.take("event")
    pattern = parse_ground_pattern(cur, "basic event")
    cur.take("est")
    est = cur.take_number("the earliest start time")
    cur.take("lst")
    lst = cur.take_number("the latest start time")
    if not (math.isfinite(est) and math.isfinite(lst) and est <= lst):
        raise cur.error(f"window [{est}, {lst}] is invalid", back=1)
    cur.take("kappa")
    kappa = cur.take_number(
        "an occurrence probability", "kappa must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0
    )
    cur.expect_end()
    return BasicEventSpec(pattern, est, lst, kappa, cur.lineno)


def load_basic_facts(
    store: TokenStore, facts: str | list[BasicEventSpec], grid: TimeGrid
) -> list[EventToken]:
    """Add every basic event in ``facts``, a basic-facts text or the list
    :func:`parse_basic_facts` made of one; returns the new tokens.  A window
    the grid cannot hold is a :class:`ParseError` at its file line."""
    specs = parse_basic_facts(facts) if isinstance(facts, str) else facts
    out = []
    for spec in specs:
        try:
            out.append(add_basic_event(store, spec.event_type, spec.est, spec.lst, spec.kappa, grid))
        except ValueError as exc:
            raise ParseError(str(exc), spec.line, 1) from exc
    return out
