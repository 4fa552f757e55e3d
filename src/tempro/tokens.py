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
from array import array
from dataclasses import dataclass

from .core import StepSeries, TimeGrid
from .theory import (
    GroundKey,
    ParseError,
    Pattern,
    Survivor,
    TypeKey,
    is_variable,
    parse_ground_pattern,
    statements,
)


@dataclass(frozen=True)
class UserSupplied:
    """Derivation marker for tokens read from a basic-facts file."""


@dataclass(frozen=True)
class BuiltIn:
    """Derivation marker for the ALWAYS token."""


@dataclass(frozen=True)
class RuleDerived:
    """Derivation by one projection-rule instantiation.

    ``trigger`` and ``antecedents`` are token ids; together with the rule
    index they identify the instantiation, so re-projection cannot duplicate
    tokens.
    """

    rule_index: int
    trigger: int
    antecedents: tuple[int, ...]


Derivation = UserSupplied | BuiltIn | RuleDerived


@dataclass
class EventToken:
    tid: int
    event_type: Pattern
    est: float
    lst: float
    kappa: float
    derivation: Derivation
    density: StepSeries | None = None

    @property
    def is_user(self) -> bool:
        return isinstance(self.derivation, UserSupplied)


@dataclass
class FactToken:
    tid: int
    fact_type: Pattern
    initiating_event: int  # token id of the event that makes this fact true
    persistence: Survivor | None  # None only for the built-in ALWAYS token
    est: float
    derivation: Derivation
    mass: StepSeries | None = None
    close_cell: int | None = None  # cell where refine closed the mass; None if open

    @property
    def closed(self) -> bool:
        return self.close_cell is not None

    @property
    def is_builtin(self) -> bool:
        return isinstance(self.derivation, BuiltIn)


Token = EventToken | FactToken


class TokenStore:
    """All tokens of one projection problem, split into events and facts.

    Tokens get consecutive ids in creation order; every id belongs to exactly
    one of the two partitions.  ``ancestry`` maps each token to the set of
    ground types its derivation passes through (including its own), which the
    projector uses to cut self-supporting derivation chains.

    Fact ids are also indexed by ``(name, arity, argument position, value)``,
    each list in creation order, so the projector can look up the facts that
    agree with an antecedent's bound arguments without scanning its type.
    """

    def __init__(self) -> None:
        self.events: list[EventToken] = []
        self.facts: list[FactToken] = []
        self._by_id: dict[int, Token] = {}
        self._events_by_key: dict[TypeKey, list[int]] = {}
        self._facts_by_key: dict[TypeKey, list[int]] = {}
        self._facts_by_arg: dict[tuple[str, int, int, str], list[int]] = {}
        self.ancestry: dict[int, frozenset[GroundKey]] = {}
        self.derivation_keys: set[tuple] = set()
        self.always_tid: int | None = None
        self.sweep_stats = None  # set by refinement.refine

    def __len__(self) -> int:
        return len(self.events) + len(self.facts)

    def token(self, tid: int) -> Token:
        return self._by_id[tid]

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
        self._check_derivation(derivation)
        token = EventToken(len(self._by_id), event_type, est, lst, kappa, derivation, density)
        self.events.append(token)
        self._by_id[token.tid] = token
        self._events_by_key.setdefault(event_type.key, []).append(token.tid)
        self._record_ancestry(token.tid, (event_type.name, event_type.args), derivation)
        return token

    def add_fact(
        self,
        fact_type: Pattern,
        initiating_event: int,
        persistence: Survivor | None,
        est: float,
        derivation: Derivation,
    ) -> FactToken:
        if not fact_type.is_ground:
            raise ValueError(f"fact token type must be ground, got {fact_type}")
        if not (isinstance(derivation, BuiltIn) or self._is_event(initiating_event)):
            raise ValueError(f"initiating event {initiating_event} names no event token")
        self._check_derivation(derivation)
        if persistence is None and not isinstance(derivation, BuiltIn):
            raise ValueError(f"fact {fact_type} has no persistence survivor")
        token = FactToken(len(self._by_id), fact_type, initiating_event, persistence, est, derivation)
        self.facts.append(token)
        self._by_id[token.tid] = token
        self._facts_by_key.setdefault(fact_type.key, []).append(token.tid)
        name, arity = fact_type.key
        for position, value in enumerate(fact_type.args):
            self._facts_by_arg.setdefault((name, arity, position, value), []).append(token.tid)
        self._record_ancestry(token.tid, (fact_type.name, fact_type.args), derivation)
        return token

    def _is_event(self, tid: int) -> bool:
        return isinstance(self._by_id.get(tid), EventToken)

    def _check_derivation(self, derivation: Derivation) -> None:
        """A rule derivation may name only existing tokens of the right kind,
        which therefore have smaller ids than the token being added."""
        if not isinstance(derivation, RuleDerived):
            return
        if not self._is_event(derivation.trigger):
            raise ValueError(f"trigger {derivation.trigger} names no event token")
        for ant in derivation.antecedents:
            if not isinstance(self._by_id.get(ant), FactToken):
                raise ValueError(f"antecedent {ant} names no fact token")

    def _record_ancestry(self, tid: int, ground: GroundKey, derivation: Derivation) -> None:
        """``ground`` is the key of a type the caller has checked is ground."""
        own = {ground}
        if isinstance(derivation, RuleDerived):
            own.update(self.ancestry[derivation.trigger])
            for ant in derivation.antecedents:
                own.update(self.ancestry[ant])
        self.ancestry[tid] = frozenset(own)

    def ensure_always(self) -> FactToken:
        """The built-in ALWAYS fact token: timelessly true, never decays."""
        if self.always_tid is None:
            token = self.add_fact(
                Pattern("ALWAYS"),
                initiating_event=-1,
                persistence=None,  # never consulted: the token is never updated
                est=-math.inf,
                derivation=BuiltIn(),
            )
            self.always_tid = token.tid
        token = self._by_id[self.always_tid]
        assert isinstance(token, FactToken)
        return token

    def events_of_type(self, key: TypeKey) -> list[EventToken]:
        return [self._by_id[t] for t in self._events_by_key.get(key, [])]  # type: ignore[misc]

    def count_of_type(self, key: TypeKey) -> int:
        """The number of event and fact tokens of type ``key``."""
        return len(self._events_by_key.get(key, ())) + len(self._facts_by_key.get(key, ()))

    def facts_of_type(self, key: TypeKey) -> list[FactToken]:
        return [self._by_id[t] for t in self._facts_by_key.get(key, [])]  # type: ignore[misc]

    def fact_candidates(self, pattern: Pattern) -> list[FactToken]:
        """The facts that could unify with ``pattern``, in creation order.

        This is the smallest index list among ``pattern``'s constant
        arguments, or every fact of its type when no argument is constant.
        Each such list is a subset of :meth:`facts_of_type` in the same
        order that holds every fact agreeing with that argument, so filtering
        it with ``unify`` gives the same facts in the same order as filtering
        the whole type.
        """
        name, arity = pattern.key
        bound = [
            self._facts_by_arg.get((name, arity, position, value), [])
            for position, value in enumerate(pattern.args)
            if not is_variable(value)
        ]
        if not bound:
            return self.facts_of_type(pattern.key)
        return [self._by_id[t] for t in min(bound, key=len)]  # type: ignore[misc]


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _window_density(grid: TimeGrid, est: float, lst: float, kappa: float) -> StepSeries:
    """Truncated-Gaussian occurrence density for a user event window.

    The in-window discrete integral equals ``kappa``; cells outside the grid
    are dropped, so a window sticking out of the horizon keeps only the mass
    that falls inside.
    """
    values = array("d", [0.0]) * grid.omega
    if est == lst:
        cell = grid.time_to_cell(est)
        if not grid.contains_cell(cell):
            raise ValueError(f"point event at {est} lies outside the horizon")
        values[cell - 1] = kappa / grid.delta
        return StepSeries(grid, values)
    mu = 0.5 * (est + lst)
    sigma = (lst - est) / 6.0
    z = _norm_cdf((lst - mu) / sigma) - _norm_cdf((est - mu) / sigma)
    first = max(1, grid.time_to_cell(est))
    last = min(grid.omega, grid.time_to_cell(lst))
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
        values[i - 1] = kappa * weight / grid.delta
        lo, cdf_lo = hi, cdf_hi
    return StepSeries(grid, values)


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


def init_vectors(store: TokenStore, grid: TimeGrid) -> None:
    """(Re)allocate every token's curve on ``grid``.

    User event densities come from :func:`user_density`; the ALWAYS mass is
    constant 1; everything else starts at zero.  ``refine`` does not call
    this: it builds every curve itself.  It stays public for callers that
    want a store's curves allocated on a grid without refining it.
    """
    for event in store.events:
        if event.is_user:
            user_density(event, grid)
        else:
            event.density = StepSeries.zeros(grid)
    for fact in store.facts:
        if fact.is_builtin:
            fact.mass = StepSeries.ones(grid)
        else:
            fact.mass = StepSeries.zeros(grid)


@dataclass(frozen=True)
class BasicEventSpec:
    event_type: Pattern
    est: float
    lst: float
    kappa: float
    line: int


def parse_basic_facts(text: str) -> list[BasicEventSpec]:
    """Parse the basic-facts format, one observed event per line::

        event ARRIVE(TRUCK14) est 0 lst 10 kappa 1.0
    """
    specs: list[BasicEventSpec] = []
    for cur in statements(text):
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
        specs.append(BasicEventSpec(pattern, est, lst, kappa, cur.lineno))
    return specs


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
