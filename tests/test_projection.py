"""Rule instantiation: growing the token store to a fixpoint."""
from __future__ import annotations

import gc
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempro.projection
from tempro import (
    CausalTheory,
    EventToken,
    Exponential,
    Pattern,
    PersistenceRule,
    ProjectionRule,
    RuleDerived,
    TimeGrid,
    TokenStore,
    UserSupplied,
    add_basic_event,
    parse_pattern_text,
    parse_theory,
    project,
    refine,
)
from tempro.projection import _cycle_types
from tempro.theory import unify


def _store_with(grid, *events):
    store = TokenStore()
    for (name, args, est, lst, kappa) in events:
        add_basic_event(store, Pattern(name, args), est, lst, kappa, grid)
    return store


class TestProjectBasics:
    def test_dock_example_creates_onset_and_fact(self, dock_rules_text):
        theory = parse_theory(dock_rules_text)
        grid = TimeGrid(0.0, 1.0, 60)
        store = _store_with(grid, ("ARRIVE", ("TRUCK14",), 0.0, 10.0, 1.0))
        project(theory, store, grid)

        dock = Pattern("ATDOCK", ("TRUCK14",))
        onsets = store.events_of_type(("ATDOCK", 1))
        facts = store.facts_of_type(("ATDOCK", 1))
        assert len(onsets) == 1 and len(facts) == 1
        onset, fact = onsets[0], facts[0]
        trigger = store.events_of_type(("ARRIVE", 1))[0]

        assert onset.event_type == dock
        assert (onset.est, onset.lst) == (trigger.est, trigger.lst)
        assert onset.kappa == 1.0
        assert isinstance(onset.derivation, RuleDerived)
        assert onset.derivation.trigger == trigger.tid

        assert fact.fact_type == dock
        assert fact.initiating_event == onset.tid
        assert fact.est == trigger.est
        assert fact.persistence == Exponential(0.0034195529591700387)

        # the ALWAYS antecedent was materialised
        assert any(f.is_builtin for f in store.facts)

    def test_empty_theory_adds_nothing(self):
        grid = TimeGrid(0.0, 1.0, 10)
        store = _store_with(grid, ("ARRIVE", ("T",), 0.0, 2.0, 1.0))
        project(parse_theory(""), store, grid)
        assert len(store.events) == 1
        assert len(store.facts) == 0

    def test_no_matching_trigger(self):
        theory = parse_theory("project ALWAYS, DEPART(?t) => GONE(?t) @ 1.0\n")
        grid = TimeGrid(0.0, 1.0, 10)
        store = _store_with(grid, ("ARRIVE", ("T",), 0.0, 2.0, 1.0))
        project(theory, store, grid)
        assert store.events_of_type(("GONE", 1)) == []

    def test_idempotent(self, dock_rules_text):
        theory = parse_theory(dock_rules_text)
        grid = TimeGrid(0.0, 1.0, 60)
        store = _store_with(grid, ("ARRIVE", ("TRUCK14",), 0.0, 10.0, 1.0))
        project(theory, store, grid)
        n = len(store.events) + len(store.facts)
        project(theory, store, grid)
        assert len(store.events) + len(store.facts) == n

    def test_two_triggers_two_consequents(self, dock_rules_text):
        theory = parse_theory(dock_rules_text)
        grid = TimeGrid(0.0, 1.0, 60)
        store = _store_with(
            grid,
            ("ARRIVE", ("TRUCK14",), 0.0, 10.0, 1.0),
            ("ARRIVE", ("TRUCK9",), 5.0, 15.0, 0.7),
        )
        project(theory, store, grid)
        assert len(store.facts_of_type(("ATDOCK", 1))) == 2
        keys = {(f.fact_type.name, f.fact_type.args) for f in store.facts_of_type(("ATDOCK", 1))}
        assert keys == {("ATDOCK", ("TRUCK14",)), ("ATDOCK", ("TRUCK9",))}

    def test_rule_kappa_scales_onset(self):
        theory = parse_theory("project ALWAYS, E(?x) => F(?x) @ 0.25\n"
                              "persist F(?x) exp 0.0\n")
        grid = TimeGrid(0.0, 1.0, 10)
        store = _store_with(grid, ("E", ("A",), 0.0, 2.0, 1.0))
        project(theory, store, grid)
        (onset,) = store.events_of_type(("F", 1))
        assert onset.kappa == 0.25


class TestAntecedentMatching:
    THEORY = (
        "persist A(?x) exp 0.0\npersist B(?x) exp 0.0\n"
        "project ALWAYS, E1(?x) => A(?x) @ 1.0\n"
        "project A(?x), E2(?x) => B(?x) @ 1.0\n"
    )

    def test_antecedent_must_not_start_after_trigger_window(self):
        theory = parse_theory(self.THEORY)
        grid = TimeGrid(0.0, 1.0, 30)
        # A(X) starts at 5; the E2 trigger window ends at 1, before A exists.
        store = _store_with(
            grid,
            ("E1", ("X",), 5.0, 6.0, 1.0),
            ("E2", ("X",), 0.0, 1.0, 1.0),
        )
        project(theory, store, grid)
        assert store.facts_of_type(("A", 1)) != []
        assert store.facts_of_type(("B", 1)) == []

    def test_antecedent_available_in_trigger_window(self):
        theory = parse_theory(self.THEORY)
        grid = TimeGrid(0.0, 1.0, 30)
        store = _store_with(
            grid,
            ("E1", ("X",), 5.0, 6.0, 1.0),
            ("E2", ("X",), 7.0, 8.0, 1.0),
        )
        project(theory, store, grid)
        assert len(store.facts_of_type(("B", 1))) == 1

    def test_bindings_shared_across_antecedent_and_trigger(self):
        theory = parse_theory(self.THEORY)
        grid = TimeGrid(0.0, 1.0, 30)
        # A(X) exists but the late trigger is for Y: no B token.
        store = _store_with(
            grid,
            ("E1", ("X",), 0.0, 1.0, 1.0),
            ("E2", ("Y",), 7.0, 8.0, 1.0),
        )
        project(theory, store, grid)
        assert store.facts_of_type(("B", 1)) == []

    def test_each_antecedent_combination_fires_once(self):
        theory = parse_theory(
            "persist A(?x) exp 0.0\npersist B(?x,?y) exp 0.0\n"
            "project ALWAYS, E1(?x) => A(?x) @ 1.0\n"
            "project A(?x), E2(?y) => B(?x,?y) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 30)
        store = _store_with(
            grid,
            ("E1", ("X",), 0.0, 1.0, 1.0),
            ("E1", ("Y",), 0.0, 1.0, 1.0),
            ("E2", ("Z",), 7.0, 8.0, 1.0),
        )
        project(theory, store, grid)
        keys = sorted(str(f.fact_type) for f in store.facts_of_type(("B", 2)))
        assert keys == ["B(X,Z)", "B(Y,Z)"]


class TestChainingAndTermination:
    def test_chain_through_derived_onset(self):
        # The onset event of fact A doubles as a trigger for the next rule.
        theory = parse_theory(
            "persist A(?x) exp 0.0\npersist B(?x) exp 0.0\n"
            "project ALWAYS, E(?x) => A(?x) @ 1.0\n"
            "project ALWAYS, A(?x) => B(?x) @ 0.5\n"
        )
        grid = TimeGrid(0.0, 1.0, 30)
        store = _store_with(grid, ("E", ("X",), 0.0, 2.0, 1.0))
        project(theory, store, grid)
        (b_onset,) = store.events_of_type(("B", 1))
        assert b_onset.kappa == 0.5
        assert len(store.facts_of_type(("B", 1))) == 1

    def test_later_rule_feeding_an_antecedent_reruns_the_rule(self):
        # Rule 1 makes the A fact that rule 0 joins.  E gains no token, so
        # only the new antecedent fact brings rule 0 round again.
        theory = parse_theory(
            "persist A(?x) exp 0.0\npersist B(?x) exp 0.0\n"
            "project A(?x), E(?x) => B(?x) @ 1.0\n"
            "project ALWAYS, F(?x) => A(?x) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 30)
        store = _store_with(grid, ("E", ("X",), 2.0, 4.0, 1.0), ("F", ("X",), 0.0, 1.0, 1.0))
        project(theory, store, grid)
        (b,) = store.facts_of_type(("B", 1))
        assert b.derivation.rule_index == 0

    def test_mutual_recursion_terminates_via_ancestry(self):
        theory = parse_theory(
            "persist A(?x) exp 0.0\npersist B(?x) exp 0.0\n"
            "project ALWAYS, A(?x) => B(?x) @ 1.0\n"
            "project ALWAYS, B(?x) => A(?x) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 30)
        store = TokenStore()
        add_basic_event(store, Pattern("A", ("X",)), 0.0, 2.0, 1.0, grid)
        project(theory, store, grid)
        # A(X) fires B(X); re-deriving A(X) from B(X) is suppressed because
        # A(X) already appears in B(X)'s ancestry.
        assert len(store.events_of_type(("B", 1))) == 1
        assert len(store.facts_of_type(("B", 1))) == 1
        assert store.events_of_type(("A", 1))[0].is_user
        assert store.facts_of_type(("A", 1)) == []

    def test_self_loop_terminates(self):
        theory = parse_theory(
            "persist A(?x) exp 0.0\nproject ALWAYS, A(?x) => A(?x) @ 0.9\n"
        )
        grid = TimeGrid(0.0, 1.0, 30)
        store = TokenStore()
        add_basic_event(store, Pattern("A", ("X",)), 0.0, 2.0, 1.0, grid)
        project(theory, store, grid)
        # deriving A(X) from A(X) is pure self-support, so the guard blocks
        # the loop before it produces anything
        assert len(store.events_of_type(("A", 1))) == 1
        assert store.facts_of_type(("A", 1)) == []

    def test_distinct_entities_chain_independently(self):
        theory = parse_theory(
            "persist NEXT(?x) exp 0.0\n"
            "project ALWAYS, HOP(?x) => NEXT(?x) @ 1.0\n"
        )
        grid = TimeGrid(0.0, 1.0, 30)
        store = _store_with(
            grid, ("HOP", ("N1",), 0.0, 1.0, 1.0), ("HOP", ("N2",), 2.0, 3.0, 1.0)
        )
        project(theory, store, grid)
        assert len(store.facts_of_type(("NEXT", 1))) == 2

    def test_trigger_beyond_horizon_ignored(self):
        theory = parse_theory("project ALWAYS, E(?x) => F(?x) @ 1.0\n"
                              "persist F(?x) exp 0.0\n")
        grid = TimeGrid(0.0, 1.0, 10)
        store = TokenStore()
        # hand-built event outside the horizon (add_basic_event would refuse)
        store.add_event(Pattern("E", ("X",)), 50.0, 55.0, 1.0, UserSupplied())
        project(theory, store, grid)
        assert store.events_of_type(("F", 1)) == []

    def test_returns_store(self, dock_rules_text):
        theory = parse_theory(dock_rules_text)
        grid = TimeGrid(0.0, 1.0, 60)
        store = _store_with(grid, ("ARRIVE", ("TRUCK14",), 0.0, 10.0, 1.0))
        assert project(theory, store, grid) is store

    def test_deep_chain_stays_linear(self):
        # ten rule layers: A1 -> A2 -> ... -> A10, one token per layer
        lines = ["persist A1(?x) exp 0.0"]
        for i in range(1, 10):
            lines.append(f"persist A{i + 1}(?x) exp 0.0")
            lines.append(f"project ALWAYS, A{i}(?x) => A{i + 1}(?x) @ 1.0")
        theory = parse_theory("\n".join(lines) + "\n")
        grid = TimeGrid(0.0, 1.0, 30)
        store = TokenStore()
        add_basic_event(store, Pattern("A1", ("X",)), 0.0, 1.0, 1.0, grid)
        project(theory, store, grid)
        for i in range(2, 11):
            assert len(store.facts_of_type((f"A{i}", 1))) == 1
        # 1 user + 9 onsets; 9 derived facts + ALWAYS
        assert len(store.events) == 10
        assert len(store.facts) == 10

    def test_infinite_est_never_created(self, dock_rules_text):
        theory = parse_theory(dock_rules_text)
        grid = TimeGrid(0.0, 1.0, 60)
        store = _store_with(grid, ("ARRIVE", ("TRUCK14",), 0.0, 10.0, 1.0))
        project(theory, store, grid)
        for e in store.events:
            assert math.isfinite(e.est) and math.isfinite(e.lst)


def _doubling_theory(depth: int):
    """Two rules per level, each deriving ``L{k+1}`` from every ``L{k}``
    token, so each level holds twice the derivations of the one below."""
    lines = []
    for k in range(1, depth + 1):
        lines += [
            f"persist L{k + 1}(?x) exp 0.1",
            f"project L{k}(?x) => L{k + 1}(?x) @ 0.5",
            f"project L{k}(?x) => L{k + 1}(?x) @ 0.25",
        ]
    return parse_theory("\n".join(lines) + "\n")


class TestTokenGrowth:
    """The token count can be exponential in the depth of a rule chain:
    every derivation is its own token, and the self-support guard cuts only
    a ground type that repeats along one chain."""

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_token_count_doubles_per_level(self, depth):
        theory = _doubling_theory(depth)
        grid = TimeGrid(0.0, 1.0, 20)
        store = _store_with(grid, ("L1", ("X",), 1.0, 3.0, 1.0))
        start = time.perf_counter()
        project(theory, store, grid)
        elapsed = time.perf_counter() - start
        # The user event, then 2**k onsets and 2**k facts at each level k + 1.
        assert len(store) == 2 ** (depth + 2) - 3
        assert elapsed < 2.0, f"depth {depth}: {elapsed:.2f} s"


def _oracle_matches(store, patterns, index, binding, trigger_lst, chosen):
    """The nested-loop antecedent join: every fact of the type is a candidate."""
    if index == len(patterns):
        yield tuple(chosen), binding
        return
    pattern = patterns[index].substitute(binding)
    if pattern.name == "ALWAYS" and not pattern.args:
        candidates = [store.ensure_always()]
    else:
        candidates = store.facts_of_type(pattern.key)
    for fact in candidates:
        if fact.est > trigger_lst:
            continue
        extended = unify(pattern, fact.fact_type, binding)
        if extended is None:
            continue
        chosen.append(fact.tid)
        yield from _oracle_matches(store, patterns, index + 1, extended, trigger_lst, chosen)
        chosen.pop()


def _oracle_ancestry(store, tid, found):
    """Every ground type that token ``tid``'s derivation passes through, its
    own included, by walking the derivations back to the tokens no rule
    made; ``found`` keeps each token's set once walked."""
    if tid not in found:
        token = list(store)[tid]
        pattern = token.event_type if isinstance(token, EventToken) else token.fact_type
        ancestry = {(pattern.name, pattern.args)}
        if isinstance(token.derivation, RuleDerived):
            for parent in (token.derivation.trigger, *token.derivation.antecedents):
                ancestry |= _oracle_ancestry(store, parent, found)
        found[tid] = ancestry
    return found[tid]


def _oracle_project(theory, store, grid):
    """Reference projector: fixpoint rounds over a nested-loop join, with the
    self-support guard run for every rule over each candidate's whole
    ancestry."""
    found = {}
    if any(
        p.name == "ALWAYS" and not p.args
        for rule in theory.projection_rules
        for p in rule.antecedents
    ):
        store.ensure_always()
    created = True
    while created:
        created = False
        for rule_index, rule in enumerate(theory.projection_rules):
            for trigger in list(store.events_of_type(rule.trigger.key)):
                if grid.time_to_cell(trigger.est) > grid.omega:
                    continue
                binding = unify(rule.trigger, trigger.event_type)
                if binding is None:
                    continue
                matches = list(
                    _oracle_matches(store, rule.antecedents, 0, binding, trigger.lst, [])
                )
                for antecedent_ids, full_binding in matches:
                    key = (rule_index, trigger.tid, antecedent_ids)
                    if key in store.derivation_keys:
                        continue
                    store.derivation_keys.add(key)
                    consequent = rule.consequent.substitute(full_binding)
                    ancestry = _oracle_ancestry(store, trigger.tid, found).union(
                        *(_oracle_ancestry(store, a, found) for a in antecedent_ids)
                    )
                    if (consequent.name, consequent.args) in ancestry:
                        continue
                    derivation = RuleDerived(rule_index, trigger.tid, antecedent_ids)
                    onset = store.add_event(
                        consequent, est=trigger.est, lst=trigger.lst,
                        kappa=rule.kappa, derivation=derivation,
                    )
                    store.add_fact(
                        consequent, initiating_event=onset.tid,
                        persistence=theory.persistence_for(consequent),
                        est=trigger.est, derivation=derivation,
                    )
                    created = True
    return store


# One name with two arities: type keys, not names, must keep facts apart, and
# rules deriving A/1 from A/2 and back are mutually recursive.  B/1 lets a
# rule's antecedent type grow while its trigger type does not.
_TYPES = [("A", 1), ("A", 2), ("B", 1)]
_CONSTANTS = ["X", "Y"]
_VARIABLES = ["?x", "?y", "?z"]


@st.composite
def _patterns(draw, terms):
    name, arity = draw(st.sampled_from(_TYPES))
    return Pattern(name, tuple(draw(st.sampled_from(terms)) for _ in range(arity)))


@st.composite
def _rules(draw):
    """A rule with 0-3 antecedents (ALWAYS among them at times), constants and
    repeated variables; the consequent uses only variables bound before it."""
    antecedents = tuple(
        draw(st.one_of(st.just(Pattern("ALWAYS")), _patterns(_VARIABLES + _CONSTANTS)))
        for _ in range(draw(st.integers(0, 3)))
    )
    trigger = draw(_patterns(_VARIABLES + _CONSTANTS))
    bound = sorted(trigger.variables().union(*(p.variables() for p in antecedents)))
    consequent = draw(_patterns(bound + _CONSTANTS))
    return ProjectionRule(antecedents, trigger, consequent, 0.5)


@st.composite
def _windows(draw):
    """A ground type and window; some start past the 20-cell horizon, and
    some facts start after the window of a trigger that needs them."""
    ground = draw(_patterns(_CONSTANTS))
    est = draw(st.integers(0, 24))
    return ground, float(est), float(est + draw(st.integers(0, 6)))


def _token_rows(store):
    """``(tid, kind, type, est, lst, kappa, derivation)`` in tid order; a fact
    carries its initiating event and survivor in the ``lst`` and ``kappa``
    places."""
    rows = [(e.tid, "event", str(e.event_type), e.est, e.lst, e.kappa, e.derivation)
            for e in store.events]
    rows += [(f.tid, "fact", str(f.fact_type), f.est, f.initiating_event, f.persistence,
              f.derivation) for f in store.facts]
    return sorted(rows, key=lambda row: row[0])


class _TooLarge(Exception):
    pass


class _BoundedStore(TokenStore):
    """A store that refuses to grow past ``LIMIT`` tokens.  Some random
    theories derive combinatorially many tokens before the self-support
    guard stops them; both projectors must then stop at the same token."""

    LIMIT = 200

    def add_event(self, *args, **kwargs):
        if len(self) >= self.LIMIT:
            raise _TooLarge
        return super().add_event(*args, **kwargs)


def _projected_by_both(theory, events, facts):
    """Stores holding ``events`` and ``facts`` (each fact with its own
    initiating event), projected by ``project`` and by the oracle."""
    grid = TimeGrid(0.0, 1.0, 20)
    stores = [_BoundedStore(), _BoundedStore()]
    for store in stores:
        for event_type, est, lst in events:
            store.add_event(event_type, est, lst, 1.0, UserSupplied())
        for fact_type, est, lst in facts:
            onset = store.add_event(fact_type, est, lst, 1.0, UserSupplied())
            store.add_fact(fact_type, onset.tid, Exponential(0.1), est, UserSupplied())
    stopped = []
    for store, projector in zip(stores, (project, _oracle_project)):
        try:
            projector(theory, store, grid)
        except _TooLarge:
            stopped.append(len(store))
        else:
            stopped.append(None)
    assert stopped[0] == stopped[1]
    return stores


class TestIndexedJoinMatchesNestedLoop:
    PERSIST = [PersistenceRule(Pattern("A", ("?p",)), Exponential(0.1)),
               PersistenceRule(Pattern("A", ("?p", "?q")), Exponential(0.1)),
               PersistenceRule(Pattern("B", ("?p",)), Exponential(0.1))]

    # At least two rules and 200 examples, so that most runs meet a later
    # rule feeding an earlier rule's antecedent type.
    @settings(max_examples=200)
    @given(
        st.lists(_rules(), min_size=2, max_size=3),
        st.lists(_windows(), max_size=5),
        st.lists(_windows(), max_size=8),
    )
    def test_same_tokens_in_same_order(self, rules, events, facts):
        indexed, oracle = _projected_by_both(CausalTheory(rules, self.PERSIST), events, facts)
        assert _token_rows(indexed) == _token_rows(oracle)
        assert indexed.derivation_keys == oracle.derivation_keys

    def test_bound_antecedent_with_several_facts_keeps_their_order(self):
        # Two A(X,?) facts agree on the bound first argument; the join must
        # meet them, and so create the consequents, in creation order.
        rules = [ProjectionRule((Pattern("A", ("?x", "?y")),), Pattern("A", ("?x",)),
                                Pattern("A", ("?y",)), 0.5)]
        windows = [(Pattern("A", ("X", "Y")), 0.0, 1.0), (Pattern("A", ("Y", "X")), 0.0, 1.0),
                   (Pattern("A", ("X", "Z")), 0.0, 1.0)]
        indexed, oracle = _projected_by_both(
            CausalTheory(rules, self.PERSIST), [(Pattern("A", ("X",)), 2.0, 3.0)], windows
        )
        derived = [str(f.fact_type) for f in indexed.facts if isinstance(f.derivation, RuleDerived)]
        assert derived == ["A(Y)", "A(Z)"]
        assert _token_rows(indexed) == _token_rows(oracle)

    def test_chain_back_through_an_antecedent_is_cut(self):
        # A(X,X) is derived with the fact A(X) as antecedent, so deriving
        # A(X) again from A(X,X) would make A(X) its own precondition.
        rules = [ProjectionRule((Pattern("A", ("?x",)),), Pattern("B", ("?x",)),
                                Pattern("A", ("?x", "?x")), 0.5),
                 ProjectionRule((), Pattern("A", ("?x", "?y")), Pattern("A", ("?x",)), 0.5)]
        indexed, oracle = _projected_by_both(
            CausalTheory(rules, self.PERSIST), [(Pattern("B", ("X",)), 2.0, 3.0)],
            [(Pattern("A", ("X",)), 0.0, 1.0)],
        )
        derived = [str(f.fact_type) for f in indexed.facts if isinstance(f.derivation, RuleDerived)]
        assert derived == ["A(X,X)"]
        assert _token_rows(indexed) == _token_rows(oracle)


JOIN_THEORY = """\
persist ATDOCK(?t) exp 0.0034195529591700387
persist LOADED(?t) lin 0.004
project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0
project ATDOCK(?t), LOAD(?t) => LOADED(?t) @ 0.9
"""


def _join_store(count):
    """A store of ``count`` dock arrivals and loads, and its grid."""
    rng = random.Random(count)
    grid = TimeGrid(0.0, 20.0, 50)
    store = TokenStore()
    for k in range(count):
        a = rng.uniform(0.0, 800.0)
        b = a + rng.uniform(5.0, 30.0)
        add_basic_event(store, Pattern("ARRIVE", (f"T{k}",)), a, a + 40.0, 1.0, grid)
        add_basic_event(store, Pattern("LOAD", (f"T{k}",)), b, b + 40.0, 0.8, grid)
    return store, grid


def _join_unify_calls(monkeypatch, store, grid):
    """``unify`` calls made projecting the join theory over ``store``."""
    calls = 0

    def counting_unify(*args):
        nonlocal calls
        calls += 1
        return unify(*args)

    monkeypatch.setattr(tempro.projection, "unify", counting_unify)
    project(parse_theory(JOIN_THEORY), store, grid)
    return calls


def test_join_work_grows_linearly_with_entities(monkeypatch):
    # Each LOAD(Tk) can only join ATDOCK(Tk); a scan of every ATDOCK fact
    # would make the count grow about fourfold when the entities double.
    counts = {}
    for count in (100, 200):
        store, grid = _join_store(count)
        counts[count] = _join_unify_calls(monkeypatch, store, grid)
        assert len(store.facts_of_type(("LOADED", 1))) == count
    assert counts[200] <= 2.2 * counts[100]


def test_fresh_project_enumerates_once(monkeypatch):
    # A rule passes again only after its trigger or antecedent types gain a
    # token.  No join rule feeds its own inputs or an earlier rule's, so a
    # fresh project passes each rule once, as re-projecting its result does.
    store, grid = _join_store(100)
    fresh = _join_unify_calls(monkeypatch, store, grid)
    tokens = len(store)
    again = _join_unify_calls(monkeypatch, store, grid)
    assert len(store) == tokens
    assert fresh == again


def _rule_theory(*rules):
    """A theory of ``(antecedents, trigger, consequent)`` rules, each a
    pattern text or, for the antecedents, a tuple of them."""
    return CausalTheory([
        ProjectionRule(tuple(map(parse_pattern_text, ants)), parse_pattern_text(trigger),
                       parse_pattern_text(consequent), 1.0)
        for ants, trigger, consequent in rules
    ])


class TestCycleTypes:
    def test_self_loop(self):
        theory = _rule_theory(((), "A(?x)", "A(?x)"), (("ALWAYS",), "E(?x)", "B(?x)"))
        assert _cycle_types(theory) == {("A", 1)}

    def test_cycle_through_triggers_only(self):
        theory = _rule_theory(((), "A(?x)", "B(?x)"), ((), "B(?x)", "C(?x)"),
                              ((), "C(?x)", "A(?x)"), ((), "C(?x)", "D(?x)"))
        assert _cycle_types(theory) == {("A", 1), ("B", 1), ("C", 1)}

    def test_cycle_through_antecedents_only(self):
        theory = _rule_theory((("A(?x)",), "EB(?x)", "B(?x)"), (("B(?x)",), "EA(?x)", "A(?x)"))
        assert _cycle_types(theory) == {("A", 1), ("B", 1)}

    def test_acyclic_chain(self):
        theory = _rule_theory(((), "E(?x)", "A(?x)"), (("A(?x)",), "F(?x)", "B(?x)"),
                              (("A(?x)", "B(?x)"), "B(?x)", "C(?x)"))
        assert _cycle_types(theory) == set()

    def test_arity_is_part_of_the_type(self):
        theory = _rule_theory(((), "A(?x)", "A(?x,?x)"), ((), "A(?x,?y)", "B(?x)"))
        assert _cycle_types(theory) == set()

    def test_always_lies_on_no_cycle(self):
        # ALWAYS is an antecedent of every rule here, yet no rule derives it.
        theory = parse_theory(
            "project ALWAYS, A(?x) => B(?x) @ 1.0\nproject ALWAYS, B(?x) => A(?x) @ 1.0\n"
            "project ALWAYS, E(?x) => F(?x) @ 1.0\n"
        )
        assert _cycle_types(theory) == {("A", 1), ("B", 1)}


def test_acyclic_theory_builds_no_ancestry_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("an ancestry set was built")

    monkeypatch.setattr(tempro.projection, "_ancestry", refuse)
    monkeypatch.setattr(tempro.projection, "_cycle_ancestries", refuse)
    store, grid = _join_store(100)
    project(parse_theory(JOIN_THEORY), store, grid)
    assert len(store.facts_of_type(("LOADED", 1))) == 100


CHAIN_THEORY = """\
persist A(?x) exp 0.1
persist B(?x) exp 0.1
project ALWAYS, E0(?x) => A(?x) @ 1.0
project A(?x), EB(?x) => B(?x) @ 1.0
project B(?x), EA(?x) => A(?x) @ 1.0
"""


def test_reprojection_after_a_new_event_still_cuts_the_chain():
    # A(X) from E0, then B(X) from A(X).  EA arrives only after the first
    # projection; deriving A(X) from B(X) would make A(X) its own
    # precondition, so the second projection adds nothing.
    theory = parse_theory(CHAIN_THEORY)
    grid = TimeGrid(0.0, 1.0, 30)
    store = _store_with(grid, ("E0", ("X",), 0.0, 1.0, 1.0), ("EB", ("X",), 2.0, 3.0, 1.0))
    project(theory, store, grid)
    assert [str(f.fact_type) for f in store.facts[1:]] == ["A(X)", "B(X)"]
    add_basic_event(store, Pattern("EA", ("X",)), 4.0, 5.0, 1.0, grid)
    tokens = len(store)
    project(theory, store, grid)
    assert len(store) == tokens
    once = _store_with(
        grid, ("E0", ("X",), 0.0, 1.0, 1.0), ("EB", ("X",), 2.0, 3.0, 1.0),
        ("EA", ("X",), 4.0, 5.0, 1.0),
    )
    _oracle_project(theory, once, grid)
    assert [str(f.fact_type) for f in once.facts[1:]] == ["A(X)", "B(X)"]


def test_live_memory_per_token_after_project_and_refine():
    # Each of the 6001 tokens holds its type, derivation and curve span, and
    # no ancestry set: about 575 B a token, against 880 B with a frozenset
    # of the whole derivation ancestry on every token, and 610 B with a
    # derivation marker per user event and an index key per fact argument.
    theory = parse_theory(JOIN_THEORY)
    tracemalloc.start()
    try:
        store, grid = _join_store(1000)
        project(theory, store, grid)
        refine(store, theory, grid)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(store) == 6001
    assert live / len(store) < 600, live / len(store)
