"""Patterns, unification, the rule language, and the type dependency graph."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempro import (
    ALWAYS,
    CausalTheory,
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

# ---------------------------------------------------------------------------
# strategies

_names = st.sampled_from(["ATDOCK", "ARRIVE", "LOADED", "EMPTY", "P", "Q", "R_2"])
_constants = st.sampled_from(["TRUCK14", "DOCK3", "A", "B9", "X_Y"])
_variables = st.sampled_from(["?t", "?dock", "?x", "?y"])


def patterns(max_arity: int = 3):
    return st.builds(
        Pattern,
        name=_names,
        args=st.lists(st.one_of(_constants, _variables), max_size=max_arity).map(tuple),
    )


def ground_patterns(max_arity: int = 3):
    return st.builds(
        Pattern,
        name=_names,
        args=st.lists(_constants, max_size=max_arity).map(tuple),
    )


def survivors():
    return st.one_of(
        st.builds(Exponential, rate=st.floats(0, 5, allow_nan=False)),
        st.builds(Linear, slope=st.floats(0, 5, allow_nan=False)),
    )


@st.composite
def theories(draw):
    n_persist = draw(st.integers(0, 3))
    persists = []
    seen_subjects = set()
    for _ in range(n_persist):
        subj = draw(patterns(2))
        canon = (subj.name, len(subj.args), tuple(a.startswith("?") for a in subj.args))
        if canon in seen_subjects or subj.name == "ALWAYS":
            continue
        seen_subjects.add(canon)
        persists.append(PersistenceRule(subj, draw(survivors())))
    n_rules = draw(st.integers(1, 4))
    rules = []
    for _ in range(n_rules):
        trigger = draw(patterns(2))
        antecedents = tuple(draw(st.lists(patterns(2), max_size=2)))
        allowed = set().union(
            trigger.variables(), *(a.variables() for a in antecedents)
        )
        consequent = draw(patterns(2))
        if not consequent.variables() <= allowed:
            consequent = Pattern(consequent.name, ())
        rules.append(
            ProjectionRule(
                antecedents, trigger, consequent, draw(st.floats(0, 1, allow_nan=False))
            )
        )
    return CausalTheory(tuple(rules), tuple(persists))


# ---------------------------------------------------------------------------
# Pattern / unify


class TestPattern:
    def test_str_forms(self):
        assert str(Pattern("ALWAYS")) == "ALWAYS"
        assert str(Pattern("ATDOCK", ("?t",))) == "ATDOCK(?t)"
        assert str(Pattern("NEAR", ("TRUCK14", "?d"))) == "NEAR(TRUCK14,?d)"

    def test_groundness(self):
        assert Pattern("ATDOCK", ("TRUCK14",)).is_ground
        assert not Pattern("ATDOCK", ("?t",)).is_ground
        assert Pattern("ALWAYS").is_ground

    def test_substitute(self):
        p = Pattern("NEAR", ("?a", "?b", "?a"))
        q = p.substitute({"?a": "X", "?b": "Y"})
        assert q == Pattern("NEAR", ("X", "Y", "X"))
        # unmapped variables stay in place
        r = p.substitute({"?a": "X"})
        assert r == Pattern("NEAR", ("X", "?b", "X"))

    def test_unify_binds_variables(self):
        b = unify(Pattern("NEAR", ("?a", "?b")), Pattern("NEAR", ("X", "Y")))
        assert b == {"?a": "X", "?b": "Y"}

    def test_unify_repeated_variable_must_agree(self):
        assert unify(Pattern("P", ("?a", "?a")), Pattern("P", ("X", "X"))) == {"?a": "X"}
        assert unify(Pattern("P", ("?a", "?a")), Pattern("P", ("X", "Y"))) is None

    def test_unify_mismatches(self):
        assert unify(Pattern("P", ("?a",)), Pattern("Q", ("X",))) is None
        assert unify(Pattern("P", ("?a",)), Pattern("P", ("X", "Y"))) is None
        assert unify(Pattern("P", ("C",)), Pattern("P", ("X",))) is None

    def test_unify_respects_existing_binding(self):
        assert unify(Pattern("P", ("?a",)), Pattern("P", ("X",)), {"?a": "Y"}) is None
        assert unify(Pattern("P", ("?a",)), Pattern("P", ("X",)), {"?b": "Y"}) == {
            "?a": "X",
            "?b": "Y",
        }

    @given(patterns(), ground_patterns())
    def test_unify_result_substitutes_back(self, p, g):
        b = unify(p, g)
        if b is not None:
            assert p.substitute(b) == g


# ---------------------------------------------------------------------------
# parsing


class TestParseTheory:
    def test_persistence_statement(self):
        th = parse_theory("persist ATDOCK(?t) exp 0.00342\n")
        (rule,) = th.persistence_rules
        assert rule.subject == Pattern("ATDOCK", ("?t",))
        assert rule.survivor == Exponential(0.00342)

    def test_linear_persistence_statement(self):
        th = parse_theory("persist CHARGED(?b) lin 0.125\n")
        (rule,) = th.persistence_rules
        assert rule.survivor == Linear(0.125)

    def test_projection_statement(self):
        th = parse_theory("project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0\n")
        (rule,) = th.projection_rules
        assert rule.antecedents == (ALWAYS,)
        assert rule.trigger == Pattern("ARRIVE", ("?t",))
        assert rule.consequent == Pattern("ATDOCK", ("?t",))
        assert rule.kappa == 1.0

    def test_multiple_antecedents_commas_optional(self):
        a = parse_theory("project P(?x), Q(?x), E(?x) => R(?x) @ 0.5\n")
        b = parse_theory("project P(?x) Q(?x) E(?x) => R(?x) @ 0.5\n")
        assert a.projection_rules == b.projection_rules
        assert a.projection_rules[0].antecedents == (
            Pattern("P", ("?x",)),
            Pattern("Q", ("?x",)),
        )

    def test_trigger_only_rule(self):
        th = parse_theory("project E(?x) => R(?x) @ 0.25\n")
        (rule,) = th.projection_rules
        assert rule.antecedents == ()
        assert rule.trigger == Pattern("E", ("?x",))

    def test_unsafe_consequent_variable_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_theory("project P(?x) E(?x) => R(?y) @ 0.5\n")
        assert "?y" in str(exc.value)
        assert exc.value.line == 1

    def test_comments_and_blank_lines_skipped(self):
        th = parse_theory(
            "# a comment\n\npersist P(?x) exp 0.1  # trailing comment\n\n"
            "project E(?x) => P(?x) @ 1.0\n"
        )
        assert len(th.persistence_rules) == 1
        assert len(th.projection_rules) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "persist P(?x) exp -0.5\n",
            "persist P(?x) lin -1\n",
            "persist P(?x) gamma 0.5\n",
            "project E(?x) => P(?x) @ 1.5\n",
            "project E(?x) => P(?x) @ -0.1\n",
            "project E(?x) => P(?x)\n",
            "project => P(?x) @ 1.0\n",
            "persist P(?x\n",
            "frobnicate P(?x)\n",
            "persist p(?x) exp 0.1\n",  # lowercase type name
            "persist P(lower) exp 0.1\n",  # lowercase constant
        ],
    )
    def test_malformed_statements_rejected(self, text):
        with pytest.raises(ParseError):
            parse_theory(text)

    def test_error_reports_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_theory("persist P(?x) exp 0.1\npersist Q(?x) exp bad\n")
        assert exc.value.line == 2
        assert exc.value.col >= 1
        assert "line 2" in str(exc.value)

    def test_duplicate_persistence_subject_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("persist P(?x) exp 0.1\npersist P(?y) lin 0.2\n")

    def test_kappa_accepts_integer_literal(self):
        th = parse_theory("project E(?x) => P(?x) @ 1\n")
        assert th.projection_rules[0].kappa == 1.0

    def test_infinite_decay_parameter(self):
        th = parse_theory("persist P(?x) exp inf\n")
        assert th.persistence_rules[0].survivor == Exponential(float("inf"))

    def test_parse_pattern_text(self):
        assert parse_pattern_text("ATDOCK(TRUCK14)") == Pattern("ATDOCK", ("TRUCK14",))
        with pytest.raises(ParseError):
            parse_pattern_text("ATDOCK(TRUCK14) extra")


class TestPrettyRoundTrip:
    def test_dock_theory(self, dock_rules_text):
        th = parse_theory(dock_rules_text)
        again = parse_theory(th.pretty())
        assert again == th

    @given(theories())
    def test_generated_theories(self, th):
        assert parse_theory(th.pretty()) == th


# ---------------------------------------------------------------------------
# persistence lookup


class TestPersistenceFor:
    def test_first_match_wins(self):
        th = parse_theory(
            "persist P(TRUCK14) exp 0.5\npersist P(?x) exp 0.1\n"
            "project E(?x) => P(?x) @ 1.0\n"
        )
        assert th.persistence_for(Pattern("P", ("TRUCK14",))) == Exponential(0.5)
        assert th.persistence_for(Pattern("P", ("OTHER",))) == Exponential(0.1)

    def test_missing_rule_defaults_to_no_decay_with_warning(self):
        th = parse_theory("project E(?x) => P(?x) @ 1.0\n")
        with pytest.warns(UserWarning):
            surv = th.persistence_for(Pattern("P", ("X",)))
        assert surv == Exponential(0.0)


# ---------------------------------------------------------------------------
# dependency graph


class TestDependencyGraph:
    def test_dock_theory(self, dock_rules_text):
        g = dependency_graph(parse_theory(dock_rules_text))
        assert ("ATDOCK", 1) in g.vertices
        assert (("ALWAYS", 0), ("ATDOCK", 1)) in g.arcs
        assert g.find_cycle(within=set(g.vertices)) is None

    def test_arcs_run_from_antecedent_to_consequent(self):
        th = parse_theory(
            "project A(?x), E1(?x) => B(?x) @ 1.0\nproject B(?x), E2(?x) => C(?x) @ 1.0\n"
        )
        g = dependency_graph(th)
        assert (("A", 1), ("B", 1)) in g.arcs
        assert (("B", 1), ("C", 1)) in g.arcs
        assert (("A", 1), ("C", 1)) not in g.arcs
        # triggers are events, not antecedent facts: no arc from E1
        assert all(src[0] != "E1" for src, _ in g.arcs)

    def test_cycle_detection(self):
        th = parse_theory(
            "project A(?x), E1(?x) => B(?x) @ 1.0\nproject B(?x), E2(?x) => A(?x) @ 1.0\n"
        )
        g = dependency_graph(th)
        cycle = g.find_cycle(within={("A", 1), ("B", 1)})
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert {("A", 1), ("B", 1)} <= set(cycle)

    def test_cycle_outside_subset_not_reported(self):
        th = parse_theory(
            "project A(?x), E1(?x) => B(?x) @ 1.0\nproject B(?x), E2(?x) => A(?x) @ 1.0\n"
        )
        g = dependency_graph(th)
        assert g.find_cycle(within={("A", 1)}) is None

    def test_self_loop(self):
        th = parse_theory("project A(?x), E(?x) => A(?x) @ 0.5\n")
        g = dependency_graph(th)
        cycle = g.find_cycle(within={("A", 1)})
        assert cycle == [("A", 1), ("A", 1)]

    @given(theories())
    def test_arcs_enumerate_antecedent_consequent_pairs(self, th):
        g = dependency_graph(th)
        expected = {
            (a.key, r.consequent.key)
            for r in th.projection_rules
            for a in r.antecedents
        }
        assert g.arcs == frozenset(expected)

    @given(theories())
    def test_reported_cycle_is_a_real_path(self, th):
        g = dependency_graph(th)
        cycle = g.find_cycle(within=set(g.vertices))
        if cycle is not None:
            assert cycle[0] == cycle[-1]
            assert len(cycle) >= 2
            for src, dst in zip(cycle, cycle[1:]):
                assert (src, dst) in g.arcs
