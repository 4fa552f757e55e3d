"""Deterministic causal projection: rule application without probabilities.

Projection scans the token store forward with the theory's projection rules
and materializes every derivable token.  For each rule and each combination
of a trigger event token (unifying with the rule's event pattern) and one
fact token per antecedent pattern (each established no later than the
trigger's latest start), it creates

* an event token for the consequent *becoming true*, carrying the rule's
  ``kappa`` and the trigger's window, and
* a fact token for the consequent itself, starting at the trigger's earliest
  start and decaying per the theory's persistence rule for that fact.

The consequent's onset event is named like the consequent fact, so rules may
chain by naming a derived fact in trigger position.  All numbers are filled
in later by the refinement sweep; projection only decides *which* tokens
exist.

Antecedents are joined left to right, each under the binding the trigger and
the antecedents before it made.  The candidates for an antecedent come from
the store's argument index: of the lists of facts holding each of its bound
argument values, the shortest.  Only an antecedent with no bound argument
scans every fact of its type.  Every candidate is still checked with
``unify`` and against the trigger's latest start.  An index list keeps the
facts of its type that agree on one argument, in creation order, so the
projector meets the same combinations in the same order as a scan of the
whole type would, and every token id stays the same.

Projection runs in rounds until one creates no token.  A rule passes again
only when a token of its trigger type or of an antecedent type has been
added since its last pass began, so a rule that feeds itself or an earlier
rule runs again and any other is skipped.  Tokens are only ever added, so a
skipped pass would meet only instantiations already in ``derivation_keys``
or already cut as self-supporting.  A pass that does run still enumerates
every instantiation of its rule, and ``derivation_keys`` skips those already
made.

Termination and idempotence:

* no token is created whose start would lie beyond the grid horizon;
* each distinct (rule, trigger token, antecedent tokens) instantiation is
  materialized exactly once, so projecting an already-projected store is a
  no-op;
* a candidate whose ground type already occurs in its own derivation
  ancestry is skipped: such a chain would make the fact a precondition of
  itself, which carries no new information and (when open in the same cells)
  is exactly what the refinement sweep must reject as cyclic.  The test is
  membership in the trigger's and each antecedent's ancestry, not a union.

The ancestry of a token is its own ground type and, for a rule-derived
token, the ancestry of its trigger and of each antecedent.  Every type in a
token's ancestry reaches the token's type along the rule arcs, which run
from each rule's trigger and antecedent types to its consequent type.  So a
consequent found in the ancestry of a rule's trigger or antecedent closes a
cycle of arcs through the consequent's type, and the guard runs only for a
rule whose consequent type lies on such a cycle, and reads only the ground
types of cycle types.  Those sets are built for each ``project`` call, in
one forward pass in tid order over the derivations the store keeps, and
then for each token the call adds; a theory with no cycle builds none.
"""
from __future__ import annotations

from collections.abc import Iterator

from .core import TimeGrid
from .theory import ALWAYS, CausalTheory, GroundKey, Pattern, TypeKey, unify
from .tokens import Derivation, FactToken, RuleDerived, TokenStore

_EMPTY: frozenset[GroundKey] = frozenset()


def _antecedent_matches(
    store: TokenStore,
    patterns: tuple[Pattern, ...],
    index: int,
    binding: dict[str, str],
    trigger_lst: float,
    chosen: list[int],
) -> Iterator[tuple[tuple[int, ...], dict[str, str]]]:
    """All ways to pick one qualifying fact token per antecedent pattern."""
    if index == len(patterns):
        yield tuple(chosen), binding
        return
    pattern = patterns[index].substitute(binding)
    for fact in store.fact_candidates(pattern):
        if fact.est > trigger_lst:  # not yet established when the trigger can fire
            continue
        extended = unify(pattern, fact.fact_type, binding)
        if extended is None:
            continue
        chosen.append(fact.tid)
        yield from _antecedent_matches(store, patterns, index + 1, extended, trigger_lst, chosen)
        chosen.pop()


def _cycle_types(theory: CausalTheory) -> set[TypeKey]:
    """The types that lie on a cycle of rule arcs, each arc running from a
    rule's trigger type and from each of its antecedent types to its
    consequent type."""
    arcs: dict[TypeKey, set[TypeKey]] = {}
    for rule in theory.projection_rules:
        for pattern in (rule.trigger, *rule.antecedents):
            arcs.setdefault(pattern.key, set()).add(rule.consequent.key)
    cyclic = set()
    for start, heads in arcs.items():
        seen: set[TypeKey] = set()
        stack = list(heads)
        while stack:
            key = stack.pop()
            if key == start:
                cyclic.add(start)
                break
            if key not in seen:
                seen.add(key)
                stack.extend(arcs.get(key, ()))
    return cyclic


def _ancestry(
    pattern: Pattern,
    derivation: Derivation,
    chains: list[frozenset[GroundKey]],
    cyclic: set[TypeKey],
) -> frozenset[GroundKey]:
    """The ground types of ``cyclic`` types in the ancestry of a token of
    type ``pattern`` made by ``derivation``, read from ``chains``, the sets
    of the tokens before it."""
    own = frozenset({(pattern.name, pattern.args)}) if pattern.key in cyclic else _EMPTY
    if not isinstance(derivation, RuleDerived):
        return own
    return own.union(chains[derivation.trigger], *(chains[a] for a in derivation.antecedents))


def _cycle_ancestries(store: TokenStore, cyclic: set[TypeKey]) -> list[frozenset[GroundKey]]:
    """The :func:`_ancestry` set of every token in ``store``, by tid, from
    one forward pass; a rule-derived fact shares its onset's set."""
    chains: list[frozenset[GroundKey]] = []
    for token in store:
        if isinstance(token, FactToken):
            if isinstance(token.derivation, RuleDerived):
                chains.append(chains[token.initiating_event])
            else:
                chains.append(_ancestry(token.fact_type, token.derivation, chains, cyclic))
        else:
            chains.append(_ancestry(token.event_type, token.derivation, chains, cyclic))
    return chains


def project(theory: CausalTheory, store: TokenStore, grid: TimeGrid) -> TokenStore:
    """Apply every projection rule to fixpoint, mutating and returning ``store``."""
    if any(ALWAYS in rule.antecedents for rule in theory.projection_rules):
        store.ensure_always()

    # The token counts of each rule's trigger and antecedent types when its
    # last pass began; while they stand, the rule is skipped.
    began: list[list[int] | None] = [None] * len(theory.projection_rules)
    derivation_keys = store.derivation_keys
    cyclic = _cycle_types(theory)
    chains = _cycle_ancestries(store, cyclic) if cyclic else None
    created = True
    while created:
        created = False
        for rule_index, rule in enumerate(theory.projection_rules):
            counts = [store.count_of_type(p.key) for p in (rule.trigger, *rule.antecedents)]
            if counts == began[rule_index]:
                continue
            began[rule_index] = counts
            guarded = rule.consequent.key in cyclic
            triggers = store.events_of_type(rule.trigger.key)
            for trigger in triggers:
                if grid.time_to_cell(trigger.est) > grid.omega:
                    continue  # would start beyond the horizon
                binding = unify(rule.trigger, trigger.event_type)
                if binding is None:
                    continue
                matches = list(
                    _antecedent_matches(
                        store, rule.antecedents, 0, binding, trigger.lst, []
                    )
                )
                for antecedent_ids, full_binding in matches:
                    key = (rule_index, trigger.tid, antecedent_ids)
                    if key in derivation_keys:
                        continue
                    derivation_keys.add(key)
                    # Rule safety binds every consequent variable, and
                    # add_event rejects the type if it is not ground.
                    consequent = rule.consequent.substitute(full_binding)
                    if guarded:
                        ground = (consequent.name, consequent.args)
                        if ground in chains[trigger.tid] or any(
                            ground in chains[a] for a in antecedent_ids
                        ):
                            continue  # self-supporting chain; adds nothing
                    derivation = RuleDerived(rule_index, trigger.tid, antecedent_ids)
                    onset = store.add_event(
                        consequent,
                        est=trigger.est,
                        lst=trigger.lst,
                        kappa=rule.kappa,
                        derivation=derivation,
                    )
                    store.add_fact(
                        consequent,
                        initiating_event=onset.tid,
                        persistence=theory.persistence_for(consequent),
                        est=trigger.est,
                        derivation=derivation,
                    )
                    if chains is not None:  # the onset's set, shared by its fact
                        chains.append(_ancestry(consequent, derivation, chains, cyclic))
                        chains.append(chains[-1])
                    created = True
    return store
