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
or already cut by ancestry.  A pass that does run still enumerates every
instantiation of its rule, and ``derivation_keys`` skips those already made.

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
"""
from __future__ import annotations

from collections.abc import Iterator

from .core import TimeGrid
from .theory import ALWAYS, CausalTheory, Pattern, unify
from .tokens import RuleDerived, TokenStore


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


def project(theory: CausalTheory, store: TokenStore, grid: TimeGrid) -> TokenStore:
    """Apply every projection rule to fixpoint, mutating and returning ``store``."""
    if any(ALWAYS in rule.antecedents for rule in theory.projection_rules):
        store.ensure_always()

    # The token counts of each rule's trigger and antecedent types when its
    # last pass began; while they stand, the rule is skipped.
    began: list[list[int] | None] = [None] * len(theory.projection_rules)
    derivation_keys = store.derivation_keys
    ancestry = store.ancestry
    created = True
    while created:
        created = False
        for rule_index, rule in enumerate(theory.projection_rules):
            counts = [store.count_of_type(p.key) for p in (rule.trigger, *rule.antecedents)]
            if counts == began[rule_index]:
                continue
            began[rule_index] = counts
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
                    ground = (consequent.name, consequent.args)
                    if ground in ancestry[trigger.tid] or any(
                        ground in ancestry[a] for a in antecedent_ids
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
                    created = True
    return store
