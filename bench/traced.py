"""Run one ``tempro`` command in-process with a span around each layer call.

The layer entry points that ``tempro.cli`` imports are wrapped in that
module's namespace, so no source file changes.  Spans (name, start, end,
parent id) are kept in memory and written to a JSON file when the command
ends, together with counts read off the objects the layers returned::

    PYTHONPATH=src python3 bench/traced.py SPANS.json project --theory ...

Counts are computed after the command returns, outside every span, so they
add nothing to the timed spans.
"""
from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name``; ``on_result(args, result)`` is
        called after the span closes."""
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced


def install(cli, tracer: Tracer) -> dict:
    """Wrap the layer entry points in ``cli``'s namespace; returns the dict
    that collects what the counts are computed from."""
    seen: dict = {"matched": 0}

    def keep(key):
        def store(args, result):
            seen[key] = (args, result)
        return store

    def count_match(pattern, ground, binding=None):
        result = unify(pattern, ground, binding)
        seen["matched"] += result is not None
        return result

    unify = cli.unify
    cli.unify = count_match
    for attr, name, on_result in [
        ("cmd_project", "cli.project", None),
        ("cmd_query", "cli.query", None),
        ("cmd_acquire", "cli.acquire", None),
        ("parse_theory", "theory.parse", keep("theory")),
        ("parse_basic_facts", "tokens.parse_facts", None),
        ("load_basic_facts", "tokens.load", keep("load")),
        ("project", "projection.project", None),
        ("refine", "refinement.refine", keep("refine")),
        ("_load_projection_csv", "cli.load_csv", keep("csv")),
        ("load_state", "acquisition.parse", None),
        ("parse_observations", "acquisition.parse", keep("observations")),
        ("save_state_file", "acquisition.save", None),
    ]:
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), on_result))
    return seen


def counts(seen: dict) -> dict:
    """Per-layer counts from the objects the layer calls saw and returned."""
    import numpy as np

    out: dict[str, float] = {}
    if "theory" in seen:
        theory = seen["theory"][1]
        out["theory.rules"] = len(theory.projection_rules) + len(theory.persistence_rules)
    if "load" in seen:
        (store, _text, grid), tokens = seen["load"]
        out["tokens.basic_events"] = len(tokens)
        out["tokens.window_cells"] = sum(
            min(grid.omega, grid.time_to_cell(t.lst)) - max(1, grid.time_to_cell(t.est)) + 1
            for t in tokens if t.est < t.lst
        )
    if "refine" in seen:
        (store, theory, grid, *_), _ = seen["refine"]
        created = len(store) - len(seen["load"][1])  # only load and project add tokens
        pairs = 0
        for rule in theory.projection_rules:
            product = len(store.events_of_type(rule.trigger.key))
            for ant in rule.antecedents:
                always = ant.name == "ALWAYS" and not ant.args
                product *= 1 if always else len(store.facts_of_type(ant.key))
            pairs += product
        out["projection.tokens_created"] = created
        out["projection.join_pairs"] = pairs
        derived = sum(1 for f in store.facts if not f.is_builtin)
        out["projection.match_ratio"] = derived / pairs if pairs else 0.0
        swept = [e.density.values for e in store.events if not e.is_user]
        swept += [f.mass.values for f in store.facts if not f.is_builtin]
        token_cells = grid.omega * len(swept)
        live = sum(int(np.count_nonzero(v)) for v in swept)
        out["refinement.token_cells"] = token_cells
        out["refinement.live_cells"] = live
        out["refinement.live_ratio"] = live / token_cells if token_cells else 0.0
        out["refinement.closures"] = store.sweep_stats.closures
        out["refinement.clamped"] = store.sweep_stats.clamped
        every = [e.density.values for e in store.events] + [f.mass.values for f in store.facts]
        rows = grid.omega * len(every)
        zeros = rows - sum(int(np.count_nonzero(v)) for v in every)
        out["cli.rows_written"] = rows
        out["cli.zero_row_share"] = zeros / rows
    if "csv" in seen:
        out["cli.rows_scanned"] = len(seen["csv"][1][1])
        out["cli.rows_matched"] = seen["matched"]
    if "observations" in seen:
        out["acquisition.observations"] = len(seen["observations"][1])
    return out


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from tempro import cli

    tracer = Tracer()
    seen = install(cli, tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as handle:
        json.dump({"exit": code, "spans": tracer.spans, "counts": counts(seen)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
