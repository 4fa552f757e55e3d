#!/usr/bin/env python3
"""Regenerate the committed golden mass curve for the loading-dock example.

Runs the dock theory and facts from ``data/`` on a 2-minute grid over two
days and writes the resulting ATDOCK(TRUCK14) mass curve, one row per cell,
to ``tests/golden/dock_mass.csv``.  The acceptance suite compares fresh runs
against this file, so only regenerate it after an intentional numerical
change, and review the diff.
"""
from __future__ import annotations

import pathlib

from tempro import TimeGrid, TokenStore, load_basic_facts, parse_theory, project, refine

ROOT = pathlib.Path(__file__).resolve().parent.parent
DELTA = 2.0
OMEGA = 1440
EPSILON = 1e-4


def golden_text() -> str:
    """The golden file's text: the dock ATDOCK(TRUCK14) mass, one row per cell."""
    theory = parse_theory((ROOT / "data" / "dock.rules").read_text())
    grid = TimeGrid(0.0, DELTA, OMEGA)
    store = TokenStore()
    load_basic_facts(store, (ROOT / "data" / "dock.facts").read_text(), grid)
    project(theory, store, grid)
    refine(store, theory, grid, EPSILON)
    (dock,) = [f for f in store.facts if f.fact_type.name == "ATDOCK"]
    lines = [
        f"# fact={dock.fact_type}",
        f"# origin={grid.origin!r} delta={grid.delta!r} omega={grid.omega}",
        f"# epsilon={EPSILON!r}",
        f"# close_cell={dock.close_cell}",
        "cell,time,value",
    ]
    for k, value in enumerate(dock.mass.window(1, grid.omega), 1):
        lines.append(f"{k},{grid.cell_start(k)!r},{value!r}")
    return "\n".join(lines) + "\n"


def main() -> None:
    out = ROOT / "tests" / "golden" / "dock_mass.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(golden_text())
    print(f"wrote {out} ({OMEGA} cells)")


if __name__ == "__main__":
    main()
