#!/usr/bin/env python3
"""Run the loading-dock example and print landmarks of the resulting curve.

The scenario: a truck arrives at the dock sometime in the first ten minutes
(uniformly uncertain), and belief that it is still there decays at five
percent per quarter hour.  The script reports the peak of the mass curve,
a few survivor checkpoints, and the cell where the curve closes.
"""
from __future__ import annotations

import argparse
import pathlib

from tempro import TimeGrid, TokenStore, load_basic_facts, parse_theory, project, refine
from tempro.refinement import DEFAULT_EPSILON

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theory", default=str(ROOT / "data" / "dock.rules"))
    parser.add_argument("--facts", default=str(ROOT / "data" / "dock.facts"))
    parser.add_argument("--delta", type=float, default=2.0, help="cell width (minutes)")
    parser.add_argument("--omega", type=int, default=1440, help="number of cells")
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help="closure threshold")
    args = parser.parse_args()

    theory = parse_theory(pathlib.Path(args.theory).read_text())
    grid = TimeGrid(0.0, args.delta, args.omega)
    store = TokenStore()
    load_basic_facts(store, pathlib.Path(args.facts).read_text(), grid)
    project(theory, store, grid)
    refine(store, theory, grid, args.epsilon)
    stats = store.sweep_stats

    print(f"grid: delta={args.delta} omega={args.omega} horizon={grid.end}")
    print(f"tokens: {len(store.events)} events, {len(store.facts)} facts")
    print(f"sweep: {stats.cells} cells swept, {stats.closures} curves closed")
    for fact in store.facts:
        if fact.fact_type.name == "ALWAYS":
            continue
        m = fact.mass.window(1, grid.omega)
        peak = max(range(len(m)), key=m.__getitem__)
        print(f"\n{fact.fact_type}")
        print(f"  peak: {m[peak]:.6f} at cell {peak + 1} (t={grid.cell_end(peak + 1)})")
        for minutes in (15.0, 60.0, 240.0, 1440.0):
            if minutes <= grid.end:
                cell = grid.time_to_cell(minutes)
                print(f"  t={minutes:>7.0f}: mass {m[cell - 1]:.6g}")
        if fact.close_cell is not None:
            print(f"  closed at cell {fact.close_cell} (t={grid.cell_end(fact.close_cell)})")
        else:
            print("  never closed within the horizon")


if __name__ == "__main__":
    main()
