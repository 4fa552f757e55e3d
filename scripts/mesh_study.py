#!/usr/bin/env python3
"""Check that the mass curve converges as the time mesh is refined.

Runs the loading-dock setup at a sequence of halved cell widths, compares
each curve against a much finer reference mesh at the shared cell-end times,
and prints the sup-norm errors and their shrink factors.  Because the decay
between cell ends is integrated exactly, the remaining error comes from
discretising the arrival-window density, which shrinks quadratically.
"""
from __future__ import annotations

import argparse
import math

import numpy as np

from tempro import Pattern, TimeGrid, TokenStore, add_basic_event, parse_theory, project, refine

RATE = -math.log(0.95) / 15.0
THEORY = (
    f"persist ATDOCK(?t) exp {RATE!r}\n"
    "project ALWAYS, ARRIVE(?t) => ATDOCK(?t) @ 1.0\n"
)


def curve(delta: float, horizon: float) -> np.ndarray:
    theory = parse_theory(THEORY)
    grid = TimeGrid(0.0, delta, int(round(horizon / delta)))
    store = TokenStore()
    add_basic_event(store, Pattern("ARRIVE", ("TRUCK14",)), 0.0, 10.0, 1.0, grid)
    project(theory, store, grid)
    refine(store, theory, grid, epsilon=0.0)
    return np.asarray(store.facts_of_type(("ATDOCK", 1))[0].mass.values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coarsest", type=float, default=4.0, help="widest cell (minutes)")
    parser.add_argument("--halvings", type=int, default=4, help="number of mesh halvings")
    parser.add_argument("--horizon", type=float, default=160.0, help="grid horizon (minutes)")
    parser.add_argument(
        "--refinement", type=int, default=16, help="reference mesh is coarsest/this"
    )
    args = parser.parse_args()

    reference_delta = args.coarsest / args.refinement
    reference = curve(reference_delta, args.horizon)
    deltas = [args.coarsest / 2**i for i in range(args.halvings)]

    print(f"reference mesh: delta={reference_delta}")
    print(f"{'delta':>8}  {'sup error':>12}  {'shrink':>8}")
    previous = None
    for delta in deltas:
        coarse = curve(delta, args.horizon)
        step = int(round(delta / reference_delta))
        aligned = reference[step - 1 :: step]
        err = float(np.abs(coarse - aligned).max())
        shrink = "" if previous is None else f"{previous / err:>8.2f}"
        print(f"{delta:>8}  {err:>12.3e}  {shrink}")
        previous = err


if __name__ == "__main__":
    main()
