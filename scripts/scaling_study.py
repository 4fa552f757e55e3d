#!/usr/bin/env python3
"""Measure how refinement wall time grows with the number of live facts.

Builds a one-rule theory, seeds it with N independent arrival events (so
refinement carries N facts plus their onset events), times ``refine`` for
each N, and fits a log-log slope.  Refinement computes each token's curve
once, so the slope should sit close to 1.
"""
from __future__ import annotations

import argparse
import math
import time

from tempro import Pattern, TimeGrid, TokenStore, add_basic_event, parse_theory, project, refine

THEORY = "persist F(?x) exp 0.05\nproject ALWAYS, E(?x) => F(?x) @ 1.0\n"


def timed_refine(n_facts: int, omega: int, repeats: int) -> float:
    theory = parse_theory(THEORY)
    grid = TimeGrid(0.0, 1.0, omega)
    store = TokenStore()
    spread = max(1, omega - 100)
    for k in range(n_facts):
        start = float(k % spread)
        add_basic_event(store, Pattern("E", (f"X{k}",)), start, start + 10.0, 1.0, grid)
    project(theory, store, grid)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        refine(store, theory, grid, epsilon=0.0)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 100, 1000], help="fact counts to time"
    )
    parser.add_argument("--omega", type=int, default=300, help="cells per sweep")
    parser.add_argument("--repeats", type=int, default=3, help="runs per size (best kept)")
    args = parser.parse_args()

    times = [timed_refine(n, args.omega, args.repeats) for n in args.sizes]
    print(f"{'facts':>8}  {'best time':>12}  {'per fact-cell':>14}")
    for n, t in zip(args.sizes, times):
        print(f"{n:>8}  {t * 1e3:>10.2f}ms  {t / (n * args.omega) * 1e6:>12.3f}us")

    if len(args.sizes) >= 2:
        xs = [math.log(n) for n in args.sizes]
        ys = [math.log(t) for t in times]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        print(f"log-log slope: {slope:.3f}")


if __name__ == "__main__":
    main()
