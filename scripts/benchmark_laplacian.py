#!/usr/bin/env python3
"""Iteration-count benchmark across FD Laplacian resolutions.

Runs the accelerated methods from a common seeded start at several grid
sizes and prints one CSV block per size, plus a condition-number scaling
summary for the Hessian-driven scheme.

Usage: python scripts/benchmark_laplacian.py [--sizes 43,87,178] [--seed 42]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import agmx
from agmx import MethodKind, SolverConfig, cli

METHODS = [MethodKind.HNAG, MethodKind.HNAG_PLUS, MethodKind.TM,
           MethodKind.NAG, MethodKind.GD]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="43,87,178")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--skip-gd", action="store_true",
                        help="GD needs ~kappa iterations; skip it on big grids")
    args = parser.parse_args()

    methods = METHODS[:-1] if args.skip_gd else METHODS
    sizes = [int(s) for s in args.sizes.split(",")]
    config = SolverConfig(method=MethodKind.HNAG, tol_rel_grad=args.tol)
    hnag_counts = {}
    print(cli.COMPARISON_CSV_HEADER)
    for n in sizes:
        f = agmx.build_laplacian2d(n)
        x0 = agmx.Rng(args.seed).uniform(f.dim)
        rows = agmx.compare(f, methods, config, x0,
                            regime=agmx.RateRegime.QUADRATIC_OR_ASYMPTOTIC)
        for line in cli.comparison_table(rows).splitlines()[1:]:
            print(f"{line}  # n={n}")
        hnag_counts[n] = rows[0].iterations

    print()
    for a, b in zip(sizes, sizes[1:]):
        print(f"# hnag iteration growth n={a}->n={b}: "
              f"{hnag_counts[b] / hnag_counts[a]:.3f} (kappa ratio ~4 -> ~2 expected)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
