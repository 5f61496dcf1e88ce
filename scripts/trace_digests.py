#!/usr/bin/env python3
"""SHA-256 digests of every Trace column over a grid of solves, and of
each grid problem's ``ObjectiveLike`` surface.

Prints one ``problem`` line per (problem, seed): ``dim``, the ``repr`` of
``mu``, ``lipschitz`` and ``hessian_lipschitz``, and the SHA-256 of the
``minimizer`` (its dtype string and raw bytes) and of
``json.dumps(description(), sort_keys=True)``.  Then one line per (problem,
seed, method): the iteration count, the terminal status, for each Trace
column the SHA-256 of its dtype string and raw bytes, and ``lean=same`` or
``lean=differs``.  Two trees whose lines match build the same problems and
produce bit-identical traces on the grid, so diffing this output is the
byte-identity check for a change that should leave every trace as it was.
``lean=same`` says that the gradient-only solve (``energies=False``, as
``compare`` runs it) gave the same status, the same divergence step and
bit-equal ``k``, ``grad_norm``, ``x_err_sq`` and ``y_err_sq``.  Start
vectors and problem seeds follow the CLI: x0 = Rng(seed).uniform(dim),
piecewise and logistic built at that seed, tolerance 1e-8 and the CLI's
default iteration cap.

Problems are ``lapN`` (the Laplacian on an N x N grid), ``piecewise`` and
``logistic`` (builder defaults).

Usage: python scripts/trace_digests.py [--problems lap43,lap87,lap178,piecewise,logistic]
                                      [--methods gd,nag,tm,hnag,hnag_plus]
                                      [--seeds 42,7]
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import agmx
from agmx import DivergenceError, MethodKind, SolverConfig, Trace, parse_method, solve

COLUMNS = [f.name for f in dataclasses.fields(Trace) if f.name not in ("method", "status")]
# the columns a gradient-only solve records
LEAN_COLUMNS = ("k", "grad_norm", "x_err_sq", "y_err_sq")


def build(name: str, seed: int):
    if name.startswith("lap"):
        return agmx.build_laplacian2d(int(name[3:]))
    if name == "piecewise":
        return agmx.ensure_minimizer(agmx.build_piecewise(seed=seed))
    if name == "logistic":
        return agmx.ensure_minimizer(agmx.build_logistic(seed=seed))
    raise ValueError(f"unknown problem {name!r}")


def digest(column) -> str:
    return hashlib.sha256(column.dtype.str.encode() + b":" + column.tobytes()).hexdigest()


def problem_line(name: str, f, seed: int) -> str:
    described = json.dumps(f.description(), sort_keys=True).encode()
    return (f"{name} problem seed={seed} dim={f.dim} mu={f.mu!r} lipschitz={f.lipschitz!r} "
            f"hessian_lipschitz={f.hessian_lipschitz!r} minimizer={digest(f.minimizer)} "
            f"description={hashlib.sha256(described).hexdigest()}")


def solve_or_divergence(f, method: MethodKind, seed: int, energies: bool):
    """(trace, None), or (None, the DivergenceError's iteration)."""
    try:
        return solve(f, SolverConfig(method=method), agmx.Rng(seed).uniform(f.dim),
                     energies=energies), None
    except DivergenceError as err:
        return None, err.iteration


def line(name: str, f, method: MethodKind, seed: int) -> str:
    head = f"{name} {method.value} seed={seed}"
    trace, diverged = solve_or_divergence(f, method, seed, True)
    lean, lean_diverged = solve_or_divergence(f, method, seed, False)
    same = diverged == lean_diverged and (trace is None or (
        lean.status is trace.status
        and all(digest(getattr(lean, c)) == digest(getattr(trace, c)) for c in LEAN_COLUMNS)))
    parity = f"lean={'same' if same else 'differs'}"
    if trace is None:
        return f"{head} iterations={diverged} status=diverged {parity}"
    cells = " ".join(f"{c}={digest(getattr(trace, c))}" for c in COLUMNS)
    return f"{head} iterations={trace.iterations} status={trace.status.value} {cells} {parity}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--problems", default="lap43,lap87,lap178,piecewise,logistic")
    parser.add_argument("--methods", default=",".join(m.value for m in MethodKind))
    parser.add_argument("--seeds", default="42,7")
    args = parser.parse_args()

    methods = [parse_method(m) for m in args.methods.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    for name in args.problems.split(","):
        for seed in seeds:
            f = build(name, seed)
            print(problem_line(name, f, seed), flush=True)
            for method in methods:
                print(line(name, f, method, seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
