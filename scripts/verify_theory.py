#!/usr/bin/env python3
"""End-to-end theory verification outside pytest.

Runs every per-iteration contraction check and dissipation sweep on the
three benchmark problems and prints one PASS/FAIL line per check.  Exits
nonzero if anything fails.

Usage: python scripts/verify_theory.py [--seed 42]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import agmx
from agmx import (
    CHECKS,
    ContractionTheorem,
    LyapunovKind,
    SolverConfig,
    contraction_residuals,
    shift_schedule,
    solve,
    strong_lyapunov_sweep,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    problems = {
        "laplacian2d(n=39)": agmx.build_laplacian2d(39),
        "piecewise(defaults)": agmx.ensure_minimizer(agmx.build_piecewise()),
        "logistic(defaults)": agmx.ensure_minimizer(agmx.build_logistic()),
    }
    failures = 0

    def report(ok, label, detail):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    for name, f in problems.items():
        x0 = agmx.Rng(args.seed).uniform(f.dim)
        for check, (theorem, method) in CHECKS.items():
            if not isinstance(theorem, ContractionTheorem):
                continue
            if theorem is ContractionTheorem.PROP_QUADRATIC and f.hessian_lipschitz != 0.0:
                continue    # the proposition holds for quadratics only
            rep = contraction_residuals(theorem, solve(f, SolverConfig(method=method), x0), f)
            report(rep.passes(), f"{check} on {name}",
                   f"{len(rep.k)} iters, worst margin {rep.margins[rep.worst]:.2e}")

    sweeps = [
        (LyapunovKind.E_HNAG, 0.0),
        (LyapunovKind.E_HNAG_PLUS, 0.0),
        (LyapunovKind.E_PARTIAL, 0.5),
        (LyapunovKind.E_PARTIAL, 0.99),
    ]
    for name, f in problems.items():
        for kind, frac in sweeps:
            rep = strong_lyapunov_sweep(kind, f, agmx.Rng(args.seed), 100,
                                        (1e-2, 1.0, 50.0), frac * f.mu)
            tag = kind.value if frac == 0.0 else f"{kind.value}(mu_hat={frac}mu)"
            report(rep.passes(), f"{tag} sweep on {name}",
                   f"worst margin {rep.margins[rep.worst]:.2e}")

    for rho in (1e-2, 1e-4):
        s = shift_schedule(delta0=1e-4, a=0.125, rho=rho, k_max=10**4)
        gap = abs(s.r[-1] - s.limit_rate)
        report(s.admissible and s.cancellation_ok and gap <= 1e-6,
               f"shift schedule rho={rho:g}",
               f"admissible={s.admissible}, cancellation={s.cancellation_ok}, "
               f"|r_k-limit|={gap:.2e}")

    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
