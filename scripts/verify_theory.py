#!/usr/bin/env python3
"""End-to-end theory verification outside pytest.

Runs each ``agmx diagnose`` check (every name in ``agmx.CHECKS``, plus
``strong_partial --mu-hat-frac 0.99``) on the three benchmark problems, at
the builders' defaults and ``--seed``, as ``agmx.cli.main`` in-process: it
solves, sweeps and draws as that command does, and passes when it exits 0.
Then checks two shift schedules.  Prints one PASS/FAIL line per check, with
the command's JSON summary, and exits nonzero if anything fails.

Usage: python scripts/verify_theory.py [--seed 42]
"""

import argparse
import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import agmx
from agmx import CHECKS, cli, shift_schedule


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    # label: (diagnose's problem flags, the problem built without its minimizer)
    problems = {
        "laplacian2d(n=39)": (["--problem", "laplacian2d", "--n", "39"],
                              agmx.build_laplacian2d(39)),
        "piecewise(defaults)": (["--problem", "piecewise"], agmx.build_piecewise(seed=args.seed)),
        "logistic(defaults)": (["--problem", "logistic"], agmx.build_logistic(seed=args.seed)),
    }
    checks = {name: ["--check", name] for name in CHECKS}
    checks["strong_partial(mu_hat=0.99mu)"] = [*checks["strong_partial"], "--mu-hat-frac", "0.99"]
    failures = 0

    def report(ok, label, detail):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    for name, (flags, f) in problems.items():
        for check, check_flags in checks.items():
            if check == "prop_quadratic" and f.hessian_lipschitz != 0.0:
                continue    # the proposition holds for quadratics only
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["diagnose", *flags, *check_flags, "--seed", str(args.seed)])
            report(rc == 0, f"{check} on {name}", (out.getvalue() + err.getvalue()).strip())

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
