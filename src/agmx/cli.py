"""Command-line front end.

Subcommands: ``run`` (one method, trace CSV + JSON summary), ``compare``
(method table), ``diagnose`` (contraction / dissipation checks), ``rates``
(theoretical-rate catalog).  Outputs are byte-identical across repeated runs
with the same flags and seed, runtime columns excepted.

Exit codes: 0 success, 1 usage or configuration error (an unwritable --out
included), 2 non-convergence or failed check, 3 divergence.  The seed comes
from --seed, else the AGMX_SEED environment variable, else 42.  The start
vector x0 is drawn componentwise from Unif(0,1) with a fresh Rng(seed);
diagnose sweep states use Rng(seed+1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import IO, Optional, Sequence

from . import analysis, problems, solvers
from .analysis import RateRegime
from .lyapunov import (  # noqa: F401  strong_lyapunov_terms: bench/instrument.py wraps it
    CHECKS,
    ContractionTheorem,
    LyapunovKind,
    check_method,
    contraction_residuals,
    flow_beta,
    strong_lyapunov_sweep,
    strong_lyapunov_terms,
)
from .solvers import DivergenceError, SolverConfig, TerminalStatus

TRACE_CSV_HEADER = "k,f_gap,grad_norm,x_err_sq,y_err_sq,E,E_shifted"

_USAGE_ERROR = 1
_NOT_CONVERGED = 2
_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (default would be 2)."""

    def error(self, message: str) -> None:  # noqa: D102
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(_USAGE_ERROR)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", choices=["laplacian2d", "piecewise", "logistic"],
                        default="laplacian2d")
    parser.add_argument("--n", type=int, default=39, help="laplacian2d grid parameter")
    parser.add_argument("--d", type=int, default=None, help="ambient dimension")
    parser.add_argument("--p", type=int, default=5, help="piecewise component count")
    parser.add_argument("--m", type=int, default=50, help="logistic sample count")
    parser.add_argument("--mu", type=float, default=1.0, help="piecewise strong convexity")
    parser.add_argument("--lipschitz", type=float, default=1e4, help="piecewise smoothness")
    parser.add_argument("--eps", type=float, default=1e-6, help="piecewise layer width")
    parser.add_argument("--lam", type=float, default=0.1, help="logistic regularizer")
    parser.add_argument("--tol", type=float, default=1e-8, help="relative gradient tolerance")
    parser.add_argument("--max-iter", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="agmx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one method and write its trace")
    _add_common(p_run)
    p_run.add_argument("--method", type=str, required=True)
    p_run.add_argument("--regime", choices=["general", "asymptotic"], default="general")

    p_cmp = sub.add_parser("compare", help="run several methods from the same start")
    _add_common(p_cmp)
    p_cmp.add_argument("--methods", type=str, required=True,
                       help="comma-separated list, e.g. gd,nag,tm,hnagpp")
    p_cmp.add_argument("--regime", choices=["general", "asymptotic"], default="general")

    p_diag = sub.add_parser("diagnose", help="verify a contraction theorem or sweep")
    _add_common(p_diag)
    p_diag.add_argument("--check", type=str, required=True,
                        help="thm_hnag_funcval | thm_hnag_plus | prop_quadratic | "
                             "strong_hnag | strong_hnag_plus | strong_partial")
    p_diag.add_argument("--method", type=str, default=None)
    p_diag.add_argument("--mu-hat-frac", type=float, default=0.5,
                        help="partial-shift fraction of mu for strong_partial")
    p_diag.add_argument("--states", type=int, default=100,
                        help="number of sweep states for strong_* checks")

    p_rates = sub.add_parser("rates", help="theoretical-rate catalog")
    p_rates.add_argument("--kappas", type=str, default="100,785,3150,13000")
    p_rates.add_argument("--methods", type=str, default="gd,nag,tm,hnag,hnagplus")
    p_rates.add_argument("--out", type=str, default=None)
    p_rates.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _seed_of(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("AGMX_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise ValueError(f"AGMX_SEED must be a decimal integer, got {env!r}") from err
    return 42


def _build_problem(args: argparse.Namespace, seed: int):
    if args.problem == "laplacian2d":
        return problems.build_laplacian2d(args.n)
    if args.problem == "piecewise":
        return problems.build_piecewise(
            d=args.d if args.d is not None else 100, p=args.p, mu=args.mu,
            lipschitz=args.lipschitz, eps=args.eps, seed=seed,
        )
    return problems.build_logistic(
        d=args.d if args.d is not None else 1000, m=args.m, lam=args.lam, seed=seed,
    )


def _open_out(path: Optional[str]) -> IO[str]:
    return open(path, "w") if path else sys.stdout


def _json_float(x: float) -> Optional[float]:
    return None if (x is None or math.isnan(x)) else float(x)


def _write_trace_csv(trace: solvers.Trace, stream: IO[str]) -> None:
    stream.write(TRACE_CSV_HEADER + "\n")
    for k, f_gap, g, xe, ye, e, es in trace.records:
        stream.write(f"{k},{f_gap!r},{g!r},{xe!r},{ye!r},{e!r},{es!r}\n")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValueError("run requires --out for the trace CSV")
    seed = _seed_of(args)
    method = solvers.parse_method(args.method)
    f = analysis.ensure_minimizer(_build_problem(args, seed))
    x0 = problems.Rng(seed).uniform(f.dim)
    config = SolverConfig(method=method, tol_rel_grad=args.tol,
                          max_iter=args.max_iter)
    trace = solvers.solve(f, config, x0)
    with open(args.out, "w") as stream:
        _write_trace_csv(trace, stream)
    series = trace.y_err_sq if method in solvers.HNAG_FAMILY else trace.x_err_sq
    try:
        measured = analysis.estimate_rate(series, metric="err_sq").rate
    except analysis.RateFitError:
        measured = float("nan")
    regime = (RateRegime.QUADRATIC_OR_ASYMPTOTIC if args.regime == "asymptotic"
              else RateRegime.GENERAL)
    kappa = float(f.lipschitz / f.mu)
    summary = {
        "method": method.value,
        "kappa": kappa,
        "iterations": trace.iterations,
        "status": trace.status.value,
        "measured_rate": _json_float(measured),
        "theoretical_rate": analysis.theoretical_rate(method, kappa, regime),
    }
    print(json.dumps(summary))
    return 0 if trace.status is TerminalStatus.CONVERGED else _NOT_CONVERGED


def _cmd_compare(args: argparse.Namespace) -> int:
    seed = _seed_of(args)
    names = [s for s in args.methods.split(",") if s.strip()]
    if len(names) < 2:
        sys.stderr.write("error: compare needs at least 2 methods\n")
        return _USAGE_ERROR
    methods = [solvers.parse_method(s) for s in names]
    f = analysis.ensure_minimizer(_build_problem(args, seed))
    x0 = problems.Rng(seed).uniform(f.dim)
    config = SolverConfig(method=methods[0], tol_rel_grad=args.tol,
                          max_iter=args.max_iter)
    regime = (RateRegime.QUADRATIC_OR_ASYMPTOTIC if args.regime == "asymptotic"
              else RateRegime.GENERAL)
    rows = analysis.compare(f, methods, config, x0, regime=regime)
    stream = _open_out(args.out)
    try:
        if args.format == "json":
            payload = [{
                "method": r.method.value, "kappa": float(r.kappa),
                "iterations": int(r.iterations),
                "runtime_s": float(r.runtime_seconds),
                "measured_rate": _json_float(r.measured_rate),
                "theoretical_rate": float(r.theoretical_rate),
            } for r in rows]
            stream.write(json.dumps(payload) + "\n")
        else:
            stream.write(analysis.rows_to_csv(rows))
    finally:
        if stream is not sys.stdout:
            stream.close()
    all_converged = all(r.status == TerminalStatus.CONVERGED.value for r in rows)
    return 0 if all_converged else _NOT_CONVERGED


_SWEEP_SCALES = (1e-3, 1e-1, 1.0, 10.0)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    seed = _seed_of(args)
    check = args.check.strip().lower()
    if check not in CHECKS:
        sys.stderr.write(f"error: unknown check '{args.check}'\n")
        return _USAGE_ERROR
    if args.states < 1:
        raise ValueError(f"--states must be >= 1, got {args.states}")
    target = CHECKS[check][0]
    method = check_method(check, args.method)
    if target is ContractionTheorem.PROP_QUADRATIC and args.problem != "laplacian2d":
        sys.stderr.write("error: prop_quadratic needs a quadratic problem "
                         "(laplacian2d)\n")
        return _USAGE_ERROR
    f = analysis.ensure_minimizer(_build_problem(args, seed))

    if isinstance(target, ContractionTheorem):
        x0 = problems.Rng(seed).uniform(f.dim)
        config = SolverConfig(method=method, tol_rel_grad=args.tol,
                              max_iter=args.max_iter, record_lyapunov=True)
        trace = solvers.solve(f, config, x0)
        report = contraction_residuals(target, trace, f)
        if args.out:
            with open(args.out, "w") as stream:
                report.write_csv(stream)
        ok = report.passes()
        print(json.dumps({
            "check": check,
            "iterations": trace.iterations,
            "max_violation": report.max_violation,
            "tolerance": 1e-10 * report.initial_energy,
            "violated_step": None if ok else int(report.argmax_k),
            "pass": ok,
        }))
        return 0 if ok else _NOT_CONVERGED

    mu_hat = args.mu_hat_frac * f.mu if target is LyapunovKind.E_PARTIAL else 0.0
    sweep = strong_lyapunov_sweep(target, f, flow_beta(target, f), problems.Rng(seed + 1),
                                  args.states, _SWEEP_SCALES, mu_hat)
    if args.out:
        with open(args.out, "w") as stream:
            sweep.write_csv(stream)
    ok = sweep.passes()
    print(json.dumps({
        "check": check, "states": args.states,
        "worst_margin": _json_float(sweep.worst_margin),
        "violated_state": None if ok else sweep.worst_k,
        "pass": ok,
    }))
    return 0 if ok else _NOT_CONVERGED


def _cmd_rates(args: argparse.Namespace) -> int:
    methods = [solvers.parse_method(s) for s in args.methods.split(",") if s.strip()]
    kappas = [float(s) for s in args.kappas.split(",") if s.strip()]
    rows = [
        (m.value, k,
         analysis.theoretical_rate(m, k, RateRegime.GENERAL),
         analysis.theoretical_rate(m, k, RateRegime.QUADRATIC_OR_ASYMPTOTIC))
        for m in methods for k in kappas
    ]
    stream = _open_out(args.out)
    try:
        if args.format == "json":
            stream.write(json.dumps([
                {"method": m, "kappa": k, "rate_general": g, "rate_special": s}
                for m, k, g, s in rows
            ]) + "\n")
        else:
            stream.write("method,kappa,rate_general,rate_special\n")
            for m, k, g, s in rows:
                stream.write(f"{m},{k!r},{g!r},{s!r}\n")
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "diagnose": _cmd_diagnose,
        "rates": _cmd_rates,
    }[args.command]
    try:
        return handler(args)
    except DivergenceError as err:
        sys.stderr.write(f"error: {err}\n")
        return _DIVERGED
    except (ValueError, OSError, analysis.OracleError) as err:
        sys.stderr.write(f"error: {err}\n")
        return _USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
