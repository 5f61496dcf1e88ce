"""Command-line front end.

Subcommands: ``run`` (one method, trace CSV + JSON summary), ``compare``
(method table), ``diagnose`` (contraction / dissipation checks), ``rates``
(theoretical-rate catalog).  Outputs are byte-identical across repeated runs
with the same flags and seed, runtime columns excepted.

Exit codes: 0 success, 1 usage or configuration error (a missing, empty or
unwritable --out included, and a size too large to allocate), 2
non-convergence or failed check, 3 divergence.  The seed comes
from --seed, else the AGMX_SEED environment variable, else 42.  The start
vector x0 is drawn componentwise from Unif(0,1) with a fresh Rng(seed);
diagnose sweep states use Rng(seed+1).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from typing import Iterable, Optional, Sequence

from . import analysis, problems, solvers
from .analysis import RateRegime
from .lyapunov import (  # noqa: F401  strong_lyapunov_terms: bench/instrument.py wraps it
    CHECKS,
    ContractionTheorem,
    contraction_residuals,
    strong_lyapunov_sweep,
    strong_lyapunov_terms,
)
from .solvers import DivergenceError, SolverConfig, TerminalStatus

# Output tables: the trace's columns are the ``Trace`` fields of these names.
TRACE_CSV_HEADER = "k,f_gap,grad_norm,x_err_sq,y_err_sq,E,E_shifted"
COMPARISON_CSV_HEADER = "method,kappa,iterations,runtime_s,measured_rate,theoretical_rate"
_RESIDUAL_CSV_HEADER = "k,lhs,rhs,residual"
_RATES_HEADER = "method,kappa,rate_general,rate_special"

_USAGE_ERROR = 1
_NOT_CONVERGED = 2
_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (default would be 2)."""

    def error(self, message: str) -> None:  # noqa: D102
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(_USAGE_ERROR)


# problem kind -> its builder's parameters
_PARAMS = {kind: inspect.signature(build).parameters for kind, build in problems.BUILDERS.items()}
# problem flag -> {problem kind: its default}, for every builder argument but the seed
_PROBLEM_FLAGS = {name: {kind: params[name].default for kind, params in _PARAMS.items()
                         if name in params}
                  for taken in _PARAMS.values() for name in taken if name != "seed"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", choices=list(problems.BUILDERS), default="laplacian2d")
    for name, defaults in _PROBLEM_FLAGS.items():
        flag_type = type(next(iter(defaults.values())))
        takers = ", ".join(f"{kind} (default {value})" for kind, value in defaults.items())
        # an unset problem flag stays out of args (see _build_problem)
        parser.add_argument(f"--{name}", type=flag_type, default=argparse.SUPPRESS, help=takers)
    parser.add_argument("--tol", type=float, default=SolverConfig.tol_rel_grad,
                        help="relative gradient tolerance")
    parser.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="agmx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one method and write its trace")
    p_run.set_defaults(handler=_cmd_run)
    _add_common(p_run)
    p_run.add_argument("--method", type=str, required=True)

    p_cmp = sub.add_parser("compare", help="run several methods from the same start")
    p_cmp.set_defaults(handler=_cmd_compare)
    _add_common(p_cmp)
    p_cmp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_cmp.add_argument("--methods", type=str, required=True,
                       help="comma-separated list, e.g. gd,nag,tm,hnagpp")
    for p in (p_run, p_cmp):
        p.add_argument("--regime", choices=[r.value for r in RateRegime],
                       default=RateRegime.GENERAL.value)

    p_diag = sub.add_parser("diagnose", help="verify a contraction theorem or sweep")
    p_diag.set_defaults(handler=_cmd_diagnose)
    _add_common(p_diag)
    p_diag.add_argument("--check", type=str, required=True, help=" | ".join(CHECKS))
    p_diag.add_argument("--mu-hat-frac", type=float, default=0.5,
                        help="partial-shift fraction of mu for strong_partial, in [0, 1]")
    p_diag.add_argument("--states", type=int, default=100,
                        help="number of sweep states for strong_* checks")

    p_rates = sub.add_parser("rates", help="theoretical-rate catalog")
    p_rates.set_defaults(handler=_cmd_rates)
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
    """Build --problem from the problem flags the user set and the seed; an
    unset flag takes the builder's default, and one it does not take is an error."""
    spec = {name: value for name, value in vars(args).items() if name in _PROBLEM_FLAGS}
    stray = [f"--{name}" for name in spec if args.problem not in _PROBLEM_FLAGS[name]]
    if stray:
        raise ValueError(f"--problem {args.problem} takes no {', '.join(stray)}")
    if "seed" in _PARAMS[args.problem]:
        spec["seed"] = seed
    return problems.rebuild({"kind": args.problem, **spec})


def _setup(args: argparse.Namespace, method: solvers.MethodKind):
    """(problem with its minimizer, start x0, solver config, seed).

    The config is checked first, so a bad --tol or --max-iter fails before
    the problem is built and its minimizer oracle runs.
    """
    seed = _seed_of(args)
    config = SolverConfig(method=method, tol_rel_grad=args.tol, max_iter=args.max_iter)
    f = analysis.ensure_minimizer(_build_problem(args, seed))
    return f, problems.Rng(seed).uniform(f.dim), config, seed


def _write_out(path: Optional[str], text: str) -> None:
    """Write text to the --out file, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as stream:
        stream.write(text)


def _json_value(cell):
    return None if isinstance(cell, float) and math.isnan(cell) else cell


def format_table(header: str, rows: Iterable[Sequence], fmt: str = "csv") -> str:
    """Every table agmx prints, from Python ints, floats and strs.

    CSV is the header line, then each row's cells as ``str`` (for a float,
    its shortest round-trip repr).  JSON is a list of objects keyed by the
    header's column names, with NaN written as null.
    """
    if fmt == "json":
        keys = header.split(",")
        return json.dumps([{k: _json_value(c) for k, c in zip(keys, row)}
                           for row in rows]) + "\n"
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def comparison_table(rows: Sequence[analysis.ComparisonRow], fmt: str = "csv") -> str:
    """The compare table of ``analysis.compare`` rows."""
    return format_table(COMPARISON_CSV_HEADER, [
        (r.method.value, float(r.kappa), int(r.iterations), float(r.runtime_seconds),
         float(r.measured_rate), float(r.theoretical_rate)) for r in rows], fmt)


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.out:
        raise ValueError("run requires --out for the trace CSV")
    method = solvers.parse_method(args.method)
    f, x0, config, _ = _setup(args, method)
    trace = solvers.solve(f, config, x0)
    columns = (getattr(trace, name).tolist() for name in TRACE_CSV_HEADER.split(","))
    _write_out(args.out, format_table(TRACE_CSV_HEADER, zip(*columns)))
    kappa = float(f.lipschitz / f.mu)
    summary = {
        "method": method.value,
        "kappa": kappa,
        "iterations": trace.iterations,
        "status": trace.status.value,
        "measured_rate": _json_value(analysis.measured_rate(trace)),
        "theoretical_rate": analysis.theoretical_rate(method, kappa, RateRegime(args.regime)),
    }
    print(json.dumps(summary))
    return 0 if trace.status is TerminalStatus.CONVERGED else _NOT_CONVERGED


def _cmd_compare(args: argparse.Namespace) -> int:
    names = [s for s in args.methods.split(",") if s.strip()]
    if len(names) < 2:
        raise ValueError("compare needs at least 2 methods")
    methods = [solvers.parse_method(s) for s in names]
    f, x0, config, _ = _setup(args, methods[0])
    rows = analysis.compare(f, methods, config, x0, regime=RateRegime(args.regime))
    _write_out(args.out, comparison_table(rows, args.format))
    all_converged = all(r.status == TerminalStatus.CONVERGED.value for r in rows)
    return 0 if all_converged else _NOT_CONVERGED


_SWEEP_SCALES = (1e-3, 1e-1, 1.0, 10.0)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    check = args.check.strip().lower()
    if check not in CHECKS:
        raise ValueError(f"unknown check '{args.check}'")
    if args.states < 1:
        raise ValueError(f"--states must be >= 1, got {args.states}")
    if not 0.0 <= args.mu_hat_frac <= 1.0:
        raise ValueError(f"--mu-hat-frac must lie in [0, 1], got {args.mu_hat_frac}")
    target, method = CHECKS[check]
    if target is ContractionTheorem.PROP_QUADRATIC and args.problem != "laplacian2d":
        raise ValueError("prop_quadratic needs a quadratic problem (laplacian2d)")
    f, x0, config, seed = _setup(args, method)

    if isinstance(target, ContractionTheorem):
        trace = solvers.solve(f, config, x0)
        report = contraction_residuals(target, trace, f)
        passed = report.passes()
        summary = {
            "check": check,
            "iterations": trace.iterations,
            "status": trace.status.value,
            # not the worst row's residual: margins tie below the allowance's last bit
            "max_violation": float(report.residuals.max()),
            "tolerance": report.allowance,
            "violated_step": None if passed else report.worst,
            "pass": passed,
        }
        # a trace cut off at --max-iter certifies only the steps it took
        ok = passed and trace.status is TerminalStatus.CONVERGED
    else:
        # only E_PARTIAL's energy and bound read mu_hat
        report = strong_lyapunov_sweep(target, f, problems.Rng(seed + 1), args.states,
                                       _SWEEP_SCALES, args.mu_hat_frac * f.mu)
        ok = report.passes()
        summary = {
            "check": check, "states": args.states,
            "worst_margin": _json_value(float(report.margins[report.worst])),
            "violated_state": None if ok else report.worst,
            "pass": ok,
        }
    if args.out:
        columns = (report.k, report.lhs, report.rhs, report.residuals)
        _write_out(args.out, format_table(_RESIDUAL_CSV_HEADER,
                                          zip(*(c.tolist() for c in columns))))
    print(json.dumps(summary))
    return 0 if ok else _NOT_CONVERGED


def _cmd_rates(args: argparse.Namespace) -> int:
    methods = [solvers.parse_method(s) for s in args.methods.split(",") if s.strip()]
    kappas = [float(s) for s in args.kappas.split(",") if s.strip()]
    if not methods or not kappas:
        raise ValueError("rates needs at least 1 method and 1 kappa")
    rows = [(m.value, k, *(analysis.theoretical_rate(m, k, r) for r in RateRegime))
            for m in methods for k in kappas]
    _write_out(args.out, format_table(_RATES_HEADER, rows, args.format))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except DivergenceError as err:
        sys.stderr.write(f"error: {err}\n")
        return _DIVERGED
    except (ValueError, OSError, analysis.OracleError) as err:
        sys.stderr.write(f"error: {err}\n")
        return _USAGE_ERROR
    except MemoryError as err:   # numpy's names the size it could not allocate
        sys.stderr.write(f"error: {str(err) or 'out of memory'}\n")
        return _USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
