"""Minimizer oracle, empirical rate fitting, rate catalog, method comparison."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import ObjectiveLike, Vector
from .solvers import (
    HNAG_FAMILY,
    DivergenceError,
    MethodKind,
    SolverConfig,
    solve,
)


class OracleError(RuntimeError):
    """The minimizer oracle did not reach its gradient tolerance."""


def find_minimizer(
    f: ObjectiveLike, tol: float = 1e-12, max_iter: int = 2 * 10**6
) -> Vector:
    """High-accuracy reference minimizer.

    Quadratics with a known center return it exactly.  Otherwise a plain NAG
    loop runs from the zero vector until ||grad f(x)|| <= tol * ||grad f(0)||.
    The loop is deliberately self-contained so it can serve as an independent
    cross-check on the solver module.
    """
    if f.minimizer is not None:
        return np.array(f.minimizer, dtype=np.float64, copy=True)
    mu, L = f.mu, f.lipschitz
    rk = np.sqrt(L / mu)
    momentum = (rk - 1.0) / (rk + 1.0)
    x = np.zeros(f.dim)
    y = x.copy()
    g0 = np.linalg.norm(f.gradient(x))
    if g0 == 0.0:
        return x
    for _ in range(max_iter):
        gy = f.gradient(y)
        x_new = y - gy / L
        y = x_new + momentum * (x_new - x)
        x = x_new
        if np.linalg.norm(f.gradient(x)) <= tol * g0:
            return x
    raise OracleError(
        f"minimizer oracle hit {max_iter} iterations without reaching "
        f"{tol:g} relative gradient"
    )


def ensure_minimizer(f: ObjectiveLike, tol: float = 1e-12) -> ObjectiveLike:
    """Attach an oracle minimizer to f if it has none; returns f."""
    if f.minimizer is None:
        f.minimizer = find_minimizer(f, tol=tol)
    return f


class RateFitError(ValueError):
    """Not enough usable points to fit a decay rate."""


@dataclass(frozen=True)
class RateEstimate:
    """Geometric decay rate fitted on a semilog error sequence."""

    rate: float
    window: tuple[int, int]
    fit_residual: float
    metric: str


def estimate_rate(
    errors: Sequence[float], tail_fraction: float = 0.5, metric: str = ""
) -> RateEstimate:
    """Least-squares slope of ln(e_k) over the trailing window.

    The sequence is truncated at the first entry below 1e-28 * e_0 (floating
    point floor), then the last ``tail_fraction`` of what remains is fitted;
    the window is widened backward if needed so it always spans >= 10 steps.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1 or len(e) < 20:
        raise RateFitError("need a 1-D error sequence of length >= 20")
    if not 0.0 < tail_fraction <= 1.0:
        raise RateFitError("tail_fraction must lie in (0, 1]")
    if not (e > 0.0).all():
        raise RateFitError("errors must be positive")

    below = np.nonzero(e < 1e-28 * e[0])[0]
    if len(below):
        e = e[: below[0]]
    if len(e) < 11:
        raise RateFitError(f"fewer than 10 usable points after truncation ({len(e)})")
    start = min(int(np.floor((1.0 - tail_fraction) * len(e))), len(e) - 11)
    ks = np.arange(start, len(e), dtype=np.float64)
    logs = np.log(e[start:])
    slope, intercept = np.polyfit(ks, logs, 1)
    resid = logs - (slope * ks + intercept)
    return RateEstimate(
        rate=min(float(np.exp(slope)), 1.0),
        window=(start, len(e) - 1),
        fit_residual=float(np.sqrt(np.mean(resid**2))),
        metric=metric,
    )


class RateRegime(enum.Enum):
    GENERAL = "general"
    QUADRATIC_OR_ASYMPTOTIC = "quadratic_or_asymptotic"


def theoretical_rate(
    method: MethodKind, kappa: float, regime: RateRegime = RateRegime.GENERAL
) -> float:
    """Catalog of proven per-step rates under strong convexity.

    GD and the momentum baselines are leading-order expressions; the
    Hessian-driven entries are the exact contraction factors, with the
    sharper quadratic/asymptotic factor selected by ``regime``.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    root = float(np.sqrt(kappa))
    if method is MethodKind.GD:
        return max(0.0, 1.0 - 2.0 / kappa)
    if method is MethodKind.NAG:
        return 1.0 - 1.0 / root
    if method is MethodKind.TM:
        return max(0.0, 1.0 - 2.0 / root)
    if method is MethodKind.HNAG_PLUS:
        return 1.0 / (1.0 + 2.0 / root)
    if method in (MethodKind.HNAG, MethodKind.HNAG_BOX):
        if regime is RateRegime.QUADRATIC_OR_ASYMPTOTIC:
            return 1.0 / (1.0 + 2.0 * float(np.sqrt(2.0 / kappa)))
        return 1.0 / (1.0 + float(np.sqrt(2.0 / kappa)))
    raise ValueError(f"unknown method {method!r}")


@dataclass
class ComparisonRow:
    method: MethodKind
    kappa: float
    iterations: int
    runtime_seconds: float
    measured_rate: float
    theoretical_rate: float
    status: str


def compare(
    f: ObjectiveLike,
    methods: Sequence[MethodKind],
    config: SolverConfig,
    x0: Vector,
    regime: RateRegime = RateRegime.GENERAL,
) -> list[ComparisonRow]:
    """Run each method from the same start under the same stopping rule.

    The measured rate is fitted on ||y_k - x*||^2 for the Hessian-driven
    family and on ||x_k - x*||^2 otherwise.  A diverging method yields a row
    flagged 'diverged' instead of aborting the batch.
    """
    kappa = f.lipschitz / f.mu
    rows = []
    for method in methods:
        cfg = replace(config, method=method)
        t0 = time.perf_counter()
        try:
            trace = solve(f, cfg, x0)
        except DivergenceError as err:
            rows.append(ComparisonRow(
                method=method, kappa=kappa, iterations=err.iteration,
                runtime_seconds=time.perf_counter() - t0,
                measured_rate=float("nan"),
                theoretical_rate=theoretical_rate(method, kappa, regime),
                status="diverged",
            ))
            continue
        elapsed = time.perf_counter() - t0
        series = trace.y_err_sq if method in HNAG_FAMILY else trace.x_err_sq
        try:
            measured = estimate_rate(series, metric="err_sq").rate
        except RateFitError:
            measured = float("nan")
        rows.append(ComparisonRow(
            method=method, kappa=kappa, iterations=trace.iterations,
            runtime_seconds=elapsed, measured_rate=measured,
            theoretical_rate=theoretical_rate(method, kappa, regime),
            status=trace.status.value,
        ))
    return rows


COMPARISON_CSV_HEADER = "method,kappa,iterations,runtime_s,measured_rate,theoretical_rate"


def rows_to_csv(rows: Sequence[ComparisonRow]) -> str:
    lines = [COMPARISON_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.method.value},{float(row.kappa)!r},{int(row.iterations)},"
            f"{float(row.runtime_seconds)!r},{float(row.measured_rate)!r},"
            f"{float(row.theoretical_rate)!r}"
        )
    return "\n".join(lines) + "\n"
