"""Minimizer oracle, empirical rate fitting, rate catalog, method comparison."""

from __future__ import annotations

import enum
import math
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
    Trace,
    solve,
)


class OracleError(RuntimeError):
    """The minimizer oracle did not reach its gradient tolerance."""


# The oracle's relative gradient tolerance and NAG iteration budget
_ORACLE_TOL = 1e-12
_NAG_MAX_ITER = 2 * 10**6
# Newton-CG budget in gradient calls, and the central-difference step scale
_NEWTON_MAX_GRADS = 4000
_HV_STEP = 1e-9


def find_minimizer(f: ObjectiveLike) -> Vector:
    """High-accuracy reference minimizer, from gradient calls only.

    Quadratics with a known center return it exactly.  Otherwise Newton-CG
    runs from the zero vector until ||grad f(x)|| <= 1e-12 ||grad f(0)||; if
    it misses that test within its budget, the NAG loop (at most 2e6
    iterations) takes over from Newton's point of least gradient norm.  Both
    are deliberately self-contained so the oracle can serve as an
    independent cross-check on the solver module.
    """
    if f.minimizer is not None:
        return np.array(f.minimizer, dtype=np.float64, copy=True)
    x = np.zeros(f.dim)
    g = f.gradient(x)
    g0 = np.linalg.norm(g)
    if not np.isfinite(g0):
        raise OracleError(f"minimizer oracle: ||grad f(0)|| is {g0}, not finite")
    if g0 == 0.0:
        return x
    threshold = _ORACLE_TOL * g0
    x, g = _newton_cg(f, x, g, threshold)
    if math.sqrt(g @ g) <= threshold:
        return x
    return _nag_loop(f, x, g, threshold, _NAG_MAX_ITER)


def _newton_cg(f: ObjectiveLike, x: Vector, g: Vector, threshold: float):
    """Truncated Newton from x, with g = grad f(x): CG on H p = -g to the
    forcing tolerance min(1/2, sqrt(||g|| / ||g_0||)), H v by central
    differences of the gradient, and the step halved until ||grad f|| falls.
    Returns (x, grad f(x)) at the least ||grad f|| reached, once that is at
    most threshold, the step search stalls, or ``_NEWTON_MAX_GRADS`` calls
    are spent (the last Newton step may overrun it by 2 dim + 34 calls)."""
    calls = 1   # the caller's grad f(x) is the oracle's first gradient call

    def grad(z: Vector) -> Vector:
        nonlocal calls
        calls += 1
        gz = f.gradient(z)
        if not np.isfinite(gz).all():
            raise OracleError(f"minimizer oracle: non-finite gradient at call {calls}")
        return gz

    g_start = g_norm = math.sqrt(g @ g)
    while g_norm > threshold and calls < _NEWTON_MAX_GRADS:
        h = _HV_STEP * (1.0 + math.sqrt(x @ x))
        p, r, d, rr = np.zeros_like(x), -g, -g, g_norm**2
        cg_tol = min(0.5, math.sqrt(g_norm / g_start)) * g_norm
        for _ in range(f.dim):
            s = h / math.sqrt(d @ d)
            hd = (grad(x + s * d) - grad(x - s * d)) / (2.0 * s)
            if (dhd := d @ hd) <= 0.0:
                break
            a = rr / dhd
            p, r = p + a * d, r - a * hd
            rr, rr_old = r @ r, rr
            if math.sqrt(rr) <= cg_tol:
                break
            d = r + (rr / rr_old) * d
        for t in 0.5 ** np.arange(34):
            g_new = grad(x + t * p)
            if (n_new := math.sqrt(g_new @ g_new)) < g_norm:
                break
        else:
            return x, g
        x, g, g_norm = x + t * p, g_new, n_new
    return x, g


def _nag_loop(f: ObjectiveLike, x: Vector, g: Vector, threshold: float, max_iter: int):
    """Plain NAG from x, with g = grad f(x), to the first extrapolated point
    y with ||grad f(y)|| <= threshold.  Each iteration evaluates one
    gradient, at y, which both takes the step and tests for the stop."""
    mu, L = f.mu, f.lipschitz
    rk = np.sqrt(L / mu)
    momentum = (rk - 1.0) / (rk + 1.0)
    y = x.copy()
    for k in range(1, max_iter + 1):
        x_new = y - g / L
        y = x_new + momentum * (x_new - x)
        x = x_new
        g = f.gradient(y)
        # the same rounding as np.linalg.norm on a real vector
        g_norm = math.sqrt(g @ g)
        if g_norm <= threshold:
            return y
        if not math.isfinite(g_norm):
            raise OracleError(
                f"minimizer oracle: ||grad f(y)|| is {g_norm} at iteration {k}, not finite"
            )
    raise OracleError(
        f"minimizer oracle hit {max_iter} iterations without reaching "
        f"gradient norm {threshold:g}"
    )


def ensure_minimizer(f: ObjectiveLike) -> ObjectiveLike:
    """Attach an oracle minimizer to f if it has none; returns f."""
    if f.minimizer is None:
        f.minimizer = find_minimizer(f)
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


def estimate_rate(errors: Sequence[float], metric: str = "") -> RateEstimate:
    """Least-squares slope of ln(e_k) over the trailing window.

    The sequence is truncated at the first entry below 1e-28 * e_0 (floating
    point floor), then the last half of what remains is fitted; the window
    is widened backward if needed so it always spans >= 10 steps.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1 or len(e) < 20:
        raise RateFitError("need a 1-D error sequence of length >= 20")
    if not (e > 0.0).all():
        raise RateFitError("errors must be positive")

    below = np.nonzero(e < 1e-28 * e[0])[0]
    if len(below):
        e = e[: below[0]]
    if len(e) < 11:
        raise RateFitError(f"fewer than 10 usable points after truncation ({len(e)})")
    start = min(len(e) // 2, len(e) - 11)
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


def measured_rate(trace: Trace) -> float:
    """Fitted decay rate of ||y_k - x*||^2 for the Hessian-driven family and
    of ||x_k - x*||^2 otherwise; NaN when the trace is too short to fit."""
    series = trace.y_err_sq if trace.method in HNAG_FAMILY else trace.x_err_sq
    try:
        return estimate_rate(series, metric="err_sq").rate
    except RateFitError:
        return float("nan")


class RateRegime(enum.Enum):
    GENERAL = "general"
    QUADRATIC_OR_ASYMPTOTIC = "asymptotic"


def theoretical_rate(
    method: MethodKind, kappa: float, regime: RateRegime = RateRegime.GENERAL
) -> float:
    """Catalog of proven per-step rates under strong convexity.

    GD and NAG are leading-order expressions; TM's is its exact asymptotic
    squared-error factor (1 - 1/sqrt(kappa))^2 (Van Scoy, Freeman & Lynch
    2018).  The Hessian-driven entries are the exact contraction factors,
    with the sharper quadratic/asymptotic factor selected by ``regime``.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    root = float(np.sqrt(kappa))
    if method is MethodKind.GD:
        return max(0.0, 1.0 - 2.0 / kappa)
    if method is MethodKind.NAG:
        return 1.0 - 1.0 / root
    if method is MethodKind.TM:
        return (1.0 - 1.0 / root) ** 2
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

    The measured rate is ``measured_rate`` of each trace.  A diverging method
    yields a row flagged 'diverged' instead of aborting the batch.
    """
    kappa = f.lipschitz / f.mu
    rows = []
    for method in methods:
        t0 = time.perf_counter()
        try:
            trace = solve(f, replace(config, method=method), x0)
        except DivergenceError as err:
            trace, diverged_at = None, err.iteration
        elapsed = time.perf_counter() - t0
        rows.append(ComparisonRow(
            method=method, kappa=kappa,
            iterations=diverged_at if trace is None else trace.iterations,
            runtime_seconds=elapsed,
            measured_rate=float("nan") if trace is None else measured_rate(trace),
            theoretical_rate=theoretical_rate(method, kappa, regime),
            status="diverged" if trace is None else trace.status.value,
        ))
    return rows

