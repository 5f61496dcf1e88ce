"""Iteration schemes: GD, NAG, TM baselines and the Hessian-driven methods.

The Hessian-driven methods come in two flavours sharing one state layout
(primary iterate ``x`` plus auxiliary ``v = alpha * y``):

* ``HNAG``       canonical scheme; x-update first with the cached gradient,
                 then one fresh gradient at the new point drives the v-update
                 (coefficients 1/L in x, 2/L in v).
* ``HNAG_PLUS``  rescaled variant: smaller step alpha = sqrt(mu/L), double
                 weight on the auxiliary sequence in the x-update.  It runs
                 ``HNAG``'s kernel with its own row of ``_HNAG_COEFFS``.

``HNAG++`` is accepted everywhere as an alias of ``HNAG``: it is the same
iteration, only analyzed more sharply, so there is nothing separate to run.

Each step of a Hessian-driven method evaluates the gradient exactly once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (MinimizerUnknownError, ObjectiveLike, Vector, _check_dims,
                   all_positive_zero)


class MethodKind(enum.Enum):
    GD = "gd"
    NAG = "nag"
    TM = "tm"
    HNAG = "hnag"
    HNAG_PLUS = "hnag_plus"


# The Hessian-driven family's step constants: a = alpha^2 in units of mu/L,
# which is also the v-gradient weight in units of 1/L (the x-gradient weight
# is 1/L), and v's weight in the x-update.
_HNAG_COEFFS = {
    MethodKind.HNAG: (2.0, 1.0),
    MethodKind.HNAG_PLUS: (1.0, 2.0),
}
HNAG_FAMILY = tuple(_HNAG_COEFFS)

# Extra spellings of method names; each MethodKind value is a name as well.
_ALIASES = {
    "hnag++": MethodKind.HNAG,
    "hnagpp": MethodKind.HNAG,
    "hnag+": MethodKind.HNAG_PLUS,
    "hnagplus": MethodKind.HNAG_PLUS,
}


def parse_method(name: str) -> MethodKind:
    """Resolve a method name or alias (case-insensitive) to a MethodKind."""
    key = name.strip().lower()
    try:
        return MethodKind(_ALIASES.get(key, key))
    except ValueError:
        raise ValueError(f"unknown method '{name}'") from None


class DivergenceError(RuntimeError):
    """A step produced a non-finite iterate."""

    def __init__(self, method: MethodKind, iteration: int):
        super().__init__(
            f"{method.value} produced non-finite values at iteration {iteration}"
        )
        self.method = method
        self.iteration = iteration


@dataclass(frozen=True)
class MethodParams:
    """Step constants derived from (mu, L) for one method.

    For the Hessian-driven family, ``alpha_sq`` is stored exactly (a mu/L
    with a from ``_HNAG_COEFFS``) and ``alpha`` is its square root;
    ``v_grad_coeff`` = a/L is the gradient weight of the v-update, and the
    x-update's is ``inv_lipschitz``.
    """

    method: MethodKind
    inv_lipschitz: float
    alpha: float = 0.0
    alpha_sq: float = 0.0
    alpha_beta: float = 0.0
    v_grad_coeff: float = 0.0
    gd_step: float = 0.0
    momentum: float = 0.0
    # Triple-momentum coefficients (Van Scoy, Freeman, Lynch 2018):
    # rho = 1 - 1/sqrt(kappa), (step, momentum, y-extrapolation, output).
    tm_coeffs: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)


def make_params(method: MethodKind, mu: float, lipschitz: float) -> MethodParams:
    """Recommended parameters for each method at the given (mu, L)."""
    if not (0.0 < mu <= lipschitz):
        raise ValueError(f"need 0 < mu <= lipschitz, got mu={mu}, L={lipschitz}")
    L = float(lipschitz)
    mu = float(mu)
    kappa = L / mu
    common = dict(method=method, inv_lipschitz=1.0 / L)

    if method in _HNAG_COEFFS:
        a = _HNAG_COEFFS[method][0]
        alpha_sq = a * mu / L
        return MethodParams(
            **common, alpha=np.sqrt(alpha_sq), alpha_sq=alpha_sq, alpha_beta=1.0 / L,
            v_grad_coeff=a / L,
        )
    if method is MethodKind.GD:
        return MethodParams(**common, gd_step=2.0 / (L + mu))
    if method is MethodKind.NAG:
        rk = np.sqrt(kappa)
        return MethodParams(**common, momentum=(rk - 1.0) / (rk + 1.0))
    if method is MethodKind.TM:
        rho = 1.0 - 1.0 / np.sqrt(kappa)
        tm = (
            (1.0 + rho) / L,
            rho**2 / (2.0 - rho),
            rho**2 / ((1.0 + rho) * (2.0 - rho)),
            rho**2 / (1.0 - rho**2) if rho > 0.0 else 0.0,
        )
        return MethodParams(**common, tm_coeffs=tm)
    raise ValueError(f"unknown method {method!r}")


@dataclass
class SolverState:
    """One method's iterate bundle.

    ``aux`` holds v = alpha * y for the Hessian-driven family, y for NAG, the
    pair (xi_k, xi_{k-1}) for TM, and mirrors x for GD.  ``grad_cache`` and
    ``f_cache`` are the gradient and value last evaluated at ``x``; the
    stopping rule and the trace read them for free.  ``f_cache`` is None
    after a step that evaluated the gradient alone.
    """

    x: Vector
    aux: Vector
    k: int
    grad_cache: Vector
    f_cache: Optional[float]


def _check_params(method: MethodKind, params: MethodParams) -> None:
    if params.method is not method:
        raise ValueError(f"params were built for {params.method}, not {method}")


def init_state(
    method: MethodKind, f: ObjectiveLike, x0: Vector, params: MethodParams
) -> SolverState:
    """Matched initialization: internal variables start at x0 (v0 = alpha*x0)."""
    _check_params(method, params)
    x0 = np.asarray(x0, dtype=np.float64)
    _check_dims(f, x0)
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    f0, g0 = f.value_and_gradient(x0)
    if method in HNAG_FAMILY:
        aux = params.alpha * x0
    elif method is MethodKind.TM:
        aux = np.stack([x0, x0])
    else:
        aux = x0.copy()
    return SolverState(x=x0.copy(), aux=aux, k=0, grad_cache=g0, f_cache=f0)


def _read_y(state: SolverState, params: MethodParams, out: Vector, tmp: Vector) -> Vector:
    """y_k written into ``out`` (``tmp`` is scratch); GD and NAG return aux."""
    if params.method in HNAG_FAMILY:
        return np.divide(state.aux, params.alpha, out=out)
    if params.method is MethodKind.TM:
        g_tm = params.tm_coeffs[2]
        np.multiply(state.aux[0], 1.0 + g_tm, out=out)
        np.multiply(state.aux[1], g_tm, out=tmp)
        return np.subtract(out, tmp, out=out)
    return state.aux


def _combine(p: Vector, q: Vector, c: float, g: Vector, den: float,
             out: Vector, tmp: Vector) -> Vector:
    """out = (p + q - c * g) / den, rounded exactly as that expression."""
    np.add(p, q, out=out)
    np.multiply(g, c, out=tmp)
    np.subtract(out, tmp, out=out)
    return np.divide(out, den, out=out)


def _advance(params: MethodParams, f: ObjectiveLike,
             evaluate: Callable[[Vector], tuple[Optional[float], Vector]],
             src: SolverState, dst: SolverState, tmp: Vector) -> None:
    """The update kernel of ``params.method``: write the iterate after ``src`` into ``dst``.

    ``dst`` owns arrays shared with neither ``src`` nor ``tmp`` (scratch).
    Every update evaluates its formula operation by operation in the order
    the formula reads, so the iterates equal those of the plain array
    expressions bit for bit.  ``evaluate`` gives ``dst.f_cache`` and
    ``dst.grad_cache`` at the new x; NAG's and TM's gradient at their
    extrapolated point comes from ``f.gradient``.  Gradients are only read,
    never written.
    """
    x, aux, g = src.x, src.aux, src.grad_cache
    x_new, aux_new = dst.x, dst.aux
    method, a = params.method, params.alpha

    if method in HNAG_FAMILY:
        # x_new = (x + c aux - g / L) / (1 + c a), where c aux is aux itself at c = 1
        c = _HNAG_COEFFS[method][1]
        v = aux if c == 1.0 else np.multiply(aux, c, out=x_new)
        _combine(x, v, params.inv_lipschitz, g, 1.0 + c * a, x_new, tmp)
        dst.f_cache, dst.grad_cache = evaluate(x_new)
        # aux_new = (aux + alpha^2 x_new - v_grad_coeff g_new) / (1 + a)
        np.multiply(x_new, params.alpha_sq, out=aux_new)
        _combine(aux, aux_new, params.v_grad_coeff, dst.grad_cache, 1.0 + a,
                 aux_new, tmp)
    elif method is MethodKind.GD:
        # x_new = x - step g
        np.multiply(g, params.gd_step, out=tmp)
        np.subtract(x, tmp, out=x_new)
        dst.f_cache, dst.grad_cache = evaluate(x_new)
        dst.aux = x_new
    elif method is MethodKind.NAG:
        # x_new = y - g(y) / L;  y_new = x_new + momentum (x_new - x)
        np.multiply(f.gradient(aux), params.inv_lipschitz, out=tmp)
        np.subtract(aux, tmp, out=x_new)
        np.subtract(x_new, x, out=aux_new)
        np.multiply(aux_new, params.momentum, out=aux_new)
        np.add(x_new, aux_new, out=aux_new)
        dst.f_cache, dst.grad_cache = evaluate(x_new)
    elif method is MethodKind.TM:
        a_tm, b_tm, _, d_tm = params.tm_coeffs
        xi, xi_prev = aux[0], aux[1]
        xi_new = aux_new[0]
        # gradient at y = (1 + g_tm) xi - g_tm xi_prev, built in x_new
        g_y = f.gradient(_read_y(src, params, x_new, tmp))
        # xi_new = (1 + b) xi - b xi_prev - a g(y)
        np.multiply(xi, 1.0 + b_tm, out=xi_new)
        np.multiply(xi_prev, b_tm, out=tmp)
        np.subtract(xi_new, tmp, out=xi_new)
        np.multiply(g_y, a_tm, out=tmp)
        np.subtract(xi_new, tmp, out=xi_new)
        # x_new = (1 + d) xi_new - d xi
        np.multiply(xi_new, 1.0 + d_tm, out=x_new)
        np.multiply(xi, d_tm, out=tmp)
        np.subtract(x_new, tmp, out=x_new)
        np.copyto(aux_new[1], xi)
        dst.f_cache, dst.grad_cache = evaluate(x_new)
    else:
        raise ValueError(f"unknown method {method!r}")
    dst.k = src.k + 1


def _blank_like(state: SolverState) -> SolverState:
    """A state with fresh, unfilled buffers shaped like ``state``'s."""
    return SolverState(x=np.empty_like(state.x), aux=np.empty_like(state.aux),
                       k=state.k, grad_cache=state.grad_cache, f_cache=state.f_cache)


def step(
    method: MethodKind,
    state: SolverState,
    f: ObjectiveLike,
    params: MethodParams,
) -> SolverState:
    """Advance one iteration, returning a fresh state."""
    _check_params(method, params)
    new = _blank_like(state)
    _advance(params, f, f.value_and_gradient, state, new, np.empty_like(state.x))
    if not (np.isfinite(new.x).all() and np.isfinite(new.aux).all()
            and np.isfinite(new.grad_cache).all()):
        raise DivergenceError(method, new.k)
    return new


class TerminalStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"


@dataclass
class SolverConfig:
    method: MethodKind
    tol_rel_grad: float = 1e-8
    max_iter: int = 10**6

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_rel_grad < 1.0:
            raise ValueError("tol_rel_grad must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class Trace:
    """Per-iteration records of one solve.

    Column conventions: ``grad_norm`` is ||grad f(x_k)|| (the stopping
    quantity), ``E`` the unshifted energy f-gap + mu/2 ||y - x*||^2, and
    ``E_shifted`` its fully shifted counterpart (y-weight mu for HNAG+, mu/2
    otherwise), and ``grad_shifted_sq`` = ||grad f(x_k) - mu (x_k - x*)||^2.
    ``solve`` records every column, but ``solve(..., energies=False)``
    leaves ``f_gap``, ``E``, ``E_shifted`` and ``grad_shifted_sq`` None; a
    trace rebuilt from the CSV columns (which omit ``grad_shifted_sq``)
    leaves that one None.
    """

    method: MethodKind
    status: TerminalStatus
    k: np.ndarray
    f_gap: Optional[np.ndarray]
    grad_norm: np.ndarray
    x_err_sq: np.ndarray
    y_err_sq: np.ndarray
    E: Optional[np.ndarray]
    E_shifted: Optional[np.ndarray]
    grad_shifted_sq: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return len(self.k) - 1


def solve(f: ObjectiveLike, config: SolverConfig, x0: Vector, *,
          energies: bool = True) -> Trace:
    """Run one method until the relative-gradient stopping rule or max_iter.

    Stopping rule: ||grad f(x_k)|| <= tol_rel_grad * ||grad f(x_0)||.
    The objective must carry its minimizer (exact or oracle-attached) because
    every record includes distance-to-minimizer columns.

    The loop runs the same kernel as ``step`` into two preallocated states
    used in turn, so the trace is bit-identical to stepping with ``step``.
    A non-finite iterate, auxiliary or gradient makes one of the recorded
    squared norms non-finite, so that check alone detects divergence, at the
    same iteration as ``step`` would.

    With ``energies=False`` each step evaluates the gradient alone, and the
    record skips f(x*), f(x_k) and the shifted gradient: the trace's
    ``f_gap``, ``E``, ``E_shifted`` and ``grad_shifted_sq`` are None, and
    every other column and the status are bit for bit those of the full
    solve.  The only value taken is f(x_0), in ``init_state``.  Either way the solve raises
    ``DivergenceError`` at the first step where a column it records is not
    finite.
    """
    if f.minimizer is None:
        raise MinimizerUnknownError(
            "solve() records error columns; attach a minimizer first "
            "(analysis.ensure_minimizer)"
        )
    method = config.method
    params = make_params(method, f.mu, f.lipschitz)
    state = init_state(method, f, x0, params)
    spare = _blank_like(state)
    xstar = np.asarray(f.minimizer, dtype=np.float64)
    fstar = f.value(xstar) if energies else None
    mu = f.mu
    y_weight = mu if method is MethodKind.HNAG_PLUS else 0.5 * mu
    dx_buf, dy_buf, tmp = (np.empty_like(state.x) for _ in range(3))
    zero_xstar = all_positive_zero(xstar)   # then x - x* is x bit for bit
    if energies:
        evaluate = f.value_and_gradient
    else:
        def evaluate(x: Vector) -> tuple[None, Vector]:
            return None, f.gradient(x)

    # one per step: grad_norm, x_err_sq, y_err_sq, then with energies
    # f_gap, E, E_shifted and grad_shifted_sq
    rows: list[tuple[float, ...]] = []

    # a column the record keeps that is not finite is divergence: squared
    # quantities can overflow long before coordinates do, and no infinity is
    # recorded.  As a decorator, errstate builds no context object per record.
    @np.errstate(over="ignore", invalid="ignore")
    def record(st: SolverState) -> None:
        dx, dy = st.x, _read_y(st, params, dy_buf, tmp)
        if not zero_xstar:
            dx, dy = np.subtract(dx, xstar, out=dx_buf), np.subtract(dy, xstar, out=dy_buf)
        x_err = float(dx @ dx)
        y_err = float(dy @ dy)
        g_sq = float(st.grad_cache @ st.grad_cache)
        # the rounding of np.linalg.norm on a real vector, in one call
        row = (math.sqrt(g_sq), x_err, y_err)
        if not all(map(math.isfinite, row)):
            raise DivergenceError(method, st.k)
        if energies:
            f_gap = st.f_cache - fstar
            np.multiply(dx, mu, out=tmp)
            np.subtract(st.grad_cache, tmp, out=tmp)
            gsh_sq = float(tmp @ tmp)
            if not (math.isfinite(f_gap) and math.isfinite(gsh_sq)):
                raise DivergenceError(method, st.k)
            row += (f_gap, f_gap + 0.5 * mu * y_err,
                    f_gap - 0.5 * mu * x_err + y_weight * y_err, gsh_sq)
        rows.append(row)

    record(state)
    threshold = config.tol_rel_grad * rows[0][0]
    status = TerminalStatus.MAX_ITER
    while True:
        if rows[-1][0] <= threshold:
            status = TerminalStatus.CONVERGED
            break
        if state.k >= config.max_iter:
            break
        _advance(params, f, evaluate, state, spare, tmp)
        state, spare = spare, state
        record(state)

    grad_norm, x_err_sq, y_err_sq, *energy = map(np.asarray, zip(*rows))
    f_gap, E, E_shifted, grad_shifted_sq = energy or (None,) * 4
    return Trace(method, status, np.arange(len(rows), dtype=np.int64), f_gap,
                 grad_norm, x_err_sq, y_err_sq, E, E_shifted, grad_shifted_sq)
