"""Shared test objects: an objective from plain callables, bespoke
quadratics, a quartic, counting wrappers, the per-method reference
parameters, the allocating reference step and solve loop, the mutant
kernels, the two-gradient reference minimizer oracle, and the reference
energies and dissipation terms evaluated through ``bregman`` and
``ShiftedObjective``."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from agmx import (
    LyapunovKind,
    MethodKind,
    QuadraticObjective,
    ShiftedObjective,
    bregman,
    bregman_asymmetry,
)
from agmx.core import ObjectiveLike, Vector
from agmx.solvers import (
    HNAG_FAMILY,
    DivergenceError,
    MethodParams,
    SolverState,
    TerminalStatus,
    Trace,
    make_params,
)


@dataclass
class SimpleObjective(ObjectiveLike):
    """Ad-hoc objective from plain callables."""

    value_fn: Callable[[Vector], float]
    grad_fn: Callable[[Vector], Vector]
    dim: int
    mu: float
    lipschitz: float
    hessian_lipschitz: Optional[float] = None
    minimizer: Optional[Vector] = None

    def value(self, x: Vector) -> float:
        return float(self.value_fn(x))

    def gradient(self, x: Vector) -> Vector:
        return np.asarray(self.grad_fn(x), dtype=np.float64)


def diagonal_quadratic(lams, center=None):
    lams = np.asarray(lams, dtype=np.float64)
    c = np.zeros(lams.size) if center is None else np.asarray(center, float)
    return QuadraticObjective(sp.diags(lams).tocsr(), c, lams.min(), lams.max())


def geomspace_quadratic(kappa, d=400):
    """Diagonal quadratic with log-spaced spectrum and exact endpoints 1, kappa."""
    lams = np.geomspace(1.0, kappa, d)
    lams[0], lams[-1] = 1.0, kappa
    return diagonal_quadratic(lams)


def quartic_1d():
    """f(x) = x^4/4 in one dimension; used for Bregman hand values only."""
    return SimpleObjective(
        value_fn=lambda x: 0.25 * float(x[0] ** 4),
        grad_fn=lambda x: np.array([x[0] ** 3]),
        dim=1, mu=0.0, lipschitz=0.0,
    )


def simple_1d_quadratic(curvature=1.0):
    c = float(curvature)
    return SimpleObjective(
        value_fn=lambda x: 0.5 * c * float(x[0] ** 2),
        grad_fn=lambda x: c * x,
        dim=1, mu=c, lipschitz=c,
        hessian_lipschitz=0.0, minimizer=np.zeros(1),
    )


class CountingObjective(ObjectiveLike):
    """Pass-through objective that counts value/gradient evaluations; its
    inherited ``value_and_gradient`` is counted as one of each."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.mu = base.mu
        self.lipschitz = base.lipschitz
        self.hessian_lipschitz = base.hessian_lipschitz
        self.minimizer = base.minimizer
        self.value_calls = 0
        self.grad_calls = 0

    def value(self, x):
        self.value_calls += 1
        return self.base.value(x)

    def gradient(self, x):
        self.grad_calls += 1
        return self.base.gradient(x)


def count_calls_at_class(monkeypatch, cls, ops=("value", "gradient", "value_and_gradient")):
    """Count calls of ``cls``'s oracle methods, the way the benchmark counts them."""
    calls = dict.fromkeys(ops, 0)
    for op in ops:
        original = getattr(cls, op)

        def counted(obj, x, op=op, original=original):
            calls[op] += 1
            return original(obj, x)

        monkeypatch.setattr(cls, op, counted)
    return calls


def splitmix64_reference(seed, count):
    """Pure-python SplitMix64 uniforms, independent of the numpy implementation."""
    mask = (1 << 64) - 1
    out = []
    for k in range(1, count + 1):
        z = (seed + k * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append((z >> 11) * 2.0**-53)
    return np.array(out)


def reference_standard_normal(seed, count):
    """Box-Muller over ``splitmix64_reference`` uniforms, as separate array
    expressions: r = sqrt(-2 ln(1 - u1)), theta = 2 pi u2, pairs (cos, sin)."""
    m = (count + 1) // 2
    u = splitmix64_reference(seed, 2 * m)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * m)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:count]


def reference_lyapunov(kind, f, x, y, mu_hat=0.0):
    """The energy with every Bregman term evaluated by ``bregman`` itself."""
    xstar = np.asarray(f.minimizer, dtype=np.float64)
    mu = f.mu
    dy = y - xstar
    if kind is LyapunovKind.E_HNAG:
        return bregman(f, x, xstar) + 0.5 * mu * float(dy @ dy)
    if kind is LyapunovKind.E_HNAG_PLUS:
        shifted = ShiftedObjective(f, mu, xstar)
        return bregman(shifted, x, xstar) + mu * float(dy @ dy)
    shifted = ShiftedObjective(f, mu_hat, xstar)
    return bregman(shifted, x, xstar) + 0.5 * mu * float(dy @ dy)


def reference_strong_lyapunov_terms(kind, f, x, y, beta, mu_hat=0.0):
    """(lhs, rhs) of the dissipation inequality with every oracle value
    recomputed where it is used: four calls per state, ten for E_PARTIAL."""
    xstar = np.asarray(f.minimizer, dtype=np.float64)
    mu = f.mu
    g = f.gradient(x)
    dx = x - xstar
    dy = y - xstar
    if kind is LyapunovKind.E_HNAG:
        flow_x = (y - x) - beta * g
        flow_y = (x - y) - g / mu
        lhs = -(float(g @ flow_x) + float((mu * dy) @ flow_y))
        rhs = (reference_lyapunov(kind, f, x, y) + beta * float(g @ g)
               + 0.5 * mu * float((x - y) @ (x - y)))
        return float(lhs), float(rhs)
    if kind is LyapunovKind.E_HNAG_PLUS:
        gsh = g - mu * dx
        flow_x = 2.0 * (y - x) - beta * g
        flow_y = (x - y) - g / mu
        lhs = -(float(gsh @ flow_x) + float((2.0 * mu * dy) @ flow_y))
        rhs = (2.0 * reference_lyapunov(kind, f, x, y) + beta * float(gsh @ gsh)
               + beta * mu * float(gsh @ dx))
        return float(lhs), float(rhs)
    gsh = g - mu_hat * dx
    flow_x = (y - x) - beta * g
    flow_y = (x - y) - g / mu
    lhs = -(float(gsh @ flow_x) + float((mu * dy) @ flow_y))
    root = np.sqrt((mu - mu_hat) / mu)
    rhs = ((2.0 - root) * reference_lyapunov(kind, f, x, y, mu_hat)
           + (1.0 - root) * bregman_asymmetry(f, x, xstar)
           + beta * float(gsh @ gsh) + beta * mu_hat * float(gsh @ dx))
    return float(lhs), float(rhs)


def reference_oracle_iterates(f):
    """The minimizer oracle's NAG iterates (x_k, y_k), k = 1, 2, ...,
    from x_0 = y_0 = 0, each step taken with a fresh grad f(y)."""
    rk = np.sqrt(f.lipschitz / f.mu)
    momentum = (rk - 1.0) / (rk + 1.0)
    x = np.zeros(f.dim)
    y = x.copy()
    while True:
        gy = f.gradient(y)
        x_new = y - gy / f.lipschitz
        y = x_new + momentum * (x_new - x)
        x = x_new
        yield x, y


def reference_find_minimizer(f, tol=1e-12, max_iter=2 * 10**6):
    """The two-gradient oracle loop: it steps with grad f(y), then spends a
    second gradient on x only to test ||grad f(x)|| <= tol * ||grad f(0)||."""
    g0 = np.linalg.norm(f.gradient(np.zeros(f.dim)))
    if g0 == 0.0:
        return np.zeros(f.dim)
    for _, (x, _) in zip(range(max_iter), reference_oracle_iterates(f)):
        if np.linalg.norm(f.gradient(x)) <= tol * g0:
            return x
    raise RuntimeError(f"reference oracle hit {max_iter} iterations")


def reference_make_params(method, mu, lipschitz):
    """``make_params`` written per method, with each constant spelled out."""
    L = float(lipschitz)
    mu = float(mu)
    kappa = L / mu
    common = dict(method=method, inv_lipschitz=1.0 / L)
    if method is MethodKind.HNAG:
        alpha_sq = 2.0 * mu / L
        return MethodParams(
            **common, alpha=np.sqrt(alpha_sq), alpha_sq=alpha_sq, alpha_beta=1.0 / L,
            v_grad_coeff=2.0 / L,
        )
    if method is MethodKind.HNAG_PLUS:
        alpha_sq = mu / L
        return MethodParams(
            **common, alpha=np.sqrt(alpha_sq), alpha_sq=alpha_sq,
            alpha_beta=1.0 / L, v_grad_coeff=1.0 / L,
        )
    if method is MethodKind.GD:
        return MethodParams(**common, gd_step=2.0 / (L + mu))
    if method is MethodKind.NAG:
        rk = np.sqrt(kappa)
        return MethodParams(**common, momentum=(rk - 1.0) / (rk + 1.0))
    rho = 1.0 - 1.0 / np.sqrt(kappa)
    tm = (
        (1.0 + rho) / L,
        rho**2 / (2.0 - rho),
        rho**2 / ((1.0 + rho) * (2.0 - rho)),
        rho**2 / (1.0 - rho**2) if rho > 0.0 else 0.0,
    )
    return MethodParams(**common, tm_coeffs=tm)


def reference_step(method, state, f, params):
    """One step as plain allocating array expressions, checked for finiteness.

    The update formulas of the library's in-place kernel, written the obvious
    way; the kernel must reproduce them bit for bit.
    """
    x, aux, g = state.x, state.aux, state.grad_cache
    if method is MethodKind.HNAG or method is MethodKind.HNAG_PLUS:
        a = params.alpha
        if method is MethodKind.HNAG:
            x_new = (x + aux - params.inv_lipschitz * g) / (1.0 + a)
        else:
            x_new = (x + 2.0 * aux - params.inv_lipschitz * g) / (1.0 + 2.0 * a)
        g_new = f.gradient(x_new)
        aux_new = (aux + params.alpha_sq * x_new - params.v_grad_coeff * g_new) / (1.0 + a)
    elif method is MethodKind.GD:
        x_new = x - params.gd_step * g
        g_new = f.gradient(x_new)
        aux_new = x_new
    elif method is MethodKind.NAG:
        gy = f.gradient(aux)
        x_new = aux - params.inv_lipschitz * gy
        aux_new = x_new + params.momentum * (x_new - x)
        g_new = f.gradient(x_new)
    else:
        a_tm, b_tm, g_tm, d_tm = params.tm_coeffs
        xi, xi_prev = aux[0], aux[1]
        y = (1.0 + g_tm) * xi - g_tm * xi_prev
        xi_new = (1.0 + b_tm) * xi - b_tm * xi_prev - a_tm * f.gradient(y)
        x_new = (1.0 + d_tm) * xi_new - d_tm * xi
        aux_new = np.stack([xi_new, xi])
        g_new = f.gradient(x_new)
    return _next_state(method, state, x_new, aux_new, g_new)


def _next_state(method, state, x_new, aux_new, g_new):
    """The state after ``state``; DivergenceError if any of it is not finite."""
    if not (np.isfinite(x_new).all() and np.isfinite(aux_new).all()
            and np.isfinite(g_new).all()):
        raise DivergenceError(method, state.k + 1)
    return SolverState(x=x_new, aux=aux_new, k=state.k + 1, grad_cache=g_new,
                       f_cache=float("nan"))


def box_ordering_step(state, f):
    """The box ordering of hnag's update: v first, then x, both from the
    gradient at the old x, with the gradient weights swapped (1/L in v, 2/L
    in x) and hnag's alpha^2 = 2 mu/L, so the state keeps hnag's layout
    v = alpha y.  Its stiff mode is unstable once kappa is moderately large
    (``test_solvers.py::TestBoxOrdering``)."""
    L = f.lipschitz
    alpha_sq = 2.0 * f.mu / L
    a = np.sqrt(alpha_sq)
    x, aux, g = state.x, state.aux, state.grad_cache
    aux_new = (aux + alpha_sq * x - (1.0 / L) * g) / (1.0 + a)
    x_new = (x + aux_new - (2.0 / L) * g) / (1.0 + a)
    return _next_state(MethodKind.HNAG, state, x_new, aux_new, f.gradient(x_new))


# Wrong kernels that a check should reject: name -> (the method whose state
# layout, trace label and checks it takes, its step (state, f) -> state)
MUTANTS = {
    "box_ordering": (MethodKind.HNAG, box_ordering_step),
}


def reference_solve(f, method, x0, tol_rel_grad=1e-8, max_iter=10**6, kernel=None):
    """The ``Trace`` of a solve made of ``reference_step`` and ``f.value``,
    or of ``kernel(state, f)`` (a ``MUTANTS`` step) run as ``method``.

    Raises ``DivergenceError`` where a step or a record goes non-finite.
    """
    params = make_params(method, f.mu, f.lipschitz)
    x0 = np.asarray(x0, dtype=np.float64)
    if method in HNAG_FAMILY:
        aux = params.alpha * x0
    elif method is MethodKind.TM:
        aux = np.stack([x0, x0])
    else:
        aux = x0.copy()
    state = SolverState(x=x0.copy(), aux=aux, k=0, grad_cache=f.gradient(x0),
                        f_cache=float("nan"))
    xstar = np.asarray(f.minimizer, dtype=np.float64)
    fstar = f.value(xstar)
    mu = f.mu
    y_weight = mu if method is MethodKind.HNAG_PLUS else 0.5 * mu
    cols = {c: [] for c in ("f_gap", "grad_norm", "x_err_sq", "y_err_sq", "E",
                            "E_shifted", "grad_shifted_sq")}

    def record(st):
        if method in HNAG_FAMILY:
            y = st.aux / params.alpha
        elif method is MethodKind.TM:
            g_tm = params.tm_coeffs[2]
            y = (1.0 + g_tm) * st.aux[0] - g_tm * st.aux[1]
        else:
            y = st.aux
        with np.errstate(over="ignore", invalid="ignore"):
            dx = st.x - xstar
            dy = y - xstar
            f_gap = f.value(st.x) - fstar
            x_err = float(dx @ dx)
            y_err = float(dy @ dy)
            grad_norm = float(np.linalg.norm(st.grad_cache))
            gsh = st.grad_cache - mu * dx
            gsh_sq = float(gsh @ gsh)
        if not np.isfinite([f_gap, x_err, y_err, grad_norm, gsh_sq]).all():
            raise DivergenceError(method, st.k)
        cols["f_gap"].append(f_gap)
        cols["grad_norm"].append(grad_norm)
        cols["x_err_sq"].append(x_err)
        cols["y_err_sq"].append(y_err)
        cols["E"].append(f_gap + 0.5 * mu * y_err)
        cols["E_shifted"].append(f_gap - 0.5 * mu * x_err + y_weight * y_err)
        cols["grad_shifted_sq"].append(gsh_sq)

    record(state)
    threshold = tol_rel_grad * cols["grad_norm"][0]
    while cols["grad_norm"][-1] > threshold and state.k < max_iter:
        state = (kernel(state, f) if kernel else
                 reference_step(method, state, f, params))
        record(state)
    status = (TerminalStatus.CONVERGED if cols["grad_norm"][-1] <= threshold
              else TerminalStatus.MAX_ITER)
    return Trace(method, status, np.arange(len(cols["f_gap"]), dtype=np.int64),
                 **{c: np.asarray(v) for c, v in cols.items()})
