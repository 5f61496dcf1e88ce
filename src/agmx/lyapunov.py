"""Energy functions and numerical verification of the contraction theory.

Three energies, one per analysis route:

* ``E_HNAG``        D_f(x, x*) + mu/2 ||y - x*||^2          (unshifted)
* ``E_HNAG_PLUS``   D_{f-mu}(x, x*) + mu ||y - x*||^2        (full shift, 2x y-weight)
* ``E_PARTIAL``     D_{f-mu_hat}(x, x*) + mu/2 ||y - x*||^2  (partial shift)

``strong_lyapunov_terms`` evaluates the continuous-time dissipation bounds
at one state or a block of states and ``strong_lyapunov_sweep`` checks them
at many,
``contraction_residuals`` the per-iteration discrete contractions, and
``shift_schedule`` materializes the analysis-only shift sequences.  None of
these feed back into the solvers; they only certify what the solvers did.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (  # noqa: F401  bregman: bench/instrument.py wraps this binding
    DimensionError,
    MinimizerUnknownError,
    ObjectiveLike,
    Vector,
    _check_dims,
    bregman,
    bregman_asymmetry,
)
from .problems import Rng
from .solvers import MethodKind, Trace, make_params


Rows = float | np.ndarray   # a value for one state, or one per row of a block


class LyapunovKind(enum.Enum):
    E_HNAG = "e_hnag"
    E_HNAG_PLUS = "e_hnag_plus"
    E_PARTIAL = "e_partial"


@dataclass(frozen=True)
class Anchor:
    """The minimizer x* with f(x*) and grad f(x*), evaluated once.

    Every energy is a Bregman divergence to x*, so a sweep over many states
    computes this once and shares it.
    """

    xstar: Vector
    fstar: float
    gstar: Vector


def minimizer_anchor(f: ObjectiveLike) -> Anchor:
    """x* with one ``value_and_gradient`` call there."""
    if f.minimizer is None:
        raise MinimizerUnknownError("objective has no minimizer attached")
    xstar = np.asarray(f.minimizer, dtype=np.float64)
    fstar, gstar = f.value_and_gradient(xstar)
    return Anchor(xstar, fstar, gstar)


def _shifted_bregman(fx: Rows, dx: np.ndarray, a: Anchor, shift: float) -> Rows:
    """D_{f - shift/2 ||. - x*||^2}(x, x*) from f(x) and the anchor, per row of dx.

    Evaluated as ``bregman(ShiftedObjective(f, shift, x*), x, x*)`` does, bit
    for bit: at x* the shifted value and gradient subtract exact zeros, so
    they are f(x*) and grad f(x*) themselves.
    """
    fx_shifted = fx if shift == 0.0 else fx - 0.5 * shift * np.vecdot(dx, dx)
    return fx_shifted - a.fstar - np.vecdot(a.gstar, dx)


def _weights(kind: LyapunovKind, mu: float, mu_hat: float) -> tuple[float, float]:
    """(shift, y_weight) of kind's energy D_{f - shift}(x, x*) + y_weight ||y - x*||^2."""
    if kind is LyapunovKind.E_HNAG:
        return 0.0, 0.5 * mu
    if kind is LyapunovKind.E_HNAG_PLUS:
        return mu, mu
    if kind is LyapunovKind.E_PARTIAL:
        if not 0.0 <= mu_hat <= mu:
            raise ValueError(f"mu_hat must lie in [0, mu]; got {mu_hat}")
        return mu_hat, 0.5 * mu
    raise ValueError(f"unknown Lyapunov kind {kind!r}")


def _energy(fx: Rows, dx: np.ndarray, dy: np.ndarray, a: Anchor, shift: float,
            y_weight: float) -> Rows:
    return _shifted_bregman(fx, dx, a, shift) + y_weight * np.vecdot(dy, dy)


_SCRATCH_ROWS = 6   # the (B, d) arrays of strong_lyapunov_terms


def lyapunov(
    kind: LyapunovKind,
    f: ObjectiveLike,
    x: Vector,
    y: Vector,
    mu_hat: float = 0.0,
) -> float:
    """Evaluate the requested energy at (x, y); nonnegative, zero only at x*.

    ``mu_hat`` only matters for ``E_PARTIAL`` (it is forced to mu for
    ``E_HNAG_PLUS`` and ignored for ``E_HNAG``).
    """
    a = minimizer_anchor(f)
    _check_dims(f, x, y)
    shift, y_weight = _weights(kind, f.mu, mu_hat)
    return float(_energy(f.value(x), x - a.xstar, y - a.xstar, a, shift, y_weight))


def strong_lyapunov_terms(
    kind: LyapunovKind,
    f: ObjectiveLike,
    x: Vector,
    y: Vector,
    beta: float,
    mu_hat: float = 0.0,
    *,
    anchor: Optional[Anchor] = None,
    scratch: Optional[np.ndarray] = None,
) -> tuple[Rows, Rows]:
    """(-<grad E, G>, proven lower bound) at the state (x, y).

    The gradient of E and the flow field G are assembled analytically from
    f(x), grad f(x), mu, and the anchor x*, f(x*), grad f(x*), so
    ``lhs >= rhs`` certifies the dissipation inequality at this state up to
    roundoff only.  x and y are one state of shape (d,), which gives two
    floats, or a block of B states of shape (B, d), which gives two (B,)
    arrays; one state is the one-row block.  Each row costs one
    ``value_and_gradient`` call; without a precomputed ``anchor`` (see
    ``minimizer_anchor``) x* costs another.  The rest is one array program
    over the block, and row i gets the bits of a call on (x[i], y[i]).  The
    gradients are copied into one new (B, d) array; every other (B, d) array
    is formed in ``scratch``, a (6, B', d) block with B' >= B that a sweep
    allocates once; a call without one allocates its own.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    a = minimizer_anchor(f) if anchor is None else anchor
    xs, ys = np.atleast_2d(x, y)
    if xs.shape != ys.shape or xs.shape[1:] != (f.dim,):
        raise DimensionError(f"states have shapes {np.shape(x)} and {np.shape(y)}, "
                             f"expected ({f.dim},) or (B, {f.dim})")
    mu = f.mu
    shift, y_weight = _weights(kind, mu, mu_hat)
    w = (np.empty((_SCRATCH_ROWS, *xs.shape)) if scratch is None
         else scratch[:, :len(xs)])
    fx, g = np.empty(len(xs)), np.empty(xs.shape)
    for i, row in enumerate(xs):
        fx[i], g[i] = f.value_and_gradient(row)
    xstar = a.xstar
    dx, dy = np.subtract(xs, xstar, out=w[0]), np.subtract(ys, xstar, out=w[1])
    energy = _energy(fx, dx, dy, a, shift, y_weight)

    # grad E = (g - shift dx, 2 y_weight dy); the flow is
    # G = (c (y - x) - beta g, (x - y) - g / mu) with c = 2 for HNAG+, else 1
    plus = kind is LyapunovKind.E_HNAG_PLUS
    gsh = g if kind is LyapunovKind.E_HNAG else np.subtract(
        g, np.multiply(shift, dx, out=w[2]), out=w[2])
    flow_x = np.subtract(ys, xs, out=w[3])
    if plus:
        flow_x *= 2.0
    flow_x -= np.multiply(beta, g, out=w[4])
    lhs_x = np.vecdot(gsh, flow_x)
    x_minus_y = np.subtract(xs, ys, out=w[3])
    flow_y = np.subtract(x_minus_y, np.divide(g, mu, out=w[4]), out=w[4])
    lhs = -(lhs_x + np.vecdot(np.multiply(2.0 * y_weight, dy, out=w[5]), flow_y))

    if kind is LyapunovKind.E_HNAG:
        rhs = energy + beta * np.vecdot(g, g) + 0.5 * mu * np.vecdot(x_minus_y, x_minus_y)
    else:
        if plus:
            head = 2.0 * energy
        else:
            # E_PARTIAL; D_f(x*, x) - D_f(x, x*) as ``bregman_asymmetry`` forms it
            root = np.sqrt((mu - mu_hat) / mu)
            asymmetry = ((a.fstar - fx - np.vecdot(g, np.subtract(xstar, xs, out=w[5])))
                         - _shifted_bregman(fx, dx, a, 0.0))
            head = (2.0 - root) * energy + (1.0 - root) * asymmetry
        rhs = head + beta * np.vecdot(gsh, gsh) + beta * shift * np.vecdot(gsh, dx)
    if np.ndim(x) == 1:
        return float(lhs[0]), float(rhs[0])
    return lhs, rhs


@dataclass
class CheckReport:
    """Rows k of one diagnose check: lhs_k <= rhs_k for a contraction theorem
    (``upper``), lhs_k >= rhs_k for a dissipation sweep; residuals are lhs - rhs.

    ``allowance`` is the roundoff a row may show: 1e-10 E_0 for a theorem,
    1e-12 (1 + |lhs_k|) per row for a sweep.  A row's margin, the allowance
    less its violation, is >= 0 where the row holds; a NaN row fails.
    """

    k: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residuals: np.ndarray
    allowance: float | np.ndarray
    upper: bool

    @property
    def margins(self) -> np.ndarray:
        return self.allowance - (self.residuals if self.upper else -self.residuals)

    @property
    def worst(self) -> int:
        """The first row of least margin, or the first NaN."""
        return int(np.argmin(self.margins))

    def passes(self) -> bool:
        return bool((self.margins >= 0.0).all())


# The most normals one sweep draw holds.  A draw of d normals consumes whole
# Box-Muller pairs, so a (rows, d + d % 2) draw gives, in its first d columns,
# the rows of that many d-draws, and leaves the Rng where they would.
_BLOCK_NORMALS = 2**13


def _draw_blocks(rng: Rng, d: int, states: int, block: int):
    """(start, stop, xs, ys) per block of ``block`` states, one draw each."""
    width = d + d % 2
    for start in range(0, states, block):
        stop = min(start + block, states)
        z = rng.standard_normal((2 * (stop - start), width))[:, :d]
        yield start, stop, z[0::2], z[1::2]


def _draw_rows_ahead(rng: Rng, d: int, states: int):
    """(i, i + 1, x, y) per state, each y row drawn one state ahead on a worker.

    The worker draws from its own copy of ``rng``, jumped to the first y
    row, and copies each row into a (2, 1, d) ring that this generator owns:
    state i's y sits in ring[i % 2] while the worker fills the other slot.
    (Rows the worker returned would live in its own malloc arena, and the
    main thread's next large allocations would fault in fresh pages.)
    ``rng`` jumps over each y row, so the rows and its final position are
    those of two draws per state.
    Closing the generator joins the worker; a worker error is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor

    width = d + d % 2
    ring = np.empty((2, 1, d))
    ahead = copy.copy(rng)
    ahead.jump(width)

    def draw_y(slot: int) -> None:
        ring[slot] = ahead.standard_normal((1, d))
        ahead.jump(width)

    with ThreadPoolExecutor(1) as worker:
        pending = worker.submit(draw_y, 0)
        for i in range(states):
            pending.result()
            if i + 1 < states:
                pending = worker.submit(draw_y, (i + 1) % 2)
            x = rng.standard_normal((1, d))
            rng.jump(width)
            yield i, i + 1, x, ring[i % 2]


def strong_lyapunov_sweep(
    kind: LyapunovKind,
    f: ObjectiveLike,
    rng: Rng,
    states: int,
    scales: Sequence[float],
    mu_hat: float = 0.0,
) -> CheckReport:
    """Check the dissipation inequality of kind's flow at ``states`` random states.

    The flow's beta is ``flow_beta(kind, f)``.  State i draws x = x* + s z
    and then y = x* + s z' from ``rng`` with standard-normal z, z' and
    s = scales[i % len(scales)].  x* is anchored once, so each state costs
    one ``value_and_gradient`` call.  States are drawn and evaluated a block
    at a time: as many as fit in one draw of ``_BLOCK_NORMALS`` normals, or,
    where one state's two rows do not fit, one state, whose y row a second
    thread draws while the state before it is evaluated.
    """
    if states < 1:
        raise ValueError(f"states must be >= 1, got {states}")
    if len(scales) == 0:
        raise ValueError("scales must be non-empty")
    a = minimizer_anchor(f)
    beta = flow_beta(kind, f)
    d = f.dim
    per_draw = _BLOCK_NORMALS // (2 * (d + d % 2))
    lhs = np.empty(states)
    rhs = np.empty(states)
    scales = np.asarray(scales, dtype=np.float64)
    scratch = np.empty((_SCRATCH_ROWS, max(per_draw, 1), d))
    draws = (_draw_blocks(rng, d, states, per_draw) if per_draw
             else _draw_rows_ahead(rng, d, states))
    try:
        for start, stop, xs, ys in draws:
            s = scales[np.arange(start, stop) % len(scales), None]
            for z in (xs, ys):    # x* + s z, formed in z's own buffer
                np.add(a.xstar, np.multiply(s, z, out=z), out=z)
            lhs[start:stop], rhs[start:stop] = strong_lyapunov_terms(
                kind, f, xs, ys, beta, mu_hat, anchor=a, scratch=scratch)
    finally:
        draws.close()
    return CheckReport(
        k=np.arange(states, dtype=np.int64),
        lhs=lhs,
        rhs=rhs,
        residuals=lhs - rhs,
        allowance=1e-12 * (1.0 + np.abs(lhs)),
        upper=False,
    )


class ContractionTheorem(enum.Enum):
    THM_HNAG_FUNCVAL = "thm_hnag_funcval"
    THM_HNAG_PLUS = "thm_hnag_plus"
    PROP_QUADRATIC = "prop_quadratic"


# The diagnose checks by name: what each certifies, and the one method whose
# traces (theorems) or flow (dissipation sweeps) it applies to.
CHECKS: dict[str, tuple[ContractionTheorem | LyapunovKind, MethodKind]] = {
    "thm_hnag_funcval": (ContractionTheorem.THM_HNAG_FUNCVAL, MethodKind.HNAG),
    "thm_hnag_plus": (ContractionTheorem.THM_HNAG_PLUS, MethodKind.HNAG_PLUS),
    "prop_quadratic": (ContractionTheorem.PROP_QUADRATIC, MethodKind.HNAG),
    "strong_hnag": (LyapunovKind.E_HNAG, MethodKind.HNAG),
    "strong_hnag_plus": (LyapunovKind.E_HNAG_PLUS, MethodKind.HNAG_PLUS),
    "strong_partial": (LyapunovKind.E_PARTIAL, MethodKind.HNAG),
}
_CHECK_METHOD = {target: method for target, method in CHECKS.values()}


def flow_beta(kind: LyapunovKind, f: ObjectiveLike) -> float:
    """Hessian-damping coefficient beta = alpha_beta / alpha of kind's method."""
    params = make_params(_CHECK_METHOD[kind], f.mu, f.lipschitz)
    return params.alpha_beta / params.alpha


def contraction_residuals(
    theorem: ContractionTheorem, trace: Trace, f: ObjectiveLike
) -> CheckReport:
    """Check one theorem's contraction E_{k+1} <= rate E_k along a recorded trace."""
    expected = _CHECK_METHOD[theorem]
    if trace.method is not expected:
        raise ValueError(
            f"{theorem.value} applies to {expected.value} traces, "
            f"got {trace.method.value}"
        )
    if trace.E is None:
        raise ValueError("trace has no energies (solved with energies=False)")
    # the contraction factor is 1/(1 + w alpha) with the method's alpha: w = 1
    # for the function-value theorem, 2 for the two shifted-energy ones
    L = f.lipschitz
    if theorem is ContractionTheorem.THM_HNAG_FUNCVAL:
        energy = trace.E - trace.grad_norm**2 / (2.0 * L)
        w = 1.0
    else:
        if trace.grad_shifted_sq is None:
            raise ValueError("trace lacks shifted gradients (grad_shifted_sq)")
        energy = trace.E_shifted - trace.grad_shifted_sq / (2.0 * L)
        w = 2.0
    rate = 1.0 / (1.0 + w * make_params(expected, f.mu, L).alpha)

    lhs = energy[1:]
    rhs = rate * energy[:-1]
    return CheckReport(
        k=np.arange(len(lhs), dtype=np.int64),
        lhs=lhs,
        rhs=rhs,
        residuals=lhs - rhs,
        allowance=1e-10 * float(energy[0]),
        upper=True,
    )


def asymmetry_bound_check(
    f: ObjectiveLike, x: Vector, y: Vector
) -> tuple[float, float]:
    """(|Delta_f(x, y)|, (M/6) ||x - y||^3); first <= second is the claim."""
    if f.hessian_lipschitz is None:
        raise ValueError("objective has no Hessian-Lipschitz constant")
    lhs = abs(bregman_asymmetry(f, x, y))
    rhs = f.hessian_lipschitz / 6.0 * float(np.linalg.norm(x - y)) ** 3
    return lhs, rhs


_A_MAX = 0.75 * (np.sqrt(2.0) - 1.0)


@dataclass
class ShiftSchedule:
    """Analysis-only shift sequences, normalized so mu = 1.

    delta[k] decays geometrically from delta[0], mu_k = 1 - delta[k] rises to 1,
    c[k] = 2 - sqrt(delta[k]) rises to 2, and the step contraction factors
    r[k] = 1/(1 + c[k] sqrt(2 rho)) fall to the limit 1/(1 + 2 sqrt(2 rho)).
    No solver consumes these; they certify the boosted-rate bookkeeping.
    """

    rho: float
    delta: np.ndarray
    mu_k: np.ndarray
    c: np.ndarray
    r: np.ndarray
    admissible: bool
    cancellation_ok: bool

    @property
    def limit_rate(self) -> float:
        return 1.0 / (1.0 + 2.0 * np.sqrt(2.0 * self.rho))


def shift_schedule(delta0: float, a: float, rho: float, k_max: int) -> ShiftSchedule:
    """Materialize delta_k, mu_k, c_k, r_k for k <= k_max (delta0 as a fraction of mu).

    Flags: ``admissible`` is r_0 < (1 + sqrt(2 rho))^(-3/2); ``cancellation_ok``
    is the gradient-cancellation condition 2 (1 - delta_k / delta_{k-1}) <= 1 - r_0.
    """
    if not 0.0 < delta0 <= 1.0:
        raise ValueError("delta0 must lie in (0, 1] as a fraction of mu")
    if not 0.0 < a <= _A_MAX:
        raise ValueError(f"a must lie in (0, {_A_MAX}]")
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")

    u = np.sqrt(2.0 * rho)
    decay = (1.0 + a * u) ** (-2.0 / 3.0)
    ks = np.arange(k_max + 1)
    delta = delta0 * decay**ks
    mu_k = 1.0 - delta
    c = 2.0 - np.sqrt(delta)
    r = 1.0 / (1.0 + c * u)
    admissible = bool(r[0] < (1.0 + u) ** -1.5)
    margin = (1.0 - r[0]) - 2.0 * (1.0 - decay)
    return ShiftSchedule(
        rho=rho, delta=delta, mu_k=mu_k, c=c, r=r,
        admissible=admissible,
        cancellation_ok=bool(margin >= 0.0),
    )
