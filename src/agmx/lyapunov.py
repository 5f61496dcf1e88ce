"""Energy functions and numerical verification of the contraction theory.

Three energies, one per analysis route:

* ``E_HNAG``        D_f(x, x*) + mu/2 ||y - x*||^2          (unshifted)
* ``E_HNAG_PLUS``   D_{f-mu}(x, x*) + mu ||y - x*||^2        (full shift, 2x y-weight)
* ``E_PARTIAL``     D_{f-mu_hat}(x, x*) + mu/2 ||y - x*||^2  (partial shift)

``strong_lyapunov_terms`` evaluates the continuous-time dissipation bounds
at one state and ``strong_lyapunov_sweep`` checks them at many,
``contraction_residuals`` the per-iteration discrete contractions, and
``shift_schedule`` materializes the analysis-only shift sequences.  None of
these feed back into the solvers; they only certify what the solvers did.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (  # noqa: F401  bregman: bench/instrument.py wraps this binding
    MinimizerUnknownError,
    ObjectiveLike,
    Vector,
    _check_dims,
    bregman,
    bregman_asymmetry,
)
from .problems import Rng
from .solvers import MethodKind, Trace, make_params


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


def _shifted_bregman(fx: float, dx: Vector, a: Anchor, shift: float) -> float:
    """D_{f - shift/2 ||. - x*||^2}(x, x*) from f(x) and the anchor.

    Evaluated as ``bregman(ShiftedObjective(f, shift, x*), x, x*)`` does, bit
    for bit: at x* the shifted value and gradient subtract exact zeros, so
    they are f(x*) and grad f(x*) themselves.
    """
    fx_shifted = fx if shift == 0.0 else fx - 0.5 * shift * float(dx @ dx)
    return fx_shifted - a.fstar - float(a.gstar @ dx)


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


def _energy(fx: float, dx: Vector, dy: Vector, a: Anchor, shift: float,
            y_weight: float) -> float:
    return _shifted_bregman(fx, dx, a, shift) + y_weight * float(dy @ dy)


_SCRATCH_ROWS = 6   # the d-vectors of strong_lyapunov_terms


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
    return _energy(f.value(x), x - a.xstar, y - a.xstar, a, shift, y_weight)


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
) -> tuple[float, float]:
    """(-<grad E, G>, proven lower bound) at the state (x, y).

    The gradient of E and the flow field G are assembled analytically from
    f(x), grad f(x), mu, and the anchor x*, f(x*), grad f(x*), so
    ``lhs >= rhs`` certifies the dissipation inequality at this state up to
    roundoff only.  The state costs one ``value_and_gradient`` call; without
    a precomputed ``anchor`` (see ``minimizer_anchor``) x* costs another.
    Every d-vector is formed in ``scratch``, a (6, d) block that a sweep
    allocates once; a call without one allocates its own.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    a = minimizer_anchor(f) if anchor is None else anchor
    _check_dims(f, x, y)
    mu = f.mu
    shift, y_weight = _weights(kind, mu, mu_hat)
    fx, g = f.value_and_gradient(x)
    xstar = a.xstar
    w = np.empty((_SCRATCH_ROWS, f.dim)) if scratch is None else scratch
    dx, dy = np.subtract(x, xstar, out=w[0]), np.subtract(y, xstar, out=w[1])
    energy = _energy(fx, dx, dy, a, shift, y_weight)

    # grad E = (g - shift dx, 2 y_weight dy); the flow is
    # G = (c (y - x) - beta g, (x - y) - g / mu) with c = 2 for HNAG+, else 1
    plus = kind is LyapunovKind.E_HNAG_PLUS
    gsh = g if kind is LyapunovKind.E_HNAG else np.subtract(
        g, np.multiply(shift, dx, out=w[2]), out=w[2])
    flow_x = np.subtract(y, x, out=w[3])
    if plus:
        flow_x *= 2.0
    flow_x -= np.multiply(beta, g, out=w[4])
    lhs_x = float(gsh @ flow_x)
    x_minus_y = np.subtract(x, y, out=w[3])
    flow_y = np.subtract(x_minus_y, np.divide(g, mu, out=w[4]), out=w[4])
    lhs = -(lhs_x + float(np.multiply(2.0 * y_weight, dy, out=w[5]) @ flow_y))

    if kind is LyapunovKind.E_HNAG:
        rhs = energy + beta * float(g @ g) + 0.5 * mu * float(x_minus_y @ x_minus_y)
        return float(lhs), float(rhs)
    if plus:
        head = 2.0 * energy
    else:
        # E_PARTIAL; D_f(x*, x) - D_f(x, x*) as ``bregman_asymmetry`` forms it
        root = np.sqrt((mu - mu_hat) / mu)
        asymmetry = ((a.fstar - fx - float(g @ np.subtract(xstar, x, out=w[5])))
                     - _shifted_bregman(fx, dx, a, 0.0))
        head = (2.0 - root) * energy + (1.0 - root) * asymmetry
    rhs = head + beta * float(gsh @ gsh) + beta * shift * float(gsh @ dx)
    return float(lhs), float(rhs)


@dataclass
class SweepReport:
    """Dissipation check lhs_k >= rhs_k of one energy at sampled states.

    The margin of a state is its residual lhs - rhs plus a roundoff allowance
    1e-12 (1 + |lhs|); the sweep passes when the worst margin is nonnegative.
    A NaN margin is the worst, so a state the oracle cannot evaluate fails.
    """

    k: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residuals: np.ndarray
    worst_margin: float
    worst_k: int

    def passes(self) -> bool:
        return bool(self.worst_margin >= 0.0)


def strong_lyapunov_sweep(
    kind: LyapunovKind,
    f: ObjectiveLike,
    rng: Rng,
    states: int,
    scales: Sequence[float],
    mu_hat: float = 0.0,
) -> SweepReport:
    """Check the dissipation inequality of kind's flow at ``states`` random states.

    The flow's beta is ``flow_beta(kind, f)``.  State i draws x = x* + s z
    and then y = x* + s z' from ``rng`` with standard-normal z, z' and
    s = scales[i % len(scales)].  x* is anchored once, so each state costs
    one ``value_and_gradient`` call.
    """
    if states < 1:
        raise ValueError(f"states must be >= 1, got {states}")
    a = minimizer_anchor(f)
    beta = flow_beta(kind, f)
    lhs = np.empty(states)
    rhs = np.empty(states)
    scratch = np.empty((_SCRATCH_ROWS, f.dim))
    for i in range(states):
        scale = scales[i % len(scales)]
        x, y = rng.standard_normal(f.dim), rng.standard_normal(f.dim)
        for z in (x, y):    # x* + scale z, formed in z's own buffer
            np.add(a.xstar, np.multiply(scale, z, out=z), out=z)
        lhs[i], rhs[i] = strong_lyapunov_terms(kind, f, x, y, beta, mu_hat,
                                               anchor=a, scratch=scratch)
    residuals = lhs - rhs
    margins = residuals + 1e-12 * (1.0 + np.abs(lhs))
    # the first smallest margin, or the first NaN, which then fails the sweep
    worst = int(np.argmin(margins))
    return SweepReport(
        k=np.arange(states, dtype=np.int64),
        lhs=lhs,
        rhs=rhs,
        residuals=residuals,
        worst_margin=float(margins[worst]),
        worst_k=worst,
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


@dataclass
class ContractionReport:
    """Per-step contraction check lhs_k <= rhs_k of one named theorem.

    lhs_k is the dual-shifted energy after step k+1, rhs_k the contraction
    factor times the energy after step k; positive residuals are violations.
    ``initial_energy`` scales the pass ``tolerance`` (energies span many
    orders of magnitude over a run).
    """

    k: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residuals: np.ndarray
    max_violation: float
    argmax_k: int
    initial_energy: float

    @property
    def tolerance(self) -> float:
        """The largest violation that passes: 1e-10 of the initial energy."""
        return 1e-10 * self.initial_energy

    def passes(self) -> bool:
        return self.max_violation <= self.tolerance


def contraction_residuals(
    theorem: ContractionTheorem, trace: Trace, f: ObjectiveLike
) -> ContractionReport:
    """Check one theorem's per-iteration contraction along a recorded trace."""
    expected = _CHECK_METHOD[theorem]
    if trace.method is not expected:
        raise ValueError(
            f"{theorem.value} applies to {expected.value} traces, "
            f"got {trace.method.value}"
        )
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
    residuals = lhs - rhs
    if len(residuals):
        worst = int(np.argmax(residuals))
        max_violation = float(residuals[worst])
    else:
        worst, max_violation = 0, 0.0
    return ContractionReport(
        k=np.arange(len(residuals), dtype=np.int64),
        lhs=lhs,
        rhs=rhs,
        residuals=residuals,
        max_violation=max_violation,
        argmax_k=worst,
        initial_energy=float(energy[0]) if len(energy) else 0.0,
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
