"""Objectives, quadratic shifts, and Bregman-divergence utilities.

Everything downstream (solvers, energy diagnostics, problem builders) works
against the small ``ObjectiveLike`` surface defined here: a differentiable
function with known strong-convexity and gradient-Lipschitz constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]


class DimensionError(ValueError):
    """Input vector does not match the objective's dimension."""


class MinimizerUnknownError(RuntimeError):
    """Operation needs the minimizer but the objective has none attached."""


def all_positive_zero(v: Vector) -> bool:
    """True when every entry is +0.0, so x - v is x bit for bit (-0.0 is not)."""
    return not (v.any() or np.signbit(v).any())


class ObjectiveLike(Protocol):
    """Differentiable, mu-strongly convex, L-smooth objective.

    ``hessian_lipschitz`` is an optional bound on the Hessian's Lipschitz
    constant; ``minimizer`` is the unique global minimizer when known (exact
    for quadratics, attached by the minimizer oracle otherwise).

    ``value_and_gradient`` returns ``(value(x), gradient(x))`` with both parts
    bit-identical to the separate calls.  A subclass inherits the default,
    which makes exactly those two calls through ``self``; an objective that
    can read its value off the gradient's work (a quadratic) overrides it to
    save the second evaluation.
    """

    dim: int
    mu: float
    lipschitz: float
    hessian_lipschitz: Optional[float]
    minimizer: Optional[Vector]

    def value(self, x: Vector) -> float: ...

    def gradient(self, x: Vector) -> Vector: ...

    def value_and_gradient(self, x: Vector) -> tuple[float, Vector]:
        return self.value(x), self.gradient(x)


@dataclass
class SimpleObjective(ObjectiveLike):
    """Ad-hoc objective from plain callables, mostly for tests and demos."""

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


class ShiftedObjective(ObjectiveLike):
    """The quadratically shifted function f(x) - (shift/2) * ||x - center||^2.

    The center must be the minimizer of the base objective, so the shifted
    function keeps the same minimizer and loses exactly ``shift`` of strong
    convexity (and of smoothness).  A zero shift reproduces the base
    bit-for-bit.
    """

    def __init__(self, base: ObjectiveLike, shift: float, center: Vector):
        center = np.asarray(center, dtype=np.float64)
        if center.shape != (base.dim,):
            raise DimensionError(
                f"center has shape {center.shape}, expected ({base.dim},)"
            )
        if not 0.0 <= shift <= base.mu:
            raise ValueError(f"shift must lie in [0, mu]; got {shift}")
        self.base = base
        self.shift = float(shift)
        self.center = center
        self.dim = base.dim
        self.mu = base.mu - self.shift
        self.lipschitz = base.lipschitz - self.shift
        self.hessian_lipschitz = base.hessian_lipschitz
        self.minimizer = center

    def value(self, x: Vector) -> float:
        if self.shift == 0.0:
            return self.base.value(x)
        r = x - self.center
        return self.base.value(x) - 0.5 * self.shift * float(r @ r)

    def gradient(self, x: Vector) -> Vector:
        if self.shift == 0.0:
            return self.base.gradient(x)
        return self.base.gradient(x) - self.shift * (x - self.center)


def _check_dims(f: ObjectiveLike, *vecs: Vector) -> None:
    for v in vecs:
        if np.shape(v) != (f.dim,):
            raise DimensionError(
                f"vector has shape {np.shape(v)}, expected ({f.dim},)"
            )


def bregman(f: ObjectiveLike, y: Vector, x: Vector) -> float:
    """Bregman divergence D_f(y, x) = f(y) - f(x) - <grad f(x), y - x>."""
    _check_dims(f, y, x)
    return f.value(y) - f.value(x) - float(f.gradient(x) @ (y - x))


def bregman_asymmetry(f: ObjectiveLike, x: Vector, y: Vector) -> float:
    """Asymmetry D_f(y, x) - D_f(x, y); zero for quadratics."""
    _check_dims(f, x, y)
    return bregman(f, y, x) - bregman(f, x, y)

