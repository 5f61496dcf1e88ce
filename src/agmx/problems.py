"""Seeded benchmark problems: FD Laplacian quadratic, smooth piecewise sum,
and l2-regularized logistic regression.

Reproducibility contract
------------------------
All randomness flows through :class:`Rng`, a SplitMix64 generator with the
constants pinned below, so the same seed rebuilds the same problem bit for
bit on any platform.  Consumption order is documented per builder; matrices
are regenerated from {kind, dims, seed, parameters} descriptions rather than
stored (see :func:`rebuild`).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .core import DimensionError, ObjectiveLike, Vector, all_positive_zero

# SplitMix64 constants (Steele, Lea, Flood 2014). The k-th raw draw mixes
# state0 + k * _GAMMA; uniforms take the top 53 bits.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


class Rng:
    """Deterministic SplitMix64 stream.

    * ``uniform``: top 53 bits of the mixed state, in [0, 1).
    * ``standard_normal``: Box-Muller on consecutive uniform pairs (u1, u2),
      radius sqrt(-2 ln(1 - u1)), angle 2 pi u2; pairs are emitted in order
      (cos, sin) and multi-dimensional shapes fill row-major.
    * ``signs``: +1 where uniform < 1/2, else -1.

    Default seed 42.
    """

    def __init__(self, seed: int = 42):
        self.seed = int(seed)
        self._state = np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)

    def _raw(self, n: int) -> np.ndarray:
        # uint64 arithmetic wraps mod 2^64 by design; silence numpy's warning.
        # In place, one scratch buffer: z = state + k * gamma, then the three
        # xor-shift-multiply rounds of the mix.
        with np.errstate(over="ignore"):
            z = np.arange(1, n + 1, dtype=np.uint64)
            z *= _GAMMA
            z += self._state
            self._state = np.uint64(self._state + np.uint64(n) * _GAMMA)
            t = np.right_shift(z, _S30)
            z ^= t
            z *= _MIX1
            z ^= np.right_shift(z, _S27, out=t)
            z *= _MIX2
            z ^= np.right_shift(z, _S31, out=t)
        return z

    def uniform(self, size=None) -> np.ndarray | float:
        if size is None:
            return float(self._raw(1)[0] >> np.uint64(11)) * _U53
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape))
        z = self._raw(n)
        z >>= _S11
        # the top 53 bits convert to float64 exactly, and the scale is a power of 2
        u = np.multiply(z, _U53, dtype=np.float64)
        return u.reshape(shape)

    def standard_normal(self, size=None) -> np.ndarray | float:
        if size is None:
            return float(self.standard_normal(1)[0])
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape))
        m = (n + 1) // 2
        z = self.uniform(2 * m)
        # r = sqrt(-2 ln(1 - u1)), theta = 2 pi u2, z = (r cos theta, r sin theta);
        # the transcendental ufuncs see contiguous operands, as they always have
        r = np.negative(z[0::2])
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = z[1::2] * (2.0 * np.pi)
        trig = np.cos(theta)
        trig *= r
        z[0::2] = trig
        np.sin(theta, out=trig)
        trig *= r
        z[1::2] = trig
        return z[:n].reshape(shape)

    def signs(self, size=None) -> np.ndarray | float:
        u = self.uniform(size)
        return np.where(u < 0.5, 1.0, -1.0) if size is not None else (1.0 if u < 0.5 else -1.0)


# Start-vector seed and iteration cap of every power iteration.
_EIG_SEED = 0x51AB5EED
_POWER_MAX_ITER = 100_000


class EigenEstimateError(RuntimeError):
    """Power iteration failed to converge."""


def _power_iteration(
    matvec: Callable[[Vector], Vector], dim: int, tol: float, max_iter: int, rng: Rng
) -> float:
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam_prev = np.inf
    for _ in range(max_iter):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam = float(v @ w)
        v = w / nw
        if abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return lam
        lam_prev = lam
    raise EigenEstimateError(f"power iteration did not converge in {max_iter} iterations")


def estimate_extreme_eigs(
    matvec: Callable[[Vector], Vector],
    dim: int,
    tol: float = 1e-10,
    max_iter: int = _POWER_MAX_ITER,
) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric PSD operator.

    lambda_max by power iteration; lambda_min by power iteration on the
    shifted operator lambda_max * I - A.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    rng = Rng(_EIG_SEED)
    lam_max = _power_iteration(matvec, dim, tol, max_iter, rng)
    spread = _power_iteration(lambda v: lam_max * v - matvec(v), dim, tol, max_iter, rng)
    return lam_max - spread, lam_max


def _gram_lambda_max(A: np.ndarray, tol: float) -> float:
    """lambda_max(A^T A), bit for bit ``estimate_extreme_eigs(...)[1]``
    without the lambda_min pass the builders do not use."""
    return _power_iteration(lambda w: A.T @ (A @ w), A.shape[1], tol,
                            _POWER_MAX_ITER, Rng(_EIG_SEED))


class QuadraticObjective:
    """f(x) = 1/2 (x - c)^T A (x - c) for a sparse SPD matrix A (CSR); c is a
    private read-only copy, and when it is all +0.0 the residual is x itself."""

    def __init__(self, matrix: sp.spmatrix, center: Vector, mu: float,
                 lipschitz: float, description: Optional[dict] = None):
        self.matrix = sp.csr_matrix(matrix)
        self.center = np.array(center, dtype=np.float64)
        self.center.flags.writeable = False
        self._zero_center = all_positive_zero(self.center)
        self.dim = self.center.size
        self.mu = float(mu)
        self.lipschitz = float(lipschitz)
        self.hessian_lipschitz = 0.0
        self.minimizer: Optional[Vector] = self.center
        self._description = description

    def _residual(self, x: Vector) -> Vector:
        if self._zero_center:
            return np.ascontiguousarray(x, dtype=np.float64)
        return x - self.center

    def value(self, x: Vector) -> float:
        r = self._residual(x)
        return 0.5 * float(r @ (self.matrix @ r))

    def gradient(self, x: Vector) -> Vector:
        return self.matrix @ self._residual(x)

    def value_and_gradient(self, x: Vector) -> tuple[float, Vector]:
        # g = A (x - c), so 1/2 (x - c) . g is value(x) bit for bit without
        # a second matvec
        g = self.gradient(x)
        return 0.5 * float(self._residual(x) @ g), g

    def description(self) -> dict:
        if self._description is None:
            raise ValueError("this quadratic was built ad hoc and has no description")
        return dict(self._description)


def build_laplacian2d(n: int = 39) -> QuadraticObjective:
    """Five-point FD Laplacian on the unit square, n x n interior grid.

    Dirichlet boundary, spacing h = 1/(n+1), target point x* = 0.  Extreme
    eigenvalues are analytic: mu = (8/h^2) sin^2(pi h / 2) and
    L = (8/h^2) cos^2(pi h / 2), so kappa = cot^2(pi h / 2) = O(h^-2).
    """
    if n < 1:
        raise ValueError(f"grid parameter must be >= 1, got {n}")
    h = 1.0 / (n + 1)
    K = sp.diags([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    A = (sp.kron(eye, K) + sp.kron(K, eye)) / h**2
    mu = (8.0 / h**2) * np.sin(0.5 * np.pi * h) ** 2
    lipschitz = (8.0 / h**2) * np.cos(0.5 * np.pi * h) ** 2
    return QuadraticObjective(
        A.tocsr(), np.zeros(n * n), mu, lipschitz,
        description={"kind": "laplacian2d", "n": int(n)},
    )


# Smooth one-sided penalty h(t) = t^2/2 * exp(-eps/t) for t > 0, else 0.
# exp(-eps/t) underflows for t < eps/709 (double exponent floor); the
# analytic limit there is 0, so the cutoff returns it directly.

def _on_support(t, eps: float, formula: Callable[[np.ndarray], np.ndarray]):
    """formula(t) where t > eps/709, and 0 elsewhere."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    m = t > eps / 709.0
    out[m] = formula(t[m])
    return out


def piecewise_h(t, eps: float):
    return _on_support(t, eps, lambda tm: 0.5 * tm**2 * np.exp(-eps / tm))


def piecewise_h_prime(t, eps: float):
    return _on_support(t, eps, lambda tm: np.exp(-eps / tm) * (tm + 0.5 * eps))


def piecewise_h_second(t, eps: float):
    return _on_support(
        t, eps, lambda tm: np.exp(-eps / tm) * (1.0 + eps / tm + 0.5 * (eps / tm) ** 2))


class PiecewiseSmoothObjective(ObjectiveLike):
    """f(x) = sum_i h(a_i . x - b_i) + mu/2 ||x||^2 with h as above.

    The columns a_i are scaled so that ||A||_2 = sqrt(L - mu); since
    sup h'' = 1 this makes f mu-strongly convex and L-smooth.
    """

    def __init__(self, A: np.ndarray, b: Vector, mu: float, lipschitz: float,
                 eps: float, description: Optional[dict] = None):
        self.A = np.asarray(A, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.dim, self.p = self.A.shape
        self.mu = float(mu)
        self.lipschitz = float(lipschitz)
        self.eps = float(eps)
        self.hessian_lipschitz: Optional[float] = None
        self.minimizer: Optional[Vector] = None
        self._description = description

    def value(self, x: Vector) -> float:
        t = self.A.T @ x - self.b
        return float(piecewise_h(t, self.eps).sum() + 0.5 * self.mu * (x @ x))

    def gradient(self, x: Vector) -> Vector:
        t = self.A.T @ x - self.b
        return self.A @ piecewise_h_prime(t, self.eps) + self.mu * x

    def description(self) -> dict:
        return dict(self._description)


def build_piecewise(
    d: int = 100,
    p: int = 5,
    mu: float = 1.0,
    lipschitz: float = 1e4,
    eps: float = 1e-6,
    seed: int = 42,
) -> PiecewiseSmoothObjective:
    """Seeded piecewise problem; defaults mu=1, L=1e4, d=100, p=5, eps=1e-6.

    Stream order: the d*p entries of A (row-major), then the p entries of b;
    A is then rescaled to spectral norm sqrt(L - mu).
    """
    if d < 1 or p < 1:
        raise ValueError("d and p must be >= 1")
    if not (0.0 < mu < lipschitz):
        raise ValueError("need 0 < mu < lipschitz")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not np.isfinite([mu, lipschitz, eps]).all():
        raise ValueError(f"need finite mu, lipschitz and eps, got {mu}, {lipschitz}, {eps}")
    rng = Rng(seed)
    A = rng.standard_normal((d, p))
    b = rng.standard_normal(p)
    gram_max = _gram_lambda_max(A, 1e-13)
    A *= np.sqrt((lipschitz - mu) / gram_max)
    return PiecewiseSmoothObjective(
        A, b, mu, lipschitz, eps,
        description={"kind": "piecewise", "d": int(d), "p": int(p), "mu": mu,
                     "lipschitz": lipschitz, "eps": eps, "seed": int(seed)},
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # evaluate 1 / (1 + e^-z) through exp of negative magnitudes only
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticObjective(ObjectiveLike):
    """l2-regularized logistic regression over m labelled columns a_i.

    f(x) = sum_i log(1 + exp(-b_i a_i . x)) + lam/2 ||x||^2, labels in {-1,+1}.
    mu = lam, L = lambda_max(sum a_i a_i^T) + lam, and the Hessian is
    Lipschitz with constant 0.11 * sum ||a_i||^3.
    """

    def __init__(self, A: np.ndarray, b: Vector, lam: float, lipschitz: float,
                 description: Optional[dict] = None):
        self.A = np.asarray(A, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.dim, self.m = self.A.shape
        self.lam = float(lam)
        self.mu = float(lam)
        self.lipschitz = float(lipschitz)
        norms = np.linalg.norm(self.A, axis=0)
        self.hessian_lipschitz = 0.11 * float((norms**3).sum())
        self.minimizer: Optional[Vector] = None
        self._description = description

    def value(self, x: Vector) -> float:
        s = self.b * (self.A.T @ x)
        return float(np.logaddexp(0.0, -s).sum() + 0.5 * self.lam * (x @ x))

    def gradient(self, x: Vector) -> Vector:
        s = self.b * (self.A.T @ x)
        return self.A @ (-self.b * _sigmoid(-s)) + self.lam * x

    def description(self) -> dict:
        return dict(self._description)


def build_logistic(
    d: int = 1000, m: int = 50, lam: float = 0.1, seed: int = 42
) -> LogisticObjective:
    """Seeded logistic problem; defaults lam=0.1, d=1000, m=50.

    Stream order: the d*m entries of A (row-major), then the m labels.
    """
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    rng = Rng(seed)
    A = rng.standard_normal((d, m))
    b = rng.signs(m)
    gram_max = _gram_lambda_max(A, 1e-12)
    return LogisticObjective(
        A, b, lam, gram_max + lam,
        description={"kind": "logistic", "d": int(d), "m": int(m),
                     "lam": lam, "seed": int(seed)},
    )


# Problem kind -> builder; a description is the kind plus the builder's arguments.
BUILDERS: dict[str, Callable[..., ObjectiveLike]] = {
    "laplacian2d": build_laplacian2d,
    "piecewise": build_piecewise,
    "logistic": build_logistic,
}


def rebuild(description: dict) -> ObjectiveLike:
    """Reconstruct a problem bitwise-identically from its description."""
    args = dict(description)
    kind = args.pop("kind", None)
    if kind not in BUILDERS:
        raise ValueError(f"unknown problem kind {kind!r}")
    return BUILDERS[kind](**args)


def check_gradient(f: ObjectiveLike, x: Vector) -> float:
    """Max per-coordinate relative error of grad f against central differences.

    Step 1e-6 * (1 + ||x||); relative to 1 + |gradient coordinate|.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (f.dim,):
        raise DimensionError(f"x has shape {x.shape}, expected ({f.dim},)")
    g = f.gradient(x)
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    worst = 0.0
    e = np.zeros_like(x)
    for i in range(f.dim):
        e[i] = h
        fd = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
        e[i] = 0.0
        worst = max(worst, abs(fd - g[i]) / (1.0 + abs(g[i])))
    return worst
