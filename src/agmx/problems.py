"""Seeded benchmark problems: FD Laplacian quadratic, smooth piecewise sum,
and l2-regularized logistic regression.

Reproducibility contract
------------------------
All randomness flows through :class:`Rng`, a SplitMix64 generator with the
constants pinned below, so the same seed rebuilds the same problem bit for
bit on any platform.  Consumption order is documented per builder; matrices
are regenerated from {kind, dims, seed, parameters} descriptions rather than
stored (see :func:`rebuild`).

Only numpy is imported: the Laplacian is a matrix-free stencil, and scipy
loads for a quadratic's ``.matrix`` or a sparse or dense input.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable, Optional

import numpy as np

from .core import DimensionError, ObjectiveLike, Vector, _check_dims, all_positive_zero

# SplitMix64 constants (Steele, Lea, Flood 2014). The k-th raw draw mixes
# state0 + k * _GAMMA; uniforms take the top 53 bits.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
_MASK64 = 0xFFFFFFFFFFFFFFFF
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


class Rng:
    """Deterministic SplitMix64 stream.

    * ``uniform``: top 53 bits of the mixed state, in [0, 1).
    * ``standard_normal``: Box-Muller on consecutive uniform pairs (u1, u2),
      radius sqrt(-2 ln(1 - u1)), angle 2 pi u2; pairs are emitted in order
      (cos, sin) and multi-dimensional shapes fill row-major.
    * ``signs``: +1 where uniform < 1/2, else -1.

    Default seed 42.  A stream is not shared between threads.
    """

    def __init__(self, seed: int = 42):
        self._state = int(seed) & _MASK64

    def _raw(self, n: int) -> np.ndarray:
        # In place, one scratch buffer: z = state + k * gamma, then the three
        # xor-shift-multiply rounds of the mix.  uint64 arrays wrap mod 2^64
        # silently; the state is a Python int masked to 64 bits.
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GAMMA
        z += np.uint64(self._state)
        self.jump(n)
        t = np.right_shift(z, _S30)
        z ^= t
        z *= _MIX1
        z ^= np.right_shift(z, _S27, out=t)
        z *= _MIX2
        z ^= np.right_shift(z, _S31, out=t)
        return z

    def jump(self, n: int) -> None:
        """Move the stream n uniforms ahead, where drawing them would leave it.

        A standard-normal draw of m values consumes m + m % 2 uniforms.
        """
        self._state = (self._state + int(n) * int(_GAMMA)) & _MASK64

    def uniform(self, size=None) -> np.ndarray | float:
        if size is None:
            return float(self._raw(1)[0] >> _S11) * _U53
        shape = (size,) if np.isscalar(size) else tuple(size)
        z = self._raw(math.prod(shape))
        z >>= _S11
        # the top 53 bits convert to float64 exactly, and the scale is a power of 2
        u = np.multiply(z, _U53, dtype=np.float64)
        return u.reshape(shape)

    def standard_normal(self, size=None) -> np.ndarray | float:
        if size is None:
            return float(self.standard_normal(1)[0])
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = math.prod(shape)
        z = self.uniform(n + n % 2)
        # r = sqrt(-2 ln(1 - u1)), theta = 2 pi u2, z = (r cos theta, r sin theta);
        # the transcendental ufuncs see contiguous operands, as they always have
        r = np.negative(z[0::2])
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = z[1::2] * (2.0 * np.pi)
        np.multiply(r, np.cos(theta), out=z[0::2])
        np.multiply(r, np.sin(theta, out=theta), out=z[1::2])
        return z[:n].reshape(shape)

    def signs(self, size=None) -> np.ndarray | float:
        u = self.uniform(size)
        return np.where(u < 0.5, 1.0, -1.0) if size is not None else (1.0 if u < 0.5 else -1.0)


# Start-vector seed and iteration cap of the power iterations of
# estimate_extreme_eigs, their only user.
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


class _StencilScratch(threading.local):
    """A thread's two scratch d-vectors for ``_Stencil5``: off * x; diag * x,
    which also holds the saved edge entries.  They live as long as the
    thread, since d-sized temporaries made per call are returned to the OS
    and faulted back in."""

    def __init__(self, d: int):
        self.t, self.s = np.empty(d), np.empty(d)


class _Stencil5:
    """The 5-point Laplacian on the flat n x n grid, matrix-free.

    ``A @ x`` rounds each row as the CSR matvec of the kron build does: the
    sum starts at +0.0 and adds the products with -1/h^2 and 4/h^2 in column
    order i-n, i-1, i, i+1, i+n.  Each call allocates only its result, and
    threads may share one operator: each keeps its own scratch vectors.
    """

    def __init__(self, n: int, h: float):
        self.n, self.h = n, h
        self._off, self._diag = -1.0 / h**2, 4.0 / h**2
        self._scratch = _StencilScratch(n * n)

    def __matmul__(self, x: Vector) -> Vector:
        n, d = self.n, self.n * self.n
        t, s = self._scratch.t, self._scratch.s
        if np.shape(x) != (d,):
            raise DimensionError(f"expected shape ({d},), got {np.shape(x)}")
        out = np.zeros(d)
        # whole-array contiguous passes; the CSR loop is silent on inf and NaN
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(x, self._off, out=t)
            out[n:] += t[:d - n]
            # a +-1 shift wraps across grid rows: restore the first or the
            # last column, which has no such neighbour
            s[:n] = out[::n]
            out[1:] += t[:d - 1]
            out[::n] = s[:n]
            out += np.multiply(x, self._diag, out=s)
            s[:n] = out[n - 1::n]
            out[:d - 1] += t[1:]
            out[n - 1::n] = s[:n]
            out[:d - n] += t[n:]
        return out

    def tocsr(self):
        """The kron-built CSR matrix, explicit zeros removed: the kron build
        stores some for n in 2..5, whose 0 * inf products would be NaN."""
        import scipy.sparse as sp

        K = sp.diags([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(self.n, self.n))
        eye = sp.identity(self.n)
        A = sp.csr_matrix(((sp.kron(eye, K) + sp.kron(K, eye)) / self.h**2).tocsr())
        A.eliminate_zeros()
        return A


class _Problem(ObjectiveLike):
    """An objective a builder made: ``description()`` is its kind and builder
    arguments.  This constructor sets the whole ``ObjectiveLike`` surface."""

    def __init__(self, dim: int, mu: float, lipschitz: float,
                 hessian_lipschitz: Optional[float], minimizer: Optional[Vector],
                 description: Optional[dict]):
        self.dim = dim
        self.mu = float(mu)
        self.lipschitz = float(lipschitz)
        self.hessian_lipschitz = hessian_lipschitz
        self.minimizer = minimizer
        self._description = description

    def description(self) -> dict:
        if self._description is None:
            raise ValueError(f"this {type(self).__name__} was built ad hoc and has no description")
        return dict(self._description)


class QuadraticObjective(_Problem):
    """f(x) = 1/2 (x - c)^T A (x - c) for an SPD A; c is a private read-only
    copy, and when it is all +0.0 the residual is x itself.

    A sparse or dense ``matrix`` is held as scipy CSR; the Laplacian's
    matrix-free stencil is used as it is.
    """

    def __init__(self, matrix, center: Vector, mu: float,
                 lipschitz: float, description: Optional[dict] = None):
        if isinstance(matrix, _Stencil5):
            self._op = matrix
        else:
            import scipy.sparse as sp

            self._op = sp.csr_matrix(matrix)
        self.center = np.array(center, dtype=np.float64)
        self.center.flags.writeable = False
        self._zero_center = all_positive_zero(self.center)
        super().__init__(self.center.size, mu, lipschitz, 0.0, self.center, description)

    @functools.cached_property
    def matrix(self):
        """A as scipy CSR (the stencil's is built on first read)."""
        return self._op.tocsr()

    def _residual(self, x: Vector) -> Vector:
        if self._zero_center:
            return np.ascontiguousarray(x, dtype=np.float64)
        return x - self.center

    def value(self, x: Vector) -> float:
        r = self._residual(x)
        return 0.5 * float(r @ (self._op @ r))

    def gradient(self, x: Vector) -> Vector:
        return self._op @ self._residual(x)

    def value_and_gradient(self, x: Vector) -> tuple[float, Vector]:
        # g = A (x - c), so 1/2 (x - c) . g is value(x) bit for bit without
        # a second matvec
        g = self.gradient(x)
        return 0.5 * float(self._residual(x) @ g), g


def build_laplacian2d(n: int = 39) -> QuadraticObjective:
    """Five-point FD Laplacian on the unit square, n x n interior grid.

    Dirichlet boundary, spacing h = 1/(n+1), target point x* = 0.  Extreme
    eigenvalues are analytic: mu = (8/h^2) sin^2(pi h / 2) and
    L = (8/h^2) cos^2(pi h / 2), so kappa = cot^2(pi h / 2) = O(h^-2).
    The operator is the matrix-free stencil; ``.matrix`` builds the CSR
    (kron(I, K) + kron(K, I)) / h^2 on first read.
    """
    if n < 1:
        raise ValueError(f"grid parameter must be >= 1, got {n}")
    h = 1.0 / (n + 1)
    mu = (8.0 / h**2) * np.sin(0.5 * np.pi * h) ** 2
    lipschitz = (8.0 / h**2) * np.cos(0.5 * np.pi * h) ** 2
    return QuadraticObjective(
        _Stencil5(n, h), np.zeros(n * n), mu, lipschitz,
        description={"kind": "laplacian2d", "n": int(n)},
    )


# Smooth one-sided penalty h(t) = t^2/2 * exp(-eps/t) for t > 0, else 0.
# exp(-eps/t) underflows for t < eps/709 (double exponent floor); the
# analytic limit there is 0, so the cutoff returns it directly.

def _on_support(t, eps: float, formula: Callable[[np.ndarray], np.ndarray]):
    """formula(t) where t > eps/709, and 0 elsewhere."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    m = t > eps / 709.0
    out[m] = formula(t[m])
    return out


def piecewise_h(t, eps: float):
    return _on_support(t, eps, lambda tm: 0.5 * tm**2 * np.exp(-eps / tm))


def piecewise_h_prime(t, eps: float):
    return _on_support(t, eps, lambda tm: np.exp(-eps / tm) * (tm + 0.5 * eps))


class PiecewiseSmoothObjective(_Problem):
    """f(x) = sum_i h(a_i . x - b_i) + mu/2 ||x||^2 with h as above.

    The columns a_i are scaled so that ||A||_2 = sqrt(L - mu); since
    sup h'' = 1 this makes f mu-strongly convex and L-smooth.
    """

    def __init__(self, A: np.ndarray, b: Vector, mu: float, lipschitz: float,
                 eps: float, description: Optional[dict] = None):
        self.A = np.asarray(A, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.eps = float(eps)
        super().__init__(self.A.shape[0], mu, lipschitz, None, None, description)

    def value(self, x: Vector) -> float:
        t = self.A.T @ x - self.b
        return float(piecewise_h(t, self.eps).sum() + 0.5 * self.mu * (x @ x))

    def gradient(self, x: Vector) -> Vector:
        t = self.A.T @ x - self.b
        return self.A @ piecewise_h_prime(t, self.eps) + self.mu * x


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
    A is then rescaled to spectral norm sqrt(L - mu), with lambda_max(A^T A)
    from a dense symmetric eigensolve of the p x p Gram matrix.
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
    gram_max = float(np.linalg.eigvalsh(A.T @ A)[-1])
    A *= np.sqrt((lipschitz - mu) / gram_max)
    return PiecewiseSmoothObjective(
        A, b, mu, lipschitz, eps,
        description={"kind": "piecewise", "d": int(d), "p": int(p), "mu": mu,
                     "lipschitz": lipschitz, "eps": eps, "seed": int(seed)},
    )


def _sigmoid_neg(s: np.ndarray) -> np.ndarray:
    """sigma(-s) = 1 / (1 + e^s), through exp of negative magnitudes only:
    with e = exp(-|s|), e / (1 + e) where s > 0 and 1 / (1 + e) elsewhere,
    each rounded as the branch of a masked evaluation."""
    e = np.copysign(s, -1.0)
    np.exp(e, out=e)
    out = np.where(s > 0.0, e, 1.0)
    e += 1.0
    out /= e
    return out


class LogisticObjective(_Problem):
    """l2-regularized logistic regression over m labelled columns a_i.

    f(x) = sum_i log(1 + exp(-b_i a_i . x)) + mu/2 ||x||^2, labels in {-1,+1},
    where mu is the builder's ridge weight lam.  L = lambda_max(sum a_i a_i^T)
    + mu (the builder takes it from the eigenvalues of the m x m Gram matrix
    A^T A), and the Hessian is Lipschitz with constant 0.11 * sum ||a_i||^3.
    """

    def __init__(self, A: np.ndarray, b: Vector, mu: float, lipschitz: float,
                 description: Optional[dict] = None):
        self.A = np.asarray(A, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        norms = np.linalg.norm(self.A, axis=0)
        super().__init__(self.A.shape[0], mu, lipschitz, 0.11 * float((norms**3).sum()),
                         None, description)

    def value(self, x: Vector) -> float:
        s = self.b * (self.A.T @ x)
        return float(np.logaddexp(0.0, -s).sum() + 0.5 * self.mu * (x @ x))

    def gradient(self, x: Vector) -> Vector:
        s = self.b * (self.A.T @ x)
        return self.A @ (-self.b * _sigmoid_neg(s)) + self.mu * x


def build_logistic(
    d: int = 1000, m: int = 50, lam: float = 0.1, seed: int = 42
) -> LogisticObjective:
    """Seeded logistic problem; defaults lam=0.1, d=1000, m=50.

    Stream order: the d*m entries of A (row-major), then the m labels.
    L is lam plus lambda_max(A^T A) from a dense symmetric eigensolve of the
    m x m Gram matrix.
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
    gram_max = float(np.linalg.eigvalsh(A.T @ A)[-1])
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
    _check_dims(f, x)
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
