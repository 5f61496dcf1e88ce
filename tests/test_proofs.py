"""The three dissipation inequalities of ``strong_lyapunov_terms``, proved
over all of F(mu, L), and the proof's identity checked on the code.

S(p, q) >= 0 is the F(mu, L) interpolation inequality (Taylor, Hendrickx &
Glineur 2017, Thm. 4), which every mu-strongly convex, L-smooth f satisfies
at every pair of points:

    f(p) - f(q) - <grad f(q), p - q> - (||grad f(p) - grad f(q)||^2 / L
        + mu ||p - q||^2 - (2 mu / L) <grad f(p) - grad f(q), p - q>) / (2 (1 - mu / L))

For each energy, lhs - rhs = lam S(x*, x) + q^T M q + c <grad f(x*), x - x*>
with q = (x - x*, y - x*, grad f(x) - grad f(x*)), lam >= 0 and M >= 0, so
lhs >= rhs at an exact minimizer, in any dimension; det M = 0, so the bound
is tight.  The last term is there because the code's energy gradient takes
grad f(x*) = 0 while its Bregman terms keep it; x* is inexact on the
nonquadratics.  E_PARTIAL's mu_hat is (1 - s^2) mu, with s in [0, 1].
"""

import itertools

import numpy as np
import pytest
import sympy as sp

from agmx import LyapunovKind, Rng, flow_beta, minimizer_anchor, strong_lyapunov_terms

KINDS = list(LyapunovKind)
L, mu, beta, e = sp.symbols("L mu beta e", positive=True)
s = sp.Symbol("s", nonnegative=True)
fx, fstar = sp.symbols("f_x f_star")
# x* = 0: a vector is its coordinates over (x, y, grad f(x), grad f(x*)), and
# <u, v> = u^T G v with G their Gram matrix
BASIS = ("x", "y", "g", "gstar")
G = sp.Matrix(4, 4, lambda i, j: sp.Symbol(f"G_{BASIS[min(i, j)]}_{BASIS[max(i, j)]}"))
X, Y, GRAD, GSTAR = (sp.eye(4)[:, i] for i in range(4))


def dot(u, v):
    return (u.T * G * v)[0]


def decomposition(kind, mu, L, s):
    """(lam, M, c) of kind's lhs - rhs; for sympy symbols or floats."""
    if kind is LyapunovKind.E_PARTIAL:
        return s, [[mu * s * (L * s**2 - mu * s**2 + mu) / (2 * (L - mu)), -mu * s**2 / 2,
                    -mu * s / (2 * (L - mu))],
                   [-mu * s**2 / 2, mu * s / 2, 0],
                   [-mu * s / (2 * (L - mu)), 0, s / (2 * (L - mu))]], 1
    # E_HNAG: S(x*, x) + ||mu (x - x*) - grad f(x)||^2 / (2 (L - mu)); E_HNAG_PLUS twice that
    w = 1 if kind is LyapunovKind.E_HNAG else 2
    k = w / (2 * (L - mu))
    return w, [[k * mu**2, 0, -k * mu], [0, 0, 0], [-k * mu, 0, k]], w


def decomposed_gap(kind, mu, L, s, dot, dx, dy, g, gstar, value, fstar):
    """lam S(x*, x) + q^T M q + c <grad f(x*), x - x*> from f(x), grad f(x)
    and the anchor; for sympy symbols or floats, ``dot`` the inner product."""
    lam, M, c = decomposition(kind, mu, L, s)
    h = g - gstar
    interpolation = fstar - value + dot(g, dx) - (
        dot(h, h) / L + mu * dot(dx, dx) - 2 * mu / L * dot(h, dx)) / (2 * (1 - mu / L))
    q = (dx, dy, h)
    quadratic = sum(M[i][j] * dot(q[i], q[j]) for i in range(3) for j in range(3))
    return lam * interpolation + quadratic + c * dot(gstar, dx)


def transcribed_gap(kind):
    """lhs - rhs of the flow's dissipation bound, from its definition: the
    energy E = D_{f - shift}(x, x*) + w ||y - x*||^2, the flow
    G = (c (y - x) - beta grad f(x), (x - y) - grad f(x) / mu) and the bound."""
    shift, w, c = {LyapunovKind.E_HNAG: (0, mu / 2, 1), LyapunovKind.E_HNAG_PLUS: (mu, mu, 2),
                   LyapunovKind.E_PARTIAL: ((1 - s**2) * mu, mu / 2, 1)}[kind]
    energy = fx - fstar - dot(GSTAR, X) - shift / 2 * dot(X, X) + w * dot(Y, Y)
    grad_x, grad_y = GRAD - shift * X, 2 * w * Y      # grad f(x*) taken as 0
    lhs = -(dot(grad_x, c * (Y - X) - beta * GRAD) + dot(grad_y, (X - Y) - GRAD / mu))
    if kind is LyapunovKind.E_HNAG:
        return sp.expand(lhs - energy - beta * dot(GRAD, GRAD) - mu / 2 * dot(X - Y, X - Y))
    head = 2 * energy
    if kind is LyapunovKind.E_PARTIAL:
        root = sp.sqrt(sp.cancel((mu - (1 - s**2) * mu) / mu))
        asymmetry = (fstar - fx + dot(GRAD, X)) - (fx - fstar - dot(GSTAR, X))
        head = (2 - root) * energy + (1 - root) * asymmetry
    return sp.expand(lhs - head - beta * dot(grad_x, grad_x) - beta * shift * dot(grad_x, X))


def nonnegative(expr):
    """A sufficient test of expr >= 0 for L > mu > 0 and s >= 0: with
    L = mu + e, a ratio of polynomials in mu, e and s whose coefficients are
    all >= 0."""
    num, den = sp.fraction(sp.cancel(sp.sympify(expr).subs(L, mu + e)))
    return all(sp.Poly(p, mu, e, s).is_zero or min(sp.Poly(p, mu, e, s).coeffs()) >= 0
               for p in (num, den))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_gap_is_the_decomposition(kind):
    gap = transcribed_gap(kind)
    assert not gap.has(beta) and not gap.has(L)     # no sweep tests beta or L
    form = decomposed_gap(kind, mu, L, s, dot, X, Y, GRAD, GSTAR, fx, fstar)
    assert sp.cancel(gap - form) == 0
    if kind is LyapunovKind.E_PARTIAL:      # mu_hat = mu: an identity
        assert sp.expand(gap.subs(s, 0) - dot(GSTAR, X)) == 0
    else:                                   # y cancels
        assert not any(gap.has(G[1, j]) for j in range(4))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_bound_holds_over_the_class_and_is_tight(kind):
    lam, M, _ = decomposition(kind, mu, L, s)
    M = sp.Matrix(M)
    # clear denominators first: P = den M has polynomial entries, den > 0, and
    # its minors have the signs of M's
    den = sp.lcm_list([sp.fraction(sp.cancel(m))[1] for m in M])
    P = (den * M).applyfunc(sp.cancel)
    assert nonnegative(lam) and nonnegative(den)
    for k in (1, 2, 3):
        for rows in itertools.combinations(range(3), k):
            assert nonnegative(P.extract(list(rows), list(rows)).det())
    assert sp.expand(P.det()) == 0


@pytest.mark.parametrize("name", ["lap19", "piecewise_default", "logistic_default"])
@pytest.mark.parametrize("kind, frac", [(LyapunovKind.E_HNAG, 0.0),
                                        (LyapunovKind.E_HNAG_PLUS, 0.0),
                                        *((LyapunovKind.E_PARTIAL, frac)
                                          for frac in (0.0, 0.5, 0.99, 1.0))],
                         ids=lambda v: v.value if isinstance(v, LyapunovKind) else f"{v:g}")
def test_code_gap_is_the_decomposition(name, kind, frac, request):
    f = request.getfixturevalue(name)
    a = minimizer_anchor(f)
    beta_f, mu_hat = flow_beta(kind, f), frac * f.mu
    s_f = np.sqrt((f.mu - mu_hat) / f.mu)
    scales = np.tile([1e-3, 1e-1, 1.0, 10.0], 2)[:, None]
    rng = Rng(11)
    xs, ys = (a.xstar + scales * rng.standard_normal((8, f.dim)) for _ in range(2))
    block = strong_lyapunov_terms(kind, f, xs, ys, beta_f, mu_hat, anchor=a)
    for i, (x, y) in enumerate(zip(xs, ys)):
        lhs, rhs = strong_lyapunov_terms(kind, f, x, y, beta_f, mu_hat)
        assert (lhs, rhs) == (block[0][i], block[1][i])
        value, g = f.value_and_gradient(x)
        dx, dy = x - a.xstar, y - a.xstar
        form = decomposed_gap(kind, f.mu, f.lipschitz, s_f, np.dot, dx, dy, g, a.gstar,
                              value, a.fstar)
        # each side sums a few dozen rounded terms, none larger than scale:
        # f(x), f(x*), lhs, rhs and mu (|dx| + |dy| + |h| / mu)^2 (measured
        # worst: 0.35 eps scale); allow 16 eps scale
        norms = [np.linalg.norm(v) for v in (dx, dy, g - a.gstar)]
        scale = (abs(value) + abs(a.fstar) + abs(lhs) + abs(rhs)
                 + f.mu * (norms[0] + norms[1] + norms[2] / f.mu) ** 2)
        assert abs((lhs - rhs) - form) <= 16 * np.finfo(float).eps * scale
