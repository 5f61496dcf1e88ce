"""Acceptance suite: one test per numbered criterion, one printed line each.

Criterion 5's tail-rate check is expected to fail at kappa = 100: the exact
asymptotic per-step factor of the scheme on any quadratic whose spectrum
attains mu is (1 + sqrt(2/kappa))^-2, whose gap to the leading-order target
2*sqrt(2/kappa) is about 3/2 * sqrt(2/kappa) relative — 17.8% at kappa = 100,
far outside the 5% band (which the two larger kappa values do satisfy).  The
test states the requirement faithfully and reports the measured numbers.
"""

import numpy as np
import pytest

import agmx
from agmx import (
    ContractionTheorem,
    LyapunovKind,
    MethodKind,
    SolverConfig,
    asymmetry_bound_check,
    contraction_residuals,
    estimate_rate,
    shift_schedule,
    solve,
    strong_lyapunov_terms,
)

from _helpers import geomspace_quadratic

ALL_METHODS = list(MethodKind)
RACE_METHODS = [MethodKind.HNAG, MethodKind.HNAG_PLUS, MethodKind.TM, MethodKind.NAG]
SEED = 42


def _announce(num, text):
    print(f"\n[acceptance] criterion {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def trio(problem_trio):
    return problem_trio


@pytest.fixture(scope="module")
def hnag_traces(trio):
    cfg = SolverConfig(method=MethodKind.HNAG, tol_rel_grad=1e-8)
    return {
        name: solve(f, cfg, agmx.Rng(SEED).uniform(f.dim))
        for name, f in trio.items()
    }


def _drift_after_100_steps(f, method):
    from agmx.solvers import init_state, make_params, step

    xstar = np.asarray(f.minimizer)
    p = make_params(method, f.mu, f.lipschitz)
    st = init_state(method, f, xstar, p)
    for _ in range(100):
        st = step(method, st, f, p)
    return float(np.linalg.norm(st.x - xstar))


def test_criterion_01_fixed_points(trio):
    """Every method holds the minimizer for 100 steps on all three families.

    The quadratic family has an exact stationary point and all five methods
    must hold it.  The other two families only have oracle minimizers with a
    ~1e-12-relative gradient residual; the methods must stay within that
    residual's scale.
    """
    for method in ALL_METHODS:
        drift = _drift_after_100_steps(trio["laplacian2d"], method)
        assert drift <= 1e-14, ("laplacian2d", method, drift)
    for name in ("piecewise", "logistic"):
        f = trio[name]
        xstar = np.asarray(f.minimizer)
        g_res = float(np.linalg.norm(f.gradient(xstar)))
        tol = 1e-12 * (1.0 + float(np.linalg.norm(xstar))) + 4.0 * g_res / f.mu
        for method in ALL_METHODS:
            drift = _drift_after_100_steps(f, method)
            assert drift <= tol, (name, method, drift, tol)
    _announce(1, "exact fixed point held by all 5 methods; oracle fixed points "
                 "held by all 5 on both nonquadratic families")


def test_criterion_02_gradient_correctness(lap9, trio):
    """check_gradient <= 1e-6 at 20 seeded points per problem family."""
    worst = {}
    for name, f in [("laplacian2d", lap9),
                    ("piecewise", trio["piecewise"]),
                    ("logistic", trio["logistic"])]:
        rng = agmx.Rng(2025)
        errs = [agmx.check_gradient(f, rng.standard_normal(f.dim)) for _ in range(20)]
        worst[name] = max(errs)
        assert worst[name] <= 1e-6, (name, worst[name])
    _announce(2, "max finite-difference gradient error "
                 + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_03_hnag_contraction(trio, hnag_traces):
    """Unshifted-energy contraction at rate (1+sqrt(2/kappa))^-1, every step."""
    stats = []
    for name, f in trio.items():
        rep = contraction_residuals(
            ContractionTheorem.THM_HNAG_FUNCVAL, hnag_traces[name], f)
        assert rep.passes(), (name, rep.worst, rep.margins[rep.worst])
        stats.append(f"{name}: viol/tol={rep.residuals.max() / rep.allowance:.1e}")
    _announce(3, "; ".join(stats))


def test_criterion_04_hnag_plus_contraction(trio):
    """Shifted-energy contraction at rate (1+2/sqrt(kappa))^-1, every step."""
    cfg = SolverConfig(method=MethodKind.HNAG_PLUS, tol_rel_grad=1e-8)
    stats = []
    for name, f in trio.items():
        trace = solve(f, cfg, agmx.Rng(SEED).uniform(f.dim))
        rep = contraction_residuals(ContractionTheorem.THM_HNAG_PLUS, trace, f)
        assert rep.passes(), (name, rep.worst, rep.margins[rep.worst])
        stats.append(f"{name}: viol/tol={rep.residuals.max() / rep.allowance:.1e}")
    _announce(4, "; ".join(stats))


QUAD_KAPPAS = (100.0, 785.0, 3150.0)


@pytest.fixture(scope="module")
def quadratic_traces():
    cfg = SolverConfig(method=MethodKind.HNAG, tol_rel_grad=1e-8)
    out = {}
    for kappa in QUAD_KAPPAS:
        f = geomspace_quadratic(kappa, d=400)
        x0 = agmx.Rng(SEED).standard_normal(f.dim)
        out[kappa] = (f, solve(f, cfg, x0))
    return out


def test_criterion_05_quadratic_contraction(quadratic_traces):
    """Fully shifted contraction at rate (1+2*sqrt(2/kappa))^-1 on quadratics."""
    stats = []
    for kappa, (f, trace) in quadratic_traces.items():
        rep = contraction_residuals(ContractionTheorem.PROP_QUADRATIC, trace, f)
        assert rep.passes(), (kappa, rep.worst, rep.margins[rep.worst])
        stats.append(f"k={kappa:.0f}: viol/tol={rep.residuals.max() / rep.allowance:.1e}")
    _announce(5, "quadratic per-step contraction — " + "; ".join(stats))


@pytest.mark.parametrize("kappa", QUAD_KAPPAS)
def test_criterion_05_quadratic_rate_fit(quadratic_traces, kappa):
    """Fitted tail slope of the shifted energy within 5% of 2*sqrt(2/kappa)."""
    f, trace = quadratic_traces[kappa]
    energy = trace.E_shifted - trace.grad_shifted_sq / (2.0 * f.lipschitz)
    est = estimate_rate(energy, metric="shifted_energy")
    q = 2.0 * np.sqrt(2.0 / kappa)
    dev = abs((1.0 - est.rate) - q)
    exact_tail = 1.0 - 1.0 / (1.0 + np.sqrt(2.0 / kappa)) ** 2
    assert dev <= 0.05 * q, (
        f"kappa={kappa:.0f}: fitted 1-r={1 - est.rate:.5f} vs target {q:.5f} "
        f"(rel dev {dev / q:.1%}, allowed 5%). The scheme's exact asymptotic "
        f"tail on a quadratic attaining mu is 1-r={exact_tail:.5f}; the 5% "
        f"band around the leading-order target is unreachable at this kappa."
    )
    _announce(5, f"rate fit k={kappa:.0f}: 1-r={1 - est.rate:.5f} "
                 f"target={q:.5f} (dev {dev / q:.1%})")


def test_criterion_06_asymptotic_rate_nonquadratic(trio, hnag_traces):
    """Fitted tail slope at least 85% of 2*sqrt(2/kappa) on the nonquadratics."""
    stats = []
    for name in ("piecewise", "logistic"):
        f = trio[name]
        kappa = f.lipschitz / f.mu
        q = 2.0 * np.sqrt(2.0 / kappa)
        est = estimate_rate(hnag_traces[name].y_err_sq, metric="y_err_sq")
        assert 1.0 - est.rate >= 0.85 * q, (name, 1.0 - est.rate, 0.85 * q)
        stats.append(f"{name}: 1-r={1 - est.rate:.5f} >= 0.85q={0.85 * q:.5f}")
    _announce(6, "; ".join(stats))


def test_criterion_07_iteration_count_table():
    """HNAG strictly fewest among the accelerated methods; sqrt(kappa) scaling."""
    cfg = SolverConfig(method=MethodKind.HNAG, tol_rel_grad=1e-8)
    counts = {}
    for n in (43, 87, 178):  # kappa ~ 784, 3138, 12985
        f = agmx.build_laplacian2d(n)
        x0 = agmx.Rng(SEED).uniform(f.dim)
        rows = agmx.compare(f, RACE_METHODS, cfg, x0)
        counts[n] = {r.method: r.iterations for r in rows}
        hnag = counts[n][MethodKind.HNAG]
        others = [counts[n][m] for m in RACE_METHODS[1:]]
        assert all(hnag < o for o in others), (n, counts[n])
    r1 = counts[87][MethodKind.HNAG] / counts[43][MethodKind.HNAG]
    r2 = counts[178][MethodKind.HNAG] / counts[87][MethodKind.HNAG]
    assert 1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4, (r1, r2)
    hnag_counts = [counts[n][MethodKind.HNAG] for n in (43, 87, 178)]
    _announce(7, f"iteration counts {hnag_counts} (growth {r1:.2f}, {r2:.2f}), "
                 f"strictly fewest at every size")


def test_criterion_08_bregman_asymmetry_bound(trio):
    """|Delta_f| <= (M/6)||x-y||^3 at 100 seeded pairs on the logistic problem."""
    f = trio["logistic"]
    rng = agmx.Rng(SEED)
    margins = []
    for i in range(100):
        x = rng.standard_normal(f.dim)
        y = x + (1e-3, 1e-2, 1e-1, 1.0)[i % 4] * rng.standard_normal(f.dim)
        lhs, rhs = asymmetry_bound_check(f, x, y)
        assert lhs <= rhs * (1.0 + 1e-10) + 1e-15, (i, lhs, rhs)
        margins.append(lhs / rhs if rhs > 0 else 0.0)
    _announce(8, f"100 pairs, max |Delta|/bound = {max(margins):.3f}")


def test_criterion_09_strong_lyapunov_sweeps(trio):
    """Dissipation inequalities hold at 100 seeded states per problem/variant."""
    variants = [
        (LyapunovKind.E_HNAG, MethodKind.HNAG, 0.0),
        (LyapunovKind.E_HNAG_PLUS, MethodKind.HNAG_PLUS, 0.0),
        (LyapunovKind.E_PARTIAL, MethodKind.HNAG, 0.0),
        (LyapunovKind.E_PARTIAL, MethodKind.HNAG, 0.5),
        (LyapunovKind.E_PARTIAL, MethodKind.HNAG, 0.99),
    ]
    worst = np.inf
    for name, f in trio.items():
        xstar = np.asarray(f.minimizer)
        for kind, method, frac in variants:
            p = agmx.make_params(method, f.mu, f.lipschitz)
            beta = p.alpha_beta / p.alpha
            rng = agmx.Rng(SEED)
            for i in range(100):
                scale = (1e-2, 1.0, 50.0)[i % 3]
                x = xstar + scale * rng.standard_normal(f.dim)
                y = xstar + scale * rng.standard_normal(f.dim)
                lhs, rhs = strong_lyapunov_terms(kind, f, x, y, beta, frac * f.mu)
                margin = (lhs - rhs) + 1e-12 * (1.0 + abs(lhs))
                assert margin >= 0.0, (name, kind, frac, i, lhs, rhs)
                worst = min(worst, margin / (1.0 + abs(lhs)))
    _announce(9, f"1500 states swept, worst normalized margin {worst:.2e}")


def test_criterion_10_shift_schedule_diagnostics():
    """Admissibility, gradient cancellation, and the limiting rate of r_k."""
    stats = []
    for rho in (1e-2, 1e-4):
        s = shift_schedule(delta0=1e-4, a=0.125, rho=rho, k_max=10**4)
        assert s.admissible, rho
        assert s.cancellation_ok, rho
        gap = abs(s.r[-1] - s.limit_rate)
        assert gap <= 1e-6, (rho, gap)
        stats.append(f"rho={rho:g}: |r_k - limit|={gap:.1e}")
    _announce(10, "; ".join(stats))
