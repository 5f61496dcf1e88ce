import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agmx
from agmx import MethodKind, RateRegime, SolverConfig, analysis, cli, solvers
from agmx.analysis import (
    OracleError,
    RateFitError,
    _nag_loop,
    compare,
    estimate_rate,
    find_minimizer,
    measured_rate,
    theoretical_rate,
)
from agmx.solvers import DivergenceError, make_params, solve

from _helpers import (
    SimpleObjective,
    count_calls_at_class,
    diagonal_quadratic,
    reference_find_minimizer,
    reference_oracle_iterates,
)


def _nag_from_zero(f, max_iter=2 * 10**6):
    """The oracle's NAG fallback loop run from 0, where grad f(0) is its
    first gradient call."""
    x = np.zeros(f.dim)
    g = f.gradient(x)
    return _nag_loop(f, x, g, 1e-12 * np.linalg.norm(g), max_iter)


class TestFindMinimizer:
    def test_quadratic_returns_center_exactly(self):
        center = np.array([2.0, -1.0, 0.5])
        f = diagonal_quadratic([1.0, 2.0, 3.0], center=center)
        np.testing.assert_array_equal(find_minimizer(f), center)

    def test_logistic_gradient_ratio(self, logistic_default):
        f = logistic_default
        g0 = np.linalg.norm(f.gradient(np.zeros(f.dim)))
        ghat = np.linalg.norm(f.gradient(f.minimizer))
        assert ghat <= 1e-12 * g0

    def test_piecewise_oracle_self_consistency(self, piecewise_default):
        # restarting NAG from the oracle point barely moves over 100 steps
        f = piecewise_default
        mu, L = f.mu, f.lipschitz
        m = (np.sqrt(L / mu) - 1.0) / (np.sqrt(L / mu) + 1.0)
        x = f.minimizer.copy()
        y = x.copy()
        for _ in range(100):
            xn = y - f.gradient(y) / L
            y = xn + m * (xn - x)
            x = xn
        assert np.linalg.norm(x - f.minimizer) <= 1e-6

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_start_gradient_fails_at_once(self, bad):
        calls = []

        def grad(x):
            calls.append(1)
            return np.full(3, bad)

        f = SimpleObjective(value_fn=lambda x: 0.0, grad_fn=grad, dim=3,
                            mu=1.0, lipschitz=2.0)
        with pytest.raises(OracleError, match="not finite"):
            find_minimizer(f)
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_in_the_loop_fails_at_once(self, bad):
        # gradient calls: grad f(0), then one per iteration; the 4th is y_3's
        calls = []

        def grad(x):
            calls.append(1)
            return np.full(3, bad) if len(calls) == 4 else x - 1.0

        f = SimpleObjective(value_fn=lambda x: 0.0, grad_fn=grad, dim=3,
                            mu=1.0, lipschitz=2.0)
        with pytest.raises(OracleError, match="at iteration 3, not finite"):
            _nag_from_zero(f)
        assert len(calls) == 4

    def test_budget_counts_iterations(self):
        calls = []

        def grad(x):
            calls.append(1)
            return x - 1.0

        f = SimpleObjective(value_fn=lambda x: 0.0, grad_fn=grad, dim=3,
                            mu=1.0, lipschitz=2.0)
        with pytest.raises(OracleError, match="hit 5 iterations"):
            _nag_from_zero(f, max_iter=5)
        assert len(calls) == 6

    @pytest.mark.parametrize("seed", [7, 42, 2026])
    @pytest.mark.parametrize("kind", ["piecewise", "logistic"])
    def test_one_gradient_per_iteration(self, monkeypatch, kind, seed):
        f = agmx.rebuild({"kind": kind, "seed": seed})
        calls = count_calls_at_class(monkeypatch, type(f))
        xstar = _nag_from_zero(f)
        work = dict(calls)
        monkeypatch.undo()
        n = work["gradient"] - 1
        assert work["value"] == 0 and work["value_and_gradient"] == 0
        # the point returned is y_n of the oracle's NAG sequence, bit for bit,
        # and y_n is the first extrapolated point that passes the stopping test
        previous = last = None
        for _, (_, y) in zip(range(n), reference_oracle_iterates(f)):
            previous, last = last, y
        assert xstar.tobytes() == last.tobytes()
        g0 = np.linalg.norm(f.gradient(np.zeros(f.dim)))
        assert np.linalg.norm(f.gradient(xstar)) <= 1e-12 * g0
        assert np.linalg.norm(f.gradient(previous)) > 1e-12 * g0
        # the two-gradient loop stops within roundoff of the same point
        ref = reference_find_minimizer(f)
        assert np.linalg.norm(xstar - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("call", [3, 4])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_newton_gradient_fails_at_once(self, bad, call):
        # f = ||x - 1||^2 / 2: grad f(0) is call 1, the first Hessian-vector
        # product calls 2 and 3, and the line search's full step call 4
        calls = []

        def grad(x):
            calls.append(1)
            return np.full(3, bad) if len(calls) == call else x - 1.0

        f = SimpleObjective(value_fn=lambda x: 0.0, grad_fn=grad, dim=3,
                            mu=1.0, lipschitz=2.0)
        with pytest.raises(OracleError, match=f"non-finite gradient at call {call}$"):
            find_minimizer(f)
        assert len(calls) == call

    @pytest.mark.parametrize("seed", [7, 42, 2026])
    @pytest.mark.parametrize("kind", ["piecewise", "logistic"])
    def test_newton_oracle(self, monkeypatch, kind, seed):
        f = agmx.rebuild({"kind": kind, "seed": seed})
        calls = count_calls_at_class(monkeypatch, type(f))
        xstar = find_minimizer(f)
        work = dict(calls)
        ref = reference_find_minimizer(f)
        ref_grads = calls["gradient"] - work["gradient"]
        monkeypatch.undo()
        assert work["value"] == 0 and work["value_and_gradient"] == 0
        assert 5 * work["gradient"] <= ref_grads
        g0 = np.linalg.norm(f.gradient(np.zeros(f.dim)))
        assert np.linalg.norm(f.gradient(xstar)) <= 1e-12 * g0
        assert np.linalg.norm(xstar - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_newton_alone(self, monkeypatch):
        def no_fallback(*args):
            raise AssertionError("the NAG fallback ran")
        monkeypatch.setattr(analysis, "_nag_loop", no_fallback)
        f = agmx.build_piecewise(seed=42)
        xstar = find_minimizer(f)
        g0 = np.linalg.norm(f.gradient(np.zeros(f.dim)))
        assert np.linalg.norm(f.gradient(xstar)) <= 1e-12 * g0

    def test_newton_then_fallback(self, monkeypatch):
        # near-discontinuous Hessian: the line search stalls short of the
        # tolerance, and NAG finishes from Newton's point
        f = agmx.build_piecewise(lipschitz=1e6, seed=5)
        g0 = np.linalg.norm(f.gradient(np.zeros(f.dim)))
        starts = []

        def fallback(f_, x, g, threshold, max_iter):
            starts.append((x.copy(), g.copy()))
            return nag_loop(f_, x, g, threshold, max_iter)

        nag_loop = analysis._nag_loop
        monkeypatch.setattr(analysis, "_nag_loop", fallback)
        xstar = find_minimizer(f)
        monkeypatch.undo()
        [(x, g)] = starts
        assert g.tobytes() == f.gradient(x).tobytes()
        assert 1e-12 * g0 < np.linalg.norm(g) < 1e-6 * g0
        assert xstar.tobytes() == nag_loop(f, x, g, 1e-12 * g0, 10**6).tobytes()
        assert np.linalg.norm(f.gradient(xstar)) <= 1e-12 * g0

    @pytest.mark.parametrize("description", [
        {"kind": "piecewise", "lipschitz": 1e6},
        {"kind": "logistic", "lam": 1e-3},
    ])
    def test_hard_cases_reach_tolerance(self, description):
        for seed in [*range(32), 42, 2026]:
            f = agmx.rebuild({**description, "seed": seed})
            xstar = find_minimizer(f)
            g0 = np.linalg.norm(f.gradient(np.zeros(f.dim)))
            assert np.linalg.norm(f.gradient(xstar)) <= 1e-12 * g0, seed

    @given(dim=st.integers(2, 40), rank=st.integers(1, 6),
           mu=st.floats(1e-2, 10.0), kappa=st.floats(1.0, 1e3),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_hidden_center_of_spd_quadratic(self, dim, rank, mu, kappa, seed):
        # f = (x - c)^T (mu I + U U^T) (x - c) / 2 with ||U||_2^2 = (kappa - 1) mu
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((dim, rank))
        U *= np.sqrt((kappa - 1.0) * mu) / np.linalg.norm(U, 2)
        c = rng.standard_normal(dim)

        def grad(x):
            r = x - c
            return mu * r + U @ (U.T @ r)

        f = SimpleObjective(value_fn=lambda x: 0.0, grad_fn=grad, dim=dim,
                            mu=mu, lipschitz=kappa * mu)
        xstar = find_minimizer(f)
        assert np.linalg.norm(grad(xstar)) <= 1e-12 * np.linalg.norm(grad(np.zeros(dim)))
        assert np.linalg.norm(xstar - c) <= 1e-8 * np.linalg.norm(c)

    def test_never_calls_solvers(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the minimizer oracle called into solvers")
        monkeypatch.setattr(solvers, "step", forbidden)
        monkeypatch.setattr(solvers, "_advance", forbidden)
        for kind in ("piecewise", "logistic"):
            f = agmx.rebuild({"kind": kind, "seed": 7})
            xstar = find_minimizer(f)
            g0 = np.linalg.norm(f.gradient(np.zeros(f.dim)))
            assert np.linalg.norm(f.gradient(xstar)) <= 1e-12 * g0


class TestEstimateRate:
    def test_exact_geometric(self):
        e = 0.25 ** np.arange(60)
        est = estimate_rate(e)
        assert est.rate == pytest.approx(0.25, rel=1e-12)
        assert est.fit_residual <= 1e-12

    def test_constant_sequence(self):
        est = estimate_rate(np.ones(40))
        assert est.rate == 1.0

    def test_floor_truncation(self):
        e = np.concatenate([0.5 ** np.arange(50), np.full(10, 1e-40)])
        est = estimate_rate(e)
        assert est.rate == pytest.approx(0.5, rel=1e-10)
        assert est.window[1] <= 49

    def test_window_spans_at_least_ten_steps(self):
        est = estimate_rate(0.9 ** np.arange(20))
        assert est.window[1] - est.window[0] >= 10

    def test_errors(self):
        with pytest.raises(RateFitError):
            estimate_rate(0.5 ** np.arange(10))
        with pytest.raises(RateFitError):
            estimate_rate(np.concatenate([[1.0], np.full(30, -1.0)]))
        with pytest.raises(RateFitError):
            # only 5 usable points survive the floor cut
            estimate_rate(np.concatenate([np.ones(5), np.full(20, 1e-40)]))

    @given(scale=st.floats(1e-8, 1e8))
    @settings(deadline=None, max_examples=40)
    def test_scale_invariance(self, scale):
        e = 0.7 ** np.arange(45)
        base = estimate_rate(e).rate
        scaled = estimate_rate(scale * e).rate
        assert scaled == pytest.approx(base, abs=1e-12)


class TestTheoreticalRate:
    def test_catalog_values(self):
        assert theoretical_rate(MethodKind.GD, 1.0) == 0.0
        assert theoretical_rate(MethodKind.NAG, 100.0) == pytest.approx(0.9)
        assert theoretical_rate(MethodKind.TM, 100.0) == pytest.approx(0.81)
        assert theoretical_rate(
            MethodKind.HNAG, 3150.0, RateRegime.QUADRATIC_OR_ASYMPTOTIC
        ) == pytest.approx(0.95202, abs=5e-6)

    @pytest.mark.parametrize("kappa", [100.0, 785.0, 3150.0, 1e4])
    def test_tm_entry_is_its_squared_mode_radius(self, kappa):
        # TM on one Hessian mode lambda, from its make_params coefficients:
        # xi' = (1 + b) xi - b xi_prev - a lambda y, y = (1 + g) xi - g xi_prev
        mu = 1.0
        a, b, g, _ = make_params(MethodKind.TM, mu, kappa * mu).tm_coeffs

        def radius(lam):
            m = np.array([[1.0 + b - a * lam * (1.0 + g), a * lam * g - b], [1.0, 0.0]])
            return float(np.abs(np.linalg.eigvals(m)).max())

        assert theoretical_rate(MethodKind.TM, kappa) == pytest.approx(radius(mu) ** 2,
                                                                      rel=1e-12)
        # lambda = mu attains the largest radius over [mu, L]
        lams = np.linspace(mu, kappa * mu, 201)
        assert max(map(radius, lams)) <= radius(mu) * (1.0 + 1e-12)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError):
            theoretical_rate(MethodKind.GD, 0.5)

    @pytest.mark.parametrize("kappa", [np.inf, np.nan])
    @pytest.mark.parametrize("method", list(MethodKind))
    def test_non_finite_kappa_rejected(self, method, kappa):
        with pytest.raises(ValueError, match="finite"):
            theoretical_rate(method, kappa)


class TestMeasuredRate:
    @pytest.mark.parametrize("method", list(MethodKind))
    def test_fits_the_family_series(self, lap9, method):
        x0 = agmx.Rng(42).uniform(lap9.dim)
        try:
            trace = solve(lap9, SolverConfig(method=method), x0)
        except DivergenceError:
            trace = solve(lap9, SolverConfig(method=method, max_iter=200), x0)
        hessian_driven = method in (MethodKind.HNAG, MethodKind.HNAG_PLUS,
                                    MethodKind.HNAG_BOX)
        series = trace.y_err_sq if hessian_driven else trace.x_err_sq
        assert measured_rate(trace) == estimate_rate(series).rate

    def test_short_trace_is_nan(self, lap9):
        trace = solve(lap9, SolverConfig(method=MethodKind.HNAG, max_iter=5),
                      agmx.Rng(1).uniform(lap9.dim))
        assert np.isnan(measured_rate(trace))

    @pytest.mark.parametrize("kappa", [100.0, 400.0, 1e4])
    def test_ordering_at_large_kappa(self, kappa):
        gd = theoretical_rate(MethodKind.GD, kappa)
        nag = theoretical_rate(MethodKind.NAG, kappa)
        hnag = theoretical_rate(MethodKind.HNAG, kappa)
        tm = theoretical_rate(MethodKind.TM, kappa)
        plus = theoretical_rate(MethodKind.HNAG_PLUS, kappa)
        asym = theoretical_rate(MethodKind.HNAG, kappa, RateRegime.QUADRATIC_OR_ASYMPTOTIC)
        assert gd > nag > hnag > max(tm, plus)
        assert min(tm, plus) > asym


class TestCompare:
    def test_kappa_one_quadratic(self):
        f = diagonal_quadratic([3.0, 3.0], center=np.array([1.0, 1.0]))
        rows = compare(f, [MethodKind.GD], SolverConfig(method=MethodKind.GD),
                       np.array([5.0, -4.0]))
        assert len(rows) == 1
        assert rows[0].iterations <= 3
        assert np.isnan(rows[0].measured_rate)

    def test_deterministic_iteration_counts(self, lap9):
        x0 = agmx.Rng(42).uniform(lap9.dim)
        methods = [MethodKind.GD, MethodKind.NAG, MethodKind.HNAG]
        cfg = SolverConfig(method=MethodKind.GD)
        a = compare(lap9, methods, cfg, x0)
        b = compare(lap9, methods, cfg, x0)
        assert [r.iterations for r in a] == [r.iterations for r in b]
        assert [r.measured_rate for r in a] == [r.measured_rate for r in b]

    def test_csv_shape(self, lap9):
        x0 = agmx.Rng(42).uniform(lap9.dim)
        rows = compare(lap9, [MethodKind.GD, MethodKind.NAG],
                       SolverConfig(method=MethodKind.GD), x0)
        text = cli.comparison_table(rows)
        lines = text.strip().splitlines()
        assert lines[0] == cli.COMPARISON_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("gd,")

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_recorded_not_fatal(self):
        # understated smoothness constant makes GD's step explosive
        lying = SimpleObjective(
            value_fn=lambda x: 50.0 * float(x @ x),
            grad_fn=lambda x: 100.0 * x,
            dim=2, mu=1.0, lipschitz=2.0, minimizer=np.zeros(2),
        )
        rows = compare(lying, [MethodKind.GD, MethodKind.NAG],
                       SolverConfig(method=MethodKind.GD, max_iter=2000),
                       np.ones(2))
        assert rows[0].status == "diverged"
        assert len(rows) == 2
        with pytest.raises(DivergenceError) as err:
            solve(lying, SolverConfig(method=MethodKind.GD, max_iter=2000), np.ones(2))
        assert rows[0].iterations == err.value.iteration
        assert np.isnan(rows[0].measured_rate)
        assert rows[0].theoretical_rate == theoretical_rate(MethodKind.GD, 2.0)
