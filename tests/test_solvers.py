import dataclasses

import numpy as np
import pytest

import agmx
from agmx import MethodKind, SolverConfig, TerminalStatus
from agmx.core import DimensionError
from agmx.solvers import (
    DivergenceError,
    init_state,
    make_params,
    parse_method,
    solve,
    step,
)

from _helpers import (
    CountingObjective,
    SimpleObjective,
    count_calls_at_class,
    diagonal_quadratic,
    reference_make_params,
    reference_solve,
    reference_step,
    simple_1d_quadratic,
)

SQRT2 = np.sqrt(2.0)


class TestParseMethod:
    @pytest.mark.parametrize("name,kind", [
        ("gd", MethodKind.GD), ("NAG", MethodKind.NAG), ("tm", MethodKind.TM),
        ("hnag", MethodKind.HNAG), ("hnagpp", MethodKind.HNAG),
        ("HNAG++", MethodKind.HNAG), ("hnag+", MethodKind.HNAG_PLUS),
        ("hnagplus", MethodKind.HNAG_PLUS), ("hnag_box", MethodKind.HNAG_BOX),
    ])
    def test_aliases(self, name, kind):
        assert parse_method(name) is kind

    @pytest.mark.parametrize("kind", list(MethodKind))
    def test_every_value_is_a_name(self, kind):
        assert parse_method(kind.value) is kind
        assert parse_method(f" {kind.value.upper()} ") is kind

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="nosuch"):
            parse_method("nosuch")


class TestMakeParams:
    def test_hnag_recommended(self):
        p = make_params(MethodKind.HNAG, 1.0, 1e4)
        assert p.alpha == pytest.approx(np.sqrt(2e-4), rel=1e-12)
        assert p.alpha == pytest.approx(0.0141421, rel=1e-5)
        assert p.alpha_beta == 1e-4
        assert p.alpha_sq == pytest.approx(2e-4, rel=1e-15)

    def test_hnag_plus_kappa_one(self):
        p = make_params(MethodKind.HNAG_PLUS, 3.0, 3.0)
        assert p.alpha == 1.0

    def test_nag_momentum(self):
        p = make_params(MethodKind.NAG, 1.0, 100.0)
        assert p.momentum == pytest.approx(9.0 / 11.0, rel=1e-12)

    def test_gd_step(self):
        p = make_params(MethodKind.GD, 2.0, 8.0)
        assert p.gd_step == pytest.approx(0.2)

    def test_tm_degenerates_to_gd_at_kappa_one(self):
        p = make_params(MethodKind.TM, 5.0, 5.0)
        a, b, g, d = p.tm_coeffs
        assert a == pytest.approx(1.0 / 5.0)
        assert (b, g, d) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_matches_per_method_reference(self, method):
        # the coefficient table rounds as the constants spelled out per method
        for mu in (0.1, 1.0, 3.7):
            for kappa in (1.0, 2.0, 100.0, 785.0, 3150.0, 13000.0, 1e8):
                p = make_params(method, mu, kappa * mu)
                ref = reference_make_params(method, mu, kappa * mu)
                for field in dataclasses.fields(p):
                    assert getattr(p, field.name) == getattr(ref, field.name), \
                        (method, mu, kappa, field.name)

    @pytest.mark.parametrize("mu,L", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_invalid_constants(self, mu, L):
        with pytest.raises(ValueError):
            make_params(MethodKind.HNAG, mu, L)


class TestStepHandValues:
    def test_hnag_one_step(self):
        f = simple_1d_quadratic(1.0)
        p = make_params(MethodKind.HNAG, 1.0, 1.0)
        st = init_state(MethodKind.HNAG, f, np.array([1.0]), p)
        st = step(MethodKind.HNAG, st, f, p)
        assert st.x[0] == pytest.approx(2.0 - SQRT2, abs=1e-15)
        assert st.aux[0] / p.alpha == pytest.approx(1.0 / (1.0 + SQRT2), abs=1e-15)
        assert st.k == 1

    def test_hnag_plus_one_step(self):
        f = simple_1d_quadratic(1.0)
        p = make_params(MethodKind.HNAG_PLUS, 1.0, 1.0)
        st = init_state(MethodKind.HNAG_PLUS, f, np.array([1.0]), p)
        st = step(MethodKind.HNAG_PLUS, st, f, p)
        assert st.x[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert st.aux[0] / p.alpha == pytest.approx(0.5, abs=1e-15)

    def test_params_method_mismatch(self):
        f = simple_1d_quadratic(1.0)
        p = make_params(MethodKind.HNAG, 1.0, 1.0)
        st = init_state(MethodKind.HNAG, f, np.array([1.0]), p)
        with pytest.raises(ValueError):
            step(MethodKind.GD, st, f, p)

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_init_state_rejects_params_of_another_method(self, method):
        # init_state checks the pair as step does, so no state is built
        # from another method's constants
        f = simple_1d_quadratic(1.0)
        for other in MethodKind:
            if other is not method:
                with pytest.raises(ValueError, match="params were built for"):
                    init_state(method, f, np.array([1.0]), make_params(other, 1.0, 1.0))


class TestFixedPoint:
    @pytest.mark.parametrize("method", list(MethodKind))
    def test_hundred_steps_at_minimizer(self, method, lap9):
        f = lap9
        p = make_params(method, f.mu, f.lipschitz)
        st = init_state(method, f, f.minimizer, p)
        for _ in range(100):
            st = step(method, st, f, p)
        assert np.max(np.abs(st.x - f.minimizer)) <= 1e-14


class TestInitState:
    @pytest.mark.parametrize("method", list(MethodKind))
    def test_wrong_shape_start_rejected(self, method, lap9):
        p = make_params(method, lap9.mu, lap9.lipschitz)
        for x0 in (np.zeros(80), np.zeros((81, 1)), np.float64(0.0)):
            with pytest.raises(DimensionError):
                init_state(method, lap9, x0, p)


class TestGradientEvaluationCount:
    @pytest.mark.parametrize("method", [
        MethodKind.HNAG, MethodKind.HNAG_BOX, MethodKind.HNAG_PLUS])
    def test_one_gradient_call_per_step(self, method):
        f = CountingObjective(diagonal_quadratic([1.0, 10.0, 100.0]))
        p = make_params(method, f.mu, f.lipschitz)
        st = init_state(method, f, np.array([1.0, 1.0, 1.0]), p)
        after_init = f.grad_calls
        assert after_init == 1
        for i in range(1, 25):
            st = step(method, st, f, p)
            assert f.grad_calls == after_init + i


class TestSchemeFormConsistency:
    def test_xy_form_reproduces_v_form(self):
        # iterate the scheme in raw (x, y) variables and compare with step()
        f = diagonal_quadratic(np.geomspace(1.0, 50.0, 8))
        mu, L = f.mu, f.lipschitz
        alpha = np.sqrt(2 * mu / L)
        x0 = agmx.Rng(3).standard_normal(8)
        x, y = x0.copy(), x0.copy()
        p = make_params(MethodKind.HNAG, mu, L)
        st = init_state(MethodKind.HNAG, f, x0, p)
        for _ in range(50):
            x = (x + alpha * y - f.gradient(x) / L) / (1 + alpha)
            y = (y + alpha * x - f.gradient(x) * (alpha / mu)) / (1 + alpha)
            st = step(MethodKind.HNAG, st, f, p)
            scale = 1.0 + np.linalg.norm(x)
            assert np.linalg.norm(st.x - x) <= 1e-12 * scale
            assert np.linalg.norm(st.aux / p.alpha - y) <= 1e-12 * scale

    def test_xy_form_reproduces_rescaled_variant(self):
        # same reconstruction for the rescaled scheme (2x auxiliary weight)
        f = diagonal_quadratic(np.geomspace(1.0, 50.0, 8))
        mu, L = f.mu, f.lipschitz
        alpha = np.sqrt(mu / L)
        x0 = agmx.Rng(4).standard_normal(8)
        x, y = x0.copy(), x0.copy()
        p = make_params(MethodKind.HNAG_PLUS, mu, L)
        st = init_state(MethodKind.HNAG_PLUS, f, x0, p)
        for _ in range(50):
            x = (x + 2 * alpha * y - f.gradient(x) / L) / (1 + 2 * alpha)
            y = (y + alpha * x - f.gradient(x) * (alpha / mu)) / (1 + alpha)
            st = step(MethodKind.HNAG_PLUS, st, f, p)
            scale = 1.0 + np.linalg.norm(x)
            assert np.linalg.norm(st.x - x) <= 1e-12 * scale
            assert np.linalg.norm(st.aux / p.alpha - y) <= 1e-12 * scale


class TestBoxOrdering:
    def test_box_ordering_unstable_on_stiff_problems(self, lap19):
        # The box ordering swaps the 1/L and 2/L gradient weights relative to
        # the scheme; its per-mode iteration matrix at lambda = L has spectral
        # radius approaching the golden ratio, so on ill-conditioned problems
        # it amplifies stiff components geometrically and diverges.
        a = np.sqrt(2.0 * lap19.mu / lap19.lipschitz)
        m_top = np.array([
            [(1 - 2) / (1 + a) + (a * a - 1) / (1 + a) ** 2, 1 / (1 + a) ** 2],
            [(a * a - 1) / (1 + a), 1 / (1 + a)],
        ])
        assert max(abs(np.linalg.eigvals(m_top))) > 1.0
        with pytest.raises(DivergenceError):
            solve(lap19, SolverConfig(method=MethodKind.HNAG_BOX),
                  agmx.Rng(42).uniform(lap19.dim))


class TestSolve:
    def test_gd_kappa_one_single_iteration(self):
        f = diagonal_quadratic([2.0, 2.0], center=np.array([0.5, -1.0]))
        tr = solve(f, SolverConfig(method=MethodKind.GD), np.array([3.0, 4.0]))
        assert tr.status is TerminalStatus.CONVERGED
        assert tr.iterations == 1

    def test_tolerance_honored(self, lap19):
        tr = solve(lap19, SolverConfig(method=MethodKind.HNAG, tol_rel_grad=1e-8),
                   agmx.Rng(42).uniform(lap19.dim))
        assert tr.status is TerminalStatus.CONVERGED
        assert tr.grad_norm[-1] <= 1e-8 * tr.grad_norm[0]
        assert tr.grad_norm[-2] > 1e-8 * tr.grad_norm[0]

    def test_records_shape(self, lap9):
        tr = solve(lap9, SolverConfig(method=MethodKind.NAG),
                   agmx.Rng(1).uniform(lap9.dim))
        for name in ("f_gap", "grad_norm", "x_err_sq", "y_err_sq", "E", "E_shifted",
                     "grad_shifted_sq"):
            assert getattr(tr, name).shape == (tr.iterations + 1,)
        assert tr.k[0] == 0 and tr.k[-1] == tr.iterations

    def test_regression_against_scripted_oracle(self, lap19):
        """Iteration count must match an independent plain-loop oracle."""
        f = lap19
        A, mu, L = f.matrix, f.mu, f.lipschitz
        alpha = np.sqrt(2 * mu / L)
        x = agmx.Rng(42).uniform(f.dim)
        v = alpha * x
        g = A @ x
        g0 = np.linalg.norm(g)
        k = 0
        while np.linalg.norm(g) > 1e-8 * g0 and k < 10**6:
            x = (x + v - g / L) / (1 + alpha)
            g = A @ x
            v = (v + (2 * mu / L) * x - (2.0 / L) * g) / (1 + alpha)
            k += 1
        assert k == 160  # frozen baseline, captured before the main build

        tr = solve(f, SolverConfig(method=MethodKind.HNAG),
                   agmx.Rng(42).uniform(f.dim))
        assert tr.iterations == k
        assert tr.status is TerminalStatus.CONVERGED

    def test_max_iter_status(self, lap39):
        tr = solve(lap39, SolverConfig(method=MethodKind.GD, max_iter=10),
                   agmx.Rng(42).uniform(lap39.dim))
        assert tr.status is TerminalStatus.MAX_ITER
        assert tr.iterations == 10

    def test_start_at_minimizer(self, lap9):
        tr = solve(lap9, SolverConfig(method=MethodKind.HNAG), lap9.minimizer)
        assert tr.status is TerminalStatus.CONVERGED
        assert tr.iterations == 0

    def test_minimizer_required(self):
        f = agmx.build_piecewise(d=20, p=2, seed=3)
        with pytest.raises(agmx.core.MinimizerUnknownError):
            solve(f, SolverConfig(method=MethodKind.GD), np.zeros(20))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_detected_with_iteration_index(self):
        # concave impostor: gradient pushes away from the declared minimizer
        f = SimpleObjective(
            value_fn=lambda x: -0.5e100 * float(x @ x),
            grad_fn=lambda x: -1e100 * x,
            dim=2, mu=1.0, lipschitz=1.0, minimizer=np.zeros(2),
        )
        with pytest.raises(DivergenceError) as err:
            solve(f, SolverConfig(method=MethodKind.GD), np.ones(2))
        assert err.value.iteration >= 1

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(method=MethodKind.GD, tol_rel_grad=0.0)
        with pytest.raises(ValueError):
            SolverConfig(method=MethodKind.GD, max_iter=0)


class TestRateEnvelopes:
    def test_gd_per_step_contraction(self):
        f = diagonal_quadratic(np.linspace(1.0, 50.0, 20))
        kappa = f.lipschitz / f.mu
        factor = (kappa - 1.0) / (kappa + 1.0)
        tr = solve(f, SolverConfig(method=MethodKind.GD),
                   agmx.Rng(9).standard_normal(20))
        err = np.sqrt(tr.x_err_sq)
        ratios = err[1:] / err[:-1]
        assert (ratios <= factor * (1 + 1e-12)).all()

    def test_hnag_gradient_norm_envelope(self, problem_trio):
        # ||grad f(x_k)||^2 <= E(z_0) * (2L/alpha) * (1 + sqrt(2/kappa))^-k
        for f in problem_trio.values():
            tr = solve(f, SolverConfig(method=MethodKind.HNAG),
                       agmx.Rng(42).uniform(f.dim))
            alpha = np.sqrt(2 * f.mu / f.lipschitz)
            c1 = tr.E[0] * 2 * f.lipschitz / alpha
            envelope = c1 / (1 + alpha) ** tr.k.astype(float)
            assert (tr.grad_norm**2 <= envelope * (1 + 1e-10)).all()


TRACE_COLUMNS = ("k", "f_gap", "grad_norm", "x_err_sq", "y_err_sq", "E",
                 "E_shifted", "grad_shifted_sq")


@pytest.fixture(scope="module")
def small_piecewise():
    return agmx.ensure_minimizer(agmx.build_piecewise(d=20, p=3, lipschitz=100.0, seed=3))


@pytest.fixture(scope="module")
def small_logistic():
    return agmx.ensure_minimizer(agmx.build_logistic(d=30, m=10, lam=1.0, seed=5))


class TestBitIdenticalToReference:
    """solve() against the allocating reference step and record loop."""

    @pytest.mark.parametrize("method", list(MethodKind))
    @pytest.mark.parametrize("problem", ["lap19", "small_piecewise", "small_logistic",
                                         "centered_quadratic", "minus_zero_quadratic"])
    def test_every_column_equal(self, problem, method, request):
        f = request.getfixturevalue(problem)
        x0 = agmx.Rng(42).uniform(f.dim)
        max_iter = 3000     # hnag_box neither converges nor diverges on piecewise
        try:
            ref = reference_solve(f, method, x0, max_iter=max_iter)
        except DivergenceError as err:
            # hnag_box: same divergence step, then equal columns up to it
            with pytest.raises(DivergenceError) as ours:
                solve(f, SolverConfig(method=method, max_iter=max_iter), x0)
            assert ours.value.iteration == err.iteration
            max_iter = err.iteration - 1
            ref = reference_solve(f, method, x0, max_iter=max_iter)
        tr = solve(f, SolverConfig(method=method, max_iter=max_iter), x0)
        for col in TRACE_COLUMNS:
            assert np.array_equal(getattr(tr, col), ref[col]), col

    @pytest.mark.parametrize("problem", ["piecewise_default", "logistic_default", "lap178"])
    def test_grad_norm_is_the_linalg_norm(self, problem, request):
        # d = 100, 1000 and 31684: the record's sqrt(g @ g) against
        # np.linalg.norm of the gradient that ``step`` reaches at each k
        f = (agmx.build_laplacian2d(178) if problem == "lap178"
             else request.getfixturevalue(problem))
        x0 = agmx.Rng(42).uniform(f.dim)
        tr = solve(f, SolverConfig(method=MethodKind.HNAG, max_iter=20), x0)
        p = make_params(MethodKind.HNAG, f.mu, f.lipschitz)
        st = init_state(MethodKind.HNAG, f, x0, p)
        for k in range(tr.iterations + 1):
            assert tr.grad_norm[k] == float(np.linalg.norm(st.grad_cache)), k
            st = step(MethodKind.HNAG, st, f, p)

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_step_matches_reference_step(self, method, small_logistic):
        f = small_logistic
        p = make_params(method, f.mu, f.lipschitz)
        ours = ref = init_state(method, f, agmx.Rng(1).uniform(f.dim), p)
        for _ in range(30):
            ours = step(method, ours, f, p)
            ref = reference_step(method, ref, f, p)
            assert np.array_equal(ours.x, ref.x)
            assert np.array_equal(ours.aux, ref.aux)
            assert np.array_equal(ours.grad_cache, ref.grad_cache)
            assert ours.f_cache == f.value(ours.x)


def nan_gradient_at_call(j):
    """Diagonal quadratic whose j-th gradient call has one NaN coordinate."""
    lams = np.array([1.0, 2.0, 5.0, 10.0])
    calls = [0]

    def grad(x):
        calls[0] += 1
        g = lams * x
        if calls[0] == j:
            g[1] = np.nan
        return g

    return SimpleObjective(
        value_fn=lambda x: 0.5 * float(x @ (lams * x)), grad_fn=grad,
        dim=4, mu=1.0, lipschitz=10.0, minimizer=np.zeros(4))


class TestDivergenceParity:
    @pytest.mark.parametrize("method", list(MethodKind))
    @pytest.mark.parametrize("j", [1, 2, 3, 6, 7])
    def test_iteration_where_nan_entered(self, j, method):
        # call 1 is the gradient at x0; NAG and TM spend two calls per step
        per_step = 2 if method in (MethodKind.NAG, MethodKind.TM) else 1
        expected = 0 if j == 1 else (j - 2) // per_step + 1
        cfg = SolverConfig(method=method)
        with pytest.raises(DivergenceError) as err:
            solve(nan_gradient_at_call(j), cfg, np.ones(4))
        assert err.value.iteration == expected
        with pytest.raises(DivergenceError) as ref:
            reference_solve(nan_gradient_at_call(j), method, np.ones(4))
        assert ref.value.iteration == expected

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_standalone_step_raises(self, method):
        f = nan_gradient_at_call(2)
        p = make_params(method, f.mu, f.lipschitz)
        st = init_state(method, f, np.ones(4), p)
        with pytest.raises(DivergenceError) as err:
            step(method, st, f, p)
        assert err.value.iteration == 1

    def test_box_ordering_diverges_at_recorded_step(self):
        f = agmx.build_laplacian2d(43)
        with pytest.raises(DivergenceError) as err:
            solve(f, SolverConfig(method=MethodKind.HNAG_BOX),
                  agmx.Rng(42).uniform(f.dim))
        assert err.value.iteration == 846


class TestCountingAndAliasing:
    @pytest.mark.parametrize("method", [
        MethodKind.GD, MethodKind.NAG, MethodKind.TM, MethodKind.HNAG,
        MethodKind.HNAG_PLUS])
    def test_quadratic_solve_makes_one_value_call(self, method, lap19, monkeypatch):
        calls = count_calls_at_class(monkeypatch, agmx.QuadraticObjective,
                                     ("value", "gradient"))
        tr = solve(lap19, SolverConfig(method=method), agmx.Rng(42).uniform(lap19.dim))
        assert calls["value"] == 1          # f(x*) only
        per_step = 2 if method in (MethodKind.NAG, MethodKind.TM) else 1
        assert calls["gradient"] == 1 + per_step * tr.iterations

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_step_leaves_input_state_unmodified(self, method, lap9):
        f = lap9
        p = make_params(method, f.mu, f.lipschitz)
        st = init_state(method, f, agmx.Rng(2).uniform(f.dim), p)
        st = step(method, st, f, p)
        before = (st.x.copy(), st.aux.copy(), st.grad_cache.copy(), st.f_cache, st.k)
        new = step(method, st, f, p)
        for kept, now in zip(before[:3], (st.x, st.aux, st.grad_cache)):
            assert np.array_equal(kept, now)
        assert (st.f_cache, st.k) == before[3:]
        assert not np.shares_memory(new.x, st.x)
        assert not np.shares_memory(new.aux, st.aux)

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_solve_leaves_x0_unchanged(self, method, lap9):
        x0 = agmx.Rng(4).uniform(lap9.dim)
        kept = x0.copy()
        solve(lap9, SolverConfig(method=method, max_iter=50), x0)
        assert np.array_equal(x0, kept)
