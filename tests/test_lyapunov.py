import dataclasses
import json
import threading
import tracemalloc

import numpy as np
import pytest

import agmx
from agmx import (
    CHECKS,
    CheckReport,
    ContractionTheorem,
    LyapunovKind,
    MethodKind,
    SolverConfig,
    asymmetry_bound_check,
    contraction_residuals,
    flow_beta,
    lyapunov,
    minimizer_anchor,
    shift_schedule,
    solve,
    strong_lyapunov_sweep,
    strong_lyapunov_terms,
)
from agmx import cli
from agmx.core import DimensionError, MinimizerUnknownError, ShiftedObjective

from _helpers import (
    MUTANTS,
    CountingObjective,
    SimpleObjective,
    count_calls_at_class,
    diagonal_quadratic,
    reference_lyapunov,
    reference_solve,
    reference_strong_lyapunov_terms,
    simple_1d_quadratic,
)

ALL_KINDS = list(LyapunovKind)
SCALES = (1e-3, 1e-1, 1.0, 10.0)


@pytest.fixture(scope="module")
def piecewise101():
    return agmx.ensure_minimizer(agmx.build_piecewise(d=101))


@pytest.fixture(scope="module")
def piecewise1000():
    return agmx.ensure_minimizer(agmx.build_piecewise(d=1000))


def test_energy_function_and_module_coexist():
    # agmx.lyapunov is the energy-evaluation function; the submodule of the
    # same name must stay reachable through the import system
    import importlib

    mod = importlib.import_module("agmx.lyapunov")
    assert callable(agmx.lyapunov)
    assert mod.lyapunov is agmx.lyapunov
    assert mod.contraction_residuals is agmx.contraction_residuals


class TestLyapunovValues:
    def test_zero_at_minimizer(self, lap9):
        xstar = lap9.minimizer
        for kind in ALL_KINDS:
            assert lyapunov(kind, lap9, xstar, xstar, mu_hat=0.5 * lap9.mu) == 0.0

    def test_hand_values_1d(self):
        # E = D_f(x, x*) + mu/2 ||y - x*||^2 evaluated on f(x) = x^2/2
        f = simple_1d_quadratic(1.0)
        e = lyapunov(LyapunovKind.E_HNAG, f, np.array([1.0]), np.array([0.0]))
        assert e == pytest.approx(0.5, abs=1e-15)
        e = lyapunov(LyapunovKind.E_HNAG, f, np.array([1.0]), np.array([1.0]))
        assert e == pytest.approx(1.0, abs=1e-15)

    def test_full_shift_annihilates_quadratic_part(self):
        f = simple_1d_quadratic(1.0)
        x, y = np.array([3.0]), np.array([-2.0])
        e = lyapunov(LyapunovKind.E_HNAG_PLUS, f, x, y)
        assert e == pytest.approx(f.mu * 4.0, abs=1e-12)

    def test_partial_matches_shifted_bregman(self, lap9):
        f = lap9
        mu_hat = 0.7 * f.mu
        rng = agmx.Rng(4)
        x, y = rng.standard_normal(f.dim), rng.standard_normal(f.dim)
        shifted = ShiftedObjective(f, mu_hat, f.minimizer)
        expected = agmx.bregman(shifted, x, f.minimizer) \
            + 0.5 * f.mu * float((y - f.minimizer) @ (y - f.minimizer))
        assert lyapunov(LyapunovKind.E_PARTIAL, f, x, y, mu_hat) == pytest.approx(
            expected, rel=1e-12)

    def test_nonnegative_at_random_states(self, problem_trio):
        for f in problem_trio.values():
            rng = agmx.Rng(5)
            for _ in range(25):
                x = rng.standard_normal(f.dim)
                y = rng.standard_normal(f.dim)
                for kind, mh in [(LyapunovKind.E_HNAG, 0.0),
                                 (LyapunovKind.E_HNAG_PLUS, 0.0),
                                 (LyapunovKind.E_PARTIAL, 0.3 * f.mu)]:
                    val = lyapunov(kind, f, x, y, mh)
                    assert val >= -1e-12 * (1.0 + abs(val))

    def test_minimizer_required(self):
        f = agmx.build_piecewise(d=10, p=2, seed=1)
        with pytest.raises(MinimizerUnknownError):
            lyapunov(LyapunovKind.E_HNAG, f, np.zeros(10), np.zeros(10))

    def test_mu_hat_validated(self, lap9):
        with pytest.raises(ValueError):
            lyapunov(LyapunovKind.E_PARTIAL, lap9, np.zeros(81), np.zeros(81),
                     mu_hat=2.0 * lap9.mu)


class TestStrongLyapunov:
    def test_pinned_1d_value(self):
        # f(x) = x^2/2, beta = 1, (x, y) = (1, 0): both sides equal 2 exactly
        f = simple_1d_quadratic(1.0)
        lhs, rhs = strong_lyapunov_terms(
            LyapunovKind.E_HNAG, f, np.array([1.0]), np.array([0.0]), beta=1.0)
        assert lhs == pytest.approx(2.0, abs=1e-15)
        assert rhs == pytest.approx(2.0, abs=1e-15)
        assert lhs - rhs == pytest.approx(0.0, abs=1e-15)

    def test_zero_at_minimizer(self, lap9):
        z = lap9.minimizer
        for kind in ALL_KINDS:
            lhs, rhs = strong_lyapunov_terms(kind, lap9, z, z, beta=1.0,
                                             mu_hat=0.5 * lap9.mu)
            assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("kind,mu_hat_frac", [
        (LyapunovKind.E_HNAG, 0.0),
        (LyapunovKind.E_HNAG_PLUS, 0.0),
        (LyapunovKind.E_PARTIAL, 0.0),
        (LyapunovKind.E_PARTIAL, 0.5),
        (LyapunovKind.E_PARTIAL, 0.99),
    ])
    def test_residual_nonnegative_sweep(self, lap39, kind, mu_hat_frac):
        f = lap39
        method = MethodKind.HNAG_PLUS if kind is LyapunovKind.E_HNAG_PLUS else MethodKind.HNAG
        p = agmx.make_params(method, f.mu, f.lipschitz)
        beta = p.alpha_beta / p.alpha
        rng = agmx.Rng(6)
        for i in range(100):
            scale = (1e-2, 1.0, 100.0)[i % 3]
            x = f.minimizer + scale * rng.standard_normal(f.dim)
            y = f.minimizer + scale * rng.standard_normal(f.dim)
            lhs, rhs = strong_lyapunov_terms(kind, f, x, y, beta, mu_hat_frac * f.mu)
            assert lhs - rhs >= -1e-12 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("name", ["laplacian2d", "piecewise", "logistic"])
    def test_full_partial_shift_is_an_identity(self, problem_trio, name):
        # at mu_hat = mu the E_PARTIAL bound holds with equality up to
        # grad f(x*) . (x - x*): exactly 0 on the quadratic, where x* is exact,
        # and set by the oracle minimizer's leftover gradient elsewhere
        f = problem_trio[name]
        a = minimizer_anchor(f)
        beta = flow_beta(LyapunovKind.E_PARTIAL, f)
        rng = agmx.Rng(43)
        for i in range(40):
            x = a.xstar + SCALES[i % 4] * rng.standard_normal(f.dim)
            y = a.xstar + SCALES[i % 4] * rng.standard_normal(f.dim)
            lhs, rhs = strong_lyapunov_terms(LyapunovKind.E_PARTIAL, f, x, y, beta,
                                             f.mu, anchor=a)
            leftover = float(a.gstar @ (x - a.xstar))
            if name == "laplacian2d":
                assert leftover == 0.0
            assert abs(lhs - rhs - leftover) <= 1e-13 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("shape", [(1,), (80,), (81, 1)])
    def test_state_shapes_validated(self, lap9, shape):
        # a (1,) y used to broadcast against x* and give a number
        good, bad = np.zeros(81), np.ones(shape)
        for x, y in ((good, bad), (bad, good)):
            with pytest.raises(DimensionError):
                strong_lyapunov_terms(LyapunovKind.E_HNAG, lap9, x, y, beta=1.0)
            with pytest.raises(DimensionError):
                lyapunov(LyapunovKind.E_HNAG, lap9, x, y)

    def test_beta_validated(self, lap9):
        with pytest.raises(ValueError):
            strong_lyapunov_terms(LyapunovKind.E_HNAG, lap9,
                                  np.zeros(81), np.zeros(81), beta=0.0)


class TestSharedAnchor:
    """The anchored, one-oracle-call evaluation reproduces the definitions
    evaluated through ``bregman`` and ``ShiftedObjective`` bit for bit."""

    @pytest.mark.parametrize("name", ["laplacian2d", "piecewise", "logistic"])
    @pytest.mark.parametrize("mu_hat_frac", [0.0, 0.5, 1.0])
    def test_terms_equal_reference(self, problem_trio, name, mu_hat_frac):
        f = problem_trio[name]
        mu_hat = mu_hat_frac * f.mu
        anchor = minimizer_anchor(f)
        rng = agmx.Rng(11)
        for scale in SCALES:
            for _ in range(2):
                x = f.minimizer + scale * rng.standard_normal(f.dim)
                y = f.minimizer + scale * rng.standard_normal(f.dim)
                for kind in ALL_KINDS:
                    beta = flow_beta(kind, f)
                    want = reference_strong_lyapunov_terms(kind, f, x, y, beta, mu_hat)
                    assert strong_lyapunov_terms(kind, f, x, y, beta, mu_hat) == want
                    assert strong_lyapunov_terms(kind, f, x, y, beta, mu_hat,
                                                 anchor=anchor) == want
                    assert lyapunov(kind, f, x, y, mu_hat) == \
                        reference_lyapunov(kind, f, x, y, mu_hat)

    @pytest.mark.parametrize("name", ["laplacian2d", "piecewise", "logistic"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_block_equals_row_calls(self, problem_trio, name, kind):
        # a (B, d) call gives each row the bits of a (d,) call on that row
        f = problem_trio[name]
        a, beta, mu_hat = minimizer_anchor(f), flow_beta(kind, f), 0.5 * f.mu
        rng = agmx.Rng(12)
        xs = a.xstar + np.array(SCALES)[:, None] * rng.standard_normal((4, f.dim))
        ys = a.xstar + np.array(SCALES)[:, None] * rng.standard_normal((4, f.dim))
        lhs, rhs = strong_lyapunov_terms(kind, f, xs, ys, beta, mu_hat, anchor=a)
        assert lhs.shape == rhs.shape == (4,)
        rows = [strong_lyapunov_terms(kind, f, x, y, beta, mu_hat, anchor=a)
                for x, y in zip(xs, ys)]
        assert list(zip(lhs.tolist(), rhs.tolist())) == rows
        one = strong_lyapunov_terms(kind, f, xs[:1], ys[:1], beta, mu_hat, anchor=a)
        assert (one[0].tolist(), one[1].tolist()) == ([rows[0][0]], [rows[0][1]])

    @pytest.mark.parametrize("d", [1, 3, 361, 1000, 31684])
    def test_vecdot_equals_row_matmul(self, d):
        # the block kernel's row dot products must be each row's own ``@``;
        # the rows are strided views, as a sweep's odd-d draws are
        rng = agmx.Rng(d)
        a = rng.standard_normal((6, d + 1))[:, :d][0::2]
        b = rng.standard_normal((3, d))
        v = rng.standard_normal(d)
        assert np.vecdot(a, b).tolist() == [float(p @ q) for p, q in zip(a, b)]
        assert np.vecdot(v, a).tolist() == [float(v @ p) for p in a]
        assert np.vecdot(a, a).tolist() == [float(p @ p) for p in a]

    @pytest.mark.parametrize("problem,states", [
        ("lap19", 10), ("centered_quadratic", 10), ("minus_zero_quadratic", 10),
        ("lap19", 200), ("piecewise101", 200), ("piecewise1000", 200),
        ("lap65", 13), ("lap87", 13),
    ])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sweep_equals_reference_loop(self, problem, states, kind, request):
        # the sweep checks kind's own flow: the reference runs at flow_beta;
        # x* is all +0.0, nonzero, and all -0.0.  At 200 states the sweep
        # spans blocks: 19 at d = 361 (the last partial), 5 at d = 101 and
        # 50 at d = 1000.  At d = 4225 and 7569 a block is one state.  Every
        # sweep leaves its Rng where the loop leaves it
        f = request.getfixturevalue(problem)
        mu_hat, beta = 0.5 * f.mu, flow_beta(kind, f)
        swept = agmx.Rng(3)
        rep = strong_lyapunov_sweep(kind, f, swept, states, SCALES, mu_hat)
        rng = agmx.Rng(3)
        margins = []
        for i in range(states):
            x = f.minimizer + SCALES[i % 4] * (2.0 * rng.uniform(f.dim) - 1.0)
            y = f.minimizer + SCALES[i % 4] * (2.0 * rng.uniform(f.dim) - 1.0)
            lhs, rhs = reference_strong_lyapunov_terms(kind, f, x, y, beta, mu_hat)
            assert (rep.lhs[i], rep.rhs[i], rep.residuals[i]) == (lhs, rhs, lhs - rhs)
            margins.append((lhs - rhs) + 1e-12 * (1.0 + abs(lhs)))
        assert rep.k.tolist() == list(range(states))
        assert rep.margins.tolist() == margins
        assert rep.worst == int(np.argmin(margins))
        assert rep.passes()
        assert swept.uniform(3).tolist() == rng.uniform(3).tolist()

    @pytest.mark.parametrize("centered", [False, True], ids=["laplacian", "centered"])
    @pytest.mark.parametrize("n", [87, 19])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sweep_peak_does_not_grow_with_states(self, kind, n, centered):
        # at n = 87 each block is one state; at n = 19 a block holds 11.
        # Past the first block, an added state may add its report rows (k,
        # lhs, rhs, residual, allowance and the |lhs| it is formed from) to
        # the traced peak, nothing more
        lap = agmx.build_laplacian2d(n)
        d = lap.dim
        f = (agmx.QuadraticObjective(lap.matrix, agmx.Rng(4).standard_normal(d),
                                     lap.mu, lap.lipschitz) if centered else lap)

        def peak(states):
            tracemalloc.start()
            try:
                strong_lyapunov_sweep(kind, f, agmx.Rng(5), states, SCALES, 0.5 * f.mu)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = 60, 600
        assert peak(many) - peak(few) <= 6 * 8 * (many - few)

    def test_sweep_makes_one_oracle_call_per_state(self, lap9, monkeypatch):
        calls = count_calls_at_class(monkeypatch, agmx.QuadraticObjective)
        rep = strong_lyapunov_sweep(LyapunovKind.E_PARTIAL, lap9, agmx.Rng(1), 100,
                                    SCALES, 0.5 * lap9.mu)
        assert len(rep.k) == 100
        # 100 states plus the anchor at x*; the quadratic's value_and_gradient
        # makes its one gradient call and reads the value off it
        assert calls == {"value": 0, "gradient": 101, "value_and_gradient": 101}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_generic_objective_pays_one_value_and_one_gradient(self, lap9, kind):
        f = CountingObjective(lap9)
        strong_lyapunov_sweep(kind, f, agmx.Rng(1), 20, SCALES, 0.5 * f.mu)
        assert (f.value_calls, f.grad_calls) == (21, 21)

    def test_single_state_call_anchors_itself(self, lap9, monkeypatch):
        calls = count_calls_at_class(monkeypatch, agmx.QuadraticObjective)
        x = agmx.Rng(2).standard_normal(lap9.dim)
        strong_lyapunov_terms(LyapunovKind.E_PARTIAL, lap9, x, x, 1.0, 0.5 * lap9.mu)
        assert calls["value_and_gradient"] == 2 and calls["value"] == 0

    @pytest.mark.parametrize("states", [0, -3])
    def test_sweep_needs_a_state(self, lap9, states):
        with pytest.raises(ValueError, match="states"):
            strong_lyapunov_sweep(LyapunovKind.E_HNAG, lap9, agmx.Rng(1), states, SCALES)

    @pytest.mark.parametrize("scales", [(), np.array([])], ids=["tuple", "array"])
    def test_sweep_needs_a_scale(self, lap9, scales):
        with pytest.raises(ValueError, match="scales must be non-empty"):
            strong_lyapunov_sweep(LyapunovKind.E_HNAG, lap9, agmx.Rng(1), 3, scales)

    def test_nan_state_fails_the_sweep(self):
        # a NaN margin used to be skipped, so an unevaluable sweep passed
        calls = {"n": 0}

        def grad(x):
            calls["n"] += 1
            return np.full_like(x, np.nan) if calls["n"] == 4 else x.copy()

        f = SimpleObjective(lambda x: 0.5 * float(x @ x), grad, dim=3, mu=1.0,
                            lipschitz=1.0, minimizer=np.zeros(3))
        rep = strong_lyapunov_sweep(LyapunovKind.E_HNAG, f, agmx.Rng(1), 5, SCALES)
        assert rep.worst == 2            # the anchor takes the first gradient
        assert np.isnan(rep.margins[rep.worst])
        assert not rep.passes()

    def test_allowance_is_the_pass_threshold(self, lap9):
        # a sweep claims lhs >= rhs: a residual of minus the allowance passes
        rep = strong_lyapunov_sweep(LyapunovKind.E_HNAG, lap9, agmx.Rng(1), 5, SCALES)
        assert rep.allowance.tolist() == [1e-12 * (1.0 + abs(v)) for v in rep.lhs]
        residuals = rep.residuals.copy()
        residuals[2] = -rep.allowance[2]
        assert dataclasses.replace(rep, residuals=residuals).passes()
        residuals[2] = np.nextafter(-rep.allowance[2], -np.inf)
        assert not dataclasses.replace(rep, residuals=residuals).passes()

    def test_sweep_csv(self, lap9, tmp_path, capsys):
        # diagnose --seed 0 sweeps with Rng(1) at the flow's beta
        out = tmp_path / "s.csv"
        assert cli.main(["diagnose", "--problem", "laplacian2d", "--n", "9",
                         "--check", "strong_hnag", "--states", "3", "--seed", "0",
                         "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        rep = strong_lyapunov_sweep(LyapunovKind.E_HNAG, lap9, agmx.Rng(1), 3, SCALES)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,lhs,rhs,residual"
        lhs, rhs, res = (float(v[0]) for v in (rep.lhs, rep.rhs, rep.residuals))
        assert lines[1] == f"0,{lhs!r},{rhs!r},{res!r}"
        assert len(lines) == 4


class TestSweepThread:
    """A sweep draws every state and calls every oracle on the calling thread."""

    def test_every_draw_is_on_the_calling_thread(self, lap65, monkeypatch):
        threads = []
        draw = agmx.Rng._raw

        def recorded(self, n):
            threads.append(threading.current_thread())
            return draw(self, n)

        monkeypatch.setattr(agmx.Rng, "_raw", recorded)
        before = threading.active_count()
        strong_lyapunov_sweep(LyapunovKind.E_HNAG, lap65, agmx.Rng(1), 5, SCALES)
        assert threads == [threading.current_thread()] * 5    # one state per block
        assert threading.active_count() == before

    def test_oracle_error_propagates(self, lap65):
        # at d > 4096 each block is one state; the oracle fails at the third
        calls = {"n": 0}

        def grad(x):
            calls["n"] += 1
            if calls["n"] == 4:          # the anchor takes the first gradient
                raise ValueError("oracle failed")
            return lap65.gradient(x)

        f = SimpleObjective(lap65.value, grad, dim=lap65.dim, mu=lap65.mu,
                            lipschitz=lap65.lipschitz, minimizer=lap65.minimizer)
        with pytest.raises(ValueError, match="oracle failed"):
            strong_lyapunov_sweep(LyapunovKind.E_HNAG, f, agmx.Rng(1), 9, SCALES)
        assert calls["n"] == 4


class TestCheckMethods:
    def test_every_check_has_one_method(self):
        assert set(CHECKS) == {t.value for t in ContractionTheorem} | {
            "strong_hnag", "strong_hnag_plus", "strong_partial"}
        targets = [t for t, _ in CHECKS.values()]
        assert set(targets) == set(ContractionTheorem) | set(LyapunovKind)
        assert {check: method for check, (_, method) in CHECKS.items()} == {
            "thm_hnag_funcval": MethodKind.HNAG,
            "thm_hnag_plus": MethodKind.HNAG_PLUS,
            "prop_quadratic": MethodKind.HNAG,
            "strong_hnag": MethodKind.HNAG,
            "strong_hnag_plus": MethodKind.HNAG_PLUS,
            "strong_partial": MethodKind.HNAG,
        }

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_flow_beta(self, lap9, kind):
        method = MethodKind.HNAG_PLUS if kind is LyapunovKind.E_HNAG_PLUS else MethodKind.HNAG
        p = agmx.make_params(method, lap9.mu, lap9.lipschitz)
        assert flow_beta(kind, lap9) == p.alpha_beta / p.alpha


class TestTraceEnergyColumns:
    @pytest.mark.parametrize("method,shifted_kind,shift_weight", [
        (MethodKind.HNAG, LyapunovKind.E_PARTIAL, None),
        (MethodKind.HNAG_PLUS, LyapunovKind.E_HNAG_PLUS, None),
    ])
    def test_columns_match_definition_route(self, lap9, method, shifted_kind, shift_weight):
        # the solve loop assembles E / E_shifted from recorded scalars; the
        # lyapunov module evaluates the definitions from scratch at the same
        # states reconstructed by re-stepping
        from agmx.solvers import init_state, make_params, step

        f = lap9
        tr = solve(f, SolverConfig(method=method, max_iter=40), agmx.Rng(3).uniform(f.dim))
        p = make_params(method, f.mu, f.lipschitz)
        st = init_state(method, f, agmx.Rng(3).uniform(f.dim), p)
        for k in range(min(tr.iterations, 40) + 1):
            x, y = st.x, st.aux / p.alpha
            e_def = lyapunov(LyapunovKind.E_HNAG, f, x, y)
            scale = 1e-12 * (1.0 + abs(e_def))
            assert abs(tr.E[k] - e_def) <= scale
            es_def = lyapunov(shifted_kind, f, x, y, mu_hat=f.mu)
            assert abs(tr.E_shifted[k] - es_def) <= 1e-12 * (1.0 + abs(es_def))
            gsh = f.gradient(x) - f.mu * (x - f.minimizer)
            assert abs(tr.grad_shifted_sq[k] - float(gsh @ gsh)) <= \
                1e-12 * (1.0 + float(gsh @ gsh))
            if k <= tr.iterations - 1:
                st = step(method, st, f, p)


class TestContraction:
    def test_method_mismatch_rejected(self, lap9):
        tr = solve(lap9, SolverConfig(method=MethodKind.GD),
                   agmx.Rng(1).uniform(lap9.dim))
        with pytest.raises(ValueError):
            contraction_residuals(ContractionTheorem.THM_HNAG_PLUS, tr, lap9)

    def test_trace_from_minimizer_has_zero_residuals(self, lap9):
        tr = solve(lap9, SolverConfig(method=MethodKind.HNAG), lap9.minimizer)
        rep = contraction_residuals(ContractionTheorem.THM_HNAG_FUNCVAL, tr, lap9)
        assert rep.residuals.size == 0   # converged at x0 = x*, with no step
        assert rep.passes()

    @pytest.mark.parametrize("theorem,method", [
        (ContractionTheorem.THM_HNAG_FUNCVAL, MethodKind.HNAG),
        (ContractionTheorem.PROP_QUADRATIC, MethodKind.HNAG),
        (ContractionTheorem.THM_HNAG_PLUS, MethodKind.HNAG_PLUS),
    ])
    def test_contraction_on_laplacian(self, lap19, theorem, method):
        tr = solve(lap19, SolverConfig(method=method),
                   agmx.Rng(42).uniform(lap19.dim))
        rep = contraction_residuals(theorem, tr, lap19)
        assert rep.passes()
        assert len(rep.residuals) == tr.iterations

    @pytest.mark.parametrize("grid", ["lap9", "lap19"])
    @pytest.mark.parametrize("theorem,method", [
        (ContractionTheorem.THM_HNAG_FUNCVAL, MethodKind.HNAG),
        (ContractionTheorem.PROP_QUADRATIC, MethodKind.HNAG),
        (ContractionTheorem.THM_HNAG_PLUS, MethodKind.HNAG_PLUS),
    ])
    def test_rhs_uses_the_closed_form_factor(self, request, grid, theorem, method):
        # the factor 1/(1 + w alpha) rounds as each theorem's closed form
        f = request.getfixturevalue(grid)
        mu, L = f.mu, f.lipschitz
        tr = solve(f, SolverConfig(method=method), agmx.Rng(42).uniform(f.dim))
        if theorem is ContractionTheorem.THM_HNAG_FUNCVAL:
            energy = tr.E - tr.grad_norm**2 / (2.0 * L)
            rate = 1.0 / (1.0 + np.sqrt(2.0 * mu / L))
        else:
            energy = tr.E_shifted - tr.grad_shifted_sq / (2.0 * L)
            if theorem is ContractionTheorem.THM_HNAG_PLUS:
                rate = 1.0 / (1.0 + 2.0 * np.sqrt(mu / L))
            else:
                rate = 1.0 / (1.0 + 2.0 * np.sqrt(2.0 * mu / L))
        rep = contraction_residuals(theorem, tr, f)
        np.testing.assert_array_equal(rep.rhs, rate * energy[:-1])

    def test_tolerance_is_the_pass_threshold(self, lap19):
        tr = solve(lap19, SolverConfig(method=MethodKind.HNAG),
                   agmx.Rng(42).uniform(lap19.dim))
        rep = contraction_residuals(ContractionTheorem.THM_HNAG_FUNCVAL, tr, lap19)
        energy0 = tr.E[0] - tr.grad_norm[0] ** 2 / (2.0 * lap19.lipschitz)
        assert rep.allowance == 1e-10 * energy0
        residuals = rep.residuals.copy()
        residuals[3] = rep.allowance
        assert dataclasses.replace(rep, residuals=residuals).passes()
        residuals[3] = np.nextafter(rep.allowance, np.inf)
        assert not dataclasses.replace(rep, residuals=residuals).passes()

    def test_growing_energy_fails_at_its_step(self, lap9):
        # a trace rebuilt from CSV columns, as bench/workloads.py certifies a
        # run, whose energy doubles at step j where every other step halves it
        j, n = 7, 20
        energy = 0.5 ** np.arange(n + 1)
        energy[j + 1:] *= 4.0
        tr = agmx.Trace(method=MethodKind.HNAG, status=agmx.TerminalStatus.CONVERGED,
                        k=np.arange(n + 1), f_gap=energy, grad_norm=np.zeros(n + 1),
                        x_err_sq=energy, y_err_sq=energy, E=energy, E_shifted=energy)
        rep = contraction_residuals(ContractionTheorem.THM_HNAG_FUNCVAL, tr, lap9)
        assert not rep.passes()
        assert rep.worst == j
        assert rep.margins[j] < 0.0
        assert (np.delete(rep.margins, j) >= rep.allowance).all()

    def test_worst_row_is_the_first_of_tied_margins(self):
        # residuals far below the allowance leave it as every row's margin, so
        # the worst row is row 0 though row 1 holds the largest residual
        rep = CheckReport(k=np.arange(2), lhs=np.array([1e-30, 2e-30]), rhs=np.zeros(2),
                          residuals=np.array([1e-30, 2e-30]), allowance=1e-10, upper=True)
        assert rep.margins.tolist() == [1e-10, 1e-10]
        assert rep.worst == 0
        assert rep.residuals.max() == 2e-30

    def test_needs_lyapunov_recording(self, lap9):
        # a trace rebuilt from the trace CSV columns has no grad_shifted_sq
        tr = solve(lap9, SolverConfig(method=MethodKind.HNAG),
                   agmx.Rng(1).uniform(lap9.dim))
        from_csv = agmx.Trace(method=tr.method, status=tr.status, k=tr.k,
                              f_gap=tr.f_gap, grad_norm=tr.grad_norm,
                              x_err_sq=tr.x_err_sq, y_err_sq=tr.y_err_sq,
                              E=tr.E, E_shifted=tr.E_shifted)
        assert from_csv.grad_shifted_sq is None
        with pytest.raises(ValueError, match="grad_shifted_sq"):
            contraction_residuals(ContractionTheorem.PROP_QUADRATIC, from_csv, lap9)
        assert contraction_residuals(ContractionTheorem.PROP_QUADRATIC, tr, lap9).passes()

    @pytest.mark.parametrize("theorem", list(ContractionTheorem))
    def test_needs_energies(self, theorem, lap9):
        tr = solve(lap9, SolverConfig(method=CHECKS[theorem.value][1]),
                   agmx.Rng(1).uniform(lap9.dim), energies=False)
        with pytest.raises(ValueError, match="energies=False"):
            contraction_residuals(theorem, tr, lap9)

    def test_report_csv_columns(self, lap9, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(["diagnose", "--problem", "laplacian2d", "--n", "9",
                         "--check", "thm_hnag_funcval", "--seed", "1",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        tr = solve(lap9, SolverConfig(method=MethodKind.HNAG),
                   agmx.Rng(1).uniform(lap9.dim))
        rep = contraction_residuals(ContractionTheorem.THM_HNAG_FUNCVAL, tr, lap9)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,lhs,rhs,residual"
        assert len(lines) == len(rep.residuals) + 1


class TestMutantTable:
    """Wrong kernels, each run under the label of the method it poses as."""

    # per grid: the box trace's steps to tol 1e-8 from Rng(42).uniform, and
    # the worst row of each check, None where the check passes it
    @pytest.mark.parametrize("n,iterations,funcval_worst,quadratic_worst", [
        (2, 47, None, 0), (3, 70, None, 1), (4, 155, 7, 1), (5, 1125, 3, 2)])
    def test_box_ordering_through_the_trace_checks(self, n, iterations, funcval_worst,
                                                   quadratic_worst):
        method, kernel = MUTANTS["box_ordering"]
        f = agmx.build_laplacian2d(n)
        trace = reference_solve(f, method, agmx.Rng(42).uniform(f.dim), kernel=kernel)
        assert trace.method is MethodKind.HNAG
        assert trace.status is agmx.TerminalStatus.CONVERGED
        assert trace.iterations == iterations
        for check, worst in (("thm_hnag_funcval", funcval_worst),
                             ("prop_quadratic", quadratic_worst)):
            report = contraction_residuals(CHECKS[check][0], trace, f)
            assert report.passes() is (worst is None), check
            if worst is not None:
                assert report.worst == worst, check

    # lap43's step is the one the box ordering had as a solver method
    @pytest.mark.parametrize("n,iteration", [(6, 6663), (7, 3366), (43, 846)])
    def test_box_ordering_diverges_from_lap6_on(self, n, iteration):
        method, kernel = MUTANTS["box_ordering"]
        f = agmx.build_laplacian2d(n)
        with pytest.raises(agmx.DivergenceError) as err:
            reference_solve(f, method, agmx.Rng(42).uniform(f.dim), kernel=kernel)
        assert err.value.iteration == iteration


class TestAsymmetryBound:
    def test_quadratic_is_exactly_zero(self):
        f = diagonal_quadratic([1.0, 5.0])
        lhs, rhs = asymmetry_bound_check(f, np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        assert rhs == 0.0
        assert lhs <= 1e-13

    def test_identical_points(self, logistic_default):
        x = agmx.Rng(2).standard_normal(logistic_default.dim)
        lhs, rhs = asymmetry_bound_check(logistic_default, x, x)
        assert (lhs, rhs) == (0.0, 0.0)

    def test_logistic_sweep(self, logistic_default):
        f = logistic_default
        rng = agmx.Rng(7)
        for i in range(10):
            x = rng.standard_normal(f.dim)
            y = x + (1e-2, 1e-1, 1.0)[i % 3] * rng.standard_normal(f.dim)
            lhs, rhs = asymmetry_bound_check(f, x, y)
            assert lhs <= rhs * (1 + 1e-10)

    def test_requires_hessian_constant(self, piecewise_default):
        with pytest.raises(ValueError):
            asymmetry_bound_check(piecewise_default, np.zeros(100), np.ones(100))


class TestGradientNormShiftInequality:
    def test_consecutive_shifts(self, logistic_default):
        # ||grad f_k(x)||^2 >= ||grad f_{k-1}(x)||^2
        #                      - 2 (mu_k - mu_{k-1}) <grad f_{k-1}(x), x - x*>
        f = logistic_default
        sched = shift_schedule(0.5, 0.125, f.mu / f.lipschitz, 6)
        xstar = f.minimizer
        rng = agmx.Rng(8)
        for _ in range(5):
            x = rng.standard_normal(f.dim)
            for k in range(1, 6):
                mu_prev = sched.mu_k[k - 1] * f.mu
                mu_cur = sched.mu_k[k] * f.mu
                g_prev = ShiftedObjective(f, mu_prev, xstar).gradient(x)
                g_cur = ShiftedObjective(f, mu_cur, xstar).gradient(x)
                lhs = float(g_cur @ g_cur)
                rhs = float(g_prev @ g_prev) \
                    - 2.0 * (mu_cur - mu_prev) * float(g_prev @ (x - xstar))
                assert lhs >= rhs - 1e-10 * (1.0 + abs(lhs))


class TestShiftSchedule:
    def test_full_initial_shift(self):
        s = shift_schedule(1.0, 0.125, 1e-2, 10)
        assert s.mu_k[0] == 0.0
        assert s.c[0] == pytest.approx(1.0)
        assert s.r[0] == pytest.approx(1.0 / (1.0 + np.sqrt(2e-2)), rel=1e-12)

    def test_limit_rate_value(self):
        s = shift_schedule(1e-4, 0.125, 1e-4, 10)
        assert s.limit_rate == pytest.approx(0.97249, abs=5e-6)
        assert s.limit_rate == pytest.approx(1.0 / (1.0 + 2.0 * np.sqrt(2e-4)), rel=1e-14)

    def test_monotonicity(self):
        s = shift_schedule(0.2, 0.125, 1e-3, 5000)
        assert (np.diff(s.mu_k) > 0).all()
        assert (np.diff(s.r) < 0).all()
        assert (s.r > s.limit_rate).all()
        assert s.c[-1] == pytest.approx(2.0, abs=1e-3)

    def test_cancellation_holds_up_to_a_max(self):
        a_max = 0.75 * (np.sqrt(2.0) - 1.0)
        for a in (1e-3, 0.05, 0.125, a_max):
            for rho in (1e-6, 1e-4, 1e-2, 1.0):
                s = shift_schedule(0.5, a, rho, 10)
                assert s.cancellation_ok, (a, rho)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            shift_schedule(0.0, 0.125, 1e-2, 10)
        with pytest.raises(ValueError):
            shift_schedule(0.5, 0.5, 1e-2, 10)  # a too large
        with pytest.raises(ValueError):
            shift_schedule(0.5, 0.125, 2.0, 10)
        with pytest.raises(ValueError):
            shift_schedule(0.5, 0.125, 1e-2, 0)
