import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import agmx
from agmx import Rng, build_laplacian2d, build_logistic, build_piecewise, problems, rebuild
from agmx.core import DimensionError
from agmx.problems import (
    EigenEstimateError,
    LogisticObjective,
    PiecewiseSmoothObjective,
    QuadraticObjective,
    check_gradient,
    estimate_extreme_eigs,
    piecewise_h,
    piecewise_h_prime,
)

from _helpers import count_calls_at_class, reference_standard_normal, splitmix64_reference

# sha256 over the streams of ``_stream_digest``, recorded from the allocating
# implementation (numpy 2.4, x86-64); normals also depend on log1p/cos/sin.
STREAM_SHA256 = {
    "uniform": "689da29621c6cdc665dccb0a868b54adba851feab8fb51c0c77a2405220e5719",
    "standard_normal": "d97051c4b11dd2a6517f77da3c25ef40661aab5ae517e776470dbb6f0ad3e8f4",
    "signs": "593dd93fe5efdf7c1ea81df009998bf6a4834589690be43769f42f6d8aac5ec7",
}
EDGE_SEEDS = (0, 42, 2**64 - 1, 2**64 - 2, 2**63, -1)


def piecewise_h_second(t, eps):
    """h''(t) of the piecewise penalty, with h's support cutoff: the reference
    for sup h'' = 1, which makes the piecewise objective L-smooth."""
    return problems._on_support(
        t, eps, lambda tm: np.exp(-eps / tm) * (1.0 + eps / tm + 0.5 * (eps / tm) ** 2))


def _stream_digest(kind):
    h = hashlib.sha256()
    for seed in EDGE_SEEDS:
        draw = getattr(Rng(seed), kind)
        for size in (None, 0, 1, 2, 7, 8, 1001, (3, 5), (4, 3, 2)):
            a = np.asarray(draw(size), dtype=np.float64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


class TestRng:
    @pytest.mark.parametrize("kind", sorted(STREAM_SHA256))
    def test_streams_are_pinned(self, kind):
        # scalar, empty, odd, even and multi-dimensional draws, in sequence
        # on one generator per seed, seeds at both ends of the uint64 range
        assert _stream_digest(kind) == STREAM_SHA256[kind]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("count", [1, 2, 7, 8, 31])
    def test_draws_match_reference_formulas(self, seed, count):
        np.testing.assert_array_equal(Rng(seed).uniform(count),
                                      splitmix64_reference(seed, count))
        np.testing.assert_array_equal(Rng(seed).standard_normal(count),
                                      reference_standard_normal(seed, count))
        np.testing.assert_array_equal(
            Rng(seed).standard_normal((count, 2)).ravel(),
            reference_standard_normal(seed, 2 * count))
        assert Rng(seed).standard_normal() == reference_standard_normal(seed, 1)[0]
        assert Rng(seed).uniform() == splitmix64_reference(seed, 1)[0]

    def test_matches_pure_python_splitmix64(self):
        got = Rng(42).uniform(16)
        np.testing.assert_array_equal(got, splitmix64_reference(42, 16))
        got7 = Rng(7).uniform(8)
        np.testing.assert_array_equal(got7, splitmix64_reference(7, 8))

    def test_stream_is_stateful(self):
        r = Rng(42)
        first, second = r.uniform(4), r.uniform(4)
        np.testing.assert_array_equal(
            np.concatenate([first, second]), splitmix64_reference(42, 8))

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(deadline=None, max_examples=30)
    def test_same_seed_same_stream(self, seed):
        a, b = Rng(seed), Rng(seed)
        np.testing.assert_array_equal(a.standard_normal(9), b.standard_normal(9))
        np.testing.assert_array_equal(a.uniform(5), b.uniform(5))

    def test_uniform_range_and_shapes(self):
        u = Rng(0).uniform((3, 4))
        assert u.shape == (3, 4)
        assert ((u >= 0.0) & (u < 1.0)).all()
        assert isinstance(Rng(0).uniform(), float)

    def test_normals_are_standard_ish(self):
        z = Rng(123).standard_normal(50_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_signs(self):
        s = Rng(5).signs(1000)
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert abs(s.mean()) < 0.1


class TestLaplacian2d:
    def test_single_interior_point(self):
        f = build_laplacian2d(1)
        np.testing.assert_allclose(f.matrix.toarray(), [[16.0]], rtol=1e-15)
        assert f.mu == pytest.approx(16.0)
        assert f.lipschitz == pytest.approx(16.0)

    def test_analytic_extremes_n3(self):
        f = build_laplacian2d(3)
        assert f.mu == pytest.approx(128 * np.sin(np.pi / 8) ** 2, rel=1e-12)
        assert f.mu == pytest.approx(18.7452, abs=1e-4)
        assert f.lipschitz == pytest.approx(109.2548, abs=1e-4)
        assert f.lipschitz / f.mu == pytest.approx(5.8284, abs=1e-4)
        # the analytic extremes really are the matrix's extreme eigenvalues
        lams = np.linalg.eigvalsh(f.matrix.toarray())
        assert lams[0] == pytest.approx(f.mu, rel=1e-10)
        assert lams[-1] == pytest.approx(f.lipschitz, rel=1e-10)

    def test_kappa_scaling(self):
        k39 = build_laplacian2d(39)
        k79 = build_laplacian2d(79)
        ratio = (k79.lipschitz / k79.mu) / (k39.lipschitz / k39.mu)
        assert 3.9 <= ratio <= 4.1

    def test_center_and_validation(self):
        f = build_laplacian2d(4)
        assert np.array_equal(f.minimizer, np.zeros(16))
        assert f.value(np.zeros(16)) == 0.0
        with pytest.raises(ValueError):
            build_laplacian2d(0)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# The centers the oracle must treat alike: only the first one skips x - c.
QUAD_CENTERS = {
    "plus_zero": np.zeros(9),
    "minus_zero": np.full(9, -0.0),
    "mixed_zero": np.array([0.0, -0.0] * 4 + [0.0]),
    "random": Rng(5).standard_normal(9),
}


_TINY = np.finfo(np.float64).smallest_subnormal
QUAD_INPUTS = {
    "signed_zeros": np.array([0.0, -0.0] * 4 + [-0.0]),
    "infinities": np.array([np.inf, -np.inf, 1.0, -0.0, 0.0, 2.0, -3.0, 0.5, 1.5]),
    "nan": np.array([np.nan, 1.0, -0.0, 0.0, -np.nan, 2.0, 3.0, -1.0, 0.25]),
    "subnormals": np.array([_TINY, -_TINY, 3 * _TINY, -0.0, 0.0, 1e-310, -2e-310, _TINY, 0.0]),
    "random": Rng(6).standard_normal(9),
}


class TestQuadraticOracle:
    """Bit for bit against the formulas with x - c written out."""

    A = build_laplacian2d(3).matrix

    @pytest.mark.parametrize("x_name", list(QUAD_INPUTS))
    @pytest.mark.parametrize("c_name", list(QUAD_CENTERS))
    def test_equals_the_written_out_formulas(self, c_name, x_name, monkeypatch):
        c, x = QUAD_CENTERS[c_name], QUAD_INPUTS[x_name]
        f = QuadraticObjective(self.A, c, 1.0, 2.0)
        with np.errstate(invalid="ignore", over="ignore"):
            r = x - c
            g_ref = self.A @ r
            v_ref = 0.5 * float(r @ (self.A @ r))
            vg_ref = 0.5 * float(r @ g_ref)
            assert _bits(f.value(x)) == _bits(v_ref)
            assert np.array_equal(_bits(f.gradient(x)), _bits(g_ref))
            calls = count_calls_at_class(monkeypatch, QuadraticObjective,
                                         ops=("value", "gradient"))
            value, grad = f.value_and_gradient(x)
        assert _bits(value) == _bits(vg_ref)
        assert np.array_equal(_bits(grad), _bits(g_ref))
        assert calls == {"value": 0, "gradient": 1}

    def test_strided_input_rounds_as_the_subtraction(self):
        # x - c is contiguous, and a strided dot product can round differently
        f = build_laplacian2d(17)
        for seed in range(8):
            x = Rng(seed).standard_normal(2 * f.dim)[::2]
            r = x - np.zeros(f.dim)
            g = f.matrix @ r
            assert _bits(f.value(x)) == _bits(0.5 * float(r @ (f.matrix @ r)))
            assert _bits(f.value_and_gradient(x)[0]) == _bits(0.5 * float(r @ g))

    @pytest.mark.parametrize("c_name", list(QUAD_CENTERS))
    def test_caller_writes_to_the_center_change_nothing(self, c_name):
        c = QUAD_CENTERS[c_name].copy()
        f = QuadraticObjective(self.A, c, 1.0, 2.0)
        with np.errstate(invalid="ignore", over="ignore"):
            before = [(f.value(x), f.gradient(x), *f.value_and_gradient(x))
                      for x in QUAD_INPUTS.values()]
            c[:] = 1.0
            c[0] = -0.0
            after = [(f.value(x), f.gradient(x), *f.value_and_gradient(x))
                     for x in QUAD_INPUTS.values()]
        for old, new in zip(before, after):
            for a, b in zip(old, new):
                assert np.array_equal(_bits(a), _bits(b))
        assert np.array_equal(_bits(f.minimizer), _bits(QUAD_CENTERS[c_name]))
        assert not f.center.flags.writeable


def _kron_laplacian(n):
    """The CSR the Laplacian builder assembled before the stencil."""
    h = 1.0 / (n + 1)
    K = sp.diags([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return ((sp.kron(eye, K) + sp.kron(K, eye)) / h**2).tocsr()


def _stencil_inputs(n):
    """Named inputs: signed-zero patches, all -0.0, +-inf, NaN, subnormals,
    random, and a strided view."""
    d = n * n
    rng = Rng(100 + n)
    u = rng.uniform(d)
    base = rng.standard_normal(d)
    out = {"all_minus_zero": np.full(d, -0.0), "all_plus_zero": np.zeros(d),
           "random": base.copy(), "strided": rng.standard_normal(2 * d)[::2]}
    zeros = base.copy()
    zeros[u < 0.3], zeros[u > 0.7] = 0.0, -0.0
    out["signed_zero_patches"] = zeros
    inf = zeros.copy()
    inf[u < 0.1], inf[u > 0.9] = np.inf, -np.inf
    out["infinities"] = inf
    nan = zeros.copy()
    nan[u < 0.05], nan[u > 0.95], nan[(u > 0.5) & (u < 0.55)] = np.nan, -np.nan, np.inf
    out["nan"] = nan
    sub = zeros.copy()
    sub[u < 0.4] *= _TINY
    sub[u > 0.8] = -3 * _TINY
    out["subnormals"] = sub
    return out


STENCIL_GRIDS = (1, 2, 3, 9, 43, 178)


class TestLaplacianStencil:
    """The matrix-free Laplacian against the kron-built CSR, bit for bit."""

    @pytest.mark.parametrize("n", STENCIL_GRIDS)
    def test_oracle_equals_the_csr_matvec(self, n):
        f = build_laplacian2d(n)
        A = _kron_laplacian(n)
        # for n in 2..5 the kron build stores explicit zeros, whose 0 * inf
        # products turn a row NaN; without them the CSR is the 5-point matrix
        pruned = A.copy()
        pruned.eliminate_zeros()
        assert (pruned.nnz < A.nnz) == (2 <= n <= 5)
        for name, x in _stencil_inputs(n).items():
            ref = QuadraticObjective(A if np.isfinite(x).all() else pruned,
                                     np.zeros(n * n), f.mu, f.lipschitz)
            # the stencil is as silent as the CSR loop on inf and NaN
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grad = f.gradient(x)
            assert np.array_equal(_bits(grad), _bits(ref.gradient(x))), name
            # the value's dot product warns on both paths alike
            with np.errstate(invalid="ignore", over="ignore"):
                value, grad = f.value_and_gradient(x)
                ref_value, ref_grad = ref.value_and_gradient(x)
                assert _bits(f.value(x)) == _bits(ref.value(x)), name
            assert np.array_equal(_bits(grad), _bits(ref_grad)), name
            assert _bits(value) == _bits(ref_value), name

    @pytest.mark.parametrize("n", STENCIL_GRIDS)
    def test_matrix_equals_the_stencil_on_every_input(self, n):
        # .matrix holds no explicit zero, so no 0 * inf turns a row NaN; for
        # n in 2..5 one input puts an inf where the kron build stores a zero
        f, kron = build_laplacian2d(n), _kron_laplacian(n)
        inputs = _stencil_inputs(n)
        kron_zeros = kron.indices[kron.data == 0.0]
        assert (kron_zeros.size > 0) == (2 <= n <= 5)
        if kron_zeros.size:
            inputs["inf_at_a_kron_zero"] = np.zeros(n * n)
            inputs["inf_at_a_kron_zero"][kron_zeros[0]] = np.inf
        for name, x in inputs.items():
            assert np.array_equal(_bits(f.matrix @ x), _bits(f.gradient(x))), name

    @pytest.mark.parametrize("n", STENCIL_GRIDS)
    def test_matrix_is_todays_csr_built_once(self, n):
        f = build_laplacian2d(n)
        A, ref = f.matrix, _kron_laplacian(n)
        ref.eliminate_zeros()
        assert isinstance(A, sp.csr_matrix) and A.has_sorted_indices
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(_bits(A.data), _bits(ref.data))
        assert f.matrix is A

    @pytest.mark.parametrize("shape", [(), (1,), (48,), (49, 1)])
    def test_wrong_shape_rejected(self, shape):
        # the CSR matvec raised on a length mismatch; a (1,) x must not broadcast
        f, x = build_laplacian2d(7), np.ones(shape)
        for oracle in (f.gradient, f.value, f.value_and_gradient):
            with pytest.raises(DimensionError):
                oracle(x)

    def test_a_given_matrix_is_held_as_csr(self):
        dense = np.diag([1.0, 2.0, 3.0])
        f = QuadraticObjective(dense, np.zeros(3), 1.0, 3.0)
        assert isinstance(f.matrix, sp.csr_matrix) and f.matrix is f.matrix
        assert np.array_equal(f.matrix.toarray(), dense)

    def test_a_result_outlives_the_next_call(self):
        # the operator's scratch vectors never leak into a returned gradient
        f = build_laplacian2d(7)
        x = Rng(1).standard_normal(49)
        g = f.gradient(x)
        kept = g.copy()
        f.value_and_gradient(-3.0 * x)
        assert np.array_equal(_bits(g), _bits(kept))

    def test_threads_sharing_one_operator_get_the_serial_gradients(self):
        # numpy drops the GIL inside each pass, so threads that shared the
        # scratch vectors mixed each other's partial sums into their results
        f = build_laplacian2d(178)
        xs = [Rng(seed).standard_normal(f.dim) for seed in range(4)]
        serial = [_bits(f.gradient(x)) for x in xs]
        done, wrong = [0] * 4, [0] * 4

        def work(i):
            for _ in range(300):
                wrong[i] += not np.array_equal(_bits(f.gradient(xs[i])), serial[i])
                done[i] += 1

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert done == [300] * 4 and wrong == [0] * 4


class TestEstimateExtremeEigs:
    def test_identity(self):
        lo, hi = estimate_extreme_eigs(lambda v: v.copy(), 5, tol=1e-12)
        assert lo == pytest.approx(1.0, rel=1e-10)
        assert hi == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        D = np.array([1.0, 10.0])
        lo, hi = estimate_extreme_eigs(lambda v: D * v, 2, tol=1e-12)
        assert lo == pytest.approx(1.0, rel=1e-8)
        assert hi == pytest.approx(10.0, rel=1e-8)

    def test_matches_analytic_laplacian(self):
        f = build_laplacian2d(3)
        lo, hi = estimate_extreme_eigs(lambda v: f.matrix @ v, 9, tol=1e-12)
        assert lo == pytest.approx(f.mu, rel=1e-6)
        assert hi == pytest.approx(f.lipschitz, rel=1e-6)

    def test_iteration_cap(self):
        D = np.array([1.0, 1.0 + 1e-12])
        with pytest.raises(EigenEstimateError):
            estimate_extreme_eigs(lambda v: D * v, 2, tol=1e-16, max_iter=3)


class TestBuilderEigenvalue:
    """The Gram builders take lambda_max(A^T A) from a dense eigensolve of the
    small Gram matrix, so no builder runs a power iteration."""

    @pytest.mark.parametrize("kind", list(problems.BUILDERS))
    def test_builds_without_power_iteration(self, kind, monkeypatch):
        def refuse(*args):
            raise EigenEstimateError("a builder ran a power iteration")

        monkeypatch.setattr(problems, "_power_iteration", refuse)
        with pytest.raises(EigenEstimateError):
            estimate_extreme_eigs(lambda v: v, 2)
        problems.BUILDERS[kind]()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 42])
    def test_piecewise_scale_is_the_dense_gram_top(self, seed):
        f = build_piecewise(seed=seed)
        A = Rng(seed).standard_normal((f.dim, f.p))
        gram_max = np.linalg.eigvalsh(A.T @ A)[-1]
        assert f.A.tobytes() == (A * np.sqrt((f.lipschitz - f.mu) / gram_max)).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 42])
    def test_logistic_lipschitz_is_the_dense_gram_top(self, seed):
        f = build_logistic(seed=seed)
        G = f.A.T @ f.A
        gram_max = np.linalg.eigvalsh(G)[-1]
        assert f.lipschitz == gram_max + f.lam and f.lipschitz - f.lam == gram_max
        V = Rng(seed + 1).standard_normal((100, f.m))
        rayleigh = np.einsum("ij,jk,ik->i", V, G, V) / np.einsum("ij,ij->i", V, V)
        assert (f.lipschitz - f.lam >= rayleigh).all()
        again = rebuild(f.description())
        assert again.lipschitz == f.lipschitz
        assert again.A.tobytes() == f.A.tobytes() and again.b.tobytes() == f.b.tobytes()

    def test_bits_do_not_depend_on_blas_threads(self):
        # A^T A is a BLAS product; the builders' outputs must not depend on
        # how many threads compute it
        script = (
            "import hashlib, agmx\n"
            "for seed in (0, 3, 42):\n"
            "    for f in (agmx.build_piecewise(seed=seed), agmx.build_logistic(seed=seed)):\n"
            "        h = hashlib.sha256(f.lipschitz.hex().encode() + f.A.tobytes())\n"
            "        print(seed, type(f).__name__, h.hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 6
        assert outputs[0] == outputs[1]


class TestPiecewiseProblem:
    def test_defaults(self, piecewise_default):
        f = piecewise_default
        assert (f.mu, f.lipschitz, f.dim, f.p, f.eps) == (1.0, 1e4, 100, 5, 1e-6)

    @pytest.mark.parametrize("seed", [*range(32), 42, 2026])
    def test_spectral_norm_scaled(self, seed):
        f = build_piecewise(seed=seed)
        target = np.sqrt(f.lipschitz - f.mu)
        assert abs(np.linalg.norm(f.A, 2) - target) <= 1e-14 * target

    def test_gradient_is_linear_on_inactive_region(self, piecewise_default):
        f = piecewise_default
        # least-norm x with A^T x = b - 1, so every component is inactive
        x, *_ = np.linalg.lstsq(f.A.T, f.b - 1.0, rcond=None)
        assert (f.A.T @ x - f.b < 0).all()
        np.testing.assert_array_equal(f.gradient(x), f.mu * x)
        assert check_gradient(f, x) <= 1e-8

    def test_h_regularity(self):
        eps = 1e-6
        neg = np.array([-2.0, -1e-9, 0.0])
        assert (piecewise_h(neg, eps) == 0.0).all()
        assert (piecewise_h_prime(neg, eps) == 0.0).all()
        assert (piecewise_h_second(neg, eps) == 0.0).all()
        pos = np.geomspace(1e-9, 1e3, 200)
        h2 = piecewise_h_second(pos, eps)
        assert (h2 >= 0.0).all()
        assert (h2 <= 1.0 + 1e-12).all()  # sup h'' = 1, approached from below

    def test_h_closed_forms_on_a_mixed_array(self):
        # each entry on its own: zero off the support, the formula on it
        eps = 0.3
        t = np.array([-1.0, 0.0, eps / 1000.0, 0.05, 0.5, 2.0])
        on = t > eps / 709.0
        e = np.exp(-eps / t[on])
        want_h = np.zeros_like(t)
        want_h[on] = 0.5 * t[on] ** 2 * e
        want_h1 = np.zeros_like(t)
        want_h1[on] = e * (t[on] + 0.5 * eps)
        want_h2 = np.zeros_like(t)
        want_h2[on] = e * (1.0 + eps / t[on] + 0.5 * (eps / t[on]) ** 2)
        np.testing.assert_array_equal(piecewise_h(t, eps), want_h)
        np.testing.assert_array_equal(piecewise_h_prime(t, eps), want_h1)
        np.testing.assert_array_equal(piecewise_h_second(t, eps), want_h2)

    def test_h_derivatives_match_differences(self):
        eps, step = 0.3, 1e-6
        t = np.linspace(0.01, 3.0, 50)
        fd1 = (piecewise_h(t + step, eps) - piecewise_h(t - step, eps)) / (2 * step)
        fd2 = (piecewise_h_prime(t + step, eps)
               - piecewise_h_prime(t - step, eps)) / (2 * step)
        np.testing.assert_allclose(piecewise_h_prime(t, eps), fd1, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(piecewise_h_second(t, eps), fd2, rtol=1e-6, atol=1e-9)

    def test_reproducible_and_rebuildable(self):
        f1 = build_piecewise(seed=42)
        f2 = build_piecewise(seed=42)
        assert np.array_equal(f1.A, f2.A) and np.array_equal(f1.b, f2.b)
        desc = json.loads(json.dumps(f1.description()))
        f3 = rebuild(desc)
        assert np.array_equal(f1.A, f3.A) and np.array_equal(f1.b, f3.b)
        assert not np.array_equal(f1.A, build_piecewise(seed=43).A)


class TestLogisticProblem:
    def test_defaults(self, logistic_default):
        f = logistic_default
        assert (f.lam, f.dim, f.m) == (0.1, 1000, 50)
        assert f.mu == 0.1

    def test_gradient_at_zero(self, logistic_default):
        f = logistic_default
        expected = -0.5 * (f.A @ f.b)
        np.testing.assert_allclose(f.gradient(np.zeros(f.dim)), expected, rtol=1e-12)

    def test_lipschitz_is_gram_top_plus_lam(self, logistic_default):
        f = logistic_default
        gram_top = np.linalg.eigvalsh(f.A.T @ f.A)[-1]
        assert f.lipschitz == pytest.approx(gram_top + f.lam, rel=1e-8)

    def test_hessian_lipschitz_constant(self, logistic_default):
        f = logistic_default
        norms = np.linalg.norm(f.A, axis=0)
        assert f.hessian_lipschitz == pytest.approx(0.11 * (norms**3).sum(), rel=1e-12)

    def test_directional_curvature_at_least_lam(self, logistic_default):
        f = logistic_default
        rng = Rng(17)
        h = 1e-3
        for _ in range(5):
            x = rng.standard_normal(f.dim)
            v = rng.standard_normal(f.dim)
            second = (f.value(x + h * v) - 2 * f.value(x) + f.value(x - h * v)) / h**2
            assert second >= f.lam * float(v @ v) * (1 - 1e-4)

    def test_reproducible_and_rebuildable(self):
        f1 = build_logistic(seed=42)
        f2 = rebuild(f1.description())
        assert np.array_equal(f1.A, f2.A) and np.array_equal(f1.b, f2.b)

    def test_sigmoid_extreme_arguments_stable(self, logistic_default):
        f = logistic_default
        x = 100.0 * np.ones(f.dim)  # drives |s| far past the overflow knee
        assert np.isfinite(f.value(x))
        assert np.isfinite(f.gradient(x)).all()


def _masked_sigmoid(z):
    """The masked sigmoid the logistic gradient used before its lean form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _masked_on_support(t, eps, formula):
    """The piecewise helper as it was: zeros_like, then the formula on the mask."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    m = t > eps / 709.0
    out[m] = formula(t[m])
    return out


def _same(a, b):
    """Equal as uint64 bits where a is a number, and NaN exactly where a is."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(_bits(a[~nan]), _bits(b[~nan])))


# +-0, subnormals, |v| > 745 (where e^-|v| underflows), +-inf and NaN
_SPECIAL = np.array([0.0, -0.0, _TINY, -_TINY, 1e-310, -2e-310, 745.5, -745.5, 800.0,
                     -1e4, 1e300, np.inf, -np.inf, np.nan, 1.0, -0.5, 36.0, -40.0])
LEAN_SIZES = (1, 7, 8, 50, 257)


def _lean_inputs(d, seed):
    """x vectors for an oracle of dimension d: +-0, three scales, and draws
    from ``_SPECIAL``."""
    rng = Rng(seed)
    xs = {"plus_zero": np.zeros(d), "minus_zero": np.full(d, -0.0)}
    for scale in (1e-3, 1.0, 1e3):
        xs[f"scale_{scale:g}"] = scale * rng.standard_normal(d)
    xs["special"] = _SPECIAL[(rng.uniform(d) * _SPECIAL.size).astype(np.int64)]
    return xs


class TestLeanOracles:
    """The logistic and piecewise oracles against their masked forms, bit for bit."""

    @pytest.mark.parametrize("n", LEAN_SIZES)
    def test_sigmoid_neg_is_the_masked_sigmoid_of_minus_s(self, n):
        rng = Rng(n)
        for s in (rng.standard_normal(n), 50.0 * rng.standard_normal(n),
                  _SPECIAL[(rng.uniform(n) * _SPECIAL.size).astype(np.int64)], _SPECIAL):
            with np.errstate(all="ignore"):
                assert _same(problems._sigmoid_neg(s), _masked_sigmoid(-s))

    @pytest.mark.parametrize("m", LEAN_SIZES)
    def test_logistic_oracles(self, m):
        # a seeded problem, and one with A = I, so that s = b * x takes every
        # special value
        b = Rng(m).signs(m)
        for f in (build_logistic(d=20, m=m, seed=m),
                  LogisticObjective(np.eye(m), b, 0.1, 1.1)):
            for name, x in _lean_inputs(f.dim, seed=m).items():
                with np.errstate(all="ignore"):
                    s = f.b * (f.A.T @ x)
                    grad = f.A @ (-f.b * _masked_sigmoid(-s)) + f.lam * x
                    value = np.logaddexp(0.0, -s).sum() + 0.5 * f.lam * (x @ x)
                    assert _same(f.gradient(x), grad), name
                    assert _same(f.value(x), value), name

    @pytest.mark.parametrize("p", (1, 5, 8, 33, 257))
    def test_piecewise_oracles(self, p):
        # a seeded problem, and one with A = I and b = 0, so that t = x
        for f in (build_piecewise(d=20, p=p, seed=p),
                  PiecewiseSmoothObjective(np.eye(p), np.zeros(p), 1.0, 2.0, 1e-6)):
            eps = f.eps
            for name, x in _lean_inputs(f.dim, seed=p).items():
                with np.errstate(all="ignore"):
                    t = f.A.T @ x - f.b
                    h = _masked_on_support(t, eps, lambda tm: 0.5 * tm**2 * np.exp(-eps / tm))
                    h1 = _masked_on_support(
                        t, eps, lambda tm: np.exp(-eps / tm) * (tm + 0.5 * eps))
                    value = h.sum() + 0.5 * f.mu * (x @ x)
                    assert _same(f.value(x), value), name
                    assert _same(f.gradient(x), f.A @ h1 + f.mu * x), name


class TestBuilderValidation:
    def test_piecewise_bad_args(self):
        with pytest.raises(ValueError):
            build_piecewise(d=0)
        with pytest.raises(ValueError):
            build_piecewise(mu=2.0, lipschitz=1.0)
        with pytest.raises(ValueError):
            build_piecewise(eps=0.0)

    def test_logistic_bad_args(self):
        with pytest.raises(ValueError):
            build_logistic(m=0)
        with pytest.raises(ValueError):
            build_logistic(lam=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"mu": np.inf}, {"mu": np.nan}, {"lipschitz": np.inf}, {"lipschitz": np.nan},
        {"eps": np.inf}, {"eps": np.nan},
    ])
    def test_piecewise_non_finite_args(self, kwargs):
        with pytest.raises(ValueError):
            build_piecewise(d=4, p=2, **kwargs)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_logistic_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="lam"):
            build_logistic(d=4, m=2, lam=lam)

    def test_rebuild_unknown_kind(self):
        with pytest.raises(ValueError):
            rebuild({"kind": "mystery"})

    def test_rebuild_every_kind(self):
        # every description field differs from its builder default
        for f in (build_laplacian2d(7),
                  build_piecewise(d=7, p=3, mu=0.5, lipschitz=50.0, eps=1e-3, seed=9),
                  build_logistic(d=11, m=4, lam=0.3, seed=13)):
            again = rebuild(json.loads(json.dumps(f.description())))
            assert again.description() == f.description()
            x = Rng(9).standard_normal(f.dim)
            assert again.value(x) == f.value(x)
            assert np.array_equal(again.gradient(x), f.gradient(x))

    @pytest.mark.parametrize("f", [
        QuadraticObjective(np.eye(3), np.zeros(3), 1.0, 1.0),
        PiecewiseSmoothObjective(np.ones((3, 2)), np.zeros(2), 1.0, 2.0, 1e-3),
        LogisticObjective(np.ones((3, 2)), np.ones(2), 0.1, 1.0),
    ], ids=["quadratic", "piecewise", "logistic"])
    def test_ad_hoc_objective_has_no_description(self, f):
        # only a builder describes what it built; rebuild could not replay the rest
        with pytest.raises(ValueError, match="built ad hoc and has no description"):
            f.description()


class TestCertificates:
    def test_smoothness(self, problem_trio):
        for f in problem_trio.values():
            rng = Rng(51)
            for _ in range(100):
                x, y = rng.standard_normal(f.dim), rng.standard_normal(f.dim)
                lhs = np.linalg.norm(f.gradient(x) - f.gradient(y))
                assert lhs <= f.lipschitz * np.linalg.norm(x - y) * (1 + 1e-10)

    def test_strong_convexity(self, problem_trio):
        for f in problem_trio.values():
            rng = Rng(52)
            for _ in range(100):
                x, y = rng.standard_normal(f.dim), rng.standard_normal(f.dim)
                d = agmx.bregman(f, x, y)
                nsq = float(np.sum((x - y) ** 2))
                assert d >= 0.5 * f.mu * nsq - 1e-10 * (1 + abs(d))


class TestCheckGradient:
    def test_quadratic_exact(self, lap9):
        x = Rng(61).standard_normal(lap9.dim)
        assert check_gradient(lap9, x) <= 1e-8

    @pytest.mark.parametrize("shape", [(80,), (81, 1), ()])
    def test_dimension_mismatch(self, lap9, shape):
        with pytest.raises(DimensionError):
            check_gradient(lap9, np.zeros(shape))

    def test_logistic_seeded_points(self, logistic_default):
        rng = Rng(62)
        for _ in range(3):
            x = rng.standard_normal(logistic_default.dim)
            assert check_gradient(logistic_default, x) <= 1e-6
