import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agmx
from agmx import ShiftedObjective, bregman, bregman_asymmetry
from agmx.core import DimensionError, all_positive_zero

from _helpers import count_calls_at_class, diagonal_quadratic, quartic_1d


def states(f, n, seed=0, scale=1.0):
    rng = agmx.Rng(seed)
    anchor = f.minimizer if f.minimizer is not None else np.zeros(f.dim)
    return [anchor + scale * rng.standard_normal(f.dim) for _ in range(n)]


class TestBregman:
    def test_quadratic_symmetry(self):
        f = diagonal_quadratic([1.0, 3.0, 7.0])
        rng = agmx.Rng(1)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        d = y - x
        expected = 0.5 * float(d @ (f.matrix @ d))
        assert bregman(f, y, x) == pytest.approx(expected, rel=1e-12)
        assert bregman(f, x, y) == pytest.approx(expected, rel=1e-12)

    def test_same_point_is_zero(self):
        f = diagonal_quadratic([2.0, 5.0])
        x = np.array([1.5, -0.25])
        assert bregman(f, x, x) == 0.0

    def test_quartic_hand_values(self):
        f = quartic_1d()
        one, zero = np.array([1.0]), np.array([0.0])
        assert bregman(f, one, zero) == pytest.approx(0.25, abs=1e-15)
        assert bregman(f, zero, one) == pytest.approx(0.75, abs=1e-15)
        assert bregman_asymmetry(f, zero, one) == pytest.approx(-0.5, abs=1e-15)

    def test_asymmetry_zero_for_quadratic_and_identical_points(self):
        f = diagonal_quadratic([1.0, 4.0])
        rng = agmx.Rng(2)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert abs(bregman_asymmetry(f, x, y)) < 1e-14 * (1 + abs(bregman(f, x, y)))
        assert bregman_asymmetry(f, x, x) == 0.0

    def test_dimension_mismatch(self):
        f = diagonal_quadratic([1.0, 2.0])
        with pytest.raises(DimensionError):
            bregman(f, np.zeros(3), np.zeros(2))
        with pytest.raises(DimensionError):
            bregman_asymmetry(f, np.zeros(2), np.zeros(5))

    def test_symmetrized_identity(self, logistic_default):
        # <grad f(x) - grad f(y), x - y> = 2 D_f(x,y) + Delta_f(x,y)
        f = logistic_default
        x, y = states(f, 2, seed=3)
        lhs = float((f.gradient(x) - f.gradient(y)) @ (x - y))
        rhs = 2.0 * bregman(f, x, y) + bregman_asymmetry(f, x, y)
        assert lhs == pytest.approx(rhs, rel=1e-9)


@given(a=st.floats(0.5, 2.0), b=st.floats(-3.0, 3.0))
@settings(deadline=None, max_examples=50)
def test_asymmetry_is_antisymmetric(a, b):
    f = quartic_1d()
    x, y = np.array([a]), np.array([b])
    d_xy = bregman_asymmetry(f, x, y)
    d_yx = bregman_asymmetry(f, y, x)
    assert d_xy == pytest.approx(-d_yx, abs=1e-12)


class TestThreePointIdentity:
    def test_on_each_problem(self, problem_trio):
        for f in problem_trio.values():
            rng = agmx.Rng(11)
            for _ in range(10):
                x, y, z = (rng.standard_normal(f.dim) for _ in range(3))
                lhs = float((f.gradient(y) - f.gradient(x)) @ (y - z))
                rhs = bregman(f, y, x) + bregman(f, z, y) - bregman(f, z, x)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


class TestConvexityBounds:
    def test_cocoercivity(self, problem_trio):
        for f in problem_trio.values():
            mu, L = f.mu, f.lipschitz
            rng = agmx.Rng(21)
            for _ in range(100):
                x, y = rng.standard_normal(f.dim), rng.standard_normal(f.dim)
                gsq = float(np.sum((f.gradient(x) - f.gradient(y)) ** 2))
                d = bregman(f, x, y)
                slack = 1e-10 * (1.0 + abs(d) + gsq / L)
                assert gsq / (2 * L) <= d + slack
                assert d <= gsq / (2 * mu) + slack

    def test_strong_convexity_sandwich(self, problem_trio):
        for f in problem_trio.values():
            mu, L = f.mu, f.lipschitz
            rng = agmx.Rng(22)
            for _ in range(100):
                x, y = rng.standard_normal(f.dim), rng.standard_normal(f.dim)
                nsq = float(np.sum((x - y) ** 2))
                d = bregman(f, x, y)
                slack = 1e-10 * (1.0 + abs(d) + L * nsq)
                assert 0.5 * mu * nsq <= d + slack
                assert d <= 0.5 * L * nsq + slack


class TestShiftedObjective:
    def test_zero_shift_bitwise_identical(self, problem_trio):
        for f in problem_trio.values():
            anchor = f.minimizer
            shifted = ShiftedObjective(f, 0.0, anchor)
            rng = agmx.Rng(31)
            for _ in range(5):
                x = rng.standard_normal(f.dim)
                assert shifted.value(x) == f.value(x)
                assert np.array_equal(shifted.gradient(x), f.gradient(x))

    def test_shift_formulas(self, lap9):
        f = lap9
        mu_hat = 0.4 * f.mu
        shifted = ShiftedObjective(f, mu_hat, f.minimizer)
        rng = agmx.Rng(32)
        x = rng.standard_normal(f.dim)
        r = x - f.minimizer
        assert shifted.value(x) == pytest.approx(
            f.value(x) - 0.5 * mu_hat * float(r @ r), rel=1e-12)
        np.testing.assert_allclose(
            shifted.gradient(x), f.gradient(x) - mu_hat * r, rtol=1e-12)
        assert shifted.mu == pytest.approx(f.mu - mu_hat)
        assert shifted.lipschitz == pytest.approx(f.lipschitz - mu_hat)

    def test_shift_validation(self, lap9):
        with pytest.raises(ValueError):
            ShiftedObjective(lap9, -0.1, lap9.minimizer)
        with pytest.raises(ValueError):
            ShiftedObjective(lap9, 2.0 * lap9.mu, lap9.minimizer)
        with pytest.raises(DimensionError):
            ShiftedObjective(lap9, 0.0, np.zeros(3))


# One small instance of each objective class, with its expected oracle calls
# for one value_and_gradient: the quadratic reads its value off the gradient.
OBJECTIVES = {
    "simple": (quartic_1d, {"value": 1, "gradient": 1}),
    "shifted": (lambda: ShiftedObjective(agmx.build_laplacian2d(5), 1.5, np.zeros(25)),
                {"value": 1, "gradient": 1}),
    "laplacian2d": (lambda: agmx.build_laplacian2d(5), {"value": 0, "gradient": 1}),
    "piecewise": (lambda: agmx.build_piecewise(d=20, p=3, seed=3),
                  {"value": 1, "gradient": 1}),
    "logistic": (lambda: agmx.build_logistic(d=30, m=10, seed=5),
                 {"value": 1, "gradient": 1}),
}


class TestValueAndGradient:
    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_equals_the_separate_calls(self, name, monkeypatch):
        build, expected = OBJECTIVES[name]
        f = build()
        x = agmx.Rng(7).standard_normal(f.dim)
        value, grad = f.value_and_gradient(x)
        assert value == f.value(x)
        np.testing.assert_array_equal(grad, f.gradient(x))
        calls = count_calls_at_class(monkeypatch, type(f), ops=("value", "gradient"))
        f.value_and_gradient(x)
        assert calls == expected


class TestAllPositiveZero:
    @pytest.mark.parametrize("v,expected", [
        ([0.0, 0.0], True),
        ([], True),
        ([0.0, -0.0], False),
        ([-0.0], False),
        ([0.0, 5e-324], False),
        ([np.nan], False),
        ([0.0, np.inf], False),
    ])
    def test_only_plus_zero_entries(self, v, expected):
        assert all_positive_zero(np.array(v, dtype=np.float64)) is expected
