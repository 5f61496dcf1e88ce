import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np
import pytest

import agmx
from _helpers import diagonal_quadratic


@pytest.fixture(scope="session")
def lap9():
    return agmx.build_laplacian2d(9)


@pytest.fixture(scope="session")
def lap19():
    return agmx.build_laplacian2d(19)


@pytest.fixture(scope="session")
def lap39():
    return agmx.build_laplacian2d(39)


@pytest.fixture(scope="session")
def centered_quadratic():
    # a nonzero x*: the solver record and the sweep subtract it
    return diagonal_quadratic(np.geomspace(1.0, 100.0, 30), agmx.Rng(3).standard_normal(30))


@pytest.fixture(scope="session")
def minus_zero_quadratic():
    # x* = -0.0 is not all +0.0, so it is subtracted too
    return diagonal_quadratic(np.geomspace(1.0, 100.0, 30), np.full(30, -0.0))


@pytest.fixture(scope="session")
def piecewise_default():
    return agmx.ensure_minimizer(agmx.build_piecewise())


@pytest.fixture(scope="session")
def logistic_default():
    return agmx.ensure_minimizer(agmx.build_logistic())


@pytest.fixture(scope="session")
def problem_trio(lap39, piecewise_default, logistic_default):
    """One problem per benchmark family, minimizers attached."""
    return {
        "laplacian2d": lap39,
        "piecewise": piecewise_default,
        "logistic": logistic_default,
    }
