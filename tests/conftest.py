import numpy as np
import pytest

from diffwave import gamma_law_closure, linear_closure, m1_closure, solve_profile


@pytest.fixture(scope="session")
def gamma_closure():
    return gamma_law_closure(2.0, 1.0)


@pytest.fixture(scope="session")
def m1():
    return m1_closure(1.0)


@pytest.fixture(scope="session")
def linear():
    return linear_closure(1.0)


@pytest.fixture(scope="session")
def erf_profile(linear):
    """Linear-pressure profile with the erf closed form (v: 1 -> 1.2)."""
    return solve_profile(linear, 1.0, 1.2, n_cells=4096)


@pytest.fixture(scope="session")
def m1_profile(m1):
    return solve_profile(m1, 1.0, 1.2, n_cells=8192)


@pytest.fixture()
def rng():
    return np.random.default_rng(987654321)
