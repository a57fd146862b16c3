import dataclasses

import numpy as np
import pytest

from diffwave import (
    HyperbolicityError,
    ModelClosure,
    characteristic_speeds,
    check_assumptions,
    eddington_factor,
    gamma_law_closure,
    linear_closure,
    m1_closure,
    radiative_pressure_1d,
)
from diffwave.closures import wave_speed_bound

# independently computed at 30-digit precision
CHI_HALF = 0.46481624151200357
M1_SPEEDS_AT_03 = (-0.70148515089975115, 0.41215337474684979)


def test_m1_closure_point_values(m1):
    assert m1.p(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert m1.g(0.0) == 0.0
    assert m1.dg(0.0) == 0.0
    # u = 1: sqrt(4-3) = 1 so g = 1/(2+1)
    assert m1.g(1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert m1.f(2.0) == pytest.approx(0.5)
    assert m1.alpha == 1.0


def test_gamma_law_point_values(gamma_closure):
    assert gamma_closure.p(1.0) == pytest.approx(1.0)
    assert gamma_closure.dp(1.0) == pytest.approx(-2.0)
    assert gamma_closure.g(0.5) == 0.0
    assert gamma_closure.dg(0.3) == 0.0
    assert gamma_closure.f(1.7) == 1.0


def _assert_second_order(fn, dfn, points):
    """Centered-difference error of dfn vs fn must shrink ~4x as h halves."""
    h1, h2 = 2e-3, 1e-3
    for x in points:
        e1 = abs(dfn(x) - (fn(x + h1) - fn(x - h1)) / (2 * h1))
        e2 = abs(dfn(x) - (fn(x + h2) - fn(x - h2)) / (2 * h2))
        assert e1 < 1e-2
        assert e2 <= e1 / 3.0 + 1e-11


@pytest.mark.parametrize("make", [lambda: m1_closure(1.0), lambda: gamma_law_closure(2.0, 1.0)])
def test_analytic_derivatives_match_finite_differences(make):
    clo = make()
    v_pts = (0.7, 1.0, 1.6)
    u_pts = (-0.6, -0.1, 0.0, 0.35, 0.8)
    _assert_second_order(clo.p, clo.dp, v_pts)
    _assert_second_order(clo.dp, clo.d2p, v_pts)
    _assert_second_order(clo.f, clo.df, v_pts)
    _assert_second_order(clo.g, clo.dg, u_pts)


def test_m1_g_bounded_by_u_squared(m1):
    u = np.linspace(-1.0, 1.0, 2001)
    assert np.all(np.abs(m1.g(u)) <= u**2 + 1e-15)


def test_eddington_factor_limits_and_regression():
    assert eddington_factor(0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert eddington_factor(1.0) == pytest.approx(1.0, rel=1e-15)
    assert eddington_factor(0.5) == pytest.approx(CHI_HALF, rel=1e-14)


def test_eddington_factor_even_monotone_range():
    u = np.linspace(0.0, 1.0, 1001)
    chi = eddington_factor(u)
    assert np.allclose(chi, eddington_factor(-u))
    assert np.all(np.diff(chi) >= 0.0)
    assert chi[0] == pytest.approx(1.0 / 3.0)
    assert chi[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        eddington_factor(1.01)


def test_radiative_pressure_1d():
    assert radiative_pressure_1d(3.0, 0.0) == pytest.approx(1.0)
    assert radiative_pressure_1d(1.0, 1.0) == pytest.approx(1.0)
    assert radiative_pressure_1d(2.0, 0.5) == pytest.approx(2.0 * CHI_HALF, rel=1e-14)
    with pytest.raises(ValueError):
        radiative_pressure_1d(-1.0, 0.0)
    rho = np.array([0.0, 1.0, 2.0])
    p = radiative_pressure_1d(rho, np.array([0.0, 0.5, 1.0]))
    assert np.all(p >= rho / 3.0 - 1e-15) and np.all(p <= rho + 1e-15)


def test_check_assumptions_gamma_law(gamma_closure):
    rep = check_assumptions(gamma_closure, (0.5, 2.0), (-1.0, 1.0), 128)
    assert rep.sign_ok and rep.hyperbolic_ok and rep.smoothness_ok
    # g == 0 reduces the sign condition to -p'; its min is -max p' = 0.25
    assert rep.min_gfprime_minus_pprime == pytest.approx(0.25, rel=1e-12)


def test_check_assumptions_degenerate_box(gamma_closure):
    rep = check_assumptions(gamma_closure, (1.0, 1.0), (0.0, 0.0), 2)
    assert rep.min_gfprime_minus_pprime == pytest.approx(2.0, rel=1e-12)


def test_check_assumptions_m1_against_brute_scan(m1):
    rep = check_assumptions(m1, (0.8, 1.2), (-0.3, 0.3), 256)
    v = np.linspace(0.8, 1.2, 317)
    u = np.linspace(-0.3, 0.3, 317)
    vv, uu = np.meshgrid(v, u)
    brute = np.min(m1.g(uu) * m1.df(vv) - m1.dp(vv))
    assert rep.min_gfprime_minus_pprime == pytest.approx(float(brute), abs=1e-6)
    assert rep.sign_ok and rep.hyperbolic_ok and rep.smoothness_ok


def test_check_assumptions_rejects_empty_box(m1):
    with pytest.raises(ValueError):
        check_assumptions(m1, (1.2, 0.8), (-0.3, 0.3))
    with pytest.raises(ValueError):
        check_assumptions(m1, (0.8, 1.2), (-0.3, 0.3), n_samples=1)


def test_characteristic_speeds_examples(gamma_closure, m1):
    lam = characteristic_speeds(gamma_closure, 1.0, 0.0)
    assert lam == pytest.approx((-np.sqrt(2.0), np.sqrt(2.0)), rel=1e-14)
    lam = characteristic_speeds(m1, 1.0, 0.0)
    assert lam == pytest.approx((-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)), rel=1e-14)
    lam = characteristic_speeds(m1, 1.0, 0.3)
    assert lam == pytest.approx(M1_SPEEDS_AT_03, rel=1e-13)


def test_speeds_real_and_distinct_on_admissible_box(m1):
    rep = check_assumptions(m1, (0.8, 1.2), (-0.5, 0.5), 64)
    assert rep.sign_ok
    v = np.linspace(0.8, 1.2, 41)
    u = np.linspace(-0.5, 0.5, 41)
    vv, uu = np.meshgrid(v, u)
    lam_m, lam_p = characteristic_speeds(m1, vv, uu)
    assert np.all(lam_p - lam_m > 0.0)


def test_wave_speed_bound_matches_speeds(m1):
    v = np.array([0.9, 1.0, 1.1])
    u = np.array([-0.2, 0.0, 0.4])
    bound = wave_speed_bound(m1, v, u)
    lam_m, lam_p = characteristic_speeds(m1, v, u)
    assert np.allclose(bound, np.maximum(np.abs(lam_m), np.abs(lam_p)))


def test_hyperbolicity_error_names_state():
    def one(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    bad = ModelClosure(
        name="antidiffusive",
        alpha=1.0,
        p=one,
        dp=one,  # p' > 0: elliptic, no real speeds
        d2p=zero,
        d3p=zero,
        d4p=zero,
        g=zero,
        dg=zero,
        f=one,
        df=zero,
        v_range=(0.1, 10.0),
        u_range=(-1.0, 1.0),
    )
    with pytest.raises(HyperbolicityError, match="v=1"):
        characteristic_speeds(bad, 1.0, 0.0)

    # wave_speed_bound takes its speeds from the compiled face combine and
    # raises characteristic_speeds' message, word for word
    v, u = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 0.5], [1.2, 0.0]])
    for closure in (bad, m1_closure(1.0)):
        messages = []
        for fn in (characteristic_speeds, wave_speed_bound):
            with np.errstate(invalid="ignore"), pytest.raises(HyperbolicityError) as err:
                fn(closure, v, u)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    assert messages[0] == (
        "hyperbolicity lost at state (v=3, u=1.2): discriminant nan is not >= 0"
    )


def test_closure_constructor_validation():
    with pytest.raises(ValueError):
        m1_closure(-1.0)
    with pytest.raises(ValueError):
        gamma_law_closure(0.5, 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make, args, name",
    [
        (gamma_law_closure, (NAN,), "gamma"),
        (gamma_law_closure, (INF,), "gamma"),
        (gamma_law_closure, (-INF,), "gamma"),
        (gamma_law_closure, (2.0, NAN), "alpha"),
        (gamma_law_closure, (2.0, INF), "alpha"),
        (m1_closure, (NAN,), "sigma"),
        (m1_closure, (INF,), "sigma"),
        (linear_closure, (INF,), "alpha"),
        (linear_closure, (NAN,), "alpha"),
    ],
    ids=["gamma-nan", "gamma-inf", "gamma-minus-inf", "gas-alpha-nan", "gas-alpha-inf",
         "sigma-nan", "sigma-inf", "linear-alpha-inf", "linear-alpha-nan"],
)
def test_closure_factories_reject_non_finite_parameters(make, args, name):
    """NaN passes ``x < 1`` and ``x <= 0`` unnoticed; each factory names the
    argument instead."""
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        make(*args)


def test_model_closure_rejects_non_finite_alpha():
    gas = gamma_law_closure(2.0, 1.0)
    for alpha in (NAN, INF):
        with pytest.raises(ValueError, match="alpha"):
            dataclasses.replace(gas, alpha=alpha)
