import numpy as np
import pytest
from scipy.integrate import quad

from diffwave import eval_vbar
from diffwave.corrections import (
    CorrectionField,
    compute_shift_x0,
    eval_uhat,
    eval_uhat_x,
    eval_vhat,
    eval_vhat_cell_average,
    eval_vhat_t,
    eval_vhat_x,
    make_mollifier,
    verify_correction_system,
)

# adaptive quadrature of exp(-1/(1-x^2)) over (-1, 1) at 30 digits
BUMP_RAW_INTEGRAL = 0.44399381616807944
M0_PEAK = 0.82856883986910515  # normalized bump at its center


@pytest.fixture()
def bump():
    return make_mollifier("bump", 0.0, 1.0)


@pytest.fixture()
def corr(bump):
    return CorrectionField(u_minus=0.0, u_plus=0.1, alpha=1.0, mollifier=bump)


def test_bump_normalization_and_peak(bump):
    assert bump.normalization == pytest.approx(1.0 / BUMP_RAW_INTEGRAL, rel=1e-12)
    assert bump(0.0) == pytest.approx(M0_PEAK, rel=1e-12)
    integral, _ = quad(bump, -1.0, 1.0)
    assert integral == pytest.approx(1.0, abs=1e-10)


def test_mollifier_compact_support(bump):
    for x in (-1.0, 1.0, -1.0001, 1.5, 37.0):
        assert bump(x) == 0.0
        assert bump.derivative(x) == 0.0
    assert bump(0.999) > 0.0


def test_cosine_mollifier_unit_mass():
    m = make_mollifier("cosine", 0.5, 2.0)
    integral, _ = quad(m, -1.5, 2.5, limit=200)
    assert integral == pytest.approx(1.0, abs=1e-10)
    assert m(-1.5) == 0.0 and m(2.5) == 0.0


def test_mollifier_derivative_matches_fd(bump):
    xs = np.linspace(-0.95, 0.95, 21)
    h = 1e-6
    fd = (bump(xs + h) - bump(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - bump.derivative(xs))) < 1e-7


def test_cumulative_properties(bump):
    assert bump.cumulative(-2.0) == 0.0
    assert bump.cumulative(5.0) == 1.0
    assert bump.cumulative(0.0) == pytest.approx(0.5, abs=1e-12)
    xs = np.linspace(-1.2, 1.2, 101)
    m0 = bump.cumulative(xs)
    assert np.all(np.diff(m0) >= 0.0)
    # slope of the (piecewise-linear) cumulative table reproduces the
    # density to the table resolution
    h = 1e-5
    mid = (bump.cumulative(xs + h) - bump.cumulative(xs - h)) / (2 * h)
    assert np.max(np.abs(mid - bump(xs))) < 2e-3


def test_make_mollifier_validation():
    with pytest.raises(ValueError):
        make_mollifier("triangle")
    with pytest.raises(ValueError):
        make_mollifier("bump", 0.0, -1.0)


@pytest.mark.parametrize("shape", ["bump", "cosine"])
def test_make_mollifier_rejects_non_finite_support(shape):
    for center, half_width, name in [
        (np.nan, 1.0, "center"),
        (np.inf, 1.0, "center"),
        (0.0, np.nan, "half_width"),
        (0.0, np.inf, "half_width"),
    ]:
        with pytest.raises(ValueError, match=name):
            make_mollifier(shape, center, half_width)


def test_vhat_formula_and_limits(corr, bump):
    assert eval_vhat(corr, 0.0, 0.0) == pytest.approx(-0.1 * bump(0.0), rel=1e-14)
    zero = CorrectionField(0.2, 0.2, 1.0, bump)
    assert eval_vhat(zero, 0.3, 1.0) == 0.0
    # sup bound |vhat| <= |du| max(m0) e^(-alpha t) / alpha
    for t in (0.0, 2.0, 10.0):
        x = np.linspace(-2, 2, 401)
        bound = 0.1 * M0_PEAK * np.exp(-t)
        assert np.max(np.abs(eval_vhat(corr, x, t))) <= bound * (1 + 1e-12)


def test_uhat_far_fields_and_center(corr):
    assert eval_uhat(corr, -5.0, 0.3) == pytest.approx(0.0, abs=1e-15)
    assert eval_uhat(corr, 5.0, 0.3) == pytest.approx(0.1 * np.exp(-0.3), rel=1e-14)
    assert eval_uhat(corr, 0.0, 0.2) == pytest.approx(
        np.exp(-0.2) * 0.05, rel=1e-12
    )
    # pointwise between the damped far-field values, monotone for du > 0
    x = np.linspace(-3, 3, 601)
    uh = eval_uhat(corr, x, 0.7)
    assert np.all(uh >= -1e-15) and np.all(uh <= 0.1 * np.exp(-0.7) + 1e-15)
    assert np.all(np.diff(uh) >= -1e-15)


def test_exponential_decay_ratio(corr):
    """Each correction derivative decays by exactly e^(-alpha) per unit time."""
    x = np.linspace(-1.5, 1.5, 301)
    for fn in (eval_vhat, eval_vhat_t, eval_vhat_x, eval_uhat_x):
        a = np.max(np.abs(fn(corr, x, 1.0)))
        b = np.max(np.abs(fn(corr, x, 2.0)))
        assert abs(b / a - np.exp(-1.0)) < 1e-8


def test_analytic_derivatives_cross_check(corr):
    x = np.linspace(-0.9, 0.9, 19)
    h = 1e-6
    fd_t = (eval_vhat(corr, x, 1.0 + h) - eval_vhat(corr, x, 1.0 - h)) / (2 * h)
    assert np.max(np.abs(fd_t - eval_vhat_t(corr, x, 1.0))) < 1e-9
    fd_x = (eval_uhat(corr, x + h, 1.0) - eval_uhat(corr, x - h, 1.0)) / (2 * h)
    assert np.max(np.abs(fd_x - eval_uhat_x(corr, x, 1.0))) < 1e-5


def test_correction_system_randomized(rng):
    worst = 0.0
    xg = np.linspace(-4.0, 4.0, 801)
    for _ in range(100):
        shape = "bump" if rng.random() < 0.5 else "cosine"
        c = CorrectionField(
            u_minus=float(rng.uniform(-0.5, 0.5)),
            u_plus=float(rng.uniform(-0.5, 0.5)),
            alpha=float(rng.uniform(0.2, 3.0)),
            mollifier=make_mollifier(
                shape, float(rng.uniform(-1, 1)), float(rng.uniform(0.3, 2.0))
            ),
        )
        worst = max(worst, verify_correction_system(c, xg, float(rng.uniform(0, 3))))
    assert worst < 1e-12


def test_shift_zero_for_exact_data(erf_profile, corr):
    x = np.linspace(-50.0, 50.0, 8001)
    v0 = eval_vbar(erf_profile, x, 0.0) + eval_vhat(corr, x, 0.0)
    assert abs(compute_shift_x0(x, v0, erf_profile, corr)) < 1e-12


def test_shift_translation_identity(erf_profile, corr):
    x = np.linspace(-50.0, 50.0, 8001)
    a = 1.7
    v0 = eval_vbar(erf_profile, x - a, 0.0) + eval_vhat(corr, x, 0.0)
    assert compute_shift_x0(x, v0, erf_profile, corr) == pytest.approx(-a, abs=1e-8)


def test_shift_bump_mass(erf_profile, corr):
    x = np.linspace(-50.0, 50.0, 8001)
    mu = 0.05
    bump_f = np.where(
        np.abs(x - 3.0) < 1.0,
        np.exp(-1.0 / np.maximum(1.0 - (x - 3.0) ** 2, 1e-300)),
        0.0,
    )
    bump_f *= mu / np.trapezoid(bump_f, x)
    v0 = eval_vbar(erf_profile, x, 0.0) + eval_vhat(corr, x, 0.0) + bump_f
    # added mass mu shifts the wave by mu / (v_plus - v_minus)
    assert compute_shift_x0(x, v0, erf_profile, corr) == pytest.approx(
        mu / 0.2, abs=1e-8
    )


def test_shift_shape_invariance(erf_profile):
    """One fixed v0, two mollifier decompositions, one shift."""
    x = np.linspace(-20.0, 20.0, 31417)
    # off-node centers so the cosine support kinks hit the trapezoid
    cb = CorrectionField(0.0, 0.1, 1.0, make_mollifier("bump", 0.0614))
    cc = CorrectionField(0.0, 0.1, 1.0, make_mollifier("cosine", 0.1379))
    bump_f = 0.01 * np.where(
        np.abs(x - 3.0) < 1.0,
        np.exp(1.0 - 1.0 / np.maximum(1.0 - (x - 3.0) ** 2, 1e-300)),
        0.0,
    )
    v0 = eval_vbar(erf_profile, x, 0.0) + bump_f + eval_vhat(cb, x, 0.0)
    xa = compute_shift_x0(x, v0, erf_profile, cb)
    xb = compute_shift_x0(x, v0, erf_profile, cc)
    assert xa != xb  # different decompositions, different rounding
    assert abs(xa - xb) < 1e-8


def test_vhat_cell_average_carries_exact_mass(corr):
    """Cell means sum to vhat's mass on a coarse grid; point values do not."""
    t = 0.7
    mass = (corr.du / -corr.alpha) * np.exp(-corr.alpha * t)
    dx = 0.25
    x = -3.0 + 0.1 + (np.arange(24) + 0.5) * dx
    means = eval_vhat_cell_average(corr, x, dx, t)
    assert np.sum(means) * dx == pytest.approx(mass, abs=1e-16)
    assert abs(np.sum(eval_vhat(corr, x, t)) * dx - mass) > 1e-6
    # second-order agreement with the point values on refinement
    errs = []
    for dx in (0.02, 0.01):
        x = -1.5 + (np.arange(round(3.0 / dx)) + 0.5) * dx
        errs.append(np.max(np.abs(eval_vhat_cell_average(corr, x, dx, t)
                                  - eval_vhat(corr, x, t))))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_shift_rejects_nonuniform_grid(erf_profile, corr):
    x = np.linspace(-10.0, 10.0, 201) ** 3 / 100.0
    with pytest.raises(ValueError, match="uniform"):
        compute_shift_x0(x, eval_vbar(erf_profile, x, 0.0), erf_profile, corr)


def test_shift_rejects_constant_wave(m1, corr):
    from diffwave import solve_profile

    prof = solve_profile(m1, 1.1, 1.1, n_cells=128)
    x = np.linspace(-10, 10, 101)
    with pytest.raises(ZeroDivisionError, match="constant-state"):
        compute_shift_x0(x, np.full_like(x, 1.1), prof, corr)
