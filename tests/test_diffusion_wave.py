import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.special import erf

from diffwave import (
    ProfileSolverError,
    WaveProfile,
    _kernel,
    eval_ubar,
    eval_vbar,
    flux_relation_check,
    linear_closure,
    m1_closure,
    solve_profile,
    verify_gaussian_tail,
)
from diffwave.config import build_scenario
from diffwave.diffusion_wave import (
    _cumulative_simpson,
    _hermite_coefficients,
    _stencil_jacobian,
)
from test_step_oracle import same_bits

# phi(0) for the M1 closure (alpha=1, v: 1 -> 1.2), frozen from two
# independent solves: the defect-corrected stencil at n=8192 and a
# collocation BVP solver at tol=1e-12, which agreed to 6e-13.
M1_PHI0 = 1.0966892814111


def exact_erf(xi):
    return 1.0 + 0.2 * 0.5 * (1.0 + erf(xi / 2.0))


def test_constant_profile_shortcut(m1):
    prof = solve_profile(m1, 1.3, 1.3, n_cells=128)
    assert prof.is_constant
    assert np.all(prof.phi == 1.3)
    assert np.all(prof.dphi == 0.0) and np.all(prof.d4phi == 0.0)


@pytest.mark.parametrize("v", [-1.0, 50.0])
def test_constant_profile_outside_v_range_is_refused(m1, v):
    """The flat shortcut returned before the v_range check, so a constant
    state at v = -1 or 50 came back as a profile."""
    with pytest.raises(ValueError, match=r"outside admissible v_range \(0\.05, 20\.0\)$"):
        solve_profile(m1, v, v, n_cells=128)


def test_linear_pressure_matches_erf(erf_profile):
    err = np.max(np.abs(erf_profile.phi - exact_erf(erf_profile.xi_grid)))
    assert err < 1e-10
    assert erf_profile.deriv(0.0, 1) == pytest.approx(0.2 / (2 * np.sqrt(np.pi)), abs=1e-9)


def test_profile_takes_alpha_from_closure():
    """alpha = 4 narrows the erf profile to phi = 1 + 0.1 (1 + erf(xi))."""
    prof = solve_profile(linear_closure(4.0), 1.0, 1.2, n_cells=4096)
    assert prof.alpha == 4.0
    assert np.max(np.abs(prof.phi - (1.0 + 0.1 * (1.0 + erf(prof.xi_grid))))) < 1e-8


def test_stale_positional_alpha_is_rejected(m1):
    # a positional fourth argument would otherwise become xi_max
    with pytest.raises(TypeError):
        solve_profile(m1, 1.0, 1.2, 1.0, n_cells=128)


def test_m1_profile_center_regression(m1_profile):
    assert m1_profile.deriv(0.0, 0) == pytest.approx(M1_PHI0, abs=5e-10)
    assert m1_profile.residual < 1e-8


def test_profile_invariants(m1_profile):
    phi, dphi = m1_profile.phi, m1_profile.dphi
    assert np.all(phi >= 1.0 - 1e-12) and np.all(phi <= 1.2 + 1e-12)
    noise = 1e-10 * np.max(np.abs(dphi))
    assert np.all(dphi >= -noise)  # v_plus > v_minus: increasing profile
    assert abs(phi[0] - 1.0) < 1e-12 and abs(phi[-1] - 1.2) < 1e-12


def test_grid_refinement_second_order(m1):
    vals = {}
    for n in (1024, 2048, 4096):
        p = solve_profile(m1, 1.0, 1.2, n_cells=n, defect_correction=False)
        vals[n] = p.phi[n // 2]
    e1 = abs(vals[1024] - vals[2048])
    e2 = abs(vals[2048] - vals[4096])
    assert np.log2(e1 / e2) > 1.9


def test_reflection_symmetry(m1):
    fwd = solve_profile(m1, 1.0, 1.2, n_cells=2048)
    rev = solve_profile(m1, 1.2, 1.0, n_cells=2048)
    assert np.max(np.abs(rev.phi - fwd.phi[::-1])) < 1e-11


def test_solver_error_paths(m1):
    with pytest.raises(ProfileSolverError):
        solve_profile(m1, 1.0, 1.2, n_cells=256, max_iter=0)
    with pytest.raises(ValueError):
        solve_profile(m1, 0.01, 1.2)  # below admissible v_range
    with pytest.raises(ValueError):
        solve_profile(m1, 1.0, 1.2, n_cells=32)


def test_flux_relation(m1_profile, rng):
    assert flux_relation_check(m1_profile, 1.3, 1.3) == 0.0
    assert flux_relation_check(m1_profile, -2.0, 2.0) < 1e-6
    # random pairs inside the active transition region; further out phi'
    # drops below 1e-8 and relative comparisons lose meaning
    for _ in range(10):
        a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
        assert flux_relation_check(m1_profile, a, b) < 1e-6


def test_flux_relation_constant(m1):
    prof = solve_profile(m1, 1.1, 1.1, n_cells=128)
    assert flux_relation_check(prof, -1.0, 1.0) == 0.0


def _sine_profile():
    """Synthetic profile carrying an analytically differentiable shape."""
    xi = np.linspace(-12.0, 12.0, 4001)
    return WaveProfile(
        xi_grid=xi,
        phi=1.1 + 0.05 * np.sin(0.5 * xi),
        dphi=0.025 * np.cos(0.5 * xi),
        d2phi=-0.0125 * np.sin(0.5 * xi),
        d3phi=-0.00625 * np.cos(0.5 * xi),
        d4phi=0.003125 * np.sin(0.5 * xi),
        v_minus=1.05,
        v_plus=1.15,
        closure=linear_closure(1.0),
    )


def test_vbar_table_against_symbolic_chain_rule():
    """Every (k, j) entry must equal d^k/dx^k d^j/dt^j of phi(x/sqrt(1+t))."""
    import sympy as sp

    prof = _sine_profile()
    x_s, t_s = sp.symbols("x t", positive=True)
    phi_s = 1.1 + sp.Rational(1, 20) * sp.sin(sp.Rational(1, 2) * x_s / sp.sqrt(1 + t_s))

    pts = [(0.7, 0.0), (-1.3, 0.5), (2.1, 3.0), (0.2, 9.0)]
    for k in range(5):
        for j in range(4):
            if k + j > 4:
                continue
            expr = sp.diff(phi_s, x_s, k, t_s, j)
            fn = sp.lambdify((x_s, t_s), expr, "numpy")
            for x, t in pts:
                got = eval_vbar(prof, x, t, k, j)
                want = float(fn(x, t))
                assert got == pytest.approx(want, rel=1e-6, abs=1e-11), (k, j, x, t)


def test_vbar_time_derivative_cross_check(m1_profile):
    x = np.linspace(-3.0, 3.0, 11)
    t, dt = 2.0, 1e-4
    fd = (eval_vbar(m1_profile, x, t + dt) - eval_vbar(m1_profile, x, t - dt)) / (2 * dt)
    an = eval_vbar(m1_profile, x, t, 0, 1)
    assert np.max(np.abs(fd - an)) < 1e-7


def test_vbar_outside_window_clamps(m1_profile):
    assert eval_vbar(m1_profile, -1e6, 0.0) == 1.0
    assert eval_vbar(m1_profile, 1e6, 0.0) == 1.2
    assert eval_vbar(m1_profile, 1e6, 0.0, 1, 0) == 0.0
    with pytest.raises(ValueError):
        eval_vbar(m1_profile, 0.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        eval_vbar(m1_profile, 0.0, -0.5)


def test_vbar_linf_decay_table(m1_profile):
    """Sup-norm of each derivative scales as (1+t)^(-k/2-j).

    The scaling is exact in the similarity variable; the 1% slack covers
    the different xi values the two finite grids sample.
    """
    x = np.linspace(-40.0, 40.0, 4001)
    for k, j in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 2)]:
        m0 = np.max(np.abs(eval_vbar(m1_profile, x, 0.0, k, j)))
        for t in (1.0, 10.0, 100.0):
            xt = np.linspace(-40.0 * np.sqrt(1 + t), 40.0 * np.sqrt(1 + t), 8001)
            mt = np.max(np.abs(eval_vbar(m1_profile, xt, t, k, j)))
            assert mt <= m0 * (1 + t) ** (-(k / 2 + j)) * 1.01


def test_ubar(erf_profile, m1):
    # p' = -1, alpha = 1: ubar(0,0) = phi'(0)
    assert eval_ubar(erf_profile, 0.0, 0.0) == pytest.approx(
        0.2 / (2 * np.sqrt(np.pi)), abs=1e-9
    )
    const = solve_profile(m1, 1.1, 1.1, n_cells=128)
    x = np.linspace(-5.0, 5.0, 11)
    assert np.all(eval_ubar(const, x, 1.0) == 0.0)
    # sign follows v_plus - v_minus (up to tail differencing noise);
    # decay like (1+t)^(-1/2)
    x = np.linspace(-30.0, 30.0, 3001)
    u0 = eval_ubar(erf_profile, x, 0.0)
    assert np.all(u0 >= -1e-12 * np.max(np.abs(u0)))
    for t in (1.0, 4.0, 24.0):
        xt = np.linspace(-30.0, 30.0, 3001) * np.sqrt(1 + t)
        ratio = np.max(np.abs(eval_ubar(erf_profile, xt, t))) / np.max(np.abs(u0))
        assert ratio == pytest.approx((1 + t) ** (-0.5), rel=1e-3)


def test_gaussian_tail_linear(erf_profile):
    fit = verify_gaussian_tail(erf_profile)
    assert fit.c_decay == pytest.approx(0.25, abs=0.02)
    assert fit.max_rel_residual < 0.05
    assert fit.prefactor > 0.0


def test_gaussian_tail_stable_under_domain_doubling(linear):
    small = solve_profile(linear, 1.0, 1.2, xi_max=12.0, n_cells=4096)
    big = solve_profile(linear, 1.0, 1.2, xi_max=24.0, n_cells=8192)
    c1 = verify_gaussian_tail(small).c_decay
    c2 = verify_gaussian_tail(big).c_decay
    assert abs(c2 - c1) / c1 < 0.05


def test_gaussian_tail_m1(m1_profile):
    fit = verify_gaussian_tail(m1_profile)
    assert fit.c_decay > 0.0
    assert fit.max_rel_residual < 0.2


def test_gaussian_tail_rejects_constant(m1):
    prof = solve_profile(m1, 1.1, 1.1, n_cells=128)
    with pytest.raises(ValueError):
        verify_gaussian_tail(prof)


def test_nonfinite_states_and_bad_xi_max_are_rejected(m1):
    for kwargs, name in [
        (dict(v_minus=1.0, v_plus=np.nan), "v_plus"),
        (dict(v_minus=np.nan, v_plus=1.2), "v_minus"),
        (dict(v_minus=np.inf, v_plus=1.2), "v_minus"),
        (dict(v_minus=1.0, v_plus=-np.inf), "v_plus"),
        (dict(v_minus=1.0, v_plus=1.2, xi_max=-1.0), "xi_max"),
        (dict(v_minus=1.0, v_plus=1.2, xi_max=0.0), "xi_max"),
        (dict(v_minus=1.0, v_plus=1.2, xi_max=np.nan), "xi_max"),
        (dict(v_minus=1.0, v_plus=1.2, xi_max=np.inf), "xi_max"),
    ]:
        with pytest.raises(ValueError, match=name):
            solve_profile(m1, n_cells=128, **kwargs)


def test_nan_residual_is_a_solver_failure(linear):
    """A closure whose p' turns NaN inside the ramp must not come back as a
    converged profile."""
    broken = replace(linear, dp=lambda v: np.where(np.asarray(v) > 1.15, np.nan, -1.0))
    with pytest.raises(ProfileSolverError):
        solve_profile(broken, 1.0, 1.2, n_cells=128)


@pytest.fixture(scope="module")
def preset_profiles():
    return [
        build_scenario(f"[scenario]\npreset = {preset}\n")[1]
        for preset in ("gamma-default", "m1-default")
    ]


def _banded(lower, diag, upper):
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return ab


def _assert_solves_like_lapack(lower, diag, upper, rhs):
    x = _kernel.tridiagonal_solve(lower, diag, upper, rhs)
    ref = solve_banded((1, 1), _banded(lower, diag, upper), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_tridiagonal_solve_matches_lapack_on_random_systems(rng):
    for n in (1, 2, 3, 4, 17, 1000):
        lower, upper = rng.uniform(-1.0, 1.0, (2, n - 1))
        diag = rng.uniform(-1.0, 1.0, n) + 3.0 * rng.choice([-1.0, 1.0], n)
        _assert_solves_like_lapack(lower, diag, upper, rng.uniform(-1.0, 1.0, n))


def test_tridiagonal_solve_pivots(rng):
    """A zero or tiny leading diagonal, which elimination without row swaps
    cannot do or gets wrong, and sub-diagonals larger than the diagonal
    throughout, which swap nearly every row and fill the second
    superdiagonal."""
    n = 64
    lower, upper = rng.uniform(0.5, 1.0, (2, n - 1))
    rhs = rng.uniform(-1.0, 1.0, n)
    for lead in (0.0, 1e-14, -1e-300):
        diag = rng.uniform(0.5, 1.0, n)
        diag[0] = lead
        _assert_solves_like_lapack(lower, diag, upper, rhs)
    _assert_solves_like_lapack(4.0 * lower, 0.1 * rng.uniform(-1.0, 1.0, n), upper, rhs)


def test_tridiagonal_solve_matches_lapack_on_profile_jacobians(preset_profiles):
    """The Newton Jacobians of both presets are not diagonally dominant."""
    for prof in preset_profiles:
        h = prof.xi_grid[1] - prof.xi_grid[0]
        lower, diag, upper = _stencil_jacobian(prof.closure, prof.alpha, prof.xi_grid, prof.phi, h)
        assert np.any(np.abs(diag[1:-1]) < np.abs(lower[:-1]) + np.abs(upper[1:]))
        _assert_solves_like_lapack(lower, diag, upper, np.sin(prof.xi_grid[1:-1]))


def test_tridiagonal_solve_rejects_singular_and_misshapen_systems():
    # rows 0 and 1 of [[1, 2, 0], [2, 4, 0], [0, 0, 1]] are parallel
    lower, diag, upper = np.array([2.0, 0.0]), np.array([1.0, 4.0, 1.0]), np.array([2.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((1, 1), _banded(lower, diag, upper), np.ones(3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _kernel.tridiagonal_solve(lower, diag, upper, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _kernel.tridiagonal_solve(np.zeros(3), np.zeros(4), np.zeros(3), np.ones(4))
    with pytest.raises(ValueError):
        _kernel.tridiagonal_solve(lower, diag, upper, np.ones(4))
    with pytest.raises(ValueError):
        _kernel.tridiagonal_solve(lower[:1], diag, upper, np.ones(3))


def test_deriv_matches_cubic_spline(preset_profiles, rng):
    """Within 2e-9 of max|data|: 8.8e-10 measured, on the fourth derivative
    of m1's profile.  Hermite slopes from second-order differences reach
    1e-8 there."""
    for prof in preset_profiles:
        xi = prof.xi_grid
        points = np.concatenate([
            0.5 * (xi[1:] + xi[:-1]),
            xi[::7],
            rng.uniform(xi[0], xi[-1], 1000),
            [xi[0], xi[-1]],
        ])
        for order, data in enumerate((prof.phi, prof.dphi, prof.d2phi, prof.d3phi, prof.d4phi)):
            want = CubicSpline(xi, data)(points)
            got = prof.deriv(points, order)
            assert np.max(np.abs(got - want)) <= 2e-9 * np.max(np.abs(data)), order
            assert prof.deriv(float(xi[100]), order) == pytest.approx(data[100], rel=1e-12)


def test_deriv_nan_and_infinite_arguments(preset_profiles):
    for prof in preset_profiles:
        for order in range(5):
            got = prof.deriv(np.array([np.nan, -np.inf, np.inf, 0.0]), order)
            assert np.isnan(got[0]) and np.isfinite(got[3])
            far = (prof.v_minus, prof.v_plus) if order == 0 else (0.0, 0.0)
            assert (got[1], got[2]) == far
            assert np.isnan(prof.deriv(np.nan, order))


def _deriv_oracle(prof, xi, order):
    """``WaveProfile.deriv``'s NumPy formula: the oracle of its C loop."""
    lo, hi = prof.xi_grid[0], prof.xi_grid[-1]
    h = (hi - lo) / (prof.xi_grid.size - 1)
    data = (prof.phi, prof.dphi, prof.d2phi, prof.d3phi, prof.d4phi)[order]
    coef = _hermite_coefficients(data, h)
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    s = (np.clip(xi, lo, hi) - lo) / h
    cell = np.fmin(s, coef.shape[1] - 1).astype(np.intp)
    t = s - cell
    c0, c1, c2, c3 = coef[:, cell]
    out = ((c3 * t + c2) * t + c1) * t + c0
    below, above = xi < lo, xi > hi
    if order == 0:
        out = np.where(below, prof.v_minus, out)
        out = np.where(above, prof.v_plus, out)
    else:
        out = np.where(below | above, 0.0, out)
    return float(out[0]) if scalar else out


def _edge_points(prof, rng):
    """NaN, the infinities, signed zeros, the window's ends and their
    neighbours on both sides, every node, and points inside the cells."""
    xi = prof.xi_grid
    lo, hi = xi[0], xi[-1]
    ends = [np.nextafter(e, d) for e in (lo, hi) for d in (-np.inf, np.inf)]
    return np.concatenate([
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, lo, hi, *ends, 2 * lo, 2 * hi],
        xi, 0.5 * (xi[1:] + xi[:-1]), rng.uniform(1.1 * lo, 1.1 * hi, 2000),
    ])


@pytest.mark.parametrize("order", range(5))
def test_deriv_is_the_numpy_formula_to_the_bit(preset_profiles, rng, order):
    """The C loop against the NumPy formula, bit for bit, on flat, 0-d, 2-D
    and strided input."""
    for prof in preset_profiles:
        points = _edge_points(prof, rng)
        got, want = prof.deriv(points, order), _deriv_oracle(prof, points, order)
        assert got.shape == want.shape and same_bits(got, want)
        for x in points[:14]:
            one = prof.deriv(x, order)
            assert type(one) is float and same_bits(one, _deriv_oracle(prof, x, order))
        grid = points[: points.size // 9 * 9].reshape(-1, 9)
        for arg in (grid, grid.T, points[::3], points[::-2]):  # 2-D, then strided
            got, want = prof.deriv(arg, order), _deriv_oracle(prof, arg, order)
            assert got.shape == arg.shape and same_bits(got, want)
        assert np.isnan(prof.deriv(np.nan, order))


def test_cumulative_simpson_matches_scipy():
    for n in (2, 3, 4, 5, 101, 102):
        x = np.linspace(-1.0, 2.0, n)
        y = np.exp(np.sin(3.0 * x))
        got = _cumulative_simpson(y, x[1] - x[0])
        want = cumulative_simpson(y, x=x, initial=0.0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n
        assert got[-1] == pytest.approx(simpson(y, x=x), rel=1e-13), n


def test_profile_work_imports_no_scipy():
    """Importing the command line, solving a profile, building a bump and
    evaluating the profile load no SciPy module."""
    src = str(Path(_kernel.__file__).parents[1])
    code = (
        "import sys\n"
        "import diffwave.cli\n"
        "from diffwave import flux_relation_check, m1_closure, solve_profile\n"
        "from diffwave.corrections import make_mollifier\n"
        "prof = solve_profile(m1_closure(1.0), 1.0, 1.2, n_cells=256)\n"
        "make_mollifier('bump', 0.5, 2.0)\n"
        "prof.deriv([0.0, 1.0], 2)\n"
        "flux_relation_check(prof, -1.0, 1.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", (proc.stdout, proc.stderr)
