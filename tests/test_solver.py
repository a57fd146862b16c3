import dataclasses
import inspect

import numpy as np
import pytest

from diffwave import HyperbolicityError, config, gamma_law_closure, solve_profile
from diffwave.solver import (
    BlowUpError,
    PerturbationSpec,
    ScenarioSpec,
    SimState,
    advance,
    build_initial_data,
    cfl_dt,
    heat_kernel,
    lagrangian_transform,
    run,
    step,
)


def test_lagrangian_transform_identity():
    x = np.linspace(-2.0, 3.0, 501)
    m, v0, u0 = lagrangian_transform(x, np.ones_like(x), np.sin(x))
    assert np.allclose(m, x, atol=1e-12)
    assert np.allclose(v0, 1.0)
    assert np.allclose(u0, np.sin(x), atol=1e-4)


def test_lagrangian_transform_constant_scaling():
    x = np.linspace(0.0, 1.0, 201)
    m, v0, _ = lagrangian_transform(x, np.full_like(x, 2.0), np.zeros_like(x))
    assert np.allclose(m, 2.0 * x, atol=1e-12)
    assert np.allclose(v0, 0.5)


def test_lagrangian_transform_round_trip():
    def rho_of(x):
        return 1.5 + 0.5 * np.tanh(x)

    errs = []
    for n in (400, 800):
        x = np.linspace(-5.0, 5.0, n + 1)
        m, v0, _ = lagrangian_transform(x, rho_of(x), np.zeros_like(x))
        # invert: x(m) from cumulative trapezoid of v0 dm
        x_back = np.concatenate(
            ([0.0], np.cumsum(0.5 * (v0[1:] + v0[:-1]) * np.diff(m)))
        )
        x_back += x[0] - x_back[0]
        rho_back = 1.0 / v0
        errs.append(np.max(np.abs(rho_back - rho_of(x_back))))
    assert errs[0] < 1e-3
    assert errs[1] < errs[0] / 3.0  # second-order interpolation error


def test_lagrangian_transform_rejects_vacuum():
    x = np.linspace(0, 1, 11)
    rho = np.ones_like(x)
    rho[4] = 0.0
    with pytest.raises(ValueError):
        lagrangian_transform(x, rho, np.zeros_like(x))


def test_build_initial_data_pure_wave(gamma_closure):
    profile = solve_profile(gamma_closure, 1.0, 1.1, n_cells=4096)
    spec = ScenarioSpec(
        closure=gamma_closure, v_minus=1.0, v_plus=1.1,
        perturbation=PerturbationSpec(amplitude=0.0),
        n_cells=1024, x_max=60.0, end_time=1.0,
    )
    state = build_initial_data(spec, profile)
    from diffwave import eval_ubar, eval_vbar

    x = state.x_centers
    assert np.allclose(state.v, eval_vbar(profile, x, 0.0), atol=1e-14)
    assert np.allclose(state.u, eval_ubar(profile, x, 0.0), atol=1e-14)


def test_build_initial_data_constant_state(gamma_closure):
    profile = solve_profile(gamma_closure, 1.0, 1.0, n_cells=128)
    spec = ScenarioSpec(
        closure=gamma_closure, v_minus=1.0, v_plus=1.0,
        perturbation=PerturbationSpec(amplitude=0.0),
        n_cells=256, x_max=20.0, end_time=1.0,
    )
    state = build_initial_data(spec, profile)
    assert np.all(state.v == 1.0)
    assert np.all(state.u == 0.0)


def test_build_initial_data_far_field_check(gamma_closure):
    profile = solve_profile(gamma_closure, 1.0, 1.1, n_cells=4096)
    spec = ScenarioSpec(
        closure=gamma_closure, v_minus=1.0, v_plus=1.1,
        perturbation=PerturbationSpec(amplitude=0.01, center=18.0, width=3.0),
        n_cells=256, x_max=20.0, end_time=1.0,  # support touches the boundary
    )
    with pytest.raises(ValueError, match="far-field"):
        build_initial_data(spec, profile)


def test_wave_strength_and_caps(gamma_closure):
    spec = ScenarioSpec(
        closure=gamma_closure, v_minus=1.0, v_plus=1.1, u_minus=0.0, u_plus=0.05,
        perturbation=PerturbationSpec(amplitude=0.01),
    )
    assert spec.wave_strength == pytest.approx(0.15)
    with pytest.raises(ValueError, match="cfl"):
        ScenarioSpec(closure=gamma_closure, v_minus=1.0, v_plus=1.1, cfl=1.5)
    with pytest.raises(ValueError, match="strength"):
        ScenarioSpec(closure=gamma_closure, v_minus=1.0, v_plus=2.0)
    with pytest.raises(ValueError, match="amplitude"):
        ScenarioSpec(
            closure=gamma_closure, v_minus=1.0, v_plus=1.1,
            perturbation=PerturbationSpec(amplitude=0.5),
        )


def test_spec_derives_its_correction_pair():
    """u_minus, u_plus and alpha have one owner: the pair is read off the spec."""
    closure = gamma_law_closure(2.0, 3.0)
    spec = ScenarioSpec(closure=closure, v_minus=1.0, v_plus=1.1, u_plus=0.05)
    corr = spec.corr
    assert (corr.u_minus, corr.u_plus, corr.alpha) == (0.0, 0.05, 3.0)
    assert corr.mollifier.shape == "bump" and corr.M0(1.0) == 1.0
    # the pair takes no part in == or repr, and replace derives a new one
    assert spec == ScenarioSpec(closure=closure, v_minus=1.0, v_plus=1.1, u_plus=0.05)
    assert "corr" not in repr(spec)
    assert dataclasses.replace(spec, u_minus=0.02).corr.u_minus == 0.02


def test_cfl_dt_examples(gamma_closure, m1):
    n = 200
    state = SimState(-10.0, 10.0, n, np.ones(n), np.zeros(n), 0.0, gamma_closure)
    assert cfl_dt(state, 0.45) == pytest.approx(0.45 * 0.1 / np.sqrt(2.0), rel=1e-12)
    state = SimState(-10.0, 10.0, n, np.ones(n), np.zeros(n), 0.0, m1)
    assert cfl_dt(state, 0.45) == pytest.approx(0.045 * np.sqrt(3.0), rel=1e-12)


def test_cfl_dt_rejects_state_without_real_speeds(m1):
    # |u| > 2/sqrt(3): the M1 discriminant is NaN, not negative
    state = SimState(-1.0, 1.0, 4, np.ones(4), np.array([0.0, 0.0, 1.2, 0.0]), 0.0, m1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(HyperbolicityError, match=r"v=1, u=1\.2"):
            cfl_dt(state, 0.45)


def test_cfl_dt_uses_fastest_cell(gamma_closure):
    n = 100
    v = np.ones(n)
    v[40] = 0.8  # stiffer cell, faster waves
    state = SimState(-10.0, 10.0, n, v, np.zeros(n), 0.0, gamma_closure)
    lam = np.sqrt(-gamma_closure.dp(0.8))
    assert cfl_dt(state, 0.5) == pytest.approx(0.5 * 0.2 / lam, rel=1e-12)


def test_speed_bound_is_set_only_by_step(gamma_closure):
    n = 64
    state = SimState(-1.0, 1.0, n, np.ones(n), np.zeros(n), 0.0, gamma_closure)
    assert state.speed_bound is None
    nxt = step(state, 0.4 * cfl_dt(state, 1.0))
    assert nxt.speed_bound == np.sqrt(2.0)  # sqrt(-p'(1)) on every face
    assert cfl_dt(nxt, 0.45) == 0.45 * nxt.dx / nxt.speed_bound
    assert dataclasses.replace(nxt).speed_bound is None
    with pytest.raises(ValueError):
        dataclasses.replace(nxt, speed_bound=1.0)


def test_step_above_courant_one_raises(gamma_closure):
    n = 64
    state = SimState(-1.0, 1.0, n, np.ones(n), np.zeros(n), 0.0, gamma_closure)
    courant_one = state.dx / np.sqrt(2.0)
    step(state, 0.99 * courant_one)
    with pytest.raises(BlowUpError, match=r"Courant number 1\.01 exceeds 1"):
        step(state, 1.01 * courant_one)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, -0.05, 0.0, -0.0])
@pytest.mark.parametrize("closure", ["gamma_closure", "m1", "linear"])
def test_step_rejects_a_dt_that_is_not_positive_and_finite(request, closure, dt):
    """A NaN or infinite dt used to surface as a hyperbolicity or non-finite
    error, and a negative one returned a state at a negative time."""
    n = 16
    state = SimState(-1.0, 1.0, n, np.ones(n), np.full(n, 0.01), 0.0,
                     request.getfixturevalue(closure))
    with pytest.raises(ValueError, match=r"time step dt must be positive and finite") as err:
        step(state, dt)
    assert type(err.value) is ValueError


@pytest.mark.parametrize(
    "t_end, cfl, name",
    [(np.nan, 0.45, "t_end"), (np.inf, 0.45, "t_end"), (-np.inf, 0.45, "t_end"),
     (-1.0, 0.45, "t_end"), (1.0, np.nan, "cfl"), (1.0, -0.2, "cfl"), (1.0, 0.0, "cfl"),
     (1.0, 1.0, "cfl"), (1.0, 1.5, "cfl")],
)
def test_advance_rejects_bad_arguments(gamma_closure, t_end, cfl, name):
    """A NaN or earlier t_end used to return the state unchanged, and a bad
    cfl to run backwards, lose hyperbolicity or blow up."""
    n = 16
    state = SimState(-1.0, 1.0, n, np.ones(n), np.full(n, 0.01), 0.0, gamma_closure)
    with pytest.raises(ValueError, match=rf"^{name} must") as err:
        advance(state, t_end, cfl)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("ends", [(1.0, -1.0), (1.0, 1.0), (np.nan, 1.0), (-1.0, np.inf),
                                  (-np.inf, 1.0)])
def test_sim_state_rejects_bad_domain_ends(gamma_closure, ends):
    with pytest.raises(ValueError, match="domain ends must be finite with x_left < x_right"):
        SimState(*ends, 3, np.ones(3), np.zeros(3), 0.0, gamma_closure)


@pytest.mark.parametrize("closure", ["gamma_closure", "m1", "linear"])
def test_sim_state_takes_lists_and_ints_as_float64(request, closure):
    """List, integer and strided input become contiguous float64 rows, and
    step to the bits of the same float64 arrays."""
    closure = request.getfixturevalue(closure)
    n = 40
    v = [1 + (k % 7 == 3) for k in range(n)]  # ints: 1 and 2
    u = [0.01 * (k % 5) for k in range(n)]
    want = SimState(-4.0, 4.0, n, np.array(v, dtype=float), np.array(u), 0.0, closure)
    strided = np.repeat(np.array(u), 2)[::2]
    for got in (SimState(-4, 4, n, v, u, 0, closure),
                SimState(-4, 4.0, n, np.array(v), strided, 0.0, closure)):
        assert type(got.x_left) is float and got.dx == want.dx
        for row in (got.v, got.u):
            assert row.dtype == np.float64 and row.flags.c_contiguous
        ref = want
        for _ in range(3):
            got, ref = step(got, 0.01), step(ref, 0.01)
            assert np.array_equal(got.v.view(np.uint64), ref.v.view(np.uint64))
            assert np.array_equal(got.u.view(np.uint64), ref.u.view(np.uint64))
    with pytest.raises(ValueError, match="field length"):
        SimState(-4.0, 4.0, n, np.ones((2, n // 2)), np.zeros(n), 0.0, closure)


def test_constant_state_is_exact_equilibrium(gamma_closure):
    n = 256
    state = SimState(-10.0, 10.0, n, np.ones(n), np.zeros(n), 0.0, gamma_closure)
    dt = cfl_dt(state, 0.45)
    for _ in range(1000):
        state = step(state, dt)
    assert np.max(np.abs(state.v - 1.0)) == 0.0
    assert np.max(np.abs(state.u)) == 0.0


def test_uniform_damping_is_exact(gamma_closure):
    n = 128
    state = SimState(-5.0, 5.0, n, np.ones(n), np.full(n, 0.1), 0.0, gamma_closure)
    for _ in range(100):
        state = step(state, 0.01)
    assert np.max(np.abs(state.u - 0.1 * np.exp(-state.t))) < 1e-14


def test_volume_sum_balances_boundary_flux(gamma_closure):
    """Total v gains exactly the time integral of the damped far-field jump.

    d/dt sum(v) dx = u_plus(t) - u_minus(t) = 0.05 exp(-t), so after the
    steps sum(v) dx has gained 0.05 (1 - exp(-t)) to rounding.  A flux that
    samples the damped far field at the step midpoint misses this by
    O(dt^2) per unit time, far above the tolerance.
    """
    n = 512
    state = SimState(-20.0, 20.0, n, np.ones(n), np.zeros(n), 0.0, gamma_closure)
    state.u[state.x_centers > 0.0] = 0.05
    mass0 = np.sum(state.v) * state.dx
    for _ in range(200):
        state = step(state, 0.01)
    gained = 0.05 * (1.0 - np.exp(-state.t))
    assert np.sum(state.v) * state.dx - mass0 == pytest.approx(gained, abs=1e-13)


def test_far_field_edge_cells_follow_damped_law(m1):
    """Edge cells track u_pm exp(-alpha t) while an interior jump evolves.

    The jump's influence spreads at most two cells per step, so 150 cells
    between the jump and each edge stay clear of it for 60 steps.
    """
    n = 300
    u_minus, u_plus = 0.0, 0.05
    state = SimState(-15.0, 15.0, n, np.ones(n), np.zeros(n), 0.0, m1)
    state.u[n // 2:] = u_plus
    for _ in range(60):
        state = step(state, cfl_dt(state, 0.45))
        decay = np.exp(-m1.alpha * state.t)
        assert abs(state.u[0] - u_minus * decay) <= 1e-12
        assert abs(state.u[-1] - u_plus * decay) <= 1e-12
        assert state.v[0] == state.v[-1] == 1.0
    assert not np.allclose(state.u[n // 2 - 5:n // 2 + 5], state.u[n // 2])


def test_advance_lands_on_end_time(gamma_closure):
    n = 128
    u = 0.01 * np.sin(np.linspace(0.0, np.pi, n))
    start = SimState(-5.0, 5.0, n, np.ones(n), u, 0.0, gamma_closure)
    ref = start
    while ref.t < 0.7 - 1e-12:
        ref = step(ref, min(cfl_dt(ref, 0.45), 0.7 - ref.t))
    end = advance(start, 0.7, 0.45)
    assert end.t == ref.t == pytest.approx(0.7, abs=1e-12)
    assert np.array_equal(end.v, ref.v) and np.array_equal(end.u, ref.u)
    assert advance(end, 0.7, 0.45) is end


def test_step_and_advance_take_no_far_field_data():
    """The far field carries its own law: adding far-field data means editing this test."""
    assert list(inspect.signature(step).parameters) == ["state", "dt"]
    assert list(inspect.signature(advance).parameters) == ["state", "t_end", "cfl"]


def test_max_abs_u_runs_over_every_step(gamma_closure):
    """A state's max_abs_u is the largest |u| over it and its history."""
    n = 64
    start = SimState(-5.0, 5.0, n, np.ones(n), np.full(n, -0.1), 0.0, gamma_closure)
    assert start.max_abs_u == 0.1
    end = advance(start, 1.0, 0.45)
    assert np.max(np.abs(end.u)) < 0.05
    assert end.max_abs_u == 0.1
    # a rebuilt state has no history
    assert dataclasses.replace(end).max_abs_u == np.max(np.abs(end.u))


def test_step_against_spectral_reference(gamma_closure):
    """Smooth compact wave vs an independent Fourier/RK4 integrator."""
    L = 20.0
    t_end = 1.0

    def initial(x):
        s = x / 3.0
        bump = np.where(np.abs(s) < 1, np.exp(1 - 1 / np.maximum(1 - s**2, 1e-300)), 0.0)
        return 1.0 + 0.01 * bump, 0.01 * bump

    def spectral_reference(n):
        x = -L + (np.arange(n) + 0.5) * (2 * L / n)
        k = 2j * np.pi * np.fft.fftfreq(n, d=2 * L / n)
        v, u = initial(x)

        def rhs(v, u):
            dudx = np.real(np.fft.ifft(k * np.fft.fft(u)))
            dpdx = np.real(np.fft.ifft(k * np.fft.fft(gamma_closure.p(v))))
            return dudx, -dpdx - u

        dt = 1e-3
        t = 0.0
        while t < t_end - 1e-12:
            h = min(dt, t_end - t)
            k1 = rhs(v, u)
            k2 = rhs(v + 0.5 * h * k1[0], u + 0.5 * h * k1[1])
            k3 = rhs(v + 0.5 * h * k2[0], u + 0.5 * h * k2[1])
            k4 = rhs(v + h * k3[0], u + h * k3[1])
            v = v + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            u = u + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += h
        return x, v, u

    xref, vref, uref = spectral_reference(4096)

    errs = []
    for n in (512, 1024, 2048):
        x = -L + (np.arange(n) + 0.5) * (2 * L / n)
        v, u = initial(x)
        state = SimState(-L, L, n, v, u, 0.0, gamma_closure)
        while state.t < t_end - 1e-12:
            dt = min(cfl_dt(state, 0.4), t_end - state.t)
            state = step(state, dt)
        vr = np.interp(x, xref, vref)
        ur = np.interp(x, xref, uref)
        err = np.sqrt(np.mean((state.v - vr) ** 2 + (state.u - ur) ** 2))
        errs.append(err)
    # Fromm's central slope gives L2 orders of 2.3 and 2.6 here; the
    # contract is order >= 1.5 against the oracle
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.45)
    assert errs[-1] < 2e-6


@pytest.mark.parametrize("amplitude", [0.1, -0.1])
@pytest.mark.parametrize(
    "preset, v_plus", [("gamma-default", 1.5), ("m1-default", 1.45)], ids=["gamma", "m1"]
)
def test_runs_at_the_smallness_caps_stay_in_the_box(preset, v_plus, amplitude):
    """Wave strength 0.5 (m1's u_plus = 0.05 counts), the largest bump
    amplitude and a narrow bump, on 2048 cells to t = 500.  The slope is not
    limited, so this is the scheme's robustness guard: the run finishes
    inside the closure's box, with v back between its far-field values."""
    cfg = config.parse_config(
        f"[scenario]\npreset = {preset}\nv_plus = {v_plus}\n"
        f"perturbation_amplitude = {amplitude}\nperturbation_width = 0.5\n"
        "[grid]\nn_cells = 2048\n"
    )
    spec, profile = config.build_scenario(cfg)
    assert spec.wave_strength == pytest.approx(0.5)
    state = advance(build_initial_data(spec, profile), spec.end_time, spec.cfl)
    assert state.t == spec.end_time == 500.0
    assert spec.closure.admissible(state.v, state.u)
    assert spec.v_minus - 1e-9 <= state.v.min() and state.v.max() <= v_plus + 1e-9


def test_step_blow_up_detection(gamma_closure):
    n = 64
    v = np.full(n, 0.2)
    u = 5.0 * np.sin(np.linspace(0, 6 * np.pi, n))
    state = SimState(-1.0, 1.0, n, v, u, 0.0, gamma_closure)
    with pytest.raises(BlowUpError):
        for _ in range(50):
            state = step(state, 0.05)  # far beyond CFL


@pytest.mark.parametrize(
    "v, u, dt, message",
    [
        # u rises, so the predictor only widens the cells; the faces right
        # of cell 8 carry u_L + u_R > DBL_MAX
        (1.0, np.r_[np.zeros(8), np.full(8, 1e308)], 0.1,
         "non-finite state in cell 8 at t=0.1"),
        # v = 4 keeps the face speeds, and so the Courant number, small
        (4.0, np.r_[np.full(8, 5.0), np.full(8, -5.0)], 1.7,
         "vacuum reached in cell 7 at t=1.7"),
        # the only falling slope, (u[k+1] - u[k-1]) / 2, is at cell 10, and
        # the step's window starts at cell 8
        (1.0, np.r_[np.zeros(11), -20.0, np.zeros(4)], 0.6,
         "negative specific volume in reconstruction near cell 10 at t=0$"),
    ],
    ids=["non-finite", "vacuum", "reconstruction"],
)
def test_step_names_the_failing_cell(gamma_closure, v, u, dt, message):
    """The state checks name the domain cell, not the window's."""
    state = SimState(-8.0, 8.0, 16, np.full(16, v), u, 0.0, gamma_closure)
    with np.errstate(all="ignore"), pytest.raises(BlowUpError, match=message):
        step(state, dt)


def test_nan_volume_hides_the_reconstruction_check(gamma_closure):
    """The ``reconstruction`` case above with a NaN volume in cell 14.

    A face row's minimum propagates the NaN, so the reconstruction check does
    not fire and the hyperbolicity check names the first failing face state.
    """
    u = np.r_[np.zeros(11), -20.0, np.zeros(4)]
    v = np.ones(16)
    v[14] = np.nan
    state = SimState(-8.0, 8.0, 16, v, u, 0.0, gamma_closure)
    with np.errstate(all="ignore"), pytest.raises(
        HyperbolicityError, match=r"state \(v=-1.22245, u=-3.70409\)"
    ):
        step(state, 0.6)


def test_m1_warns_beyond_physical_flux_limit(m1):
    n = 64
    state = SimState(-1.0, 1.0, n, np.ones(n), np.full(n, 1.05), 0.0, m1)
    with pytest.warns(RuntimeWarning, match="exceeded"):
        step(state, 1e-4)


def test_run_end_time_zero(gamma_closure):
    profile = solve_profile(gamma_closure, 1.0, 1.1, n_cells=2048)
    spec = ScenarioSpec(
        closure=gamma_closure, v_minus=1.0, v_plus=1.1,
        perturbation=PerturbationSpec(amplitude=0.0),
        n_cells=512, x_max=40.0, end_time=0.0,
    )
    series = run(spec, profile, [0.0])
    assert series.t == [0.0]


@pytest.mark.parametrize("times, bad", [([-2.0, -1.0, 0.5], "-2.0"), ([0.5, np.nan], "nan")])
def test_run_rejects_a_negative_sample_time(gamma_closure, times, bad):
    """Two negative sample times used to record the t = 0 state twice, and
    a NaN one surfaced as advance's t_end error."""
    profile = solve_profile(gamma_closure, 1.0, 1.0, n_cells=128)
    spec = ScenarioSpec(
        closure=gamma_closure, v_minus=1.0, v_plus=1.0,
        perturbation=PerturbationSpec(amplitude=0.0),
        n_cells=64, x_max=20.0, end_time=1.0,
    )
    with pytest.raises(ValueError, match=rf"^sample times must be >= 0, not {bad}$"):
        run(spec, profile, times)


def test_run_constant_state_norms_vanish(gamma_closure):
    profile = solve_profile(gamma_closure, 1.0, 1.0, n_cells=128)
    spec = ScenarioSpec(
        closure=gamma_closure, v_minus=1.0, v_plus=1.0,
        perturbation=PerturbationSpec(amplitude=0.0),
        n_cells=256, x_max=20.0, end_time=5.0,
    )
    series = run(spec, profile, np.linspace(0.0, 5.0, 6))
    for key in ("l2_V", "l2_z", "linf_V", "linf_z"):
        assert max(series.norms[key]) < 1e-12
    assert max(abs(m) for m in series.mass_residual) < 1e-12


def test_heat_kernel_values_and_moments():
    assert heat_kernel(0.0, 1.0, -1.0) == pytest.approx(
        1.0 / np.sqrt(4.0 * np.pi), rel=1e-14
    )
    x = np.linspace(-80.0, 80.0, 40001)
    g = heat_kernel(x, 2.0, -1.5)
    assert np.all(g > 0.0)
    assert np.trapezoid(g, x) == pytest.approx(1.0, abs=1e-8)
    assert np.trapezoid(x**2 * g, x) == pytest.approx(2.0 * 1.5 * 2.0, rel=1e-8)
    with pytest.raises(ValueError):
        heat_kernel(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        heat_kernel(0.0, 1.0, 0.5)
