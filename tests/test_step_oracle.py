"""The transport step and the wave-speed bound against their reference forms.

``reference_step`` and ``reference_wave_speed_bound`` are the straightforward
formulations: two separate eigen-solves per face, every closure term
evaluated, the successor state rebuilt through ``dataclasses.replace``.
``reference_cfl_dt`` takes the time step from the largest face speed of the
step that produced the state, and from the cells only for the initial data.
The package's lean step must reproduce them bit for bit, so these tests compare
the raw 64-bit patterns (signed zeros included) and use ``==`` on scalars,
never a tolerance.
"""

import dataclasses

import numpy as np
import pytest

from diffwave import _kernel, config, solver
from diffwave.closures import (
    HyperbolicityError,
    face_combine,
    gamma_law_closure,
    linear_closure,
    m1_closure,
    wave_speed_bound,
)
from diffwave.solver import (
    BlowUpError,
    PerturbationSpec,
    SimState,
    _faces,
    _numpy_step,
    build_initial_data,
    cfl_dt,
    step,
)
from test_elementary import damping


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_characteristic_speeds(closure, v, u):
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    b = closure.dg(u) * closure.f(v)
    c = closure.dp(v) - closure.g(u) * closure.df(v)
    root = np.sqrt(b * b - 4.0 * c)
    return 0.5 * (-b - root), 0.5 * (-b + root)


def reference_wave_speed_bound(closure, v, u):
    lam_minus, lam_plus = reference_characteristic_speeds(closure, v, u)
    return np.maximum(np.abs(lam_minus), np.abs(lam_plus))


def _flux(closure, v, u):
    return -u, closure.p(v) - closure.g(u) * closure.f(v)


def reference_cfl_dt(state, cfl):
    amax = state.speed_bound
    if amax is None:
        amax = float(np.max(reference_wave_speed_bound(state.closure, state.v, state.u)))
    return cfl * state.dx / amax


def reference_faces(closure, v, u, lam):
    """((vL, uL), (vR, uR)): the left and right states of the n + 1 faces of
    the rows (v, u) after the MUSCL-Hancock predictor, lam = dt / (2 dx)."""
    # transmissive boundary: the ghost cells copy the edge cells
    ve = np.concatenate(([v[0], v[0]], v, [v[-1], v[-1]]))
    ue = np.concatenate(([u[0], u[0]], u, [u[-1], u[-1]]))

    # Fromm's unlimited central slopes
    sv = 0.5 * (ve[2:] - ve[:-2])
    su = 0.5 * (ue[2:] - ue[:-2])

    vl = ve[1:-1] - 0.5 * sv
    vr = ve[1:-1] + 0.5 * sv
    ul = ue[1:-1] - 0.5 * su
    ur = ue[1:-1] + 0.5 * su
    fvl, ful = _flux(closure, vl, ul)
    fvr, fur = _flux(closure, vr, ur)
    dv_pred = lam * (fvl - fvr)
    du_pred = lam * (ful - fur)
    vl = vl + dv_pred
    vr = vr + dv_pred
    ul = ul + du_pred
    ur = ur + du_pred
    return (vr[:-1], ur[:-1]), (vl[1:], ul[1:])


def reference_step(state, dt):
    closure = state.closure
    alpha = closure.alpha
    dx = state.dx

    # e^-h and kappa = sinh(h)/h, h = alpha dt/2, from the package's exp: the
    # step's own two scalars, the same bits under any NumPy dispatch
    half_damp, kappa = damping(0.5 * alpha * dt)
    u = state.u * half_damp
    v = state.v

    (vL, uL), (vR, uR) = reference_faces(closure, v, u, 0.5 * dt / dx)
    a_face = np.maximum(
        reference_wave_speed_bound(closure, vL, uL),
        reference_wave_speed_bound(closure, vR, uR),
    )
    fvL, fuL = _flux(closure, vL, uL)
    fvR, fuR = _flux(closure, vR, uR)
    # the central volume flux carries the step's mean damping factor
    flux_v = (0.5 * kappa) * (fvL + fvR) - 0.5 * a_face * (vR - vL)
    flux_u = 0.5 * (fuL + fuR) - 0.5 * a_face * (uR - uL)

    v_new = v - (dt / dx) * np.diff(flux_v)
    u_new = u - (dt / dx) * np.diff(flux_u)
    u_new *= half_damp
    new = dataclasses.replace(state, v=v_new, u=u_new, t=state.t + dt)
    new.speed_bound = float(np.max(a_face))
    return new


def _preset_state(preset, n_cells):
    spec, profile = config.build_scenario(
        f"[scenario]\npreset = {preset}\n[grid]\nn_cells = {n_cells}\n"
    )
    return spec, build_initial_data(spec, profile)


@pytest.mark.parametrize("preset", ["gamma-default", "m1-default"])
def test_step_and_cfl_match_reference_bitwise(preset):
    spec, state = _preset_state(preset, 1024)
    if preset == "m1-default":
        assert spec.u_plus == 0.05  # the far-field velocity jump is covered
    ref = state
    for _ in range(50):
        dt = cfl_dt(state, spec.cfl)
        dt_ref = reference_cfl_dt(ref, spec.cfl)
        assert dt == dt_ref
        state = step(state, dt)
        ref = reference_step(ref, dt_ref)
        assert state.t == ref.t
        assert same_bits(state.v, ref.v)
        assert same_bits(state.u, ref.u)


@pytest.mark.parametrize("n_cells", [1024, 2048])
@pytest.mark.parametrize("preset", ["gamma-default", "m1-default"])
def test_face_rule_dt_tracks_cell_rule(preset, n_cells):
    """The lagged face-speed step stays within 2e-3 of the cell-speed step,
    and each step runs at the Courant number cfl asks for, to 1e-3.

    The unlimited slope lets a step's face speeds fall below the cell speeds
    of the state they produce, so the face step may exceed the cell step (by
    up to 4.6e-11 of it on these runs).  What the solver relies on is the
    Courant number: the lagged step runs above cfl by at most 2.1e-5 of it
    here (m1-default, 1024 cells).
    """
    spec, state = _preset_state(preset, n_cells)
    steps = 0
    while state.t < 10.0:
        dt = cfl_dt(state, spec.cfl)
        dt_cells = cfl_dt(dataclasses.replace(state), spec.cfl)
        assert abs(dt - dt_cells) <= 2e-3
        state = step(state, dt)
        assert dt * state.speed_bound / state.dx <= spec.cfl * (1.0 + 1e-3)
        steps += 1
    assert steps >= n_cells // 25


def _user_built(closure):
    """The same closure with every callable rewrapped: not built in."""
    names = ("p", "dp", "g", "dg", "f", "df")
    return dataclasses.replace(
        closure, **{k: lambda x, fn=getattr(closure, k): fn(x) for k in names}
    )


@pytest.mark.parametrize(
    "closure",
    [m1_closure(1.0), gamma_law_closure(2.0, 1.0), gamma_law_closure(1.4, 0.5),
     linear_closure(1.0), _user_built(gamma_law_closure(2.0, 1.0))],
    ids=["m1", "gamma2", "gamma1.4", "linear", "gamma2-rewrapped"],
)
def test_wave_speed_bound_matches_reference_bitwise(closure):
    v = np.linspace(0.05, 20.0, 601)
    u = np.linspace(-0.99, 0.99, 397)
    vv, uu = np.meshgrid(v, u)
    assert same_bits(
        wave_speed_bound(closure, vv, uu), reference_wave_speed_bound(closure, vv, uu)
    )


def test_correction_free_keyed_on_callables():
    """The closures without a correction term (g = 0, f = 1) share the same
    zero and one callables; their kind follows the callables, not the name."""
    gas, line, m1 = gamma_law_closure(2.0, 1.0), linear_closure(1.0), m1_closure(1.0)
    assert gas.g is line.g and gas.f is line.f and gas.dg is line.dg and gas.df is line.df
    assert m1.g is not gas.g and m1.f is not gas.f
    assert gas.builtin == GAMMA2 and line.builtin is None
    assert dataclasses.replace(gas, name="m1").builtin == GAMMA2
    assert _user_built(gas).builtin is None
    renamed = dataclasses.replace(m1, name="gamma_law")
    assert renamed.builtin == M1 and renamed.g is m1.g


def test_builtin_m1_keyed_on_callables():
    for sigma in (0.5, 1.0, 2.0):
        assert m1_closure(sigma).builtin == M1
    assert dataclasses.replace(m1_closure(1.0), name="gamma_law").builtin == M1
    assert _user_built(m1_closure(1.0)).builtin is None
    renamed = dataclasses.replace(gamma_law_closure(2.0, 1.0), name="m1")
    assert renamed.builtin != M1
    for closure in (gamma_law_closure(2.0, 1.0), linear_closure(1.0)):
        assert closure.builtin != M1


def test_compiled_m1_evaluators_match_numpy_bitwise():
    """The C m1 flux and speed against the NumPy callables on m1's box.

    The grid adds u = +-0.0 and the smallest subnormals to 700 x 700 points.
    The built-in step's edge momentum flux is the same expression as this
    face flux; the step oracle pins it inside the step.
    """
    m1 = m1_closure(1.0)
    v = np.linspace(0.05, 20.0, 700)
    u = np.r_[np.linspace(-0.99, 0.99, 700), 0.0, -0.0, 5e-324, -5e-324]
    vv, uu = (a.ravel() for a in np.meshgrid(v, u))
    want_flux = _flux(m1, vv, uu)[1]
    flux, speed = _kernel.flux_and_speed(m1, vv, uu)
    assert same_bits(flux, want_flux)
    assert same_bits(speed, reference_wave_speed_bound(m1, vv, uu))


def test_compiled_m1_loses_hyperbolicity_like_numpy():
    """|u| > 2/sqrt(3): the built-in m1 step raises the callables' error."""
    m1 = m1_closure(1.0)
    assert _kernel.flux_and_speed(m1, np.ones(3), np.array([0.0, 1.2, 0.0])) is None
    n = 32
    u = np.r_[np.zeros(12), np.full(8, 1.2), np.zeros(12)]
    state = SimState(-4.0, 4.0, n, np.ones(n), u, 0.0, m1)
    other = dataclasses.replace(state, closure=_user_built(state.closure))
    messages = []
    for s in (state, other):
        with np.errstate(invalid="ignore"), pytest.raises(HyperbolicityError) as err:
            step(s, 0.01)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("hyperbolicity lost at state")


# the largest |u| whose RN(4 - RN(3 RN(u u))) is 4: the AVX-512 evaluator
# takes s = 2 on a vector of such states
U_SMALL = float.fromhex("0x1.279a74590331cp-27")


def _m1_combine_matches_numpy(v, u):
    """The compiled m1 face combine (``dw_flux_and_speed``, on this CPU's
    evaluator) against ``closures.face_combine``: the flag is NumPy's
    all(disc >= 0), and flux and speed have NumPy's bits, lane by lane, also
    where a state is not hyperbolic.  Any NaN matches any NaN: where two
    different NaNs meet, which one a lane keeps is its compiler's choice of
    operand order, and NumPy's own differs between the body and the tail of
    its SIMD loops."""
    v, u = _kernel.as_pair(v, u)
    flux, speed = np.empty_like(v), np.empty_like(v)
    ptr = _kernel._ptr
    ok = _kernel.lib.dw_flux_and_speed(v.size, *M1, ptr(v), ptr(u), ptr(flux), ptr(speed))
    with np.errstate(all="ignore"):
        want_flux, want_speed, disc = face_combine(m1_closure(1.0), v, u)
    return (ok == int(np.all(disc >= 0.0)) and _same_bits_or_nan(flux, want_flux)
            and _same_bits_or_nan(speed, want_speed))


def _around(x):
    return np.r_[np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


def test_m1_combine_matches_numpy_on_directed_lanes():
    """v where a reciprocal's divisor b (3v, v, 3v^2 or v^2) has an all-ones
    significand, is a power of two, or sits at 2^-1000 or 2^1000, which bound
    the FMA reciprocal, or is subnormal, zero, negative, infinite or NaN;
    against u that takes s = 2 (zeros, subnormals, U_SMALL) or not (the next
    double up, 1.2, NaN).  Each u fills whole vectors."""
    all_ones = np.ldexp(np.nextafter(1.0, 0.0), np.arange(-1021, 1025))
    bounds = np.ldexp(1.0, [-1000, 1000])
    v = np.concatenate([
        all_ones, all_ones / 3.0, np.sqrt(all_ones), np.sqrt(all_ones / 3.0),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        *(_around(b) for b in (bounds, bounds / 3.0, np.sqrt(bounds), np.sqrt(bounds / 3.0))),
        [5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0), 0.0, -0.0, -1.0, -all_ones[1000],
         np.inf, -np.inf, np.nan],
    ])
    small = np.nextafter(U_SMALL, np.inf)
    assert 4.0 - 3.0 * (U_SMALL * U_SMALL) == 4.0 != 4.0 - 3.0 * (small * small)
    for u in (0.0, -0.0, 5e-324, -1e-310, U_SMALL, -U_SMALL, small, -small, 0.3, 1.2,
              np.nan):
        assert _m1_combine_matches_numpy(v, np.full(v.size, u)), u


def test_m1_combine_mixes_small_and_general_u_at_every_length():
    """Vectors with both kinds of u lane, and every length 1 .. 17, so that
    each partial vector at the end runs."""
    rng = np.random.default_rng(27)
    for n in range(1, 18):
        for _ in range(40):
            v = rng.uniform(0.05, 20.0, n)
            tiny = rng.choice([0.0, -0.0, 5e-324, U_SMALL, -U_SMALL, 1e-12], n)
            u = np.where(rng.random(n) < 0.5, tiny, rng.uniform(-0.99, 0.99, n))
            assert _m1_combine_matches_numpy(v, u), (v, u)
            assert _m1_combine_matches_numpy(v, tiny), (v, tiny)


def test_m1_combine_matches_numpy_on_random_states():
    """2 x 10^5 states near the presets, whose u runs from 0.99 down past
    U_SMALL as a far field decays, and 10^5 v over all exponents, where every
    reciprocal's last step decides its rounding."""
    rng = np.random.default_rng(11)
    k = 200_000
    v = rng.uniform(0.5, 2.0, k)
    u = rng.choice([-1.0, 1.0], k) * np.where(rng.random(k) < 0.5, rng.uniform(0.0, 0.99, k),
                                              0.05 * np.exp(-rng.uniform(0.0, 100.0, k)))
    assert _m1_combine_matches_numpy(v, u)
    assert _m1_combine_matches_numpy(np.sort(v), u[np.argsort(np.abs(u))])
    wide = rng.uniform(1.0, 2.0, k // 2) * np.exp2(rng.integers(-400, 400, k // 2))
    assert _m1_combine_matches_numpy(wide, u[: k // 2])


def test_m1_step_with_small_and_general_u_matches_numpy():
    """The compiled m1 step, edge flux included, on a wave whose u falls past
    U_SMALL toward both ends: the NumPy formulation's rows, bit for bit."""
    v, u = _wavy(1400)
    x = np.linspace(-1.0, 1.0, 1400)
    for scale in (1.0, 1e-7, 1e-9):
        status, error = _compiled_like_numpy(v, scale * u * np.exp(-40.0 * x * x))
        assert error is None and status[:2] == (0, 1400)


def test_closure_with_rising_pressure_loses_hyperbolicity_like_numpy():
    """p' > 0: the general combine raises the callables' error, with g and f
    the built-in zero and one or rewrapped."""
    rising = dataclasses.replace(
        linear_closure(1.0), p=lambda v: np.asarray(v, dtype=float),
        dp=lambda v: np.ones_like(np.asarray(v, dtype=float)),
    )
    assert rising.builtin is None and rising.g is linear_closure(1.0).g
    n = 32
    for closure in (rising, _user_built(rising)):
        state = SimState(-4.0, 4.0, n, np.ones(n), np.zeros(n), 0.0, closure)
        with pytest.raises(HyperbolicityError) as err:
            step(state, 0.01)
        assert str(err.value) == (
            "hyperbolicity lost at state (v=1, u=0): discriminant -4 is not >= 0"
        )


def _calls_per_round(closure, n_steps=3):
    """The callables each closure round of ``step`` calls, on a bump state.

    Every argument must be one contiguous 1-D float64 array.  Returns, per
    step, the sorted names of the first round (the larger arguments, the
    2 (m + 2) edge values) and of the second (the 2 (m + 1) face states).
    """
    calls = []

    def recorder(name, fn):
        def called(x):
            assert type(x) is np.ndarray and x.dtype == np.float64
            assert x.ndim == 1 and x.flags.c_contiguous
            calls.append((name, x.size))
            return fn(x)
        return called

    names = ("p", "dp", "g", "dg", "f", "df")
    closure = dataclasses.replace(
        closure, **{k: recorder(k, getattr(closure, k)) for k in names}
    )
    n = 128
    x = -8.0 + (np.arange(n) + 0.5) * (16.0 / n)
    bump = PerturbationSpec(amplitude=0.05, center=0.0, width=2.0)(x)
    state = SimState(-8.0, 8.0, n, 1.0 + bump, 0.5 * bump, 0.0, closure)
    rounds = []
    for _ in range(n_steps):
        calls.clear()
        state = step(state, 0.01)
        sizes = sorted({size for _, size in calls}, reverse=True)
        assert len(sizes) == 2 and sizes[0] == sizes[1] + 2
        rounds.append([sorted(k for k, size in calls if size == s) for s in sizes])
    return rounds


def test_each_round_calls_each_callable_once_on_one_array():
    """Every closure off the built-in step, g = 0 and f = 1 included, has its
    p, g and f called on the edge values and all six on the face states."""
    first, second = ["f", "g", "p"], ["df", "dg", "dp", "f", "g", "p"]
    for closure in (gamma_law_closure(2.0, 1.0), linear_closure(1.0),
                    _user_built(gamma_law_closure(2.0, 1.0)), _user_built(m1_closure(1.0))):
        assert _calls_per_round(closure) == [[first, second]] * 3


def test_builtin_m1_step_calls_no_callable(monkeypatch):
    from diffwave import closures

    calls = []
    for name in ("p", "dp", "d2p", "d3p", "d4p", "g", "dg", "f", "df"):
        fn = getattr(closures, f"_m1_{name}")
        monkeypatch.setattr(closures, f"_m1_{name}",
                            lambda x, fn=fn, name=name: calls.append(name) or fn(x))
    closure = closures.m1_closure(1.0)
    assert closure.builtin == M1
    n = 64
    u = 0.05 * np.sin(np.linspace(0.0, 3.0, n))
    state = SimState(-4.0, 4.0, n, np.ones(n), u, 0.0, closure)
    for _ in range(3):
        state = step(state, 0.01)
    assert calls == []


@pytest.mark.parametrize(
    "closure",
    [gamma_law_closure(2.0, 1.0), gamma_law_closure(1.4, 0.5), linear_closure(1.0),
     _user_built(m1_closure(1.0))],
    ids=["gamma2", "gamma1.4", "linear", "m1-rewrapped"],
)
def test_face_combine_matches_flux_and_speed_bitwise(closure):
    """The NumPy formulation's face combine on the callables, and a built-in
    closure's C evaluators, against the NumPy flux and the larger of the two
    eigen-solves' speed magnitudes."""
    v = np.linspace(0.05, 20.0, 601)
    u = np.r_[np.linspace(-0.99, 0.99, 397), 0.0, -0.0, 5e-324, -5e-324]
    vv, uu = (a.ravel() for a in np.meshgrid(v, u))
    flux, speed, _ = face_combine(closure, vv, uu)
    assert same_bits(flux, _flux(closure, vv, uu)[1])
    assert same_bits(speed, reference_wave_speed_bound(closure, vv, uu))
    if closure.builtin:
        assert all(map(same_bits, _kernel.flux_and_speed(closure, vv, uu), (flux, speed)))


def test_rewrapped_closure_steps_like_builtin():
    """The built-in steps (the gamma law and m1 in C) and the callables agree.

    m1-default has the far-field velocity jump u_plus = 0.05.
    """
    for preset in ("gamma-default", "m1-default"):
        spec, state = _preset_state(preset, 256)
        other = dataclasses.replace(state, closure=_user_built(state.closure))
        assert other.closure.builtin is None
        assert state.closure.builtin == (M1 if preset == "m1-default" else GAMMA2)
        for _ in range(5):
            dt = cfl_dt(state, spec.cfl)
            assert cfl_dt(other, spec.cfl) == dt
            state = step(state, dt)
            other = step(other, dt)
            assert same_bits(state.v, other.v) and same_bits(state.u, other.u)


def test_successor_state_keeps_grid_and_closure():
    spec, state = _preset_state("m1-default", 256)
    nxt = step(state, cfl_dt(state, spec.cfl))
    assert type(nxt) is SimState and nxt is not state
    assert (nxt.x_left, nxt.x_right, nxt.n_cells) == (
        state.x_left, state.x_right, state.n_cells
    )
    assert nxt.closure is state.closure


# The compiled step computes only a window of cells and fills each far
# field from the window's end cell; these cases pin the window's edges, read
# from the step's status, against the full-width reference.


def _window(state, dt):
    """The window (lo, hi) of the compiled step of dt from state."""
    st = _kernel.step(state.closure, state.v, state.u, dt, state.dx)[1]
    return st.lo, st.hi


def _match_reference(state, n_steps):
    ref = state
    for _ in range(n_steps):
        dt = cfl_dt(state, 0.45)
        state = step(state, dt)
        ref = reference_step(ref, dt)
        assert state.t == ref.t and state.speed_bound == ref.speed_bound
        assert same_bits(state.v, ref.v) and same_bits(state.u, ref.u)
    return state


@pytest.mark.parametrize(
    "closure", [gamma_law_closure(2.0, 1.0), m1_closure(1.0)], ids=["gamma2", "m1"]
)
def test_constant_state_takes_a_one_cell_window(closure):
    n = 256
    state = SimState(-10.0, 10.0, n, np.full(n, 1.1), np.zeros(n), 0.0, closure)
    ref = state
    for _ in range(5):
        assert _window(state, 0.01) == (0, 1)
        state = step(state, 0.01)
        ref = reference_step(ref, 0.01)
        assert same_bits(state.v, ref.v) and same_bits(state.u, ref.u)
        assert state.speed_bound == ref.speed_bound


@pytest.mark.parametrize("edges", [(True, False), (False, True), (True, True)],
                         ids=["left", "right", "both"])
def test_window_touching_the_domain_edges(edges):
    n = 128
    x = -8.0 + (np.arange(n) + 0.5) * (16.0 / n)
    bump = sum(PerturbationSpec(amplitude=0.05, center=centre, width=2.0)(x)
               for centre, at_edge in zip((-8.0, 8.0), edges) if at_edge)
    state = SimState(-8.0, 8.0, n, 1.0 + bump, 0.5 * bump, 0.0, gamma_law_closure(2.0, 1.0))
    # one edge's bump leaves the far side uniform: the window stops short
    lo, hi = _window(state, cfl_dt(state, 0.45))
    assert (lo == 0, hi == n) == edges
    _match_reference(state, 40)


def test_m1_far_field_jump():
    """u_plus = 0.05: the damped far field keeps its bits, so the window stops short of it.

    The ghost cells copy the edge cells, so only the jump can change the far
    field's bits, and in these 300 steps it does not reach the right edge.
    The ramp's foot reaches the left edge, so every window starts at cell 0.
    """
    n = 256
    x = -40.0 + (np.arange(n) + 0.5) * (80.0 / n)
    ramp = 0.5 * (1.0 + np.tanh(x + 25.0))
    state = SimState(-40.0, 40.0, n, 1.0 + 0.1 * ramp, 0.05 * ramp, 0.0, m1_closure(1.0))
    assert state.u[0] != state.u[1] and state.u[-1] == state.u[-2] == 0.05
    ref = state
    for _ in range(300):
        dt = cfl_dt(state, 0.45)
        lo, hi = _window(state, dt)
        assert lo == 0 and hi < n  # the window ends short of the right edge
        state = step(state, dt)
        ref = reference_step(ref, dt)
        assert state.t == ref.t and state.speed_bound == ref.speed_bound
        assert same_bits(state.v, ref.v) and same_bits(state.u, ref.u)
    assert np.all(state.u[-64:] == state.u[-1])
    assert state.u[-1] == pytest.approx(0.05 * np.exp(-state.t), rel=1e-12)


@pytest.mark.parametrize("anchor", [2, 196], ids=["left-anchor", "right-anchor"])
@pytest.mark.parametrize("row", ["v", "u"])
def test_differing_pair_anywhere_sets_the_window(row, anchor):
    """Jumps between cells k and k + 1, for every k, and at a fixed pair near
    one end: the window search, which skips uniform pairs in blocks from both
    ends, finds the far jump wherever it falls relative to the block edges."""
    n = 200
    closure = gamma_law_closure(2.0, 1.0)
    for k in range(n - 1):
        v, u = np.ones(n), np.zeros(n)
        for pair in (anchor, k):
            (v if row == "v" else u)[pair + 1:] += 0.01
        state = SimState(-4.0, 4.0, n, v, u, 0.0, closure)
        got, want = step(state, 0.01), reference_step(state, 0.01)
        assert same_bits(got.v, want.v) and same_bits(got.u, want.u), k


# the neighbour pairs the window search skips at a time from each end
# (BLOCK in _step.c)
BLOCK = 64


def _pair_window(closure, v, u, dt):
    """The window of a step of dt by its definition: from the first to the
    last neighbour pair whose 64-bit patterns differ in v or in u e^-h (the
    first damping half-step), two cells more on the left and three on the
    right, clipped to the domain; (0, 1) when no pair differs."""
    w = u * _kernel.damping(0.5 * closure.alpha * dt)[0]
    v_bits, w_bits = v.view(np.uint64), w.view(np.uint64)
    pairs = np.flatnonzero((v_bits[:-1] != v_bits[1:]) | (w_bits[:-1] != w_bits[1:]))
    if pairs.size == 0:
        return 0, 1
    return max(int(pairs[0]) - 2, 0), min(int(pairs[-1]) + 4, v.size)


def _near_block_edges(n):
    """Every pair within BLOCK of the first two block edges from each end."""
    last = n - 2  # the last pair
    return [*range(0, 3 * BLOCK + 1), *range(last - 3 * BLOCK, last + 1)]


@pytest.mark.parametrize("n", [1000, 4096])
def test_window_is_the_span_of_differing_pairs(n):
    """The window search skips uniform blocks from both ends, tests the
    pairs left over at once only when the blocks run out, and then goes
    pair by pair; its window is the span of the differing pairs wherever
    they fall relative to the block edges: one pair, two pairs mirrored
    about the middle, and an interior that differs over many blocks."""
    rng = np.random.default_rng(26)
    dt = 0.01
    noise = 1.0 + 0.01 * rng.random(n)
    for closure in (gamma_law_closure(2.0, 1.0), m1_closure(1.0)):
        states = []
        for k in _near_block_edges(n):
            mirror = n - 2 - k
            for row in (0, 1):
                cells = np.ones(n), np.zeros(n)
                cells[row][k + 1:] += 0.01
                states.append(cells)
            v, u = np.ones(n), np.zeros(n)
            v[k + 1:] += 0.01
            u[mirror + 1:] = -0.0  # signed zeros differ in bits
            states.append((v, u))
            lo, hi = sorted((k, mirror))
            v = np.ones(n)
            v[lo + 1:hi + 1] = noise[lo + 1:hi + 1]
            states.append((v, np.zeros(n)))
        states.append((np.ones(n), np.zeros(n)))
        for v, u in states:
            st = _kernel.step(closure, v, u, dt, 16.0 / n)[1]
            assert (st.lo, st.hi) == _pair_window(closure, v, u, dt)


def test_signed_zeros_bound_the_window():
    """-0.0 cells next to +0.0 cells differ in bits although they compare equal."""
    n = 64
    u = np.r_[np.full(n // 2, -0.0), np.zeros(n // 2)]
    state = SimState(-4.0, 4.0, n, np.ones(n), u, 0.0, gamma_law_closure(2.0, 1.0))
    state = _match_reference(state, 5)
    assert np.signbit(state.u[: n // 2]).all() and not np.signbit(state.u[n // 2:]).any()


def test_constant_state_still_runs_the_flux():
    """A flux that depends on the face index moves every cell of a constant state.

    The far field takes a value the step computed, not a closed form, so a
    constant state still tests the flux.
    """
    gas = gamma_law_closure(2.0, 1.0)
    closure = dataclasses.replace(gas, p=lambda v: gas.p(v) + 1e-3 * np.arange(np.size(v)))
    n = 64
    state = SimState(-4.0, 4.0, n, np.ones(n), np.zeros(n), 0.0, closure)
    for stepper in (step, reference_step):
        assert np.all(stepper(state, 0.01).u != 0.0)


# The built-in m1 and gamma steps run their window in chunks of 256 cells,
# each on its own scratch, and fold what each chunk finds into one flag and
# status (``_step.c``).  When the flag is clear, the NumPy formulation on the
# same cells raises the error.  These cases put each finding next to a chunk
# edge and compare the compiled step with the formulation.

M1 = (_kernel.lib.DW_M1, 0.0)
GAMMA2 = (_kernel.lib.DW_GAMMA, 2.0)
CLOSURES = {M1: m1_closure(1.0), GAMMA2: gamma_law_closure(2.0, 1.0)}


# the step's (alpha, dt, dx) in the raw calls: e^-h = 0.995012..., dt/dx = 0.04
RAW_STEP = (1.0, 0.01, 0.25)


def _step_raw(v, u, builtin=M1, module=_kernel._module):
    """The module's dw_step on (v, u) with a built-in closure: the status
    (the window, the bits of the speed bound and of the largest |u|) and the
    flag, and the successor rows."""
    v, u = _kernel.as_pair(v, u)
    n = v.size
    rows = np.full((2, n), -7.0)  # shows a cell the step does not write
    st = module.ffi.new("dw_status *")  # a struct's type belongs to its module's ffi
    ptr = _kernel._ptr
    ok = module.lib.dw_step(n, ptr(v), ptr(u), *builtin, *RAW_STEP, ptr(rows), st)
    bits = [np.float64(x).view(np.uint64) for x in (st.speed_bound, st.u_max)]
    return (st.lo, st.hi, *bits, ok), rows


def _raw_state(v, u, builtin=M1):
    """A state of the cells (v, u) that steps as the raw calls do (the
    closure's alpha is 1 and dx 0.25); a v <= 0 goes in past the
    constructor's check."""
    n = len(v)
    state = SimState(-0.125 * n, 0.125 * n, n, np.ones(n), np.zeros(n), 0.0, CLOSURES[builtin])
    state.v[:], state.u[:] = v, u
    return state


def _compiled_like_numpy(v, u, builtin=M1):
    """The raw step's status and flag on (v, u), checked against the NumPy
    formulation on the same cells, and ``step``'s error or None.

    Where every check passes, the rows, the speed bound and the largest |u|
    are the formulation's bit for bit; else the flag is clear and ``step``
    raises the formulation's error.
    """
    status, rows = _step_raw(v, u, builtin)
    state, dt = _raw_state(v, u, builtin), RAW_STEP[1]
    with np.errstate(all="ignore"):
        try:
            step(state, dt)
        except (BlowUpError, HyperbolicityError) as err:
            assert status[-1] == 0
            return status, err
        v_new, u_new, speed_bound, u_max = _numpy_step(state, dt)
    assert status[-1] == 1 and same_bits(rows, [v_new, u_new])
    assert status[2:4] == tuple(np.float64(x).view(np.uint64) for x in (speed_bound, u_max))
    return status, None


def _same_bits_or_nan(a, b):
    """same_bits, except that any NaN matches any NaN: C and NumPy need not
    carry the same NaN payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


# u rows of 16 cells whose ends differ, so the window is the whole domain;
# with v = 1 the predictor leaves the u edge values as the slope made them
SLOPE_ROWS = {
    # differences that are signed zeros or subnormal, which the quarter of
    # the central difference rounds
    "signed-zeros": np.array([0.0, -0.0, -0.0, 0.0, 5e-324, 1e-323, -0.0, 3e-323,
                              0.0, -5e-324, -0.0, 0.0, 7e-323, -2e-323, 0.0, -0.0]),
    # neighbour differences of about 1e308 each, whose sum passes DBL_MAX:
    # the slope of cell 8 is inf
    "overflow": np.r_[-0.0, np.zeros(6), -1e308, 0.0, 1e308, np.zeros(5), -0.0],
}


@pytest.mark.parametrize("row", SLOPE_ROWS, ids=list(SLOPE_ROWS))
@pytest.mark.parametrize(
    "builtin, closure", [(M1, m1_closure(1.0)), (GAMMA2, gamma_law_closure(2.0, 1.0))],
    ids=["m1", "gamma2"],
)
def test_slope_matches_reference_on_signed_zeros_and_overflow(builtin, closure, row):
    """Fromm's slope, (w[k+1] - w[k-1]) / 2: the NumPy formulation's face
    states against reference_faces', and the compiled step's successor rows
    against reference_step's."""
    alpha, dt, dx = RAW_STEP
    assert closure.alpha == alpha
    u = SLOPE_ROWS[row]
    n = u.size
    v = np.ones(n)
    u_damped = u * damping(0.5 * alpha * dt)[0]
    with np.errstate(all="ignore"):
        face_v, face_u = _faces(closure, v, u_damped, 0.5 * dt / dx)
        want = reference_faces(closure, v, u_damped, 0.5 * dt / dx)
        got = ((face_v[n + 1:], face_u[n + 1:]), (face_v[:n + 1], face_u[:n + 1]))
        for got_face, want_face in zip(got, want):
            assert all(map(_same_bits_or_nan, got_face, want_face))
        assert np.isfinite(want[0][1]).all() == (row != "overflow")
        status, rows = _step_raw(v, u, builtin)
        assert status[:2] == (0, n)
        # reference_step builds its successor through dataclasses.replace, and
        # so through SimState's check, which the overflow row's non-finite
        # cells fail; its rows are what this compares
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_require_finite", lambda v, u: None)
            ref = reference_step(_raw_state(v, u, builtin), dt)
        assert _same_bits_or_nan(rows, [ref.v, ref.u])


@pytest.mark.parametrize(
    "closure", [m1_closure(1.0), gamma_law_closure(2.0, 1.0),
                _user_built(gamma_law_closure(2.0, 1.0))],
    ids=["m1", "gamma2", "gamma2-rewrapped"],
)
def test_step_flag_is_set_only_when_every_check_passes(closure):
    """The flag ``_kernel.step`` returns for a built-in closure: 1 on a clean
    step, 0 on a Courant number above 1 that every other check passes, and
    0 on each failing cell check.  ``step`` then raises the NumPy
    formulation's error, which a closure off the built-in step raises alone."""
    n = 300
    v, u = _wavy(n)
    dx = 8.0 / n
    courant_one = dx / float(np.max(wave_speed_bound(closure, v, u)))
    flag = {True: 1, False: 0} if closure.builtin else {True: None, False: None}

    def run(v, u, dt):
        """(the compiled flag or None, the start of step's error or None)"""
        ok = _kernel.step(closure, v, u, dt, dx)[0] if closure.builtin else None
        state = SimState(-4.0, 4.0, n, np.ones(n), np.zeros(n), 0.0, closure)
        state.v[:], state.u[:] = v, u  # a NaN cell goes in past the constructor's check
        with np.errstate(all="ignore"):
            try:
                step(state, dt)
            except (BlowUpError, HyperbolicityError) as err:
                return ok, str(err)[:15]
        return ok, None

    assert run(v, u, 0.5 * courant_one) == (flag[True], None)
    # the face speeds grow by less than 20 %
    assert run(v, u, 1.2 * courant_one) == (flag[False], "Courant number ")
    for value in (np.nan, 1e-3):  # a non-finite cell, a vacuum
        bad_v = v.copy()
        bad_v[150] = value
        ok, error = run(bad_v, u, 0.1 * courant_one)
        assert ok == flag[False] and error is not None


def _wavy(n):
    x = np.linspace(-1.0, 1.0, n)
    return 1.0 + 0.05 * np.cos(3.0 * x), 0.05 * np.sin(5.0 * x)


def _found_at(check, cell):
    """The error a bad value in cell raises, by the check it fails first:
    (type, the start of the message).

    A v <= 0 thins the cell's left face.  An infinite v enters the slope
    (w[k+1] - w[k-1]) / 2 of its left neighbour, whose left edge value is
    then -inf, so the neighbour's left face is thin (face 0 at the domain's
    left end).  A NaN, an infinite u, or an m1 |u| > 2/sqrt(3) gives a face
    state a NaN discriminant.  A low v speeds its faces past the Courant
    number 1 at the raw calls' dt, before its cell empties.  A gamma-law u
    that rises to 1e308 in the cell gives the faces right of it
    u_L + u_R = inf, and the cell a non-finite v; a gamma-law u that falls
    by 100 over the cell's right face drains the cell to a vacuum.
    """
    return {
        "thin": (BlowUpError, f"negative specific volume in reconstruction near cell {cell} "),
        "v-inf": (BlowUpError,
                  f"negative specific volume in reconstruction near cell {max(cell - 1, 0)} "),
        "hyperbolic": (HyperbolicityError, "hyperbolicity lost at state ("),
        "courant": (BlowUpError, "Courant number "),
        "nonfinite": (BlowUpError, f"non-finite state in cell {cell} "),
        "vacuum": (BlowUpError, f"vacuum reached in cell {cell} "),
    }[check]


def _raises_at(err, check, cell):
    kind, start = _found_at(check, cell)
    return type(err) is kind and str(err).startswith(start)


@pytest.mark.parametrize("cell", [1, 255, 256, 257, 511, 1100, 1398])
@pytest.mark.parametrize(
    "row, value, check",
    [("v", -0.5, "thin"), ("u", 1.2, "hyperbolic"), ("v", np.nan, "hyperbolic"),
     ("u", np.inf, "hyperbolic"), ("v", np.inf, "v-inf"), ("v", 2e-3, "courant")],
    ids=["thin", "hyperbolic", "nan", "u-inf", "v-inf", "vacuum"],
)
def test_chunked_m1_step_folds_like_one_chunk(cell, row, value, check):
    """A bad value in any chunk of a 1400-cell window clears the compiled
    flag, and ``step`` raises the error of the check it fails first."""
    v, u = _wavy(1400)
    (v if row == "v" else u)[cell] = value
    status, err = _compiled_like_numpy(v, u)
    assert status[:2] == (0, 1400) and status[-1] == 0  # the flag
    assert _raises_at(err, check, cell)


@pytest.mark.parametrize("nan_cell", [100, 700, 1300])
def test_chunked_m1_step_keeps_the_row_wide_nan_guard(nan_cell):
    """A NaN anywhere in the window hides a v <= 0 in any other chunk from
    the reconstruction check: the NaN's face state fails hyperbolicity."""
    v, u = _wavy(1400)
    v[600] = -0.5
    assert _raises_at(_compiled_like_numpy(v, u)[1], "thin", 600)
    v[nan_cell] = np.nan
    status, err = _compiled_like_numpy(v, u)
    assert status[-1] == 0 and type(err) is HyperbolicityError
    assert str(err).startswith("hyperbolicity lost at state (v=nan, ")


def test_chunked_m1_step_all_zero_speeds():
    """v near 1e300 and u = 0: every face speed is +0, and so is the bound."""
    v = 1e300 * (1.0 + 0.01 * (np.arange(1000) % 2))
    status, err = _compiled_like_numpy(v, np.zeros(1000))
    assert err is None and status[2] == 0 and status[:2] == (0, 1000)


@pytest.mark.parametrize("width", [*range(250, 262), *range(506, 518), 1019, 1020, 1021])
def test_chunked_m1_step_on_windows_about_chunk_edges(width):
    """Windows of 253 to 1025 cells in a 1200-cell domain, both far fields kept."""
    n = 1200
    v, u = np.ones(n), np.full(n, 0.02)
    x = np.linspace(0.0, np.pi, width)
    v[100:100 + width] += 0.05 * np.sin(x) ** 2
    u[100:100 + width] += 0.03 * np.sin(2.0 * x)
    status, err = _compiled_like_numpy(v, u)
    assert status[1] - status[0] >= width and status[0] > 0 and status[1] < n
    assert status[-1] == 1 and err is None  # every check passed


@pytest.mark.parametrize("row, value", [("u", 1.2), ("v", np.nan), ("v", 1e-3)],
                         ids=["hyperbolic", "nonfinite", "vacuum"])
def test_chunked_m1_step_raises_the_callables_error(row, value):
    """A failure in a late chunk of the built-in step gives the callable path's message."""
    n = 1400
    state = SimState(-4.0, 4.0, n, *_wavy(n), 0.0, m1_closure(1.0))
    other = dataclasses.replace(state, closure=_user_built(state.closure))
    messages = []
    for s in (state, other):
        getattr(s, row)[1100] = value  # a NaN goes in past the constructor's check
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(
            (HyperbolicityError, BlowUpError)
        ) as err:
            step(s, 0.002)
        messages.append((type(err.value), str(err.value)))
    assert messages[0] == messages[1]


# The built-in gamma law runs through the same chunk pipeline; only each
# chunk's closure evaluators differ.  The same findings, and the callables'
# errors, with the gamma chunks.


@pytest.mark.parametrize("cell", [1, 255, 256, 257, 511, 1100, 1398])
@pytest.mark.parametrize(
    "row, value, check",
    [("v", -0.5, "thin"), ("v", np.nan, "hyperbolic"), ("u", np.inf, "hyperbolic"),
     ("v", np.inf, "v-inf"), ("v", 1e-3, "courant")],
    ids=["thin", "nan", "u-inf", "v-inf", "vacuum"],
)
def test_chunked_gamma_step_folds_like_one_chunk(cell, row, value, check):
    v, u = _wavy(1400)
    (v if row == "v" else u)[cell] = value
    status, err = _compiled_like_numpy(v, u, GAMMA2)
    assert status[:2] == (0, 1400) and status[-1] == 0
    assert _raises_at(err, check, cell)


# the fall at the last cell's right face would meet the ghost cell
@pytest.mark.parametrize("cell", [1, 255, 256, 257, 511, 1100, 1397])
@pytest.mark.parametrize("check", ["nonfinite", "vacuum"])
def test_chunked_gamma_step_names_the_failing_new_cell(cell, check):
    """A new cell that is not finite, or has v <= 0, in any chunk of a
    1400-cell window: the flag is clear and the error names the cell."""
    v, u = _wavy(1400)
    if check == "nonfinite":
        u[cell:] = 1e308
    else:
        u[cell] += 50.0
        u[cell + 1] -= 50.0
    status, err = _compiled_like_numpy(v, u, GAMMA2)
    assert status[:2] == (0, 1400) and status[-1] == 0
    assert _raises_at(err, check, cell)


def test_chunked_gamma_step_on_windows_about_chunk_edges():
    n = 1200
    for width in (250, 255, 256, 257, 511, 512, 513, 1021):
        v, u = np.ones(n), np.full(n, 0.02)
        x = np.linspace(0.0, np.pi, width)
        v[100:100 + width] += 0.05 * np.sin(x) ** 2
        u[100:100 + width] += 0.03 * np.sin(2.0 * x)
        status, err = _compiled_like_numpy(v, u, GAMMA2)
        assert status[1] - status[0] >= width and status[0] > 0 and status[1] < n
        assert status[-1] == 1 and err is None


@pytest.mark.parametrize("value", [-0.5, np.nan, 1e-3], ids=["thin", "nonfinite", "vacuum"])
def test_chunked_gamma_step_raises_the_callables_error(value):
    n = 1400
    v, u = _wavy(n)
    messages = []
    for closure in (gamma_law_closure(2.0, 1.0), _user_built(gamma_law_closure(2.0, 1.0))):
        state = SimState(-4.0, 4.0, n, v.copy(), u, 0.0, closure)
        state.v[1100] = value  # past the constructor's positivity check
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(
            (HyperbolicityError, BlowUpError)
        ) as err:
            step(state, 0.002)
        messages.append((type(err.value), str(err.value)))
    assert messages[0] == messages[1]


def test_builtin_gamma_keyed_on_callables():
    for gamma in (1.0, 1.4, 2.0, 3.0):
        closure = gamma_law_closure(gamma, 1.0)
        assert closure.builtin == (_kernel.lib.DW_GAMMA, gamma)
        assert closure.p.gamma == gamma
    gas = gamma_law_closure(2.0, 1.0)
    assert dataclasses.replace(gas, name="m1").builtin == GAMMA2
    assert _user_built(gas).builtin is None
    assert dataclasses.replace(gas, dp=gamma_law_closure(3.0, 1.0).dp).builtin is None
    assert dataclasses.replace(gas, p=gas.d2p).builtin is None
    assert dataclasses.replace(gas, g=lambda u: 0.0 * u).builtin is None
    assert dataclasses.replace(gas, f=lambda v: 0.0 * v + 1.0).builtin is None
    assert linear_closure(1.0).builtin is None
    assert m1_closure(1.0).builtin == M1


def test_builtin_gamma_step_calls_no_callable(monkeypatch):
    calls = []
    power = _kernel.power
    monkeypatch.setattr(_kernel, "power", lambda *a: calls.append(a) or power(*a))
    n = 600
    v, u = _wavy(n)
    state = SimState(-4.0, 4.0, n, v, u, 0.0, gamma_law_closure(2.0, 1.0))
    for _ in range(3):
        state = step(state, 0.002)
    assert calls == []
    gamma_law_closure(2.0, 1.0).p(v)  # the callables do go through it
    assert len(calls) == 1


def test_builtin_gamma_wave_speed_bound_calls_no_callable(monkeypatch):
    """The gamma law's wave_speed_bound runs the built-in step's own C
    evaluator, to the bits of the callables' general combine."""
    v = np.linspace(0.05, 20.0, 601)
    u = np.linspace(-0.99, 0.99, 397)
    vv, uu = np.meshgrid(v, u)
    for gamma, alpha in ((2.0, 1.0), (1.4, 0.5), (3.0, 2.0)):
        gas = gamma_law_closure(gamma, alpha)
        want = wave_speed_bound(_user_built(gas), vv, uu)
        calls = []
        power = _kernel.power
        monkeypatch.setattr(_kernel, "power", lambda *a: calls.append(a) or power(*a))
        got = wave_speed_bound(gas, vv, uu)
        monkeypatch.undo()
        assert calls == []
        assert same_bits(got, want)


@pytest.mark.parametrize("gamma, alpha", [(1.4, 0.5), (3.0, 2.0)])
def test_builtin_gamma_step_reads_the_exponent(gamma, alpha):
    """A non-integer and a larger exponent against the oracle on the callables."""
    n = 700
    v, u = _wavy(n)
    state = SimState(-4.0, 4.0, n, v, u, 0.0, gamma_law_closure(gamma, alpha))
    assert _match_reference(state, 30).t > 0.0


def test_builtin_gamma_face_values_are_the_callables_bits():
    """The built-in gamma step's p and sqrt(-p') (``dw_flux_and_speed``,
    each chunk's evaluator of its face states) against the closure's
    callables, on the NumPy formulation's face states across the closure's
    v range."""
    gas = gamma_law_closure(2.0, 1.0)
    n = 1500
    x = np.linspace(-1.0, 1.0, n)
    v, u = 0.06 * 300.0 ** (0.5 + 0.5 * np.sin(7.0 * x)), 0.3 * np.cos(5.0 * x)
    alpha, dt, dx = RAW_STEP
    face_v, face_u = _faces(gas, v, u * damping(0.5 * alpha * dt)[0], 0.5 * dt / dx)
    right_v = face_v[:n + 1]
    assert 0.0 < right_v.min() < 0.1 and right_v.max() > 10.0
    flux, speed = _kernel.flux_and_speed(gas, face_v, face_u)
    assert same_bits(flux, gas.p(face_v)) and same_bits(speed, np.sqrt(-gas.dp(face_v)))


def test_a_clear_flag_the_formulation_contradicts_is_a_runtime_error(monkeypatch):
    """A compiled step whose flag is clear on a step the NumPy formulation
    passes raises RuntimeError, not a state."""
    n = 64
    state = SimState(-4.0, 4.0, n, *_wavy(n), 0.0, m1_closure(1.0))
    compiled = _kernel.step
    monkeypatch.setattr(_kernel, "step", lambda *args: (0, *compiled(*args)[1:]))
    with pytest.raises(RuntimeError, match="NumPy formulation passes$"):
        step(state, 0.01)
