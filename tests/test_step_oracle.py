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

from diffwave import _kernel, config
from diffwave.closures import (
    HyperbolicityError,
    gamma_law_closure,
    linear_closure,
    m1_closure,
    wave_speed_bound,
)
from diffwave.solver import (
    BlowUpError,
    PerturbationSpec,
    SimState,
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
    cfg = config.parse_config(
        f"[scenario]\npreset = {preset}\n[grid]\nn_cells = {n_cells}\n"
    )
    spec, profile = config.build_scenario(cfg)
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
    """The same closure with every callable rewrapped: not correction-free."""
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
    gas = gamma_law_closure(2.0, 1.0)
    assert gas.correction_free and linear_closure(1.0).correction_free
    assert not m1_closure(1.0).correction_free
    assert not _user_built(gas).correction_free
    assert dataclasses.replace(gas, name="m1").correction_free
    renamed = dataclasses.replace(m1_closure(1.0), name="gamma_law")
    assert not renamed.correction_free


def test_builtin_m1_keyed_on_callables():
    for sigma in (0.5, 1.0, 2.0):
        assert m1_closure(sigma).builtin_m1
    assert dataclasses.replace(m1_closure(1.0), name="gamma_law").builtin_m1
    assert not _user_built(m1_closure(1.0)).builtin_m1
    renamed = dataclasses.replace(gamma_law_closure(2.0, 1.0), name="m1")
    assert not renamed.builtin_m1
    for closure in (gamma_law_closure(2.0, 1.0), linear_closure(1.0)):
        assert not closure.builtin_m1


def test_compiled_m1_evaluators_match_numpy_bitwise():
    """The C m1 flux and speed against the NumPy callables on m1's box.

    The grid adds u = +-0.0 and the smallest subnormals to 700 x 700 points.
    """
    m1 = m1_closure(1.0)
    v = np.linspace(0.05, 20.0, 700)
    u = np.r_[np.linspace(-0.99, 0.99, 700), 0.0, -0.0, 5e-324, -5e-324]
    vv, uu = (a.ravel() for a in np.meshgrid(v, u))
    want_flux = _flux(m1, vv, uu)[1]
    assert same_bits(_kernel.m1_momentum_flux(vv, uu), want_flux)
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


def test_closure_with_rising_pressure_loses_hyperbolicity_like_numpy():
    """p' > 0: the correction-free and the general combine raise the callables' error."""
    rising = dataclasses.replace(
        linear_closure(1.0), p=lambda v: np.asarray(v, dtype=float),
        dp=lambda v: np.ones_like(np.asarray(v, dtype=float)),
    )
    assert rising.correction_free and not _user_built(rising).correction_free
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

    names = ("p", "dp") if closure.correction_free else ("p", "dp", "g", "dg", "f", "df")
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
    for closure, first, second in (
        (gamma_law_closure(2.0, 1.0), ["p"], ["dp", "p"]),
        (_user_built(gamma_law_closure(2.0, 1.0)), ["f", "g", "p"],
         ["df", "dg", "dp", "f", "g", "p"]),
        (_user_built(m1_closure(1.0)), ["f", "g", "p"], ["df", "dg", "dp", "f", "g", "p"]),
    ):
        assert _calls_per_round(closure) == [[first, second]] * 3


def test_builtin_m1_step_calls_no_callable(monkeypatch):
    from diffwave import closures

    calls = []
    for name in ("p", "dp", "d2p", "d3p", "d4p", "g", "dg", "f", "df"):
        fn = getattr(closures, f"_m1_{name}")
        monkeypatch.setattr(closures, f"_m1_{name}",
                            lambda x, fn=fn, name=name: calls.append(name) or fn(x))
    closure = closures.m1_closure(1.0)
    assert closure.builtin_m1
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
    """The step's second closure round and C face combine against the NumPy
    flux and the larger of the two eigen-solves' speed magnitudes."""
    v = np.linspace(0.05, 20.0, 601)
    u = np.r_[np.linspace(-0.99, 0.99, 397), 0.0, -0.0, 5e-324, -5e-324]
    vv, uu = (a.ravel() for a in np.meshgrid(v, u))
    flux, speed = _kernel.flux_and_speed(closure, vv, uu)
    assert same_bits(flux, _flux(closure, vv, uu)[1])
    assert same_bits(speed, reference_wave_speed_bound(closure, vv, uu))


def test_rewrapped_closure_steps_like_builtin():
    """The built-in callables' shortcuts (g = 0 in NumPy, m1 in C) and the callables agree.

    m1-default has the far-field velocity jump u_plus = 0.05.
    """
    for preset in ("gamma-default", "m1-default"):
        spec, state = _preset_state(preset, 256)
        other = dataclasses.replace(state, closure=_user_built(state.closure))
        assert not other.closure.correction_free and not other.closure.builtin_m1
        assert state.closure.builtin_m1 == (preset == "m1-default")
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


# The step computes only a window of cells and fills each far field from
# the window's end cell; these cases pin the window's edges against the
# full-width reference.


def _recording(closure, sizes):
    """The closure with ``p`` appending the size of each argument to ``sizes``.

    Each closure round calls ``p`` once on both rows back to back, so the
    largest argument of a step is 2 (m + 2), the edge values of a window of
    m cells.
    """

    def p(v, fn=closure.p):
        sizes.append(np.size(v))
        return fn(v)

    return dataclasses.replace(closure, p=p)


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
    n, sizes = 256, []
    state = SimState(-10.0, 10.0, n, np.full(n, 1.1), np.zeros(n), 0.0,
                     _recording(closure, sizes))
    ref = state
    for _ in range(5):
        sizes.clear()
        state = step(state, 0.01)
        assert max(sizes) == 2 * 3  # the predictor's edge values of one cell
        ref = reference_step(ref, 0.01)
        assert same_bits(state.v, ref.v) and same_bits(state.u, ref.u)
        assert state.speed_bound == ref.speed_bound


@pytest.mark.parametrize("edges", [(True, False), (False, True), (True, True)],
                         ids=["left", "right", "both"])
def test_window_touching_the_domain_edges(edges):
    n, sizes = 128, []
    x = -8.0 + (np.arange(n) + 0.5) * (16.0 / n)
    bump = sum(PerturbationSpec(amplitude=0.05, center=centre, width=2.0)(x)
               for centre, at_edge in zip((-8.0, 8.0), edges) if at_edge)
    state = SimState(-8.0, 8.0, n, 1.0 + bump, 0.5 * bump, 0.0,
                     _recording(gamma_law_closure(2.0, 1.0), sizes))
    step(state, cfl_dt(state, 0.45))
    # one edge's bump leaves the far side uniform: the window stops short
    assert (max(sizes) < 2 * (n + 2)) == (edges != (True, True))
    _match_reference(state, 40)


def test_m1_far_field_jump():
    """u_plus = 0.05: the damped far field keeps its bits, so the window stops short of it.

    The ghost cells copy the edge cells, so only the jump can change the far
    field's bits, and in these 300 steps it does not reach the right edge.
    The ramp's foot reaches the left edge, so every window starts at cell 0
    and its size tells where it ends.
    """
    n, sizes = 256, []
    x = -40.0 + (np.arange(n) + 0.5) * (80.0 / n)
    ramp = 0.5 * (1.0 + np.tanh(x + 25.0))
    state = SimState(-40.0, 40.0, n, 1.0 + 0.1 * ramp, 0.05 * ramp, 0.0,
                     _recording(m1_closure(1.0), sizes))
    assert state.u[0] != state.u[1] and state.u[-1] == state.u[-2] == 0.05
    ref = state
    for _ in range(300):
        dt = cfl_dt(state, 0.45)
        sizes.clear()
        state = step(state, dt)
        assert max(sizes) < 2 * (n + 2)  # the window ends short of the right edge
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
# each on its own scratch, and fold what each chunk finds into the status
# (``_step.c``).  The error path runs the window as one chunk, in a buffer it
# is handed.  These cases put each finding next to a chunk edge and compare
# the two runs field by field.

M1 = (_kernel.lib.DW_M1, 0.0)
GAMMA2 = (_kernel.lib.DW_GAMMA, 2.0)


# the step's (alpha, dt, dx) in the raw calls: e^-h = 0.995012..., dt/dx = 0.04
RAW_STEP = (1.0, 0.01, 0.25)


def _step_raw(v, u, one_chunk, builtin=M1, lib=_kernel.lib):
    """dw_step on (v, u) with a built-in closure, in chunks or as one chunk:
    the status fields and the flag, and the successor rows."""
    v, u = _kernel.as_pair(v, u)
    n = v.size
    buf = np.empty(_kernel.lib.N_REGIONS * 2 * (n + 2)) if one_chunk else None
    rows = np.full((2, n), -7.0)  # shows a cell the step does not write
    st = _kernel.ffi.new("dw_status *")
    ptr = _kernel._ptr
    ok = lib.dw_step(n, ptr(v), ptr(u), *builtin, *RAW_STEP,
                     _kernel.ffi.NULL if buf is None else ptr(buf), ptr(rows), st)
    bits = [np.float64(x).view(np.uint64) for x in (st.speed_bound, st.u_max)]
    return (st.lo, st.hi, st.thin_face, st.hyperbolic, *bits, st.nonfinite, st.vacuum,
            ok), rows


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
    """dw_step's slope, Fromm's (w[k+1] - w[k-1]) / 2, against reference_step's:
    the face states a one-chunk step leaves in its buffer, and the successor
    rows of the chunked and the one-chunk step."""
    alpha, dt, dx = RAW_STEP
    assert closure.alpha == alpha
    u = SLOPE_ROWS[row]
    n = u.size
    v = np.ones(n)
    buf = np.empty(_kernel.lib.N_REGIONS * 2 * (n + 2))
    st = _kernel.ffi.new("dw_status *")
    ptr = _kernel._ptr
    with np.errstate(all="ignore"):
        _kernel.lib.dw_step(n, ptr(v), ptr(u), *builtin, *RAW_STEP, ptr(buf),
                            ptr(np.empty((2, n))), st)
        assert (st.lo, st.hi) == (0, n)
        want = reference_faces(closure, v, u * damping(0.5 * alpha * dt)[0], 0.5 * dt / dx)
        for got_face, want_face in zip(_kernel.face_states(st, buf), want):
            assert all(map(_same_bits_or_nan, got_face, want_face))
        assert np.isfinite(want[0][1]).all() == (row != "overflow")
        ref = reference_step(SimState(-0.5 * n * dx, 0.5 * n * dx, n, v, u, 0.0, closure), dt)
        for one_chunk in (0, 1):
            rows = _step_raw(v, u, one_chunk, builtin)[1]
            assert _same_bits_or_nan(rows, [ref.v, ref.u])


@pytest.mark.parametrize(
    "closure", [m1_closure(1.0), gamma_law_closure(2.0, 1.0),
                _user_built(gamma_law_closure(2.0, 1.0))],
    ids=["m1", "gamma2", "gamma2-rewrapped"],
)
def test_step_flag_is_set_only_when_every_check_passes(closure):
    """The flag ``_kernel.step`` returns, on the built-in and the callable
    path: 1 on a clean step, 0 on a Courant number above 1 that every other
    check passes, and 0 on each failing cell check."""
    n = 300
    v, u = _wavy(n)
    dx = 8.0 / n
    courant_one = dx / float(np.max(wave_speed_bound(closure, v, u)))

    def run(v, u, dt):
        ok, st, _, _ = _kernel.step(closure, v, u, dt, dx)
        return ok, (st.thin_face, st.hyperbolic, st.nonfinite, st.vacuum)

    clean = (-1, 1, -1, -1)
    assert run(v, u, 0.5 * courant_one) == (1, clean)
    ok, checks = run(v, u, 1.2 * courant_one)  # the face speeds grow by less than 20 %
    assert ok == 0 and checks == clean
    for value in (np.nan, 1e-3):  # a non-finite cell, a vacuum
        bad_v = v.copy()
        bad_v[150] = value
        with np.errstate(all="ignore"):
            ok, checks = run(bad_v, u, 0.1 * courant_one)
        assert ok == 0 and checks != clean


def _chunked_like_one_chunk(v, u, builtin=M1):
    chunked, rows = _step_raw(v, u, 0, builtin)
    whole, want = _step_raw(v, u, 1, builtin)
    assert chunked == whole and same_bits(rows, want)
    return chunked


def _wavy(n):
    x = np.linspace(-1.0, 1.0, n)
    return 1.0 + 0.05 * np.cos(3.0 * x), 0.05 * np.sin(5.0 * x)


def _found_at(field, cell):
    """The window index each status field names for a bad value in cell.

    The thin face is the bad cell's left face.  A non-finite value enters the
    slope (w[k+1] - w[k-1]) / 2 of its left neighbour, so that cell's edge
    values and its left face are non-finite, and the first non-finite new
    cell is cell - 2 (cell 0 at the domain's left end).  A vacuum shows first
    in the left neighbour, which the low cell drains.
    """
    return {2: cell, 6: max(cell - 2, 0), 7: cell - 1}[field]


@pytest.mark.parametrize("cell", [1, 255, 256, 257, 511, 1100, 1398])
@pytest.mark.parametrize(
    "row, value, field",
    [("v", -0.5, 2), ("u", 1.2, 3), ("v", np.nan, 6), ("u", np.inf, 6), ("v", np.inf, 6),
     ("v", 2e-3, 7)],
    ids=["thin", "hyperbolic", "nan", "u-inf", "v-inf", "vacuum"],
)
def test_chunked_m1_step_folds_like_one_chunk(cell, row, value, field):
    """Each status field set from one cell in any chunk of a 1400-cell window."""
    v, u = _wavy(1400)
    (v if row == "v" else u)[cell] = value
    status = _chunked_like_one_chunk(v, u)
    assert status[:2] == (0, 1400) and status[-1] == 0  # the flag
    assert status[field] == (0 if field == 3 else _found_at(field, cell))


@pytest.mark.parametrize("nan_cell", [100, 700, 1300])
def test_chunked_m1_step_keeps_the_row_wide_nan_guard(nan_cell):
    """A NaN anywhere in the window hides a v <= 0 in any other chunk."""
    v, u = _wavy(1400)
    v[600] = -0.5
    assert _chunked_like_one_chunk(v, u)[2] == 600
    v[nan_cell] = np.nan
    status = _chunked_like_one_chunk(v, u)
    assert status[2] == -1 and status[6] == _found_at(6, nan_cell)


def test_chunked_m1_step_all_zero_speeds():
    """v near 1e300 and u = 0: every face speed is +0, and so is the bound."""
    v = 1e300 * (1.0 + 0.01 * (np.arange(1000) % 2))
    status = _chunked_like_one_chunk(v, np.zeros(1000))
    assert status[4] == 0 and status[:2] == (0, 1000)


@pytest.mark.parametrize("width", [*range(250, 262), *range(506, 518), 1019, 1020, 1021])
def test_chunked_m1_step_on_windows_about_chunk_edges(width):
    """Windows of 253 to 1025 cells in a 1200-cell domain, both far fields kept."""
    n = 1200
    v, u = np.ones(n), np.full(n, 0.02)
    x = np.linspace(0.0, np.pi, width)
    v[100:100 + width] += 0.05 * np.sin(x) ** 2
    u[100:100 + width] += 0.03 * np.sin(2.0 * x)
    status = _chunked_like_one_chunk(v, u)
    assert status[1] - status[0] >= width and status[0] > 0 and status[1] < n
    assert status[-1] == 1  # every check passed


@pytest.mark.parametrize("row, value", [("u", 1.2), ("v", np.nan), ("v", 1e-3)],
                         ids=["hyperbolic", "nonfinite", "vacuum"])
def test_chunked_m1_step_raises_the_callables_error(row, value):
    """A failure in a late chunk of the built-in step gives the callable path's message."""
    n = 1400
    v, u = _wavy(n)
    (v if row == "v" else u)[1100] = value
    state = SimState(-4.0, 4.0, n, v, u, 0.0, m1_closure(1.0))
    other = dataclasses.replace(state, closure=_user_built(state.closure))
    messages = []
    for s in (state, other):
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
    "row, value, field",
    [("v", -0.5, 2), ("v", np.nan, 6), ("u", np.inf, 6), ("v", np.inf, 6), ("v", 1e-3, 7)],
    ids=["thin", "nan", "u-inf", "v-inf", "vacuum"],
)
def test_chunked_gamma_step_folds_like_one_chunk(cell, row, value, field):
    v, u = _wavy(1400)
    (v if row == "v" else u)[cell] = value
    status = _chunked_like_one_chunk(v, u, GAMMA2)
    assert status[:2] == (0, 1400) and status[-1] == 0
    assert status[field] == _found_at(field, cell)


def test_chunked_gamma_step_on_windows_about_chunk_edges():
    n = 1200
    for width in (250, 255, 256, 257, 511, 512, 513, 1021):
        v, u = np.ones(n), np.full(n, 0.02)
        x = np.linspace(0.0, np.pi, width)
        v[100:100 + width] += 0.05 * np.sin(x) ** 2
        u[100:100 + width] += 0.03 * np.sin(2.0 * x)
        status = _chunked_like_one_chunk(v, u, GAMMA2)
        assert status[1] - status[0] >= width and status[0] > 0 and status[1] < n
        assert status[-1] == 1


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
        assert closure.builtin_gamma and not closure.builtin_m1
        assert closure.p.gamma == gamma
    gas = gamma_law_closure(2.0, 1.0)
    assert dataclasses.replace(gas, name="m1").builtin_gamma
    assert not _user_built(gas).builtin_gamma
    assert not dataclasses.replace(gas, dp=gamma_law_closure(3.0, 1.0).dp).builtin_gamma
    assert not dataclasses.replace(gas, p=gas.d2p).builtin_gamma
    assert not dataclasses.replace(gas, g=lambda u: 0.0 * u).builtin_gamma
    for closure in (m1_closure(1.0), linear_closure(1.0)):
        assert not closure.builtin_gamma


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


@pytest.mark.parametrize("gamma, alpha", [(1.4, 0.5), (3.0, 2.0)])
def test_builtin_gamma_step_reads_the_exponent(gamma, alpha):
    """A non-integer and a larger exponent against the oracle on the callables."""
    n = 700
    v, u = _wavy(n)
    state = SimState(-4.0, 4.0, n, v, u, 0.0, gamma_law_closure(gamma, alpha))
    assert _match_reference(state, 30).t > 0.0


def test_builtin_gamma_face_values_are_the_callables_bits():
    """The built-in gamma step's p and sqrt(-p') on its face states against
    the closure's callables, on states across the closure's v range: a step
    as one chunk leaves the right states' momentum flux and speed in buf."""
    gas = gamma_law_closure(2.0, 1.0)
    n = 1500
    x = np.linspace(-1.0, 1.0, n)
    v, u = 0.06 * 300.0 ** (0.5 + 0.5 * np.sin(7.0 * x)), 0.3 * np.cos(5.0 * x)
    buf = np.empty(_kernel.lib.N_REGIONS * 2 * (n + 2))
    st = _kernel.ffi.new("dw_status *")
    ptr = _kernel._ptr
    _kernel.lib.dw_step(n, ptr(v), ptr(u), *GAMMA2, *RAW_STEP, ptr(buf),
                        ptr(np.empty((2, n))), st)
    m, region = st.hi - st.lo, 2 * (st.hi - st.lo + 2)
    right_v = _kernel.face_states(st, buf)[1][0]
    flux = buf[_kernel.lib.FLUX * region:][: m + 1]
    speed = buf[_kernel.lib.SPEED * region:][: m + 1]
    assert st.thin_face == -1 and right_v.min() < 0.1 and right_v.max() > 10.0
    assert same_bits(flux, gas.p(right_v)) and same_bits(speed, np.sqrt(-gas.dp(right_v)))
