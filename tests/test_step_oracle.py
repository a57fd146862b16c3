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
    flux_and_speed,
    gamma_law_closure,
    linear_closure,
    m1_closure,
    momentum_flux,
    wave_speed_bound,
)
from diffwave._kernel import minmod as solver_minmod
from diffwave.solver import PerturbationSpec, SimState, build_initial_data, cfl_dt, step


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


def _minmod(a, b):
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _flux(closure, v, u):
    return -u, closure.p(v) - closure.g(u) * closure.f(v)


def reference_cfl_dt(state, cfl):
    amax = state.speed_bound
    if amax is None:
        amax = float(np.max(reference_wave_speed_bound(state.closure, state.v, state.u)))
    return cfl * state.dx / amax


def reference_step(state, dt):
    closure = state.closure
    alpha = closure.alpha
    dx = state.dx

    half_damp = np.exp(-0.5 * alpha * dt)
    u = state.u * half_damp
    v = state.v

    # transmissive boundary: the ghost cells copy the edge cells
    ve = np.concatenate(([v[0], v[0]], v, [v[-1], v[-1]]))
    ue = np.concatenate(([u[0], u[0]], u, [u[-1], u[-1]]))

    dv = np.diff(ve)
    du = np.diff(ue)
    sv = _minmod(dv[:-1], dv[1:])
    su = _minmod(du[:-1], du[1:])

    vl = ve[1:-1] - 0.5 * sv
    vr = ve[1:-1] + 0.5 * sv
    ul = ue[1:-1] - 0.5 * su
    ur = ue[1:-1] + 0.5 * su
    fvl, ful = _flux(closure, vl, ul)
    fvr, fur = _flux(closure, vr, ur)
    lam = 0.5 * dt / dx
    dv_pred = lam * (fvl - fvr)
    du_pred = lam * (ful - fur)
    vl = vl + dv_pred
    vr = vr + dv_pred
    ul = ul + du_pred
    ur = ur + du_pred

    vL, uL = vr[:-1], ur[:-1]
    vR, uR = vl[1:], ul[1:]
    a_face = np.maximum(
        reference_wave_speed_bound(closure, vL, uL),
        reference_wave_speed_bound(closure, vR, uR),
    )
    fvL, fuL = _flux(closure, vL, uL)
    fvR, fuR = _flux(closure, vR, uR)
    # the central volume flux carries the step's mean damping factor
    h = 0.5 * alpha * dt
    kappa = np.sinh(h) / h
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
    """The lagged face-speed step stays within 2e-3 of the cell-speed step.

    On these runs it is never the larger of the two beyond rounding: the
    face speeds bound the cell speeds of the state they produce.
    """
    spec, state = _preset_state(preset, n_cells)
    steps = 0
    while state.t < 10.0:
        dt = cfl_dt(state, spec.cfl)
        dt_cells = cfl_dt(dataclasses.replace(state), spec.cfl)
        assert abs(dt - dt_cells) <= 2e-3
        assert dt <= dt_cells * (1.0 + 1e-15)
        state = step(state, dt)
        steps += 1
    assert steps >= n_cells // 25


def test_minmod_pins_underflow_ties_and_signed_zeros():
    """The compiled step's minmod against _minmod."""
    vals = np.array([0.0, -0.0, 1e-200, -1e-200, 1e-160, -1e-160, 0.3, -0.3,
                     2.0, -2.0, np.inf, -np.inf])
    a, b = (g.ravel() for g in np.meshgrid(vals, vals))
    row = np.column_stack([a, b]).ravel()  # (a_i, b_i) sits at offsets 2i, 2i + 1
    with np.errstate(invalid="ignore"):  # inf * 0
        want = _minmod(a, b)
        assert same_bits(solver_minmod(row)[::2], want)

    def one(x, y):
        return solver_minmod(np.array([x, y]))[0]

    assert same_bits(one(1e-200, 1e-200), 0.0)  # the product underflows to 0
    assert same_bits(one(1e-160, 2e-160), 1e-160)  # a subnormal product is > 0
    assert same_bits(one(-0.3, -0.3), -0.3)  # ties, |a| == |b|, return b
    assert same_bits(one(-0.0, -2.0), 0.0) and same_bits(one(0.3, -0.0), 0.0)
    assert same_bits(one(-2.0, -0.3), -0.3)


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
    vv, uu = np.meshgrid(v, u)
    assert same_bits(_kernel.m1_momentum_flux(vv, uu), momentum_flux(m1, vv, uu))
    flux, speed = _kernel.m1_flux_and_speed(vv, uu)
    want_flux, want_speed = flux_and_speed(m1, vv, uu)
    assert same_bits(flux, want_flux) and same_bits(speed, want_speed)


def test_compiled_m1_loses_hyperbolicity_like_numpy():
    """|u| > 2/sqrt(3): the built-in m1 step raises the callables' error."""
    assert _kernel.m1_flux_and_speed(np.ones(3), np.array([0.0, 1.2, 0.0])) is None
    n = 32
    u = np.r_[np.zeros(12), np.full(8, 1.2), np.zeros(12)]
    state = SimState(-4.0, 4.0, n, np.ones(n), u, 0.0, m1_closure(1.0))
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
    """The step's second closure round and C face combine against the NumPy pass."""
    v = np.linspace(0.05, 20.0, 601)
    u = np.r_[np.linspace(-0.99, 0.99, 397), 0.0, -0.0, 5e-324, -5e-324]
    vv, uu = (a.ravel() for a in np.meshgrid(v, u))
    flux, speed = _kernel.face_combine(closure, vv, uu)
    want_flux, want_speed = flux_and_speed(closure, vv, uu)
    assert same_bits(flux, want_flux) and same_bits(speed, want_speed)


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
