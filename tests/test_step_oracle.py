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

from diffwave import config
from diffwave.closures import gamma_law_closure, linear_closure, m1_closure, wave_speed_bound
from diffwave.solver import SimState, build_initial_data, cfl_dt, step
from diffwave.solver import _minmod as solver_minmod


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


def reference_step(state, dt, u_minus, u_plus):
    closure = state.closure
    alpha = closure.alpha
    dx = state.dx

    half_damp = np.exp(-0.5 * alpha * dt)
    u = state.u * half_damp
    v = state.v

    t_half = state.t + 0.5 * dt
    ug_l = u_minus * np.exp(-alpha * t_half)
    ug_r = u_plus * np.exp(-alpha * t_half)

    ve = np.concatenate(([v[0], v[0]], v, [v[-1], v[-1]]))
    ue = np.concatenate(([ug_l, ug_l], u, [ug_r, ug_r]))

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
    spec, corr, profile = config.build_scenario(cfg)
    return spec, build_initial_data(spec, profile, corr)


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
        state = step(state, dt, spec.u_minus, spec.u_plus)
        ref = reference_step(ref, dt_ref, spec.u_minus, spec.u_plus)
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
        state = step(state, dt, spec.u_minus, spec.u_plus)
        steps += 1
    assert steps >= n_cells // 25


def test_minmod_pins_underflow_ties_and_signed_zeros():
    """The package's minmod, on one row and on stacked rows, against _minmod."""
    vals = np.array([0.0, -0.0, 1e-200, -1e-200, 1e-160, -1e-160, 0.3, -0.3,
                     2.0, -2.0, np.inf, -np.inf])
    a, b = (g.ravel() for g in np.meshgrid(vals, vals))
    pairs = np.column_stack([a, b])
    row = pairs.ravel()  # (a_i, b_i) sits at offsets 2i, 2i + 1
    with np.errstate(invalid="ignore"):  # inf * 0
        want = _minmod(a, b)
        assert same_bits(solver_minmod(pairs)[:, 0], want)
        assert same_bits(solver_minmod(row)[::2], want)
        stacked = solver_minmod(np.stack([row, -row[::-1]]))
        assert same_bits(stacked[0], solver_minmod(row))
        assert same_bits(stacked[1], solver_minmod(-row[::-1]))

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


def test_rewrapped_closure_steps_like_builtin():
    spec, state = _preset_state("gamma-default", 256)
    other = dataclasses.replace(state, closure=_user_built(state.closure))
    assert not other.closure.correction_free
    for _ in range(5):
        dt = cfl_dt(state, spec.cfl)
        assert cfl_dt(other, spec.cfl) == dt
        state = step(state, dt, 0.0, 0.0)
        other = step(other, dt, 0.0, 0.0)
        assert same_bits(state.v, other.v) and same_bits(state.u, other.u)


def test_successor_state_keeps_grid_and_closure():
    spec, state = _preset_state("m1-default", 256)
    nxt = step(state, cfl_dt(state, spec.cfl), spec.u_minus, spec.u_plus)
    assert type(nxt) is SimState and nxt is not state
    assert (nxt.x_left, nxt.x_right, nxt.n_cells) == (
        state.x_left, state.x_right, state.n_cells
    )
    assert nxt.closure is state.closure
