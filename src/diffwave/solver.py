"""Finite-volume evolution of the damped system on a truncated domain.

The state (v, u) obeys

    v_t - u_x = 0
    u_t + (p(v) - g(u) f(v))_x = -alpha u

and is advanced by Strang splitting: an exact exponential half-step for
the damping source, one full MUSCL-Hancock transport step with Fromm's
unlimited central slopes, (w[k+1] - w[k-1]) / 2, and a local
Lax-Friedrichs flux, and a second exact source half-step.  Exact source
integration matters here: alpha*t grows to several hundred over a
decay-rate run and any source stiffness error would pollute the measured
exponents.

The boundary is transmissive: after the first source half-step the ghost
cells copy the edge cells.  The domain is sized so that the wave reaches
its ends only at rounding level, so each far field stays a constant state,
which the split scheme damps as a whole: its cells follow the far-field
law (v_pm, u_pm exp(-alpha t)) to rounding, and ``step`` takes no
far-field data.  The transport step sees the far-field velocity at the
step midpoint; a plain volume flux -u would integrate its decay by the
midpoint rule and leak about alpha dt^2 |u_plus - u_minus| / 24 of mass
over a run.  So the central part of the volume flux is scaled by
kappa = sinh(alpha dt/2)/(alpha dt/2), the mean of the damping factor over
the step.  Every face gets the same factor, so constant far fields stay
constant.  Each boundary face carries the edge cell's value,
u exp(-alpha dt/2) kappa = u (1 - exp(-alpha dt))/(alpha dt), and the edge
cell follows the damped law to rounding, so the boundary flux is
u_pm (exp(-alpha t) - exp(-alpha (t+dt)))/(alpha dt) to rounding: the
boundary contributes no mass drift beyond rounding.

The time step comes from the wave speeds the previous step's flux already
computed: ``step`` records the largest local Lax-Friedrichs face speed in
``SimState.speed_bound``, and ``cfl_dt`` divides by it.  Only a state that
no step produced takes its speed bound from the cells.  The lag is safe
because ``step`` checks the Courant number it actually runs at,
dt * max face speed / dx, and raises ``BlowUpError`` above 1.

``step`` computes only the cells that can change.  A cell's new value
depends on dt and its stencil alone: the cell and two neighbours a side
of the ghost-extended rows.  Every operation of the scheme acts elementwise,
so two cells whose stencils hold the same bits compute the same bits.  The
step finds the first and last neighbour pairs whose 64-bit patterns differ,
which tells -0.0 from +0.0 and one NaN from another where ``==`` would not.
It runs the scheme on the window of cells whose stencil touches such a pair,
plus one uniform cell at each end, and fills each far field with the value
its end cell computed.  Outside faces repeat the window's end faces, so the
speed bound and the state checks lose nothing.  The result is the full-width
step's bit for bit, and a constant state still goes through the flux, on a
one-cell window.  The decay runs keep their far field bitwise uniform until
the wave's rounding-level tail reaches it: over a run to t = 100 the window
averages 55 % of the grid on gamma-default and 63 % on m1-default, and over
a run to t = 500 74 % and 80 %.

The arithmetic of ``step`` runs in C (``_step.c``, built on first import
and loaded by ``_kernel``) in three stages: (1) the ghost rows, the bitwise
window and the edge values; (2) the MUSCL-Hancock predictor; (3) the
local Lax-Friedrichs faces, the update, the second damping half-step, the
state checks and the far-field fill.  Each C operation is the IEEE
operation NumPy performs, in the same order and without fused multiply-adds,
so the step is bit for bit the NumPy formulation that
``tests/test_step_oracle.py`` keeps as its oracle.

When the closure is built in (``ModelClosure.builtin``, resolved once
when the closure is made), the whole step is one C call.  For the m1
closure C copies of p, p', g, g', f and f' run, operation for operation
(they use only +, -, *, / and sqrt, which round correctly on both sides).
For the gamma law p = v^-gamma and p' = -gamma v^(-gamma-1) run on the
package's own ``pow`` in ``_step.c``, the routine the closure's callables
call (``_kernel.power``), with p and p' of a face state sharing one log and
one exp.  That ``pow`` is built from IEEE operations and explicit fused
multiply-adds, within 1 ulp, so its bits are the same on every CPU, unlike
NumPy's SIMD ``pow``.  The one call cuts the window into chunks of 256
cells and runs each chunk through every stage on its own scratch, on the
calling thread and, when the process's affinity mask holds a second CPU, on
one C helper thread; the chunks' checks fold into the same status, so the
step keeps its bits on any number of CPUs.  Every other closure (the linear
one, or one a user builds) keeps its callables, and the step makes two
closure rounds between the stages: p, g and f are called once on the edge
values of both edge rows, held back to back in one array, then all six
callables once on the states of both face rows.  One C face combine turns
the second round into fluxes, speeds and the hyperbolicity flag;
``closures.wave_speed_bound`` takes its speeds from the same combine
(``_kernel.flux_and_speed``), or for a built-in closure from the built-in
step's own C evaluators.  When a discriminant is lost,
``closures.characteristic_speeds`` on the face states raises the error.
``_kernel.step`` runs the stages and alone knows the step's buffer;
``step`` checks dt and turns a failed check into its error.  A state a
step made keeps the C pointers to its rows (``SimState._cells``), and the
next step reuses them while its ``v`` and ``u`` are still those rows.  C
computes the step's scalars from (alpha, dt, dx) (``dw_step_scalars``, for
both paths): the damping factor exp(-alpha dt/2) and kappa come from the
package's ``exp`` too, so a step's bits do not depend on NumPy's dispatch,
and dt/(2 dx) and dt/dx are the NumPy formulation's operations.  C also returns
one flag that says every check passed; only when it is clear does ``step``
read the rest of the status and raise.

The solver works in the mass (Lagrangian) coordinate throughout;
``lagrangian_transform`` maps Eulerian initial data into that frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .closures import ModelClosure, characteristic_speeds, wave_speed_bound
from .corrections import CorrectionField, eval_uhat, eval_vhat, make_mollifier
from .diffusion_wave import WaveProfile, eval_ubar, eval_vbar

__all__ = [
    "SimState",
    "ScenarioSpec",
    "PerturbationSpec",
    "BlowUpError",
    "InitialDataError",
    "lagrangian_transform",
    "build_initial_data",
    "cfl_dt",
    "step",
    "advance",
    "run",
    "heat_kernel",
]

# Smallness caps on scenario parameters; the decay theory is perturbative
# and the admissibility checks assume states stay near the wave.
MAX_WAVE_STRENGTH = 0.5
MAX_PERTURBATION_AMPLITUDE = 0.1

# the unit-mass mollifier of every scenario's correction pair; the wave
# shift depends on its mass alone, not on its shape
_UNIT_BUMP = make_mollifier("bump")


def wave_strength(v_minus, v_plus, u_minus, u_plus) -> float:
    """delta = |v_plus - v_minus| + |u_plus - u_minus|."""
    return abs(v_plus - v_minus) + abs(u_plus - u_minus)


def smallness_errors(strength: float, amplitude: float) -> list[str]:
    """One message per smallness cap the wave strength or bump amplitude exceeds."""
    errors = []
    if strength > MAX_WAVE_STRENGTH:
        errors.append(
            f"wave strength {strength:g} exceeds the smallness cap {MAX_WAVE_STRENGTH}"
        )
    if abs(amplitude) > MAX_PERTURBATION_AMPLITUDE:
        errors.append(
            f"perturbation amplitude {amplitude:g} exceeds the smallness "
            f"cap {MAX_PERTURBATION_AMPLITUDE}"
        )
    return errors


def _require_cells(n_cells) -> None:
    if not n_cells >= 1:
        raise ValueError(f"n_cells must be at least 1, not {n_cells!r}")


class BlowUpError(RuntimeError):
    """Raised when the numerical solution leaves the physical regime."""


class InitialDataError(ValueError):
    """Raised when a scenario's initial data does not fit its domain or state box."""


@dataclass
class SimState:
    """Cell-averaged (v, u) on a uniform grid at one instant.

    The ends are finite floats with x_left < x_right, and v and u are
    contiguous float64 rows of n_cells values (a list or an integer array is
    converted), as the compiled step reads them.
    """

    x_left: float
    x_right: float
    n_cells: int
    v: np.ndarray
    u: np.ndarray
    t: float
    closure: ModelClosure
    # largest face wave speed of the step that produced this state; a state
    # built any other way (constructor, dataclasses.replace) has None
    speed_bound: float | None = field(default=None, init=False)
    # largest |u| over this state and every step that led to it
    max_abs_u: float = field(init=False)
    # a stepped state's (v, u, pv, pu): the rows ``step`` made and the C
    # pointers to them, which the next step reuses while v and u are still
    # those rows (``_kernel.step``); not a field, so a state built any other
    # way, or copied, or unpickled, has None
    _cells = None

    def __post_init__(self):
        _require_cells(self.n_cells)
        self.x_left, self.x_right = float(self.x_left), float(self.x_right)
        if not -math.inf < self.x_left < self.x_right < math.inf:
            raise ValueError(f"the domain ends must be finite with x_left < x_right, "
                             f"not {self.x_left!r}, {self.x_right!r}")
        self.v = np.ascontiguousarray(self.v, dtype=float)
        self.u = np.ascontiguousarray(self.u, dtype=float)
        if self.v.shape != (self.n_cells,) or self.u.shape != (self.n_cells,):
            raise ValueError("field length must equal n_cells")
        if np.any(self.v <= 0.0):
            raise ValueError("specific volume must stay positive")
        self.max_abs_u = float(np.max(np.abs(self.u)))

    def __getstate__(self):
        fields = self.__dict__.copy()
        fields.pop("_cells", None)  # cffi pointers do not pickle
        return fields

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class PerturbationSpec:
    """Compactly supported smooth bump added to both initial fields."""

    amplitude: float = 0.0
    center: float = 0.0
    width: float = 2.0

    def __call__(self, x):
        if self.amplitude == 0.0:
            return np.zeros_like(np.asarray(x, dtype=float))
        s = (np.asarray(x, dtype=float) - self.center) / self.width
        inside = np.abs(s) < 1.0
        ss = np.where(inside, s, 0.0)
        # exp(1 - 1/(1-s^2)) peaks at exactly `amplitude` and vanishes
        # with all derivatives at the support edges.
        return self.amplitude * np.where(
            inside, np.exp(1.0 - 1.0 / np.where(inside, 1.0 - ss**2, 1.0)), 0.0
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one simulation scenario.

    ``corr`` is the scenario's correction pair (vhat, uhat), derived once
    from ``u_minus``, ``u_plus``, the closure's alpha and the unit bump on
    [-1, 1]; it takes no part in ``==`` or ``repr``.
    """

    closure: ModelClosure
    v_minus: float
    v_plus: float
    u_minus: float = 0.0
    u_plus: float = 0.0
    perturbation: PerturbationSpec = PerturbationSpec()
    n_cells: int = 4096
    x_max: float | None = None  # None: set from propagation distance
    end_time: float = 500.0
    cfl: float = 0.45
    corr: CorrectionField = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_cells(self.n_cells)
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie in (0,1)")
        errors = smallness_errors(self.wave_strength, self.perturbation.amplitude)
        if errors:
            raise ValueError("; ".join(errors))
        corr = CorrectionField(self.u_minus, self.u_plus, self.closure.alpha, _UNIT_BUMP)
        object.__setattr__(self, "corr", corr)

    @property
    def wave_strength(self) -> float:
        """delta = |v_plus - v_minus| + |u_plus - u_minus|."""
        return wave_strength(self.v_minus, self.v_plus, self.u_minus, self.u_plus)

    def domain_half_width(self) -> float:
        """x_max, or the default margin 10 sqrt(1+T) max|lambda| + support."""
        if self.x_max is not None:
            return float(self.x_max)
        lo, hi = sorted((self.v_minus, self.v_plus))
        vs = np.linspace(lo, hi, 33)
        us = np.linspace(
            min(self.u_minus, self.u_plus) - abs(self.perturbation.amplitude),
            max(self.u_minus, self.u_plus) + abs(self.perturbation.amplitude),
            33,
        )
        vv, uu = np.meshgrid(vs, us)
        lam = float(np.max(wave_speed_bound(self.closure, vv, uu)))
        support = abs(self.perturbation.center) + self.perturbation.width
        return 10.0 * np.sqrt(1.0 + self.end_time) * lam + support + 5.0


def lagrangian_transform(x_grid, rho0, u0, n_cells: int | None = None):
    """Map Eulerian initial data to the uniform mass-coordinate grid.

    The mass coordinate is m(x) = integral of rho0 from the origin
    (anchored at x = 0 when the grid straddles it), strictly increasing
    for positive density.  Returns (m_grid, v0, u0) with v0 = 1/rho0
    resampled by monotone (linear) interpolation onto a uniform grid of
    ``n_cells`` points in m.
    """
    x = np.asarray(x_grid, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if np.any(rho0 <= 0.0):
        raise ValueError("density must be strictly positive")
    if n_cells is None:
        n_cells = len(x)

    m = np.concatenate(
        ([0.0], np.cumsum(0.5 * (rho0[1:] + rho0[:-1]) * np.diff(x)))
    )
    if x[0] <= 0.0 <= x[-1]:
        m -= np.interp(0.0, x, m)

    m_uniform = np.linspace(m[0], m[-1], n_cells)
    v0 = np.interp(m_uniform, m, 1.0 / rho0)
    u0_lag = np.interp(m_uniform, m, u0)
    return m_uniform, v0, u0_lag


def build_initial_data(spec: ScenarioSpec, profile: WaveProfile) -> SimState:
    """Initial state: diffusion wave + correction pair + compact bump.

    v0 = vbar(., 0) + vhat(., 0) + perturbation
    u0 = ubar(., 0) + uhat(., 0) + perturbation

    The compact perturbation keeps the integrated perturbation and its
    anti-derivative integrable, which is the regime the decay targets
    assume.  Far-field cells must sit on (v_pm, u_pm) to 1e-8.
    """
    half = spec.domain_half_width()
    dx = 2.0 * half / spec.n_cells
    x = -half + (np.arange(spec.n_cells) + 0.5) * dx

    pert = spec.perturbation(x)
    v0 = eval_vbar(profile, x, 0.0) + eval_vhat(spec.corr, x, 0.0) + pert
    u0 = eval_ubar(profile, x, 0.0) + eval_uhat(spec.corr, x, 0.0) + pert

    for name, got, want in (
        ("v left", v0[0], spec.v_minus),
        ("v right", v0[-1], spec.v_plus),
        ("u left", u0[0], spec.u_minus),
        ("u right", u0[-1], spec.u_plus),
    ):
        if abs(got - want) > 1e-8:
            raise InitialDataError(
                f"far-field mismatch in {name}: {got!r} vs {want!r}; "
                "domain too small for the perturbation or mollifier support"
            )

    state = SimState(
        x_left=-half,
        x_right=half,
        n_cells=spec.n_cells,
        v=v0,
        u=u0,
        t=0.0,
        closure=spec.closure,
    )
    if not spec.closure.admissible(v0, u0):
        raise InitialDataError("initial data leaves the admissible state box")
    return state


def cfl_dt(state: SimState, cfl: float) -> float:
    """Time step cfl * dx / s, with s the largest wave speed on the grid.

    s is the ``speed_bound`` of the step that produced ``state`` (its largest
    face speed); only a state no step produced takes s from its cells,
    max|lambda(v, u)|.  ``step`` rejects a Courant number above 1.
    """
    amax = state.speed_bound
    if amax is None:
        amax = float(wave_speed_bound(state.closure, state.v, state.u).max())
    if amax <= 0.0:
        raise ValueError("vanishing wave speed; cannot set a CFL step")
    return cfl * state.dx / amax


def step(state: SimState, dt: float) -> SimState:
    """One Strang-split step of size dt, 0 < dt < inf.

    The ghost cells copy the edge cells, so the far field follows its own
    damped law and the step needs no far-field data.  Only the window of
    cells whose stencil is not bitwise uniform is computed (module
    docstring); error messages name domain cells.  The successor state
    records the largest face speed of the step as its ``speed_bound``,
    carries the running ``max_abs_u`` forward, and keeps the pointers to
    its rows for the next step.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"the time step dt must be positive and finite, not {dt!r}")
    closure = state.closure
    ok, st, cells, buf = _kernel.step(closure, state.v, state.u, dt, state.dx, state._cells)
    if not ok:
        _raise_failed_check(state, dt, st, buf)
    t_new = state.t + dt
    u_max = st.u_max
    if u_max > 1.0 and closure.name == "m1":
        warnings.warn(
            f"|u| exceeded 1 at t={t_new:.6g}; the state has left the closure "
            f"box |u| <= {closure.u_range[1]:g} and the physical flux limit",
            RuntimeWarning,
            stacklevel=2,
        )

    # the step's checks cover what SimState.__post_init__ would re-scan
    new = object.__new__(SimState)
    new.__dict__ = fields = state.__dict__.copy()
    fields["v"], fields["u"] = cells[0], cells[1]
    fields["_cells"] = cells
    fields["t"] = t_new
    fields["speed_bound"] = st.speed_bound
    if u_max > state.max_abs_u:
        fields["max_abs_u"] = u_max
    return new


def _raise_failed_check(state: SimState, dt: float, st, buf) -> None:
    """Raise the error of the first check the step of dt from state failed.

    The checks run in the order of the scheme: the reconstruction, the
    faces' hyperbolicity (the NumPy eigen-solve on the face states raises
    the same error), the Courant number dt * speed_bound / dx, then the new
    cells.  The compiled step's flag (``_kernel.step``) is clear only when
    one of them fails.
    """
    lo = st.lo

    def cell(k):
        """Domain index of window cell or face k; left of lo all repeat k = 0."""
        return lo + k if k else 0

    if st.thin_face >= 0:
        bad = cell(st.thin_face)
        raise BlowUpError(
            f"negative specific volume in reconstruction near cell {bad} "
            f"at t={state.t:.6g}"
        )
    if not st.hyperbolic:
        for face in _kernel.face_states(st, buf):
            characteristic_speeds(state.closure, *face)
    courant = dt * st.speed_bound / state.dx
    if courant > 1.0:
        raise BlowUpError(f"Courant number {courant:.6g} exceeds 1 at t={state.t:.6g}")
    t_new = state.t + dt
    if st.nonfinite >= 0:
        bad = cell(st.nonfinite)
        raise BlowUpError(f"non-finite state in cell {bad} at t={t_new:.6g}")
    if st.vacuum >= 0:
        raise BlowUpError(f"vacuum reached in cell {cell(st.vacuum)} at t={t_new:.6g}")


def advance(state: SimState, t_end: float, cfl: float) -> SimState:
    """Step ``state`` to a finite ``t_end`` at the CFL time step, 0 < cfl < 1.

    The last step is shortened to land on ``t_end``; a state already
    within 1e-12 of it is returned as is, and an earlier ``t_end`` is an
    error.
    """
    if not (math.isfinite(t_end) and t_end >= state.t - 1e-12):
        raise ValueError(f"t_end must be finite and not before t={state.t!r}, not {t_end!r}")
    if not 0.0 < cfl < 1.0:
        raise ValueError(f"cfl must lie in (0, 1), not {cfl!r}")
    while state.t < t_end - 1e-12:
        state = step(state, min(cfl_dt(state, cfl), t_end - state.t))
    return state


def run(spec: ScenarioSpec, profile: WaveProfile, sample_times, store_z: bool = True):
    """Evolve a scenario and record perturbation diagnostics.

    Builds the initial data, fixes the wave shift x0 from it, then
    advances to ``end_time`` recording norms of the anti-derivative
    field V and the velocity perturbation z at every requested time, none
    of them negative.  With ``store_z`` the z field itself is kept per
    sample so the time-derivative family can be differenced afterwards.

    Returns a DiagnosticsSeries.
    """
    from .corrections import compute_shift_x0
    from .diagnostics import DiagnosticsSeries, build_fields, conserved_mass, field_norms

    sample_times = np.sort(np.asarray(sample_times, dtype=float), axis=None)
    # the first of each run of equal times, as np.unique keeps them (np.unique
    # itself imports numpy.ma, about 10 ms)
    distinct = np.empty(sample_times.shape, dtype=bool)
    distinct[:1] = True
    distinct[1:] = sample_times[1:] != sample_times[:-1]
    sample_times = sample_times[distinct]
    bad = sample_times[~(sample_times >= 0.0)]  # negative, or NaN (sorted last)
    if bad.size:
        raise ValueError(f"sample times must be >= 0, not {float(bad[0])!r}")
    if sample_times.size == 0 or sample_times[0] > 0.0:
        sample_times = np.concatenate(([0.0], sample_times))

    corr = spec.corr
    state = build_initial_data(spec, profile)
    if profile.is_constant:
        x0 = 0.0
    else:
        x0 = compute_shift_x0(state.x_centers, state.v, profile, corr)

    series = DiagnosticsSeries(x0=x0)

    def record(state):
        fields = build_fields(state, profile, x0, corr)
        series.append(
            state.t, field_norms(fields), conserved_mass(fields),
            fields.z if store_z else None,
        )

    record(state)
    for target in sample_times[1:]:
        if target > spec.end_time:
            break
        state = advance(state, target, spec.cfl)
        record(state)

    series.final_state = state
    return series


def heat_kernel(x, t, dp_plus: float):
    """Constant-coefficient heat kernel of the far-field linearization.

    G(x, t) = (-4 pi p'(v_plus) t)^(-1/2) exp( x^2 / (4 p'(v_plus) t) )

    with p'(v_plus) < 0; integrates to one in x and has variance
    -2 p'(v_plus) t.  Serves as the diagnostic baseline the improved
    decay exponents compare against.
    """
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError("heat kernel needs t > 0")
    if dp_plus >= 0.0:
        raise ValueError("heat kernel needs dp_plus < 0")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 and np.ndim(t) == 0
    out = np.exp(x**2 / (4.0 * dp_plus * t)) / np.sqrt(-4.0 * np.pi * dp_plus * t)
    return float(out) if scalar else out
