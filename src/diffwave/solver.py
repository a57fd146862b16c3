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

With a built-in closure, ``step`` computes only the cells that can change.
A cell's new value depends on dt and its stencil alone: the cell and two
neighbours a side of the ghost-extended rows.  Every operation of the scheme
acts elementwise, so two cells whose stencils hold the same bits compute the
same bits.  The step finds the first and last neighbour pairs whose 64-bit
patterns differ, which tells -0.0 from +0.0 and one NaN from another where
``==`` would not.  It runs the scheme on the window of cells whose stencil
touches such a pair, plus one uniform cell at each end, and fills each far
field with the value its end cell computed.  Outside faces repeat the window's end faces, so the
speed bound and the state checks lose nothing.  The result is the full-width
step's bit for bit, and a constant state still goes through the flux, on a
one-cell window.  The decay runs keep their far field bitwise uniform until
the wave's rounding-level tail reaches it: over a run to t = 100 the window
averages 55 % of the grid on gamma-default and 63 % on m1-default, and over
a run to t = 500 74 % and 80 %.

The step's formulation is ``_numpy_step``: NumPy on the full width, in the
operations and order of ``_step.c``, with each C operation the IEEE
operation NumPy performs, without fused multiply-adds.  Its face states
are ``tests/test_step_oracle.py``'s ``reference_faces`` bit for bit, and
its rows that oracle's ``reference_step``.  It steps every closure that is
not built in (the linear one, or one a user builds): p, g and f are called
once on the edge values of both edge rows, held back to back in one array,
then all six callables once on the states of both face rows, whose face
combine (``closures.face_combine``) gives the fluxes, the speeds and the
discriminants.  It runs on the full width, whose rows the windowed C step
gives bit for bit, so it needs no window search of its own.

When the closure is built in (``ModelClosure.builtin``, resolved once when
the closure is made), the step is one C call on the window
(``_kernel.step``).  For the m1 closure C copies of p, p', g, g', f and f'
run, operation for operation (they use only +, -, *, / and sqrt, which
round correctly on both sides).  On a CPU with AVX-512 (x86-64-v4) they run
as an AVX-512 pair that gives the same bits with fewer divisions: 1/(3v),
1/v, 1/(3v^2) and 1/v^2 each come from a reciprocal that fused
multiply-adds round correctly, which is the quotient the divider rounds;
and in a vector of states whose 4 - 3u^2 all round to 4, s = 2 exactly, so
the u side divides only by powers of two, which a product by their
reciprocals rounds the same.  For the gamma law p = v^-gamma and
p' = -gamma v^(-gamma-1) run on the package's own ``pow`` in ``_step.c``,
the routine the closure's callables call (``_kernel.power``), with p and p'
of a face state sharing one log and one exp.  That ``pow`` is built from
IEEE operations and explicit fused multiply-adds, within 1 ulp, so its bits
are the same on every CPU, unlike NumPy's SIMD ``pow``.  A row whose values
all lie in [2^-64, 2^64], raised to an exponent of at most 8 in magnitude,
as every row of a decay run is, runs it without the lanes for zeros,
subnormals, negatives, infinities, NaN and overflow, to the same bits; any
other row runs the general code.  The one call cuts
the window into chunks of 256 cells and runs each chunk through every stage
on its own scratch, on the calling thread from the window's left end and,
when the process's affinity mask holds a second CPU, on one C helper thread
from its right end; the chunks' checks fold into the same status, so the
step keeps its bits on any number of CPUs.
Both take the damping factor exp(-alpha dt/2) and kappa from the package's
``exp`` (``dw_damping``, which ``_kernel.damping`` wraps), so a step's bits
do not depend on NumPy's dispatch.  C returns one flag that says every check passed, the window, the
largest face speed and the largest |u|.  When the flag is clear, ``step``
runs ``_numpy_step`` on the same state and dt, which raises the error of the
check that failed, naming its domain cell.  A state a C step made keeps the
C pointers to its rows (``SimState._cells``), and the next step reuses them
while its ``v`` and ``u`` are still those rows.

The solver works in the mass (Lagrangian) coordinate throughout;
``lagrangian_transform`` maps Eulerian initial data into that frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .closures import (ModelClosure, _require_positive, _require_real, face_combine,
                       wave_speed_bound)
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


def _require(error: str | None) -> None:
    """Raise ValueError(error) unless the rules held: ``error`` is None or empty."""
    if error:
        raise ValueError(error)


def _cells_error(n_cells) -> str | None:
    if not n_cells >= 1:
        return f"n_cells must be at least 1, not {n_cells!r}"


def _require_finite(v, u) -> None:
    finite = np.isfinite(v) & np.isfinite(u)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"cell {i} is not finite: v={float(v[i])!r}, u={float(u[i])!r}")


def _finite_error(name: str, value) -> str | None:
    if not math.isfinite(value):
        return f"{name} must be finite, not {value!r}"


def _cfl_error(cfl) -> str | None:
    """The CFL number of ``ScenarioSpec``, ``cfl_dt`` and ``advance``: 0 < cfl < 1."""
    if not 0.0 < cfl < 1.0:
        return f"cfl must lie in (0, 1), not {cfl!r}"


class BlowUpError(RuntimeError):
    """Raised when the numerical solution leaves the physical regime."""


class InitialDataError(ValueError):
    """Raised when a scenario's initial data does not fit its domain or state box."""


@dataclass
class SimState:
    """Cell-averaged (v, u) on a uniform grid at one instant.

    The ends are finite floats with x_left < x_right, and v and u are
    contiguous float64 rows of n_cells finite values (a list or an integer
    array is converted), as the compiled step reads them, with v > 0.
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
        _require(_cells_error(self.n_cells))
        self.x_left, self.x_right = float(self.x_left), float(self.x_right)
        if not -math.inf < self.x_left < self.x_right < math.inf:
            raise ValueError(f"the domain ends must be finite with x_left < x_right, "
                             f"not {self.x_left!r}, {self.x_right!r}")
        self.v = np.ascontiguousarray(self.v, dtype=float)
        self.u = np.ascontiguousarray(self.u, dtype=float)
        if self.v.shape != (self.n_cells,) or self.u.shape != (self.n_cells,):
            raise ValueError("field length must equal n_cells")
        _require_finite(self.v, self.u)
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

    def __post_init__(self):
        _require(_finite_error("perturbation amplitude", self.amplitude)
                 or _finite_error("perturbation center", self.center))
        _require_positive("perturbation width", self.width)

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
    [-1, 1]; it takes no part in ``==`` or ``repr``.  Construction raises
    one ValueError naming every rule of ``__post_init__`` that fails.
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
        errors = [_cells_error(self.n_cells), _cfl_error(self.cfl),
                  *(_finite_error(name, getattr(self, name))
                    for name in ("v_minus", "v_plus", "u_minus", "u_plus"))]
        if not 0.0 <= self.end_time < math.inf:
            errors.append(f"end_time must be finite and >= 0, not {self.end_time!r}")
        if not (self.x_max is None or 0.0 < self.x_max < math.inf):
            errors.append(f"x_max must be None or positive and finite, not {self.x_max!r}")
        strength, amplitude = self.wave_strength, self.perturbation.amplitude
        # a non-finite strength is reported once, by its far field's finite rule
        if MAX_WAVE_STRENGTH < strength < math.inf:
            errors.append(f"wave strength {strength:g} exceeds the smallness cap "
                          f"{MAX_WAVE_STRENGTH}")
        if abs(amplitude) > MAX_PERTURBATION_AMPLITUDE:
            errors.append(f"perturbation amplitude {amplitude:g} exceeds the smallness "
                          f"cap {MAX_PERTURBATION_AMPLITUDE}")
        _require("; ".join(filter(None, errors)))
        corr = CorrectionField(self.u_minus, self.u_plus, self.closure.alpha, _UNIT_BUMP)
        object.__setattr__(self, "corr", corr)

    @property
    def wave_strength(self) -> float:
        """delta = |v_plus - v_minus| + |u_plus - u_minus|."""
        return abs(self.v_plus - self.v_minus) + abs(self.u_plus - self.u_minus)

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
    max|lambda(v, u)|.  ``step`` rejects a Courant number above 1, and this
    a cfl outside (0, 1).
    """
    _require(_cfl_error(cfl))
    amax = state.speed_bound
    if amax is None:
        amax = float(wave_speed_bound(state.closure, state.v, state.u).max())
    if amax <= 0.0:
        raise ValueError("vanishing wave speed; cannot set a CFL step")
    return cfl * state.dx / amax


def step(state: SimState, dt: float) -> SimState:
    """One Strang-split step of size dt, 0 < dt < inf.

    The ghost cells copy the edge cells, so the far field follows its own
    damped law and the step needs no far-field data.  A built-in closure
    steps in C on the window of cells whose stencil is not bitwise uniform,
    any other on ``_numpy_step`` (module docstring); error messages name
    domain cells.  The successor state records the largest face speed of the
    step as its ``speed_bound``, carries the running ``max_abs_u`` forward,
    and, from a C step, keeps the pointers to its rows for the next step.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"the time step dt must be positive and finite, not {dt!r}")
    closure = state.closure
    if closure.builtin is None:
        v, u, speed_bound, u_max = _numpy_step(state, dt)
        cells = None
    else:
        ok, st, cells = _kernel.step(closure, state.v, state.u, dt, state.dx, state._cells)
        if not ok:
            _numpy_step(state, dt)  # raises the error of the check that failed
            raise RuntimeError(f"the compiled step of dt={dt!r} at t={state.t!r} failed a "
                               f"check that its NumPy formulation passes")
        v, u, speed_bound, u_max = cells[0], cells[1], st.speed_bound, st.u_max
    t_new = state.t + dt
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
    fields["v"], fields["u"] = v, u
    fields["_cells"] = cells
    fields["t"] = t_new
    fields["speed_bound"] = speed_bound
    if u_max > state.max_abs_u:
        fields["max_abs_u"] = u_max
    return new


def _faces(closure: ModelClosure, v, u, lam: float):
    """The face states of the cells (v, u) after the MUSCL-Hancock
    predictor, lam = dt / (2 dx): rows (v, u) of the right states of the
    n + 1 faces, then their left states, as ``_step.c`` lays them out.

    Fromm's slope gives the left, then the right edge values of the n cells
    and a ghost cell a side, back to back in one row each, on which p, g and
    f are called once; the face states are those rows without their ends.
    """
    rows = []
    for w in (v, u):
        w = np.concatenate((w[:1], w[:1], w, w[-1:], w[-1:]))
        # a quarter of the difference: the two halvings of Fromm's slope
        half_slope = 0.25 * (w[2:] - w[:-2])
        rows.append(np.concatenate((w[1:-1] - half_slope, w[1:-1] + half_slope)))
    edge_v, edge_u = rows
    s = v.size + 2
    flux = closure.p(edge_v) - closure.g(edge_u) * closure.f(edge_v)
    for row, change in ((edge_v, (edge_u[s:] - edge_u[:s]) * lam),
                        (edge_u, (flux[:s] - flux[s:]) * lam)):
        row[:s] += change
        row[s:] += change
    return edge_v[1:-1], edge_u[1:-1]


def _numpy_step(state: SimState, dt: float):
    """The step of dt from state in NumPy on the full width, in
    ``_step.c``'s operations and order: the successor's (v, u, speed_bound,
    u_max), or the error of the first check that fails, in the order of the
    scheme: the reconstruction (a face row's NaN-propagating minimum of v is
    <= 0), hyperbolicity (left face states, then right), the Courant number
    dt * speed_bound / dx, then the new cells, non-finite, then v <= 0.
    """
    closure, v, u, dx = state.closure, state.v, state.u, state.dx
    _kernel.check_cells(v, u)
    half_damp, kappa = _kernel.damping(0.5 * closure.alpha * dt)
    dt_dx = dt / dx
    with np.errstate(all="ignore"):  # the checks below name what went wrong
        u = u * half_damp
        face_v, face_u = _faces(closure, v, u, 0.5 * dt / dx)
        m = v.size + 1
        v_r, v_l, u_r, u_l = face_v[:m], face_v[m:], face_u[:m], face_u[m:]
        if v_l.min() <= 0.0 or v_r.min() <= 0.0:
            face = int(np.argmax((v_l <= 0.0) | (v_r <= 0.0)))
            raise BlowUpError(f"negative specific volume in reconstruction near cell "
                              f"{face} at t={state.t:.6g}")
        flux, speed, disc = face_combine(closure, face_v, face_u)
        _require_real(v_l, u_l, disc[m:])
        _require_real(v_r, u_r, disc[:m])
        # np.maximum(a_l, a_r) as C takes it: NaN propagates, a tie keeps a_r
        a = np.where((speed[m:] > speed[:m]) | np.isnan(speed[m:]), speed[m:], speed[:m])
        speed_bound = float(a.max())
        courant = dt * speed_bound / dx
        if courant > 1.0:
            raise BlowUpError(f"Courant number {courant:.6g} exceeds 1 at t={state.t:.6g}")
        flux_v = (0.5 * kappa) * (-u_l - u_r) - (0.5 * a) * (v_r - v_l)
        flux_u = 0.5 * (flux[m:] + flux[:m]) - (0.5 * a) * (u_r - u_l)
        v_new = v - dt_dx * (flux_v[1:] - flux_v[:-1])
        u_new = (u - dt_dx * (flux_u[1:] - flux_u[:-1])) * half_damp
        t_new = state.t + dt
        for bad, what in ((~(np.isfinite(v_new) & np.isfinite(u_new)), "non-finite state in"),
                          (v_new <= 0.0, "vacuum reached in")):
            if bad.any():
                raise BlowUpError(f"{what} cell {int(np.argmax(bad))} at t={t_new:.6g}")
    return v_new, u_new, speed_bound, float(np.abs(u_new).max())


def advance(state: SimState, t_end: float, cfl: float) -> SimState:
    """Step ``state`` to a finite ``t_end`` at the CFL time step, 0 < cfl < 1.

    The last step is shortened to land on ``t_end``; a state already
    within 1e-12 of it is returned as is, and an earlier ``t_end`` is an
    error.
    """
    if not (math.isfinite(t_end) and t_end >= state.t - 1e-12):
        raise ValueError(f"t_end must be finite and not before t={state.t!r}, not {t_end!r}")
    _require(_cfl_error(cfl))
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
