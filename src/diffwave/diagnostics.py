"""Perturbation fields, norms, conserved mass, and decay-rate verdicts.

The decay targets are phrased for the anti-derivative of the volume
perturbation and the velocity perturbation

    V(x,t) = integral_{-inf}^{x} [ v - vbar(.+x0, t) - vhat ] dy
    z(x,t) = u - ubar(.+x0, t) - uhat,

with the wave shift x0 chosen so the integrand has zero total mass (then
V decays at both ends and its L2 norms make sense).  This module builds
those fields from a solver state, measures their norms, fits and judges
log-log decay exponents, and evaluates the residual of the
second-order-in-time reformulation

    V_tt + (p'(vbar) V_x)_x + alpha V_t = F1 + F2

where F1 collects the Darcy mismatch and pressure nonlinearity and F2
the flux-correction term g(u) f(v).

The rate gates of ``rates`` and of acceptance P5-P8 live here only: the
targets, one tolerance table ``RATE_TOLERANCES``, the r^2 floor
``R2_THRESHOLD`` and one verdict, ``rate_row``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corrections import CorrectionField, eval_uhat, eval_vhat_cell_average
from .diffusion_wave import WaveProfile, _first_derivative, eval_ubar, eval_vbar
from .solver import SimState

__all__ = [
    "PerturbationFields",
    "DiagnosticsSeries",
    "RateFit",
    "ResidualReport",
    "FitError",
    "FitWindowError",
    "build_fields",
    "conserved_mass",
    "field_norms",
    "fit_decay_rate",
    "rate_row",
    "exponent_within",
    "residual_check",
    "theorem_report",
    "time_derivative_norms",
    "BASE_TARGETS",
    "IMPROVED_TARGETS",
    "RATE_TOLERANCES",
    "R2_THRESHOLD",
]

NORM_KEYS = ("l2_V", "l2_Vx", "l2_Vxx", "l2_Vxxx", "l2_z", "l2_zx", "l2_zxx",
             "linf_V", "linf_z")

# Theoretical L2 decay exponents in (1+t): plain compact data, and the
# quarter-power improvement when the combined initial field is integrable.
BASE_TARGETS = {
    "l2_V": 0.0, "l2_Vx": -0.5, "l2_Vxx": -1.0, "l2_Vxxx": -1.5,
    "l2_z": -1.0, "l2_zx": -1.5, "l2_zxx": -2.0,
}
IMPROVED_TARGETS = {k: v - 0.25 for k, v in BASE_TARGETS.items()}

# Allowed distance of a fitted exponent from its target, per quantity, and
# the r^2 every judged fit must reach.
RATE_TOLERANCES = {
    "l2_V": 0.10, "l2_Vx": 0.10, "l2_Vxx": 0.20, "l2_Vxxx": 0.30,
    "l2_z": 0.15, "l2_zx": 0.25, "l2_zxx": 0.40,
}
R2_THRESHOLD = 0.98


class FitError(ValueError):
    """Raised when a decay series cannot be fitted."""


class FitWindowError(FitError):
    """Raised when a fit window holds fewer samples than a fit needs."""


def _deriv2(arr: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order centered second derivative, lower-order at the edges."""
    d = np.empty_like(arr)
    d[2:-2] = (
        -arr[4:] + 16.0 * arr[3:-1] - 30.0 * arr[2:-2] + 16.0 * arr[1:-3] - arr[:-4]
    ) / (12.0 * dx**2)
    d[1] = (arr[2] - 2.0 * arr[1] + arr[0]) / dx**2
    d[-2] = (arr[-1] - 2.0 * arr[-2] + arr[-3]) / dx**2
    d[0] = d[1]
    d[-1] = d[-2]
    return d


@dataclass
class PerturbationFields:
    """V, z and their spatial derivatives on the solver grid at one time."""

    x: np.ndarray
    dx: float
    t: float
    V: np.ndarray
    Vx: np.ndarray     # w = v - vbar(.+x0) - vhat, the integrand of V
    Vxx: np.ndarray
    Vxxx: np.ndarray
    z: np.ndarray
    zx: np.ndarray
    zxx: np.ndarray


def build_fields(
    state: SimState, profile: WaveProfile, x0: float, corr: CorrectionField
) -> PerturbationFields:
    """Assemble the perturbation fields from a solver state.

    V is the cumulative trapezoid of w = v - vbar(.+x0,t) - vhat from the
    left boundary (a surrogate for -infinity; w has decayed there).  vhat
    enters by its cell means, like the cell averages v it is compared with,
    so the mass of w is exact in time.  V_x
    is w itself, higher V derivatives are fourth-order differences of w,
    and the z derivatives are fourth-order differences of z.
    """
    x = state.x_centers
    dx = state.dx
    t = state.t
    w = state.v - eval_vbar(profile, x + x0, t) - eval_vhat_cell_average(corr, x, dx, t)
    z = state.u - eval_ubar(profile, x + x0, t) - eval_uhat(corr, x, t)

    V = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dx)))

    return PerturbationFields(
        x=x,
        dx=dx,
        t=t,
        V=V,
        Vx=w,
        Vxx=_first_derivative(w, dx),
        Vxxx=_deriv2(w, dx),
        z=z,
        zx=_first_derivative(z, dx),
        zxx=_deriv2(z, dx),
    )


def conserved_mass(fields: PerturbationFields) -> float:
    """Total mass of the shifted perturbation, integral of w dx.

    Zero at t = 0 by the choice of x0 and conserved afterwards: the scheme
    conserves the cell sum of v up to the far-field flux, which vhat's cell
    means absorb exactly.  Drift therefore measures mass the scheme gained
    or lost, plus the profile's own mass error (the gas-law runs' P4 drift).
    """
    return float(np.trapezoid(fields.Vx, fields.x))


def _l2(arr: np.ndarray, dx: float) -> float:
    return float(np.sqrt(np.trapezoid(arr**2) * dx))


def field_norms(fields: PerturbationFields) -> dict:
    """L2 norms of V derivatives (k <= 3) and z derivatives (k <= 2)."""
    dx = fields.dx
    return {
        "l2_V": _l2(fields.V, dx),
        "l2_Vx": _l2(fields.Vx, dx),
        "l2_Vxx": _l2(fields.Vxx, dx),
        "l2_Vxxx": _l2(fields.Vxxx, dx),
        "l2_z": _l2(fields.z, dx),
        "l2_zx": _l2(fields.zx, dx),
        "l2_zxx": _l2(fields.zxx, dx),
        "linf_V": float(np.max(np.abs(fields.V))),
        "linf_z": float(np.max(np.abs(fields.z))),
    }


@dataclass
class DiagnosticsSeries:
    """Time series of perturbation diagnostics from one run."""

    x0: float
    t: list = field(default_factory=list)
    norms: dict = field(default_factory=lambda: {k: [] for k in NORM_KEYS})
    mass_residual: list = field(default_factory=list)
    z_fields: list = field(default_factory=list)
    final_state: SimState | None = None

    def append(self, t, norms, mass, z_field=None):
        self.t.append(float(t))
        for k in NORM_KEYS:
            self.norms[k].append(norms[k])
        self.mass_residual.append(float(mass))
        if z_field is not None:
            self.z_fields.append(np.asarray(z_field))

    def times(self) -> np.ndarray:
        return np.asarray(self.t)

    def series(self, key: str) -> np.ndarray:
        return np.asarray(self.norms[key])


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay exponent of one norm series."""

    exponent: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def fit_decay_rate(t, values, window: tuple[float, float]) -> RateFit:
    """Ordinary least squares of log(values) on log(1+t) over a window.

    The fitted slope is the decay exponent; ``rate_row`` judges it.
    Requires at least 8 samples with finite positive values in the window,
    at no fewer than two distinct times.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (t >= window[0]) & (t <= window[1])
    found = int(np.count_nonzero(sel))
    if found < 8:
        raise FitWindowError(
            f"need at least 8 samples in window "
            f"({float(window[0])!r}, {float(window[1])!r}), found {found}"
        )
    if np.unique(t[sel]).size < 2:
        raise FitWindowError(
            f"need at least two distinct times in window "
            f"({float(window[0])!r}, {float(window[1])!r}), found {found} "
            f"samples at t = {float(t[sel][0])!r}"
        )
    if not np.all(np.isfinite(values[sel]) & (values[sel] > 0.0)):
        raise FitError(
            "non-positive or non-finite norm values in fit window (blow-up or underflow)"
        )

    lt = np.log1p(t[sel])
    lv = np.log(values[sel])
    a = np.vstack([lt, np.ones_like(lt)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, lv, rcond=None)
    pred = a @ np.array([slope, intercept])
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - np.mean(lv)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    return RateFit(
        exponent=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        window=(float(window[0]), float(window[1])),
    )


def exponent_within(key: str, exponent: float, l1_condition: bool) -> bool:
    """Whether an exponent of norm ``key`` meets its target within tolerance.

    With the integrability condition the improved rate is optimal and is
    matched two-sidedly; without it the base rate is an upper bound.
    """
    tol = RATE_TOLERANCES[key]
    if l1_condition:
        return bool(abs(exponent - IMPROVED_TARGETS[key]) <= tol)
    return bool(exponent <= BASE_TARGETS[key] + tol)


def rate_row(t, values, key: str, window: tuple[float, float],
             l1_condition: bool = True) -> dict:
    """Fit one norm series; it passes on ``exponent_within`` and ``R2_THRESHOLD``."""
    fit = fit_decay_rate(t, values, window)
    return {
        "quantity": key,
        "exponent": fit.exponent,
        "target": (IMPROVED_TARGETS if l1_condition else BASE_TARGETS)[key],
        "tolerance": RATE_TOLERANCES[key],
        "r_squared": fit.r_squared,
        "passed": exponent_within(key, fit.exponent, l1_condition)
        and fit.r_squared >= R2_THRESHOLD,
    }


def time_derivative_norms(series: DiagnosticsSeries, dx: float) -> dict:
    """L2 norms of z_t, z_xt, z_tt by differencing stored z snapshots.

    Needs uniformly spaced sample times with stored z fields; returns
    arrays aligned with the interior sample times.  Reported, not gated:
    second differences of a numerical solution carry scheme noise that
    masks the steepest tails.
    """
    if len(series.z_fields) < 3:
        raise ValueError("need at least 3 stored z snapshots")
    t = series.times()
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValueError("stored snapshots must be uniformly spaced in time")
    dt = float(dts[0])
    z = np.asarray(series.z_fields)
    z_t = (z[2:] - z[:-2]) / (2.0 * dt)
    z_tt = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dt**2
    out = {
        "t": t[1:-1],
        "l2_zt": np.array([_l2(row, dx) for row in z_t]),
        "l2_ztt": np.array([_l2(row, dx) for row in z_tt]),
        "l2_zxt": np.array([_l2(_first_derivative(row, dx), dx) for row in z_t]),
    }
    return out


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual of the second-order perturbation equation."""

    F1: np.ndarray
    F2: np.ndarray
    residual: np.ndarray
    max_abs_residual: float
    rms_residual: float


def residual_check(
    states: tuple[SimState, SimState, SimState],
    profile: WaveProfile,
    x0: float,
    corr: CorrectionField,
) -> ResidualReport:
    """Evaluate V_tt + (p'(vbar)V_x)_x + alpha V_t - (F1 + F2).

    Takes three consecutive states at uniform spacing; time derivatives
    are centered at the middle state (V_tt as the centered difference of
    z, which is V_t, so only one numerical time-derivative order is
    ever applied to a field; the scheme's grid-scale error would otherwise
    be amplified by the second difference), spatial derivatives are
    centered stencils.  The forcings are

        F1 = (1/alpha) p(vbar)_xt
             - d/dx [ p(v) - p(vbar) - p'(vbar) V_x ]
        F2 = d/dx [ g(u) f(v) ]

    with vbar shifted by x0 and (v, u) the actual numerical fields.
    Edge cells where the stencils degrade are excluded from the norms.
    The rms residual refines at the scheme's order, and P7 gates that
    refinement; the max residual is reported beside it.
    """
    sm, s0, sp = states
    dt1 = s0.t - sm.t
    dt2 = sp.t - s0.t
    if not np.isclose(dt1, dt2, rtol=1e-10):
        raise ValueError("snapshots must be uniformly spaced in time")
    dt = 0.5 * (dt1 + dt2)
    closure = s0.closure
    alpha = closure.alpha
    x = s0.x_centers
    dx = s0.dx

    fm = build_fields(sm, profile, x0, corr)
    f0 = build_fields(s0, profile, x0, corr)
    fp = build_fields(sp, profile, x0, corr)

    V_tt = (fp.z - fm.z) / (2.0 * dt)
    V_t = (fp.V - fm.V) / (2.0 * dt)

    xs = x + x0
    t = s0.t
    vbar = eval_vbar(profile, xs, t)
    vbar_x = eval_vbar(profile, xs, t, 1, 0)
    vbar_t = eval_vbar(profile, xs, t, 0, 1)
    vbar_xt = eval_vbar(profile, xs, t, 1, 1)

    flux_term = _first_derivative(closure.dp(vbar) * f0.Vx, dx)
    lhs = V_tt + flux_term + alpha * V_t

    # F1: analytic mixed derivative of p(vbar) plus pressure nonlinearity
    p_vbar_xt = closure.d2p(vbar) * vbar_t * vbar_x + closure.dp(vbar) * vbar_xt
    nonlin = closure.p(s0.v) - closure.p(vbar) - closure.dp(vbar) * f0.Vx
    F1 = p_vbar_xt / alpha - _first_derivative(nonlin, dx)

    F2 = _first_derivative(closure.g(s0.u) * closure.f(s0.v), dx)

    residual = lhs - (F1 + F2)
    interior = slice(4, -4)
    return ResidualReport(
        F1=F1,
        F2=F2,
        residual=residual,
        max_abs_residual=float(np.max(np.abs(residual[interior]))),
        rms_residual=float(np.sqrt(np.mean(residual[interior] ** 2))),
    )


def theorem_report(
    t,
    norms,
    window: tuple[float, float] | None = None,
    l1_condition: bool = True,
) -> dict:
    """Judge every norm series with ``rate_row``.

    ``t`` holds the sample times and ``norms`` maps each target key
    (``l2_V`` ... ``l2_zxx``) to its series, as ``DiagnosticsSeries``
    (``series.times(), series.norms``) and ``read_series_csv`` provide.
    The default window is the last decade, ``(t[-1]/10, t[-1])``.
    Returns the rows and ``overall_pass``, true when every row passes.
    """
    t = np.asarray(t, dtype=float)
    if window is None:
        window = (t[-1] / 10.0, t[-1])
    rows = [rate_row(t, norms[key], key, window, l1_condition) for key in BASE_TARGETS]
    return {"rows": rows, "window": window, "l1_condition": l1_condition,
            "overall_pass": all(r["passed"] for r in rows)}
