"""Mollifier, wave shift, and the exponential correction pair (vhat, uhat).

When the far-field velocities u_minus, u_plus differ, the diffusion wave
alone cannot absorb the initial data: the velocity mismatch decays like
exp(-alpha t) and carries integrable v-mass.  The correction pair

    vhat(x, t) = ((u_plus - u_minus) / (-alpha)) exp(-alpha t) m0(x)
    uhat(x, t) = exp(-alpha t) [u_minus + (u_plus - u_minus) M0(x)]

with a unit-mass mollifier m0 and its cumulative M0 soaks that mismatch
up exactly: vhat_t - uhat_x = 0 and uhat_t = -alpha uhat hold pointwise.

The wave shift x0 is chosen so that the total perturbation mass

    integral of [ v0(x) - vbar(x + x0, 0) - vhat(x, 0) ] dx

vanishes, which makes the anti-derivative of the perturbation decay and
is the quantity conserved by the flow thereafter.  x0 does not depend on
the mollifier shape, only on its unit mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closures import _require_positive
from .diffusion_wave import WaveProfile, _cumulative_simpson, eval_vbar

__all__ = [
    "Mollifier",
    "CorrectionField",
    "make_mollifier",
    "compute_shift_x0",
    "eval_vhat",
    "eval_vhat_cell_average",
    "eval_uhat",
    "verify_correction_system",
]

_CUMULATIVE_NODES = 8193


@dataclass(frozen=True)
class Mollifier:
    """Smooth nonnegative bump with unit integral and compact support."""

    shape: str
    normalization: float
    _center: float = field(repr=False, default=0.0)
    _half_width: float = field(repr=False, default=1.0)
    _cum_x: np.ndarray = field(repr=False, default=None)
    _cum_y: np.ndarray = field(repr=False, default=None)

    def __call__(self, x):
        return self._eval_raw(x) * self.normalization

    def derivative(self, x):
        return self._eval_raw_derivative(x) * self.normalization

    def _scaled(self, x):
        x = np.asarray(x, dtype=float)
        return (x - self._center) / self._half_width

    def _eval_raw(self, x):
        s = self._scaled(x)
        inside = np.abs(s) < 1.0
        if self.shape == "bump":
            ss = np.where(inside, s, 0.0)
            out = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - ss**2, 1.0)), 0.0)
        else:  # cosine
            out = np.where(inside, np.cos(0.5 * np.pi * s) ** 2, 0.0)
        return out if out.ndim else float(out)

    def _eval_raw_derivative(self, x):
        s = self._scaled(x)
        inside = np.abs(s) < 1.0
        ss = np.where(inside, s, 0.0)
        if self.shape == "bump":
            core = np.exp(-1.0 / np.where(inside, 1.0 - ss**2, 1.0))
            out = np.where(
                inside,
                core * (-2.0 * ss) / np.where(inside, (1.0 - ss**2) ** 2, 1.0),
                0.0,
            )
        else:
            out = np.where(inside, -0.5 * np.pi * np.sin(np.pi * ss), 0.0)
        out = out / self._half_width
        return out if out.ndim else float(out)

    def cumulative(self, x):
        """M0(x) = integral of m0 from -infinity to x, in [0, 1]."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        out = np.interp(x, self._cum_x, self._cum_y, left=0.0, right=1.0)
        return float(out) if scalar else out


def make_mollifier(
    shape: str = "bump", center: float = 0.0, half_width: float = 1.0
) -> Mollifier:
    """Build a normalized mollifier of the given shape on the given support.

    ``bump``   : exp(-1/(1-s^2)) on |s| < 1, infinitely smooth at the edges;
                 the normalization constant is the last value of the
                 cumulative table.
    ``cosine`` : cos^2(pi s / 2) on |s| < 1, which integrates to half_width
                 exactly; provided for the shape-invariance check of the
                 wave shift.
    """
    if shape not in ("bump", "cosine"):
        raise ValueError(f"unknown mollifier shape {shape!r}")
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, not {center}")
    _require_positive("half_width", half_width)

    # Cumulative table of the unnormalized shape by Simpson's rule on a fine
    # symmetric grid; interpolation error is far below the quadrature
    # tolerance used in the shift computation.  Its last value is the
    # shape's mass: the bump's normalization (the cosine's mass is
    # half_width exactly).
    moll = Mollifier(shape=shape, normalization=1.0, _center=center, _half_width=half_width)
    xs = np.linspace(center - half_width, center + half_width, _CUMULATIVE_NODES)
    cum = _cumulative_simpson(moll(xs), 2.0 * half_width / (_CUMULATIVE_NODES - 1))
    mass = cum[-1] if shape == "bump" else half_width
    object.__setattr__(moll, "normalization", 1.0 / mass)
    object.__setattr__(moll, "_cum_x", xs)
    object.__setattr__(moll, "_cum_y", cum / cum[-1])
    return moll


@dataclass(frozen=True)
class CorrectionField:
    """Parameters of the exponential correction pair (vhat, uhat)."""

    u_minus: float
    u_plus: float
    alpha: float
    mollifier: Mollifier

    def __post_init__(self):
        _require_positive("alpha", self.alpha)

    @property
    def du(self) -> float:
        return self.u_plus - self.u_minus

    def M0(self, x):
        return self.mollifier.cumulative(x)


def eval_vhat(corr: CorrectionField, x, t):
    """vhat(x,t) = ((u_plus - u_minus) / (-alpha)) exp(-alpha t) m0(x)."""
    return (corr.du / (-corr.alpha)) * np.exp(-corr.alpha * t) * corr.mollifier(x)


def eval_vhat_cell_average(corr: CorrectionField, x, dx: float, t):
    """Mean of vhat over the cells [x - dx/2, x + dx/2]: M0's rise over dx.

    The cell sums telescope, so on a grid covering the mollifier support
    the means carry vhat's mass exactly, where point values carry the
    midpoint rule's error.
    """
    x = np.asarray(x, dtype=float)
    edges = np.append(x - 0.5 * dx, x[-1] + 0.5 * dx)
    scale = (corr.du / (-corr.alpha)) * np.exp(-corr.alpha * t)
    return scale * (np.diff(corr.M0(edges)) / dx)


def eval_vhat_t(corr: CorrectionField, x, t):
    """Analytic time derivative of vhat."""
    return (corr.du / (-corr.alpha)) * (-corr.alpha) * np.exp(-corr.alpha * t) * corr.mollifier(x)


def eval_vhat_x(corr: CorrectionField, x, t):
    """Analytic first spatial derivative of vhat."""
    return (corr.du / (-corr.alpha)) * np.exp(-corr.alpha * t) * corr.mollifier.derivative(x)


def eval_uhat(corr: CorrectionField, x, t):
    """uhat(x,t) = exp(-alpha t) [u_minus + (u_plus - u_minus) M0(x)].

    Interpolates monotonically between u_minus exp(-alpha t) below the
    mollifier support and u_plus exp(-alpha t) above it.
    """
    return np.exp(-corr.alpha * t) * (corr.u_minus + corr.du * corr.M0(x))


def eval_uhat_x(corr: CorrectionField, x, t):
    """Analytic spatial derivative of uhat: exp(-alpha t) (u+ - u-) m0(x)."""
    return np.exp(-corr.alpha * t) * corr.du * corr.mollifier(x)


def verify_correction_system(corr: CorrectionField, x_grid, t: float) -> float:
    """Max residual of the pair's defining identities on a grid.

    Checks vhat_t - uhat_x = 0 and uhat_t + alpha uhat = 0 with analytic
    time derivatives and the analytic mollifier for uhat_x.  Both hold by
    construction, so the residual is pure floating-point rounding.
    """
    x = np.asarray(x_grid, dtype=float)
    r1 = eval_vhat_t(corr, x, t) - eval_uhat_x(corr, x, t)
    uh = eval_uhat(corr, x, t)
    uh_t = -corr.alpha * np.exp(-corr.alpha * t) * (corr.u_minus + corr.du * corr.M0(x))
    r2 = uh_t + corr.alpha * uh
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def compute_shift_x0(
    x_grid, v0, profile: WaveProfile, corr: CorrectionField
) -> float:
    """Shift of the diffusion wave that zeroes the perturbation mass.

    x0 = (1/(v_plus - v_minus)) * integral of
         [ v0(x) - vbar(x, 0) - vhat(x, 0) ] dx

    by composite trapezoid on the sampled grid, which must be uniform.
    vhat enters by its cell means (``eval_vhat_cell_average``), as in
    ``diagnostics.build_fields``, so the mass that x0 zeroes is the mass
    the diagnostics conserve.  The integrand must have decayed at the grid
    ends (compactly supported perturbations do).
    Linearity in the shift makes the shifted mass vanish identically:
    shifting vbar by x0 removes exactly (v_plus - v_minus) * x0 of mass.
    """
    dv = profile.v_plus - profile.v_minus
    if dv == 0.0:
        raise ZeroDivisionError(
            "wave shift undefined for v_plus == v_minus; constant-state "
            "scenarios need no shift"
        )
    x = np.asarray(x_grid, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    dx = (x[-1] - x[0]) / (len(x) - 1)
    if not np.allclose(np.diff(x), dx, rtol=1e-8, atol=0.0):
        raise ValueError("wave shift needs a uniform grid")
    integrand = v0 - eval_vbar(profile, x, 0.0) - eval_vhat_cell_average(corr, x, dx, 0.0)
    return float(np.trapezoid(integrand, x) / dv)
