"""Self-similar diffusion-wave profile and its space-time derivatives.

In the long-time limit the damped system relaxes to the solution of the
nonlinear diffusion equation v_t = -(1/alpha) p(v)_xx, whose unique
monotone connection between far-field states v_minus and v_plus is the
self-similar wave

    vbar(x, t) = phi(x / sqrt(1+t)),

where the profile phi solves the two-point boundary value problem

    (p'(phi) phi')' = (alpha/2) * xi * phi',   phi(-inf) = v_minus,
                                               phi(+inf) = v_plus.

The associated Darcy velocity is ubar = -p(vbar)_x / alpha.

``solve_profile`` discretizes the truncated problem with a conservative
finite-difference stencil and damped Newton iteration (tridiagonal
Jacobian, solved with partial pivoting in the compiled library).
``WaveProfile.deriv`` interpolates the profile between the grid nodes by
cubic Hermite pieces.  Space-time derivatives of vbar up to total order four
are assembled from the profile derivatives in ``eval_vbar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernel
from .closures import ModelClosure, _require_positive

__all__ = [
    "WaveProfile",
    "TailFit",
    "ProfileSolverError",
    "solve_profile",
    "check_profile_arguments",
    "flux_relation_check",
    "eval_vbar",
    "eval_ubar",
    "verify_gaussian_tail",
]


class ProfileSolverError(RuntimeError):
    """Raised when the Newton iteration fails to converge."""


@dataclass
class WaveProfile:
    """Discretized self-similar profile with derivatives up to order four."""

    xi_grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    d3phi: np.ndarray
    d4phi: np.ndarray
    v_minus: float
    v_plus: float
    closure: ModelClosure
    residual: float = 0.0
    _hermite: dict = field(default_factory=dict, repr=False)

    @property
    def alpha(self) -> float:
        """The damping constant: the closure's alpha."""
        return self.closure.alpha

    @property
    def xi_max(self) -> float:
        return float(self.xi_grid[-1])

    @property
    def is_constant(self) -> bool:
        return self.v_minus == self.v_plus

    def deriv(self, xi, order: int = 0):
        """Cubic-interpolated profile derivative of given order at xi.

        The interpolant is cubic Hermite on each grid cell, with the node
        values and the nodes' slopes from ``_first_derivative``; its
        coefficients are built once per order, and a point finds its cell
        by arithmetic on the uniform grid, in one C loop
        (``_kernel.hermite``) with the operations of the NumPy formula
        ``tests/test_diffusion_wave.py`` keeps as its oracle.  Outside the
        computed window the profile is clamped to its asymptotic constants:
        phi -> v_minus / v_plus and all derivatives -> 0.  NaN gives NaN.
        Returns xi's shape; a scalar gives a float.
        """
        if order not in (0, 1, 2, 3, 4):
            raise ValueError("derivative order must be in 0..4")
        args = self._hermite.get(order)
        if args is None:
            lo, hi = float(self.xi_grid[0]), float(self.xi_grid[-1])
            h = (hi - lo) / (self.xi_grid.size - 1)
            data = (self.phi, self.dphi, self.d2phi, self.d3phi, self.d4phi)[order]
            coef = _hermite_coefficients(data, h)
            far = (self.v_minus, self.v_plus) if order == 0 else (0.0, 0.0)
            args = self._hermite[order] = (coef, lo, hi, h, *far)
        return _kernel.hermite(xi, *args)


@dataclass(frozen=True)
class TailFit:
    """Fitted Gaussian envelope C |v_plus - v_minus| exp(-c xi^2)."""

    c_decay: float
    prefactor: float
    max_rel_residual: float


def _ode_derivatives(closure, alpha, xi, phi, dphi):
    """phi'', phi''', phi'''' from repeated differentiation of the ODE.

    The profile equation gives phi'' in closed form:

        phi'' = ((alpha/2) xi phi' - p''(phi) phi'^2) / p'(phi)

    and differentiating twice more expresses the third and fourth
    derivatives through (phi, phi') as well, which avoids amplifying
    grid noise through repeated numerical differencing.
    """
    p1 = closure.dp(phi)
    p2 = closure.d2p(phi)
    p3 = closure.d3p(phi)
    p4 = closure.d4p(phi)
    a2 = 0.5 * alpha

    d2 = (a2 * xi * dphi - p2 * dphi**2) / p1
    d3 = (a2 * dphi + a2 * xi * d2 - p3 * dphi**3 - 3.0 * p2 * dphi * d2) / p1
    d4 = (
        2.0 * a2 * d2
        + a2 * xi * d3
        - p4 * dphi**4
        - 6.0 * p3 * dphi**2 * d2
        - 3.0 * p2 * d2**2
        - 4.0 * p2 * dphi * d3
    ) / p1
    return d2, d3, d4


def _first_derivative(arr: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered first derivative, one-sided at the edges.

    The edge nodes use fourth-order one-sided stencils too.  The profile
    solve and the perturbation diagnostics share this stencil.
    """
    d = np.empty_like(arr)
    d[2:-2] = (-arr[4:] + 8.0 * arr[3:-1] - 8.0 * arr[1:-3] + arr[:-4]) / (12.0 * h)
    # 4th-order one-sided stencils for the four edge nodes
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    d[0] = np.dot(c, arr[:5]) / h
    d[1] = np.dot(c, arr[1:6]) / h
    d[-1] = -np.dot(c, arr[-5:][::-1]) / h
    d[-2] = -np.dot(c, arr[-6:-1][::-1]) / h
    return d


def _hermite_coefficients(y: np.ndarray, h: float) -> np.ndarray:
    """(4, n - 1) coefficients of the cubic Hermite interpolant of the node
    values y on a uniform grid of step h, in powers of the cell's local
    coordinate t in [0, 1]; the node slopes are ``_first_derivative``'s."""
    m = h * _first_derivative(y, h)
    dy = np.diff(y)
    return np.array([y[:-1], m[:-1], 3.0 * dy - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * dy])


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of the samples y on a uniform grid of step h, 0 at
    the first node.

    Each cell takes the integral of the quadratic through its nodes and one
    neighbour: the first cell of each pair through the next node, the
    second through the previous one.  A pair then sums to Simpson's rule, so
    the value at every even node is composite Simpson.  With an odd number
    of cells the last one takes the quadratic through the last three nodes.
    Two samples take the trapezoid rule.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return np.concatenate(([0.0], np.cumsum(0.5 * h * (y[1:] + y[:-1]))))
    first = 5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]  # cell i from nodes i, i+1, i+2
    second = 8.0 * y[1:-1] + 5.0 * y[2:] - y[:-2]  # cell i+1 from the same nodes
    cells = np.empty(y.size - 1)
    paired = cells.size - cells.size % 2
    cells[:paired:2] = first[:paired:2]
    cells[1:paired:2] = second[:paired:2]
    if paired < cells.size:
        cells[-1] = second[-1]
    return np.concatenate(([0.0], np.cumsum(cells * (h / 12.0))))


def _stencil_residual(closure, alpha, xi, phi, h):
    """Conservative second-order residual at the interior nodes."""
    mid = 0.5 * (phi[1:] + phi[:-1])
    w = closure.dp(mid) * np.diff(phi) / h
    return (w[1:] - w[:-1]) / h - (0.25 * alpha / h) * xi[1:-1] * (phi[2:] - phi[:-2])


def _stencil_jacobian(closure, alpha, xi, phi, h):
    """Tridiagonal Jacobian of ``_stencil_residual``: its sub-, main and
    superdiagonal."""
    mid = 0.5 * (phi[1:] + phi[:-1])
    dpm = closure.dp(mid)
    d2pm = closure.d2p(mid)
    diffs = np.diff(phi) / h
    # dW/d(left), dW/d(right) for each face flux W = p'(mid) * diff
    dw_left = (0.5 * d2pm * diffs * h - dpm) / h
    dw_right = (0.5 * d2pm * diffs * h + dpm) / h

    conv = 0.25 * alpha * xi[1:-1] / h
    lower = -dw_left[:-1] / h + conv          # dR_i/dphi_{i-1}
    diag = (dw_left[1:] - dw_right[:-1]) / h  # dR_i/dphi_i
    upper = dw_right[1:] / h - conv           # dR_i/dphi_{i+1}
    return lower[1:], diag, upper[:-1]


def _correction_term(closure, alpha, xi, phi, h):
    """Leading truncation defect of the second-order stencil.

    Estimated as the difference between a fourth-order evaluation of
    (p'(phi) phi')' - (alpha/2) xi phi' and the second-order stencil on
    the current iterate.  Subtracting it from the Newton target yields a
    defect-corrected solution with fourth-order accuracy while reusing
    the same tridiagonal Jacobian.
    """
    dphi = _first_derivative(phi, h)
    flux = closure.dp(phi) * dphi
    dflux = _first_derivative(flux, h)
    r4 = dflux[1:-1] - 0.5 * alpha * xi[1:-1] * dphi[1:-1]
    r2 = _stencil_residual(closure, alpha, xi, phi, h)
    return r2 - r4


def check_profile_arguments(closure: ModelClosure | None, v_minus, v_plus, n_cells) -> None:
    """``solve_profile``'s argument check, which a config runs without solving:
    n_cells >= 64 and each finite far field inside the closure's ``v_range``,
    the last rule skipped for a closure of None (one that failed to build).
    A non-finite far field is its owner's to report: ``ScenarioSpec``'s in a
    config, ``solve_profile``'s own otherwise."""
    if not n_cells >= 64:
        raise ValueError(f"n_cells must be at least 64, not {n_cells!r}")
    if closure is None:
        return
    lo, hi = closure.v_range
    if any(math.isfinite(v) and not lo <= v <= hi for v in (v_minus, v_plus)):
        raise ValueError(f"far-field states ({v_minus}, {v_plus}) outside admissible "
                         f"v_range {closure.v_range}")


def solve_profile(
    closure: ModelClosure,
    v_minus: float,
    v_plus: float,
    *,
    xi_max: float | None = None,
    n_cells: int = 4096,
    max_iter: int = 60,
    defect_correction: bool = True,
) -> WaveProfile:
    """Solve the self-similar profile two-point boundary value problem.

    Discretization: conservative second-order finite differences on a
    uniform grid over [-xi_max, xi_max] with Dirichlet data v_minus /
    v_plus, solved by damped Newton with a tridiagonal solve with partial
    pivoting (the Jacobian is not diagonally dominant).
    With ``defect_correction`` (default) the converged solution is
    polished by defect-corrected Newton sweeps that cancel the leading
    truncation term, raising the solution accuracy to fourth order.

    The damping constant is the closure's ``alpha``.  The reported
    ``residual`` is the max-norm algebraic residual of the system actually
    solved.  Newton stops below 1e-10, or below the rounding level of the
    stencil where that is higher; it scales like eps / h^2.

    Higher derivatives are produced analytically from the ODE, not by
    repeated differencing of phi.

    Arguments that ``check_profile_arguments`` refuses, a far field that is
    not finite, or an xi_max that is not positive and finite, raise
    ValueError; a Newton iteration that does not converge (a NaN residual
    included) raises ProfileSolverError.
    """
    check_profile_arguments(closure, v_minus, v_plus, n_cells)
    for name, value in (("v_minus", v_minus), ("v_plus", v_plus)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")
    alpha = closure.alpha
    if xi_max is None:
        xi_max = 12.0 / np.sqrt(alpha)
    else:
        _require_positive("xi_max", xi_max)

    n_nodes = n_cells + 1
    xi = np.linspace(-xi_max, xi_max, n_nodes)
    h = xi[1] - xi[0]

    if v_minus == v_plus:
        # Degenerate constant state: profile is exactly flat.
        zeros = np.zeros(n_nodes)
        return WaveProfile(
            xi_grid=xi,
            phi=np.full(n_nodes, float(v_minus)),
            dphi=zeros,
            d2phi=zeros.copy(),
            d3phi=zeros.copy(),
            d4phi=zeros.copy(),
            v_minus=float(v_minus),
            v_plus=float(v_plus),
            closure=closure,
        )

    lo, hi = min(v_minus, v_plus), max(v_minus, v_plus)
    # erf-shaped initial guess with the linearized similarity width
    diffusivity = -closure.dp(0.5 * (v_minus + v_plus))
    c0 = np.sqrt(alpha / (4.0 * diffusivity))
    phi = v_minus + (v_plus - v_minus) * 0.5 * (1.0 + _kernel.erf(c0 * xi))
    phi[0] = v_minus
    phi[-1] = v_plus

    # The stencil divides O(eps)-sized rounding in phi by h^2; residuals
    # below that floor are unattainable in double precision.
    pscale = max(abs(closure.dp(lo)), abs(closure.dp(hi))) * max(hi, 1.0)
    tol_eff = max(1e-10, 100.0 * np.finfo(float).eps * pscale / h**2)

    def newton(phi, target, max_iter):
        res = _stencil_residual(closure, alpha, xi, phi, h) - target
        rnorm = np.max(np.abs(res))
        for _ in range(max_iter):
            if rnorm < tol_eff:
                return phi, rnorm
            jac = _stencil_jacobian(closure, alpha, xi, phi, h)
            delta = _kernel.tridiagonal_solve(*jac, -res)
            step = 1.0
            while step >= 1e-6:
                cand = phi.copy()
                cand[1:-1] += step * delta
                if np.all(cand[1:-1] > 0.0):
                    cres = _stencil_residual(closure, alpha, xi, cand, h) - target
                    cnorm = np.max(np.abs(cres))
                    if cnorm < rnorm:
                        phi, res, rnorm = cand, cres, cnorm
                        break
                step *= 0.5
            else:
                break
        if not rnorm < tol_eff:
            raise ProfileSolverError(
                f"Newton failed to reach tol={tol_eff:g}; last residual {rnorm:.3e}"
            )
        return phi, rnorm

    phi, rnorm = newton(phi, 0.0, max_iter)

    if defect_correction:
        # Defect-corrected sweeps: converge on R2(phi) = tau(phi), where
        # tau is the truncation estimate of the current iterate.
        for _ in range(3):
            target = _correction_term(closure, alpha, xi, phi, h)
            phi, rnorm = newton(phi, target, max_iter)

    phi = np.clip(phi, lo, hi)
    phi[0], phi[-1] = v_minus, v_plus

    dphi = _first_derivative(phi, h)
    d2, d3, d4 = _ode_derivatives(closure, alpha, xi, phi, dphi)

    return WaveProfile(
        xi_grid=xi,
        phi=phi,
        dphi=dphi,
        d2phi=d2,
        d3phi=d3,
        d4phi=d4,
        v_minus=float(v_minus),
        v_plus=float(v_plus),
        closure=closure,
        residual=float(rnorm),
    )


def flux_relation_check(profile: WaveProfile, xi0: float, xi1: float) -> float:
    """Relative mismatch in the once-integrated form of the profile ODE.

    Integrating the profile equation between xi0 and xi1 yields

        phi'(xi1) = phi'(xi0) * p'(phi(xi0)) / p'(phi(xi1))
                    * exp( int_{xi0}^{xi1} alpha*eta / (2 p'(phi(eta))) deta ),

    an identity any valid profile must satisfy.  The integral is taken by
    ``_cumulative_simpson`` on the solver grid (endpoints snapped to nodes).
    Returns |lhs - rhs| / max(|lhs|, |rhs|); a constant profile returns 0
    by convention.
    """
    if profile.is_constant:
        return 0.0
    xi = profile.xi_grid
    i0 = int(np.argmin(np.abs(xi - xi0)))
    i1 = int(np.argmin(np.abs(xi - xi1)))
    if i0 == i1:
        return 0.0
    if i0 > i1:
        i0, i1 = i1, i0
    closure = profile.closure
    seg = xi[i0 : i1 + 1]
    integrand = 0.5 * profile.alpha * seg / closure.dp(profile.phi[i0 : i1 + 1])
    integral = _cumulative_simpson(integrand, xi[1] - xi[0])[-1]
    lhs = profile.dphi[i1]
    rhs = (
        profile.dphi[i0]
        * closure.dp(profile.phi[i0])
        / closure.dp(profile.phi[i1])
        * np.exp(integral)
    )
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


# Space-time derivative table for vbar(x,t) = phi(x / sqrt(1+t)).
# Each (dx_order, dt_order) entry is a sum of terms
#     coeff * xi^a * phi^(b)(xi) * (1+t)^(-(dx_order/2 + dt_order)),
# stored as (coeff, a, b).
_F = Fraction
_VBAR_TABLE = {
    (0, 0): ((_F(1), 0, 0),),
    (1, 0): ((_F(1), 0, 1),),
    (0, 1): ((_F(-1, 2), 1, 1),),
    (2, 0): ((_F(1), 0, 2),),
    (1, 1): ((_F(-1, 2), 0, 1), (_F(-1, 2), 1, 2)),
    (0, 2): ((_F(3, 4), 1, 1), (_F(1, 4), 2, 2)),
    (3, 0): ((_F(1), 0, 3),),
    (2, 1): ((_F(-1), 0, 2), (_F(-1, 2), 1, 3)),
    (1, 2): ((_F(3, 4), 0, 1), (_F(5, 4), 1, 2), (_F(1, 4), 2, 3)),
    (0, 3): ((_F(-15, 8), 1, 1), (_F(-9, 8), 2, 2), (_F(-1, 8), 3, 3)),
    (4, 0): ((_F(1), 0, 4),),
    (3, 1): ((_F(-3, 2), 0, 3), (_F(-1, 2), 1, 4)),
    (2, 2): ((_F(2), 0, 2), (_F(7, 4), 1, 3), (_F(1, 4), 2, 4)),
    (1, 3): ((_F(-15, 8), 0, 1), (_F(-33, 8), 1, 2), (_F(-3, 2), 2, 3), (_F(-1, 8), 3, 4)),
}


def eval_vbar(profile: WaveProfile, x, t, dx_order: int = 0, dt_order: int = 0):
    """Space-time derivative of the diffusion wave vbar = phi(x/sqrt(1+t)).

    Supports dx_order in 0..4 and dt_order in 0..3 with total order at
    most four.  Outside the profile window the wave equals its far-field
    constants, so every derivative vanishes there.
    """
    key = (int(dx_order), int(dt_order))
    if key not in _VBAR_TABLE:
        raise ValueError(
            f"unsupported derivative orders (dx={dx_order}, dt={dt_order}); "
            "need dx in 0..4, dt in 0..3, dx+dt <= 4"
        )
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("t must be nonnegative")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 and np.ndim(t) == 0
    sqrt1pt = np.sqrt(1.0 + np.asarray(t, dtype=float))
    xi = x / sqrt1pt

    total = dx_order / 2.0 + dt_order
    out = np.zeros(np.broadcast(xi, sqrt1pt).shape)
    for coeff, a, b in _VBAR_TABLE[key]:
        term = float(coeff) * profile.deriv(xi, b)
        if a:
            term = term * xi**a
        out = out + term
    out = out * sqrt1pt ** (-2.0 * total)
    return float(out) if scalar else out


def eval_ubar(profile: WaveProfile, x, t):
    """Darcy velocity ubar = -p'(phi) phi' / (alpha sqrt(1+t)).

    Follows from the momentum balance degenerating to p(vbar)_x =
    -alpha*ubar; decays to zero in both far fields.
    """
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("t must be nonnegative")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 and np.ndim(t) == 0
    sqrt1pt = np.sqrt(1.0 + np.asarray(t, dtype=float))
    xi = x / sqrt1pt
    phi = profile.deriv(xi, 0)
    dphi = profile.deriv(xi, 1)
    out = -profile.closure.dp(phi) * dphi / (profile.alpha * sqrt1pt)
    return float(out) if scalar else out


def verify_gaussian_tail(profile: WaveProfile) -> TailFit:
    """Fit the Gaussian tail envelope of the profile.

    Each tail is fitted by least squares of log|phi'| against xi^2 over
    the band where phi' has dropped to between exp(-9) and exp(-20.25)
    of its peak (phi' is the cleanest Gaussian-decaying quantity; for
    linear pressure it is exactly proportional to exp(-alpha xi^2 / 4)).
    When the domain width matches the decay scale this band is exactly
    xi_max/2 <= |xi| <= 3 xi_max/4; tying it to magnitude instead of
    position keeps the fit on resolvable values for sharply decaying
    profiles and makes the fitted rate insensitive to enlarging the
    domain.  The two tails decay at different Gaussian rates whenever
    p' differs at the two end states; the reported c is the slower one,
    the only single rate that can bound both sides.  The prefactor is
    inflated so that C |v_plus - v_minus| exp(-c xi^2) bounds the full
    deficit |phi - v(+/-)| + sum_k |phi^(k)| on the band, and
    max_rel_residual is the worse of the two per-side fit residuals.
    """
    if profile.is_constant:
        raise ValueError("Gaussian tail fit needs a non-constant profile")
    xi = profile.xi_grid
    rel = np.abs(profile.dphi) / np.max(np.abs(profile.dphi))
    band = (rel <= np.exp(-9.0)) & (rel >= np.exp(-20.25))

    c_sides = []
    max_rel_residual = 0.0
    for side in (xi < 0.0, xi > 0.0):
        window = band & side
        if np.count_nonzero(window) < 16:
            raise ValueError("tail band unresolved; refine the grid or widen xi_max")
        xi2 = xi[window] ** 2
        logd = np.log(np.abs(profile.dphi[window]))
        a = np.vstack([xi2, np.ones_like(xi2)]).T
        (slope, intercept), *_ = np.linalg.lstsq(a, logd, rcond=None)
        if slope >= 0.0:
            raise ValueError("tail fit produced nonpositive decay rate")
        c_sides.append(-float(slope))
        fit = intercept + slope * xi2
        max_rel_residual = max(
            max_rel_residual, float(np.max(np.abs(np.expm1(fit - logd))))
        )

    c = min(c_sides)
    deficit = (
        np.abs(profile.phi - np.where(xi < 0.0, profile.v_minus, profile.v_plus))
        + np.abs(profile.dphi)
        + np.abs(profile.d2phi)
        + np.abs(profile.d3phi)
        + np.abs(profile.d4phi)
    )[band]
    dv = abs(profile.v_plus - profile.v_minus)
    envelope = np.exp(-c * xi[band] ** 2)
    prefactor = float(np.max(deficit / (dv * envelope)))

    return TailFit(c_decay=c, prefactor=prefactor, max_rel_residual=max_rel_residual)
