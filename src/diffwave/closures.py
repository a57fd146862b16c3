"""Constitutive closures for the generalized damped p-system.

The system evolves specific volume v > 0 and velocity / normalized flux u:

    v_t - u_x = 0
    u_t + p(v)_x = -alpha*u + (g(u) f(v))_x

A ModelClosure packages the constitutive functions p, g, f with analytic
derivatives, the damping constant alpha and the admissible state box.  Two
physical presets are provided: the two-moment radiative-transfer closure
(``m1_closure``) and the gamma-law gas closure (``gamma_law_closure``).

All evaluators accept scalars or numpy arrays and are pure functions, so a
closure may be shared freely between concurrent workers.

The gamma law's p and its derivatives are ``_PowerLaw`` callables on the
package's own ``pow`` (``_kernel.power``, in ``_step.c``), which gives the
same bits on every CPU.  The transport step recognizes them
(``ModelClosure.builtin_gamma``) and evaluates p and p' in C with the same
routine, so the built-in step, the callables and the profile solver agree to
the bit.  A closure resolves which built-in step it takes, if any, once, when
it is made (``ModelClosure.builtin``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernel

__all__ = [
    "ModelClosure",
    "AssumptionReport",
    "HyperbolicityError",
    "m1_closure",
    "gamma_law_closure",
    "linear_closure",
    "eddington_factor",
    "radiative_pressure_1d",
    "check_assumptions",
    "characteristic_speeds",
    "wave_speed_bound",
]


class HyperbolicityError(ValueError):
    """Raised when a state has no real characteristic speeds."""


@dataclass(frozen=True)
class ModelClosure:
    """Constitutive functions and admissible box for one model.

    ``p``/``dp``/``d2p`` act on v, ``g``/``dg`` on u, ``f``/``df``
    on v.  ``d3p``/``d4p`` give the third and fourth profile derivatives
    analytically; every closure supplies them.

    ``builtin`` is the compiled step's closure and exponent, (DW_M1, 0.0)
    when ``builtin_m1`` holds and (DW_GAMMA, gamma) when ``builtin_gamma``
    does, else None.  It is resolved once, when the closure is made (and
    again by ``dataclasses.replace``), and takes no part in ``==`` or
    ``repr``.
    """

    name: str
    alpha: float
    p: Callable
    dp: Callable
    d2p: Callable
    d3p: Callable = field(repr=False)
    d4p: Callable = field(repr=False)
    g: Callable
    dg: Callable
    f: Callable
    df: Callable
    v_range: tuple[float, float]
    u_range: tuple[float, float]
    builtin: tuple[int, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_positive("damping constant alpha", self.alpha)
        if self.v_range[0] <= 0.0 or self.v_range[0] >= self.v_range[1]:
            raise ValueError("v_range must be a nonempty interval of positive v")
        lib = _kernel.lib
        builtin = ((lib.DW_M1, 0.0) if self.builtin_m1
                   else (lib.DW_GAMMA, self.p.gamma) if self.builtin_gamma else None)
        object.__setattr__(self, "builtin", builtin)

    def admissible(self, v, u) -> bool:
        """True when every (v, u) sample lies inside the admissible box."""
        v = np.asarray(v)
        u = np.asarray(u)
        return bool(
            np.all(v >= self.v_range[0])
            and np.all(v <= self.v_range[1])
            and np.all(u >= self.u_range[0])
            and np.all(u <= self.u_range[1])
        )

    @property
    def correction_free(self) -> bool:
        """True when g, g' are the built-in zero and f, f' the built-in one and zero.

        Then g f, g' f and g f' vanish identically, so p - g f = p and
        p' - g f' = p' hold bit for bit and the solver skips those terms.
        The test is on the callables themselves: a closure built or rebuilt
        with any other g, g', f or f' takes the general path.
        """
        return (
            self.g is _zero
            and self.dg is _zero
            and self.f is _one
            and self.df is _zero
        )

    @property
    def builtin_gamma(self) -> bool:
        """True when the closure is correction-free and p, p' are the built-in
        gamma-law functions of one exponent (``_PowerLaw`` of orders 0 and 1).

        The compiled step then evaluates them in C on the same ``pow`` and
        reads the exponent from ``p.gamma``.  As for ``builtin_m1``, the test
        is on the callables themselves: any other p or p' is called.
        """
        return (
            self.correction_free
            and type(self.p) is _PowerLaw
            and type(self.dp) is _PowerLaw
            and (self.p.order, self.dp.order) == (0, 1)
            and self.p.gamma == self.dp.gamma
        )

    @property
    def builtin_m1(self) -> bool:
        """True when p, p', g, g', f and f' are the built-in m1 functions.

        The compiled step then evaluates them in C, operation for operation
        the same formulas.  As for ``correction_free``, the test is on the
        callables themselves, not on the name: a closure built or rebuilt
        with any other p, p', g, g', f or f' has the step call them.
        """
        return (
            self.p is _m1_p
            and self.dp is _m1_dp
            and self.g is _m1_g
            and self.dg is _m1_dg
            and self.f is _m1_f
            and self.df is _m1_df
        )


@dataclass(frozen=True)
class AssumptionReport:
    """Result of scanning the structural assumptions over a state box."""

    hyperbolic_ok: bool
    sign_ok: bool
    smoothness_ok: bool
    min_discriminant: float
    min_gfprime_minus_pprime: float


def eddington_factor(u):
    """Variable Eddington factor chi(u) = (3 + 4u^2) / (5 + 2 sqrt(4 - 3u^2)).

    Interpolates between the isotropic limit chi(0) = 1/3 and the
    free-streaming limit chi(1) = 1.  Requires |u| <= 1.
    """
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) > 1.0):
        raise ValueError("eddington_factor requires |u| <= 1")
    val = (3.0 + 4.0 * u**2) / (5.0 + 2.0 * np.sqrt(4.0 - 3.0 * u**2))
    return val if val.ndim else float(val)


def radiative_pressure_1d(rho, u):
    """Scalar radiative pressure P = chi(u) * rho in one space dimension.

    The rank-2 pressure tensor collapses to (1/2)((1-chi) + (3chi-1)) rho
    on the line, i.e. P lies between rho/3 (isotropic) and rho (free
    streaming).
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ValueError("radiative energy rho must be nonnegative")
    val = eddington_factor(u) * rho
    return val if np.ndim(val) else float(val)


# The M1 constitutive functions.  None depends on sigma, so every m1 closure
# shares them and ``ModelClosure.builtin_m1`` can recognise them by identity;
# the compiled step evaluates p, p', g, g', f and f' operation for operation.
def _m1_p(v):
    return 1.0 / (3.0 * v)


def _m1_dp(v):
    return -1.0 / (3.0 * v**2)


def _m1_d2p(v):
    return 2.0 / (3.0 * v**3)


def _m1_d3p(v):
    return -2.0 / v**4


def _m1_d4p(v):
    return 8.0 / v**5


def _m1_g(u):
    s = np.sqrt(4.0 - 3.0 * np.asarray(u, dtype=float) ** 2)
    return u**2 * s / (2.0 + s)


def _m1_dg(u):
    u = np.asarray(u, dtype=float)
    u2 = u**2
    s = np.sqrt(4.0 - 3.0 * u2)
    # u2 * u, not u**3: float power of a negative base is a slow scalar path
    return 2.0 * u * s / (2.0 + s) - 6.0 * (u2 * u) / (s * (2.0 + s) ** 2)


def _m1_f(v):
    return 1.0 / np.asarray(v, dtype=float)


def _m1_df(v):
    return -1.0 / np.asarray(v, dtype=float) ** 2


def m1_closure(sigma: float = 1.0) -> ModelClosure:
    """Two-moment radiative-transfer closure in Lagrangian form.

    p(v) = 1/(3v),  g(u) = u^2 sqrt(4-3u^2) / (2 + sqrt(4-3u^2)),
    f(v) = 1/v, with damping constant alpha = sigma (the opacity).

    The default box keeps v away from vacuum and |u| away from the square
    root singularity at |u| = 2/sqrt(3).
    """
    _require_positive("opacity sigma", sigma)
    return ModelClosure(
        name="m1",
        alpha=sigma,
        p=_m1_p,
        dp=_m1_dp,
        d2p=_m1_d2p,
        d3p=_m1_d3p,
        d4p=_m1_d4p,
        g=_m1_g,
        dg=_m1_dg,
        f=_m1_f,
        df=_m1_df,
        v_range=(0.05, 20.0),
        u_range=(-0.99, 0.99),
    )


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {value}")


@dataclass(frozen=True)
class _PowerLaw:
    """The order-th derivative of v^-gamma: c v^(-gamma - order), with
    c = (-gamma)(-gamma - 1) .. (-gamma - order + 1), on the package's pow:
    e^(-gamma log v) / v^order, so every order shares p's log and exp."""

    gamma: float
    order: int

    def __call__(self, v):
        coef = 1.0
        for i in range(self.order):
            coef *= -(self.gamma + i)
        return _kernel.power(v, -self.gamma, self.order, coef)


def gamma_law_closure(gamma: float = 2.0, alpha: float = 1.0) -> ModelClosure:
    """Polytropic gas closure p(v) = v^-gamma with g == 0 and f == 1.

    With g identically zero the flux correction term vanishes and the
    system is exactly the compressible Euler equations with linear
    damping; the sign assumption on g*f' - p' then reduces to -p' > 0.
    """
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"adiabatic exponent gamma must be finite and >= 1, not {gamma}")
    p, dp, d2p, d3p, d4p = (_PowerLaw(float(gamma), order) for order in range(5))
    return ModelClosure(
        name="gamma_law",
        alpha=alpha,
        p=p,
        dp=dp,
        d2p=d2p,
        d3p=d3p,
        d4p=d4p,
        g=_zero,
        dg=_zero,
        f=_one,
        df=_zero,
        v_range=(0.05, 20.0),
        u_range=(-10.0, 10.0),
    )


def linear_closure(alpha: float = 1.0) -> ModelClosure:
    """Linear pressure p(v) = -v with g == 0, f == 1.

    The self-similar profile equation becomes linear and has an erf-shaped
    closed form, which makes this closure the reference case for solver
    validation.
    """

    def p(v):
        return -np.asarray(v, dtype=float)

    def dp(v):
        return -_one(v)

    return ModelClosure(
        name="linear",
        alpha=alpha,
        p=p,
        dp=dp,
        d2p=_zero,
        d3p=_zero,
        d4p=_zero,
        g=_zero,
        dg=_zero,
        f=_one,
        df=_zero,
        v_range=(0.05, 20.0),
        u_range=(-10.0, 10.0),
    )


def check_assumptions(
    closure: ModelClosure,
    v_box: tuple[float, float],
    u_box: tuple[float, float],
    n_samples: int = 256,
) -> AssumptionReport:
    """Scan the structural assumptions over a state box by dense sampling.

    Checks, on an ``n_samples`` x ``n_samples`` grid:

    * sign condition:   inf g(u) f'(v) - p'(v) > 0
    * hyperbolicity:    inf (g'(u) f(v))^2 - 4 (p'(v) - g(u) f'(v)) > 0
    * smoothness/sign:  g(0) = g'(0) = 0 and p' < 0 on the box

    Dense sampling is not a rigorous enclosure, but the closures at hand
    are smooth and the boxes small; 256 points per axis resolves them.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples per axis")
    if v_box[0] > v_box[1] or u_box[0] > u_box[1]:
        raise ValueError("empty state box")

    v = np.linspace(v_box[0], v_box[1], n_samples)
    u = np.linspace(u_box[0], u_box[1], n_samples)
    vv, uu = np.meshgrid(v, u, indexing="ij")

    dp = closure.dp(vv)
    gf_sign = closure.g(uu) * closure.df(vv) - dp
    disc = (closure.dg(uu) * closure.f(vv)) ** 2 - 4.0 * (
        dp - closure.g(uu) * closure.df(vv)
    )

    min_sign = float(np.min(gf_sign))
    min_disc = float(np.min(disc))
    g0 = float(np.asarray(closure.g(0.0)))
    dg0 = float(np.asarray(closure.dg(0.0)))
    smooth = (
        g0 == 0.0
        and dg0 == 0.0
        and bool(np.all(dp < 0.0))
        and bool(np.all(np.isfinite(gf_sign)))
        and bool(np.all(np.isfinite(disc)))
    )

    return AssumptionReport(
        hyperbolic_ok=min_disc > 0.0,
        sign_ok=min_sign > 0.0,
        smoothness_ok=smooth,
        min_discriminant=min_disc,
        min_gfprime_minus_pprime=min_sign,
    )


def characteristic_speeds(closure: ModelClosure, v, u):
    """Real characteristic speeds (lam_minus, lam_plus) of the flux Jacobian.

    The flux (-u, p(v) - g(u) f(v)) has Jacobian eigenvalues solving

        lam^2 + lam * g'(u) f(v) + p'(v) - g(u) f'(v) = 0.

    Raises HyperbolicityError when the discriminant is negative or NaN.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    b = closure.dg(u) * closure.f(v)
    c = closure.dp(v) - closure.g(u) * closure.df(v)
    disc = b * b - 4.0 * c
    ok = np.asarray(disc >= 0.0)
    if not ok.all():
        bad = int(np.argmin(ok))
        vb, ub, db = (float(np.broadcast_to(a, ok.shape).flat[bad]) for a in (v, u, disc))
        raise HyperbolicityError(
            f"hyperbolicity lost at state (v={vb:.6g}, u={ub:.6g}): "
            f"discriminant {db:.6g} is not >= 0"
        )
    root = np.sqrt(disc)
    lam_minus = 0.5 * (-b - root)
    lam_plus = 0.5 * (-b + root)
    if lam_minus.ndim == 0:
        return float(lam_minus), float(lam_plus)
    return lam_minus, lam_plus


def wave_speed_bound(closure: ModelClosure, v, u):
    """Elementwise max |lambda| over both characteristic families.

    The speeds come from the step's compiled face combine
    (``_kernel.flux_and_speed``).  Raises HyperbolicityError like
    ``characteristic_speeds``.
    """
    v, u = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(u, dtype=float))
    result = _kernel.flux_and_speed(closure, v.ravel(), u.ravel())
    if result is None:
        characteristic_speeds(closure, v, u)  # raises the error
    return result[1].reshape(v.shape)
