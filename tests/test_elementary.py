"""The package's exp, pow and erf (``_step.c``, wrapped by ``_kernel``).

``pow``, ``exp`` and the step's damping scalars are built from IEEE basic
operations and explicit fused multiply-adds, so their bits do not depend on
the CPU or on NumPy's SIMD dispatch.  These tests hold them to 1 ulp of
Python's ``decimal`` at 40 digits, pin their special values, and run the
step under NumPy's AVX-512 dispatch switched off.
"""

import math
import os
import subprocess
import sys
import textwrap
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from diffwave import _kernel

SRC = str(Path(_kernel.__file__).parents[1])


def ulps(got, exact):
    """|got - exact| in units of the last place of exact (a normal double)."""
    return abs(Decimal(got) - exact) / Decimal(2) ** (math.frexp(float(exact))[1] - 53)


def worst_ulps(got, exact):
    with localcontext() as ctx:
        ctx.prec = 40
        return max(ulps(g, e()) for g, e in zip(np.ravel(got).tolist(), exact))


# dense in [0.05, 20], denser near 1, where the presets' states lie
V = np.concatenate([np.linspace(0.05, 20.0, 500),
                    np.random.default_rng(7).uniform(0.9, 1.3, 250)])


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_pow_within_one_ulp_of_decimal(gamma):
    """v^(-gamma - k) for k = 0 .. 4, the gamma law's p and its derivatives.
    The exponent is -gamma - k exactly, with gamma the double."""
    for k in range(5):
        y = Decimal(-gamma) - k
        got = _kernel.power(V, -gamma, k)
        assert worst_ulps(got, [lambda v=v: (Decimal(v).ln() * y).exp() for v in V]) < 1


def damping(h):
    """(e^-h, sinh(h)/h) of ``dw_damping``, within 1 ulp: a step's damping
    factor and its mean over the step for h = alpha dt / 2, which
    ``dw_step_scalars`` takes from it.  e^-h is the package's exp for any h."""
    out = _kernel.ffi.new("double[2]")
    _kernel.lib.dw_damping(h, out, out + 1)
    return out[0], out[1]


def exp(x):
    """The package's exp: the damping factor e^-h of h = -x."""
    return np.array([damping(-a)[0] for a in np.ravel(x).tolist()])


def test_exp_within_one_ulp_of_decimal():
    x = np.concatenate([np.linspace(-700.0, 700.0, 1001),
                        np.random.default_rng(8).uniform(-1.0, 1.0, 500)])
    assert worst_ulps(exp(x), [lambda a=a: Decimal(a).exp() for a in x]) < 1


def test_damping_scalars_within_one_ulp_of_decimal():
    """e^-h and kappa = sinh(h)/h on both sides of the series' switch at 0.5."""
    h = np.concatenate([np.linspace(1e-6, 3.0, 600), np.linspace(0.499, 0.501, 41),
                        [1e-12, 1e-3, 50.0, 700.0]])
    decay, kappa = zip(*(damping(a) for a in h.tolist()))
    assert worst_ulps(decay, [lambda a=a: (-Decimal(a)).exp() for a in h]) < 1
    exact = [lambda a=a: (Decimal(a).exp() - (-Decimal(a)).exp()) / (2 * Decimal(a)) for a in h]
    assert worst_ulps(kappa, exact) < 1
    assert damping(0.0) == (1.0, 1.0)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_pow_at_one_is_exactly_one():
    for gamma in (1.0, 1.4, 2.0, 3.0, 2.5e-3, 700.0):
        for k in range(5):
            assert _kernel.power(1.0, -gamma, k) == 1.0


def test_pow_special_values():
    """v in (0, inf) is pow's domain; at its edges the limits from inside,
    with -0 as +0; a negative v or a NaN gives NaN."""
    v = np.array([0.0, -0.0, -1.0, -np.inf, np.nan, np.inf])
    inf, nan = np.inf, np.nan
    for y, order, want in [(-2.0, 0, [inf, inf, nan, nan, nan, 0.0]),
                           (-2.0, 1, [inf, inf, nan, nan, nan, 0.0]),
                           (0.5, 0, [0.0, 0.0, nan, nan, nan, inf]),
                           (0.0, 0, [1.0, 1.0, nan, nan, nan, 1.0])]:
        got = _kernel.power(v, y, order)
        assert np.array_equal(got, want, equal_nan=True), (y, order, got)
    sub = np.array([5e-324, 1e-310, 2.2e-308])  # subnormals, and the largest is normal
    assert np.all(_kernel.power(sub, -2.0) == np.inf)
    assert np.all(_kernel.power(sub, -1.0, 1) == np.inf)
    with localcontext() as ctx:
        ctx.prec = 40
        for y in (-0.5, 0.5):
            for v, got in zip(sub.tolist(), _kernel.power(sub, y).tolist()):
                assert ulps(got, (Decimal(v).ln() * Decimal(y)).exp()) < 1


def test_pow_keeps_the_shape_and_a_scalar():
    got = _kernel.power(np.full((2, 3), 2.0), -2.0, 1, -2.0)
    assert got.shape == (2, 3) and np.all(got == -0.25)  # -2 * 2^(-2 - 1)
    assert type(_kernel.power(2.0, -2.0)) is np.float64


def test_exp_special_values():
    x = np.array([np.nan, np.inf, -np.inf, 710.0, -746.0, 0.0, -0.0, -740.0])
    got = exp(x)
    assert np.isnan(got[0]) and list(got[1:7]) == [np.inf, 0.0, np.inf, 0.0, 1.0, 1.0]
    assert got[7] == math.exp(-740.0)  # subnormal: one rounding of the tiny result
    assert all(np.isnan(damping(np.nan)))


def test_erf_is_math_erf_to_the_bit():
    """One C loop over the C library's erf, the function math.erf calls."""
    x = np.concatenate([np.linspace(-6.0, 6.0, 20001), [0.0, -0.0, np.inf, -np.inf, 1e-300]])
    want = np.array([math.erf(z) for z in x.tolist()])
    assert np.array_equal(bits(_kernel.erf(x)), bits(want))
    assert np.isnan(_kernel.erf(np.array([np.nan]))[0])


STEPS = """
import hashlib, sys
import numpy as np
from diffwave import config, solver

# a state from +, -, *, / and |.| alone: no transcendental call
n = 1024
x = -20.0 + (np.arange(n) + 0.5) * (40.0 / n)
ramp = 0.5 + 0.5 * x / (1.0 + np.abs(x))
bump = 1.0 / (1.0 + x * x)
for preset in ("gamma-default", "m1-default"):
    spec, _ = config.build_scenario(config.parse_config(f"[scenario]\\npreset = {preset}\\n"))
    v = spec.v_minus + (spec.v_plus - spec.v_minus) * ramp + 0.05 * bump
    u = spec.u_minus + (spec.u_plus - spec.u_minus) * ramp + 0.02 * bump
    state = solver.SimState(-20.0, 20.0, n, v, u, 0.0, spec.closure)
    for _ in range(300):
        state = solver.step(state, solver.cfl_dt(state, spec.cfl))
    print(preset, hashlib.sha256(state.v.tobytes() + state.u.tobytes()).hexdigest())
"""

NO_AVX512 = "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"


def test_steps_keep_their_bytes_without_numpys_avx512():
    """300 steps of both presets' closures give the same bytes under NumPy's
    default dispatch and with its AVX-512 dispatch switched off: the step's
    pow, exp and damping scalars are the package's own."""
    runs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": NO_AVX512}):
        env = {**os.environ, "PYTHONPATH": SRC, **extra}
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(STEPS)],
                              capture_output=True, text=True, env=env, timeout=120)
        if proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            pytest.skip(f"this NumPy refuses the variable: {proc.stderr.strip()[-200:]}")
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    assert len(runs[0]) == 4 and runs[0] == runs[1]
