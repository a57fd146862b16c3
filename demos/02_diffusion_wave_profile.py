"""The self-similar diffusion wave: solving and interrogating the profile.

The large-time shape of the damped system is vbar(x,t) = phi(x/sqrt(1+t))
where phi solves (p'(phi) phi')' = (alpha/2) xi phi' between the two far
field volumes.  For linear pressure the profile is an erf ramp, which
makes a sharp accuracy check; the M1 closure needs the Newton solver.

Run:  python demos/02_diffusion_wave_profile.py
"""

import math

import numpy as np

from diffwave import (
    eval_ubar,
    eval_vbar,
    flux_relation_check,
    linear_closure,
    m1_closure,
    solve_profile,
    verify_gaussian_tail,
)

# --- linear pressure: compare with the closed form ----------------------
lin = solve_profile(linear_closure(1.0), 1.0, 1.2, n_cells=8192)
erf = np.array([math.erf(z) for z in (lin.xi_grid / 2.0).tolist()])
exact = 1.0 + 0.2 * 0.5 * (1.0 + erf)
print(f"linear closure: max |phi - erf form| = {np.max(np.abs(lin.phi - exact)):.3e}")
print(f"phi'(0) = {lin.deriv(0.0, 1):.10f}  (exact {0.2 / (2 * np.sqrt(np.pi)):.10f})")

# --- M1 closure: solver diagnostics --------------------------------------
prof = solve_profile(m1_closure(1.0), 1.0, 1.2, n_cells=8192)
print(f"\nM1 closure: phi(0) = {prof.deriv(0.0, 0):.12f}, residual = {prof.residual:.2e}")
print(f"once-integrated identity mismatch on [-2, 2]: {flux_relation_check(prof, -2.0, 2.0):.2e}")

tail = verify_gaussian_tail(prof)
print(f"Gaussian tail: c = {tail.c_decay:.4f}, envelope prefactor = {tail.prefactor:.1f}")
print("  (slower tail sits on the v_minus side where |p'| is largest)")

# --- the wave and its Darcy velocity at several times --------------------
print("\n   t    vbar(0,t)    ubar(0,t)     d/dx vbar(0,t)")
for t in (0.0, 1.0, 10.0, 100.0):
    print(
        f"{t:6.1f}  {eval_vbar(prof, 0.0, t):.8f}  {eval_ubar(prof, 0.0, t):+.3e}"
        f"   {eval_vbar(prof, 0.0, t, 1, 0):+.3e}"
    )
print("\nthe slope at x=0 shrinks like (1+t)^(-1/2): the wave flattens as it spreads")
