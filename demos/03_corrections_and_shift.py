"""Correction pair and wave shift: how initial data gets decomposed.

When the far-field velocities differ, the pair (vhat, uhat) absorbs the
exp(-alpha t) velocity mismatch; the shift x0 then recenters the wave so
the leftover perturbation carries zero net mass.  Both are needed before
any decay of the perturbation can be measured.

Run:  python demos/03_corrections_and_shift.py
"""

import numpy as np

from diffwave import eval_vbar, linear_closure, solve_profile
from diffwave.corrections import (
    CorrectionField,
    compute_shift_x0,
    eval_uhat,
    eval_vhat,
    make_mollifier,
    verify_correction_system,
)

moll = make_mollifier("bump", center=0.0, half_width=1.0)
corr = CorrectionField(u_minus=0.0, u_plus=0.1, alpha=1.0, mollifier=moll)

x = np.linspace(-3.0, 3.0, 13)
print("x:      ", np.array2string(x, precision=2))
print("uhat(0):", np.array2string(eval_uhat(corr, x, 0.0), precision=4))
print("vhat(0):", np.array2string(eval_vhat(corr, x, 0.0), precision=4))
print(f"\npair identities residual (exact by construction): "
      f"{verify_correction_system(corr, np.linspace(-4, 4, 801), 0.7):.2e}")

# --- the shift x0 ---------------------------------------------------------
profile = solve_profile(linear_closure(1.0), 1.0, 1.2, n_cells=4096)
grid = np.linspace(-40.0, 40.0, 16001)

clean = eval_vbar(profile, grid, 0.0) + eval_vhat(corr, grid, 0.0)
print(f"\nexact wave data:      x0 = {compute_shift_x0(grid, clean, profile, corr):+.3e}")

shifted = eval_vbar(profile, grid - 1.5, 0.0) + eval_vhat(corr, grid, 0.0)
print(f"wave translated +1.5: x0 = {compute_shift_x0(grid, shifted, profile, corr):+.6f}")

s = (grid - 4.0) / 1.5
bump = 0.02 * np.where(np.abs(s) < 1, np.exp(1 - 1 / np.maximum(1 - s**2, 1e-300)), 0.0)
mass = np.trapezoid(bump, grid)
x0 = compute_shift_x0(grid, clean + bump, profile, corr)
print(f"added bump mass {mass:.5f}: x0 = {x0:+.6f}  (mass / dv = {mass / 0.2:+.6f})")

# --- x0 does not care about the mollifier shape --------------------------
# same initial field, two different decompositions: only the unit mass of
# the mollifier enters the shift
corr_cos = CorrectionField(0.0, 0.1, 1.0, make_mollifier("cosine"))
x0_bmp = compute_shift_x0(grid, clean + bump, profile, corr)
x0_cos = compute_shift_x0(grid, clean + bump, profile, corr_cos)
print(f"\nbump vs cosine mollifier: |x0 difference| = {abs(x0_bmp - x0_cos):.2e}")
