"""End to end: evolve a perturbed wave and fit its decay exponents.

A compactly supported bump is laid on top of the diffusion wave, the
damped system is integrated for a few hundred time units, and the decay
of the anti-derivative field V and velocity perturbation z is fitted on
log-log axes.  With zero-mass-shifted compact data the measured slopes
should sit near the optimal targets -1/4 (V), -3/4 (V_x), -5/4 (z).

This is a trimmed version of the long verification scenario (smaller
grid, shorter horizon), so the fitted slopes land close to, but not
exactly on, the asymptotic values.  Expect a few seconds.

Run:  python demos/04_simulate_and_rates.py
"""

import numpy as np

from diffwave import gamma_law_closure, solve_profile
from diffwave.diagnostics import theorem_report
from diffwave.output import emit_loglog_svg
from diffwave.solver import PerturbationSpec, ScenarioSpec, run

closure = gamma_law_closure(gamma=2.0, alpha=1.0)
profile = solve_profile(closure, 1.0, 1.1, n_cells=8192)

spec = ScenarioSpec(
    closure=closure,
    v_minus=1.0,
    v_plus=1.1,
    perturbation=PerturbationSpec(amplitude=0.01, center=0.0, width=2.0),
    n_cells=4096,
    end_time=300.0,
    cfl=0.45,
)
print(f"wave strength delta = {spec.wave_strength:.3f}, "
      f"domain = [-{spec.domain_half_width():.1f}, {spec.domain_half_width():.1f}]")

# the spec derives its own correction pair (vhat, uhat) from u_minus,
# u_plus and the closure's alpha; here both far-field velocities vanish
series = run(spec, profile, np.arange(0.0, 301.0, 5.0), store_z=False)
print(f"wave shift x0 = {series.x0:+.6f}")
print(f"largest |mass drift| = {max(abs(m) for m in series.mass_residual):.2e}")

report = theorem_report(
    series.times(), series.norms, window=(30.0, 300.0), l1_condition=True
)
print(f"\nfitted decay exponents on t in [30, 300]:")
print(f"{'quantity':10s} {'fitted':>9s} {'target':>8s}  r^2")
for row in report["rows"]:
    print(
        f"{row['quantity']:10s} {row['exponent']:+9.4f} {row['target']:+8.3f}"
        f"  {row['r_squared']:.5f}"
    )

emit_loglog_svg(
    "decay_rates.svg",
    series.times(),
    {k: series.series(k) for k in ("l2_V", "l2_Vx", "l2_z")},
)
print("\nwrote decay_rates.svg (log-log polyline chart)")
