"""Acceptance suite: every verification criterion as a callable check.

Each criterion returns a CriterionResult with scalar evidence; the CLI
``verify`` subcommand prints one line per criterion and the test suite
asserts on the same objects, so there is exactly one implementation of
the pass/fail logic.  Criterion names live in one table,
``CRITERION_NAMES``, keyed by criterion id; it also fixes the order of
``CRITERIA``.

The long decay-rate scenarios (one gas-law, one radiative) are run once,
one after the other, and shared by the conservation, base-rate,
improved-rate, and higher-derivative criteria.  Every gate is a fixed
point: the rate gates (P5-P8) take their targets, tolerances and r^2
floor from the rate table in ``diagnostics`` (``RATE_TOLERANCES``,
``R2_THRESHOLD``), the same table ``diffwave rates`` judges with, and
``GATES`` holds every other threshold.  No run can change them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import _kernel
from .closures import gamma_law_closure, linear_closure, m1_closure
from .config import build_scenario, parse_config
from .corrections import (
    CorrectionField,
    compute_shift_x0,
    eval_vhat,
    make_mollifier,
    verify_correction_system,
)
from .diagnostics import (
    exponent_within,
    fit_decay_rate,
    rate_row,
    residual_check,
    time_derivative_norms,
)
from .diffusion_wave import eval_vbar, solve_profile, verify_gaussian_tail
from .output import make_dir, write_series_csv
from .solver import (
    PerturbationSpec,
    ScenarioSpec,
    SimState,
    advance,
    build_initial_data,
    cfl_dt,
    run,
    step,
)

__all__ = [
    "GATES",
    "CriterionResult",
    "run_acceptance",
    "small_series",
    "CRITERIA",
    "CRITERION_NAMES",
]

RATE_WINDOW = (50.0, 500.0)
# the quantities whose improved rates P6 and P7 gate
IMPROVED_GATED = ("l2_V", "l2_Vx", "l2_z")

CRITERION_NAMES = {
    "P1": "profile matches erf closed form; residual, bounds, Gaussian tail",
    "P2": "correction identities, shift shape-invariance, translation",
    "P3": "constant state exact, splitting second order, grid convergence",
    "P4": "perturbation mass conserved over the long run",
    "P5": "base decay bounds hold for the gas-law scenario",
    "P6": "improved (optimal) decay rates on the gas-law scenario",
    "P7": "radiative closure: improved rates, admissibility, residual order",
    "P8": "second-derivative decay trend (time-derivative family reported)",
    "P9": "byte-identical series artifacts from repeated runs",
}
CRITERIA = tuple(CRITERION_NAMES)

# Pass thresholds of every criterion but the rate gates, which judge decay
# exponents against ``diagnostics.RATE_TOLERANCES``.
GATES = {
    "profile_max_error": 1e-8,  # P1
    "profile_residual": 1e-8,
    "tail_c_target": 0.25,
    "tail_c_tol": 0.02,
    "correction_residual": 1e-12,  # P2
    "shift_invariance": 1e-8,
    "translation_error": 1e-8,
    "const_state_error": 1e-12,  # P3
    "splitting_floor": 1e-14,
    "convergence_order": 1.5,
    "mass_drift": 1e-6,  # P4
    "residual_ratio": 3.5,  # P7
}

# steps of P3's constant-state run: its work, not a gate
CONST_STATE_STEPS = 10000


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    details: dict
    skipped: bool = False

    @property
    def name(self) -> str:
        return CRITERION_NAMES[self.cid]

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"[{status}] {self.cid}: {self.name}"


def _run_long_scenario(preset: str):
    spec, profile = build_scenario(parse_config(f"[scenario]\npreset = {preset}\n"))
    samples = np.arange(0.0, spec.end_time + 0.5, 5.0)
    series = run(spec, profile, samples, store_z=True)
    return spec, profile, series


def check_profile_correctness() -> CriterionResult:
    """P1: erf match, discrete residual, monotone bounds, Gaussian tail."""
    lin = linear_closure(1.0)
    prof = solve_profile(lin, 1.0, 1.2, n_cells=8192)
    exact = 1.0 + 0.2 * 0.5 * (1.0 + _kernel.erf(prof.xi_grid / 2.0))
    max_err = float(np.max(np.abs(prof.phi - exact)))

    m1p = solve_profile(m1_closure(1.0), 1.0, 1.2, n_cells=8192)
    m1_residual = m1p.residual

    lo, hi = 1.0, 1.2
    bounds_ok = bool(np.all(m1p.phi >= lo - 1e-12) and np.all(m1p.phi <= hi + 1e-12))
    noise = 1e-10 * float(np.max(np.abs(m1p.dphi)))
    monotone_ok = bool(np.all(m1p.dphi >= -noise))

    tail = verify_gaussian_tail(prof)
    tail_ok = abs(tail.c_decay - GATES["tail_c_target"]) <= GATES["tail_c_tol"]

    passed = (
        max_err < GATES["profile_max_error"]
        and m1_residual < GATES["profile_residual"]
        and bounds_ok
        and monotone_ok
        and tail_ok
    )
    return CriterionResult(
        "P1",
        passed,
        {
            "erf_max_error": max_err,
            "m1_residual": m1_residual,
            "bounds_ok": bounds_ok,
            "monotone_ok": monotone_ok,
            "tail_c": tail.c_decay,
        },
    )


def check_correction_identities() -> CriterionResult:
    """P2: randomized correction-pair identities and shift properties."""
    rng = np.random.default_rng(20240811)
    worst = 0.0
    xg = np.linspace(-5.0, 5.0, 801)
    for _ in range(100):
        shape = "bump" if rng.random() < 0.5 else "cosine"
        corr = CorrectionField(
            u_minus=float(rng.uniform(-0.5, 0.5)),
            u_plus=float(rng.uniform(-0.5, 0.5)),
            alpha=float(rng.uniform(0.2, 3.0)),
            mollifier=make_mollifier(
                shape, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 2.0))
            ),
        )
        worst = max(worst, verify_correction_system(corr, xg, float(rng.uniform(0, 3))))

    # shift invariance across mollifier shapes: one fixed initial field,
    # two different decompositions.  The unit mollifier mass is the only
    # thing that enters, so the shifts agree up to each shape's trapezoid
    # mass error; the fine grid keeps the cosine support-edge kinks below
    # the gate.
    lin = linear_closure(1.0)
    prof = solve_profile(lin, 1.0, 1.2, n_cells=4096)
    x = np.linspace(-20.0, 20.0, 31417)
    # centers offset from grid alignment so the support-edge kinks of
    # the cosine shape exercise the worst-case trapezoid error
    corr_b = CorrectionField(0.0, 0.1, 1.0, make_mollifier("bump", 0.0614))
    corr_c = CorrectionField(0.0, 0.1, 1.0, make_mollifier("cosine", 0.1379))
    bump = PerturbationSpec(amplitude=0.01, center=3.0, width=1.0)(x)
    v0 = eval_vbar(prof, x, 0.0) + bump + eval_vhat(corr_b, x, 0.0)
    shift_diff = abs(
        compute_shift_x0(x, v0, prof, corr_b)
        - compute_shift_x0(x, v0, prof, corr_c)
    )

    a = 1.3
    v0t = eval_vbar(prof, x - a, 0.0) + eval_vhat(corr_b, x, 0.0)
    translation_err = abs(compute_shift_x0(x, v0t, prof, corr_b) + a)

    passed = (
        worst < GATES["correction_residual"]
        and shift_diff < GATES["shift_invariance"]
        and translation_err < GATES["translation_error"]
    )
    return CriterionResult(
        "P2",
        passed,
        {
            "max_identity_residual": worst,
            "shift_shape_diff": shift_diff,
            "translation_error": translation_err,
        },
    )


def check_solver_baseline() -> CriterionResult:
    """P3: constant-state preservation, splitting order, grid convergence."""
    clo = gamma_law_closure(2.0, 1.0)
    n = 512
    state = SimState(-10.0, 10.0, n, np.full(n, 1.0), np.zeros(n), 0.0, clo)
    dt = cfl_dt(state, 0.45)
    s = state
    for _ in range(CONST_STATE_STEPS):
        s = step(s, dt)
    const_dev = float(max(np.max(np.abs(s.v - 1.0)), np.max(np.abs(s.u))))

    # splitting error against the exact damping law on a uniform state;
    # the exact-exponential source makes both errors sit at rounding, so
    # the order test passes through the absolute floor
    def damping_error(dt):
        s = SimState(-10.0, 10.0, n, np.full(n, 1.0), np.full(n, 0.1), 0.0, clo)
        while s.t < 1.0 - 1e-12:
            s = step(s, min(dt, 1.0 - s.t))
        return float(np.max(np.abs(s.u - 0.1 * np.exp(-1.0))))

    e_coarse = damping_error(0.02)
    e_fine = damping_error(0.01)
    splitting_ok = e_fine <= e_coarse / 4.0 + GATES["splitting_floor"]

    # grid convergence on a smooth small-amplitude wave
    profile = solve_profile(clo, 1.0, 1.05, n_cells=4096)

    def solve_at(n_cells):
        spec = ScenarioSpec(
            closure=clo,
            v_minus=1.0,
            v_plus=1.05,
            perturbation=PerturbationSpec(amplitude=0.005, center=0.0, width=3.0),
            n_cells=n_cells,
            x_max=20.0,  # resolves the bump shoulders at the coarsest grid
            end_time=2.0,
            cfl=0.4,
        )
        return advance(build_initial_data(spec, profile), 2.0, 0.4)

    s512, s1024, s2048 = (solve_at(m) for m in (512, 1024, 2048))

    def restrict(fine, factor):
        return fine.reshape(-1, factor).mean(axis=1)

    e1 = np.sqrt(np.mean((restrict(s1024.v, 2) - s512.v) ** 2)
                 + np.mean((restrict(s1024.u, 2) - s512.u) ** 2))
    e2 = np.sqrt(np.mean((restrict(s2048.v, 2) - s1024.v) ** 2)
                 + np.mean((restrict(s2048.u, 2) - s1024.u) ** 2))
    order = float(np.log2(e1 / e2))

    passed = (
        const_dev < GATES["const_state_error"]
        and splitting_ok
        and order >= GATES["convergence_order"]
    )
    return CriterionResult(
        "P3",
        passed,
        {
            "const_state_dev": const_dev,
            "damping_err_coarse": e_coarse,
            "damping_err_fine": e_fine,
            "convergence_order": order,
        },
    )


def check_conservation(series) -> CriterionResult:
    """P4: conserved perturbation mass along the gas-law run."""
    drift = float(max(abs(m) for m in series.mass_residual))
    return CriterionResult(
        "P4",
        drift < GATES["mass_drift"],
        {"max_mass_drift": drift},
    )


def _rate_rows(series, keys, l1_condition):
    t = series.times()
    return {
        key: rate_row(t, series.series(key), key, RATE_WINDOW, l1_condition)
        for key in keys
    }


def check_base_rates(series) -> CriterionResult:
    """P5: base decay exponents as upper bounds on the gas-law run."""
    rows = _rate_rows(series, ("l2_Vx", "l2_z"), l1_condition=False)
    return CriterionResult(
        "P5",
        all(r["passed"] for r in rows.values()),
        {
            "exp_Vx": rows["l2_Vx"]["exponent"],
            "exp_z": rows["l2_z"]["exponent"],
            "r2_Vx": rows["l2_Vx"]["r_squared"],
            "r2_z": rows["l2_z"]["r_squared"],
        },
    )


def check_improved_rates(series) -> CriterionResult:
    """P6: optimal rates under the integrability condition, two-sided."""
    rows = _rate_rows(series, IMPROVED_GATED, l1_condition=True)
    return CriterionResult(
        "P6",
        all(r["passed"] for r in rows.values()),
        {k: r["exponent"] for k, r in rows.items()},
    )


def check_m1_run(series, spec, profile) -> CriterionResult:
    """P7: improved rates, admissibility, and residual order for the radiative run."""
    rows = _rate_rows(series, IMPROVED_GATED, l1_condition=True)
    rates_ok = all(r["passed"] for r in rows.values())
    u_max = float(series.final_state.max_abs_u)

    # residual refinement at a post-transient time: snapshots spaced
    # wider than the CFL step so the scheme's grid-scale error is not
    # amplified by the time difference, and measured in rms where the
    # scheme order shows
    def resid_at(n_cells, t_snap=80.0, spacing=1.0):
        sp = replace(spec, n_cells=n_cells, x_max=60.0, end_time=t_snap + 2 * spacing)
        st = build_initial_data(sp, profile)
        x0 = compute_shift_x0(st.x_centers, st.v, profile, sp.corr)
        snaps = []
        for target in (t_snap, t_snap + spacing, t_snap + 2 * spacing):
            st = advance(st, target, sp.cfl)
            snaps.append(st)
        return residual_check(tuple(snaps), profile, x0, sp.corr).rms_residual

    ratio = resid_at(1024) / resid_at(2048)

    passed = rates_ok and u_max < 1.0 and ratio >= GATES["residual_ratio"]
    return CriterionResult(
        "P7",
        passed,
        {
            **{k: r["exponent"] for k, r in rows.items()},
            "max_abs_u": u_max,
            "residual_ratio": float(ratio),
        },
    )


def check_higher_derivatives(series) -> CriterionResult:
    """P8: second-derivative trend gated loosely; time family reported.

    The gate is the base ``l2_Vxx`` bound on the exponent alone, without
    an r^2 floor.
    """
    fit_vxx = fit_decay_rate(series.times(), series.series("l2_Vxx"), RATE_WINDOW)
    details = {"exp_Vxx": fit_vxx.exponent}
    try:
        td = time_derivative_norms(series, series.final_state.dx)
        for key in ("l2_zt", "l2_zxt", "l2_ztt"):
            f = fit_decay_rate(td["t"], td[key], RATE_WINDOW)
            details[f"exp_{key[3:]}"] = f.exponent
    except ValueError:
        pass  # snapshots not stored; the gated part stands alone
    return CriterionResult(
        "P8",
        exponent_within("l2_Vxx", fit_vxx.exponent, l1_condition=False),
        details,
    )


def small_series():
    """The small gas-law run, built from scratch: 512 cells to t = 3.

    P9 serializes it twice; ``tests/golden/series_small.csv`` holds its
    committed bytes.
    """
    clo = gamma_law_closure(2.0, 1.0)
    profile = solve_profile(clo, 1.0, 1.05, n_cells=1024)
    spec = ScenarioSpec(
        closure=clo,
        v_minus=1.0,
        v_plus=1.05,
        perturbation=PerturbationSpec(amplitude=0.005, width=2.0),
        n_cells=512,
        x_max=30.0,
        end_time=3.0,
        cfl=0.45,
    )
    return run(spec, profile, np.linspace(0.0, 3.0, 7), store_z=False)


def check_determinism(tmp_dir) -> CriterionResult:
    """P9: two from-scratch small runs serialize to identical bytes."""
    paths = []
    for tag in ("a", "b"):
        path = os.path.join(tmp_dir, f"determinism_{tag}.csv")
        write_series_csv(path, small_series())
        paths.append(path)
    blobs = [open(p, "rb").read() for p in paths]
    return CriterionResult(
        "P9",
        blobs[0] == blobs[1],
        {"bytes": len(blobs[0])},
    )


def run_acceptance(fast: bool = False, out_dir: str = "verify_out"):
    """Run the acceptance criteria; returns (results, artifacts dict).

    ``fast`` skips the two long decay scenarios (criteria P4..P8 are
    reported as skipped).
    """
    make_dir(out_dir)  # fail before the runs, not after
    results: list[CriterionResult] = []

    results.append(check_profile_correctness())
    results.append(check_correction_identities())
    results.append(check_solver_baseline())

    artifacts = {}
    if fast:
        for cid in ("P4", "P5", "P6", "P7", "P8"):
            results.append(CriterionResult(cid, True, {}, skipped=True))
    else:
        series_g = _run_long_scenario("gamma-default")[2]
        spec_m, prof_m, series_m = _run_long_scenario("m1-default")

        write_series_csv(os.path.join(out_dir, "series_gamma.csv"), series_g)
        write_series_csv(os.path.join(out_dir, "series_m1.csv"), series_m)
        artifacts["series_gamma"] = series_g
        artifacts["series_m1"] = series_m

        results.append(check_conservation(series_g))
        results.append(check_base_rates(series_g))
        results.append(check_improved_rates(series_g))
        results.append(check_m1_run(series_m, spec_m, prof_m))
        results.append(check_higher_derivatives(series_g))

    results.append(check_determinism(out_dir))
    return results, artifacts
