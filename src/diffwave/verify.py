"""Acceptance suite: every verification criterion as a callable check.

Each criterion returns a CriterionResult with scalar evidence; the CLI
``verify`` subcommand prints one line per criterion and the test suite
asserts on the same objects, so there is exactly one implementation of
the pass/fail logic.  Criterion names live in one table,
``CRITERION_NAMES``, keyed by criterion id; it also fixes the order of
``CRITERIA``.

The long decay-rate scenarios (one gas-law, one radiative) are run once,
one after the other, and shared by the conservation, base-rate,
improved-rate, and higher-derivative criteria.  Those rate gates (P5-P8)
take their targets, tolerances and r^2 floor from the rate table in
``diagnostics`` (``RATE_TOLERANCES``, ``R2_THRESHOLD``), the same table
``diffwave rates`` judges with; ``AcceptanceTolerances`` holds every other
threshold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

import numpy as np

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
from .output import write_series_csv
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
    "AcceptanceTolerances",
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


@dataclass(frozen=True)
class AcceptanceTolerances:
    """Pinned pass thresholds of every criterion but the rate gates.

    P5-P8 judge decay exponents against ``diagnostics.RATE_TOLERANCES``.
    """

    profile_max_error: float = 1e-8
    profile_residual: float = 1e-8
    tail_c_target: float = 0.25
    tail_c_tol: float = 0.02
    correction_residual: float = 1e-12
    shift_invariance: float = 1e-8
    translation_error: float = 1e-8
    const_state_error: float = 1e-12
    const_state_steps: int = 10000
    splitting_floor: float = 1e-14
    convergence_order: float = 1.5
    mass_drift: float = 1e-6
    residual_ratio: float = 3.5

    def override(self, updates: dict) -> "AcceptanceTolerances":
        names = {f.name for f in fields(self)}
        bad = sorted(set(updates) - names)
        if bad:
            raise ValueError(f"unknown acceptance tolerance keys: {bad}")
        return replace(self, **updates)


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
    spec, corr = build_scenario(parse_config(f"[scenario]\npreset = {preset}\n"))
    profile = solve_profile(
        spec.closure, spec.v_minus, spec.v_plus, spec.closure.alpha,
        n_cells=spec.n_cells,
    )
    samples = np.arange(0.0, spec.end_time + 0.5, 5.0)
    series = run(spec, profile, corr, samples, store_z=True)
    return spec, corr, profile, series


def check_profile_correctness(tol: AcceptanceTolerances) -> CriterionResult:
    """P1: erf match, discrete residual, monotone bounds, Gaussian tail."""
    from scipy.special import erf

    lin = linear_closure(1.0)
    prof = solve_profile(lin, 1.0, 1.2, 1.0, n_cells=8192)
    exact = 1.0 + 0.2 * 0.5 * (1.0 + erf(prof.xi_grid / 2.0))
    max_err = float(np.max(np.abs(prof.phi - exact)))

    m1p = solve_profile(m1_closure(1.0), 1.0, 1.2, 1.0, n_cells=8192)
    m1_residual = m1p.residual

    lo, hi = 1.0, 1.2
    bounds_ok = bool(np.all(m1p.phi >= lo - 1e-12) and np.all(m1p.phi <= hi + 1e-12))
    noise = 1e-10 * float(np.max(np.abs(m1p.dphi)))
    monotone_ok = bool(np.all(m1p.dphi >= -noise))

    tail = verify_gaussian_tail(prof)
    tail_ok = abs(tail.c_decay - tol.tail_c_target) <= tol.tail_c_tol

    passed = (
        max_err < tol.profile_max_error
        and m1_residual < tol.profile_residual
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


def check_correction_identities(tol: AcceptanceTolerances) -> CriterionResult:
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
    prof = solve_profile(lin, 1.0, 1.2, 1.0, n_cells=4096)
    x = np.linspace(-20.0, 20.0, 31417)
    # centers offset from grid alignment so the support-edge kinks of
    # the cosine shape exercise the worst-case trapezoid error
    corr_b = CorrectionField(0.0, 0.1, 1.0, make_mollifier("bump", 0.0614))
    corr_c = CorrectionField(0.0, 0.1, 1.0, make_mollifier("cosine", 0.1379))
    bump = np.where(
        np.abs(x - 3.0) < 1.0,
        np.exp(1.0 - 1.0 / np.maximum(1.0 - (x - 3.0) ** 2, 1e-300)),
        0.0,
    )
    v0 = eval_vbar(prof, x, 0.0) + 0.01 * bump + eval_vhat(corr_b, x, 0.0)
    shift_diff = abs(
        compute_shift_x0(x, v0, prof, corr_b)
        - compute_shift_x0(x, v0, prof, corr_c)
    )

    a = 1.3
    v0t = eval_vbar(prof, x - a, 0.0) + eval_vhat(corr_b, x, 0.0)
    translation_err = abs(compute_shift_x0(x, v0t, prof, corr_b) + a)

    passed = (
        worst < tol.correction_residual
        and shift_diff < tol.shift_invariance
        and translation_err < tol.translation_error
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


def check_solver_baseline(tol: AcceptanceTolerances) -> CriterionResult:
    """P3: constant-state preservation, splitting order, grid convergence."""
    clo = gamma_law_closure(2.0, 1.0)
    n = 512
    state = SimState(-10.0, 10.0, n, np.full(n, 1.0), np.zeros(n), 0.0, clo)
    dt = cfl_dt(state, 0.45)
    s = state
    for _ in range(tol.const_state_steps):
        s = step(s, dt, 0.0, 0.0)
    const_dev = float(max(np.max(np.abs(s.v - 1.0)), np.max(np.abs(s.u))))

    # splitting error against the exact damping law on a uniform state;
    # the exact-exponential source makes both errors sit at rounding, so
    # the order test passes through the absolute floor
    def damping_error(dt):
        s = SimState(-10.0, 10.0, n, np.full(n, 1.0), np.full(n, 0.1), 0.0, clo)
        while s.t < 1.0 - 1e-12:
            s = step(s, min(dt, 1.0 - s.t), 0.1, 0.1)
        return float(np.max(np.abs(s.u - 0.1 * np.exp(-1.0))))

    e_coarse = damping_error(0.02)
    e_fine = damping_error(0.01)
    splitting_ok = e_fine <= e_coarse / 4.0 + tol.splitting_floor

    # grid convergence on a smooth small-amplitude wave
    profile = solve_profile(clo, 1.0, 1.05, 1.0, n_cells=4096)
    corr = CorrectionField(0.0, 0.0, 1.0, make_mollifier("bump"))

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
        return advance(build_initial_data(spec, profile, corr), 2.0, 0.4, 0.0, 0.0)

    s512, s1024, s2048 = (solve_at(m) for m in (512, 1024, 2048))

    def restrict(fine, factor):
        return fine.reshape(-1, factor).mean(axis=1)

    e1 = np.sqrt(np.mean((restrict(s1024.v, 2) - s512.v) ** 2)
                 + np.mean((restrict(s1024.u, 2) - s512.u) ** 2))
    e2 = np.sqrt(np.mean((restrict(s2048.v, 2) - s1024.v) ** 2)
                 + np.mean((restrict(s2048.u, 2) - s1024.u) ** 2))
    order = float(np.log2(e1 / e2))

    passed = (
        const_dev < tol.const_state_error
        and splitting_ok
        and order >= tol.convergence_order
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


def check_conservation(series, tol: AcceptanceTolerances) -> CriterionResult:
    """P4: conserved perturbation mass along the gas-law run."""
    drift = float(max(abs(m) for m in series.mass_residual))
    return CriterionResult(
        "P4",
        drift < tol.mass_drift,
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


def check_m1_run(series, spec, profile, corr, tol: AcceptanceTolerances) -> CriterionResult:
    """P7: improved rates, admissibility, and residual order for the radiative run."""
    rows = _rate_rows(series, IMPROVED_GATED, l1_condition=True)
    rates_ok = all(r["passed"] for r in rows.values())
    u_max = float(series.final_state.max_abs_u)

    # residual refinement at a post-transient time: snapshots spaced
    # wider than the CFL step so limiter chatter is not amplified by the
    # time difference, and measured in rms where the scheme order shows
    def resid_at(n_cells, t_snap=80.0, spacing=1.0):
        sp = replace(spec, n_cells=n_cells, x_max=60.0, end_time=t_snap + 2 * spacing)
        st = build_initial_data(sp, profile, corr)
        x0 = compute_shift_x0(st.x_centers, st.v, profile, corr)
        snaps = []
        for target in (t_snap, t_snap + spacing, t_snap + 2 * spacing):
            st = advance(st, target, sp.cfl, sp.u_minus, sp.u_plus)
            snaps.append(st)
        return residual_check(tuple(snaps), profile, x0, corr).rms_residual

    ratio = resid_at(1024) / resid_at(2048)

    passed = rates_ok and u_max < 1.0 and ratio >= tol.residual_ratio
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
    profile = solve_profile(clo, 1.0, 1.05, 1.0, n_cells=1024)
    corr = CorrectionField(0.0, 0.0, 1.0, make_mollifier("bump"))
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
    return run(spec, profile, corr, np.linspace(0.0, 3.0, 7), store_z=False)


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


def run_acceptance(
    fast: bool = False,
    tolerances: AcceptanceTolerances | None = None,
    out_dir: str = "verify_out",
):
    """Run the acceptance criteria; returns (results, artifacts dict).

    ``fast`` skips the two long decay scenarios (criteria P4..P8 are
    reported as skipped).
    """
    tol = tolerances or AcceptanceTolerances()
    os.makedirs(out_dir, exist_ok=True)
    results: list[CriterionResult] = []

    results.append(check_profile_correctness(tol))
    results.append(check_correction_identities(tol))
    results.append(check_solver_baseline(tol))

    artifacts = {}
    if fast:
        for cid in ("P4", "P5", "P6", "P7", "P8"):
            results.append(CriterionResult(cid, True, {}, skipped=True))
    else:
        series_g = _run_long_scenario("gamma-default")[3]
        spec_m, corr_m, prof_m, series_m = _run_long_scenario("m1-default")

        write_series_csv(os.path.join(out_dir, "series_gamma.csv"), series_g)
        write_series_csv(os.path.join(out_dir, "series_m1.csv"), series_m)
        artifacts["series_gamma"] = series_g
        artifacts["series_m1"] = series_m

        results.append(check_conservation(series_g, tol))
        results.append(check_base_rates(series_g))
        results.append(check_improved_rates(series_g))
        results.append(check_m1_run(series_m, spec_m, prof_m, corr_m, tol))
        results.append(check_higher_derivatives(series_g))

    results.append(check_determinism(out_dir))
    return results, artifacts
