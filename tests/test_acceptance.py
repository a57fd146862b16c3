"""Acceptance suite: every criterion at its pinned tolerance.

Runs the full criterion set once (two long decay scenarios included)
and asserts each result; one PASS/FAIL line per criterion goes to
stdout (visible with ``pytest -s`` or through ``diffwave verify``).
"""

import os
import types

import numpy as np
import pytest

from diffwave import diagnostics, verify
from diffwave.cli import main
from diffwave.verify import run_acceptance


def test_gates_are_fixed_points():
    """Every gate is a literal here: moving one means editing this test."""
    assert verify.GATES == {
        "profile_max_error": 1e-8,
        "profile_residual": 1e-8,
        "tail_c_target": 0.25,
        "tail_c_tol": 0.02,
        "correction_residual": 1e-12,
        "shift_invariance": 1e-8,
        "translation_error": 1e-8,
        "const_state_error": 1e-12,
        "splitting_floor": 1e-14,
        "convergence_order": 1.5,
        "mass_drift": 1e-6,
        "residual_ratio": 3.5,
    }
    assert diagnostics.RATE_TOLERANCES == {
        "l2_V": 0.10, "l2_Vx": 0.10, "l2_Vxx": 0.20, "l2_Vxxx": 0.30,
        "l2_z": 0.15, "l2_zx": 0.25, "l2_zxx": 0.40,
    }
    assert diagnostics.R2_THRESHOLD == 0.98
    assert verify.CONST_STATE_STEPS == 10000


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("verify_out"))


@pytest.fixture(scope="module")
def acceptance(verify_out):
    results, artifacts = run_acceptance(fast=False, out_dir=verify_out)
    for res in results:
        print(res.line(), res.details)
    return {r.cid: r for r in results}, artifacts


def _criterion(acceptance, cid):
    results, _ = acceptance
    res = results[cid]
    assert not res.skipped
    assert res.passed, f"{res.cid} failed: {res.details}"
    return res


def test_p1_profile_correctness(acceptance):
    res = _criterion(acceptance, "P1")
    assert res.details["erf_max_error"] < 1e-8
    assert res.details["m1_residual"] < 1e-8
    assert abs(res.details["tail_c"] - 0.25) <= 0.02


def test_p2_correction_identities(acceptance):
    res = _criterion(acceptance, "P2")
    assert res.details["max_identity_residual"] < 1e-12
    assert res.details["shift_shape_diff"] < 1e-8
    assert res.details["translation_error"] < 1e-8


def test_p3_solver_baseline(acceptance):
    res = _criterion(acceptance, "P3")
    assert res.details["const_state_dev"] < 1e-12
    assert res.details["convergence_order"] >= 1.5


def test_p4_conservation(acceptance):
    res = _criterion(acceptance, "P4")
    assert res.details["max_mass_drift"] < 1e-6


def test_p5_base_rate_bounds(acceptance):
    res = _criterion(acceptance, "P5")
    assert res.details["exp_Vx"] <= -0.5 + 0.1
    assert res.details["exp_z"] <= -1.0 + 0.15
    assert res.details["r2_Vx"] >= 0.98
    assert res.details["r2_z"] >= 0.98


def test_p6_improved_rates(acceptance):
    res = _criterion(acceptance, "P6")
    assert abs(res.details["l2_V"] - (-0.25)) <= 0.10
    assert abs(res.details["l2_Vx"] - (-0.75)) <= 0.10
    assert abs(res.details["l2_z"] - (-1.25)) <= 0.15


def test_p7_m1_scenario(acceptance):
    res = _criterion(acceptance, "P7")
    assert abs(res.details["l2_V"] - (-0.25)) <= 0.10
    assert abs(res.details["l2_Vx"] - (-0.75)) <= 0.10
    assert abs(res.details["l2_z"] - (-1.25)) <= 0.15
    assert res.details["max_abs_u"] < 1.0
    assert res.details["residual_ratio"] >= 3.5


def test_p8_higher_derivative_trend(acceptance):
    res = _criterion(acceptance, "P8")
    assert res.details["exp_Vxx"] <= -1.0 + 0.2
    # the time-derivative family is reported, never gated
    assert "exp_zt" in res.details
    assert "exp_zxt" in res.details
    assert "exp_ztt" in res.details


def test_p8_raises_a_failed_time_derivative_fit():
    """z snapshots that never change give l2_zt = 0 at every time, which
    the fit rejects: P8 raises that FitError and does not drop exp_zt."""
    series = diagnostics.DiagnosticsSeries(x0=0.0)
    z = np.linspace(-1.0, 1.0, 64)
    for t in np.linspace(0.0, 500.0, 101):
        norms = {key: (1.0 + t) ** -1.25 for key in diagnostics.NORM_KEYS}
        series.append(t, norms, 0.0, z)
    series.final_state = types.SimpleNamespace(dx=0.1)
    with pytest.raises(diagnostics.FitError, match="non-positive or non-finite norm"):
        verify.check_higher_derivatives(series)


def test_p9_determinism(acceptance):
    _criterion(acceptance, "P9")


def test_mass_drift_under_gate_on_both_runs(acceptance):
    _, artifacts = acceptance
    for key in ("series_gamma", "series_m1"):
        drift = max(abs(m) for m in artifacts[key].mass_residual)
        assert drift < 1e-6, key


def test_only_the_gamma_run_keeps_z_snapshots(acceptance):
    """P8 differences z in time on the gamma series alone, so the m1 run
    stores no snapshot."""
    _, artifacts = acceptance
    assert len(artifacts["series_gamma"].z_fields) == 101
    assert artifacts["series_m1"].z_fields == []


def test_monotone_decay_after_transient(acceptance):
    """No norm increase beyond 1% between consecutive samples past t=10."""
    _, artifacts = acceptance
    for key in ("series_gamma", "series_m1"):
        series = artifacts[key]
        t = series.times()
        vals = series.series("l2_V")
        late = vals[t >= 10.0]
        assert np.all(np.diff(late) <= 0.01 * late[:-1]), key


@pytest.mark.parametrize("name", ["series_gamma", "series_m1"])
def test_rates_verdict_passes_on_both_series(acceptance, verify_out, tmp_path, name):
    """``diffwave rates --targets improved`` on each series the run wrote
    exits 0: all seven improved targets, l2_zxx included, which no gate
    covers."""
    series = os.path.join(verify_out, f"{name}.csv")
    assert main(["rates", "--series", series, "--targets", "improved",
                 "--out", str(tmp_path)]) == 0
