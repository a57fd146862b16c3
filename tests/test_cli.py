import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffwave
from diffwave.cli import main

TINY_CONFIG = """
[closure]
name = gamma_law
gamma = 2.0
alpha = 1.0

[scenario]
v_minus = 1.0
v_plus = 1.05
perturbation_amplitude = 0.005
perturbation_width = 2.0

[grid]
n_cells = 512
x_max = 30.0

[time]
end = 3.0
cfl = 0.45
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return str(path)


def test_profile_subcommand(tiny_config, tmp_path):
    out = str(tmp_path / "prof")
    assert main(["profile", "--config", tiny_config, "--out", out]) == 0
    lines = open(os.path.join(out, "profile.csv")).read().strip().split("\n")
    assert lines[0] == "xi,phi,dphi,d2phi,d3phi,d4phi"
    assert len(lines) == 513 + 1  # n_cells + 1 nodes plus header


def test_simulate_then_rates(tiny_config, tmp_path):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", tiny_config, "--out", out]) == 0
    series_path = os.path.join(out, "series.csv")
    assert os.path.exists(series_path)
    # a 3-time-unit window cannot meet the asymptotic targets; the rates
    # command must still emit its artifacts and use exit code 1, not crash
    code = main(["rates", "--series", series_path, "--targets", "improved",
                 "--out", out])
    assert code in (0, 1)
    assert os.path.exists(os.path.join(out, "rates.csv"))
    assert os.path.exists(os.path.join(out, "rates.svg"))


def test_simulate_deterministic_bytes(tiny_config, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["simulate", "--config", tiny_config, "--out", out_a]) == 0
    assert main(["simulate", "--config", tiny_config, "--out", out_b]) == 0
    blob_a = open(os.path.join(out_a, "series.csv"), "rb").read()
    blob_b = open(os.path.join(out_b, "series.csv"), "rb").read()
    assert blob_a == blob_b


def test_simulate_rates_and_fast_verify_leave_numpy_ma_out(tmp_path):
    """np.unique imports numpy.ma on its first call, about 10 ms; no step of
    simulate, rates (whose fits need 8 samples in the window) or
    verify --fast imports it."""
    cfg = tmp_path / "short.ini"
    cfg.write_text("[scenario]\npreset = gamma-default\n\n[grid]\nn_cells = 512\n\n"
                   "[time]\nend = 60.0\n")
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "from diffwave.cli import main\n"
        f"codes = [main(['simulate', '--config', {str(cfg)!r}, '--out', {str(out)!r}]),\n"
        f"         main(['rates', '--series', {str(out / 'series.csv')!r},\n"
        f"               '--out', {str(out)!r}]),\n"
        f"         main(['verify', '--fast', '--out', {str(out / 'verify')!r}])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(diffwave.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    assert proc.returncode == 0 and last in ("[0, 0, 0] False", "[0, 1, 0] False"), (
        proc.stdout[-2000:], proc.stderr[-2000:])
    assert (out / "rates.csv").read_text().count("\n") == 8  # a header and seven fits


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[time]\ncfl = 1.5\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 2


def test_usage_error_exit_code():
    assert main(["rates"]) == 2  # missing required --series
    assert main(["frobnicate"]) == 2


def test_verify_fast_with_corrupted_tolerance(tmp_path, monkeypatch):
    from diffwave import verify

    monkeypatch.setitem(verify.GATES, "profile_max_error", 1e-30)
    out = str(tmp_path / "v")
    assert main(["verify", "--fast", "--out", out]) == 1
    report = json.load(open(os.path.join(out, "verify.json")))
    by_id = {c["id"]: c for c in report["criteria"]}
    assert by_id["P1"]["passed"] is False
    assert by_id["P4"]["skipped"] is True
    assert report["overall_pass"] is False


def test_verify_takes_no_gate_overrides(tmp_path):
    """The gates are fixed: a valid [acceptance] file is a usage error."""
    cfg = tmp_path / "verify.ini"
    cfg.write_text("[acceptance]\nmass_drift = 1.0\n")
    assert main(["verify", "--fast", "--config", str(cfg),
                 "--out", str(tmp_path / "v")]) == 2


def test_verify_rejects_unknown_tolerance_key(tmp_path):
    cfg = tmp_path / "verify.ini"
    cfg.write_text("[acceptance]\nprofile_max_eror = 1e-8\n")
    assert main(["verify", "--fast", "--config", str(cfg),
                 "--out", str(tmp_path / "v")]) == 2


@pytest.mark.parametrize("key", [
    "r2_threshold", "base_vx_bound", "base_z_bound", "improved_v_tol",
    "improved_vx_tol", "improved_z_tol", "vxx_bound",
])
def test_rate_gates_are_not_acceptance_keys(tmp_path, capsys, key):
    """Rate gates live in diagnostics.RATE_TOLERANCES, shared with ``rates``."""
    from diffwave import verify

    cfg = tmp_path / "verify.ini"
    cfg.write_text(f"[acceptance]\n{key} = 0.2\n")
    assert main(["verify", "--fast", "--config", str(cfg),
                 "--out", str(tmp_path / "v")]) == 2
    assert "--config" in capsys.readouterr().err
    assert key not in verify.GATES


def test_smallness_cap_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "strong.ini"
    cfg.write_text("[scenario]\npreset = gamma-default\nv_plus = 2.0\n"
                   "perturbation_amplitude = 0.5\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "wave strength 1 exceeds the smallness cap 0.5" in err
    assert "perturbation amplitude 0.5 exceeds the smallness cap 0.1" in err


# one config per moved rule: (preset, section, lines, the owner's message)
OWNER_RULES = {
    "alpha": ("gamma-default", "closure", "alpha = 0",
              "damping constant alpha must be positive and finite, not 0.0"),
    "gamma": ("gamma-default", "closure", "gamma = 0.5",
              "adiabatic exponent gamma must be finite and >= 1, not 0.5"),
    "width": ("gamma-default", "scenario", "perturbation_width = 0",
              "perturbation width must be positive and finite, not 0.0"),
    "n_cells": ("gamma-default", "grid", "n_cells = 10", "n_cells must be at least 64, not 10"),
    "cfl": ("gamma-default", "time", "cfl = 1.5", "cfl must lie in (0, 1), not 1.5"),
    "end": ("gamma-default", "time", "end = -1", "end_time must be finite and >= 0, not -1.0"),
    "x_max": ("gamma-default", "grid", "x_max = 0",
              "x_max must be None or positive and finite, not 0.0"),
    "v_range": ("m1-default", "scenario", "v_minus = 0.04\nv_plus = 0.045",
                "far-field states (0.04, 0.045) outside admissible v_range (0.05, 20.0)"),
    "constant": ("constant-state", "scenario", "v_minus = -1\nv_plus = -1",
                 "far-field states (-1.0, -1.0) outside admissible v_range (0.05, 20.0)"),
}


@pytest.mark.parametrize("rule", list(OWNER_RULES))
def test_each_owner_rule_is_a_config_error(tmp_path, capsys, rule):
    """The owner's own message reaches the exit-2 report; none is restated."""
    preset, section, lines, message = OWNER_RULES[rule]
    sections = {"scenario": [f"preset = {preset}"]}
    sections.setdefault(section, []).append(lines)
    cfg = tmp_path / "bad.ini"
    cfg.write_text("".join(f"[{name}]\n" + "\n".join(body) + "\n"
                           for name, body in sections.items()))
    for command in ("simulate", "profile"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid configuration:\n")
        assert f"\n  {message}\n" in err


def test_hyperbolicity_loss_exit_code(tiny_config, tmp_path, monkeypatch, capsys):
    from diffwave import cli
    from diffwave.closures import HyperbolicityError

    def lose_hyperbolicity(*args, **kwargs):
        raise HyperbolicityError("hyperbolicity lost at state (v=1, u=1.2)")

    monkeypatch.setattr(cli, "run", lose_hyperbolicity)
    assert main(["simulate", "--config", tiny_config, "--out", str(tmp_path)]) == 3
    assert "u=1.2" in capsys.readouterr().err


def test_simulate_solves_profile_on_config_grid(tmp_path, monkeypatch):
    from diffwave import config

    cfg = tmp_path / "grid.ini"
    cfg.write_text(TINY_CONFIG.replace("n_cells = 512", "n_cells = 1024"))
    grids = []
    solve = config.solve_profile

    def recording_solve(*args, **kwargs):
        grids.append(kwargs["n_cells"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(config, "solve_profile", recording_solve)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert grids == [1024]


def test_initial_data_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "narrow.ini"
    cfg.write_text("[scenario]\npreset = gamma-default\n"
                   "[grid]\nn_cells = 256\nx_max = 2.0\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "far-field mismatch" in err
    assert "domain too small" in err


def test_profile_solver_failure_exit_code(tiny_config, tmp_path, monkeypatch, capsys):
    from diffwave import config
    from diffwave.diffusion_wave import ProfileSolverError

    def fail_to_converge(*args, **kwargs):
        raise ProfileSolverError("profile Newton iteration did not converge")

    monkeypatch.setattr(config, "solve_profile", fail_to_converge)
    for command in ("profile", "simulate"):
        assert main([command, "--config", tiny_config, "--out", str(tmp_path)]) == 3
        assert "did not converge" in capsys.readouterr().err


def test_rates_verdict_covers_every_row(tmp_path):
    from diffwave.diagnostics import IMPROVED_TARGETS, DiagnosticsSeries, theorem_report
    from diffwave.output import write_series_csv

    # exact improved rates, except l2_zxx, which decays 1.0 slower than
    # its target (tolerance 0.4)
    series = DiagnosticsSeries(x0=0.0)
    for t in np.linspace(0.0, 500.0, 101):
        norms = {k: (1 + t) ** v for k, v in IMPROVED_TARGETS.items()}
        norms["l2_zxx"] = (1 + t) ** (IMPROVED_TARGETS["l2_zxx"] + 1.0)
        norms["linf_V"] = norms["linf_z"] = 1.0
        series.append(t, norms, 0.0)

    rep = theorem_report(series.times(), series.norms)
    assert [r["quantity"] for r in rep["rows"] if not r["passed"]] == ["l2_zxx"]
    assert rep["overall_pass"] is False

    path = str(tmp_path / "series.csv")
    write_series_csv(path, series)
    out = str(tmp_path / "rates")
    assert main(["rates", "--series", path, "--targets", "improved", "--out", out]) == 1


def test_fast_skips_carry_the_table_names(tmp_path, monkeypatch):
    from diffwave import verify

    # stubs replace the short checks by module attribute, as run_acceptance
    # must look them up at call time
    called = []
    for fn_name, cid in (
        ("check_profile_correctness", "P1"),
        ("check_correction_identities", "P2"),
        ("check_solver_baseline", "P3"),
        ("check_determinism", "P9"),
    ):
        def stub(*args, cid=cid):
            called.append(cid)
            return verify.CriterionResult(cid, True, {})

        monkeypatch.setattr(verify, fn_name, stub)
    results, _ = verify.run_acceptance(fast=True, out_dir=str(tmp_path))
    assert called == ["P1", "P2", "P3", "P9"]
    assert [r.cid for r in results] == list(verify.CRITERIA)
    skipped = {r.cid: r.name for r in results if r.skipped}
    assert skipped == {
        cid: verify.CRITERION_NAMES[cid] for cid in ("P4", "P5", "P6", "P7", "P8")
    }


def test_rates_on_too_short_series_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(TINY_CONFIG.replace("end = 3.0", "end = 0"))
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    series_path = os.path.join(out, "series.csv")
    assert main(["rates", "--series", series_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "need at least 8 samples in window (0.0, 0.0), found 1" in err
    assert "np.float64" not in err


def test_rates_on_a_series_at_one_time_is_a_usage_error(tmp_path, capsys):
    """end = 1e-300 puts all 101 samples at t = 0: no slope to fit, no SVG."""
    cfg = tmp_path / "instant.ini"
    cfg.write_text(TINY_CONFIG.replace("end = 3.0", "end = 1e-300"))
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    series_path = os.path.join(out, "series.csv")
    assert len(open(series_path).read().splitlines()) == 1 + 101
    assert main(["rates", "--series", series_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("series too short: need at least two distinct times")
    assert "found 101 samples at t = 0.0" in err
    assert not os.path.exists(os.path.join(out, "rates.csv"))
    assert not os.path.exists(os.path.join(out, "rates.svg"))


def test_blowup_exit_code(tiny_config, tmp_path, monkeypatch, capsys):
    from diffwave import solver

    def blow_up(state, *args, **kwargs):
        raise solver.BlowUpError(f"vacuum reached in cell 7 at t={state.t:.6g}")

    # advance() looks step up at call time, so the error rises from inside the solver
    monkeypatch.setattr(solver, "step", blow_up)
    assert main(["simulate", "--config", tiny_config, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numerical blow-up: vacuum reached")


GOOD_HEADER = "t,l2_V,l2_Vx,l2_Vxx,l2_Vxxx,l2_z,l2_zx,l2_zxx"
GOOD_ROW = "0,1,1,1,1,1,1,1"


@pytest.mark.parametrize(
    "text, cause",
    [
        (None, "cannot read"),
        (f"{GOOD_HEADER}\n{GOOD_ROW}\n1,1,x,1,1,1,1,1\n", "non-numeric value"),
        (f"{GOOD_HEADER}\n{GOOD_ROW}\n1,1,1\n", "line 3: 3 values for 8 columns"),
        (GOOD_HEADER.replace(",l2_Vx,", ",") + "\n0,1,1,1,1,1,1\n",
         "lacks the column(s) l2_Vx"),
        ("", "is empty"),
        (f"{GOOD_HEADER}\n", "holds no samples"),
        (f"{GOOD_HEADER}\n{GOOD_ROW}\n\n1,1,1,nan,1,1,1,1\n",
         "line 4: non-finite value 'nan' in column l2_Vxx"),
        (f"{GOOD_HEADER}\n{GOOD_ROW}\n1,1,1,1,1,1,1,inf\n",
         "line 3: non-finite value 'inf' in column l2_zxx"),
    ],
    ids=["missing", "non-numeric", "ragged", "no-l2_Vx", "empty", "header-only", "nan", "inf"],
)
def test_rates_on_a_bad_series_file_is_a_usage_error(tmp_path, capsys, text, cause):
    path = tmp_path / "series.csv"
    if text is not None:
        path.write_text(text)
    out = str(tmp_path / "rates")
    assert main(["rates", "--series", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("series error: ") and repr(str(path)) in err and cause in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["profile", "simulate", "rates", "verify"])
def test_out_naming_a_file_is_an_output_error(tiny_config, tmp_path, capsys, command):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    series = tmp_path / "series.csv"
    series.write_text(GOOD_HEADER + "\n" + "".join(f"{t},1,1,1,1,1,1,1\n" for t in range(20)))
    args = {
        "profile": ["--config", tiny_config],
        "simulate": ["--config", tiny_config],
        "rates": ["--series", str(series)],
        "verify": ["--fast"],
    }[command]
    assert main([command, *args, "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot make output directory {str(blocker)!r}")
    assert blocker.read_text() == "not a directory\n"
