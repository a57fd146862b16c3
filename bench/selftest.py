"""The benchmark's own tests: each output check rejects a wrong output.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Synthetic series follow the paper's closed-form decay laws exactly, so a good
series passes every check and each test breaks one property.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (  # noqa: E402
    check_exit,
    check_finite,
    check_identical,
    check_mass,
    check_no_rise,
    check_rate,
    check_verify_report,
    parse_csv,
)

T = np.linspace(0.0, 100.0, 101)


def series(exponents=None, mass=1e-9):
    exps = {"l2_V": -0.25, "l2_Vx": -0.75, "l2_z": -1.25, **(exponents or {})}
    out = {"t": T.copy(), "mass_residual": np.full(T.size, mass)}
    for key, e in exps.items():
        out[key] = 0.3 * (1.0 + T) ** e
    return out


def report(passed=("P1", "P2", "P3", "P9"), skipped=("P4", "P5", "P6", "P7", "P8")):
    crit = [{"id": c, "passed": True, "skipped": False} for c in passed]
    crit += [{"id": c, "passed": True, "skipped": True} for c in skipped]
    return {"criteria": crit, "overall_pass": True}


def test_good_outputs_pass():
    s = series()
    for key in ("l2_V", "l2_Vx", "l2_z"):
        assert check_rate(s, key)[0]
    assert check_mass(s)[0]
    assert check_no_rise(s)[0]
    assert check_finite(s)[0]
    assert check_exit("simulate", 0)[0]
    assert check_verify_report(report())[0]
    assert check_identical(b"t,l2_V\n0,1\n", b"t,l2_V\n0,1\n")[0]


def test_rate_rejects_wrong_exponent():
    assert not check_rate(series({"l2_V": -0.5}), "l2_V")[0]
    assert not check_rate(series({"l2_Vx": -0.6}), "l2_Vx")[0]
    assert not check_rate(series({"l2_z": -1.45}), "l2_z")[0]


def test_rate_rejects_poor_fit():
    s = series()
    s["l2_V"] = s["l2_V"] * np.where(np.arange(T.size) % 2, 1.5, 1.0)
    assert not check_rate(s, "l2_V")[0]


def test_rate_rejects_nonpositive_norm():
    s = series()
    s["l2_z"][-1] = 0.0
    assert not check_rate(s, "l2_z")[0]


def test_mass_rejects_drift():
    assert not check_mass(series(mass=1e-5))[0]
    s = series()
    s["mass_residual"][50] = -2e-6
    assert not check_mass(s)[0]


def test_no_rise_rejects_late_growth():
    s = series()
    s["l2_V"][60:] *= 1.02
    assert not check_no_rise(s)[0]


def test_no_rise_ignores_transient():
    s = series()
    s["l2_V"][3:] *= 1.05  # before t = T/10
    assert check_no_rise(s)[0]


def test_finite_rejects_nan_and_inf():
    s = series()
    s["l2_Vx"][7] = np.nan
    assert not check_finite(s)[0]
    s = series()
    s["mass_residual"][0] = np.inf
    assert not check_finite(s)[0]


def test_exit_rejects_failure_codes():
    for code in (1, 2, 3, None):
        assert not check_exit("rates", code)[0]


def test_verify_report_rejects_failed_or_unskipped():
    bad = report()
    bad["criteria"][2]["passed"] = False  # P3
    assert not check_verify_report(bad)[0]
    assert not check_verify_report(report(skipped=("P4", "P6", "P7", "P8")))[0]
    unskipped = report()
    unskipped["criteria"][5]["skipped"] = False  # P5 ran
    assert not check_verify_report(unskipped)[0]
    missing = report(passed=("P1", "P2", "P3"))
    assert not check_verify_report(missing)[0]
    overall = report()
    overall["overall_pass"] = False
    assert not check_verify_report(overall)[0]


def test_identical_rejects_differing_or_empty_bytes():
    assert not check_identical(b"t\n0.1\n", b"t\n0.10000000000000001\n")[0]
    assert not check_identical(b"", b"")[0]


def test_parse_csv_marks_garbage_nonfinite():
    table = parse_csv("t,l2_V\n0,1.5\n1,oops\n")
    assert table["l2_V"][0] == 1.5
    assert not check_finite(table)[0]


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
