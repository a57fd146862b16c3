"""Output checks against properties and closed forms, not stored outputs.

Each check returns ``(passed, detail)``.  The checks read the program's files
with their own code and fit with their own least squares, so a fault in
diffwave's readers or fitters cannot hide a wrong result.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# the paper's improved exponents in (1+t) and P6's tolerances
RATE_TARGETS = {"l2_V": (-0.25, 0.10), "l2_Vx": (-0.75, 0.10), "l2_z": (-1.25, 0.15)}
R2_MIN = 0.98
MASS_GATE = 1e-6  # P4
MAX_RISE = 0.01  # l2_V may rise at most 1% between samples after the transient

FAST_PASSED = ("P1", "P2", "P3", "P9")
FAST_SKIPPED = ("P4", "P5", "P6", "P7", "P8")


def parse_csv(text: str) -> dict[str, np.ndarray]:
    """Columns of a headed numeric CSV; unparsable cells become NaN."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for ln in lines[1:]:
        for name, cell in zip(header, ln.split(",")):
            try:
                cols[name].append(float(cell))
            except ValueError:
                cols[name].append(math.nan)
    return {k: np.asarray(v, dtype=float) for k, v in cols.items()}


def late_window(t: np.ndarray) -> np.ndarray:
    """Samples after the transient: t >= T/10, the window of `rates` and P6."""
    return t >= t[-1] / 10.0


def fit_exponent(t, y) -> tuple[float, float]:
    """Least-squares slope of log y on log(1+t), and its r squared."""
    x = np.log1p(np.asarray(t, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, icpt = np.polyfit(x, ly, 1)
    ss_res = float(np.sum((ly - (slope * x + icpt)) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0


def check_rate(series, key):
    target, tol = RATE_TARGETS[key]
    sel = late_window(series["t"])
    y = series[key][sel]
    if sel.sum() < 8 or not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        return False, f"{key}: too few positive finite samples to fit"
    slope, r2 = fit_exponent(series["t"][sel], y)
    ok = abs(slope - target) <= tol and r2 >= R2_MIN
    return ok, f"{key}: exponent {slope:+.4f} (target {target:+.2f} +- {tol}), r2 {r2:.4f}"


def check_mass(series):
    drift = float(np.max(np.abs(series["mass_residual"])))
    return bool(drift < MASS_GATE), f"max|mass_residual| {drift:.3e} (gate {MASS_GATE:g})"


def check_no_rise(series):
    sel = late_window(series["t"])
    v = series["l2_V"][sel]
    rise = float(np.max(v[1:] / v[:-1])) - 1.0 if v.size > 1 else 0.0
    return bool(rise <= MAX_RISE), f"largest late l2_V rise {rise:+.2e} (limit {MAX_RISE})"


def check_finite(*tables):
    bad = [
        name
        for table in tables
        for name, col in table.items()
        if not np.all(np.isfinite(col))
    ]
    return not bad, ("all values finite" if not bad else f"non-finite in {bad}")


def check_exit(what: str, code):
    return code == 0, f"{what} exit code {code}"


def check_verify_report(report: dict):
    by_id = {c["id"]: c for c in report.get("criteria", [])}
    wrong = [
        cid for cid in FAST_PASSED
        if cid not in by_id or not by_id[cid]["passed"] or by_id[cid]["skipped"]
    ] + [cid for cid in FAST_SKIPPED if cid not in by_id or not by_id[cid]["skipped"]]
    ok = not wrong and report.get("overall_pass") is True
    return ok, ("P1-P3, P9 passed; P4-P8 skipped" if ok else f"unexpected: {wrong}")


def check_identical(blob_a: bytes, blob_b: bytes):
    ok = len(blob_a) > 0 and blob_a == blob_b
    return ok, f"P9 artifacts {len(blob_a)} and {len(blob_b)} bytes, identical={ok}"


def _read(path: str, mode: str = "r"):
    kwargs = {} if "b" in mode else {"encoding": "utf-8"}
    with open(path, mode, **kwargs) as fh:
        return fh.read()


def decay_checks(out_dir: str, exit_codes: list) -> list[tuple[str, bool, str]]:
    """Checks of one simulate + rates round; one entry per operation."""
    codes = list(exit_codes) + [None] * (2 - len(exit_codes))
    results = [
        ("simulate", *check_exit("simulate", codes[0])),
        ("rates", *check_exit("rates", codes[1])),
    ]
    try:
        series = parse_csv(_read(os.path.join(out_dir, "series.csv")))
        rates = parse_csv(_read(os.path.join(out_dir, "rates.csv")))
        rates.pop("quantity"), rates.pop("pass")
    except (OSError, KeyError, IndexError) as exc:
        failed = (False, f"cannot read outputs: {exc}")
        names = [f"rate_{k}" for k in RATE_TARGETS] + ["mass", "no_rise", "finite"]
        return results + [(n, *failed) for n in names]
    results += [(f"rate_{k}", *check_rate(series, k)) for k in RATE_TARGETS]
    results += [
        ("mass", *check_mass(series)),
        ("no_rise", *check_no_rise(series)),
        ("finite", *check_finite(series, rates)),
    ]
    return results


def verify_checks(out_dir: str, exit_codes: list) -> list[tuple[str, bool, str]]:
    """Checks of one `verify --fast` round; one entry per operation."""
    results = [("verify", *check_exit("verify", (exit_codes or [None])[0]))]
    try:
        report = json.loads(_read(os.path.join(out_dir, "verify.json")))
        results.append(("report", *check_verify_report(report)))
    except (OSError, ValueError) as exc:
        results.append(("report", False, f"cannot read verify.json: {exc}"))
    try:
        blobs = [
            _read(os.path.join(out_dir, f"determinism_{tag}.csv"), "rb")
            for tag in ("a", "b")
        ]
        results.append(("p9_bytes", *check_identical(*blobs)))
    except OSError as exc:
        results.append(("p9_bytes", False, f"cannot read P9 artifacts: {exc}"))
    return results
