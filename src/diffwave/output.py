"""Deterministic CSV and SVG emission for run artifacts.

Outputs must be byte-identical across runs with the same config, so
floats are written with a fixed 17-significant-digit format
(round-trip exact for doubles) and the SVG is assembled from plain
strings with no timestamps or generator metadata.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .diagnostics import BASE_TARGETS, NORM_KEYS

__all__ = [
    "SERIES_COLUMNS",
    "OutputError",
    "SeriesError",
    "make_dir",
    "read_series_csv",
    "write_series_csv",
    "write_rates_csv",
    "write_profile_csv",
    "write_json",
    "emit_loglog_svg",
]

SERIES_COLUMNS = ("t", *NORM_KEYS, "mass_residual")


class OutputError(OSError):
    """Raised when an output directory or file cannot be made."""


class SeriesError(ValueError):
    """Raised when a series CSV cannot be read or lacks what ``rates`` judges."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_series_csv(path, series) -> None:
    """Write a DiagnosticsSeries to CSV with the standard column set."""
    lines = [",".join(SERIES_COLUMNS)]
    times = series.times()
    for i, t in enumerate(times):
        row = [_fmt(t)]
        for key in NORM_KEYS:
            row.append(_fmt(series.norms[key][i]))
        row.append(_fmt(series.mass_residual[i]))
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def read_series_csv(path):
    """Read a series CSV back into a dict of column arrays.

    The file must be readable, its header must name ``t`` and every L2 norm
    that ``rates`` judges, and it must hold at least one row of finite
    numbers, each as long as the header.  Otherwise SeriesError names the
    path and the cause.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise SeriesError(f"cannot read {path!r}: {exc}") from exc
    if not lines:
        raise SeriesError(f"{path!r} is empty")
    header = lines[0].split(",")
    missing = [name for name in ("t", *BASE_TARGETS) if name not in header]
    if missing:
        raise SeriesError(f"{path!r} lacks the column(s) {', '.join(missing)}")
    # blank lines are skipped, so each row keeps its line number
    numbers = [k for k, line in enumerate(lines, start=1) if line and k > 1]
    rows = [lines[k - 1].split(",") for k in numbers]
    if not rows:
        raise SeriesError(f"{path!r} holds no samples")
    for k, row in zip(numbers, rows):
        if len(row) != len(header):
            raise SeriesError(
                f"{path!r} line {k}: {len(row)} values for {len(header)} columns"
            )
    try:
        data = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise SeriesError(f"{path!r} holds a non-numeric value: {exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise SeriesError(f"{path!r} line {numbers[i]}: non-finite value "
                          f"{rows[i][j]!r} in column {header[j]}")
    return {name: data[:, j] for j, name in enumerate(header)}


def write_rates_csv(path, rows) -> None:
    """Write fitted-rate rows: quantity, exponent, target, tolerance, pass."""
    lines = ["quantity,exponent,target,tolerance,r_squared,pass"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row["quantity"],
                    _fmt(row["exponent"]),
                    _fmt(row["target"]),
                    _fmt(row["tolerance"]),
                    _fmt(row["r_squared"]),
                    "true" if row["passed"] else "false",
                ]
            )
        )
    _write_text(path, "\n".join(lines) + "\n")


def write_profile_csv(path, profile) -> None:
    """Write a WaveProfile: xi and phi with its first four derivatives."""
    columns = (profile.xi_grid, profile.phi, profile.dphi, profile.d2phi,
               profile.d3phi, profile.d4phi)
    lines = ["xi,phi,dphi,d2phi,d3phi,d4phi"]
    for i in range(len(profile.xi_grid)):
        lines.append(",".join(_fmt(a[i]) for a in columns))
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    """Write obj as indented JSON with sorted keys."""
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def emit_loglog_svg(path, t, series_map, title="decay of perturbation norms") -> None:
    """Plot norm series on log-log axes as a plain polyline SVG.

    ``series_map`` maps a label to an array of positive values aligned
    with ``t``; zero or negative entries are dropped from that curve.
    """
    width, height = 720, 480
    ml, mr, mt, mb = 70, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    t = np.asarray(t, dtype=float)
    curves = {}
    for label, vals in series_map.items():
        vals = np.asarray(vals, dtype=float)
        keep = (vals > 0.0) & (t > 0.0)
        if np.count_nonzero(keep) >= 2:
            curves[label] = (np.log10(1.0 + t[keep]), np.log10(vals[keep]))
    if not curves:
        raise ValueError("nothing to plot: no positive series values")

    xs = np.concatenate([c[0] for c in curves.values()])
    ys = np.concatenate([c[1] for c in curves.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="24" font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw // 2}" y="{height - 12}" font-family="monospace" '
        f'font-size="12">log10(1+t)</text>',
        f'<text x="14" y="{mt + ph // 2}" font-family="monospace" font-size="12" '
        f'transform="rotate(-90 14 {mt + ph // 2})">log10(norm)</text>',
    ]
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4.0
        yv = y0 + k * (y1 - y0) / 4.0
        parts.append(
            f'<text x="{px(xv):.1f}" y="{mt + ph + 16}" font-family="monospace" '
            f'font-size="10" text-anchor="middle">{xv:.2f}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(yv):.1f}" font-family="monospace" '
            f'font-size="10" text-anchor="end">{yv:.2f}</text>'
        )
    for i, (label, (cx, cy)) in enumerate(sorted(curves.items())):
        color = palette[i % len(palette)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(cx, cy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(
            f'<text x="{ml + pw + 8}" y="{mt + 16 + 16 * i}" font-family="monospace" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def make_dir(path) -> None:
    """Make the directory path and its parents, unless it exists."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot make output directory {path!r}: {exc}") from exc


def _write_text(path, text: str) -> None:
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        make_dir(parent)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc}") from exc
