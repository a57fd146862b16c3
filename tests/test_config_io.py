import os

import numpy as np
import pytest

from diffwave.config import (
    PRESETS,
    ConfigError,
    RunConfig,
    build_scenario,
    parse_config,
    serialize_config,
)
from diffwave.diagnostics import DiagnosticsSeries
from diffwave.output import (
    SERIES_COLUMNS,
    emit_loglog_svg,
    read_series_csv,
    write_rates_csv,
    write_series_csv,
)

MINIMAL = """
[closure]
name = gamma_law
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.cfl == 0.45
    assert cfg.n_cells == 4096
    assert cfg.x_max is None  # auto
    assert cfg.closure_name == "gamma_law"


def test_cfl_range_error():
    with pytest.raises(ConfigError, match=r"cfl must lie in \(0,1\)"):
        parse_config(MINIMAL + "[time]\ncfl = 1.5\n")


def test_unknown_key_suggests_nearest():
    with pytest.raises(ConfigError, match="n_cells"):
        parse_config(MINIMAL + "[grid]\nn_cell = 512\n")
    with pytest.raises(ConfigError, match=r"did you mean \[grid\]"):
        parse_config(MINIMAL + "[grids]\nn_cells = 512\n")


def test_errors_are_collected_not_fail_fast():
    bad = MINIMAL + "[time]\ncfl = 1.5\nend = -3\n[grid]\nn_cell = 512\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert len(exc.value.errors) >= 2


def test_preset_expands_to_acceptance_scenario():
    cfg = parse_config("[scenario]\npreset = m1-default\n")
    assert cfg.closure_name == "m1"
    assert cfg.sigma == 1.0
    assert cfg.v_minus == 1.0 and cfg.v_plus == 1.1
    assert cfg.u_minus == 0.0 and cfg.u_plus == 0.05
    assert cfg.perturbation_amplitude == 0.01
    assert cfg.n_cells == 8192
    assert cfg.end_time == 500.0
    # explicit keys override the preset
    cfg = parse_config("[scenario]\npreset = m1-default\nv_plus = 1.05\n")
    assert cfg.v_plus == 1.05
    with pytest.raises(ConfigError, match="m1-default"):
        parse_config("[scenario]\npreset = m1-defualt\n")


def test_preset_table_regression():
    assert set(PRESETS) == {"m1-default", "gamma-default", "constant-state"}
    assert PRESETS["gamma-default"]["gamma"] == 2.0
    assert PRESETS["gamma-default"]["u_plus"] == 0.0
    assert PRESETS["m1-default"]["cfl"] == 0.45


def test_config_round_trip():
    cfg = parse_config("[scenario]\npreset = gamma-default\n")
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2 == RunConfig(**{**cfg.__dict__, "preset": None})


def test_build_scenario_wiring():
    cfg = parse_config("[scenario]\npreset = m1-default\n")
    spec, corr, profile = build_scenario(cfg)
    assert spec.closure.name == "m1"
    assert len(profile.xi_grid) == cfg.n_cells + 1
    assert (profile.v_minus, profile.v_plus) == (spec.v_minus, spec.v_plus)
    assert spec.wave_strength == pytest.approx(0.15)
    assert corr.u_plus == 0.05
    assert corr.mollifier.shape == "bump"


def _tiny_series(n_samples=3):
    series = DiagnosticsSeries(x0=0.25)
    for i in range(n_samples):
        t = float(i)
        norms = {k: 1.0 / (1.0 + t) for k in SERIES_COLUMNS[1:-1]}
        series.append(t, norms, 1e-9 * i)
    return series


def test_series_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_series_csv(path, _tiny_series(0))
    assert path.read_text() == ",".join(SERIES_COLUMNS) + "\n"


def test_series_csv_two_points_three_lines(tmp_path):
    path = tmp_path / "two.csv"
    write_series_csv(path, _tiny_series(2))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    data = read_series_csv(path)
    assert np.allclose(data["t"], [0.0, 1.0])
    assert np.allclose(data["l2_V"], [1.0, 0.5])


def test_series_csv_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(p1, _tiny_series(5))
    write_series_csv(p2, _tiny_series(5))
    assert p1.read_bytes() == p2.read_bytes()


def test_rates_csv(tmp_path):
    rows = [
        {"quantity": "l2_V", "exponent": -0.26, "target": -0.25,
         "tolerance": 0.1, "r_squared": 0.999, "passed": True},
    ]
    path = tmp_path / "rates.csv"
    write_rates_csv(path, rows)
    text = path.read_text()
    assert text.startswith("quantity,exponent,target,tolerance,r_squared,pass")
    assert "true" in text


def test_svg_emission(tmp_path):
    t = np.linspace(0.0, 100.0, 21)
    path = tmp_path / "rates.svg"
    emit_loglog_svg(path, t, {"l2_V": (1 + t) ** -0.25, "l2_z": (1 + t) ** -1.25})
    svg = path.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "log10(1+t)" in svg
    emit_loglog_svg(tmp_path / "again.svg", t, {"l2_V": (1 + t) ** -0.25,
                                                "l2_z": (1 + t) ** -1.25})
    # byte-determinism of the plot itself
    a = (tmp_path / "rates.svg").read_bytes()
    with pytest.raises(ValueError):
        emit_loglog_svg(tmp_path / "bad.svg", t, {"zeros": np.zeros_like(t)})


def test_golden_series_regression(tmp_path):
    """Byte-exact regression against the committed golden artifact."""
    from diffwave.verify import small_series

    fresh = tmp_path / "series_small.csv"
    write_series_csv(fresh, small_series())
    golden = os.path.join(os.path.dirname(__file__), "golden", "series_small.csv")
    assert os.path.exists(golden), "golden file missing; see tests/golden/README"
    assert fresh.read_bytes() == open(golden, "rb").read()
