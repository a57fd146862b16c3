import dataclasses
import os

import numpy as np
import pytest

from diffwave import config
from diffwave.closures import gamma_law_closure, m1_closure
from diffwave.config import PRESETS, ConfigError, build_scenario, parse_config
from diffwave.diagnostics import NORM_KEYS, DiagnosticsSeries
from diffwave.output import (
    SERIES_COLUMNS,
    emit_loglog_svg,
    read_series_csv,
    write_rates_csv,
    write_series_csv,
)
from diffwave.solver import PerturbationSpec, ScenarioSpec

MINIMAL = """
[closure]
name = gamma_law
"""


def test_minimal_config_defaults():
    spec = parse_config(MINIMAL)
    assert spec.cfl == 0.45
    assert spec.n_cells == 4096
    assert spec.x_max is None  # auto
    assert spec.closure.name == "gamma_law"
    assert spec == ScenarioSpec(
        closure=gamma_law_closure(2.0, 1.0), v_minus=1.0, v_plus=1.1, u_minus=0.0,
        u_plus=0.0, perturbation=PerturbationSpec(0.01, 0.0, 2.0), n_cells=4096,
        x_max=None, end_time=500.0, cfl=0.45,
    )


def test_cfl_range_error():
    with pytest.raises(ConfigError, match=r"cfl must lie in \(0, 1\), not 1\.5"):
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
    text = "\n".join(exc.value.errors)
    assert "unknown key 'n_cell' in [grid]; did you mean 'n_cells'?" in text
    assert "cfl must lie in (0, 1), not 1.5" in text
    assert "end_time must be finite and >= 0, not -3.0" in text


def test_every_owner_reports_in_one_error():
    """One broken rule per owner: the document, the closure, the bump, the
    spec and the profile's arguments all report, none hiding another."""
    bad = ("[closure]\nname = gamma_law\nalpha = 0\nsigma = 1\n"
           "[scenario]\nperturbation_width = 0\n[grid]\nn_cells = 10\n[time]\ncfl = 1.5\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.errors == [
        "unknown key 'sigma' in [closure]; did you mean 'alpha'?",
        "damping constant alpha must be positive and finite, not 0.0",
        "perturbation width must be positive and finite, not 0.0",
        "cfl must lie in (0, 1), not 1.5",
        "n_cells must be at least 64, not 10",
    ]


def _preset(name, extra=""):
    return parse_config(f"[scenario]\npreset = {name}\n" + extra)


def test_preset_expands_to_acceptance_scenario():
    spec = _preset("m1-default")
    assert spec.closure.name == "m1"
    assert spec.closure.alpha == 1.0
    assert spec.v_minus == 1.0 and spec.v_plus == 1.1
    assert spec.u_minus == 0.0 and spec.u_plus == 0.05
    assert spec.perturbation.amplitude == 0.01
    assert spec.n_cells == 8192
    assert spec.end_time == 500.0
    # explicit keys override the preset
    assert _preset("m1-default", "v_plus = 1.05\n").v_plus == 1.05
    with pytest.raises(ConfigError, match="m1-default"):
        parse_config("[scenario]\npreset = m1-defualt\n")


def test_preset_table_regression():
    assert set(PRESETS) == {"m1-default", "gamma-default", "constant-state"}
    gas = _preset("gamma-default")
    assert gas.closure == gamma_law_closure(2.0)
    assert gas.u_plus == 0.0
    assert _preset("m1-default").cfl == 0.45


# each preset, hand-built: pinned apart from the defaults table
PRESET_SPECS = {
    "m1-default": ScenarioSpec(
        closure=m1_closure(1.0), v_minus=1.0, v_plus=1.1, u_minus=0.0, u_plus=0.05,
        perturbation=PerturbationSpec(0.01, 0.0, 2.0), n_cells=8192, x_max=None,
        end_time=500.0, cfl=0.45,
    ),
    "gamma-default": ScenarioSpec(
        closure=gamma_law_closure(2.0, 1.0), v_minus=1.0, v_plus=1.1, u_minus=0.0,
        u_plus=0.0, perturbation=PerturbationSpec(0.01, 0.0, 2.0), n_cells=8192,
        x_max=None, end_time=500.0, cfl=0.45,
    ),
    "constant-state": ScenarioSpec(
        closure=gamma_law_closure(2.0, 1.0), v_minus=1.0, v_plus=1.0, u_minus=0.0,
        u_plus=0.0, perturbation=PerturbationSpec(0.0, 0.0, 2.0), n_cells=1024,
        x_max=None, end_time=50.0, cfl=0.45,
    ),
}


@pytest.mark.parametrize("name", sorted(PRESET_SPECS))
def test_preset_is_its_hand_built_scenario(name):
    assert _preset(name) == PRESET_SPECS[name]


def test_config_keys_are_fixed():
    """Every settable key is a literal here: adding a knob means editing this test."""
    assert list(config._SCHEMA) == [
        ("closure", "name"),
        ("closure", "gamma"),
        ("closure", "alpha"),
        ("scenario", "preset"),
        ("scenario", "v_minus"),
        ("scenario", "v_plus"),
        ("scenario", "u_minus"),
        ("scenario", "u_plus"),
        ("scenario", "perturbation_amplitude"),
        ("scenario", "perturbation_center"),
        ("scenario", "perturbation_width"),
        ("grid", "n_cells"),
        ("grid", "x_max"),
        ("time", "end"),
        ("time", "cfl"),
    ]
    # ... and so is its default: changing one means editing this test too
    assert {key: default for key, (_, _, default) in config._SCHEMA.items()} == {
        ("closure", "name"): "gamma_law",
        ("closure", "gamma"): 2.0,
        ("closure", "alpha"): 1.0,
        ("scenario", "preset"): None,
        ("scenario", "v_minus"): 1.0,
        ("scenario", "v_plus"): 1.1,
        ("scenario", "u_minus"): 0.0,
        ("scenario", "u_plus"): 0.0,
        ("scenario", "perturbation_amplitude"): 0.01,
        ("scenario", "perturbation_center"): 0.0,
        ("scenario", "perturbation_width"): 2.0,
        ("grid", "n_cells"): 4096,
        ("grid", "x_max"): None,
        ("time", "end"): 500.0,
        ("time", "cfl"): 0.45,
    }


def test_build_scenario_wiring():
    spec, profile = build_scenario("[scenario]\npreset = m1-default\n")
    assert spec == PRESET_SPECS["m1-default"]
    assert spec.closure.name == "m1"
    assert len(profile.xi_grid) == spec.n_cells + 1
    assert (profile.v_minus, profile.v_plus) == (spec.v_minus, spec.v_plus)
    assert spec.wave_strength == pytest.approx(0.15)
    assert (spec.corr.u_minus, spec.corr.u_plus) == (0.0, 0.05)
    assert spec.corr.mollifier.shape == "bump"


def test_build_scenario_builds_the_spec_once(monkeypatch):
    """The document is parsed and its spec validated once, not once more to build."""
    built = []
    post_init = ScenarioSpec.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ScenarioSpec, "__post_init__", counted)
    spec, _ = build_scenario("[scenario]\npreset = constant-state\n")
    assert built == [spec]


def test_alpha_reaches_closure_correction_and_profile():
    """One damping key: an m1 override moves every holder of alpha."""
    spec, profile = build_scenario("[scenario]\npreset = m1-default\n[closure]\nalpha = 2.0\n")
    assert spec.closure.name == "m1"
    assert (spec.closure.alpha, spec.corr.alpha, profile.alpha) == (2.0, 2.0, 2.0)


def test_retired_and_foreign_closure_keys_are_errors(tmp_path, capsys):
    from diffwave.cli import main

    cases = {
        "sigma = 1\n": "unknown key 'sigma' in [closure]; did you mean 'alpha'?",
        "gamma = 1.4\n": "closure.gamma does not apply to the m1 closure",
    }
    for line, message in cases.items():
        path = tmp_path / "m1.ini"
        path.write_text("[scenario]\npreset = m1-default\n[closure]\n" + line)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    # the default gamma is not the document's: naming m1 over gamma-default is fine
    spec = _preset("gamma-default", "[closure]\nname = m1\n")
    assert spec == dataclasses.replace(PRESET_SPECS["gamma-default"], closure=m1_closure(1.0))


_FLOAT_KEYS = [key for key, (_, conv, _) in config._SCHEMA.items() if conv not in (str, int)]

# each float key's one owner and its message for a value v
_OWNER_MESSAGES = {
    "gamma": "adiabatic exponent gamma must be finite and >= 1, not {}",
    "alpha": "damping constant alpha must be positive and finite, not {}",
    "v_minus": "v_minus must be finite, not {}",
    "v_plus": "v_plus must be finite, not {}",
    "u_minus": "u_minus must be finite, not {}",
    "u_plus": "u_plus must be finite, not {}",
    "perturbation_amplitude": "perturbation amplitude must be finite, not {}",
    "perturbation_center": "perturbation center must be finite, not {}",
    "perturbation_width": "perturbation width must be positive and finite, not {}",
    "x_max": "x_max must be None or positive and finite, not {}",
    "end": "end_time must be finite and >= 0, not {}",
    "cfl": "cfl must lie in (0, 1), not {}",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", _FLOAT_KEYS, ids=[".".join(k) for k in _FLOAT_KEYS])
def test_non_finite_float_is_a_config_error(tmp_path, capsys, section, key, value):
    """NaN passes no range check and inf passes some: each float key's owner
    reports it, once, and the CLI exits 2 with that one message."""
    from diffwave.cli import main

    sections = {"scenario": ["preset = gamma-default"]}
    sections.setdefault(section, []).append(f"{key} = {value}")
    path = tmp_path / "bad.ini"
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
    path.write_text(text)
    message = _OWNER_MESSAGES[key].format(float(value))
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [message]
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: invalid configuration:\n  {message}\n"


def _tiny_series(n_samples=3):
    series = DiagnosticsSeries(x0=0.25)
    for i in range(n_samples):
        t = float(i)
        norms = {k: 1.0 / (1.0 + t) for k in NORM_KEYS}
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
    assert (tmp_path / "rates.svg").read_bytes() == (tmp_path / "again.svg").read_bytes()
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
