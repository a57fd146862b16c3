"""Run configuration: INI-style parsing, presets and validation.

A config is a small INI document with sections [closure], [scenario],
[grid] and [time]; `#` starts a comment.  Unknown keys are rejected with
the nearest valid key suggested, and validation collects every error
before failing.  Scenario presets expand to the full parameter set of
the built-in verification scenarios and can be overridden key by key.

Each scenario input has one key: ``[closure] alpha`` is the damping of
both closures (for m1 it is the opacity sigma), and a key the chosen
closure has no use for, such as ``gamma`` with ``name = m1``, is an
error.  The correction pair is not configured: ``ScenarioSpec`` derives
it from the far-field velocities and alpha.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass

from .closures import gamma_law_closure, m1_closure
from .diffusion_wave import solve_profile
from .solver import PerturbationSpec, ScenarioSpec, smallness_errors, wave_strength

__all__ = ["RunConfig", "ConfigError", "parse_config", "PRESETS"]


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """Validated flat view of a run configuration."""

    closure_name: str = "gamma_law"
    gamma: float = 2.0
    alpha: float = 1.0
    preset: str | None = None
    v_minus: float = 1.0
    v_plus: float = 1.1
    u_minus: float = 0.0
    u_plus: float = 0.0
    perturbation_amplitude: float = 0.01
    perturbation_center: float = 0.0
    perturbation_width: float = 2.0
    n_cells: int = 4096
    x_max: float | None = None
    end_time: float = 500.0
    cfl: float = 0.45


# (section, key) -> (config field, converter)
_SCHEMA = {
    ("closure", "name"): ("closure_name", str),
    ("closure", "gamma"): ("gamma", float),
    ("closure", "alpha"): ("alpha", float),
    ("scenario", "preset"): ("preset", str),
    ("scenario", "v_minus"): ("v_minus", float),
    ("scenario", "v_plus"): ("v_plus", float),
    ("scenario", "u_minus"): ("u_minus", float),
    ("scenario", "u_plus"): ("u_plus", float),
    ("scenario", "perturbation_amplitude"): ("perturbation_amplitude", float),
    ("scenario", "perturbation_center"): ("perturbation_center", float),
    ("scenario", "perturbation_width"): ("perturbation_width", float),
    ("grid", "n_cells"): ("n_cells", int),
    ("grid", "x_max"): ("x_max", lambda s: None if s == "auto" else float(s)),
    ("time", "end"): ("end_time", float),
    ("time", "cfl"): ("cfl", float),
}

# retired keys whose value now lives under another key of the same section
_FOLDED = {("closure", "sigma"): "alpha"}

# Scenario presets; "m1-default" is the long verification scenario for
# the radiative closure, "gamma-default" the gas-dynamics counterpart.
PRESETS = {
    "m1-default": {
        "closure_name": "m1",
        "alpha": 1.0,
        "v_minus": 1.0,
        "v_plus": 1.1,
        "u_minus": 0.0,
        "u_plus": 0.05,
        "perturbation_amplitude": 0.01,
        "perturbation_center": 0.0,
        "perturbation_width": 2.0,
        "n_cells": 8192,
        "end_time": 500.0,
        "cfl": 0.45,
    },
    "gamma-default": {
        "closure_name": "gamma_law",
        "gamma": 2.0,
        "alpha": 1.0,
        "v_minus": 1.0,
        "v_plus": 1.1,
        "u_minus": 0.0,
        "u_plus": 0.0,
        "perturbation_amplitude": 0.01,
        "perturbation_center": 0.0,
        "perturbation_width": 2.0,
        "n_cells": 8192,
        "end_time": 500.0,
        "cfl": 0.45,
    },
    "constant-state": {
        "closure_name": "gamma_law",
        "gamma": 2.0,
        "alpha": 1.0,
        "v_minus": 1.0,
        "v_plus": 1.0,
        "u_minus": 0.0,
        "u_plus": 0.0,
        "perturbation_amplitude": 0.0,
        "n_cells": 1024,
        "end_time": 50.0,
        "cfl": 0.45,
    },
}


def _validate(cfg: RunConfig, errors: list):
    # NaN fails no comparison below, so every float is first checked finite
    for (section, key), (name, _) in _SCHEMA.items():
        value = getattr(cfg, name)
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{section}.{key} must be finite, got {value!r}")
    if cfg.closure_name not in ("m1", "gamma_law"):
        errors.append(
            f"closure.name must be 'm1' or 'gamma_law', got {cfg.closure_name!r}"
        )
    if not 0.0 < cfg.cfl < 1.0:
        errors.append("cfl must lie in (0,1)")
    if cfg.n_cells < 64:
        errors.append("grid.n_cells must be at least 64")
    if cfg.end_time < 0.0:
        errors.append("time.end must be nonnegative")
    if cfg.alpha <= 0.0:
        errors.append("closure.alpha must be positive")
    if cfg.gamma < 1.0:
        errors.append("closure.gamma must be >= 1")
    if cfg.v_minus <= 0.0 or cfg.v_plus <= 0.0:
        errors.append("far-field volumes must be positive")
    if cfg.perturbation_width <= 0.0:
        errors.append("scenario.perturbation_width must be positive")
    if cfg.x_max is not None and cfg.x_max <= 0.0:
        errors.append("grid.x_max must be positive or 'auto'")
    errors.extend(
        smallness_errors(
            wave_strength(cfg.v_minus, cfg.v_plus, cfg.u_minus, cfg.u_plus),
            cfg.perturbation_amplitude,
        )
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI-style config document.

    Collects all problems (unknown keys with nearest-match suggestions,
    bad values, failed range checks) and raises one ConfigError listing
    them; returns a fully populated RunConfig otherwise.
    """
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",)
    )
    errors: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax error: {exc}"]) from exc

    known_sections = {s for s, _ in _SCHEMA}
    values = {}
    for section in parser.sections():
        if section not in known_sections:
            near = difflib.get_close_matches(section, known_sections, n=1)
            hint = f"; did you mean [{near[0]}]?" if near else ""
            errors.append(f"unknown section [{section}]{hint}")
            continue
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                candidates = [k for (s, k) in _SCHEMA if s == section]
                near = difflib.get_close_matches(key, candidates, n=1)
                if (section, key) in _FOLDED:
                    near = [_FOLDED[section, key]]
                hint = f"; did you mean '{near[0]}'?" if near else ""
                errors.append(f"unknown key '{key}' in [{section}]{hint}")
                continue
            field_name, conv = _SCHEMA[(section, key)]
            try:
                values[field_name] = conv(raw.strip().strip('"'))
            except ValueError:
                errors.append(f"bad value for {section}.{key}: {raw!r}")

    given = set(values)  # the document's own keys, before any preset
    preset = values.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            near = difflib.get_close_matches(preset, PRESETS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            errors.append(f"unknown scenario preset {preset!r}{hint}")
        else:
            merged = dict(PRESETS[preset])
            merged.update(values)  # explicit keys win over the preset
            values = merged

    # range-check whatever did parse so one failure reports everything
    cfg = RunConfig(**values)
    _validate(cfg, errors)
    if cfg.closure_name == "m1" and "gamma" in given:
        errors.append("closure.gamma does not apply to the m1 closure; remove it")
    if errors:
        raise ConfigError(errors)
    return cfg


def build_scenario(cfg: RunConfig):
    """Instantiate the scenario and its wave profile.

    Returns ``(spec, profile)``; the profile is solved on the config's
    ``n_cells``, and ``spec.corr`` is the scenario's correction pair.
    """
    if cfg.closure_name == "m1":
        closure = m1_closure(cfg.alpha)
    else:
        closure = gamma_law_closure(cfg.gamma, cfg.alpha)

    spec = ScenarioSpec(
        closure=closure,
        v_minus=cfg.v_minus,
        v_plus=cfg.v_plus,
        u_minus=cfg.u_minus,
        u_plus=cfg.u_plus,
        perturbation=PerturbationSpec(
            amplitude=cfg.perturbation_amplitude,
            center=cfg.perturbation_center,
            width=cfg.perturbation_width,
        ),
        n_cells=cfg.n_cells,
        x_max=cfg.x_max,
        end_time=cfg.end_time,
        cfl=cfg.cfl,
    )
    profile = solve_profile(closure, cfg.v_minus, cfg.v_plus, n_cells=cfg.n_cells)
    return spec, profile
