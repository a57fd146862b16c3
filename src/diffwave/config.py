"""Run configuration: INI-style parsing, presets and validation.

A config is a small INI document with sections [closure], [scenario],
[grid] and [time]; `#` starts a comment.  Scenario presets expand to the
full parameter set of the built-in verification scenarios and can be
overridden key by key.

Each input rule has one owner.  This module owns the document's rules:
unknown sections, keys and presets (with the nearest valid name
suggested), values that do not parse, a non-finite float (named by its
key), ``closure.name``, and ``gamma`` given with ``name = m1``.  The
objects built from the document own the rest: the closure constructors
own alpha and gamma, ``PerturbationSpec`` the bump width, ``ScenarioSpec``
n_cells >= 1, cfl, end, x_max and the smallness caps, and
``check_profile_arguments`` n_cells >= 64 and finite far fields inside
the closure's v_range.  Validation builds what ``build_scenario`` builds,
short of the profile solve, and collects every owner's error into one
ConfigError; a rule that needs the closure is skipped only when the
closure itself failed.

Each scenario input has one key: ``[closure] alpha`` is the damping of
both closures (for m1 it is the opacity sigma).  The correction pair is
not configured: ``ScenarioSpec`` derives it from the far-field
velocities and alpha.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass

from .closures import gamma_law_closure, m1_closure
from .diffusion_wave import check_profile_arguments, solve_profile
from .solver import PerturbationSpec, ScenarioSpec

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


def _construct(cfg: RunConfig, errors: list):
    """``build_scenario``'s spec, the profile's arguments checked, not solved.

    Each owner's ValueError becomes an entry of ``errors``.  The spec's rules
    read neither the closure nor the bump's width, so where either failed a
    default stands in; only the far fields' v_range, which needs the
    closure, is then skipped.
    """
    def owned(make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            errors.append(str(exc))

    closure = None
    if cfg.closure_name == "m1":
        closure = owned(m1_closure, cfg.alpha)
    elif cfg.closure_name == "gamma_law":
        closure = owned(gamma_law_closure, cfg.gamma, cfg.alpha)
    else:
        errors.append(f"closure.name must be 'm1' or 'gamma_law', got {cfg.closure_name!r}")
    amplitude = cfg.perturbation_amplitude
    bump = owned(PerturbationSpec, amplitude, cfg.perturbation_center, cfg.perturbation_width)
    spec = owned(
        ScenarioSpec, closure=closure or gamma_law_closure(),
        v_minus=cfg.v_minus, v_plus=cfg.v_plus, u_minus=cfg.u_minus, u_plus=cfg.u_plus,
        perturbation=bump or PerturbationSpec(amplitude),
        n_cells=cfg.n_cells, x_max=cfg.x_max, end_time=cfg.end_time, cfl=cfg.cfl,
    )
    owned(check_profile_arguments, closure, cfg.v_minus, cfg.v_plus, cfg.n_cells)
    return spec


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI-style config document.

    Collects all problems (unknown keys with nearest-match suggestions,
    bad values, every owner's failed rules) and raises one ConfigError
    listing them; returns a fully populated RunConfig otherwise.
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

    # check whatever did parse so one failure reports everything
    cfg = RunConfig(**values)
    for (section, key), (name, _) in _SCHEMA.items():
        value = getattr(cfg, name)
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{section}.{key} must be finite, got {value!r}")
    if cfg.closure_name == "m1" and "gamma" in given:
        errors.append("closure.gamma does not apply to the m1 closure; remove it")
    _construct(cfg, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def build_scenario(cfg: RunConfig):
    """Instantiate the scenario and its wave profile.

    Returns ``(spec, profile)``; the profile is solved on the config's
    ``n_cells``, and ``spec.corr`` is the scenario's correction pair.  A
    config that an owner refuses raises ConfigError, as in ``parse_config``.
    """
    errors: list[str] = []
    spec = _construct(cfg, errors)
    if errors:
        raise ConfigError(errors)
    profile = solve_profile(spec.closure, cfg.v_minus, cfg.v_plus, n_cells=cfg.n_cells)
    return spec, profile
