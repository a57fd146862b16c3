"""Run configuration: INI-style parsing, presets and validation.

A config is a small INI document with sections [closure], [scenario],
[grid] and [time]; `#` starts a comment.  ``parse_config`` returns the
``ScenarioSpec`` the document describes.  Each key has one default in
``_SCHEMA``; a scenario preset lists only the values it changes from
those defaults, and the document's own keys override both.

Each input rule has one owner.  This module owns the document's rules:
unknown sections, keys and presets (with the nearest valid name
suggested), values that do not parse, ``closure.name``, and ``gamma``
given with ``name = m1``.  The objects built from the document own the
rest, a non-finite value included: the closure constructors own alpha
and gamma, ``PerturbationSpec`` the bump's amplitude, center and width,
``ScenarioSpec`` finite far fields, n_cells >= 1, cfl, end, x_max and the
smallness caps, and ``check_profile_arguments`` n_cells >= 64 and each
finite far field inside the closure's v_range.  Validation builds the
spec and runs the profile's argument check, short of the profile solve,
and collects every owner's error into one ConfigError; a rule that needs
the closure is skipped only when the closure itself failed.

Each scenario input has one key: ``[closure] alpha`` is the damping of
both closures (for m1 it is the opacity sigma).  The correction pair is
not configured: ``ScenarioSpec`` derives it from the far-field
velocities and alpha.
"""

from __future__ import annotations

import configparser
import difflib
import math

from .closures import gamma_law_closure, m1_closure
from .diffusion_wave import check_profile_arguments, solve_profile
from .solver import PerturbationSpec, ScenarioSpec

__all__ = ["ConfigError", "parse_config", "build_scenario", "PRESETS"]


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


# (section, key) -> (field, converter, default)
_SCHEMA = {
    ("closure", "name"): ("closure_name", str, "gamma_law"),
    ("closure", "gamma"): ("gamma", float, 2.0),
    ("closure", "alpha"): ("alpha", float, 1.0),
    ("scenario", "preset"): ("preset", str, None),
    ("scenario", "v_minus"): ("v_minus", float, 1.0),
    ("scenario", "v_plus"): ("v_plus", float, 1.1),
    ("scenario", "u_minus"): ("u_minus", float, 0.0),
    ("scenario", "u_plus"): ("u_plus", float, 0.0),
    ("scenario", "perturbation_amplitude"): ("perturbation_amplitude", float, 0.01),
    ("scenario", "perturbation_center"): ("perturbation_center", float, 0.0),
    ("scenario", "perturbation_width"): ("perturbation_width", float, 2.0),
    ("grid", "n_cells"): ("n_cells", int, 4096),
    ("grid", "x_max"): ("x_max", lambda s: None if s == "auto" else float(s), None),
    ("time", "end"): ("end_time", float, 500.0),
    ("time", "cfl"): ("cfl", float, 0.45),
}

# retired keys whose value now lives under another key of the same section
_FOLDED = {("closure", "sigma"): "alpha"}

# Scenario presets, each the values it changes from _SCHEMA's defaults;
# "m1-default" is the long verification scenario for the radiative closure,
# "gamma-default" the gas-dynamics counterpart.
PRESETS = {
    "m1-default": {"closure_name": "m1", "u_plus": 0.05, "n_cells": 8192},
    "gamma-default": {"n_cells": 8192},
    "constant-state": {
        "v_plus": 1.0, "perturbation_amplitude": 0.0, "n_cells": 1024, "end_time": 50.0,
    },
}


def _construct(errors: list, closure_name, gamma, alpha, perturbation_amplitude,
               perturbation_center, perturbation_width, preset, **scenario):
    """The document's spec, the profile's arguments checked, not solved.

    ``scenario`` holds the spec's own fields.  Each owner's ValueError
    becomes an entry of ``errors``.  The spec's rules read neither the
    closure nor the bump's center and width, so where either failed a
    default stands in; only the far fields' v_range, which needs the
    closure, is then skipped.
    """
    def owned(make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            errors.append(str(exc))

    closure = None
    if closure_name == "m1":
        closure = owned(m1_closure, alpha)
    elif closure_name == "gamma_law":
        closure = owned(gamma_law_closure, gamma, alpha)
    else:
        errors.append(f"closure.name must be 'm1' or 'gamma_law', got {closure_name!r}")
    amplitude = perturbation_amplitude
    bump = owned(PerturbationSpec, amplitude, perturbation_center, perturbation_width)
    # a finite amplitude still meets the spec's cap when the bump failed
    stand_in = PerturbationSpec(amplitude if math.isfinite(amplitude) else 0.0)
    spec = owned(ScenarioSpec, closure=closure or gamma_law_closure(),
                 perturbation=bump or stand_in, **scenario)
    owned(check_profile_arguments, closure, scenario["v_minus"], scenario["v_plus"],
          scenario["n_cells"])
    return spec


def parse_config(text: str) -> ScenarioSpec:
    """Parse and validate an INI-style config document into its scenario.

    Collects all problems (unknown keys with nearest-match suggestions,
    bad values, every owner's failed rules) and raises one ConfigError
    listing them; returns the validated ScenarioSpec otherwise.
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
    given = {}  # the document's own keys
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
            field_name, conv, _ = _SCHEMA[(section, key)]
            try:
                given[field_name] = conv(raw.strip().strip('"'))
            except ValueError:
                errors.append(f"bad value for {section}.{key}: {raw!r}")

    # defaults, then the preset, then the document's own keys
    values = {name: default for name, _, default in _SCHEMA.values()}
    preset = given.get("preset")
    if preset in PRESETS:
        values.update(PRESETS[preset])
    elif preset is not None:
        near = difflib.get_close_matches(preset, PRESETS, n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        errors.append(f"unknown scenario preset {preset!r}{hint}")
    values.update(given)

    # check whatever did parse so one failure reports everything
    if values["closure_name"] == "m1" and "gamma" in given:
        errors.append("closure.gamma does not apply to the m1 closure; remove it")
    spec = _construct(errors, **values)
    if errors:
        raise ConfigError(errors)
    return spec


def build_scenario(text: str):
    """The scenario of a config document and its wave profile.

    Returns ``(spec, profile)``: the document parsed once, and the profile
    solved on the spec's ``n_cells``; ``spec.corr`` is the scenario's
    correction pair.
    """
    spec = parse_config(text)
    profile = solve_profile(spec.closure, spec.v_minus, spec.v_plus, n_cells=spec.n_cells)
    return spec, profile
