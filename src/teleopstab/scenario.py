"""Scenario files, run settings, and machine-readable analysis reports.

Scenario files are plain-text sectioned key-value (INI style, ``#``/``;``
comments).  Unknown sections or keys are rejected; the parser only converts
the text, and the model classes check the values.  The grammar is
documented in docs/scenario-format.md.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
from dataclasses import fields

from . import __version__
from .control import ControllerGains
from .plants import ImpedanceModel, RobotParams, WallModel
from .sim import NonidealityConfig, OperatorForce, RunSettings, SimScenario, SimVerdict
from .stability import ChannelConfig, StabilityReport

__all__ = [
    "ParseError",
    "ValidationError",
    "load_scenario",
    "load_run_settings",
    "save_scenario",
    "serialize_scenario",
    "scenario_hash",
    "build_report",
    "write_report",
    "read_report",
]

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Scenario file is not well-formed sectioned key-value text."""


class ValidationError(ValueError):
    """Scenario file is well-formed but violates the model contract."""


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"{section}.{key}: expected a number, got {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"{section}.{key}: expected an integer, got {raw!r}"
        ) from None


def _parse_bool(section: str, key: str, raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValidationError(
            f"{section}.{key}: expected a boolean, got {raw!r}"
        ) from None


# The whole file format: section -> key -> (parser kind, required, field).
# ``field`` names the attribute the value fills: on the section's object, and
# for [run] on SimScenario or, when RunSettings has it, on RunSettings.  An
# optional key left out of the file takes that field's dataclass default.
# Sections and keys are written in this order.
_REQUIRED, _OPTIONAL = True, False

_ROBOT = {
    "mass": ("float", _REQUIRED, "mass"),
    "damping": ("float", _REQUIRED, "damping"),
}

_SCHEMA: dict[str, dict[str, tuple[str, bool, str]]] = {
    "master": _ROBOT,
    "slave": _ROBOT,
    "human": {
        "mass": ("float", _REQUIRED, "mass"),
        "damping": ("float", _REQUIRED, "damping"),
        "stiffness": ("float", _REQUIRED, "stiffness"),
    },
    "wall": {
        "position": ("float", _REQUIRED, "position"),
        "stiffness": ("float", _OPTIONAL, "stiffness"),
        "damping": ("float", _OPTIONAL, "damping"),
    },
    "gains": {
        "kp": ("float", _REQUIRED, "kp"),
        "kv": ("float", _REQUIRED, "kv"),
        "kd": ("float", _REQUIRED, "kd"),
        "p_eps": ("float", _REQUIRED, "p_eps"),
    },
    "channel": {
        "period": ("float", _REQUIRED, "T"),
        "d1": ("int", _REQUIRED, "d1"),
        "d2": ("int", _REQUIRED, "d2"),
        "eps_min": ("float", _REQUIRED, "eps_min"),
        "alpha": ("float", _REQUIRED, "alpha"),
    },
    "operator_force": {
        "start": ("float", _REQUIRED, "start"),
        "stop": ("float", _REQUIRED, "stop"),
        "magnitude": ("float", _OPTIONAL, "magnitude"),
    },
    "nonidealities": {
        "encoder_step": ("float", _OPTIONAL, "encoder_step"),
        "actuator_limit": ("float", _OPTIONAL, "actuator_limit"),
        "force_to_volts": ("float", _OPTIONAL, "force_to_volts"),
        "velocity_filter_cutoff": ("float", _OPTIONAL, "velocity_filter_cutoff"),
        "noise_std": ("float", _OPTIONAL, "noise_std"),
    },
    "run": {
        "duration": ("float", _REQUIRED, "duration"),
        "substeps": ("int", _REQUIRED, "integrator_substeps"),
        "seed": ("int", _OPTIONAL, "seed"),
        "grid_points": ("int", _OPTIONAL, "grid_points"),
        "position_bound": ("float", _OPTIONAL, "position_bound"),
        "settle_window": ("float", _OPTIONAL, "settle_window"),
        "settle_tol": ("float", _OPTIONAL, "settle_tol"),
        "jitter": ("bool", _OPTIONAL, "jitter_sampling"),
    },
}

# every section but [run] fills the SimScenario field of its own name
_CTORS = {
    "master": RobotParams,
    "slave": RobotParams,
    "human": ImpedanceModel,
    "wall": WallModel,
    "gains": ControllerGains,
    "channel": ChannelConfig,
    "operator_force": OperatorForce,
    "nonidealities": NonidealityConfig,
}
_RUN_SETTINGS = tuple(f.name for f in fields(RunSettings))
_OPTIONAL_SECTIONS = {"nonidealities"}
_PARSERS = {"float": _parse_float, "int": _parse_int, "bool": _parse_bool}


def _read_sections(text: str, origin: str) -> dict[str, dict[str, object]]:
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, strict=True
    )
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from None
    if cp.defaults():
        raise ValidationError("keys are not allowed outside a section")
    out: dict[str, dict[str, object]] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ValidationError(f"unknown section {section!r}")
        spec = _SCHEMA[section]
        values: dict[str, object] = {}
        for key, raw in cp.items(section):
            if key not in spec:
                raise ValidationError(f"{section}: unknown key {key!r}")
            values[key] = _PARSERS[spec[key][0]](section, key, raw)
        out[section] = values
    for section, spec in _SCHEMA.items():
        if section not in out:
            if section in _OPTIONAL_SECTIONS:
                continue
            raise ValidationError(f"{section}: required")
        for key, (_, required, _) in spec.items():
            if required and key not in out[section]:
                raise ValidationError(f"{section}.{key}: required")
    return out


def _build(section: str, ctor, **kwargs):
    try:
        return ctor(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"{section}: {exc}") from None


def _keywords(section: str, values: dict[str, object]) -> dict[str, object]:
    spec = _SCHEMA[section]
    return {spec[key][2]: v for key, v in values.items()}


def _assemble(sections: dict[str, dict[str, object]]) -> tuple[SimScenario, RunSettings]:
    parts = {
        section: _build(section, ctor, **_keywords(section, sections[section]))
        if section in sections
        else None  # no [nonidealities]: the ideal loop
        for section, ctor in _CTORS.items()
    }
    r = _keywords("run", sections["run"])
    run = {name: r.pop(name) for name in _RUN_SETTINGS if name in r}
    scenario = _build("run", SimScenario, **parts, **r)
    return scenario, _build("run", RunSettings, **run)


def _load_bundle(path) -> tuple[SimScenario, RunSettings]:
    # utf-8-sig drops the byte-order mark some editors write first
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    return _assemble(_read_sections(text, str(path)))


def load_scenario(path) -> SimScenario:
    """Parse and validate a scenario file."""
    return _load_bundle(path)[0]


def load_run_settings(path) -> RunSettings:
    """Parse the [run] extras (seed, grid size, verdict thresholds)."""
    return _load_bundle(path)[1]


def serialize_scenario(sc: SimScenario, run: RunSettings = RunSettings()) -> str:
    """Canonical text form; parsing it back yields an identical scenario."""
    buf = io.StringIO()
    for section, spec in _SCHEMA.items():
        obj = sc if section == "run" else getattr(sc, section)
        if obj is None:  # no [nonidealities]
            continue
        buf.write(f"[{section}]\n")
        for key, (_, _, field) in spec.items():
            owner = run if section == "run" and field in _RUN_SETTINGS else obj
            v = getattr(owner, field)
            if isinstance(v, bool):
                v = "true" if v else "false"
            buf.write(f"{key} = {v!r}\n" if isinstance(v, float) else f"{key} = {v}\n")
        buf.write("\n")
    return buf.getvalue()


def save_scenario(sc: SimScenario, path, run: RunSettings = RunSettings()) -> None:
    """Write the canonical text form to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(sc, run))


def scenario_hash(sc: SimScenario) -> str:
    """SHA-256 of the canonical serialization (run extras at defaults)."""
    return hashlib.sha256(serialize_scenario(sc).encode("utf-8")).hexdigest()


def build_report(
    sc: SimScenario,
    run: RunSettings,
    stability: StabilityReport | None = None,
    sim_verdict: SimVerdict | None = None,
) -> dict:
    """Self-describing report dict: results plus provenance and units."""
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "teleopstab", "version": __version__},
        "provenance": {
            "scenario_sha256": scenario_hash(sc),
            "seed": run.seed,
            "grid_points": run.grid_points,
            "period_s": sc.channel.T,
            "delays_periods": [sc.channel.d1, sc.channel.d2],
        },
        "units": {
            "position": "rad",
            "velocity": "rad/s",
            "force": "N*m",
            "time": "s",
            "frequency": "rad/s",
        },
    }
    if stability is not None:
        report["stability"] = {
            "small_gain_value": stability.small_gain_value,
            "small_gain_pass": stability.small_gain_pass,
            "argmax_frequency_rad_per_s": stability.argmax_frequency,
            "grid_size": stability.grid_size,
            "excluded_points": stability.excluded_points,
            "damping_bound": stability.damping_bound,
            "damping_bound_pass_master": stability.damping_pass_master,
            "damping_bound_pass_slave": stability.damping_pass_slave,
        }
    if sim_verdict is not None:
        report["simulation"] = {
            "bounded": sim_verdict.bounded,
            "max_abs_position_rad": sim_verdict.max_abs_position,
            "settling_ok": sim_verdict.settling_ok,
            "final_velocity_max_rad_per_s": sim_verdict.final_velocity_max,
            "divergence_time_s": sim_verdict.divergence_time,
        }
    return report


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
