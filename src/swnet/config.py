"""Scenario configuration: schema validation, JSON round-trip, simulation build."""

from __future__ import annotations

import json
import math

import numpy as np

from .boundaries import BOUNDARY_KINDS, BoundaryCondition, gaussian_pulse
from .core import PhysicalParams
from .geometry import Channel
from .junctions import JunctionSpec, wiring_errors
from .simulation import Gauge, NetworkSimulation


class ConfigError(ValueError):
    """Invalid scenario configuration; message lists the offending fields."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """False for the NaN and infinities that Python's `json` reads."""
    return not isinstance(value, float) or math.isfinite(value)


_NUMBER, _INTEGER, _POINT = "a number", "an integer", "a point [x, y]"
_STRING, _BOOL = "a string", "true or false"
_IS = {
    _NUMBER: _is_number,
    _INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    _POINT: lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
    _STRING: lambda v: isinstance(v, str),
    _BOOL: lambda v: isinstance(v, bool),
}
# Each section's keys and the kind of each key's value; None marks a
# sub-section, a list or `t_end`, checked on its own.
_TOP = {"name": _STRING, "physics": None, "numerics": None, "channels": None, "junctions": None,
        "boundaries": None, "initial": None, "gauges": None, "t_end": None, "metadata": None}
_PHYSICS = {"g": _NUMBER, "manning_n": _NUMBER}
_NUMERICS = {"order": _INTEGER, "cfl": _NUMBER}
_CHANNEL = {"id": _STRING, "width": _NUMBER, "cells": _INTEGER, "start": _POINT, "end": _POINT}
_JUNCTION = {"id": _STRING, "strategy": _STRING, "position": _POINT, "connects": None,
             "merging": _BOOL, "patch_refine": _INTEGER}
_CONNECTION = {"channel": _STRING, "end": _STRING}
_STATE = {"h": _NUMBER, "u": _NUMBER}
_BOUNDARY = {"channel": _STRING, "end": _STRING, "kind": _STRING, "inflow": None, **_STATE}
_INFLOW = dict.fromkeys(("amplitude", "center", "width"), _NUMBER)
_GAUGE = {"id": _STRING, "channel": _STRING, "s": _NUMBER}
_INITIAL = {**_STATE, "per_channel": None}
_PROFILE = {"type": _STRING, "left": None, "right": None,
            **dict.fromkeys(("h", "u", "split_s", "h0", "amplitude", "center", "width"), _NUMBER)}
_METADATA = {"probe": _POINT}  # other metadata keys are free-form
# Each refinement level quadruples a Method-B patch: at 6 one junction of
# test1_sub90 takes 32768 triangles, and the next levels soon exhaust memory.
MAX_PATCH_REFINE = 6
_PROFILE_KEYS = {  # the keys each initial profile type requires
    "uniform": (),
    "dam_break": ("split_s", "left", "right"),
    "hump": ("h0", "amplitude", "center", "width"),
}


def _errors(entry, table, where, closed=True) -> list:
    """One message per value of `entry`, which must be a JSON object, that is
    not of its kind in `table`, or is a number or point that is not finite;
    missing keys pass. A key outside `table` raises, unless the section is
    open (`closed=False`)."""
    unknown = set(_typed(entry, dict, where)) - table.keys()
    if unknown and closed:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    errors = []
    for key, kind in table.items():
        if not kind or key not in entry:
            continue
        value = entry[key]
        if not _IS[kind](value):
            errors.append(f"{where}: {key!r} must be {kind}, got {value!r}")
        elif not all(map(_is_finite, value if kind == _POINT else [value])):
            errors.append(f"{where}: {key!r} must be finite, got {value!r}")
    return errors


def _non_finite(value, where) -> list:
    """One message per NaN or infinity at any depth of a free-form JSON
    value, named by its key path: strict JSON has no such numbers."""
    if isinstance(value, dict):
        return [m for k, v in value.items() for m in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [m for k, v in enumerate(value) for m in _non_finite(v, f"{where}[{k}]")]
    return [] if _is_finite(value) else [f"{where} must be finite, got {value!r}"]


def _positive(entry, key, where) -> list:
    """A message when `entry[key]`, which a build divides by, is a number
    that is not positive."""
    value = entry.get(key)
    if _is_number(value) and not value > 0.0:
        return [f"{where}: {key!r} must be positive, got {value!r}"]
    return []


def _typed(value, kind, where):
    """`value`, which must be a JSON object (kind dict) or a list of objects
    (kind list)."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ConfigError(f"{where}: must be {expected}, got {type(value).__name__}")
    for k, entry in enumerate(value if kind is list else ()):
        _typed(entry, dict, f"{where}[{k}]")
    return value


class ScenarioConfig:
    """Validated scenario description; `data` is the canonical dict form."""

    def __init__(self, data: dict):
        self.data = _validate(data)

    def __eq__(self, other):
        return isinstance(other, ScenarioConfig) and self.data == other.data

    @property
    def name(self) -> str:
        return self.data.get("name", "scenario")

    @property
    def t_end(self) -> float:
        return self.data["t_end"]

    def emit(self) -> dict:
        return json.loads(json.dumps(self.data))


def _validate(data: dict) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    errors = _errors(data, _TOP, "config")
    errors += _errors(data.get("physics", {}), _PHYSICS, "physics")
    num = data.get("numerics", {})
    errors += _errors(num, _NUMERICS, "numerics")
    if "order" in num and num["order"] not in (1, 2):
        errors.append(f"numerics.order must be 1 or 2, got {num['order']}")

    channels, junctions, boundaries, gauges = (
        _typed(data.get(k, []), list, k) for k in ("channels", "junctions", "boundaries", "gauges"))
    if not channels:
        errors.append("at least one channel is required")
    for c in channels:
        where = f"channel {c.get('id', '?')}"
        errors += _errors(c, _CHANNEL, where)
        errors += [f"{where}: missing {k!r}" for k in _CHANNEL if k not in c]

    for j in junctions:
        where = f"junction {j.get('id', '?')}"
        errors += _errors(j, _JUNCTION, where)
        errors += [f"{where}: missing {k!r}" for k in ("id", "strategy", "position", "connects")
                   if k not in j]
        refine = j.get("patch_refine")
        if _IS[_INTEGER](refine) and refine < 0:
            errors.append(f"{where}: 'patch_refine' must be at least 0, got {refine}")
        if _IS[_INTEGER](refine) and refine > MAX_PATCH_REFINE:
            errors.append(f"{where}: 'patch_refine' must be at most {MAX_PATCH_REFINE}, "
                          f"got {refine}")
        for conn in _typed(j.get("connects", []), list, f"{where} connects"):
            errors += _errors(conn, _CONNECTION, f"{where} connection")

    for b in boundaries:
        errors += _errors(b, _BOUNDARY, "boundary")
        kind = b.get("kind")
        if kind not in BOUNDARY_KINDS:
            errors.append(f"boundary: unknown kind {kind!r}")
        if kind == "inflow":
            inflow = b.get("inflow")
            if not isinstance(inflow, dict):
                errors.append("inflow boundary: missing inflow {amplitude, center, width}")
            else:
                errors += _errors(inflow, _INFLOW, "inflow") + _positive(inflow, "width", "inflow")
                errors += [f"inflow boundary: missing inflow.{k}" for k in ("amplitude", "center")
                           if k not in inflow]
        if kind == "prescribed" and "h" not in b:
            errors.append("prescribed boundary: missing h")

    init = data.get("initial", {})
    errors += _errors(init, _INITIAL, "initial")
    ids = [c.get("id") for c in channels]
    for cid, section in _typed(init.get("per_channel", {}), dict, "initial.per_channel").items():
        where = f"initial.per_channel[{cid}]"
        if cid not in ids:
            errors.append(f"initial.per_channel: unknown channel {cid!r}")
        errors += _errors(section, _PROFILE, where) + _positive(section, "width", where)
        kind = section.get("type", "uniform")
        required = _PROFILE_KEYS.get(kind) if isinstance(kind, str) else ()
        if required is None:
            errors.append(f"{where}: unknown type {kind!r}")
        for k in required or ():
            if k not in section:
                errors.append(f"{where}: missing {k!r}")
            elif k in ("left", "right"):
                errors += _errors(section[k], _STATE, f"{where}.{k}")
                if "h" not in section[k]:
                    errors.append(f"{where}.{k}: missing 'h'")

    for gauge in gauges:
        errors += _errors(gauge, _GAUGE, f"gauge {gauge.get('id', '?')}")
        if "id" not in gauge:
            errors.append(f"gauge on {gauge.get('channel')!r}: missing 'id'")

    metadata = data.get("metadata", {})
    errors += _errors(metadata, _METADATA, "metadata", closed=False)
    errors += _non_finite({k: v for k, v in metadata.items() if k not in _METADATA}, "metadata")
    t_end = data.get("t_end")
    if "t_end" not in data:
        errors.append("missing t_end")
    elif not _is_number(t_end):
        errors.append(f"config: 't_end' must be a number, got {t_end!r}")
    elif not 0.0 < t_end < np.inf:
        errors.append(f"config: 't_end' must be a positive finite number, got {t_end!r}")

    if not errors:  # the wiring rules key on names, so only once they are strings
        errors = wiring_errors(
            # each channel's `Channel.length`
            [(c["id"], float(np.hypot(*np.subtract(c["end"], c["start"], dtype=float))))
             for c in channels],
            [(j["id"], j["strategy"], [(c.get("channel"), c.get("end")) for c in j["connects"]])
             for j in junctions],
            [(b.get("channel"), b.get("end")) for b in boundaries],
            [(g["id"], g.get("channel"), g.get("s")) for g in gauges],
        )
    if errors:
        raise ConfigError("; ".join(errors))
    return json.loads(json.dumps(data))  # canonical plain-JSON form


def parse_config(source) -> ScenarioConfig:
    """Parse a scenario from a path, JSON string, or dict; a string or file
    that cannot be read as UTF-8 JSON is a ConfigError."""
    if isinstance(source, dict):
        return ScenarioConfig(source)
    text = isinstance(source, str) and source.lstrip().startswith("{")
    try:
        if text:
            data = json.loads(source)
        else:
            with open(source, encoding="utf-8") as f:
                data = json.load(f)
    except json.JSONDecodeError as exc:
        where = "scenario JSON" if text else source
        raise ConfigError(f"{where}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{source}: not UTF-8 text: {exc}") from exc
    return ScenarioConfig(data)


def physical_params(cfg: ScenarioConfig) -> PhysicalParams:
    return PhysicalParams(**cfg.data.get("physics", {}))


def build_channels(cfg: ScenarioConfig) -> list[Channel]:
    return [Channel(**c) for c in cfg.data.get("channels", [])]


def junction_specs(cfg: ScenarioConfig, strategy=None) -> list[JunctionSpec]:
    """The junctions of a scenario; `strategy`, when given, replaces each one's."""
    return [
        JunctionSpec(**{
            **j,
            "strategy": strategy or j["strategy"],
            "position": tuple(j["position"]),
            "connects": [(c["channel"], c["end"]) for c in j["connects"]],
        })
        for j in cfg.data.get("junctions", [])
    ]


def boundary_condition(entry: dict) -> BoundaryCondition:
    """The condition of one `boundaries` entry of a scenario."""
    u_fn = gaussian_pulse(**entry["inflow"]) if entry["kind"] == "inflow" else None
    state = {k: entry[k] for k in ("h", "u") if k in entry}
    return BoundaryCondition(entry["kind"], u_fn=u_fn, **state)


def boundary_conditions(cfg: ScenarioConfig) -> dict:
    """The boundary conditions of a scenario by (channel, end)."""
    entries = cfg.data.get("boundaries", [])
    return {(b["channel"], b["end"]): boundary_condition(b) for b in entries}


def gauges(cfg: ScenarioConfig) -> list[Gauge]:
    return [Gauge(**g) for g in cfg.data.get("gauges", [])]


def build_simulation(
    cfg: ScenarioConfig, *, order=None, cfl=None, strategy=None
) -> NetworkSimulation:
    """Instantiate and initialize a network simulation from a scenario.

    `order` and `cfl` override the scenario's numerics when given, and
    `strategy` replaces the strategy of every junction.
    """
    numerics = cfg.data.get("numerics", {}) | {
        k: v for k, v in (("order", order), ("cfl", cfl)) if v is not None
    }
    try:
        sim = NetworkSimulation(
            build_channels(cfg),
            junction_specs(cfg, strategy),
            boundary_conditions(cfg),
            physical_params(cfg),
            gauges=gauges(cfg),
            **numerics,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    init = cfg.data.get("initial", {})
    for cid, f in sim.fields.items():
        h, u = initial_profile(init, cid, f.centers)
        f.q[:, 0] = h
        f.q[:, 1] = h * u
        f.q[:, 2] = 0.0
    sim.init_junctions()
    return sim


def initial_profile(initial: dict, channel, s):
    """Initial depth and axial velocity of a channel at axial positions s.

    `initial` is a scenario's `initial` section. A channel without a
    `per_channel` entry (or None) takes the uniform state (h, u), by default
    (1, 0).
    """
    section = initial.get("per_channel", {}).get(channel, {})
    kind = section.get("type", "uniform")
    if kind == "uniform":
        h, u = section.get("h", initial.get("h", 1.0)), section.get("u", initial.get("u", 0.0))
        return np.full_like(s, h), np.full_like(s, u)
    if kind == "dam_break":
        left, right = section["left"], section["right"]
        mask = s < section["split_s"]
        h = np.where(mask, left["h"], right["h"])
        return h, np.where(mask, left.get("u", 0.0), right.get("u", 0.0))
    # smooth hump
    h = section["h0"] + section["amplitude"] * np.exp(
        -(((s - section["center"]) / section["width"]) ** 2)
    )
    return h, np.full_like(h, section.get("u", 0.0))

