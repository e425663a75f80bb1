"""Scenario configuration: schema validation, JSON round-trip, simulation build."""

from __future__ import annotations

import json

import numpy as np

from .boundaries import BoundaryCondition, gaussian_pulse
from .core import PhysicalParams
from .geometry import Channel, GeometryError
from .junctions import JunctionSpec, wiring_errors
from .simulation import Gauge, NetworkSimulation


class ConfigError(ValueError):
    """Invalid scenario configuration; message lists the offending fields."""


_TOP_KEYS = {
    "name",
    "physics",
    "numerics",
    "channels",
    "junctions",
    "boundaries",
    "initial",
    "gauges",
    "t_end",
    "metadata",
}
_PHYSICS_KEYS = {"g", "manning_n"}
_NUMERICS_KEYS = {"order", "cfl"}
_CHANNEL_KEYS = {"id", "width", "cells", "start", "end"}
_JUNCTION_KEYS = {
    "id",
    "strategy",
    "position",
    "connects",
    "merging",
    "protrusion",
    "patch_protrusion",
    "patch_refine",
}
_BOUNDARY_KEYS = {"channel", "end", "kind", "inflow", "h", "u"}
_GAUGE_KEYS = {"id", "channel", "s"}
_INITIAL_KEYS = {"h", "u", "per_channel"}
_PER_CHANNEL_KEYS = {"type", "h", "u", "split_s", "left", "right", "h0", "amplitude", "center", "width"}
_PROFILE_KEYS = {  # the keys each initial profile type requires
    "dam_break": ("split_s", "left", "right"),
    "hump": ("h0", "amplitude", "center", "width"),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_NUMBER, _INTEGER, _POINT = "a number", "an integer", "a point [x, y]"
_IS = {
    _NUMBER: _is_number,
    _INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    _POINT: lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
}
# The type of each scalar value, per section.
_PHYSICS_TYPES = {"g": _NUMBER, "manning_n": _NUMBER}
_CHANNEL_TYPES = {"width": _NUMBER, "cells": _INTEGER, "start": _POINT, "end": _POINT}
_JUNCTION_TYPES = {"position": _POINT, "protrusion": _NUMBER, "patch_protrusion": _NUMBER,
                   "patch_refine": _INTEGER}
_STATE_TYPES = {"h": _NUMBER, "u": _NUMBER}
_INFLOW_TYPES = dict.fromkeys(("amplitude", "center", "width"), _NUMBER)
_PROFILE_TYPES = dict.fromkeys(("h", "u", "split_s", "h0", "amplitude", "center", "width"), _NUMBER)


def _scalar_errors(entry, types, where) -> list:
    """One message per key of `entry` whose value is not of its type in
    `types` ({key: _NUMBER, _INTEGER or _POINT}); missing keys pass."""
    return [
        f"{where}: {key!r} must be {kind}, got {entry[key]!r}"
        for key, kind in types.items()
        if key in entry and not _IS[kind](entry[key])
    ]


def _check_keys(obj, allowed, where):
    unknown = set(_typed(obj, dict, where)) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


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
    _check_keys(data, _TOP_KEYS, "config")
    errors = []

    phys = data.get("physics", {})
    _check_keys(phys, _PHYSICS_KEYS, "physics")
    errors += _scalar_errors(phys, _PHYSICS_TYPES, "physics")
    num = data.get("numerics", {})
    _check_keys(num, _NUMERICS_KEYS, "numerics")
    errors += _scalar_errors(num, {"cfl": _NUMBER}, "numerics")
    if "order" in num and num["order"] not in (1, 2):
        errors.append(f"numerics.order must be 1 or 2, got {num['order']}")

    channels, junctions, boundaries, gauges = (
        _typed(data.get(k, []), list, k) for k in ("channels", "junctions", "boundaries", "gauges"))
    if not channels:
        errors.append("at least one channel is required")
    for c in channels:
        _check_keys(c, _CHANNEL_KEYS, f"channel {c.get('id')}")
        for k in _CHANNEL_KEYS:
            if k not in c:
                errors.append(f"channel {c.get('id', '?')}: missing {k!r}")
        errors += _scalar_errors(c, _CHANNEL_TYPES, f"channel {c.get('id', '?')}")

    for j in junctions:
        _check_keys(j, _JUNCTION_KEYS, f"junction {j.get('id')}")
        for k in ("id", "strategy", "position", "connects"):
            if k not in j:
                errors.append(f"junction {j.get('id', '?')}: missing {k!r}")
        errors += _scalar_errors(j, _JUNCTION_TYPES, f"junction {j.get('id', '?')}")
        for conn in _typed(j.get("connects", []), list, f"junction {j.get('id')} connects"):
            _check_keys(conn, {"channel", "end"}, f"junction {j.get('id')} connection")

    for b in boundaries:
        _check_keys(b, _BOUNDARY_KEYS, "boundary")
        errors += _scalar_errors(b, _STATE_TYPES, "boundary")
        kind = b.get("kind")
        if kind not in ("reflective", "transparent", "inflow", "prescribed"):
            errors.append(f"boundary: unknown kind {kind!r}")
        if kind == "inflow":
            inflow = b.get("inflow")
            if not isinstance(inflow, dict):
                errors.append("inflow boundary: missing inflow {amplitude, center, width}")
            else:
                _check_keys(inflow, {"amplitude", "center", "width"}, "inflow")
                errors += _scalar_errors(inflow, _INFLOW_TYPES, "inflow")
                missing = [k for k in ("amplitude", "center") if k not in inflow]
                errors += [f"inflow boundary: missing inflow.{k}" for k in missing]
        if kind == "prescribed" and "h" not in b:
            errors.append("prescribed boundary: missing h")

    ids = [c.get("id") for c in channels]
    errors += wiring_errors(
        [(c.get("id"), _length(c)) for c in channels],
        [
            (j.get("id"), j.get("strategy"),
             [(c.get("channel"), c.get("end")) for c in j.get("connects", [])])
            for j in junctions
        ],
        [(b.get("channel"), b.get("end")) for b in boundaries],
        [(g.get("id"), g.get("channel"), g.get("s")) for g in gauges],
    )

    init = data.get("initial", {})
    _check_keys(init, _INITIAL_KEYS, "initial")
    errors += _scalar_errors(init, _STATE_TYPES, "initial")
    per_channel = _typed(init.get("per_channel", {}), dict, "initial.per_channel")
    for cid, section in per_channel.items():
        if cid not in ids:
            errors.append(f"initial.per_channel: unknown channel {cid!r}")
        _check_keys(section, _PER_CHANNEL_KEYS, f"initial.per_channel[{cid}]")
        kind = section.get("type", "uniform")
        if kind not in ("uniform", "dam_break", "hump"):
            errors.append(f"initial.per_channel[{cid}]: unknown type {kind!r}")
        errors += _scalar_errors(section, _PROFILE_TYPES, f"initial.per_channel[{cid}]")
        for k in _PROFILE_KEYS.get(kind, ()):
            if k not in section:
                errors.append(f"initial.per_channel[{cid}]: missing {k!r}")
            elif k in ("left", "right"):
                side = _typed(section[k], dict, f"initial.per_channel[{cid}].{k}")
                if "h" not in side:
                    errors.append(f"initial.per_channel[{cid}].{k}: missing 'h'")
                errors += _scalar_errors(side, _STATE_TYPES, f"initial.per_channel[{cid}].{k}")

    for gauge in gauges:
        _check_keys(gauge, _GAUGE_KEYS, f"gauge {gauge.get('id')}")
        if "id" not in gauge:
            errors.append(f"gauge on {gauge.get('channel')!r}: missing 'id'")

    _typed(data.get("metadata", {}), dict, "metadata")
    if "t_end" not in data:
        errors.append("missing t_end")
    errors += _scalar_errors(data, {"t_end": _NUMBER}, "config")
    if _is_number(data.get("t_end")) and not 0.0 < data["t_end"] < np.inf:
        errors.append(f"config: 't_end' must be a positive finite number, got {data['t_end']!r}")

    if errors:
        raise ConfigError("; ".join(errors))
    return json.loads(json.dumps(data))  # canonical plain-JSON form


def _length(channel: dict):
    """A channel entry's `Channel.length`; None where its ends are not points."""
    try:
        return float(np.hypot(*np.subtract(channel["end"], channel["start"], dtype=float)))
    except (KeyError, TypeError, ValueError):
        return None


def parse_config(source) -> ScenarioConfig:
    """Parse a scenario from a path, JSON string, or dict."""
    if isinstance(source, dict):
        return ScenarioConfig(source)
    if isinstance(source, str) and source.lstrip().startswith("{"):
        return ScenarioConfig(json.loads(source))
    with open(source) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: line {exc.lineno}: {exc.msg}") from exc
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
    except (ValueError, GeometryError) as exc:
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

