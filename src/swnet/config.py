"""Scenario configuration: schema validation, JSON round-trip, simulation build."""

from __future__ import annotations

import json

import numpy as np

from .boundaries import BoundaryCondition, gaussian_pulse
from .core import PhysicalParams
from .geometry import Channel, GeometryError
from .junctions import JunctionSpec
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
    "output_stride",
    "metadata",
}
_PHYSICS_KEYS = {"g", "manning_n", "friction_enabled"}
_NUMERICS_KEYS = {"order", "cfl", "coupling", "transverse"}
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


def _check_keys(obj, allowed, where):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


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
    num = data.get("numerics", {})
    _check_keys(num, _NUMERICS_KEYS, "numerics")
    if num.get("order", 2) not in (1, 2):
        errors.append(f"numerics.order must be 1 or 2, got {num.get('order')}")
    if num.get("coupling", "shared") not in ("shared", "two-pass"):
        errors.append(f"numerics.coupling invalid: {num.get('coupling')}")
    if num.get("transverse", "project") not in ("project", "zero"):
        errors.append(f"numerics.transverse invalid: {num.get('transverse')}")

    channels = data.get("channels", [])
    if not channels:
        errors.append("at least one channel is required")
    ids = set()
    for c in channels:
        _check_keys(c, _CHANNEL_KEYS, f"channel {c.get('id')}")
        for k in _CHANNEL_KEYS:
            if k not in c:
                errors.append(f"channel {c.get('id', '?')}: missing {k!r}")
        if c.get("id") in ids:
            errors.append(f"duplicate channel id {c['id']!r}")
        ids.add(c.get("id"))

    attached = {}

    def attach(key, where):
        if key in attached:
            errors.append(f"channel end {key} attached by both {attached[key]} and {where}")
        attached[key] = where

    for j in data.get("junctions", []):
        _check_keys(j, _JUNCTION_KEYS, f"junction {j.get('id')}")
        for k in ("id", "strategy", "position", "connects"):
            if k not in j:
                errors.append(f"junction {j.get('id', '?')}: missing {k!r}")
        strategy = j.get("strategy")
        if strategy not in ("A", "B", "psfp"):
            errors.append(f"junction {j.get('id')}: unknown strategy {strategy!r}")
        connects = j.get("connects", [])
        if strategy == "psfp" and len(connects) != 3:
            errors.append(
                f"junction {j.get('id')}: the algebraic solver needs exactly 3 "
                f"channels, got {len(connects)}"
            )
        if len(connects) < 2:
            errors.append(f"junction {j.get('id')}: needs at least 2 channel ends")
        for conn in connects:
            _check_keys(conn, {"channel", "end"}, f"junction {j.get('id')} connection")
            if conn.get("channel") not in ids:
                errors.append(
                    f"junction {j.get('id')}: unknown channel {conn.get('channel')!r}"
                )
            if conn.get("end") not in ("start", "end"):
                errors.append(f"junction {j.get('id')}: end must be start|end")
            else:
                attach((conn.get("channel"), conn["end"]), f"junction {j.get('id')}")

    for b in data.get("boundaries", []):
        _check_keys(b, _BOUNDARY_KEYS, "boundary")
        if b.get("channel") not in ids:
            errors.append(f"boundary: unknown channel {b.get('channel')!r}")
        if b.get("end") not in ("start", "end"):
            errors.append("boundary: end must be start|end")
        else:
            attach((b.get("channel"), b["end"]), "boundary")
        kind = b.get("kind")
        if kind not in ("reflective", "transparent", "inflow", "prescribed"):
            errors.append(f"boundary: unknown kind {kind!r}")
        if kind == "inflow":
            inflow = b.get("inflow")
            if not isinstance(inflow, dict):
                errors.append("inflow boundary: missing inflow {amplitude, center, width}")
            else:
                _check_keys(inflow, {"amplitude", "center", "width"}, "inflow")
                missing = [k for k in ("amplitude", "center") if k not in inflow]
                errors += [f"inflow boundary: missing inflow.{k}" for k in missing]
        if kind == "prescribed" and "h" not in b:
            errors.append("prescribed boundary: missing h")

    for cid in ids:
        for end in ("start", "end"):
            if (cid, end) not in attached:
                errors.append(f"channel end ({cid}, {end}) unattached")

    init = data.get("initial", {})
    _check_keys(init, _INITIAL_KEYS, "initial")
    for cid, section in init.get("per_channel", {}).items():
        if cid not in ids:
            errors.append(f"initial.per_channel: unknown channel {cid!r}")
        _check_keys(section, _PER_CHANNEL_KEYS, f"initial.per_channel[{cid}]")
        kind = section.get("type", "uniform")
        if kind not in ("uniform", "dam_break", "hump"):
            errors.append(f"initial.per_channel[{cid}]: unknown type {kind!r}")

    for gauge in data.get("gauges", []):
        _check_keys(gauge, _GAUGE_KEYS, f"gauge {gauge.get('id')}")
        if gauge.get("channel") not in ids:
            errors.append(f"gauge {gauge.get('id')}: unknown channel {gauge.get('channel')!r}")

    if "t_end" not in data:
        errors.append("missing t_end")

    if errors:
        raise ConfigError("; ".join(errors))
    return json.loads(json.dumps(data))  # canonical plain-JSON form


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
    phys = cfg.data.get("physics", {})
    return PhysicalParams(
        g=phys.get("g", 9.81),
        manning_n=phys.get("manning_n", 0.0),
        friction_enabled=phys.get("friction_enabled", False),
    )


def build_channels(cfg: ScenarioConfig) -> list[Channel]:
    return [Channel(**c) for c in cfg.data.get("channels", [])]


def boundary_condition(entry: dict) -> BoundaryCondition:
    """The condition of one `boundaries` entry of a scenario."""
    u_fn = None
    if entry["kind"] == "inflow":
        spec = entry["inflow"]
        u_fn = gaussian_pulse(spec["amplitude"], spec["center"], spec.get("width", 1.0))
    return BoundaryCondition(entry["kind"], u_fn=u_fn, h=entry.get("h"), u=entry.get("u", 0.0))


def build_simulation(cfg: ScenarioConfig, **overrides) -> NetworkSimulation:
    """Instantiate and initialize a network simulation from a scenario.

    Recognized overrides: order, cfl, strategy (applied to every junction),
    coupling, transverse.
    """
    data = cfg.data
    num = dict(data.get("numerics", {}))
    params = physical_params(cfg)
    channels = build_channels(cfg)
    strategy_override = overrides.get("strategy")
    specs = []
    for j in data.get("junctions", []):
        spec = JunctionSpec(
            id=j["id"],
            strategy=strategy_override or j["strategy"],
            position=tuple(j["position"]),
            connects=[(c["channel"], c["end"]) for c in j["connects"]],
            merging=j.get("merging", False),
            protrusion=j.get("protrusion", 0.1),
            patch_protrusion=j.get("patch_protrusion", 0.5),
            patch_refine=j.get("patch_refine", 2),
        )
        specs.append(spec)
    boundaries = {
        (b["channel"], b["end"]): boundary_condition(b) for b in data.get("boundaries", [])
    }
    gauges = [
        Gauge(id=g["id"], channel=g["channel"], s=g["s"])
        for g in data.get("gauges", [])
    ]
    try:
        sim = NetworkSimulation(
            channels,
            specs,
            boundaries,
            params,
            order=overrides.get("order", num.get("order", 2)),
            cfl=overrides.get("cfl", num.get("cfl", 0.9)),
            coupling_mode=overrides.get("coupling", num.get("coupling", "shared")),
            transverse_mode=overrides.get("transverse", num.get("transverse", "project")),
            gauges=gauges,
        )
    except (ValueError, GeometryError) as exc:
        raise ConfigError(str(exc)) from exc
    apply_initial(sim, cfg)
    return sim


def initial_profile(section: dict, s, h0: float, u0: float):
    """Initial depth and axial velocity of one channel at axial positions s.

    `section` is the channel's `initial.per_channel` entry; an empty one
    means the scenario-wide uniform state (h0, u0).
    """
    kind = section.get("type", "uniform")
    if kind == "uniform":
        return np.full_like(s, section.get("h", h0)), np.full_like(s, section.get("u", u0))
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


def apply_initial(sim: NetworkSimulation, cfg: ScenarioConfig):
    init = cfg.data.get("initial", {})
    per = init.get("per_channel", {})
    for cid, f in sim.fields.items():
        h, u = initial_profile(per.get(cid, {}), f.centers, init.get("h", 1.0), init.get("u", 0.0))
        f.q[:, 0] = h
        f.q[:, 1] = h * u
        f.q[:, 2] = 0.0
    sim.init_junctions()
