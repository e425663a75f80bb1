"""Built-in scenario presets.

Source figures rarely print channel lengths or shock generation states, so
each preset documents its reconstructed numbers under metadata.assumed; they
support qualitative and cross-method regression runs, not figure digitizing.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigError, ScenarioConfig

G_DEFAULT = 9.81


def bore_state(h0: float, froude: float):
    """Depth and velocity behind a bore advancing into still water of depth h0.

    `froude` is the flow Froude number of the post-shock state, at g =
    G_DEFAULT. Solved from the jump conditions by bisection on the depth ratio.
    """

    def flow_froude(r):
        return (r - 1.0) * np.sqrt((r + 1.0) / (2.0 * r)) / np.sqrt(r)

    lo, hi = 1.0 + 1e-12, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flow_froude(mid) < froude:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    h1 = r * h0
    u1 = (h1 - h0) * np.sqrt(G_DEFAULT * (h1 + h0) / (2.0 * h1 * h0))
    return float(h1), float(u1)


def _channels(*rows):
    """Channel entries `ch1`, `ch2`, ... from (width, cells, start, end) rows."""
    return [
        {"id": f"ch{k}", "width": w, "cells": n, "start": list(a), "end": list(b)}
        for k, (w, n, a, b) in enumerate(rows, 1)
    ]


def _sub90_geometry():
    width, parent_len, daughter_len, ds = 0.4, 3.0, 2.0, 0.05
    half = width / 2.0
    daughter_cells = int(round(daughter_len / ds))
    return _channels(
        (width, int(round(parent_len / ds)), [-half - parent_len, 0.0], [-half, 0.0]),
        (width, daughter_cells, [0.0, half], [0.0, half + daughter_len]),
        (width, daughter_cells, [0.0, -half], [0.0, -half - daughter_len]),
    )


def _junction(jid, strategy, position, connects, **kw):
    return {
        "id": jid,
        "strategy": strategy,
        "position": list(position),
        "connects": [{"channel": c, "end": e} for c, e in connects],
        **kw,
    }


def _scenario(name, channels, junctions, boundaries, initial, gauges, t_end, metadata,
              physics=None):
    """A scenario stepped at second order and CFL 0.9, with g = G_DEFAULT
    unless `physics` is given; `gauges` lists (id, channel, s)."""
    return ScenarioConfig(
        {
            "name": name,
            "physics": physics or {"g": G_DEFAULT},
            "numerics": {"order": 2, "cfl": 0.9},
            "channels": channels,
            "junctions": junctions,
            "boundaries": boundaries,
            "initial": initial,
            "gauges": [{"id": gid, "channel": ch, "s": s} for gid, ch, s in gauges],
            "t_end": t_end,
            "metadata": metadata,
        }
    )


def _bifurcation(name, strategy, channels, inlet, initial, gauges, t_end, metadata):
    """A three-channel junction scenario: junction `j1` at the origin joins
    `ch1`'s end to the starts of `ch2` and `ch3`.

    `inlet` is the boundary entry at `ch1`'s start without its channel and
    end; both daughters end transparent.
    """
    ends = [("ch1", "end"), ("ch2", "start"), ("ch3", "start")]
    boundaries = [
        {"channel": "ch1", "end": "start", **inlet},
        {"channel": "ch2", "end": "end", "kind": "transparent"},
        {"channel": "ch3", "end": "end", "kind": "transparent"},
    ]
    junctions = [_junction("j1", strategy, (0.0, 0.0), ends)]
    return _scenario(name, channels, junctions, boundaries, initial, gauges, t_end, metadata)


def _inflow(amplitude):
    return {"kind": "inflow", "inflow": {"amplitude": amplitude, "center": 3.0, "width": 1.0}}


def _ch1_dam_break(h0, split_s, h1, u1):
    """Still water of depth h0, with the state (h1, u1) in `ch1` before split_s."""
    left, right = {"h": h1, "u": u1}, {"h": h0, "u": 0.0}
    dam = {"type": "dam_break", "split_s": split_s, "left": left, "right": right}
    return {"h": h0, "u": 0.0, "per_channel": {"ch1": dam}}


def test1_sub90(strategy="A") -> ScenarioConfig:
    """Subcritical wave through a symmetric 90-degree bifurcation."""
    return _bifurcation(
        "test1_sub90",
        strategy,
        _sub90_geometry(),
        inlet=_inflow(0.5),
        initial={"h": 0.16, "u": 0.0},
        gauges=[("g_ch1", "ch1", 1.5), ("g_ch2", "ch2", 1.0), ("g_ch3", "ch3", 1.0)],
        t_end=8.0,
        metadata={
            "assumed": {
                "geometry": "widths 0.4 m, parent 3 m, daughters 2 m (not printed)",
                "inflow": "Gaussian velocity pulse 0.5 m/s giving max Froude ~0.4",
            }
        },
    )


def test2_asym90(strategy="A") -> ScenarioConfig:
    """Subcritical wave through an asymmetric 90-degree side branch."""
    return _bifurcation(
        "test2_asym90",
        strategy,
        _channels(
            (0.4, 60, [-3.2, 0.0], [-0.2, 0.0]),
            (0.3, 40, [0.0, 0.2], [0.0, 2.2]),
            (0.4, 40, [0.2, 0.0], [2.2, 0.0]),
        ),
        inlet=_inflow(0.5),
        initial={"h": 0.16, "u": 0.0},
        gauges=[("g_ch1", "ch1", 1.5), ("g_ch2", "ch2", 1.0), ("g_ch3", "ch3", 1.0)],
        t_end=8.0,
        metadata={"assumed": {"geometry": "side branch width 0.3 m, main 0.4 m (not printed)"}},
    )


def test3_shock45(strategy="A") -> ScenarioConfig:
    """Bore of flow Froude 0.75 hitting a 45-degree side bifurcation."""
    h0 = 0.1
    h1, u1 = bore_state(h0, 0.75)
    c45, s45 = np.cos(np.pi / 4), np.sin(np.pi / 4)
    r0 = 0.5
    return _bifurcation(
        "test3_shock45",
        strategy,
        _channels(
            (0.4, 40, [-2.5, 0.0], [-0.5, 0.0]),
            (0.4, 40, [0.5, 0.0], [2.5, 0.0]),
            (0.4, 40, [r0 * c45, r0 * s45], [(r0 + 2.0) * c45, (r0 + 2.0) * s45]),
        ),
        inlet={"kind": "prescribed", "h": h1, "u": u1},
        initial={"h": h0, "u": 0.0},
        gauges=[("g_ch2", "ch2", 1.0), ("g_ch3", "ch3", 1.0)],
        t_end=2.0,
        metadata={
            "assumed": {
                "shock": f"flow Froude 0.75 behind bore: h={h1:.4f}, u={u1:.4f}",
                "geometry": "straight-through plus 45-degree branch, widths 0.4 m",
            }
        },
    )


def test4_super90(strategy="A") -> ScenarioConfig:
    """Supercritical bore (flow Froude 1.135) through the symmetric 90-degree split."""
    h0 = 0.1
    h1, u1 = bore_state(h0, 1.135)
    return _bifurcation(
        "test4_super90",
        strategy,
        _sub90_geometry(),
        inlet={"kind": "prescribed", "h": h1, "u": u1},
        initial=_ch1_dam_break(h0, 1.5, h1, u1),
        gauges=[("g_ch1", "ch1", 2.5), ("g_ch2", "ch2", 1.0), ("g_ch3", "ch3", 1.0)],
        t_end=2.0,
        metadata={
            "assumed": {
                "shock": f"flow Froude 1.135 behind bore: h={h1:.4f}, u={u1:.4f}",
                "geometry": "as test1_sub90",
            }
        },
    )


def test5_cadam(strategy="A") -> ScenarioConfig:
    """Dam-break channel with a 45-degree bend (reservoir replaced by gate state)."""
    b = 0.495
    h_res = 0.25
    h_gate = 4.0 / 9.0 * h_res
    u_gate = 2.0 / 3.0 * np.sqrt(G_DEFAULT * h_res)
    r0 = 0.5 * b
    c45, s45 = np.cos(np.pi / 4), np.sin(np.pi / 4)
    bend = np.array([4.0 + r0, 0.0])
    return _scenario(
        "test5_cadam",
        _channels(
            (b, 80, [0.0, 0.0], [4.0, 0.0]),
            (b, 60, bend + r0 * np.array([c45, s45]), bend + (r0 + 3.0) * np.array([c45, s45])),
        ),
        [_junction("bend", strategy, list(bend), [("ch1", "end"), ("ch2", "start")])],
        [
            {"channel": "ch1", "end": "start", "kind": "prescribed", "h": h_gate, "u": float(u_gate)},
            {"channel": "ch2", "end": "end", "kind": "transparent"},
        ],
        initial={"h": 0.01, "u": 0.0},
        gauges=[("g2", "ch1", 1.0), ("g4", "ch1", 3.0), ("g6", "ch2", 0.5), ("g9", "ch2", 2.0)],
        t_end=6.0,
        metadata={
            "assumed": {
                "reservoir": "replaced by the critical gate state of a 0.25 m "
                "reservoir (h=4/9*0.25, u=2/3*sqrt(g*0.25))",
                "downstream": "0.01 m wet bed substitutes the dry experiment bed",
                "lengths": "desk scale: 4 m to the bend, 3 m downstream leg",
            }
        },
    )


def _grid_network(strategy, n=4):
    """Channels and junctions of an n x n grid of junctions fed through one
    corner. Junction (i, j) is `j{i}{j}`, or `j{i}_{j}` for n > 10, where
    the short form stops being unique (`j111` is (1, 11) and (11, 1))."""
    spacing, width, ds = 1.6, 0.2, 0.05
    half = width / 2.0
    channels, junctions = [], []
    jid = "j{}_{}".format if n > 10 else "j{}{}".format
    pos = lambda i, j: (spacing * i, spacing * j)
    for i in range(n):
        for j in range(n):
            connects = []
            x, y = pos(i, j)
            if i > 0:
                connects.append((f"h{i - 1}_{j}", "end"))
            if i < n - 1:
                connects.append((f"h{i}_{j}", "start"))
            if j > 0:
                connects.append((f"v{i}_{j - 1}", "end"))
            if j < n - 1:
                connects.append((f"v{i}_{j}", "start"))
            if (i, j) == (0, 0):
                connects.insert(0, ("feeder", "end"))
            # Patch cells comparable to the reference-plateau mesh size keep
            # the many small patches from throttling the global time step.
            junctions.append(
                _junction(jid(i, j), strategy, (x, y), connects, patch_refine=1)
            )
    cells = int(round((spacing - width) / ds))

    def channel(cid, start, end):
        return {"id": cid, "width": width, "cells": cells, "start": start, "end": end}

    for i in range(n - 1):
        for j in range(n):
            x, y = pos(i, j)
            channels.append(channel(f"h{i}_{j}", [x + half, y], [x + spacing - half, y]))
    for i in range(n):
        for j in range(n - 1):
            x, y = pos(i, j)
            channels.append(channel(f"v{i}_{j}", [x, y + half], [x, y + spacing - half]))
    channels.append(channel("feeder", [-spacing + half, 0.0], [-half, 0.0]))
    return channels, junctions


def test6_network(strategy="A", supercritical=False) -> ScenarioConfig:
    """16-junction, 25-branch grid network fed through one corner."""
    channels, junctions = _grid_network(strategy)
    h0 = 0.16
    if supercritical:
        h1, u1 = bore_state(h0, 1.135)
        inlet = {"kind": "prescribed", "h": h1, "u": u1}
    else:
        inlet = _inflow(0.4)
    return _scenario(
        "test6_network_super" if supercritical else "test6_network",
        channels,
        junctions,
        [{"channel": "feeder", "end": "start", **inlet}],
        initial={"h": h0, "u": 0.0},
        gauges=[(gid, ch, 0.7) for gid, ch in (("p1", "h0_0"), ("p3", "v1_1"), ("p6", "h1_2"),
                                                ("p8", "h2_3"))],
        t_end=4.0 if supercritical else 6.0,
        metadata={
            "assumed": {
                "geometry": "4x4 junction grid, 1.6 m spacing, 0.2 m widths "
                "(figure gives topology only); friction and slope zero",
            }
        },
        physics={"g": G_DEFAULT, "manning_n": 0.0},
    )


def appA_angles(angle_deg: int, strategy) -> ScenarioConfig:
    """Subcritical wave through a symmetric bifurcation of the given angle."""
    if angle_deg not in (0, 15, 45, 90):
        raise ValueError("supported bifurcation angles: 0, 15, 45, 90 degrees")
    b1, b2 = 0.4, 0.2
    parent_len, daughter_len = 3.0, 3.0
    if angle_deg == 0:
        channels = _channels(
            (b1, 60, [-parent_len, 0.0], [0.0, 0.0]),
            (b2, 60, [0.0, 0.1], [daughter_len, 0.1]),
            (b2, 60, [0.0, -0.1], [daughter_len, -0.1]),
        )
    else:
        th = np.deg2rad(angle_deg)
        r0 = 0.25
        d2 = np.array([np.cos(th), np.sin(th)])
        d3 = np.array([np.cos(th), -np.sin(th)])
        channels = _channels(
            (b1, 60, [-r0 - parent_len, 0.0], [-r0, 0.0]),
            (b2, 60, r0 * d2, (r0 + daughter_len) * d2),
            (b2, 60, r0 * d3, (r0 + daughter_len) * d3),
        )
    return _bifurcation(
        f"appA_angle{angle_deg}",
        strategy,
        channels,
        inlet=_inflow(0.4),
        initial={"h": 0.16, "u": 0.0},
        gauges=[("g_ch1", "ch1", 1.5), ("g_ch2", "ch2", 1.5), ("g_ch3", "ch3", 1.5)],
        t_end=8.0,
        metadata={
            "assumed": {
                "geometry": f"bifurcation angle {angle_deg} deg, widths 0.4 -> 0.2+0.2, "
                "initial depth 16 cm, inflow 0.4*exp(-0.5*(t-3)^2)",
            }
        },
    )


def appB_gridstudy(strategy="A") -> ScenarioConfig:
    """Shock-through-junction scenario for the mesh-refinement study."""
    b = 0.48
    half = b / 2.0
    return _bifurcation(
        "appB_gridstudy",
        strategy,
        _channels(
            (b, 48, [-half - 1.92, 0.0], [-half, 0.0]),
            (b, 36, [0.0, half], [0.0, half + 1.44]),
            (b, 36, [0.0, -half], [0.0, -half - 1.44]),
        ),
        inlet={"kind": "transparent"},
        initial=_ch1_dam_break(0.16, 0.96, 0.48, 0.0),
        gauges=[("g_j", "ch2", 0.2)],
        t_end=1.5,
        metadata={
            "probe": [0.2, 0.2],
            "assumed": {
                "scenario": "dam break in the parent channel crossing a symmetric "
                "90-degree junction; refinement probe at the junction corner, "
                "where the flow is most strongly two-dimensional"
            },
        },
    )


def smooth1d(cells: int = 100) -> ScenarioConfig:
    """Single channel with a smooth depth hump, for convergence studies."""
    hump = {"type": "hump", "h0": 1.0, "amplitude": 0.1, "center": 12.5, "width": 2.0}
    return _scenario(
        "smooth1d",
        _channels((1.0, cells, [0.0, 0.0], [25.0, 0.0])),
        [],
        [{"channel": "ch1", "end": end, "kind": "transparent"} for end in ("start", "end")],
        initial={"h": 1.0, "u": 0.0, "per_channel": {"ch1": hump}},
        gauges=[("mid", "ch1", 12.5)],
        t_end=1.0,
        metadata={},
    )


PRESETS = {
    "test1_sub90": (test1_sub90, "subcritical wave, symmetric 90-degree bifurcation"),
    "test2_asym90": (test2_asym90, "subcritical wave, asymmetric 90-degree branch"),
    "test3_shock45": (test3_shock45, "Froude 0.75 bore, 45-degree bifurcation"),
    "test4_super90": (test4_super90, "Froude 1.135 supercritical bore, 90-degree split"),
    "test5_cadam": (test5_cadam, "dam-break channel with 45-degree bend"),
    "test6_network": (test6_network, "16-junction 25-branch grid network, subcritical"),
    "test6_network_super": (
        lambda strategy="A": test6_network(strategy, supercritical=True),
        "grid network hit by a supercritical bore",
    ),
    "appA_angle0": (lambda strategy="psfp": appA_angles(0, strategy), "0-degree bifurcation wave test"),
    "appA_angle15": (lambda strategy="psfp": appA_angles(15, strategy), "15-degree bifurcation wave test"),
    "appA_angle45": (lambda strategy="psfp": appA_angles(45, strategy), "45-degree bifurcation wave test"),
    "appA_angle90": (lambda strategy="psfp": appA_angles(90, strategy), "90-degree bifurcation wave test"),
    "appB_gridstudy": (appB_gridstudy, "shock-junction scenario for the grid study"),
    "smooth1d": (smooth1d, "smooth hump in a single channel (convergence)"),
}


def preset(name: str, **kwargs) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    return PRESETS[name][0](**kwargs)


def preset_names():
    return [(k, v[1]) for k, v in sorted(PRESETS.items())]
