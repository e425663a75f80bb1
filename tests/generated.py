"""Seeded scenarios of one junction at arbitrary angles and widths.

`junction_scenario(seed, strategy)` is the JSON data of a valid scenario:
junction `j1` at the origin joins the starts of two to four channels
`ch1`, `ch2`, ..., whose axes point away from it at angles spread evenly
around it, each moved by up to 0.4 rad. Each channel is 0.2 to 0.5 wide,
LENGTH long and of an even number of cells from 20 to 60, and its mouth
lies 0.3 to 0.5 from the origin. The far ends are reflective, `ch1` holds a
dam break of depths 0.12 / 0.10 at its middle in still water of depth 0.10,
and each channel has one gauge at its middle, a cell face. The same seed
gives the same scenario; whether its junction polygon passes its checks
depends on the seed.

Not a test module: tools and tests import it.
"""

import numpy as np

LENGTH = 2.0


def junction_scenario(seed: int, strategy: str) -> dict:
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi / n * np.arange(n)
    angles += rng.uniform(-0.4, 0.4, n)
    ids = [f"ch{k}" for k in range(1, n + 1)]
    channels = []
    for cid, a in zip(ids, angles.tolist()):
        u = np.array([np.cos(a), np.sin(a)])
        mouth = rng.uniform(0.3, 0.5)
        channels.append({"id": cid, "width": rng.uniform(0.2, 0.5),
                         "cells": 2 * int(rng.integers(10, 31)),
                         "start": (mouth * u).tolist(), "end": ((mouth + LENGTH) * u).tolist()})
    dam = {"type": "dam_break", "split_s": LENGTH / 2.0, "left": {"h": 0.12}, "right": {"h": 0.10}}
    return {
        "name": f"generated_{seed}",
        "channels": channels,
        "junctions": [{"id": "j1", "strategy": strategy, "position": [0.0, 0.0],
                       "connects": [{"channel": cid, "end": "start"} for cid in ids]}],
        "boundaries": [{"channel": cid, "end": "end", "kind": "reflective"} for cid in ids],
        "initial": {"h": 0.10, "u": 0.0, "per_channel": {"ch1": dam}},
        "gauges": [{"id": f"g_{cid}", "channel": cid, "s": LENGTH / 2.0} for cid in ids],
        "t_end": 2.0,
    }
