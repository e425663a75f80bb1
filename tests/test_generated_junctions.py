"""Properties that the seeded junctions of `tests/generated.py` keep today,
with Methods A and B and, where three channels join, PSFP: seeds 0-39, at
most 100 steps each, with the dam break and as a lake at rest.

- every scenario that builds completes, and the polygon checks reject the
  same seeds;
- the volume ledger closes to 1e-12 of the initial volume;
- a lake at rest (the dam break removed) keeps its depth of 0.10 and zero
  momentum to 1e-12 in every channel and junction cell.
"""

import numpy as np
import pytest

from swnet import ConfigError, ScenarioConfig, build_simulation

from generated import junction_scenario

SEEDS, STEPS = range(40), 100
REJECTED = {"A": {6, 21, 24, 27, 30}, "B": {6, 11, 21, 27, 35}, "psfp": set()}


@pytest.mark.parametrize("strategy", REJECTED)
def test_generated_junctions_conserve_volume_and_keep_a_lake_at_rest(strategy):
    rejected = set()
    for seed in SEEDS:
        data = junction_scenario(seed, strategy)
        if strategy == "psfp" and len(data["channels"]) != 3:
            continue
        for at_rest in (False, True):
            if at_rest:
                del data["initial"]["per_channel"]
            cfg = ScenarioConfig(data)
            try:
                sim = build_simulation(cfg)
            except ConfigError:
                rejected.add(seed)
                break
            res = sim.run(cfg.t_end, max_steps=STEPS)
            label = (seed, "at rest" if at_rest else "dam break")
            assert res.status == "completed", label
            d = res.diagnostics
            assert abs(d["volume_defect"]) <= 1e-12 * d["initial_volume"], label
            if at_rest:
                cells = [f.q for f in sim.fields.values()]
                cells += [np.atleast_2d(j.q) for j in sim.junctions if hasattr(j, "q")]
                for q in cells:
                    assert np.abs(q[:, 0] - 0.10).max() <= 1e-12, label
                    assert np.abs(q[:, 1:]).max() <= 1e-12, label
    assert rejected == REJECTED[strategy]
