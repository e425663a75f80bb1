"""The benchmark's workloads: scenario generation from a seed, build, size.

Each workload is a closed loop of whole simulations: one simulation runs to
the workload's horizon, then the next starts. The seed perturbs the inflow
pulse amplitude and centre by up to +-10 %, which keeps every scenario
subcritical; swnet itself only ever sees the generated `ScenarioConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swnet import ScenarioConfig, config, preset, studies

DEFAULT_SEED = 0
REFERENCE_DX = 0.02
# Point gauge in the first reference cells behind the feeder inflow: the
# strip gauges of test6_network stay at rest within the short reference
# horizon, this one sees the inflow from the first step.
INLET_GAUGE = ("inlet", (-1.49, 0.005))


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    strategy: str  # junction strategy, or "ref2d" for the full-2D reference
    horizon: float  # simulated seconds per simulation
    why: str

    @property
    def reference(self) -> bool:
        return self.strategy == "ref2d"

    def scenario(self, seed: int) -> ScenarioConfig:
        """The scenario for `seed`: the preset with a perturbed inflow pulse."""
        data = preset(self.preset, **({} if self.reference else {"strategy": self.strategy})).emit()
        amp, centre = np.random.default_rng(seed).uniform(0.9, 1.1, size=2)
        for b in data["boundaries"]:
            if b["kind"] == "inflow":
                b["inflow"]["amplitude"] *= float(amp)
                b["inflow"]["center"] *= float(centre)
        data["t_end"] = self.horizon
        return ScenarioConfig(data)

    def build(self, cfg: ScenarioConfig):
        # Called through their modules, so that the tracer's wrappers apply.
        if self.reference:
            return studies.build_reference_sim(
                cfg, REFERENCE_DX, extra_point_gauges=[INLET_GAUGE]
            )
        return config.build_simulation(cfg)

    def cells(self, sim) -> int:
        """Cells stepped per step: channel, junction or patch cells, or triangles."""
        if self.reference:
            return int(sim.mesh.n_cells)
        n = sum(f.n for f in sim.fields.values())
        for j in sim.junctions:
            if j.strategy == "A":
                n += 1
            elif j.strategy == "B":
                n += j.mesh.n_cells
        return n


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "network_A",
            "test6_network",
            "A",
            1.5,
            "25-channel, 16-junction Method-A network: dispatch-bound 1D stepping "
            "on ~28-cell batches (scheme1d, riemann, junctions, simulation glue)",
        ),
        Workload(
            "bifurcation_B",
            "test1_sub90",
            "B",
            2.0,
            "Method-B 128-triangle patch on a 3-channel bifurcation: the scheme2d code "
            "of reference_2d at 1/300 the size, where per-call overhead dominates",
        ),
        Workload(
            "bifurcation_psfp",
            "test1_sub90",
            "psfp",
            8.0,
            "algebraic PSFP junction on the same bifurcation: the only workload that "
            "runs psfp.py and the flux-only junction path with no junction cells",
        ),
        Workload(
            "reference_2d",
            "test6_network",
            "ref2d",
            0.05,
            "full-2D reference of the network at dx=0.02 (38.2k triangles): scheme2d "
            "at scale, mesh-building set-up, peak memory; criterion 12's denominator",
        ),
    )
}
