"""Self-tests of the benchmark harness (about half a minute, most of it the
reference mesh build of the reference_2d smoke run).

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from swnet_bench import measure  # noqa: E402
from swnet_bench.measure import (  # noqa: E402
    END_TO_END,
    PER_LAYER_UNITS,
    gate,
    load_record,
    make_record,
    record_mismatches,
    same_series,
    simulate,
)
from swnet_bench.tracer import Tracer, layer_totals, swnet_modules  # noqa: E402
from swnet_bench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Horizons short enough for a smoke run, long enough to reach the junctions'
# first coupling steps.
SMOKE_HORIZON = {"network_A": 0.1, "bifurcation_B": 0.1, "bifurcation_psfp": 0.5,
                 "reference_2d": 0.005}


def smoke(name):
    return dataclasses.replace(WORKLOADS[name], horizon=SMOKE_HORIZON[name])


def run_bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [*END_TO_END, *PER_LAYER_UNITS, *WORKLOADS]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


def test_seed_determines_scenario():
    from swnet import preset

    for w in WORKLOADS.values():
        assert w.scenario(3) == w.scenario(3)
        assert w.scenario(3) != w.scenario(4)
        kwargs = {} if w.reference else {"strategy": w.strategy}
        base = {b["channel"]: b for b in preset(w.preset, **kwargs).data["boundaries"]}
        for seed in range(20):
            for b in w.scenario(seed).data["boundaries"]:
                if b["kind"] == "inflow":
                    # Within +-10 % of the preset pulse the inflow stays
                    # subcritical (Froude number below 0.5).
                    for key in ("amplitude", "center"):
                        ratio = b["inflow"][key] / base[b["channel"]]["inflow"][key]
                        assert 0.9 <= ratio <= 1.1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_gate(name):
    w = smoke(name)
    cfg = w.scenario(DEFAULT_SEED)
    out = simulate(w, w.build(cfg), cfg)
    assert out.problems == []
    assert out.steps > 0


def test_record_matches_default_seed():
    w = WORKLOADS["bifurcation_psfp"]
    cfg = w.scenario(DEFAULT_SEED)
    out = simulate(w, w.build(cfg), cfg, load_record(w, DEFAULT_SEED))
    assert out.problems == []
    assert load_record(w, DEFAULT_SEED + 1) is None


def test_gate_rejects_changed_or_broken_runs():
    w = smoke("bifurcation_psfp")
    cfg = w.scenario(DEFAULT_SEED)
    sim = w.build(cfg)
    res = sim.run(cfg.t_end)
    assert gate(w, sim, res) == []
    record = make_record(w, res)
    assert record_mismatches(record, w, res) == []
    res.gauges.h["g_ch1"][-1] += 1e-6
    assert record_mismatches(record, w, res)
    res.diagnostics["volume_defect"] = 1e-9
    assert any("volume" in p for p in gate(w, sim, res))
    sim.fields["ch2"].q[3, 0] = np.nan
    assert "non-finite state" in gate(w, sim, res)


def test_tracer_wraps_every_binding_and_restores_them():
    import swnet
    from swnet import geometry, junctions, meshing, riemann, scheme1d, scheme2d, simulation

    raw_hllc, raw_pip = riemann.hllc_flux, geometry.point_in_polygon
    tracer = Tracer()
    raw = {id(original) for _, _, original, _ in tracer._bindings}

    def unwrapped():
        """(owner, name) pairs in swnet still bound to a raw traced function."""
        found = []
        for mod in swnet_modules():
            for key, value in vars(mod).items():
                if id(value) in raw:
                    found.append((mod.__name__, key))
                if isinstance(value, type):
                    found += [(f"{mod.__name__}.{key}", k)
                              for k, v in vars(value).items() if id(v) in raw]
        return found

    tracer.install()
    try:
        assert unwrapped() == []
        for mod in (swnet, riemann, scheme1d, scheme2d, junctions, simulation):
            assert mod.hllc_flux is not raw_hllc
        assert meshing.point_in_polygon is not raw_pip
    finally:
        tracer.uninstall()
    for mod in (swnet, riemann, scheme1d, scheme2d, junctions, simulation):
        assert mod.hllc_flux is raw_hllc
    assert meshing.point_in_polygon is raw_pip
    assert len(unwrapped()) > 0


@pytest.mark.parametrize("name", ["network_A", "bifurcation_B", "bifurcation_psfp"])
def test_traced_run_is_bit_identical(name):
    w = smoke(name)
    cfg = w.scenario(1)
    template = w.build(cfg)
    plain = simulate(w, template, cfg)
    tracer = Tracer()
    tracer.install()
    try:
        traced = simulate(w, template, cfg)
    finally:
        tracer.uninstall()
    assert plain.problems == traced.problems == []
    assert traced.steps == plain.steps
    assert same_series(traced.series, plain.series)
    totals = layer_totals(tracer.spans())
    assert totals["simulation.advance"]["calls"] == plain.steps
    assert totals["riemann.hllc_flux"]["calls"] > 0


def test_times_are_scaled_to_the_reference_host_speed(monkeypatch):
    assert measure.host_kernel_s() > 0
    monkeypatch.setattr(measure, "host_kernel_s", lambda span=0: 2 * measure.HOST_KERNEL_REF_S)
    metrics, outcomes, measured = measure.run_untraced(smoke("bifurcation_psfp"), 1, 0.1)
    assert all(o.problems == [] for o in outcomes)
    assert measured["host_kernel_s"] == 2 * measure.HOST_KERNEL_REF_S
    assert metrics["wall_s"][0] == pytest.approx(measured["wall_s"] / 2)
    assert measure.scaled([3.0, 5.0], [1e-3, 2e-3, 3e-3]) == pytest.approx([2.0, 2.0])
    assert metrics["setup_s"][0] == pytest.approx(measured["setup_s"] / 2)


def test_self_time_subtracts_direct_children():
    spans = {
        "names": np.array(["a", "b"]),
        "name_id": np.array([0, 1, 1]),
        "parent": np.array([-1, 0, 1]),
        "t0": np.array([0.0, 1.0, 2.0]),
        "t1": np.array([10.0, 5.0, 3.0]),
        "work": np.array([0, 7, 3]),
        "failed": np.array([0, 0, 1]),
    }
    totals = layer_totals(spans)
    assert totals["a"] == {"calls": 1, "self_s": 6.0, "work": 0, "failed": 0}
    assert totals["b"] == {"calls": 2, "self_s": 4.0, "work": 10, "failed": 1}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = run_bench("--workload", "bifurcation_psfp", "--seed", "2",
                     "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "network_A", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
