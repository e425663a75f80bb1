"""Measurement loops, correctness gate and metric definitions.

End-to-end metrics come from untraced runs: `setup_s` is the median of
several builds, `wall_s` the median of whole simulations run back to back
for the requested seconds. Each build and each simulation is scaled to a
reference host speed, measured by a fixed kernel timed just before and just
after it. Per-layer metrics come from a
separate traced run that alternates untraced and traced simulations of the
same scenario; every per-layer value is per simulation (or per set-up for
the set-up layers), so runs of different lengths compare.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tracer import Tracer, layer_totals
from .workloads import DEFAULT_SEED

RECORD_PATH = Path(__file__).resolve().parent.parent / "record.json"

SETUP_MIN_REPS = 3
SETUP_BUDGET_S = 1.0

# The host's CPUs are shared with other tenants and their speed drifts with
# the tenants' load: every workload and a plain Python loop slowed together by
# up to 60 %, switching within tens of milliseconds and staying slow for
# seconds to minutes at a time. The host kernel, which does not call swnet,
# runs back to back before and after every build and simulation, for as long
# as the previous one took but at most HOST_BLOCK_S. Each build and
# simulation is scaled to the host speed at which one kernel run takes
# HOST_KERNEL_REF_S, its time on the host of bench/baseline.json in the fast
# state, rounded. A change to swnet moves the scaled times as much as the
# measured ones.
HOST_KERNEL_REF_S = 1.0e-3
HOST_BLOCK_S = 0.1

# Closed networks conserve volume to round-off; the ledger includes inflow.
VOLUME_RTOL = 1e-12
# Gauge record tolerance: admits summation-order round-off, amplified by the
# limiters over a run (seen up to ~1e-12 here), but not a changed scheme,
# CFL number or boundary treatment, which move gauges by 1e-6 or more.
RECORD_RTOL = 1e-8
RECORD_ATOL = 1e-10
RECORD_SAMPLES = 100

# hllc_flux reads two (n, 3) float64 states and writes one (n, 3) flux.
HLLC_BYTES_PER_STATE = 3 * 3 * 8

# name -> unit; bench/README.md defines each.
END_TO_END = {"wall_s": "s", "setup_s": "s", "ns_per_cell_step": "ns", "peak_rss_mb": "MB"}

# Spans timed per set-up rather than per simulation.
SETUP_SPANS = {
    "config.build_simulation",
    "studies.build_reference_sim",
    "meshing.rect_union_mesh",
    "meshing.fan_refine_mesh",
    "geometry.point_in_polygon",
    "geometry.trimesh_build",
}


class _Per:
    """Span totals divided by the number of simulations or set-ups traced."""

    def __init__(self, setup, n_setups, run, n_sims):
        self._setup, self._n_setups = setup, n_setups
        self._run, self._n_sims = run, n_sims

    def _get(self, span, key):
        if span in SETUP_SPANS:
            return self._setup[span][key] / self._n_setups
        return self._run[span][key] / self._n_sims

    def calls(self, span):
        return self._get(span, "calls")

    def s(self, span):
        return self._get(span, "self_s")

    def work(self, span):
        return self._get(span, "work")

    def failed(self, span):
        return self._get(span, "failed")

    def per_work(self, span, scale=1.0):
        w = self.work(span)
        return scale * self.s(span) / w if w else 0.0

    def work_per_call(self, spans):
        calls = sum(self.calls(sp) for sp in spans)
        return sum(self.work(sp) for sp in spans) / calls if calls else 0.0


def _calls_s(span):
    return [
        (f"{span}.calls", "count", lambda p: p.calls(span)),
        (f"{span}.s", "s", lambda p: p.s(span)),
    ]


def _s(span):
    return [(f"{span}.s", "s", lambda p: p.s(span))]


_BATCHED_1D = [f"scheme1d.{m}" for m in ("reconstruct", "interior_fluxes", "update", "dt_bound")]
_BATCHED_2D = [f"scheme2d.{m}" for m in ("reconstruct", "edge_states", "update", "dt_bound")]

# (name, unit, value from _Per). Times are self times.
PER_LAYER = [
    ("simulation.steps", "count", lambda p: p.calls("simulation.advance")),
    ("simulation.advance.self_s", "s", lambda p: p.s("simulation.advance")),
    *_s("simulation.compute_dt"),
    *_calls_s("simulation.boundary_flux"),
    *_s("simulation.sample_gauges"),
    *_s("simulation.psfp_end_fluxes"),
    *[m for name in ("reconstruct", "face_state", "interior_fluxes", "update", "dt_bound")
      for m in _calls_s(f"scheme1d.{name}")],
    ("scheme1d.cells_per_call", "count", lambda p: p.work_per_call(_BATCHED_1D)),
    *_calls_s("riemann.hllc_flux"),
    ("riemann.hllc_flux.states", "count", lambda p: p.work("riemann.hllc_flux")),
    ("riemann.hllc_flux.ns_per_state", "ns",
     lambda p: p.per_work("riemann.hllc_flux", 1e9)),
    ("riemann.hllc_flux.bytes_computed", "B",
     lambda p: HLLC_BYTES_PER_STATE * p.work("riemann.hllc_flux")),
    *_calls_s("riemann.wall_flux"),
    *_calls_s("core.jacobian_dot"),
    ("core.jacobian_dot.ns_per_state", "ns",
     lambda p: p.per_work("core.jacobian_dot", 1e9)),
    *_calls_s("core.rotate"),
    *[m for name in ("reconstruct", "channel_neighbors", "compute_fluxes", "update")
      for m in _calls_s(f"junctions.{name}")],
    *_calls_s("junctions.project_transverse"),
    *_calls_s("psfp.solve"),
    ("psfp.newton_iters", "count", lambda p: p.work("psfp.solve")),
    ("psfp.failures", "count", lambda p: p.failed("psfp.solve")),
    *[m for name in ("reconstruct", "edge_states", "interior_edge_fluxes", "update", "dt_bound")
      for m in _s(f"scheme2d.{name}")],
    ("scheme2d.cells_per_call", "count", lambda p: p.work_per_call(_BATCHED_2D)),
    *_s("meshing.rect_union_mesh"),
    *_s("meshing.fan_refine_mesh"),
    *_calls_s("geometry.point_in_polygon"),
    *_s("geometry.trimesh_build"),
    *_s("config.build_simulation"),
    *_s("studies.build_reference_sim"),
]
OVERHEAD = ("trace.overhead_ratio", "ratio")
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER} | dict([OVERHEAD])


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def gauge_series(res) -> dict:
    """Gauge time series of a run as arrays: t, h:<gauge>, u:<gauge>."""
    rec = res.gauges
    out = {"t": np.array(rec.times)}
    for g in rec.gauges:
        out[f"h:{g.id}"] = np.array(rec.h[g.id])
        out[f"u:{g.id}"] = np.array(rec.u[g.id])
    return out


def _states(sim):
    if hasattr(sim, "fields"):
        yield from (f.q for f in sim.fields.values())
        yield from (np.atleast_2d(j.q) for j in sim.junctions if hasattr(j, "q"))
    else:
        yield sim.field.q


def gate(workload, sim, res, record=None) -> list[str]:
    """Problems with a finished run; an empty list means it passed."""
    problems = []
    if res.status != "completed":
        problems.append(f"status {res.status}: {res.failure}")
    for q in _states(sim):
        if not np.all(np.isfinite(q)):
            problems.append("non-finite state")
            break
        if not np.all(q[:, 0] > 0.0):
            problems.append("non-positive depth")
            break
    if not workload.reference:
        d = res.diagnostics
        if not abs(d["volume_defect"]) <= VOLUME_RTOL * d["initial_volume"]:
            problems.append(f"volume defect {d['volume_defect']:.3e}")
    if record is not None:
        problems += record_mismatches(record, workload, res)
    return problems


def make_record(workload, res) -> dict:
    s = gauge_series(res)
    n = len(s["t"])
    stride = max(1, -(-n // RECORD_SAMPLES))
    idx = sorted(set(range(0, n, stride)) | {n - 1})
    return {
        "horizon": workload.horizon,
        "steps": res.steps,
        "index": idx,
        "series": {k: v[idx].tolist() for k, v in s.items()},
    }


def record_mismatches(record, workload, res) -> list[str]:
    if record["horizon"] != workload.horizon:
        return [f"record is for horizon {record['horizon']}, workload runs {workload.horizon}"]
    if res.steps != record["steps"]:
        return [f"{res.steps} steps, record has {record['steps']}"]
    s = gauge_series(res)
    if set(s) != set(record["series"]):
        return [f"gauge series {sorted(s)} differ from record {sorted(record['series'])}"]
    idx = np.array(record["index"])
    out = []
    for key, ref in record["series"].items():
        got = s[key][idx]
        if not np.allclose(got, ref, rtol=RECORD_RTOL, atol=RECORD_ATOL):
            out.append(f"{key} deviates from record by up to {np.max(np.abs(got - ref)):.3e}")
    return out


def load_record(workload, seed):
    """The stored gauge record for this workload, if `seed` is the recorded one."""
    if seed != DEFAULT_SEED:
        return None
    with open(RECORD_PATH) as f:
        return json.load(f)[workload.name]


def same_series(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One simulation run to its horizon."""

    wall: float
    steps: int
    series: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _host_kernel():
    """Python-driven arithmetic on small numpy arrays, like the 1D solvers'."""
    a = np.linspace(0.5, 1.5, 84).reshape(28, 3)
    acc = 0.0
    for i in range(60):
        h = a[:, 0] + 1e-3 * i
        c = np.sqrt(9.81 * h)
        u = a[:, 1] / h
        f = np.stack([a[:, 1], a[:, 1] * u + 4.905 * h * h, a[:, 2] * u], axis=1)
        acc += float(np.max(np.abs(u) + c)) + float(f.sum())
        for j in range(20):
            acc += 0.5 * j
    return acc


def host_kernel_s(span=HOST_BLOCK_S) -> float:
    """Mean time of one host kernel run, running it back to back (gc paused)
    until `span` seconds have passed, at least once."""
    n = 0
    gc.disable()
    try:
        start = time.perf_counter()
        while True:
            _host_kernel()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= span:
                return elapsed / n
    finally:
        gc.enable()


def scaled(times, kernels) -> list:
    """Each time scaled by the host kernel's mean time before and after it."""
    return [2 * HOST_KERNEL_REF_S * t / (k0 + k1)
            for t, k0, k1 in zip(times, kernels, kernels[1:])]


def timed_setups(workload, cfg, min_reps=SETUP_MIN_REPS):
    """Build repeatedly; returns the last simulation, every build time, and
    the host kernel's time before each build and after the last."""
    times, kernels, sim = [], [host_kernel_s()], None
    gc.collect()
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < SETUP_BUDGET_S:
        sim = None  # release the previous build before the next one
        t0 = time.perf_counter()
        sim = workload.build(cfg)
        times.append(time.perf_counter() - t0)
        kernels.append(host_kernel_s(min(HOST_BLOCK_S, times[-1])))
    return sim, times, kernels


def simulate(workload, template, cfg, record=None) -> Outcome:
    """Run a fresh copy of `template` to the horizon and check it."""
    # The mesh is read-only while stepping, so copies share it.
    memo = {id(template.mesh): template.mesh} if workload.reference else {}
    sim = copy.deepcopy(template, memo)
    gc.collect()
    t0 = time.perf_counter()
    try:
        res = sim.run(cfg.t_end)
    except Exception as exc:  # a crashed run is a failed attempt; measuring goes on
        return Outcome(time.perf_counter() - t0, 0, problems=[f"{type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - t0
    return Outcome(wall, res.steps, gauge_series(res), gate(workload, sim, res, record))


def check_repeats(outcomes, first, what):
    """Every run of one scenario must reproduce the first bit for bit."""
    for o in outcomes:
        if o.steps != first.steps or not same_series(o.series, first.series):
            o.problems.append(f"{what} differs from the first run")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed, seconds):
    """End-to-end metrics of one workload; returns (metrics, outcomes,
    measured), where `measured` holds the unscaled medians and the host
    kernel's median time while stepping."""
    cfg = workload.scenario(seed)
    template, setup_times, setup_kernels = timed_setups(workload, cfg)
    cells = workload.cells(template)
    record = load_record(workload, seed)
    outcomes, kernels = [], [host_kernel_s()]
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        outcomes.append(simulate(workload, template, cfg, record))
        kernels.append(host_kernel_s(min(HOST_BLOCK_S, outcomes[-1].wall)))
    check_repeats(outcomes[1:], outcomes[0], "repeat")
    walls = [o.wall for o in outcomes]
    measured = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "host_kernel_s": statistics.median(kernels),
    }
    setup_s = statistics.median(scaled(setup_times, setup_kernels))
    wall_s = statistics.median(scaled(walls, kernels))
    steps = max(outcomes[0].steps, 1)
    values = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "ns_per_cell_step": 1e9 * wall_s / (steps * cells),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, outcomes, measured


def run_traced(workload, seed, seconds, spans_path=None):
    """Per-layer metrics of one workload; returns (metrics, outcomes).

    Untraced and traced simulations alternate so both see the same machine
    load; the traced ones must reproduce the untraced gauges bit for bit.
    """
    cfg = workload.scenario(seed)
    record = load_record(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        template, setup_times, _ = timed_setups(workload, cfg, min_reps=1)
    finally:
        tracer.uninstall()
    setup_spans = tracer.spans()
    tracer.clear()

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(simulate(workload, template, cfg, record))
        tracer.install()
        try:
            traced.append(simulate(workload, template, cfg, record))
        finally:
            tracer.uninstall()
    run_spans = tracer.spans()
    check_repeats(plain[1:], plain[0], "repeat")
    check_repeats(traced, plain[0], "traced run")

    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            spans_path,
            **{f"setup_{k}": v for k, v in setup_spans.items()},
            **{f"run_{k}": v for k, v in run_spans.items()},
        )

    per = _Per(layer_totals(setup_spans), len(setup_times), layer_totals(run_spans), len(traced))
    metrics = {name: (float(fn(per)), unit) for name, unit, fn in PER_LAYER}
    # Neighbouring simulations see nearly the same host speed.
    ratio = statistics.median(t.wall / p.wall for p, t in zip(plain, traced))
    metrics[OVERHEAD[0]] = (ratio, OVERHEAD[1])
    return metrics, plain + traced


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine() -> dict:
    """CPU, caches and software versions of the machine running the benchmark."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_instance": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
