"""`tools/compare_runs.py` counts every difference between two runs."""

import json

import numpy as np

import compare_runs


CONFIG = json.dumps({"name": "test1_sub90", "t_end": 8.0, "metadata": {}})


def failed_run(message, failure="PSFPFailure", config=CONFIG):
    return {
        "label": "test1_sub90 psfp", "config": config, "rejected": None, "g": 9.81,
        "status": "failed", "steps": 3, "failure": failure, "message": message,
        "gauges": {"t": [0.0, 0.1], "h:g1": [1.0, 1.0], "u:g1": [0.0, 0.1]},
        "channels": {"ch1": [[1.0, 0.1, 0.0]]}, "junctions": {},
        "geometry": {"field.ds": ("float64", [0.1]), "field.centers": ("float64", [0.05])},
        "ledger": {"initial_volume": 2.0, "final_volume": 2.0},
    }


def test_same_failure_is_no_problem():
    old = failed_run("junction j: residual 1e-3")
    _, problems = compare_runs.compare([old], [failed_run(old["message"])], rtol=1e-12)
    assert problems == 0


def test_changed_failure_message_is_a_problem():
    lines, problems = compare_runs.compare(
        [failed_run("junction j: residual 1e-3")], [failed_run("junction k: residual 2e-3")],
        rtol=1e-12,
    )
    assert problems == 1
    assert "- test1_sub90 psfp: junction j: residual 1e-3 / junction k: residual 2e-3" in lines


def test_changed_failure_type_and_message_are_two_problems():
    _, problems = compare_runs.compare(
        [failed_run("dry depth", "DryStateError")], [failed_run("nan depth", "NonFiniteError")],
        rtol=1e-12,
    )
    assert problems == 2


def test_changed_config_is_a_problem():
    # A 200-step run reads neither t_end nor metadata: only the config shows them.
    changed = json.dumps({"name": "test1_sub90", "t_end": 9.0, "metadata": {}})
    reordered = json.dumps({"t_end": 8.0, "name": "test1_sub90", "metadata": {}})
    old = failed_run("residual 1e-3")
    for config, listed in ((changed, "t_end"), (reordered, "key order")):
        lines, problems = compare_runs.compare([old], [failed_run("residual 1e-3", config=config)],
                                               rtol=1e-12)
        assert problems == 1
        assert f"- test1_sub90 psfp: {listed}" in lines


def test_changed_config_of_a_rejected_scenario_is_a_problem():
    old = {"label": "test5_cadam psfp", "config": CONFIG, "rejected": "junction bend: 2 ends"}
    _, problems = compare_runs.compare([old], [old | {"config": None}], rtol=1e-12)
    assert problems == 1


def test_changed_reference_ledger_is_a_problem(monkeypatch):
    run = ("test1_sub90", None, 0.05)
    monkeypatch.setattr(compare_runs, "REFERENCE_RUNS", [run])
    label = compare_runs.reference_label(*run)
    old = {f"{label}/mesh/triangles": np.zeros((4, 3), dtype=int),
           **{f"{label}/ledger/{k}": np.array(1.0) for k in compare_runs.VOLUME_ENTRIES}}
    lines, problems = compare_runs.compare_reference(old, dict(old))
    assert problems == 0 and "differ" not in lines[-1]
    new = old | {f"{label}/ledger/boundary_influx": np.array(np.nextafter(1.0, 2.0))}
    lines, problems = compare_runs.compare_reference(old, new)
    assert problems == 1
    assert lines[-1].endswith("| differ: boundary_influx |")


def completed_run(q=(1.0, 0.1, 0.0)):
    return failed_run(None, failure=None) | {"status": "completed", "channels": {"ch1": [list(q)]}}


def test_equal_runs_read_identical():
    lines, problems = compare_runs.compare([completed_run()], [completed_run()], rtol=1e-12)
    assert problems == 0
    assert lines[-1].endswith("| 0.0e+00 | 0.0e+00 | 0.0e+00 | 0.0e+00 | identical |")


def test_sign_of_a_zero_shows_in_the_bits_column_only():
    # A zero's sign moves no deviation, so it is no problem at any rtol; only
    # the bits column can show it.
    old, new = completed_run((1.0, 0.1, 0.0)), completed_run((1.0, 0.1, -0.0))
    new = json.loads(json.dumps(new))  # as the worker hands it over
    lines, problems = compare_runs.compare([old], [new], rtol=0.0)
    assert problems == 0
    assert lines[-1].endswith("| 0.0e+00 | 0.0e+00 | 0.0e+00 | 0.0e+00 | differ: channels |")


def test_each_changed_part_is_named_in_the_bits_column():
    old = completed_run()
    new = old | {"gauges": old["gauges"] | {"h:g1": [1.0, np.nextafter(1.0, 2.0)]},
                 "ledger": old["ledger"] | {"final_volume": 2.0 + 1e-9}}
    lines, problems = compare_runs.compare([old], [new], rtol=1e-12)
    assert problems == 1  # the ledger's 5e-10 exceeds rtol, the gauge's 2e-16 does not
    assert lines[-1].endswith("| differ: gauges, ledger |")


def test_changed_geometry_is_a_problem_per_array():
    # Geometry is compared to the bit at any rtol, dtypes included.
    old = completed_run()
    centers = old["geometry"]["field.centers"][1]
    new = json.loads(json.dumps(old | {"geometry": old["geometry"] | {
        "field.centers": ("float64", [np.nextafter(centers[0], 1.0)]),
        "junction_field.mesh.areas": ("float64", [0.5]),
    }}))
    lines, problems = compare_runs.compare([old], [new], rtol=1.0)
    assert problems == 2
    assert "- test1_sub90 psfp: field.centers, junction_field.mesh.areas" in lines
    for array in ("field.ds", "field.centers"):
        retyped = old | {"geometry": old["geometry"] | {array: ("float32", [0.1])}}
        _, problems = compare_runs.compare([old], [retyped], rtol=1.0)
        assert problems == 1


def test_changed_gauge_cell_is_a_problem(monkeypatch):
    run = ("test6_network", None, 0.02)
    monkeypatch.setattr(compare_runs, "REFERENCE_RUNS", [run])
    label = compare_runs.reference_label(*run)
    assert compare_runs.POINT_GAUGES[label]
    old = {f"{label}/mesh/triangles": np.zeros((4, 3), dtype=int),
           f"{label}/gauges/inlet:cells": np.array([10])}
    lines, problems = compare_runs.compare_reference(old, old | {
        f"{label}/gauges/inlet:cells": np.array([11])})
    assert problems == 1
    assert "| differ: inlet:cells |" in lines[-1]


def test_moved_patch_vertex_is_a_problem():
    # Each Method-B junction's patch mesh is compared to the bit, and its
    # edge tags as lists.
    from swnet import build_simulation, preset

    sim = build_simulation(preset("test1_sub90", strategy="B"))
    (view,) = sim.junctions
    old = completed_run() | {"geometry": compare_runs.geometry(sim)}
    owner = f"junctions.{view.id}.mesh"
    assert {f"{owner}.{n}" for n in compare_runs.PATCH_ARRAYS} <= old["geometry"].keys()
    _, problems = compare_runs.compare([old], [json.loads(json.dumps(old))], rtol=1.0)
    assert problems == 0
    view.mesh.vertices[5, 1] = np.nextafter(view.mesh.vertices[5, 1], 1.0)
    view.mesh.edge_tags[0] = "wall" if view.mesh.edge_tags[0] != "wall" else "coupling:ch1:end"
    new = json.loads(json.dumps(old | {"geometry": compare_runs.geometry(sim)}))
    lines, problems = compare_runs.compare([old], [new], rtol=1.0)
    assert problems == 2
    assert f"- test1_sub90 psfp: {owner}.edge_tags, {owner}.vertices" in lines


def test_moved_polygon_vertex_is_a_problem():
    # Each Method-A and Method-B junction's polygon is compared to the bit:
    # vertices, edge points, edge kinds (as lists), area and centroid.
    from swnet import build_simulation, preset

    sim = build_simulation(preset("test1_sub90", strategy="A"))
    (view,) = sim.junctions
    old = completed_run() | {"geometry": compare_runs.geometry(sim)}
    owner = f"junctions.{view.id}.geom"
    assert {f"{owner}.{n}" for n in compare_runs.POLYGON_ARRAYS} <= old["geometry"].keys()
    _, problems = compare_runs.compare([old], [json.loads(json.dumps(old))], rtol=1.0)
    assert problems == 0
    view.geom.vertices[2, 0] = np.nextafter(view.geom.vertices[2, 0], 1.0)
    new = json.loads(json.dumps(old | {"geometry": compare_runs.geometry(sim)}))
    lines, problems = compare_runs.compare([old], [new], rtol=1.0)
    assert problems == 1
    assert f"- test1_sub90 psfp: {owner}.vertices" in lines
    for edge in view.geom.edges:
        if edge.kind == "wall":
            edge.kind = "coupling"
            break
    view.geom.area = np.nextafter(view.geom.area, 0.0)
    new = json.loads(json.dumps(old | {"geometry": compare_runs.geometry(sim)}))
    lines, problems = compare_runs.compare([old], [new], rtol=1.0)
    assert problems == 3
    assert f"- test1_sub90 psfp: {owner}.area, {owner}.edge_kinds, {owner}.vertices" in lines


def test_cases_include_the_grid_networks():
    # One junction field of 64 junctions, each of the run's strategy.
    from swnet import build_simulation, preset, preset_names

    grids = {label: scenario for label, scenario in compare_runs.cases(preset, preset_names)
             if "8x8" in label}
    assert list(grids) == ["test6_network 8x8 A", "test6_network 8x8 B", "test6_network 8x8 A/B"]
    for label, scenario in grids.items():
        sim = build_simulation(scenario())
        assert len(sim.junction_field.junctions) == len(sim.junctions) == 64
        assert {j.strategy for j in sim.junctions} == set(label.split()[-1].split("/"))


def test_cases_include_the_generated_junctions():
    # Twelve seeds with Methods A and B, and with PSFP where the junction
    # joins three channels; each seed gives one valid scenario.
    from swnet import preset, preset_names

    runs = {label: scenario for label, scenario in compare_runs.cases(preset, preset_names)
            if label.startswith("generated ")}
    generator = compare_runs.generator()
    want = []
    for seed in range(12):
        data = generator.junction_scenario(seed, "B")
        assert json.dumps(data) == json.dumps(generator.junction_scenario(seed, "B"))
        channels = data["channels"]
        assert 2 <= len(channels) <= 4 and data["junctions"][0]["strategy"] == "B"
        for c in channels:
            assert 0.2 <= c["width"] <= 0.5 and c["cells"] in range(20, 61, 2)
            assert 0.3 <= np.hypot(*c["start"]) <= 0.5
        want += [f"generated {seed} {s}" for s in ("A", "B", "psfp")[: 2 + (len(channels) == 3)]]
    assert list(runs) == want and "generated 1 psfp" in runs
    for label, scenario in runs.items():
        assert scenario().data["junctions"][0]["strategy"] == label.split()[-1]
