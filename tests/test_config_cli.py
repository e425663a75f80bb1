import json
import re

import numpy as np
import pytest

from swnet import presets
from swnet.cli import main
from swnet.config import ConfigError, ScenarioConfig, build_simulation, parse_config
from swnet.studies import build_reference_sim


def minimal_cfg():
    return {
        "name": "mini",
        "channels": [
            {"id": "a", "width": 0.5, "cells": 10, "start": [0, 0], "end": [2, 0]},
            {"id": "b", "width": 0.5, "cells": 10, "start": [2, 0], "end": [4, 0]},
        ],
        "junctions": [
            {
                "id": "j",
                "strategy": "A",
                "position": [2, 0],
                "connects": [{"channel": "a", "end": "end"}, {"channel": "b", "end": "start"}],
            }
        ],
        "boundaries": [
            {"channel": "a", "end": "start", "kind": "reflective"},
            {"channel": "b", "end": "end", "kind": "reflective"},
        ],
        "initial": {"h": 0.2},
        "t_end": 1.0,
    }


class TestParse:
    def test_minimal_network_valid(self):
        cfg = parse_config(minimal_cfg())
        sim = build_simulation(cfg)
        assert set(sim.fields) == {"a", "b"}

    def test_missing_channel_named_in_error(self):
        data = minimal_cfg()
        data["junctions"][0]["connects"][0]["channel"] = "ghost"
        with pytest.raises(ConfigError, match="ghost"):
            parse_config(data)

    def test_psfp_four_way_rejected(self):
        data = minimal_cfg()
        data["channels"] += [
            {"id": "c", "width": 0.5, "cells": 10, "start": [2, 0.25], "end": [2, 2]},
            {"id": "d", "width": 0.5, "cells": 10, "start": [2, -0.25], "end": [2, -2]},
        ]
        data["junctions"][0]["strategy"] = "psfp"
        data["junctions"][0]["connects"] += [
            {"channel": "c", "end": "start"},
            {"channel": "d", "end": "start"},
        ]
        data["boundaries"] += [
            {"channel": "c", "end": "end", "kind": "reflective"},
            {"channel": "d", "end": "end", "kind": "reflective"},
        ]
        with pytest.raises(ConfigError, match="exactly 3"):
            parse_config(data)

    def test_unknown_keys_rejected(self):
        data = minimal_cfg()
        data["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(data)
        data = minimal_cfg()
        data["channels"][0]["slope"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(data)

    @pytest.mark.parametrize("cfl", [0.0, -0.5, 1.5, float("nan")])
    def test_cfl_outside_unit_interval_rejected(self, cfl):
        data = minimal_cfg()
        data["numerics"] = {"cfl": cfl}
        with pytest.raises(ConfigError, match="cfl"):
            build_simulation(parse_config(data))
        with pytest.raises(ConfigError, match="cfl"):
            build_simulation(parse_config(minimal_cfg()), cfl=cfl)

    @pytest.mark.parametrize("section, key, value", [
        ("numerics", "coupling", "two-pass"),
        ("numerics", "transverse", "zero"),
        (None, "output_stride", 5),
        ("physics", "friction_enabled", True),
    ])
    def test_removed_options_rejected(self, tmp_path, capsys, section, key, value):
        data = minimal_cfg()
        (data.setdefault(section, {}) if section else data)[key] = value
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            parse_config(data)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["stratgy", "ordr", "coupling", "transverse"])
    def test_build_simulation_rejects_unknown_overrides(self, name):
        cfg = presets.preset("test1_sub90")
        with pytest.raises(TypeError, match=name):
            build_simulation(cfg, **{name: "psfp"})
        sim = build_simulation(cfg, strategy="psfp", order=1)
        assert sim.order == 1 and [j.strategy for j in sim.junctions] == ["psfp"]

    @pytest.mark.parametrize("section, entry, message", [
        ("physics", {"g": 0.0}, "g must be positive"),
        ("channels", {"end": [0, 0]}, "zero length"),
    ])
    def test_out_of_range_physics_or_channel_is_config_error(self, section, entry, message):
        data = minimal_cfg()
        if section == "physics":
            data["physics"] = entry
        else:
            data["channels"][0].update(entry)
        with pytest.raises(ConfigError, match=message):
            build_simulation(parse_config(data))

    def test_cfl_one_accepted(self):
        assert build_simulation(parse_config(minimal_cfg()), cfl=1.0).cfl == 1.0

    def test_unattached_end_rejected(self):
        data = minimal_cfg()
        data["boundaries"].pop()
        with pytest.raises(ConfigError, match="unattached"):
            parse_config(data)

    def test_round_trip(self):
        cfg = parse_config(minimal_cfg())
        assert parse_config(cfg.emit()) == cfg
        for name, _ in presets.preset_names():
            cfg = presets.preset(name)
            assert parse_config(cfg.emit()) == cfg

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"name": "x",\n  bad\n}')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(str(p))


class TestPresets:
    def test_all_presets_validate_and_build(self):
        for name, _ in presets.preset_names():
            cfg = presets.preset(name)
            sim = build_simulation(cfg)
            assert sim.total_volume() > 0.0

    def test_all_presets_complete_at_reduced_horizon(self):
        for name, _ in presets.preset_names():
            cfg = presets.preset(name)
            sim = build_simulation(cfg)
            res = sim.run(min(0.3, cfg.t_end))
            assert res.status == "completed", f"{name}: {res.failure}"

    def test_super_bore_froude_value(self):
        h1, u1 = presets.bore_state(0.1, 1.135)
        assert abs(u1 / np.sqrt(9.81 * h1) - 1.135) < 1e-9
        cfg = presets.preset("test4_super90")
        b = cfg.data["boundaries"][0]
        assert abs(b["u"] / np.sqrt(9.81 * b["h"]) - 1.135) < 1e-6

    def test_network_preset_shape(self):
        cfg = presets.preset("test6_network")
        assert len(cfg.data["junctions"]) == 16
        assert len(cfg.data["channels"]) == 25
        assert cfg.data["physics"]["manning_n"] == 0.0

    def test_appA_inflow_matches_reference_relation(self):
        cfg = presets.preset("appA_angle45")
        b = cfg.data["boundaries"][0]
        assert b["inflow"]["amplitude"] == 0.4 and b["inflow"]["center"] == 3.0
        assert cfg.data["junctions"][0]["strategy"] == "psfp"

    def test_reconstructed_numbers_are_flagged(self):
        for name in ("test1_sub90", "test5_cadam", "test6_network"):
            meta = presets.preset(name).data["metadata"]
            assert meta["assumed"]


class TestCli:
    def test_preset_list(self, capsys):
        assert main(["preset-list"]) == 0
        out = capsys.readouterr().out
        assert "test4_super90" in out and "appB_gridstudy" in out

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(minimal_cfg()))
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        data = minimal_cfg()
        data["junctions"][0]["connects"][0]["channel"] = "ghost"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_invalid_cfl_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = minimal_cfg()
        data["numerics"] = {"cfl": 0.0}
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        code = main(["run", "--preset", "test1_sub90", "--cfl", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()  # no output directory for a rejected run
        assert "cfl must be in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["amplitude", "center"])
    def test_inflow_without_pulse_field_is_config_error(self, tmp_path, capsys, key):
        data = minimal_cfg()
        data["boundaries"][0] = {
            "channel": "a", "end": "start", "kind": "inflow",
            "inflow": {"amplitude": 0.1, "center": 1.0, "width": 0.5},
        }
        del data["boundaries"][0]["inflow"][key]
        with pytest.raises(ConfigError, match=f"inflow.{key}"):
            parse_config(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"inflow.{key}" in capsys.readouterr().err

    def test_run_stride_below_one_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["run", "--preset", "smooth1d", "--t-end", "0.2", "--stride", "0", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()  # no output directory for a rejected run
        assert "--stride must be at least 1, got 0" in capsys.readouterr().err

    def test_missing_file_is_config_error(self):
        assert main(["validate", "/nonexistent/path.json"]) == 2

    def test_run_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--preset", "smooth1d", "--t-end", "0.2", "--out", str(out)])
        assert code == 0
        assert (out / "gauges.csv").read_text().startswith("t,gauge_id,h,u")
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "completed"
        assert meta["scenario"]["name"] == "smooth1d"
        assert (out / "final_state.json").exists()

    @pytest.mark.parametrize("strategy", ["A", "B", "psfp"])
    def test_run_writes_junction_states(self, tmp_path, strategy):
        out = tmp_path / "out"
        args = ["run", "--preset", "test1_sub90", "--strategy", strategy, "--t-end", "0.1"]
        assert main([*args, "--out", str(out)]) == 0
        state = json.loads((out / "final_state.json").read_text())
        sim = build_simulation(presets.preset("test1_sub90"), strategy=strategy)
        sim.run(0.1)
        assert set(state["channels"]) == set(sim.fields)
        for cid, f in sim.fields.items():
            assert state["channels"][cid]["h"] == f.q[:, 0].tolist()
        # A and B junctions write their 2D cells; the algebraic one has none.
        want = {} if strategy == "psfp" else {j.id: j.q for j in sim.junctions}
        assert set(state["junctions"]) == set(want)
        for jid, q in want.items():
            got = state["junctions"][jid]
            assert np.array_equal(np.column_stack([got["h"], got["hu"], got["hv"]]), q)
        assert [len(q) for q in want.values()] == {"A": [1], "B": [128], "psfp": []}[strategy]

    def test_run_numerical_failure_exit_code(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--preset", "test4_super90", "--strategy", "psfp",
            "--t-end", "2.0", "--out", str(out),
        ])
        assert code == 3
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "failed"
        assert "failure" in meta
        assert meta["failure_type"] == "PSFPFailure"

    def test_run_untyped_failure_writes_meta(self, tmp_path, monkeypatch, capsys):
        from swnet.simulation import NetworkSimulation

        advance = NetworkSimulation.advance

        def failing(self, dt):
            if self.steps == 2:
                raise RuntimeError("non-positive time step dt=0.0")
            advance(self, dt)

        monkeypatch.setattr(NetworkSimulation, "advance", failing)
        out = tmp_path / "out"
        code = main(["run", "--preset", "smooth1d", "--t-end", "0.2", "--out", str(out)])
        assert code == 3
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["status"] == "failed"
        assert meta["failure_type"] == "RuntimeError"
        assert meta["failure"] == "non-positive time step dt=0.0"
        assert meta["steps"] == 2 and meta["t"] > 0.0
        assert (out / "gauges.csv").exists() and (out / "final_state.json").exists()
        assert "non-positive time step" in capsys.readouterr().err

    def test_run_override_flags(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--preset", "test1_sub90", "--strategy", "psfp", "--order", "1",
            "--t-end", "0.3", "--out", str(out),
        ])
        assert code == 0

    def test_convergence_writes_report(self, tmp_path):
        out = tmp_path / "conv"
        code = main([
            "convergence", "--order", "1", "--base-cells", "25", "--levels", "2",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "convergence.csv").read_text().strip().split("\n")
        assert lines[0] == "cells,l1_error,observed_order"
        assert len(lines) == 3

    def test_grid_study_writes_report(self, tmp_path):
        out = tmp_path / "gs"
        code = main([
            "grid-study", "--preset", "appB_gridstudy", "--sizes", "0.16,0.08",
            "--t-end", "0.4", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "grid_study.csv").read_text().strip().split("\n")
        assert lines[0] == "size,cells,integral,rel_diff,cpu_s"
        assert len(lines) == 3

    def test_grid_study_without_probe_is_config_error(self, tmp_path, capsys):
        code = main([
            "grid-study", "--preset", "smooth1d", "--sizes", "0.5", "--t-end", "0.1",
            "--out", str(tmp_path / "gs"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: smooth1d: a grid study needs metadata.probe" in err
        assert not (tmp_path / "gs").exists()  # a rejected study leaves no directory


class TestGaugeOutsideItsChannel:
    # ch1 of test1_sub90 is 3 m long.
    @pytest.mark.parametrize("s", [50.0, -1.0])
    def test_rejected_by_the_schema_and_the_cli(self, tmp_path, capsys, s):
        data = presets.preset("test1_sub90").emit()
        data["gauges"].append({"id": "far", "channel": "ch1", "s": s})
        message = f"gauge far: s={s} outside channel 'ch1' of length 3"
        with pytest.raises(ConfigError, match=message):
            parse_config(data)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err


DAM_BREAK = {"type": "dam_break", "split_s": 1.0, "left": {"h": 0.3, "u": 0.1}, "right": {"h": 0.2}}
HUMP = {"type": "hump", "h0": 0.2, "amplitude": 0.05, "center": 1.0, "width": 0.3}


class TestIncompleteEntries:
    """An entry without a key that its build reads is a configuration error
    that names the key, from the schema and as the CLI's exit 2."""

    @pytest.mark.parametrize("section, key, message", [
        *[(DAM_BREAK, (k,), f"initial.per_channel[a]: missing {k!r}")
          for k in ("split_s", "left", "right")],
        *[(DAM_BREAK, (side, "h"), f"initial.per_channel[a].{side}: missing 'h'")
          for side in ("left", "right")],
        *[(HUMP, (k,), f"initial.per_channel[a]: missing {k!r}")
          for k in ("h0", "amplitude", "center", "width")],
    ])
    def test_initial_profile_key(self, tmp_path, capsys, section, key, message):
        data = minimal_cfg()
        data["initial"]["per_channel"] = {"a": json.loads(json.dumps(section))}
        build_simulation(parse_config(data))
        entry = data["initial"]["per_channel"]["a"]
        for k in key[:-1]:
            entry = entry[k]
        del entry[key[-1]]
        self.assert_rejected(tmp_path, capsys, data, message)

    def test_gauge_id(self, tmp_path, capsys):
        data = minimal_cfg()
        data["gauges"] = [{"channel": "a", "s": 1.0}]
        self.assert_rejected(tmp_path, capsys, data, "gauge on 'a': missing 'id'")

    @staticmethod
    def assert_rejected(tmp_path, capsys, data, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(data)
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert f"configuration error: {message}" in capsys.readouterr().err


class TestMistypedEntries:
    """A section or list entry of the wrong JSON type is a configuration
    error that names it, from the schema and as the CLI's exit 2."""

    @pytest.mark.parametrize("path, where", [
        *[((key,), key) for key in ("physics", "numerics", "initial", "metadata")],
        (("initial", "per_channel"), "initial.per_channel"),
        (("initial", "per_channel", "a"), "initial.per_channel[a]"),
        (("initial", "per_channel", "a", "left"), "initial.per_channel[a].left"),
        *[((key,), key) for key in ("channels", "junctions", "boundaries", "gauges")],
        *[((key, 0), f"{key}[0]") for key in ("channels", "junctions", "boundaries", "gauges")],
        (("junctions", 0, "connects"), "junction j connects"),
        (("junctions", 0, "connects", 1), "junction j connects[1]"),
    ])
    def test_named_as_config_error(self, tmp_path, capsys, path, where):
        data = minimal_cfg()
        data["initial"]["per_channel"] = {"a": json.loads(json.dumps(DAM_BREAK))}
        data["gauges"] = [{"id": "g", "channel": "a", "s": 1.0}]
        build_simulation(parse_config(data))
        entry = data
        for k in path[:-1]:
            entry = entry[k]
        entry[path[-1]] = 3
        lists = ("channels", "junctions", "boundaries", "gauges", "connects")
        expected = "a list" if path[-1] in lists else "an object"
        message = f"{where}: must be {expected}, got int"
        TestIncompleteEntries.assert_rejected(tmp_path, capsys, data, message)


class TestMistypedScalars:
    """A scalar value of the wrong type is a configuration error that names
    the field, from the schema and as the CLI's exit 2. Before, the first
    three and the last failed the run (exit 3), `cells` and `t_end` passed
    as valid and `start` read as a self-intersecting junction polygon."""

    @pytest.mark.parametrize("path, value, message", [
        (("channels", 0, "width"), "x", "channel a: 'width' must be a number, got 'x'"),
        (("junctions", 0, "position"), 3, "junction j: 'position' must be a point [x, y], got 3"),
        (("initial", "h"), "x", "initial: 'h' must be a number, got 'x'"),
        (("channels", 0, "cells"), 2.5, "channel a: 'cells' must be an integer, got 2.5"),
        (("t_end",), "x", "config: 't_end' must be a number, got 'x'"),
        (("channels", 0, "start"), 3, "channel a: 'start' must be a point [x, y], got 3"),
        (("initial", "per_channel"), {"a": {"h": "x"}},
         "initial.per_channel[a]: 'h' must be a number, got 'x'"),
    ], ids=["width", "position", "initial.h", "cells", "t_end", "start", "per_channel.h"])
    def test_named_as_config_error(self, tmp_path, capsys, path, value, message):
        data = minimal_cfg()
        entry = data
        for k in path[:-1]:
            entry = entry[k]
        entry[path[-1]] = value
        TestIncompleteEntries.assert_rejected(tmp_path, capsys, data, message)


def fork(explicit: bool, strategy: str = "A") -> dict:
    """A fork like README's example, with every optional key left out, or
    with each spelt out at the default that README's "Scenario files"
    section documents."""
    junction = {"id": "j1", "strategy": strategy, "position": [0, 0],
                "connects": [{"channel": "ch1", "end": "end"},
                             {"channel": "ch2", "end": "start"},
                             {"channel": "ch3", "end": "start"}]}
    inflow = {"amplitude": 0.5, "center": 0.2}
    prescribed = {"channel": "ch2", "end": "end", "kind": "prescribed", "h": 1.0}
    per_channel = {
        "ch2": {"h": 1.02},
        "ch3": {"type": "hump", "h0": 1.0, "amplitude": 0.05, "center": 1.0, "width": 0.3},
        "ch1": {"type": "dam_break", "split_s": 1.5, "left": {"h": 1.05}, "right": {"h": 1.0}},
    }
    data = {
        "channels": [
            {"id": "ch1", "width": 0.4, "cells": 30, "start": [-3.2, 0], "end": [-0.2, 0]},
            {"id": "ch2", "width": 0.4, "cells": 20, "start": [0, 0.2], "end": [0, 2.2]},
            {"id": "ch3", "width": 0.4, "cells": 20, "start": [0, -0.2], "end": [0, -2.2]},
        ],
        "junctions": [junction],
        "boundaries": [{"channel": "ch1", "end": "start", "kind": "inflow", "inflow": inflow},
                       prescribed,
                       {"channel": "ch3", "end": "end", "kind": "transparent"}],
        "initial": {"per_channel": per_channel},
        "gauges": [{"id": "g2", "channel": "ch2", "s": 1.0},
                   {"id": "g3", "channel": "ch3", "s": 1.0}],
        "t_end": 1.0,
    }
    if explicit:
        data["physics"] = {"g": 9.81, "manning_n": 0.0}
        data["numerics"] = {"order": 2, "cfl": 0.9}
        data["initial"].update(h=1.0, u=0.0)
        inflow["width"] = 1.0
        junction.update(merging=False, protrusion=0.1, patch_protrusion=0.5, patch_refine=2)
        prescribed["u"] = 0.0
        per_channel["ch2"].update(type="uniform", u=0.0)
        per_channel["ch3"]["u"] = 0.0
        for side in ("left", "right"):
            per_channel["ch1"][side]["u"] = 0.0
    return data


def run_bits(sim, steps=5) -> list:
    """The bytes of a simulation's build and of a few of its steps: its
    numerics, states, junction cells or mesh, gauge series and ledger."""
    arrays = [sim.field.q]
    cells = getattr(sim, "junction_field", None)
    if cells is not None:
        arrays += [cells.mesh.vertices, cells.mesh_field.q]
    if hasattr(sim, "mesh"):
        arrays += [sim.mesh.vertices, sim.mesh.triangles]
    built = [sim.params, sim.order, sim.cfl, *(np.asarray(a).tobytes() for a in arrays)]
    res = sim.run(1.0, max_steps=steps)
    assert res.status == "completed" and res.steps == steps
    series = [np.array(s).tobytes() for g in res.gauges.gauges for s in res.gauges.series(g.id)]
    return [*built, sim.field.q.tobytes(), *series, res.diagnostics]


class TestDefaultsWrittenOnce:
    """A scenario that leaves out every optional key builds and runs exactly
    like one that spells out README's defaults."""

    @pytest.mark.parametrize("strategy", ["A", "B", "psfp"])
    def test_network(self, strategy):
        sparse, explicit = (
            build_simulation(parse_config(fork(e, strategy))) for e in (False, True))
        assert [j.strategy for j in sparse.junctions] == [strategy]
        assert run_bits(sparse) == run_bits(explicit)

    def test_reference(self):
        sparse, explicit = (build_reference_sim(parse_config(fork(e)), 0.1) for e in (False, True))
        assert run_bits(sparse) == run_bits(explicit)


class TestFriction:
    """`manning_n > 0` alone applies Manning friction, in the network and in
    the full-2D reference: uniform flow between open ends loses momentum
    against the same run at `manning_n: 0`, at no more than the pointwise
    rate g n^2 |u| / h^(4/3) of the initial state."""

    T, H, U, N = 0.5, 0.2, 0.3, 0.03

    def scenario(self, manning_n):
        data = minimal_cfg()
        data["physics"] = {"manning_n": manning_n}
        data["initial"].update(h=self.H, u=self.U)
        for b in data["boundaries"]:
            b["kind"] = "transparent"
        return parse_config(data)

    def assert_friction_loss(self, momentum):
        rate = 9.81 * self.N**2 * self.U / self.H ** (4.0 / 3.0)
        pointwise = 1.0 - np.exp(-rate * self.T)
        loss = 1.0 - momentum(self.N) / momentum(0.0)
        assert 0.5 * pointwise < loss < 1.01 * pointwise

    def test_network(self):
        def momentum(manning_n):
            sim = build_simulation(self.scenario(manning_n))
            assert sim.params.manning_n == manning_n
            assert sim.run(self.T).status == "completed"
            return sum(float(np.sum(f.q[:, 1] * f.ds)) for f in sim.fields.values())

        self.assert_friction_loss(momentum)

    def test_reference(self):
        def momentum(manning_n):
            sim = build_reference_sim(self.scenario(manning_n), 0.125)
            assert sim.run(self.T).status == "completed"
            return float(np.sum(sim.field.q[:, 1] * sim.mesh.areas))

        self.assert_friction_loss(momentum)
