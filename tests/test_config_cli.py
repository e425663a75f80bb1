import json

import numpy as np
import pytest

from swnet import presets
from swnet.cli import main
from swnet.config import ConfigError, ScenarioConfig, build_simulation, parse_config


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
        assert cfg.data["physics"]["friction_enabled"] is False

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
