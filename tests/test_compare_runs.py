"""`tools/compare_runs.py` counts every difference between two runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def failed_run(message, failure="PSFPFailure"):
    return {
        "label": "test1_sub90 psfp", "rejected": None, "g": 9.81, "status": "failed",
        "steps": 3, "failure": failure, "message": message,
        "gauges": {"t": [0.0, 0.1], "h:g1": [1.0, 1.0], "u:g1": [0.0, 0.1]},
        "channels": {"ch1": [[1.0, 0.1, 0.0]]}, "junctions": {},
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
