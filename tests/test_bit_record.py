"""This tree gives the bits of `tests/bit_record.json`: every run of the
matrix, every full-2D reference, every recorded geometry input, kernel and
step. A numpy build or SIMD extensions other than the record's fail it only
where they move a bit, and are then named as the likely cause.

A change that moves results on purpose rewrites the record with
`python tools/bit_record.py`, which prints the entries that moved.
"""

import copy

import numpy as np
import pytest

import bit_record
import compare_runs


@pytest.fixture(scope="module")
def runs():
    return compare_runs.run_matrix(bit_record.STEPS)


def test_every_entry_keeps_its_bits(runs):
    problems = bit_record.differences(bit_record.load(), bit_record.build(runs))
    assert not problems, "differ from tests/bit_record.json:\n" + "\n".join(problems)


def next_float(x):
    return float(np.nextafter(x, np.inf))


# One float of each series part of a run, by path into it.
PATHS = {"gauges": ("h:g_ch2", 7), "channels": ("ch3", 11, 1), "junctions": ("j1", 0, 2),
         "ledger": ("final_volume",)}


@pytest.mark.parametrize("part", PATHS)
def test_one_ulp_names_exactly_its_run_and_part(runs, part):
    label = "test1_sub90 B"
    run = next(r for r in runs if r["label"] == label)
    moved = copy.deepcopy(run)
    *path, last = PATHS[part]
    values = moved[part]
    for key in path:
        values = values[key]
    values[last] = next_float(values[last])
    old, new = ({"runs": bit_record.run_entries([r])} for r in (run, moved))
    assert bit_record.differences(old, new) == [f"runs: {label}: {part}"]


def test_one_ulp_of_a_reference_names_its_group():
    label = compare_runs.reference_label(*compare_runs.REFERENCE_RUNS[0])
    arrays = {f"{label}/{g}/q": np.linspace(0.0, 1.0, 12).reshape(4, 3) for g in ("initial", "final")}
    moved = arrays | {f"{label}/final/q": arrays[f"{label}/final/q"].copy()}
    moved[f"{label}/final/q"][2, 1] = next_float(moved[f"{label}/final/q"][2, 1])
    old, new = ({"references": bit_record.reference_entries(a)} for a in (arrays, moved))
    assert bit_record.differences(old, new) == [f"references: {label}: final"]


def test_a_changed_numpy_fingerprint_is_named():
    recorded = bit_record.load()
    here = copy.deepcopy(recorded)
    here["numpy"]["version"] = "0.0.0"
    here["numpy"]["simd found"] = here["numpy"]["simd found"][:-1]
    # Every entry keeps its bits: nothing fails.
    assert bit_record.differences(recorded, here) == []
    # Only a new entry: it is listed, and no numpy build is blamed for it.
    grown = copy.deepcopy(here)
    grown["steps"]["an added entry"] = {"inflow": bit_record.digest(0.0)}
    assert bit_record.differences(recorded, grown) == ["steps: an added entry: new"]
    # One entry moves: it is named, then the fingerprint as the likely cause.
    label = next(iter(here["steps"]))
    here["steps"][label]["inflow"] = bit_record.digest(0.0)
    assert bit_record.differences(recorded, here) == [
        f"steps: {label}: inflow",
        f"numpy version: {recorded['numpy']['version']} recorded, 0.0.0 here (a likely cause)",
        f"numpy simd found: {recorded['numpy']['simd found']} recorded, "
        f"{here['numpy']['simd found']} here (a likely cause)",
    ]
