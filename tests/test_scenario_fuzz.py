"""Fuzzed scenarios: a preset with the value at one key path replaced by an
arbitrary JSON value parses and builds, or fails as a `ConfigError`; no
other exception escapes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from swnet import presets  # noqa: E402
from swnet.config import ConfigError, build_simulation, parse_config  # noqa: E402
from swnet.junctions import STRATEGIES  # noqa: E402


def key_paths(value, path=()):
    """Every key path into a JSON value: object keys and list indices."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield (*path, key)
        yield from key_paths(child, (*path, key))


# Integers stay small: `cells` and `patch_refine` size the build's arrays,
# and each refinement quadruples a patch.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def fuzzed_scenarios(draw):
    name = draw(st.sampled_from(sorted(presets.PRESETS)))
    strategy = draw(st.sampled_from(STRATEGIES))
    data = presets.preset(name).emit()
    path = draw(st.sampled_from(list(key_paths(data))))
    entry = data
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = draw(JSON)
    return data, strategy


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_scenarios())
def test_fuzzed_scenario_builds_or_is_config_error(scenario):
    data, strategy = scenario
    try:
        with np.errstate(all="ignore"):
            build_simulation(parse_config(data), strategy=strategy)
    except ConfigError:
        pass
