"""README's "Package layout" names exactly the modules of the package, and
its scenario example is a valid scenario."""

import re
from pathlib import Path

from swnet import build_simulation, parse_config

ROOT = Path(__file__).resolve().parents[1]


def layout_names(readme: str) -> set:
    """The `<module>.py` names in the "Package layout" section of a README."""
    section = readme.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+\.py)`", section))


def test_package_layout_matches_the_modules():
    modules = {p.name for p in (ROOT / "src" / "swnet").glob("*.py")} - {"__init__.py"}
    assert layout_names((ROOT / "README.md").read_text()) == modules


def test_layout_names_reads_only_its_section():
    readme = "\n".join([
        "# pkg", "`other.py`", "## Package layout", "",
        "- `a.py` / `b.py` — two modules; `a.b` is not a module.",
        "`tools/run.py ARGS` runs it.", "## Next", "`c.py`",
    ])
    assert layout_names(readme) == {"a.py", "b.py"}


def scenario_example(readme: str) -> str:
    """The JSON example in the "Scenario files" section of a README."""
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_scenario_example_builds():
    cfg = parse_config(scenario_example((ROOT / "README.md").read_text()))
    sim = build_simulation(cfg)
    assert cfg.name == "fork"
    assert [j.strategy for j in sim.junctions] == ["A"]
    assert sim.total_volume() > 0.0
