"""README's "Package layout" names exactly the modules of the package."""

import re
from pathlib import Path

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
