"""README's "Package layout" names exactly the modules of the package, its
scenario example is a valid scenario, no module imports a name it never
uses, no function takes a parameter it never reads, and the package reads
every function, class and method it defines."""

import ast
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


def unused_imports(source: str) -> list:
    """Names a module imports at module level and never uses, except on
    import statements that carry `# noqa: F401`. A module that sets
    `__all__` re-exports what it imports, so it has none."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if "__all__" in used:
        return []
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


def test_modules_use_every_name_they_import():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted((ROOT / "src" / "swnet").glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_imports_reads_names_and_noqa():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path",
        "import numpy as np",
        "from .core import (",
        "    a,",
        "    b,",
        ")",
        "from .riemann import hllc_flux  # noqa: F401",
        "def f():",
        "    return np.zeros(a)",
    ])
    assert unused_imports(source) == ["os", "b"]


# The per-step functions of the network solver ("function" or
# "Class.method", nested functions included), and the numpy calls they must
# not make: Python-level wrappers whose fixed cost exceeds the arithmetic on
# network-sized arrays, each with an exact ufunc or method form
# (`np.bincount` per component for `np.add.at`, `np.array` or row writes for
# `np.stack`, `np.minimum`/`np.maximum` for `np.clip`, a slice difference
# for `np.diff`, `x.all()` for `np.all(x)`, `x.any()` for `np.any(x)`,
# `x.min()` for `np.min(x)`, the builtin `min` over a list of a few floats,
# `np.zeros` for `np.zeros_like`). The junction cells' 2D kernels in
# `MeshField` are per-step network code too.
PER_STEP = {
    "scheme1d.py": [f"ChannelField.{m}" for m in (
        "dt_bound", "reconstruct", "_limit", "face_state", "end_states", "interior_fluxes",
        "update")],
    "junctions.py": ["project_transverse", "_normal_rows", *[f"JunctionField.{m}" for m in (
        "dt_bound", "reconstruct", "channel_neighbors", "compute_fluxes", "update")]],
    "simulation.py": ["_checked_dt", "NetworkSimulation.advance", "NetworkSimulation.step_fluxes"],
    "riemann.py": ["hllc_rows", "RiemannBatch.solve"],
    "core.py": ["check_wet"],
    "scheme2d.py": [f"MeshField.{m}" for m in (
        "dt_bound", "reconstruct", "_fit_padded", "_fit", "_limit", "edge_states", "_face_states",
        "update")],
}
SLOW_CALLS = {"np.stack", "np.add.at", "np.clip", "np.diff", "np.zeros_like",
              "np.all", "np.any", "np.min", "np.sum"}


def functions(source: str) -> dict:
    """The module-level functions and methods of a module, by "function" or
    "Class.method"."""
    defs = {}
    for node in ast.parse(source).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        defs |= {prefix + f.name: f for f in members if isinstance(f, ast.FunctionDef)}
    return defs


def slow_calls(source: str, names) -> list:
    """(function, call) for each call in SLOW_CALLS that the named functions
    of a module make; a KeyError names a listed function the module lacks."""
    defs = functions(source)
    return [
        (name, ast.unparse(node.func))
        for name in names
        for node in ast.walk(defs[name])
        if isinstance(node, ast.Call) and ast.unparse(node.func) in SLOW_CALLS
    ]


def test_per_step_functions_make_no_slow_numpy_calls():
    found = {
        module: slow_calls((ROOT / "src" / "swnet" / module).read_text(), names)
        for module, names in PER_STEP.items()
    }
    assert {module: calls for module, calls in found.items() if calls} == {}


def test_slow_calls_reads_methods_and_nested_functions():
    source = "\n".join([
        "import numpy as np",
        "def f(x):",
        "    def g(y):",
        "        np.add.at(y, 0, 1.0)",
        "    return np.all(x), x.all(), np.maximum(x, 0.0)",
        "class C:",
        "    def m(self, x):",
        "        return np.clip(x, 0.0, 1.0)",
        "    def n(self, x):",
        "        return np.stack([x, x])",
    ])
    assert sorted(slow_calls(source, ["f", "C.m"])) == [
        ("C.m", "np.clip"), ("f", "np.add.at"), ("f", "np.all")]


# The per-step functions also move rows through index tables built once:
# `x.take(rows, axis=0)` gathers and `x.put(flat, v)` scatters on a flat
# (3 row + component) table, each a few times cheaper than `x[rows]` at
# network size. The heuristic: an index, or an entry of a tuple index, that
# is an attribute (`x[self._inner_face]`) or an item of one
# (`x[field.end_face[e]]`) names such a table, so `[]` on it fails. An index
# held in a local name is not judged, nor is a slice or a constant. No
# per-step function needs an exemption.
def attribute_indexing(source: str, names) -> list:
    """(function, subscript) for each `x[...]` in the named functions of a
    module whose index is an attribute or an item of one."""
    defs = functions(source)

    def by_attribute(index):
        if isinstance(index, ast.Subscript):
            index = index.value
        return isinstance(index, ast.Attribute)

    found = []
    for name in names:
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Subscript):
                index = node.slice
                entries = index.elts if isinstance(index, ast.Tuple) else [index]
                if any(map(by_attribute, entries)):
                    found.append((name, ast.unparse(node)))
    return found


def test_per_step_functions_index_no_rows_by_attribute():
    found = {
        module: attribute_indexing((ROOT / "src" / "swnet" / module).read_text(), names)
        for module, names in PER_STEP.items()
    }
    assert {module: subs for module, subs in found.items() if subs} == {}


def test_attribute_indexing_reads_attributes_and_their_items():
    source = "\n".join([
        "class C:",
        "    def m(self, x, field, e, rows):",
        "        x[self._inner_face] = 0.0",
        "        y = x[field.end_face[e]] + x[:, self.cols] + x[rows] + x[1:-1] + x[0]",
        "        return x.take(self._inner_face, axis=0), self.q[rows], y",
    ])
    assert attribute_indexing(source, ["C.m"]) == [
        ("C.m", "x[self._inner_face]"), ("C.m", "x[field.end_face[e]]"),
        ("C.m", "x[:, self.cols]")]


# Parameters that a caller's protocol fixes and the function ignores: each
# boundary ghost is called as ghost(q, t, params), and `FarField`'s does not
# depend on the time.
PROTOCOL_PARAMETERS = {("boundaries.py", "FarField.__call__", "t")}


def unused_parameters(source: str) -> list:
    """(function, parameter) for each parameter that a function never reads
    ("function", "Class.method" or "outer.inner"; lambdas as "<lambda>").
    Exempt are a method's first parameter, unless it is a staticmethod, and
    names that begin with "_", Python's mark of an argument kept for the
    caller's sake."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                          if p]
                decorators = getattr(child, "decorator_list", [])
                static = any(ast.unparse(d) == "staticmethod" for d in decorators)
                if in_class and not static:
                    params = params[1:]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend((name, p) for p in params if p not in read and not p.startswith("_"))
                visit(child, f"{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), "", False)
    return found


def test_functions_read_every_parameter():
    found = {
        (path.name, name, param)
        for path in sorted((ROOT / "src" / "swnet").glob("*.py"))
        for name, param in unused_parameters(path.read_text())
    }
    assert found - PROTOCOL_PARAMETERS == set()
    assert PROTOCOL_PARAMETERS <= found  # an exception that no longer applies goes


def test_unused_parameters_reads_methods_nested_functions_and_lambdas():
    source = "\n".join([
        "def f(a, b, *args, c, _d, **kw):",
        "    def g(x, y=a):",
        "        return x",
        "    h = lambda z: 0",
        "    b = 1",
        "    return g(c, *args), h, kw",
        "class C:",
        "    def m(self, q):",
        "        return 0",
        "    @staticmethod",
        "    def s(p):",
        "        return 0",
    ])
    assert unused_parameters(source) == [
        ("f", "b"), ("f.g", "y"), ("f.<lambda>", "z"), ("C.m", "q"), ("C.s", "p")]


# Definitions that no module of the package reads, each with its reader.
KEPT = {
    "emit": "ScenarioConfig.emit: the benchmark and tools/compare_runs.py",
    "conserved": "the tests' state constructor",
    "physical_flux_y": "criterion 8's oracle",
    "invariant_signs": "criterion 2",
    "exact_riemann_sample": "the tests' exact Riemann oracle",
    "compare_methods": "criteria 9 and 12",
    "wall_flux": "the benchmark's tracer, until its layers are rebound",
    "rotate_state": "the benchmark's tracer, until its layers are rebound",
    "rotate_back": "the benchmark's tracer, until its layers are rebound",
}


def unread_definitions(sources: dict) -> list:
    """(module, name) for each function, class or method (dunders excepted)
    defined in the modules `sources` ({file name: source}) whose name no
    module reads as a name or an attribute; `__init__.py` does not count."""
    defined, read = {}, set()
    for module, source in sources.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, module)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for name, module in defined.items() if name not in read)


def test_package_reads_every_definition():
    sources = {p.name: p.read_text() for p in sorted((ROOT / "src" / "swnet").glob("*.py"))}
    found = {name for _, name in unread_definitions(sources)}
    assert found - set(KEPT) == set()
    assert set(KEPT) <= found  # an exemption that no longer applies goes


def test_unread_definitions_reads_names_and_attributes():
    sources = {
        "__init__.py": "from .a import lonely",
        "a.py": "\n".join([
            "def lonely(): pass",
            "def called(): pass",
            "class C:",
            "    def __init__(self): pass",
            "    def method(self): pass",
            "    def unread(self): pass",
            "    def _private(self): pass",
        ]),
        "b.py": "\n".join([
            "from .a import C, called",
            "called()",
            "C().method()",
            "getattr(C(), '_private')",
        ]),
    }
    assert unread_definitions(sources) == [("a.py", "_private"), ("a.py", "lonely"),
                                           ("a.py", "unread")]
