"""README's "Package layout" names exactly the modules of the package, its
scenario example is a valid scenario, no module imports a name it never
uses, no function takes a parameter it never reads, and every function and
method it defines is entered from an entry point or kept for a named
reader."""

import ast
import importlib.util
import json
import os
import re
import sys
from pathlib import Path

from swnet import (
    ConfigError,
    build_reference_sim,
    build_simulation,
    cli,
    parse_config,
    preset,
    preset_names,
)

import compare_runs

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
    "junctions.py": ["project_transverse", *[f"JunctionField.{m}" for m in (
        "dt_bound", "reconstruct", "channel_neighbors", "compute_fluxes", "update")]],
    "simulation.py": ["_checked_dt", "NetworkSimulation.advance", "NetworkSimulation.step_fluxes"],
    "riemann.py": ["hllc_rows", "RiemannBatch.solve"],
    "core.py": ["check_wet", "friction_source", "apply_update", "rotate_state", "rotate_back"],
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


# Definitions that no entry point enters, by "<module>.<qualified name>"
# (Python's `__qualname__`: "Class.method", "function.<locals>.inner"), each
# with its reader.
KEPT = {
    "config.ScenarioConfig.__eq__": "the benchmark's test_seed_determines_scenario "
                                    "(bench/test_bench.py:70), and the emit round trip in "
                                    "tests/test_config_cli.py",
    "core.conserved": "test oracle: the tests' state constructor, and criterion 8",
    "core.froude": "criterion 1 (tests/test_acceptance.py:26)",
    "core.physical_flux_y": "criterion 8's oracle",
    "junctions._cell_name": "error path: a non-finite junction cell names its junction and cell",
    "junctions.JunctionView.mesh": "the benchmark's Workload.cells "
                                   "(bench/swnet_bench/workloads.py:56), tools/compare_runs.py, "
                                   "tests/test_config_cli.py, test_junctions.py and "
                                   "test_simulation.py",
    "riemann.wall_flux": "the benchmark's tracer (riemann.wall_flux)",
    "scheme1d.ChannelField._cell_name": "error path: a non-finite or negative channel cell "
                                        "names its channel and cell",
    "studies.compare_methods": "criteria 9 and 12",
}


def definitions(path: Path) -> dict:
    """{(file, first line): "<module>.<qualified name>"} of every function
    and method a module defines, properties and nested functions included,
    lambdas not. A decorated definition's first line is its first
    decorator's, as in its code object's `co_firstlineno`."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(str(path.resolve()), line)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), f"{path.stem}.")
    return found


def entered(entry) -> set:
    """(file, first line) of every Python function that `entry()` enters,
    recorded under `sys.setprofile`."""
    codes = set()

    def record(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        entry()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def reach_problems(defined: dict, reached: set, kept: dict) -> list:
    """What a reachability pass finds wrong, sorted: each definition of
    `defined` ({(file, first line): name}) that is not in `reached` nor
    `kept`, each name of `kept` that was reached, and each that names no
    definition."""
    names = set(defined.values())
    missed = {name for key, name in defined.items() if key not in reached}
    return sorted([
        *(f"unreached: {name}" for name in missed - kept.keys()),
        *(f"kept but reached: {name}" for name in kept.keys() & (names - missed)),
        *(f"kept but not defined: {name}" for name in kept.keys() - names),
    ])


def run_entry_points(out: Path):
    """Build and step 3 times every scenario of `tools/compare_runs.py` and
    every one of its references, then run each CLI verb at a small size."""
    for _, scenario in compare_runs.cases(preset, preset_names):
        try:
            cfg = scenario()
            sim = build_simulation(cfg)
        except ConfigError:
            continue
        sim.run(cfg.t_end, max_steps=3)
    for name, ends, manning_n, dx in compare_runs.REFERENCE_RUNS:
        cfg = compare_runs.reference_scenario(preset, name, ends, manning_n)
        build_reference_sim(cfg, dx).run(cfg.t_end, max_steps=3)
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(preset("test1_sub90").emit()))
    verbs = [
        (["preset-list"], 0),
        (["validate", str(scenario)], 0),
        (["run", "--preset", "test2_asym90", "--t-end", "0.05", "--out", str(out / "preset")], 0),
        (["run", "--config", str(scenario), "--t-end", "0.05", "--out", str(out / "file")], 0),
        (["run", "--preset", "test4_super90", "--strategy", "psfp", "--out", str(out / "fail")], 3),
        (["convergence", "--base-cells", "10", "--levels", "2", "--out", str(out / "conv")], 0),
        (["grid-study", "--sizes", "0.16,0.08", "--t-end", "0.05", "--out", str(out / "grid")], 0),
    ]
    for argv, code in verbs:
        assert cli.main(argv) == code, argv


def test_entry_points_enter_every_definition(tmp_path):
    reached = entered(lambda: run_entry_points(tmp_path))
    defined = {}
    for path in sorted((ROOT / "src" / "swnet").glob("*.py")):
        defined |= definitions(path)
    problems = reach_problems(defined, reached, KEPT)
    assert not problems, "\n".join(problems)


SAMPLE = """\
import functools


def entry():
    c = C()
    return c.method(), c.size, C.helper(), outer()


def outer():
    def inner():
        pass

    return lambda: inner


@functools.cache
def cached():
    pass


def spare():
    pass


class C:
    def method(self):
        return 0

    def unread(self):
        pass

    @property
    def size(self):
        return 1

    @property
    def shape(self):
        return ()

    @staticmethod
    def helper(
        x=0,
    ):
        return x
"""


def test_reach_problems_reads_methods_nested_properties_and_decorators(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    spec = importlib.util.spec_from_file_location("sample", path)
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)
    reached = entered(sample.entry)
    kept = {"sample.spare": "a test", "sample.outer": "a test", "sample.gone": "a test"}
    assert reach_problems(definitions(path), reached, kept) == [
        "kept but not defined: sample.gone",
        "kept but reached: sample.outer",
        "unreached: sample.C.shape",
        "unreached: sample.C.unread",
        "unreached: sample.cached",
        "unreached: sample.outer.<locals>.inner",
    ]
