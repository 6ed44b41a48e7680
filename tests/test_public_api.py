"""Every public name of `wkbohm` has a caller outside the tests.

Each public name is declared once, in the module that defines it: the
package binds only `__version__` and its modules. The surface checked
is every public module-level function and class and every public
method or property of a class in `src/wkbohm`. A name is used when
package code, the benchmark, the tools or the acceptance tests refer
to it: as a name, an attribute, or a string equal to it (the
benchmark's tracer patches functions by attribute name). A method or
property counts only attributes and
strings, so that a bare name bound to something else (`field` imported
from `dataclasses`) cannot stand in for `HierarchyState.field`. A
method or property whose name is also a field, a class constant or a
method of another class is proven by no attribute at all: it counts only
when `SHARED` names the function that reaches it. The name's own
`def`/`class` does not count, and neither do plain imports. The rule
has no exceptions: a name that only tests call is not public, and the
tests reach what it did through the code that stays.

The README's `python` code blocks run here too, so its library example
keeps to the public surface.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wkbohm"

# Public methods and properties whose name another class also uses, each
# with the function ("path:qualified name") that reaches it.
SHARED = {
    "analytic.OscillatorSpec.sigma0": "src/wkbohm/config.py:_harmonic_model",
    "hierarchy.HierarchyState.order": "src/wkbohm/hierarchy.py:reconstruct_polar",
    "potentials.Potential.value": "src/wkbohm/hierarchy.py:propagate_hierarchy",
    "tdse.TdseState.time": "bench/workloads.py:Oracle.run_pass",
    "trajectories.FreePacketVelocityField.evaluate":
        "src/wkbohm/trajectories.py:integrate_ensemble_positions",
    "trajectories.OscillatorVelocityField.evaluate":
        "src/wkbohm/trajectories.py:integrate_ensemble_positions",
    "trajectories.GriddedVelocityField.evaluate":
        "src/wkbohm/trajectories.py:integrate_ensemble_positions",
    "trajectories.GriddedVelocityField.x_window":
        "src/wkbohm/trajectories.py:integrate_ensemble_positions",
    "trajectories.GriddedVelocityField.t_window":
        "src/wkbohm/trajectories.py:integrate_ensemble_positions",
}


# What `import wkbohm` binds: `tables` comes in through `experiments`, and
# `cli` stays unloaded.
SUBMODULES = {
    "analytic", "config", "errors", "experiments", "hierarchy",
    "numerics", "potentials", "tdse", "trajectories",
}


def public_definitions():
    """(qualified name, name, is a method) of each public function, class, method and property."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


def class_members():
    """{name: classes that define it} over methods, class-body names and `self.` attributes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = set()
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                    names.update(
                        node.attr for node in ast.walk(item)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                    )
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            for name in names:
                out.setdefault(name, set()).add(f"{path.stem}.{cls.name}")
    return out


def is_shared(qualified, members):
    """Whether a class other than the method's own defines its name."""
    owner, name = qualified.rsplit(".", 1)
    return bool(members[name] - {owner})


def definition(path, qualname):
    """The class or function node at a dotted name inside a source file."""
    node = ast.parse(path.read_text())
    for part in qualname.split("."):
        node = next(
            n for n in node.body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part
        )
    return node


def referenced_names():
    """(names, attributes and strings, attributes and strings) referred to outside the tests."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    files += [ROOT / "tests" / "test_acceptance.py"]
    names, attributes = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return names | attributes, attributes


def test_package_binds_only_its_version_and_submodules():
    bound = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, None):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(ast.unparse(target) for target in node.targets)
        else:
            assert isinstance(node, ast.Expr), f"binds more than its modules: {ast.unparse(node)}"
    assert bound == {"__version__"} | SUBMODULES


def test_package_import_loads_every_module_but_cli():
    script = "import sys, wkbohm; print(sorted(m for m in sys.modules if m.startswith('wkbohm')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
    expected = ["wkbohm"] + [f"wkbohm.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "cli")]
    assert ast.literal_eval(out.stdout.strip()) == sorted(expected)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})  # a fresh namespace each


def test_every_public_function_class_and_method_has_a_caller_outside_the_tests():
    used, attributes = referenced_names()
    members = class_members()
    unused = [
        qualified
        for qualified, name, method in public_definitions()
        if not (
            qualified in SHARED if method and is_shared(qualified, members)
            else name in (attributes if method else used)
        )
    ]
    assert not unused, f"public but reached only from tests: {unused}"


@pytest.mark.parametrize("qualified", sorted(SHARED))
def test_shared_entry_is_public_still_shared_and_reached_by_its_caller(qualified):
    members = class_members()
    assert qualified in {q for q, _, method in public_definitions() if method}, "no longer public"
    assert is_shared(qualified, members), "no longer shares its name; drop the entry"
    name = qualified.rsplit(".", 1)[1]
    path, caller = SHARED[qualified].split(":")
    assert any(
        isinstance(node, ast.Attribute) and node.attr == name
        for node in ast.walk(definition(ROOT / path, caller))
    ), f"{SHARED[qualified]} does not refer to .{name}"
