"""Every public name of `wkbohm` has a caller outside the tests.

Two surfaces are checked: the names the package exports, and every
public module-level function and every public method or property of a
class in `src/wkbohm`. A name is used when package code, the benchmark,
the tools or the acceptance tests refer to it: as a name, an attribute,
or a string equal to it (the benchmark's tracer patches functions by
attribute name). A method or property counts only attributes and
strings, so that a bare name bound to something else (`field` imported
from `dataclasses`) cannot stand in for `HierarchyState.field`. The
name's own `def`/`class` and the re-exports in `__init__` do not count,
and neither do plain imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wkbohm"

# Public on purpose although only tests reach them today, with the reason.
ALLOWED = {
    "hierarchy_wavefunction": "the planned hbar-sweep experiment's oracle scoring calls it "
    "(ROADMAP, the pipeline as a `wkbohm run` experiment, `oracle_hbars`)",
    "hierarchy_rhs": "the hierarchy equations in public form; the physics tests check them through it",
    "ensure_oracle_domain": "the planned hbar-sweep experiment's oracle scoring calls it "
    "(ROADMAP, the pipeline as a `wkbohm run` experiment, `oracle_hbars`)",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    )


def public_definitions():
    """(qualified name, name, is a method) of each public function, method and property."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((f"{path.stem}.{node.name}", node.name, False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


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


def test_every_export_has_a_caller_outside_the_tests():
    used, _ = referenced_names()
    unused = [name for name in exported_names() if name not in used and name not in ALLOWED]
    assert not unused, f"exported but reached only from tests: {unused}"


def test_every_public_function_and_method_has_a_caller_outside_the_tests():
    used, attributes = referenced_names()
    unused = [
        qualified
        for qualified, name, method in public_definitions()
        if name not in (attributes if method else used) and name not in ALLOWED
    ]
    assert not unused, f"public but reached only from tests: {unused}"


def test_allowlist_is_public_and_still_needed():
    public = set(exported_names()) | {name for _, name, _ in public_definitions()}
    assert set(ALLOWED) <= public
    used, _ = referenced_names()
    assert not set(ALLOWED) & used, "an allowlisted name has a caller now; drop it"
