"""Every name `wkbohm` exports has a caller outside the tests.

A name is used when package code, the benchmark, or the acceptance
tests refer to it: as a name, an attribute, or a string equal to it
(the benchmark's tracer patches functions by attribute name). The
name's own `def`/`class` and the re-exports in `__init__` do not
count, and neither do plain imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wkbohm"

# Exported on purpose although only tests reach them today.
ALLOWED = {
    # The planned hbar-sweep experiment's oracle scoring calls it
    # (ROADMAP, the pipeline as a `wkbohm run` experiment).
    "hierarchy_wavefunction",
    # The hierarchy equations in public form; the physics tests check
    # them through it.
    "hierarchy_rhs",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    )


def referenced_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    seen = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.add(node.value)
    return seen


def test_every_export_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = [name for name in exported_names() if name not in used and name not in ALLOWED]
    assert not unused, f"exported but reached only from tests: {unused}"


def test_allowlist_is_exported_and_still_needed():
    exported = set(exported_names())
    assert ALLOWED <= exported
    assert not ALLOWED & referenced_names(), "an allowlisted name has a caller now; drop it"
