"""Every public function and class of the package has a caller.

A top-level function or class of `src/elastishape/*.py` whose name has no
leading underscore must be referenced, as a name or an attribute in code,
from somewhere in the package other than its own definition, or from a
`bench/*.py` file.  Strings (`__all__` entries, the package's `_PUBLIC`
table) and imports do not count, and neither do the tests.  Names match by
spelling, so a local variable of the same name counts as a reference.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public names kept without a caller, with the reason for each.
ALLOWED = {
    "baseline.point_pc_scores": "the vertex arm of the held-out experiment (ROADMAP item 6)",
    "grids.normalize": "ROADMAP item 6 decides whether shape scores carry scale",
    "grids.surface_area": "ROADMAP item 6 decides whether shape scores carry scale",
}


def _names_used(node) -> Counter:
    """How often each name is read or written, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_function_and_class_has_a_caller():
    package = sorted((ROOT / "src" / "elastishape").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in [*package, *sorted((ROOT / "bench").glob("*.py"))]}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    uncalled = {
        f"{path.stem}.{node.name}"
        for path in package for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and used[node.name] == _names_used(node)[node.name]
    }
    assert not uncalled - ALLOWED.keys(), (
        f"nothing calls {sorted(uncalled - ALLOWED.keys())}: delete them, or add them "
        "to ALLOWED with a reason")
    assert not ALLOWED.keys() - uncalled, (
        f"{sorted(ALLOWED.keys() - uncalled)} now have a caller: take them out of ALLOWED")
