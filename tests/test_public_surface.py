"""Every public function and class of the package has a caller, every
defaulted field of a public dataclass has a caller that sets it, and every
defaulted parameter of a public function has a caller that passes it.

A top-level function or class of `src/elastishape/*.py` whose name has no
leading underscore must be referenced, as a name or an attribute in code,
from somewhere in the package other than its own definition, or from a
`bench/*.py` file.  Strings (`__all__` entries, the package's `_PUBLIC`
table) and imports do not count, and neither do the tests.  Names match by
spelling, so a local variable of the same name counts as a reference.

A field with a default is set when some code passes it by keyword to a
call of its class or of `dataclasses.replace`, or names it as a string key
of a dict literal in a module that unpacks some dict with `**` into a call
of its class or of `replace`.

A parameter with a default, of a top-level function of the package whose
name has no leading underscore, is passed when some call of that name in
the package or in `bench/*.py` passes it by position or by keyword, or
unpacks a sequence or a mapping where it would go.  `partial(f, ...)`
counts as a call of `f`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "elastishape").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), str(path))
         for path in [*PACKAGE, *sorted((ROOT / "bench").glob("*.py"))]}

# Public names kept without a caller, with the reason for each.
ALLOWED = {
    "grids.normalize": "ROADMAP item 5 decides whether shape scores carry scale",
    "grids.surface_area": "ROADMAP item 5 decides whether shape scores carry scale",
}

# Defaulted parameters kept with no caller that passes them, with the reason for each.
ALLOWED_PARAMETERS = {
    "grids.normalize(unit_scale)": "ROADMAP item 5 decides whether shape scores carry scale",
}


def _names_used(node) -> Counter:
    """How often each name is read or written, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_function_and_class_has_a_caller():
    used = sum((_names_used(tree) for tree in TREES.values()), Counter())
    uncalled = {
        f"{path.stem}.{node.name}"
        for path in PACKAGE for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and used[node.name] == _names_used(node)[node.name]
    }
    assert not uncalled - ALLOWED.keys(), (
        f"nothing calls {sorted(uncalled - ALLOWED.keys())}: delete them, or add them "
        "to ALLOWED with a reason")
    assert not ALLOWED.keys() - uncalled, (
        f"{sorted(ALLOWED.keys() - uncalled)} now have a caller: take them out of ALLOWED")


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_callee(d) == "dataclass" if isinstance(d, ast.Call)
               else getattr(d, "id", None) == "dataclass" for d in node.decorator_list)


def test_every_defaulted_dataclass_field_is_set_by_a_caller():
    defaulted = {
        node.name: [stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None]
        for path in PACKAGE for node in TREES[path].body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        and _is_dataclass(node)
    }
    # Fields set per callee; "replace" sets a field of any class.
    set_by = {}
    for tree in TREES.values():
        keys, unpacked_into = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                set_by.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
                if any(k.arg is None for k in node.keywords):
                    unpacked_into.add(name)
            elif isinstance(node, ast.Dict):
                keys |= {k.value for k in node.keys
                         if isinstance(k, ast.Constant) and isinstance(k.value, str)}
        for name in unpacked_into:
            set_by[name] |= keys
    unset = [f"{cls}.{name}" for cls, names in defaulted.items() for name in names
             if name not in set_by.get(cls, set()) | set_by.get("replace", set())]
    assert not unset, (
        f"no caller sets {unset}: make them module constants, or delete them")


def test_every_defaulted_parameter_is_passed_by_a_caller():
    passed = {}  # callee name -> positions and keyword names passed somewhere
    for tree in TREES.values():
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name, args = _callee(node), node.args
            if name == "partial" and args:  # partial(f, ...) passes on to f
                name, args = _callee(ast.Call(func=args[0])), args[1:]
            seen = passed.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in args):
                seen.add("*")
            seen.update(range(len(args)))
            seen.update(k.arg if k.arg else "**" for k in node.keywords)
    unpassed = set()
    for path in PACKAGE:
        for node in TREES[path].body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            seen = passed.get(node.name, set())
            positional = [*node.args.posonlyargs, *node.args.args]
            first_defaulted = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first_defaulted:], first_defaulted):
                if not seen & {i, arg.arg, "*", "**"}:
                    unpassed.add(f"{path.stem}.{node.name}({arg.arg})")
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None and not seen & {arg.arg, "**"}:
                    unpassed.add(f"{path.stem}.{node.name}({arg.arg})")
    assert not unpassed - ALLOWED_PARAMETERS.keys(), (
        f"no caller passes {sorted(unpassed - ALLOWED_PARAMETERS.keys())}: make them "
        "constants, or add them to ALLOWED_PARAMETERS with a reason")
    assert not ALLOWED_PARAMETERS.keys() - unpassed, (
        f"{sorted(ALLOWED_PARAMETERS.keys() - unpassed)} now have a caller: take them out "
        "of ALLOWED_PARAMETERS")
