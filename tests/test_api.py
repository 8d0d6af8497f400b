"""Every public function and class of the package has a user outside the
tests, and every defaulted parameter of a function is passed by some call.

A public module-level function or class of `torusdirac.*` must be named in
`src/` outside its own `def` or `class`, or in `demos/`.  An import does not
count as a use, so a re-export from `__init__` alone does not keep one.  A
default that no call in `src/`, `demos/` or `tests/` overrides is a
constant, not a parameter.
"""

import ast
import importlib
import inspect
import pkgutil
from collections import defaultdict
from pathlib import Path

import torusdirac

ROOT = Path(__file__).resolve().parents[1]

# public API without an internal caller, each with its reason
EXEMPT = {
    # `main` checks the reads between reading the settings and judging them
    "load_config": "loads a scenario for library callers; the benchmark's set-up time runs it",
}


def _public_members(predicate=inspect.isfunction):
    """(module name, name, object) of every public module-level function, or class."""
    for info in pkgutil.iter_modules(torusdirac.__path__):
        module = importlib.import_module(f"torusdirac.{info.name}")
        for name, obj in inspect.getmembers(module, predicate):
            if not name.startswith("_") and obj.__module__ == module.__name__:
                yield module.__name__, name, obj


def _names_used(tree: ast.AST, skip_def: bool) -> set:
    """Names loaded or read as attributes in `tree`; with skip_def, not inside a def or
    class of that name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and skip_def:
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def _names_used_outside_the_tests() -> set:
    used = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        used |= _names_used(ast.parse(path.read_text()), skip_def=True)
    for path in sorted((ROOT / "demos").glob("*.py")):
        used |= _names_used(ast.parse(path.read_text()), skip_def=False)
    return used


def test_every_public_function_has_a_caller_outside_the_tests():
    used = _names_used_outside_the_tests()
    orphans = sorted(f"{module}.{name}" for module, name, _ in _public_members()
                     if name not in used and name not in EXEMPT)
    assert not orphans, f"public functions that only tests call: {orphans}"


def test_every_public_class_has_a_user_outside_the_tests():
    used = _names_used_outside_the_tests()
    orphans = sorted(f"{module}.{name}" for module, name, _ in _public_members(inspect.isclass)
                     if name not in used and name not in EXEMPT)
    assert not orphans, f"public classes that only tests use: {orphans}"


def _arguments_passed(tree: ast.AST, passed: dict) -> None:
    """Add to passed[callee name] the positions and keywords of each call in `tree`.

    `partial(f, ...)` counts as a call of f; a starred argument adds "*"
    (every position) and a `**` mapping adds "**" (every keyword).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "partial" and args:
            name, args = getattr(args[0], "id", getattr(args[0], "attr", None)), args[1:]
        passed[name].update("*" if isinstance(arg, ast.Starred) else i
                            for i, arg in enumerate(args))
        passed[name].update(kw.arg or "**" for kw in node.keywords)


def test_every_defaulted_parameter_is_passed_by_some_call():
    passed = defaultdict(set)
    for folder in ("src", "demos", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            _arguments_passed(ast.parse(path.read_text()), passed)
    knobs = []
    for module, name, func in _public_members():
        calls = passed[name]
        for i, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is param.empty:
                continue
            by_position = param.kind != param.KEYWORD_ONLY and (i in calls or "*" in calls)
            if not (by_position or param.name in calls or "**" in calls):
                knobs.append(f"{module}.{name}({param.name}=)")
    assert not knobs, f"defaults that no call overrides: {knobs}"
