"""The package holds only code that production calls.

Every top-level function and every non-dunder method in ``src/endokat`` is
referenced by name in ``src/`` outside its own body, or anywhere in
``perfbench/``.  A function that only the tests call lives with the tests:
in ``references.py``, ``oracle_enumeration.py`` or the test module that uses
it.  References are read from the syntax tree, never from comments or
docstrings: a method counts only through an attribute read (``x.name``),
and a function through a loaded name or an attribute read.  In
``perfbench/`` the dotted strings that name benchmark targets count for
both.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "endokat"
PERFBENCH = ROOT / "perfbench"


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _defs(tree):
    """(name, is a method, first line, last line) of every top-level def
    and every non-dunder method of a top-level class."""
    for node in tree.body:
        if _is_def(node):
            yield node.name, False, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_def(item) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, True, item.lineno, item.end_lineno


def _reads(tree):
    """(name, is an attribute, line) of every name and attribute the code
    reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True, node.lineno


def _strings(tree):
    """The dotted parts of every string constant that is not a docstring."""
    docstrings = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from node.value.split(".")


def test_every_package_function_has_a_production_caller():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    uses = defaultdict(list)
    for path, tree in trees.items():
        for name, attribute, line in _reads(tree):
            uses[name].append((attribute, path, line))
    bench_attributes, bench_names = set(), set()
    for path in PERFBENCH.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for name, attribute, _ in _reads(tree):
            (bench_attributes if attribute else bench_names).add(name)
        bench_attributes.update(_strings(tree))
    uncalled = [
        f"{path.relative_to(ROOT)}:{first} {name}"
        for path, tree in trees.items()
        for name, method, first, last in _defs(tree)
        if name not in bench_attributes
        and (method or name not in bench_names)
        and all(
            (method and not attribute) or (p == path and first <= line <= last)
            for attribute, p, line in uses[name]
        )
    ]
    assert trees and not uncalled, f"defined in the package, called only from tests or nowhere: {uncalled}"
