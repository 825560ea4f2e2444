"""Every public module-level name of the library, and every public method
or property of its classes, has a reader outside the tests: a reference
from the library or the benchmark code.  A mention in the README is not a
reader.  A name only tests call belongs in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(directory):
    return [ast.parse(path.read_text()) for path in sorted((ROOT / directory).glob("*.py"))]


def _defined(tree):
    """Public functions, classes and constants bound at module level, and
    the methods and properties defined in those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                functions = (ast.FunctionDef, ast.AsyncFunctionDef)
                yield from (member.name for member in node.body if isinstance(member, functions))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _referenced(tree):
    """Names read, attributes taken and names imported anywhere in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_name_has_a_reader():
    library = _trees("src/stci")
    referenced = {
        name for tree in library + _trees("perfbench") for name in _referenced(tree)
    }
    public = {name for tree in library for name in _defined(tree) if not name.startswith("_")}
    unread = sorted(public - referenced)
    assert not unread, f"public names no library or benchmark code reads: {unread}"
