"""The library checks its inputs and leaves checks of its own results to
the tests: no ``assert`` statement and no ``raise AssertionError`` in
``src/stci``.  An assert vanishes under ``python -O``, and a self-check
that can only fail on a bug belongs beside its oracle in tests/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stci"


def _self_checks(tree):
    """assert statements, and raises of AssertionError called or bare."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node


def test_library_has_no_self_checks():
    found = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in _self_checks(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_guard_sees_each_spelling():
    for text in ("assert x", "assert x, 'why'", "raise AssertionError", "raise AssertionError('why')",
                 "if x:\n    raise AssertionError(f'{x}')"):
        assert list(_self_checks(ast.parse(text))), text
    for text in ("raise DomainError('x')", "raise", "x = AssertionError", "raise ValueError from None"):
        assert not list(_self_checks(ast.parse(text))), text
