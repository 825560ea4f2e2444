"""The library decides whether a value is an int in one place,
``stci.errors``: no other module tests int-ness itself, so a parameter is
either checked by ``errors.integer`` or not checked at all."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stci"

# Int tests that are not parameter checks: ``run`` reads the exit code of
# argparse's SystemExit, which may be an int or a message.
NOT_PARAMETER_CHECKS = {("cli.py", "isinstance(exc.code, int)")}


def _is_int_or_bool(node):
    return isinstance(node, ast.Name) and node.id in ("int", "bool")


def _int_tests(tree):
    """isinstance(_, int or bool), also within a tuple of types, and
    type(_) is / is not int or bool."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(map(_is_int_or_bool, kinds)):
                yield node
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            sides = [node.left, *node.comparators]
            calls_type = any(
                isinstance(side, ast.Call) and isinstance(side.func, ast.Name) and side.func.id == "type"
                for side in sides
            )
            if calls_type and any(map(_is_int_or_bool, sides)):
                yield node


def test_only_errors_tests_int_ness():
    found = [
        (path.name, ast.unparse(node))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py"
        for node in _int_tests(ast.parse(path.read_text()))
    ]
    assert sorted(set(found) - NOT_PARAMETER_CHECKS) == []


def test_the_guard_sees_each_spelling():
    spellings = [
        "isinstance(x, bool)",
        "isinstance(x, int) and not isinstance(x, bool)",
        "isinstance(x, (int, float))",
        "type(x) is int",
        "type(x) is not int",
        "int is type(x)",
        "type(a) is type(b) is int",
    ]
    for text in spellings:
        assert list(_int_tests(ast.parse(text))), text
    for text in ("isinstance(x, str)", "x is True", "type(x) is str", "integer(x, 'n')"):
        assert not list(_int_tests(ast.parse(text))), text
