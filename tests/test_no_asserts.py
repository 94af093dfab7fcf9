"""No ``assert`` statement in metlie's source.

``python -O`` strips assert statements, so an invariant guarded by one goes
unchecked there; the source raises ``InternalCheckError`` instead.
"""

import ast

import pytest

from test_dead_code import SOURCES


def assert_lines(source: str):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_guard_flags_an_assert():
    assert assert_lines("def f(x):\n    assert x\n    return x\n") == [2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
