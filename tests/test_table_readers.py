"""No module of metlie but ``lie`` reads an attribute named ``table``.

A ``LieAlgebra`` stores its brackets once, as its adjoint matrices, and
``table`` is a view of them built on first read.  The library reads the
adjoint matrices; a ``table`` read elsewhere in it would build the dense
view of every algebra it touches.
"""

import ast

import pytest

from test_dead_code import SOURCES


def table_reads(source: str):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "table"]


def test_guard_flags_a_table_read():
    assert table_reads("def f(g):\n    return g.table[0][1]\n") == [2]
    assert table_reads("def f(g):\n    return g._table, g.ad(0)\n") == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "lie.py"],
                         ids=lambda p: p.name)
def test_no_table_reads_outside_lie(path):
    assert table_reads(path.read_text(encoding="utf-8")) == []
