"""Every module-level private function in metlie is used by its own module.

A ``_name`` function is private to the module that defines it, so a
definition that the module never refers to is dead code.  Public names are
part of the API and are not checked here.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "metlie").glob("*.py"))


def unused_private_functions(source: str):
    tree = ast.parse(source)
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    return [name for name in defined if name not in used]


def test_guard_flags_an_unused_private_function():
    source = ("def _used():\n    pass\n\n"
              "def _unused():\n    pass\n\n"
              "def public():\n    return _used()\n")
    assert unused_private_functions(source) == ["_unused"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_functions(path):
    assert unused_private_functions(path.read_text(encoding="utf-8")) == []
