"""``polynomials`` works on integer rows, not on ``Fraction`` vectors.

Minimal polynomials are read off Krylov chains built on a matrix's integer
rows, and matrix polynomials are evaluated on them; only the public
functions convert to ``Fraction`` coefficients.  A call of
``Matrix.apply``, a ``from_columns``/``from_rows`` construction or an
import of the ``Fraction`` vector helpers would put the chain back on
``Fraction`` vectors, one conversion per vector.
"""

import ast

from test_dead_code import SOURCES

CONSTRUCTORS = {"from_columns", "from_rows"}
VECTOR_HELPERS = {"vec_add", "vec_scale", "unit_vector"}


def fraction_vector_uses(source: str):
    """(line, what) for each forbidden call, constructor or import."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "apply"):
            out.append((node.lineno, "apply"))
        elif isinstance(node, ast.Attribute) and node.attr in CONSTRUCTORS:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name in VECTOR_HELPERS]
    return sorted(out)


def test_guard_flags_each_kind():
    source = ("from .linalg import Matrix, unit_vector, vec_add\n"
              "def f(M, v):\n"
              "    w = M.apply(v)\n"
              "    return Matrix.from_columns([v, w], rows=2), \\\n"
              "        Matrix.from_rows([v])\n")
    assert fraction_vector_uses(source) == [
        (1, "unit_vector"), (1, "vec_add"), (3, "apply"),
        (4, "from_columns"), (5, "from_rows")]


def test_guard_passes_integer_rows():
    source = ("from .linalg import Matrix, vec_sub\n"
              "def f(M, v):\n"
              "    apply = sum(x * y for x, y in zip(M.num[0], v))\n"
              "    return Matrix._int(((apply,),), M.den, 1, 1)\n")
    assert fraction_vector_uses(source) == []


def test_polynomials_stays_on_integer_rows():
    path = next(p for p in SOURCES if p.name == "polynomials.py")
    assert fraction_vector_uses(path.read_text(encoding="utf-8")) == []
