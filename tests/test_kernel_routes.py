"""The integer-row kernel of ``metlie.linalg`` against a Fraction reference.

``Matrix`` holds integer rows over one positive common denominator in
lowest terms and does its arithmetic on those integers; ``.data``, ``[i,
j]``, ``apply`` and ``solve`` are the ``Fraction`` boundary.  The reference
below is the earlier kernel, which held and computed every entry as a
``Fraction``: each operation on random rational matrices must give the same
entries, of type ``Fraction``, and every result must be in lowest terms.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from metlie.linalg import Matrix, Subspace

Q = Fraction
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)


# --- the reference: the Fraction kernel, on tuples of Fraction rows -------

def ref_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def ref_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def ref_scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def ref_transpose(a, rows, cols):
    return tuple(tuple(a[i][j] for i in range(rows)) for j in range(cols))


def ref_matmul(a, b, cols):
    return tuple(tuple(sum((r[k] * b[k][c] for k in range(len(r))), Q(0))
                       for c in range(cols)) for r in a)


def ref_apply(a, v):
    return tuple(sum((x * y for x, y in zip(r, v)), Q(0)) for r in a)


def ref_rref(a, rows, cols):
    m = [list(r) for r in a]
    pivots = []
    prow = 0
    for col in range(cols):
        if prow >= rows:
            break
        sel = next((r for r in range(prow, rows) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        inv = 1 / m[prow][col]
        m[prow] = [x * inv for x in m[prow]]
        for r in range(rows):
            if r != prow and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[prow])]
        pivots.append(col)
        prow += 1
    return tuple(tuple(r) for r in m), tuple(pivots)


def ref_nullspace(a, rows, cols):
    red, pivots = ref_rref(a, rows, cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Q(0)] * cols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def ref_solve(a, rows, cols, b):
    red, pivots = ref_rref(tuple(r + (y,) for r, y in zip(a, b)), rows,
                           cols + 1)
    if cols in pivots:
        return None
    x = [Q(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return tuple(x)


def ref_inverse(a, n):
    ident = tuple(tuple(Q(int(i == j)) for j in range(n)) for i in range(n))
    red, pivots = ref_rref(tuple(r + e for r, e in zip(a, ident)), n, 2 * n)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in red)


def ref_det(a, n):
    m = [list(r) for r in a]
    d = Q(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if m[r][col] != 0), None)
        if sel is None:
            return Q(0)
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            d = -d
        d *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return d


def ref_coordinates(basis, v):
    if len(basis) == len(v):
        return tuple(v)
    coeffs, residual = [], list(v)
    for row in basis:
        c = residual[next(j for j, x in enumerate(row) if x != 0)]
        coeffs.append(c)
        residual = [x - c * y for x, y in zip(residual, row)]
    return None if any(residual) else tuple(coeffs)


def ref_span(rows, ambient):
    red, pivots = ref_rref(tuple(rows), len(rows), ambient)
    return red[: len(pivots)]


def ref_intersect(u, v, ambient):
    if not u or not v:
        return ()
    stacked = tuple(x + tuple(-y for y in w) for x, w in
                    zip(ref_transpose(u, len(u), ambient),
                        ref_transpose(v, len(v), ambient)))
    combos = ref_nullspace(stacked, ambient, len(u) + len(v))
    coeffs = tuple(c[: len(u)] for c in combos)
    return ref_span(ref_matmul(coeffs, u, ambient), ambient)


def ref_image(u, mat):
    return ref_span([ref_apply(mat, r) for r in u], len(mat))


def ref_preimage(u, mats, ambient):
    if u:
        ann = ref_nullspace(u, len(u), ambient)
        mats = [ref_matmul(ann, a, ambient) for a in mats]
    rows = tuple(r for a in mats for r in a)
    kernel = ref_nullspace(rows, len(rows), ambient)
    return ref_span(kernel, ambient)


def ref_complement_in(u, larger, ambient):
    vectors = u + larger
    _, pivots = ref_rref(ref_transpose(vectors, len(vectors), ambient),
                         ambient, len(vectors))
    return ref_span([vectors[p] for p in pivots if p >= len(u)], ambient)


# --- inputs ----------------------------------------------------------------

entries = st.one_of(
    st.integers(-9, 9).map(Q),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


@st.composite
def rational_rows(draw, rows, cols):
    """rows x cols rational entries, dense, sparse, or dense with one or two
    zero rows and columns."""
    kind = draw(st.sampled_from(("dense", "sparse", "zero lines")))
    size = rows * cols
    flat = draw(st.lists(entries, min_size=size, max_size=size))
    if kind == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        flat = [x if k else Q(0) for x, k in zip(flat, keep)]
    zero_rows = zero_cols = ()
    if kind == "zero lines":
        zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
        zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    return tuple(tuple(Q(0) if i in zero_rows or j in zero_cols
                       else flat[i * cols + j] for j in range(cols))
                 for i in range(rows))


shapes = st.tuples(st.integers(0, 8), st.integers(0, 10))


def assert_lowest_terms(m: Matrix):
    assert m.den > 0
    assert gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert len(m.num) == m.rows
    assert all(len(r) == m.cols for r in m.num)


def assert_same(m: Matrix, data):
    """m has exactly the reference entries, each a Fraction."""
    assert_lowest_terms(m)
    assert m.data == tuple(tuple(r) for r in data)
    assert all(type(x) is Fraction for r in m.data for x in r)
    assert Matrix(m.data, m.rows, m.cols) == m
    assert hash(Matrix(m.data, m.rows, m.cols)) == hash(m)


def assert_vector(v, ref):
    assert v == ref
    assert all(type(x) is Fraction for x in v)


class TestMatrixKernel:
    @EXAMPLES
    @given(st.data())
    def test_elimination(self, data):
        r, c = data.draw(shapes)
        a = data.draw(rational_rows(r, c))
        A = Matrix(a, r, c)
        assert_same(A, a)
        red, pivots = A.rref()
        ref_red, ref_pivots = ref_rref(a, r, c)
        assert pivots == ref_pivots
        assert_same(red, ref_red)
        assert A.rank() == len(ref_pivots)
        assert_same(A.nullspace(), ref_nullspace(a, r, c))
        if data.draw(st.booleans()):
            b = A.apply(data.draw(rational_rows(1, c))[0])
        else:
            b = data.draw(rational_rows(1, r))[0]
        x = A.solve(b)
        ref_x = ref_solve(a, r, c, b)
        if ref_x is None:
            assert x is None
        else:
            assert_vector(x, ref_x)

    @EXAMPLES
    @given(st.data())
    def test_inconsistent_solve(self, data):
        c = data.draw(st.integers(0, 6))
        a = data.draw(rational_rows(2, c))
        # the second row repeats the first, the right-hand side does not
        A = Matrix((a[0], a[0]), 2, c)
        assert A.solve((Q(0), Q(1, 3))) is None
        assert ref_solve(A.data, 2, c, (Q(0), Q(1, 3))) is None

    @EXAMPLES
    @given(st.data())
    def test_square(self, data):
        n = data.draw(st.integers(0, 7))
        a = data.draw(rational_rows(n, n))
        A = Matrix(a, n, n)
        det = A.det()
        assert det == ref_det(a, n) and type(det) is Fraction
        try:
            ref_inv = ref_inverse(a, n)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                A.inverse()
        else:
            assert_same(A.inverse(), ref_inv)
        t = A.trace()
        assert t == sum((a[i][i] for i in range(n)), Q(0))
        assert type(t) is Fraction

    @EXAMPLES
    @given(st.data())
    def test_arithmetic(self, data):
        r, c = data.draw(shapes)
        k = data.draw(st.integers(0, 8))
        a = data.draw(rational_rows(r, c))
        a2 = data.draw(rational_rows(r, c))
        b = data.draw(rational_rows(c, k))
        d = data.draw(rational_rows(r, k))
        A, A2, B, D = (Matrix(a, r, c), Matrix(a2, r, c), Matrix(b, c, k),
                       Matrix(d, r, k))
        s = data.draw(entries)
        assert_same(A @ B, ref_matmul(a, b, k))
        assert_same(A + A2, ref_add(a, a2))
        assert_same(A - A2, ref_sub(a, a2))
        assert_same(A - A, ref_sub(a, a))
        assert_same(A.scale(s), ref_scale(s, a))
        assert_same(-A, ref_scale(Q(-1), a))
        assert_same(A.transpose(), ref_transpose(a, r, c))
        assert A.transpose().rows == c and A.transpose().cols == r
        assert_same(A.hstack(D), tuple(x + y for x, y in zip(a, d)))
        assert_same(A.vstack(A2), a + a2)
        assert A.is_zero() == all(x == 0 for row in a for x in row)
        v = data.draw(rational_rows(1, c))[0] if c else ()
        assert_vector(A.apply(v), ref_apply(a, v))
        for i in range(r):
            assert A.row(i) == a[i]
            for j in range(c):
                assert A[i, j] == a[i][j] and type(A[i, j]) is Fraction
        for j in range(c):
            assert A.column(j) == tuple(row[j] for row in a)


class TestSubspaceKernel:
    @EXAMPLES
    @given(st.data())
    def test_subspace_operations(self, data):
        n = data.draw(st.integers(0, 8))
        u = data.draw(rational_rows(data.draw(st.integers(0, 6)), n))
        v = data.draw(rational_rows(data.draw(st.integers(0, 6)), n))
        U, V = Subspace.span(n, u), Subspace.span(n, v)
        ru, rv = ref_span(u, n), ref_span(v, n)
        assert_same(U.basis, ru)
        assert_same(V.basis, rv)
        assert_same(U.intersect(V).basis, ref_intersect(ru, rv, n))
        total = U.add(V)
        assert_same(total.basis, ref_span(ru + rv, n))
        assert_same(U.complement_in(total).basis,
                    ref_complement_in(ru, total.basis.data, n))
        k = data.draw(st.integers(0, 8))
        mat = data.draw(rational_rows(k, n))
        assert_same(U.image(Matrix(mat, k, n)).basis, ref_image(ru, mat))
        mats = [data.draw(rational_rows(n, n))
                for _ in range(data.draw(st.integers(0, 3)))]
        assert_same(U.preimage([Matrix(m, n, n) for m in mats]).basis,
                    ref_preimage(ru, mats, n))
        assert_same(Subspace.row_space(Matrix(u, len(u), n)).basis, ru)
        inside = ref_apply(ref_transpose(u, len(u), n),
                           data.draw(rational_rows(1, len(u)))[0])
        outside = data.draw(rational_rows(1, n))[0] if n else ()
        for w in (inside, outside):
            assert U.coordinates(w) == ref_coordinates(ru, w)
        assert U.contains_subspace(V) == all(
            ref_coordinates(ru, r) is not None for r in rv)
        assert total.contains_subspace(U) and total.contains_subspace(V)
