"""The polynomial layer and ``linear_combination`` agree with their
``Fraction`` routes.

``polynomials`` keeps primitive integer coefficients inside and builds
Krylov chains on a matrix's integer rows; ``linear_combination`` sums
integer rows over one common denominator.  The references below are the
earlier routes, on ``Fraction`` coefficients and vectors:

- the minimal polynomial as the product of Krylov annihilators, each chain
  built one ``Matrix.apply`` at a time and read off one RREF of its
  columns, with m(M)·e_i taken by Horner's rule on vectors;
- gcd, division with remainder and the squarefree part p / gcd(p, p') by
  Euclid's algorithm over the rationals;
- a matrix polynomial as the sum of scaled powers;
- a linear combination as one ``scale`` per term and one ``+`` per extra
  term;
- the Killing form as traces of products of adjoint matrices, and bracket
  spaces spanned by ad(u) of U's ``Fraction`` basis vectors.

Every result is canonical (a normalized or monic coefficient tuple, a
matrix in lowest terms), so the routes must agree exactly, types included.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from metlie import polynomials as poly
from metlie.lie import LieAlgebra, bracket_subspace, killing_form
from metlie.linalg import (Matrix, Subspace, block_diagonal,
                           linear_combination, stack_rows)
from test_radical_routes import square_matrices

Q = Fraction
EXAMPLES = settings(max_examples=80, deadline=None, derandomize=True)


# --- the earlier Fraction routes --------------------------------------------

def ref_normalize(p):
    p = tuple(c if isinstance(c, Fraction) else Q(c) for c in p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def ref_monic(p):
    p = ref_normalize(p)
    return tuple(c / p[-1] for c in p) if p else p


def ref_mul(p, q):
    if not p or not q:
        return ()
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ref_normalize(out)


def ref_divmod_poly(p, q):
    p, q = ref_normalize(p), ref_normalize(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Q(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q) and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return ref_normalize(quot), ref_normalize(rem)


def ref_gcd(p, q):
    p, q = ref_normalize(p), ref_normalize(q)
    while q:
        p, q = q, ref_divmod_poly(p, q)[1]
    return ref_monic(p)


def ref_derivative(p):
    return ref_normalize(Q(i) * p[i] for i in range(1, len(p)))


def ref_squarefree_part(p):
    p = ref_monic(p)
    if len(p) <= 2:
        return p
    g = ref_gcd(p, ref_derivative(p))
    return ref_monic(ref_divmod_poly(p, g)[0])


def ref_evaluate_matrix(p, M):
    acc = Matrix.zeros(M.rows, M.cols)
    power = Matrix.identity(M.rows)
    for c in p:
        if c != 0:
            acc = acc + power.scale(c)
        power = power @ M
    return acc


def ref_annihilator(M, v, limit):
    krylov = [v]
    for _ in range(limit):
        krylov.append(M.apply(krylov[-1]))
    red, pivots = Matrix.from_columns(krylov, rows=M.rows).rref()
    d = next((c for c, col in enumerate(pivots) if col != c), len(pivots))
    assert d <= limit
    p = tuple(-red[r, d] for r in range(d)) + (Q(1),)
    assert not any(sum((c * x[row] for c, x in zip(p, krylov) if c), Q(0))
                   for row in range(M.rows))
    return p


def ref_evaluate_on(p, M, v):
    out = v
    for c in reversed(p[:-1]):
        out = M.apply(out)
        if c:
            out = tuple(a + c * b for a, b in zip(out, v))
    return out


def ref_minimal_polynomial(M):
    n = M.rows
    result = (Q(1),)
    for i in range(n):
        e_i = tuple(Q(int(j == i)) for j in range(n))
        w = ref_evaluate_on(result, M, e_i)
        if any(w):
            result = ref_mul(result,
                             ref_annihilator(M, w, n - (len(result) - 1)))
            if len(result) - 1 == n:
                break
    return result


def ref_linear_combination(terms, n):
    scaled = [a if c == 1 else a.scale(c) for c, a in terms if c != 0]
    if not scaled:
        return Matrix.zeros(n, n)
    acc = scaled[0]
    for t in scaled[1:]:
        acc = acc + t
    return acc


def ref_killing_gram(g):
    ads = [g.ad(i) for i in range(g.dim)]
    return Matrix([[(a @ b).trace() for b in ads] for a in ads], g.dim, g.dim)


def ref_bracket_subspace(g, U, V):
    return Subspace.row_space(stack_rows(
        [V.basis @ g.ad_vector(u).transpose() for u in U.basis.data], g.dim))


# --- inputs ------------------------------------------------------------------

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
coefficients = st.one_of(rationals, st.integers(-6, 6))


@st.composite
def polynomials(draw):
    """A product of small linear and quadratic factors with multiplicities
    up to 3 and a rational scalar, or a plain random coefficient list
    (trailing zeros and int coefficients included)."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(coefficients, max_size=7)))
    p = (draw(rationals.filter(bool)),)
    for _ in range(draw(st.integers(0, 3))):
        factor = tuple(draw(st.lists(rationals, min_size=2, max_size=3)))
        if not any(factor[1:]):
            continue
        for _ in range(draw(st.integers(1, 3))):
            p = ref_mul(p, factor)
    return p


@st.composite
def matrices(draw):
    """The radical-route matrices, and block sums of two of them up to
    8 x 8."""
    M = draw(square_matrices())
    if M.rows < 8 and draw(st.booleans()):
        N = draw(square_matrices().filter(lambda N: N.rows <= 8 - M.rows))
        M = block_diagonal((M, N))
    return M


@st.composite
def combinations(draw):
    n = draw(st.integers(0, 5))
    square = st.lists(st.lists(rationals, min_size=n, max_size=n),
                      min_size=n, max_size=n).map(
                          lambda rows: Matrix(rows, n, n))
    terms = draw(st.lists(st.tuples(
        st.one_of(st.just(Q(1)), st.just(Q(0)), st.just(1), rationals),
        square), max_size=4))
    return terms, n


@st.composite
def rational_algebras(draw):
    """Random rational structure constants (Jacobi not required), so that
    the adjoint matrices have different denominators, with two random
    subspaces."""
    n = draw(st.integers(2, 5))
    brackets = {(i, j): tuple(draw(rationals) for _ in range(n))
                for i in range(n) for j in range(i + 1, n)}
    g = LieAlgebra(n, brackets, validate=False)
    U, V = (Subspace.span(n, draw(st.lists(st.lists(rationals, min_size=n,
                                                    max_size=n), max_size=3)))
            for _ in range(2))
    return g, U, V


def fractions_only(p):
    return type(p) is tuple and all(type(c) is Fraction for c in p)


# --- properties --------------------------------------------------------------

class TestPolynomialRoutes:
    @EXAMPLES
    @given(matrices())
    def test_minimal_polynomial(self, M):
        mp = poly.minimal_polynomial(M)
        assert mp == ref_minimal_polynomial(M) and fractions_only(mp)

    @EXAMPLES
    @given(matrices())
    def test_radical_operator_of_a_matrix(self, M):
        # the step _radical_operators takes for each central lift
        s = poly.squarefree_part(poly.minimal_polynomial(M))
        ref = ref_squarefree_part(ref_minimal_polynomial(M))
        assert s == ref and fractions_only(s)
        assert poly.evaluate_matrix(s, M) == ref_evaluate_matrix(ref, M)

    @EXAMPLES
    @given(polynomials(), polynomials(), polynomials())
    def test_gcd_and_divmod(self, p, q, r):
        g = poly.gcd(p, q)
        assert g == ref_gcd(p, q) and fractions_only(g)
        # a common factor r
        pr, qr = ref_mul(p, r), ref_mul(q, r)
        assert poly.gcd(pr, qr) == ref_gcd(pr, qr)
        if ref_normalize(q):
            quot, rem = poly.divmod_poly(p, q)
            ref_quot, ref_rem = ref_divmod_poly(p, q)
            assert (quot, rem) == (ref_quot, ref_rem)
            assert fractions_only(quot) and fractions_only(rem)

    @EXAMPLES
    @given(polynomials())
    def test_squarefree_part(self, p):
        s = poly.squarefree_part(p)
        assert s == ref_squarefree_part(p) and fractions_only(s)

    @EXAMPLES
    @given(polynomials(), matrices())
    def test_evaluate_matrix(self, p, M):
        assert poly.evaluate_matrix(p, M) == ref_evaluate_matrix(p, M)

    @EXAMPLES
    @given(combinations())
    def test_linear_combination(self, data):
        terms, n = data
        assert linear_combination(terms, n) == \
            ref_linear_combination(terms, n)

    @EXAMPLES
    @given(rational_algebras())
    def test_killing_form_and_bracket_spaces(self, data):
        g, U, V = data
        assert killing_form(g).gram == ref_killing_gram(g)
        assert bracket_subspace(g, U, V) == ref_bracket_subspace(g, U, V)
