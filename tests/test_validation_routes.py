"""The cheap validation routes agree with the basis-triple walks.

Jacobi and invariance are checked as matrix identities (ad is a
homomorphism; every ad(e_k) is skew-adjoint for the form), and the basis
triples are walked only to name a witness.  The references below are the
triple walks themselves, kept here so that the first witness of a failing
input can be compared as well as the verdict.  Ideals, bracket spaces and
the Killing form are matrix computations too (ann(U)·ad(e_i)·Uᵀ = 0, the
rows of V·ad(u)ᵀ, traces of i ≤ j only); their references are the bracket
walks they replaced.  Linalg builds its own results without re-validating
them; those must equal what the validating constructor makes of the same
rows.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from metlie import (LieAlgebra, Matrix, SymmetricForm, adjoint_representation,
                    killing_form, structure_report)
from metlie.catalog import BASE_NAMES, base_algebra, catalog_row
from metlie.lie import (bracket_subspace, derived_subalgebra, direct_sum,
                        is_ideal)
from metlie.modules import submodule_generated
from metlie.linalg import (Subspace, block_coordinates, block_diagonal,
                           unit_vector, vec_add)
from metlie.metric import invariance_witness

Q = Fraction
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)
small_int = st.integers(-2, 2)
small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def reference_jacobi_walk(g):
    """First basis triple i < j < k with a nonzero cyclic sum."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                s = vec_add(
                    vec_add(g.bracket(unit_vector(g.dim, i), g.table[j][k]),
                            g.bracket(unit_vector(g.dim, j), g.table[k][i])),
                    g.bracket(unit_vector(g.dim, k), g.table[i][j]))
                if any(c != 0 for c in s):
                    return (i, j, k, s)
    return None


def reference_invariance_walk(g, form):
    """First (i, k, j) with <[e_i,e_k],e_j> != <e_i,[e_k,e_j]>."""
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                lhs = form.evaluate(g.table[i][k], unit_vector(g.dim, j))
                rhs = form.evaluate(unit_vector(g.dim, i), g.table[k][j])
                if lhs != rhs:
                    return i, k, j, lhs, rhs
    return None


def metric_examples():
    """Metric Lie algebras (algebra, invariant form) of dimensions 3 to 6."""
    out = [(base_algebra(name), killing_form(base_algebra(name)))
           for name in ("sl2r", "su2")]
    for base, variant in (("n2", "Ia"), ("r3m1", "I"), ("h1", "I")):
        metric = catalog_row(base, variant, {"lam": ()}).model.metric
        out.append((metric.algebra, metric.form))
    return out


ALGEBRAS = [base_algebra(name) for name in BASE_NAMES] + [
    direct_sum(base_algebra("n2"), base_algebra("R1")),
    direct_sum(base_algebra("h1"), base_algebra("sl2r"))]
METRICS = metric_examples()


@st.composite
def basis_changes(draw, n):
    """An invertible rational n x n matrix: a permuted unitriangular one."""
    perm = draw(st.permutations(range(n)))
    rows = [[Q(1) if c == r else (Q(draw(small_int)) if c > r else Q(0))
             for c in range(n)] for r in range(n)]
    return Matrix([rows[p] for p in perm], n, n)


def rebased(g, P):
    """g in the basis of P's columns."""
    inv = P.inverse()
    cols = [P.column(i) for i in range(g.dim)]
    brackets = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            brackets[(i, j)] = inv.apply(g.bracket(cols[i], cols[j]))
    return LieAlgebra(g.dim, brackets, validate=False)


# dimensions 3 to 6, in a basis where most structure constants are nonzero
JACOBI_EXAMPLES = [
    rebased(g, Matrix([[Q(1) if c >= r else Q(0) for c in range(g.dim)]
                       for r in range(g.dim)], g.dim, g.dim))
    for g in [base_algebra("r3m1"), base_algebra("sl2r"),
              direct_sum(base_algebra("n2"), base_algebra("R1")),
              direct_sum(base_algebra("h1"), base_algebra("R2"))]
    + [g for g, _ in METRICS if g.dim == 6]]


@st.composite
def structure_constants(draw):
    """A valid algebra in a random basis, perhaps with one constant moved,
    or entirely random constants."""
    kind = draw(st.sampled_from(("valid", "perturbed", "random")))
    if kind == "random":
        n = draw(st.integers(3, 5))
        brackets = {(i, j): tuple(Q(draw(small_int)) for _ in range(n))
                    for i in range(n) for j in range(i + 1, n)}
        return LieAlgebra(n, brackets, validate=False)
    g = draw(st.sampled_from(ALGEBRAS))
    g = rebased(g, draw(basis_changes(g.dim)))
    if kind == "perturbed" and g.dim >= 2:    # R1 has no bracket to move
        i = draw(st.integers(0, g.dim - 2))
        j = draw(st.integers(i + 1, g.dim - 1))
        k = draw(st.integers(0, g.dim - 1))
        brackets = {(a, b): g.table[a][b]
                    for a in range(g.dim) for b in range(a + 1, g.dim)}
        v = list(brackets[(i, j)])
        v[k] += draw(st.sampled_from((Q(-1), Q(1), Q(1, 2))))
        brackets[(i, j)] = tuple(v)
        g = LieAlgebra(g.dim, brackets, validate=False)
    return g


@st.composite
def metric_data(draw):
    """An invariant form in a random basis, perhaps perturbed symmetrically."""
    g, form = draw(st.sampled_from(METRICS))
    P = draw(basis_changes(g.dim))
    g = rebased(g, P)
    gram = P.transpose() @ form.gram @ P
    if draw(st.booleans()):
        a = draw(st.integers(0, g.dim - 1))
        b = draw(st.integers(0, g.dim - 1))
        delta = draw(st.sampled_from((Q(-1), Q(1), Q(1, 3))))
        rows = [list(r) for r in gram.data]
        rows[a][b] += delta
        if a != b:
            rows[b][a] += delta
        gram = Matrix(rows, g.dim, g.dim)
    return g, SymmetricForm(gram)


class TestJacobiRoutes:
    def test_examples_include_both_verdicts(self):
        assert all(g.jacobi_witness() is None for g in ALGEBRAS)
        bad = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0),
                             (1, 2): (0, 1, 0)}, validate=False)
        assert not bad._ad_is_homomorphism()
        assert bad.jacobi_witness() == reference_jacobi_walk(bad)

    @EXAMPLES
    @given(structure_constants())
    def test_matrix_route_agrees_with_triple_walk(self, g):
        walk = reference_jacobi_walk(g)
        assert g._ad_is_homomorphism() == (walk is None)
        assert g.jacobi_witness() == walk

    def test_every_single_constant_perturbation(self):
        # the pair identities are checked within two halves of the basis
        verdicts = set()
        for g in JACOBI_EXAMPLES:
            brackets = {(a, b): g.table[a][b]
                        for a in range(g.dim) for b in range(a + 1, g.dim)}
            for (i, j), v in brackets.items():
                for k in range(g.dim):
                    moved = v[:k] + (v[k] + 1,) + v[k + 1:]
                    h = LieAlgebra(g.dim, {**brackets, (i, j): moved},
                                   validate=False)
                    walk = reference_jacobi_walk(h)
                    assert h.jacobi_witness() == walk
                    verdicts.add(walk is None)
        assert verdicts == {True, False}


class TestInvarianceRoutes:
    def test_examples_are_invariant(self):
        for g, form in METRICS:
            assert invariance_witness(g, form) is None

    @EXAMPLES
    @given(metric_data())
    def test_matrix_route_agrees_with_triple_walk(self, data):
        g, form = data
        walk = reference_invariance_walk(g, form)
        skew = all(form.is_skew_adjoint(g.ad(k)) for k in range(g.dim))
        assert skew == (walk is None)
        assert invariance_witness(g, form) == walk


def reference_bracket_subspace(g, U, V):
    return Subspace.span(g.dim, [g.bracket(u, v) for u in U.basis.data
                                 for v in V.basis.data])


def reference_is_ideal(g, U):
    return all(U.contains(g.bracket(unit_vector(g.dim, i), u))
               for i in range(g.dim) for u in U.basis.data)


def reference_series(g, step):
    """V_0 = g, V_{k+1} = step(V_k) until it stops shrinking."""
    chain = [Subspace.full(g.dim)]
    while chain[-1].dim > 0:
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return tuple(chain)


def reference_killing_gram(g):
    ads = [g.ad(i) for i in range(g.dim)]
    return Matrix([[(a @ b).trace() for b in ads] for a in ads], g.dim, g.dim)


@st.composite
def subspaces(draw, g):
    """The span of up to three small vectors, or the ideal they generate."""
    vectors = [tuple(Q(draw(small_int)) for _ in range(g.dim))
               for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        return submodule_generated(adjoint_representation(g), vectors)
    return Subspace.span(g.dim, vectors)


@st.composite
def algebras(draw):
    """A valid algebra in a random basis, or random structure constants."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        brackets = {(i, j): tuple(Q(draw(small_int)) for _ in range(n))
                    for i in range(n) for j in range(i + 1, n)}
        return LieAlgebra(n, brackets, validate=False)
    g = draw(st.sampled_from(ALGEBRAS))
    return rebased(g, draw(basis_changes(g.dim)))


@st.composite
def algebra_subspaces(draw):
    g = draw(algebras())
    return g, draw(subspaces(g)), draw(subspaces(g))


class TestLieRoutes:
    def test_examples_include_both_verdicts(self):
        n2 = base_algebra("n2")
        line = Subspace.span(3, [unit_vector(3, 1)])    # [X, Y] = Z
        assert not is_ideal(n2, line) and not reference_is_ideal(n2, line)
        for g in ALGEBRAS:
            assert is_ideal(g, derived_subalgebra(g))

    @EXAMPLES
    @given(algebra_subspaces())
    def test_ideals_and_bracket_spaces(self, data):
        g, U, V = data
        assert is_ideal(g, U) == reference_is_ideal(g, U)
        assert is_ideal(g, V) == reference_is_ideal(g, V)
        assert bracket_subspace(g, U, V) == reference_bracket_subspace(g, U, V)

    @EXAMPLES
    @given(algebras())
    def test_series_and_killing_form(self, g):
        full = Subspace.full(g.dim)
        report = structure_report(g)
        assert report.derived == reference_bracket_subspace(g, full, full)
        assert report.lower_central.entries == reference_series(
            g, lambda V: reference_bracket_subspace(g, full, V))
        assert report.derived_series.entries == reference_series(
            g, lambda V: reference_bracket_subspace(g, V, V))
        assert killing_form(g).gram == reference_killing_gram(g)


def assert_canonical(m: Matrix):
    """Tuple rows of Fractions, equal to the validating constructor's."""
    assert type(m.data) is tuple and len(m.data) == m.rows
    for row in m.data:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(x) is Fraction for x in row)
    assert m == Matrix(m.data, m.rows, m.cols)


def matrices(rows, cols):
    return st.lists(st.lists(small_q, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
                        lambda d: Matrix(d, rows, cols))


class TestTrustedResults:
    @EXAMPLES
    @given(st.data())
    def test_kernel_results_match_validated_construction(self, data):
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        A = data.draw(matrices(r, k))
        B = data.draw(matrices(k, c))
        A2 = data.draw(matrices(r, k))
        red, pivots = A.rref()
        for result in (red, A @ B, A.transpose(), A + A2, A - A2,
                       A.scale(Q(-3, 2)), A.nullspace(), A.hstack(A2),
                       A.vstack(A2), Matrix.zeros(r, k), Matrix.identity(k),
                       Subspace.span(k, A.data).basis,
                       block_diagonal((A, B))):
            assert_canonical(result)
        assert red.rref() == (red, pivots)

    @EXAMPLES
    @given(st.data())
    def test_inverse_matches_validated_construction(self, data):
        n = data.draw(st.integers(1, 4))
        P = data.draw(basis_changes(n))
        D = Matrix.diagonal([data.draw(st.sampled_from((1, -2, Q(1, 3))))
                             for _ in range(n)])
        A = P @ D
        inv = A.inverse()
        assert_canonical(inv)
        assert A @ inv == Matrix.identity(n)
        split = data.draw(st.integers(0, n))
        blocks = (A.data[:split], A.data[split:])
        for k in (0, 1):
            assert_canonical(block_coordinates(blocks, k, n))
