"""Lie algebras and standard models agree with their dense-table construction.

The references below are copies of the construction that filled a dense
dim x dim table of ``Fraction`` coordinate tuples, ``table[i][j] = [e_i,
e_j]``, and read ``ad``, ``bracket``, ``structure_entries`` and the centre
off it, and of the standard model's constructions that walked unit vectors:
the structure constants on l* + a + l, the form, Psi(tau, sigma) and the
isometry phi of the modified model.  The algebras and models metlie builds
must equal them on random structure constants, direct sums, quotients and
random cocycles and cochains over orthogonal modules in random bases.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from metlie import (CochainComplex, LieAlgebra, Matrix, QuadraticCochain,
                    QuadraticCocycle, Representation, Subspace, SymmetricForm,
                    build_model, build_modified, center, psi_map,
                    trivial_representation)
from metlie.catalog import base_algebra
from metlie.lie import derived_subalgebra, direct_sum, quotient_algebra
from metlie.linalg import (block_coordinates, lex_subsets, rational,
                           unit_vector, vec_add, vec_scale, zero_vector)

from conftest import random_cochain, random_cocycle, rotation_rep
from test_validation_routes import algebras, structure_constants

Q = Fraction
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


class ReferenceAlgebra:
    """The dense-table construction of a Lie algebra from sparse brackets."""

    def __init__(self, dim, brackets):
        self.dim = dim
        table = [[zero_vector(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), coords in brackets.items():
            v = tuple(rational(x) for x in coords)
            table[i][j] = v
            table[j][i] = vec_scale(Q(-1), v)
        self.table = tuple(tuple(row) for row in table)

    def bracket(self, x, y):
        out = zero_vector(self.dim)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0 or i == j:
                    continue
                out = vec_add(out, vec_scale(xi * yj, self.table[i][j]))
        return out

    def ad(self, i):
        return Matrix.from_columns(
            tuple(self.table[i][j] for j in range(self.dim)), rows=self.dim)

    def structure_entries(self):
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k, val in enumerate(self.table[i][j]):
                    if val != 0:
                        out.append((i, j, k, val))
        return tuple(out)

    def center(self):
        if self.dim == 0:
            return Subspace.zero(0)
        stacked = None
        for j in range(self.dim):
            block = Matrix.from_columns(
                tuple(self.table[i][j] for i in range(self.dim)), rows=self.dim)
            stacked = block if stacked is None else stacked.vstack(block)
        return Subspace(self.dim, stacked.nullspace().rref()[0])


def brackets_of(g):
    """The sparse brackets {(i, j): [e_i, e_j]} with i < j of an algebra."""
    out = {}
    for i, j, k, val in g.structure_entries():
        v = list(out.get((i, j), zero_vector(g.dim)))
        v[k] = val
        out[(i, j)] = tuple(v)
    return out


def reference_of(g):
    return ReferenceAlgebra(g.dim, brackets_of(g))


def reference_direct_sum(r1, r2):
    n1, n2 = r1.dim, r2.dim
    brackets = {}
    for i in range(n1):
        for j in range(i + 1, n1):
            v = r1.table[i][j]
            if any(c != 0 for c in v):
                brackets[(i, j)] = v + zero_vector(n2)
    for i in range(n2):
        for j in range(i + 1, n2):
            v = r2.table[i][j]
            if any(c != 0 for c in v):
                brackets[(i + n1, j + n1)] = zero_vector(n1) + v
    return ReferenceAlgebra(n1 + n2, brackets)


def reference_quotient(ref, ideal):
    comp = ideal.complement_in(Subspace.full(ref.dim))
    proj = block_coordinates((ideal.basis.data, comp.basis.data), 1, ref.dim)
    brackets = {}
    for a in range(comp.dim):
        for b in range(a + 1, comp.dim):
            w = proj.apply(ref.bracket(comp.basis.data[a], comp.basis.data[b]))
            if any(c != 0 for c in w):
                brackets[(a, b)] = w
    return ReferenceAlgebra(comp.dim, brackets)


def assert_same_algebra(g, ref, rng):
    assert g.dim == ref.dim
    assert g.table == ref.table
    for row in g.table:
        for v in row:
            assert type(v) is tuple and len(v) == g.dim
            assert all(type(x) is Fraction for x in v)
    for i in range(g.dim):
        assert g.ad(i) == ref.ad(i)
    assert g.structure_entries() == ref.structure_entries()
    assert center(g) == ref.center()
    for _ in range(3):
        x = tuple(Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(g.dim))
        y = tuple(Q(rng.randint(-2, 2)) for _ in range(g.dim))
        assert g.bracket(x, y) == ref.bracket(x, y)
    assert g == LieAlgebra(ref.dim, brackets_of(ref), validate=False)


def reference_model_table(cx, alpha, gamma):
    l = reference_of(cx.algebra)
    rep = cx.rep
    n, m = l.dim, rep.module_dim
    gram = rep.form.gram

    def embed(z_part, a_part, l_part):
        return tuple(z_part) + tuple(a_part) + tuple(l_part)

    zero_a, zero_l = zero_vector(m), zero_vector(n)
    brackets = {}
    for a in range(n):
        for i in range(n):
            z_part = [l.table[i][b][a] for b in range(n)]
            v = embed(z_part, zero_a, zero_l)
            if any(c != 0 for c in v):
                brackets[(a, n + m + i)] = v
    for s in range(m):
        for t in range(s + 1, m):
            As, At = unit_vector(m, s), unit_vector(m, t)
            z_part = [sum(x * y for x, y in
                          zip(gram.apply(rep.action[i].apply(As)), At))
                      for i in range(n)]
            v = embed(z_part, zero_a, zero_l)
            if any(c != 0 for c in v):
                brackets[(n + s, n + t)] = v
    for t in range(m):
        At = unit_vector(m, t)
        for i in range(n):
            a_part = vec_scale(Q(-1), rep.action[i].apply(At))
            z_part = [sum(x * y for x, y in
                          zip(gram.apply(alpha.eval_indices((i, j))), At))
                      for j in range(n)]
            v = embed(z_part, a_part, zero_l)
            if any(c != 0 for c in v):
                brackets[(n + t, n + m + i)] = v
    for i in range(n):
        for j in range(i + 1, n):
            z_part = [gamma.eval_indices((i, j, k))[0] for k in range(n)]
            v = embed(z_part, alpha.eval_indices((i, j)), l.table[i][j])
            if any(c != 0 for c in v):
                brackets[(n + m + i, n + m + j)] = v
    return ReferenceAlgebra(2 * n + m, brackets)


def reference_model_gram(cx, ip_l=None):
    n, m = cx.algebra.dim, cx.rep.module_dim
    N = 2 * n + m
    rows = [[Q(0)] * N for _ in range(N)]
    for a in range(n):
        rows[a][n + m + a] = Q(1)
        rows[n + m + a][a] = Q(1)
    for s in range(m):
        for t in range(m):
            rows[n + s][n + t] = cx.rep.form.gram[s, t]
    if ip_l is not None:
        for i in range(n):
            for j in range(n):
                rows[n + m + i][n + m + j] += ip_l.gram[i, j]
    return Matrix(rows, N, N)


def reference_psi_map(cx, c):
    rep = cx.rep
    n, m = cx.algebra.dim, rep.module_dim
    N = 2 * n + m
    tau, sigma = c.tau, c.sigma
    tau_mat = Matrix.from_columns(tuple(tau.value((i,)) for i in range(n)),
                                  rows=m)
    tau_star = (rep.form.gram @ tau_mat).transpose()
    sigma_bar = Matrix(tuple(tuple(sigma.eval_indices((j, i))[0]
                                   for j in range(n)) for i in range(n)), n, n)
    corner = sigma_bar - (tau_star @ tau_mat).scale(Q(1, 2))
    rows = [[Q(1) if r == cidx else Q(0) for cidx in range(N)]
            for r in range(N)]
    for r in range(n):
        for cidx in range(m):
            rows[r][n + cidx] = -tau_star[r, cidx]
        for cidx in range(n):
            rows[r][n + m + cidx] = corner[r, cidx]
    for r in range(m):
        for cidx in range(n):
            rows[n + r][n + m + cidx] = tau_mat[r, cidx]
    return Matrix(rows, N, N)


def reference_phi(cx, ip_l):
    n, m = cx.algebra.dim, cx.rep.module_dim
    N = 2 * n + m
    rows = [[Q(1) if r == c else Q(0) for c in range(N)] for r in range(N)]
    for a in range(n):
        for i in range(n):
            rows[a][n + m + i] += Q(1, 2) * ip_l.gram[i, a]
    return Matrix(rows, N, N)


def reference_gamma_shift(cx, ip_l):
    l = reference_of(cx.algebra)
    n = l.dim
    shift = {}
    for (i, j, k) in lex_subsets(n, 3):
        shift[(i, j, k)] = (Q(-1, 2) * ip_l.evaluate(l.table[i][j],
                                                     unit_vector(n, k)),)
    return cx.cochain(3, shift, scalar=True)


def unitriangular(rng, n):
    """A random invertible n x n matrix, unitriangular up to a permutation."""
    rows = [[Q(1) if c == r else (Q(rng.randint(-1, 1)) if c > r else Q(0))
             for c in range(n)] for r in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix([rows[p] for p in perm], n, n)


def orthogonal_pair(name, module, size, seed):
    """A base algebra with a trivial or rotation module whose form and
    action are moved to a random basis, so the form is not diagonal."""
    rng = random.Random(seed)
    l = base_algebra(name)
    if module == "rotation":
        rep = rotation_rep(l, [size], extra_trivial=1)
    else:
        signs = [rng.choice((-1, 1)) for _ in range(size)]
        rep = trivial_representation(l, size,
                                     SymmetricForm(Matrix.diagonal(signs)))
    m = rep.module_dim
    P = unitriangular(rng, m)
    inv = P.inverse()
    moved = Representation(l, tuple(inv @ a @ P for a in rep.action),
                           form=SymmetricForm(P.transpose() @ rep.form.gram
                                              @ P))
    return CochainComplex(l, moved), rng


pairs = st.builds(orthogonal_pair, st.sampled_from(("n2", "r3m1", "h1", "R2")),
                  st.sampled_from(("trivial", "rotation")), st.integers(1, 2),
                  st.integers(0, 2 ** 16))


def random_invariant_form(rng, l):
    """A random invariant symmetric form on l, perhaps degenerate."""
    ref = reference_of(l)
    n = l.dim
    slots = [(a, b) for a in range(n) for b in range(a, n)]
    rows = []
    for k in range(n):
        ad = ref.ad(k)
        for x in range(n):
            for y in range(x, n):
                # (G ad_k + ad_kᵀ G)[x][y] in the unknowns G[a][b] = G[b][a]
                row = [Q(0)] * len(slots)
                for s, (a, b) in enumerate(slots):
                    for (p, q) in {(a, b), (b, a)}:
                        if p == x:
                            row[s] += ad[q, y]
                        if p == y:
                            row[s] += ad[q, x]
                rows.append(row)
    kernel = Matrix(rows, len(rows), len(slots)).nullspace()
    coeffs = [Q(0)] * len(slots)
    for v in kernel.data:
        c = rng.randint(-2, 2)
        coeffs = [x + c * y for x, y in zip(coeffs, v)]
    gram = [[Q(0)] * n for _ in range(n)]
    for (a, b), c in zip(slots, coeffs):
        gram[a][b] = gram[b][a] = c
    return SymmetricForm(Matrix(gram, n, n))


class TestAlgebraRoutes:
    @EXAMPLES
    @given(structure_constants(), st.integers(0, 2 ** 16))
    def test_structure_constants(self, g, seed):
        ref = reference_of(g)
        assert_same_algebra(g, ref, random.Random(seed))
        assert_same_algebra(LieAlgebra(g.dim, brackets_of(g), validate=False),
                            ref, random.Random(seed))

    @EXAMPLES
    @given(algebras(), algebras(), st.integers(0, 2 ** 16))
    def test_direct_sums_and_quotients(self, g1, g2, seed):
        rng = random.Random(seed)
        g = direct_sum(g1, g2)
        assert_same_algebra(g, reference_direct_sum(reference_of(g1),
                                                    reference_of(g2)), rng)
        ref = reference_of(g)
        for ideal in (derived_subalgebra(g), center(g)):
            q, _, _ = quotient_algebra(g, ideal)
            assert_same_algebra(q, reference_quotient(ref, ideal), rng)

    def test_labels_of_a_sum(self):
        g = direct_sum(base_algebra("h1"), base_algebra("n2"))
        assert g.labels == base_algebra("h1").labels + base_algebra("n2").labels
        assert direct_sum(base_algebra("h1"), LieAlgebra(1, {})).labels is None


class TestModelRoutes:
    @EXAMPLES
    @given(pairs)
    def test_models_of_cocycles(self, pair):
        cx, rng = pair
        z = random_cocycle(rng, cx)
        model = build_model(z)
        ref = reference_model_table(cx, z.alpha, z.gamma)
        assert_same_algebra(model.metric.algebra, ref, rng)
        assert model.metric.form.gram == reference_model_gram(cx)

    @EXAMPLES
    @given(pairs)
    def test_forced_models_of_cochains(self, pair):
        cx, rng = pair
        alpha = random_cochain(rng, cx, 2)
        gamma = random_cochain(rng, cx, 3, scalar=True)
        model = build_model(QuadraticCocycle(cx, alpha, gamma, validate=False),
                            force=True)
        ref = reference_model_table(cx, alpha, gamma)
        assert_same_algebra(model.metric.algebra, ref, rng)
        assert model.metric.form.gram == reference_model_gram(cx)

    @EXAMPLES
    @given(pairs)
    def test_psi_maps(self, pair):
        cx, rng = pair
        c = QuadraticCochain(random_cochain(rng, cx, 1),
                             random_cochain(rng, cx, 2, scalar=True))
        assert psi_map(cx, c) == reference_psi_map(cx, c)

    @EXAMPLES
    @given(pairs)
    def test_modified_models(self, pair):
        cx, rng = pair
        z = random_cocycle(rng, cx)
        ip_l = random_invariant_form(rng, cx.algebra)
        modified, phi, target = build_modified(z, ip_l)
        assert phi == reference_phi(cx, ip_l)
        assert modified.metric.form.gram == reference_model_gram(cx, ip_l)
        assert_same_algebra(modified.metric.algebra,
                            reference_model_table(cx, z.alpha, z.gamma), rng)
        shifted = z.gamma + reference_gamma_shift(cx, ip_l)
        assert target.gamma == shifted
        assert_same_algebra(target.metric.algebra,
                            reference_model_table(cx, z.alpha, shifted), rng)

    def test_invariant_forms_are_drawn_nonzero(self):
        rng = random.Random(7)
        for name in ("n2", "r3m1", "h1", "R2"):
            l = base_algebra(name)
            forms = [random_invariant_form(rng, l) for _ in range(5)]
            assert any(not f.gram.is_zero() for f in forms), name
