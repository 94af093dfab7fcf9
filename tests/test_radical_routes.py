"""The module radical and minimal polynomial agree with their earlier routes.

``module_radical`` restricts to W once and runs the radical formula in the
sub-module's own basis; ``minimal_polynomial`` multiplies Krylov
annihilators instead of taking lcms.  The references below are the earlier
routes: the radical formula in ambient coordinates, with the quotient
W / rho(N)·W built as a whole representation, and the minimal polynomial as
the lcm of the annihilators of the unit vectors, each found by one RREF per
Krylov step and a solve.  Both results are canonical (a reduced-echelon
basis, a monic polynomial), so the routes must agree exactly.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from metlie import Matrix, Representation, Subspace, adjoint_representation
from metlie import polynomials as poly
from metlie.catalog import (BASE_NAMES, SweepBounds, base_algebra, catalog_row,
                            enumerate_rows)
from metlie.lie import direct_sum, nilpotency_radical
from metlie.linalg import unit_vector
from metlie.modules import (_central_lifts, dual_representation,
                            module_radical, module_socle,
                            quotient_representation, sub_representation,
                            submodule_generated)

Q = Fraction
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)
small_int = st.integers(-2, 2)


# --- the earlier minimal polynomial ---------------------------------------

def reference_annihilator(M, v):
    rows = [v]
    w = v
    while True:
        w = M.apply(w)
        stack = Matrix.from_rows(tuple(rows) + (w,), cols=M.cols)
        if len(stack.transpose().rref()[1]) < stack.rows:
            break
        rows.append(w)
    coeffs = Matrix.from_rows(tuple(rows), cols=M.cols).transpose().solve(w)
    assert coeffs is not None
    return poly.monic(tuple(-c for c in coeffs) + (Q(1),))


def reference_lcm(p, q):
    return poly.monic(poly.divmod_poly(poly.mul(p, q), poly.gcd(p, q))[0])


def reference_minimal_polynomial(M):
    n = M.rows
    result = (Q(1),)
    for i in range(n):
        result = reference_lcm(result,
                               reference_annihilator(M, unit_vector(n, i)))
        if poly.degree(result) == n:
            break
    return result


# --- the earlier module radical, in ambient coordinates -------------------

def reference_quotient_on(rep, W, R):
    if R.dim == W.dim:
        return None
    sub_rep, inclusion = sub_representation(rep, W)
    R_in_W = Subspace.span(W.dim, [W.coordinates(v) for v in R.basis.data])
    qrep, proj, lift = quotient_representation(sub_rep, R_in_W)
    return qrep, proj, inclusion @ lift


def reference_radical_once(rep, W, nilrad, lifts):
    m = rep.module_dim
    pieces = []
    for r in nilrad.basis.data:
        mat = rep.rho(r)
        pieces.extend(mat.apply(w) for w in W.basis.data)
    base = Subspace.span(m, pieces)
    qspace = reference_quotient_on(rep, W, base) if lifts else None
    if qspace is not None:
        for z in lifts:
            s = poly.squarefree_part(
                reference_minimal_polynomial(qspace[0].rho(z)))
            mat = poly.evaluate_matrix(s, rep.rho(z))
            pieces.extend(mat.apply(w) for w in W.basis.data)
    return Subspace.span(m, pieces)


def reference_radical(rep, W):
    assert rep.is_submodule(W)
    g = rep.algebra
    nilrad = nilpotency_radical(g)
    lifts = _central_lifts(g, nilrad)
    R = reference_radical_once(rep, W, nilrad, lifts)
    while True:
        qspace = reference_quotient_on(rep, W, R)
        if qspace is None:
            break
        again = reference_radical_once(qspace[0], qspace[0].full_space(),
                                       nilrad, lifts)
        if again.dim == 0:
            break
        lifted = [qspace[2].apply(v) for v in again.basis.data]
        R = R.add(Subspace.span(rep.module_dim, lifted))
    return R


# --- inputs ----------------------------------------------------------------

def example_modules():
    """Adjoint modules of base algebras, sums and catalog models, and the
    catalog rows' modules with their duals."""
    algebras = [base_algebra(name) for name in BASE_NAMES] + [
        direct_sum(base_algebra("n2"), base_algebra("R1")),
        direct_sum(base_algebra("h1"), base_algebra("sl2r"))]
    rows = enumerate_rows(SweepBounds(m=1, weight_num=1, weight_den=1))[::4]
    out = [adjoint_representation(g) for g in algebras]
    for base, variant, params in rows:
        row = catalog_row(base, variant, params)
        out.append(adjoint_representation(row.model.metric.algebra))
        if row.complex.rep.module_dim:
            out.append(row.complex.rep)
            out.append(dual_representation(row.complex.rep))
    return out


MODULES = example_modules()


def fresh(rep):
    """The same module with empty caches, so each route computes."""
    return Representation(rep.algebra, rep.action, validate=False,
                          module_dim=rep.module_dim)


@st.composite
def submodules(draw):
    """A module and the submodule generated by a few random vectors (the
    whole module when none are drawn)."""
    rep = draw(st.sampled_from(MODULES))
    m = rep.module_dim
    count = draw(st.integers(0, 2))
    if count == 0:
        return rep, rep.full_space()
    vectors = [tuple(Q(draw(small_int)) for _ in range(m))
               for _ in range(count)]
    return rep, submodule_generated(rep, vectors)


@st.composite
def square_matrices(draw):
    """Nilpotent, diagonalizable, Jordan and block-diagonal matrices up to
    7 x 7, conjugated by a unimodular matrix, or plain random ones."""
    kind = draw(st.sampled_from(("nilpotent", "diagonal", "jordan", "blocks",
                                 "random")))
    if kind == "random":
        n = draw(st.integers(1, 5))
        return Matrix([[Q(draw(small_int), draw(st.integers(1, 2)))
                        for _ in range(n)] for _ in range(n)], n, n)
    if kind == "blocks":
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)
                     .filter(lambda sizes: sum(sizes) <= 7))
    else:
        sizes = [draw(st.integers(1, 7))]
    n = sum(sizes)
    rows = [[Q(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        block_kind = kind if kind != "blocks" else draw(
            st.sampled_from(("nilpotent", "diagonal", "jordan")))
        value = Q(draw(small_int), draw(st.integers(1, 2)))
        for r in range(start, start + size):
            if block_kind == "nilpotent":
                for c in range(r + 1, start + size):
                    rows[r][c] = Q(draw(small_int))
            elif block_kind == "diagonal":
                rows[r][r] = Q(draw(st.sampled_from((-1, 0, 1, 2))))
            else:
                rows[r][r] = value
                if r + 1 < start + size:
                    rows[r][r + 1] = Q(1)
        start += size
    M = Matrix(rows, n, n)
    perm = draw(st.permutations(range(n)))
    upper = [[Q(1) if c == r else (Q(draw(small_int)) if c > r else Q(0))
              for c in range(n)] for r in range(n)]
    P = Matrix([upper[p] for p in perm], n, n)    # determinant ±1
    return P @ M @ P.inverse()


# --- properties ------------------------------------------------------------

class TestMinimalPolynomialRoute:
    @EXAMPLES
    @given(square_matrices())
    def test_matches_lcm_of_annihilators(self, M):
        mp = poly.minimal_polynomial(M)
        assert mp == reference_minimal_polynomial(M)
        assert poly.evaluate_matrix(mp, M).is_zero()

    def test_zero_by_zero(self):
        assert poly.minimal_polynomial(Matrix.zeros(0, 0)) == (Q(1),)


class TestRadicalRoute:
    @EXAMPLES
    @given(submodules())
    def test_matches_ambient_formula(self, data):
        rep, W = data
        assert module_radical(fresh(rep), W) == reference_radical(fresh(rep), W)

    def test_every_example_module_and_its_socle(self):
        for rep in MODULES:
            V = rep.full_space()
            assert module_radical(fresh(rep), V) == \
                reference_radical(fresh(rep), V)
            S = module_socle(fresh(rep))
            assert module_radical(fresh(rep), S) == \
                reference_radical(fresh(rep), S)


class TestQuotientByZero:
    def test_fresh_module_with_the_same_action(self):
        for rep in MODULES[:6]:
            qrep, proj, lift = quotient_representation(
                rep, Subspace.zero(rep.module_dim))
            assert qrep is not rep
            assert qrep.action == rep.action
            assert proj == lift == Matrix.identity(rep.module_dim)

    def test_caches_stay_off_the_original(self):
        rep = fresh(MODULES[0])
        qrep = quotient_representation(rep, Subspace.zero(rep.module_dim))[0]
        module_socle(qrep)
        module_radical(qrep)
        assert not rep._socle_cache and not rep._radical_cache
