"""Radicals, socles and minimal polynomials agree with their earlier routes.

``module_radical``, ``module_socle`` and ``filtration`` read every radical
and socle off one set of radical operators T of the module (images T·W and
preimages {v : T v ⊆ S}); ``minimal_polynomial`` multiplies Krylov
annihilators instead of taking lcms.  The references below are the earlier
routes:

- the radical formula in ambient coordinates, with the quotient
  W / rho(N)·W built as a whole representation;
- the radical formula on the restriction to W, in W's own basis, with a
  verification pass over W/R, the socle as the annihilator of the dual
  module's radical, and the socle chain through quotient modules;
- the minimal polynomial as the lcm of the annihilators of the unit
  vectors, each found by one RREF per Krylov step and a solve;
- the levels of ``admissibility`` through d_k = h_k/h_k^perp built as a
  module (restriction to h_k, then quotient by h_k^perp) and the socles of
  d_k and M_k taken with d_k's own radical operators, where
  ``admissibility`` reads them as preimages under the model's T.

All results are canonical (a reduced-echelon basis, a monic polynomial), so
the routes must agree exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_cocycle, rotation_rep
from metlie import (Cochain, CochainComplex, Matrix, QuadraticCocycle,
                    Representation, Subspace, SymmetricForm,
                    adjoint_representation)
from metlie import documents as doc
from metlie import modules
from metlie import polynomials as poly
from metlie import quadext
from metlie.catalog import (BASE_NAMES, SweepBounds, base_algebra, catalog_row,
                            enumerate_rows)
from metlie.cli import main
from metlie.lie import InternalCheckError, direct_sum, nilpotency_radical
from metlie.linalg import block_coordinates, orthogonal_complement, unit_vector
from metlie.modules import (_central_lifts, dual_representation, filtration,
                            module_radical, module_socle,
                            quotient_representation, sub_representation,
                            submodule_generated, trivial_representation)

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


# --- the restriction route: radical, dual socle, socle chain by quotients --

def restricted_radical_once(rep, nilrad, lifts):
    """rho(N)·V + sum_i s_i(rho(z_i))·V with s_i taken on V / rho(N)·V."""
    m = rep.module_dim
    pieces = []
    for r in nilrad.basis.data:
        pieces.extend(rep.rho(r).transpose().data)
    base = Subspace.span(m, pieces)
    if lifts and base.dim < m:
        if base.dim:
            comp = base.complement_in(Subspace.full(m))
            lift = Matrix.from_columns(comp.basis.data, rows=m)
            proj = block_coordinates((base.basis.data, comp.basis.data), 1, m)
        for z in lifts:
            rz = rep.rho(z)
            induced = proj @ rz @ lift if base.dim else rz
            s = poly.squarefree_part(poly.minimal_polynomial(induced))
            pieces.extend(poly.evaluate_matrix(s, rz).transpose().data)
    return Subspace.span(m, pieces)


def restricted_radical(rep, W=None):
    """The formula on the restriction to W, then a verification pass that
    re-applies it to W/R until it gives zero."""
    W = rep.full_space() if W is None else W
    sub, _ = sub_representation(rep, W)
    g = rep.algebra
    nilrad = nilpotency_radical(g)
    lifts = _central_lifts(g, nilrad)
    R = restricted_radical_once(sub, nilrad, lifts)
    while R.dim < sub.module_dim:
        qrep, _, lift = quotient_representation(sub, R)
        again = restricted_radical_once(qrep, nilrad, lifts)
        if again.dim == 0:
            break
        R = R.add(Subspace.span(sub.module_dim,
                                [lift.apply(v) for v in again.basis.data]))
    if W.dim == rep.module_dim:
        return R
    return Subspace.span(rep.module_dim, (R.basis @ W.basis).data)


def dual_socle(rep, W=None):
    """S(W) = R(W*)^perp, pulled back through W's inclusion."""
    W = rep.full_space() if W is None else W
    sub, inclusion = sub_representation(rep, W)
    ann = restricted_radical(dual_representation(sub)).annihilator()
    return Subspace.span(rep.module_dim,
                         [inclusion.apply(v) for v in ann.basis.data])


def quotient_filtration(rep):
    """S_{k+1} = S_k + the lift of S(V/S_k); R_{k+1} = R(R_k)."""
    m = rep.module_dim
    socles = [Subspace.zero(m)]
    while socles[-1].dim < m:
        qrep, _, lift = quotient_representation(rep, socles[-1])
        lifted = [lift.apply(v) for v in dual_socle(qrep).basis.data]
        socles.append(socles[-1].add(Subspace.span(m, lifted)))
        assert socles[-1] != socles[-2]
    radicals = [rep.full_space()]
    while radicals[-1].dim:
        radicals.append(restricted_radical(rep, radicals[-1]))
        assert radicals[-1] != radicals[-2]
    return tuple(socles), tuple(radicals)


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


# --- the earlier level route of admissibility ------------------------------

def reference_level(z, model, r_k):
    """d_k = h_k/h_k^perp built as a module, M_k inside it, and (A_k),
    (B_k), P from the socles of that module: T is built on d_k itself."""
    cx = z.complex
    n, m = cx.algebra.dim, cx.rep.module_dim
    d = model.metric
    N = d.dim
    h_rows = [unit_vector(N, a) for a in range(n + m)]
    h_rows += [(Q(0),) * (n + m) + tuple(v) for v in r_k.basis.data]
    h_k = Subspace.span(N, h_rows)
    h_perp = orthogonal_complement(h_k, d.form)
    sub_rep, inclusion = sub_representation(d.adjoint_module(), h_k)
    perp_in_h = Subspace.span(h_k.dim,
                              [h_k.coordinates(v) for v in h_perp.basis.data])
    q_rep, proj, lift = quotient_representation(sub_rep, perp_in_h)
    M_k = Subspace.span(q_rep.module_dim,
                        [proj.apply(h_k.coordinates(unit_vector(N, a)))
                         for a in range(n + m)])
    a_holds = M_k.contains_subspace(module_socle(q_rep))
    P = Subspace.span(m, [inclusion.apply(lift.apply(v))[n:n + m]
                          for v in module_socle(q_rep, M_k).basis.data])
    b_holds = cx.rep.form.restrict(P).is_nondegenerate()
    return q_rep, M_k, (a_holds, b_holds, P)


def reference_levels(z, model):
    """One reference_level per nonzero radical of l's adjoint module."""
    base = filtration(adjoint_representation(z.complex.algebra))
    return [reference_level(z, model, r) for r in base.radicals if r.dim]


def level_conditions(report):
    return [(lv.a_holds, lv.b_holds, lv.b_subspace) for lv in report.per_k]


def level_subquotients():
    """Each level's d_k and M_k from the earlier route, with the conditions
    that route and ``admissibility`` give, on a spread of catalog rows."""
    out = []
    rows = enumerate_rows(SweepBounds(m=1, weight_num=1, weight_den=1))[1::5]
    for base, variant, params in rows:
        row = catalog_row(base, variant, params)
        report = quadext.admissibility(row.cocycle, model=row.standard)
        out.append((reference_levels(row.cocycle, row.standard),
                    level_conditions(report)))
    return out


LEVELS = level_subquotients()


def same_filtration(rep):
    socles, radicals = quotient_filtration(fresh(rep))
    filt = filtration(fresh(rep))
    return filt.socles.entries == socles and filt.radicals.entries == radicals


class TestOperatorRoute:
    def test_example_modules(self):
        for rep in MODULES:
            assert module_radical(fresh(rep)) == restricted_radical(fresh(rep))
            assert module_socle(fresh(rep)) == dual_socle(fresh(rep))
            assert same_filtration(rep)

    @EXAMPLES
    @given(submodules())
    def test_random_submodules(self, data):
        rep, W = data
        assert module_radical(fresh(rep), W) == \
            restricted_radical(fresh(rep), W)
        assert module_socle(fresh(rep), W) == dual_socle(fresh(rep), W)

    def test_level_subquotients(self):
        assert LEVELS and all(refs for refs, _ in LEVELS)
        for refs, conditions in LEVELS:
            assert [ref for _, _, ref in refs] == conditions
            for rep, M_k, _ in refs:
                for W in (None, M_k):
                    assert module_socle(fresh(rep), W) == \
                        dual_socle(fresh(rep), W)
                assert module_radical(fresh(rep)) == \
                    restricted_radical(fresh(rep))
                assert same_filtration(rep)

    def test_non_submodules_keep_their_errors(self, n2):
        rep = adjoint_representation(n2)
        line = Subspace.span(3, [unit_vector(3, 1)])    # [X, Y] = Z
        with pytest.raises(ValueError, match="radical of a non-submodule"):
            module_radical(fresh(rep), line)
        with pytest.raises(ValueError, match="not a submodule"):
            module_socle(fresh(rep), line)


def level_cocycle(name, module, weight, kind, seed):
    """A class on a base algebra with a trivial or rotation module: random
    (``conftest.random_cocycle``), gamma-only (alpha = 0, gamma a random
    closed 3-form) or zero.  Random classes are rarely inadmissible; the
    other two often are."""
    l = base_algebra(name)
    if module == "rotation":
        rep = rotation_rep(l, [weight], extra_trivial=1)
    else:
        rep = trivial_representation(l, weight,
                                     SymmetricForm.euclidean(weight))
    cx = CochainComplex(l, rep)
    rng = random.Random(seed)
    if kind == "random":
        return random_cocycle(rng, cx)
    gamma = cx.zero_cochain(3, scalar=True)
    if kind == "gamma-only":
        for row in cx.scalar_complex().d_matrix(3).nullspace().data:
            c = Q(rng.randint(-3, 3))
            gamma = gamma + Cochain(cx.n, 3, 1, [c * x for x in row])
    return QuadraticCocycle(cx, cx.zero_cochain(2), gamma)


level_cocycles = st.builds(
    level_cocycle, st.sampled_from(("n2", "r3m1", "h1", "R2")),
    st.sampled_from(("trivial", "rotation")), st.integers(1, 2),
    st.sampled_from(("random", "gamma-only", "zero")),
    st.integers(0, 2 ** 16))


def same_levels(z):
    """Both routes on one class; returns the verdict."""
    model = quadext.build_model(z)
    report = quadext.admissibility(z, model=model)
    assert [ref for _, _, ref in reference_levels(z, model)] == \
        level_conditions(report)
    return report.admissible


class TestLevelRoute:
    """Every level's (A_k), (B_k) and P from the radical operators of the
    model's adjoint module equal those from T built on each d_k."""

    @EXAMPLES
    @given(level_cocycles)
    def test_random_classes(self, z):
        same_levels(z)

    def test_both_verdicts(self):
        verdicts = {same_levels(level_cocycle(name, module, 1, kind, 0))
                    for name, module, kind in (
                        ("n2", "rotation", "random"),
                        ("n2", "rotation", "zero"),
                        ("h1", "trivial", "gamma-only"))}
        assert verdicts == {True, False}


def n2_type_ii_cocycle():
    n2 = base_algebra("n2")
    cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
    alpha = cx.cochain(2, {(1, 2): [0, 0, 1]})
    return QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))


class TestOperatorChecks:
    """A stray operator added to T of the adjoint module of the
    9-dimensional model (basis l*, a, l) must trip a submodule check.
    Sending e_8 to e_3 leaves the socle chain as it was, but the second
    radical becomes l* + span(e_3, e_5), which is not an ideal.  Sending e_1
    to e_4 drops e_1 from the second socle, which is then not an ideal."""

    @staticmethod
    def add_stray_operator(monkeypatch, target, source):
        real = modules._radical_operators

        def patched(rep):
            ops = real(rep)
            if rep.module_dim != 9:
                return ops
            rows = [[0] * 9 for _ in range(9)]
            rows[target][source] = 1
            return ops + (Matrix(rows, 9, 9),)
        monkeypatch.setattr(modules, "_radical_operators", patched)

    @pytest.mark.parametrize("target, source, what", [
        (3, 8, "radical"), (4, 1, "socle")])
    def test_filtration_raises(self, monkeypatch, target, source, what):
        ad_d = quadext.build_model(n2_type_ii_cocycle()).metric.adjoint_module()
        self.add_stray_operator(monkeypatch, target, source)
        with pytest.raises(InternalCheckError,
                           match=f"{what} is not a submodule"):
            filtration(fresh(ad_d))

    def test_repeated_factor_in_an_operator_raises(self, monkeypatch):
        # t^2 is the minimal polynomial of a Jordan block: an s_i that kept
        # the repeated factor would leave its radical at zero
        rep = Representation(base_algebra("R1"), (Matrix([[0, 1], [0, 0]]),))
        assert module_radical(fresh(rep)).dim == 1
        monkeypatch.setattr(modules.poly, "squarefree_part", poly.monic)
        with pytest.raises(InternalCheckError, match="repeated factor"):
            module_radical(fresh(rep))

    def test_check_balanced_exits_three(self, monkeypatch, tmp_path, capsys):
        f = tmp_path / "n2II.json"
        f.write_text(doc.dump_cocycle(n2_type_ii_cocycle()))
        assert main(["check-balanced", str(f)]) == 0
        capsys.readouterr()
        self.add_stray_operator(monkeypatch, 3, 8)
        assert main(["check-balanced", str(f)]) == 3
        err = capsys.readouterr().err
        assert "internal cross-check failure" in err
        assert "radical is not a submodule" in err


class TestLevelSocleCheck:
    """Each lifted level socle is tested as a submodule of the model's
    adjoint module.  The patched helper returns the line of Y in the l
    block of the 9-dimensional n2 model, which [X, Y] = Z leaves."""

    @staticmethod
    def break_level_socle(monkeypatch):
        def patched(ops, h_k, h_perp):
            return Subspace.span(h_k.ambient, [unit_vector(h_k.ambient, 7)])
        monkeypatch.setattr(quadext, "_lifted_socle", patched)

    def test_admissibility_raises(self, monkeypatch):
        z = n2_type_ii_cocycle()
        assert quadext.admissibility(z).admissible
        self.break_level_socle(monkeypatch)
        with pytest.raises(InternalCheckError,
                           match="level socle is not a submodule"):
            quadext.admissibility(z)

    def test_check_admissible_exits_three(self, monkeypatch, tmp_path,
                                          capsys):
        f = tmp_path / "n2II.json"
        f.write_text(doc.dump_cocycle(n2_type_ii_cocycle()))
        assert main(["check-admissible", str(f)]) == 0
        capsys.readouterr()
        self.break_level_socle(monkeypatch)
        assert main(["check-admissible", str(f)]) == 3
        err = capsys.readouterr().err
        assert "internal cross-check failure" in err
        assert "level socle is not a submodule" in err
