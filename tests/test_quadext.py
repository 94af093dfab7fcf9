from fractions import Fraction as Q

import pytest
from hypothesis import given, settings

from metlie import (Cochain, CochainComplex, Matrix, QuadraticCochain,
                    QuadraticCocycle, Representation, SymmetricForm, abelian,
                    admissibility, build_model, build_modified,
                    canonical_extension, equivalent_cocycles,
                    find_simple_ideal, is_balanced, is_indecomposable_class,
                    killing_form, psi_map, q_action, q_star,
                    trivial_representation)
from metlie.catalog import base_algebra, build_rep, RepFamilySpec
from metlie.linalg import signature, unit_vector
from metlie.quadext import bk_system_solvable
from metlie.modules import submodule_generated

from conftest import random_cochain, random_cocycle, rotation_rep
from test_model_routes import pairs, random_invariant_form


def oscillator_pair():
    lR = abelian(1)
    rep = rotation_rep(lR, [1])
    return CochainComplex(lR, rep)


def empty_module(l):
    return Representation(l, (Matrix.zeros(0, 0),) * l.dim,
                          form=SymmetricForm(Matrix.zeros(0, 0)),
                          module_dim=0, validate=False)


class TestBuildModel:
    def test_oscillator(self):
        cx = oscillator_pair()
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        model = build_model(z)
        table = model.metric.algebra.table
        assert table[3][1] == (Q(0), Q(0), Q(1), Q(0))    # [L,A1] = A2
        assert table[3][2] == (Q(0), Q(-1), Q(0), Q(0))   # [L,A2] = -A1
        assert table[1][2] == (Q(1), Q(0), Q(0), Q(0))    # [A1,A2] = Z
        assert model.metric.index() == 1

    def test_sl2_coadjoint(self, sl2):
        cx = CochainComplex(sl2, empty_module(sl2))
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        model = build_model(z)
        assert model.metric.index() == 3
        # [L, Z] = ad*(L)Z: (ad*(H) E*)(x) = -E*([H, x])
        # with H at base index 3 and E* at dual index 1:
        assert model.metric.algebra.table[3][1] == \
            (Q(0), Q(-2), Q(0), Q(0), Q(0), Q(0))

    def test_abelian_alpha_block(self):
        l = abelian(2)
        rep = trivial_representation(l, 1, form=SymmetricForm.euclidean(1))
        cx = CochainComplex(l, rep)
        alpha = cx.cochain(2, {(0, 1): [1]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        model = build_model(z)
        # [Y, Z] carries the alpha component in the module block
        assert model.metric.algebra.table[3][4] == \
            (Q(0), Q(0), Q(1), Q(0), Q(0))

    def test_cocycle_iff_jacobi(self, rng, n2, r3m1, h1):
        pairs = [CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1)),
                 CochainComplex(r3m1, rotation_rep(r3m1, [1])),
                 CochainComplex(h1, trivial_representation(
                     h1, 2, form=SymmetricForm.euclidean(2)))]
        for cx in pairs:
            for _ in range(25):
                alpha = random_cochain(rng, cx, 2)
                gamma = random_cochain(rng, cx, 3, scalar=True)
                is_cocycle = cx.differential(alpha).is_zero()  # dim 3: C^4 = 0
                algebra = build_model(
                    QuadraticCocycle(cx, alpha, gamma, validate=False),
                    force=True).metric.algebra
                assert (algebra.jacobi_witness() is None) == is_cocycle


class TestBuildModified:
    def test_zero_extra_form_is_standard(self, rng):
        cx = oscillator_pair()
        z = random_cocycle(rng, cx)
        modified, phi, target = build_modified(
            z, SymmetricForm(Matrix.zeros(1, 1)))
        assert phi == Matrix.identity(4)
        assert modified.metric.form == target.metric.form
        assert target.gamma == z.gamma

    def test_sl2_killing_family(self, sl2):
        cx = CochainComplex(sl2, empty_module(sl2))
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        for c in (Q(1), Q(-2), Q(1, 3)):
            ip = SymmetricForm(killing_form(sl2).gram.scale(c))
            modified, phi, target = build_modified(z, ip)
            assert modified.metric.index() == 3
            # gamma of the target is -c/2 B([.,.],.)
            expect = Q(-1, 2) * c * killing_form(sl2).evaluate(
                sl2.table[0][1], unit_vector(3, 2))
            assert target.gamma.value((0, 1, 2)) == (expect,)

    def test_su2_killing_family(self, su2):
        rep = build_rep([RepFamilySpec("su2_odd", (1,))], su2)
        cx = CochainComplex(su2, rep)
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        ip = SymmetricForm(killing_form(su2).gram.scale(Q(1, 2)))
        modified, phi, target = build_modified(z, ip)
        assert modified.metric.index() == 3

    def test_invariance_required(self, n2):
        cx = CochainComplex(n2, rotation_rep(n2, [1]))
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        with pytest.raises(ValueError):
            build_modified(z, SymmetricForm.euclidean(3))


class TestPsiMap:
    def test_identity(self):
        cx = oscillator_pair()
        c = QuadraticCochain(cx.zero_cochain(1),
                             cx.zero_cochain(0 * 2, scalar=True))
        assert psi_map(cx, c) == Matrix.identity(4)

    def test_unipotent_isometry_and_conjugation(self, rng, n2):
        cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        z = random_cocycle(rng, cx)
        c = QuadraticCochain(random_cochain(rng, cx, 1),
                             random_cochain(rng, cx, 2, scalar=True))
        moved = q_action(z, c)
        psi = psi_map(cx, c)
        d_orig = build_model(z).metric
        d_moved = build_model(moved).metric
        assert psi.transpose() @ d_orig.form.gram @ psi == d_orig.form.gram
        for i in range(d_orig.dim):
            for j in range(i + 1, d_orig.dim):
                assert psi.apply(d_moved.algebra.table[i][j]) == \
                    d_orig.algebra.bracket(psi.column(i), psi.column(j))

    def test_closed_tau_over_abelian_base(self, rng):
        l = abelian(2)
        rep = rotation_rep(l, [])  # zero-dim rotation part: no, use trivial
        rep = trivial_representation(l, 2, form=SymmetricForm.euclidean(2))
        cx = CochainComplex(l, rep)
        tau = random_cochain(rng, cx, 1)
        assert cx.differential(tau).is_zero()   # abelian, trivial action
        c = QuadraticCochain(tau, cx.zero_cochain(2, scalar=True))
        psi = psi_map(cx, c)
        form = build_model(QuadraticCocycle(
            cx, cx.zero_cochain(2),
            cx.zero_cochain(3, scalar=True))).metric.form
        assert psi.transpose() @ form.gram @ psi == form.gram

    def test_group_homomorphism(self, rng, n2):
        cx = CochainComplex(n2, rotation_rep(n2, [2]))
        c1 = QuadraticCochain(random_cochain(rng, cx, 1),
                              random_cochain(rng, cx, 2, scalar=True))
        c2 = QuadraticCochain(random_cochain(rng, cx, 1),
                              random_cochain(rng, cx, 2, scalar=True))
        assert psi_map(cx, q_star(cx, c1, c2)) == \
            psi_map(cx, c1) @ psi_map(cx, c2)


class TestBalanced:
    def test_sl2_semidirect_balanced_any_gamma(self, rng, sl2):
        cx = CochainComplex(sl2, empty_module(sl2))
        gamma = random_cochain(rng, cx, 3, scalar=True)
        z = QuadraticCocycle(cx, cx.zero_cochain(2), gamma)
        assert is_balanced(build_model(z))

    def test_n2_zero_class_not_balanced(self, n2):
        cx = CochainComplex(n2, trivial_representation(
            n2, 1, form=SymmetricForm.euclidean(1)))
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        assert not is_balanced(build_model(z))

    def test_oscillator_balanced(self):
        cx = oscillator_pair()
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        assert is_balanced(build_model(z))


class TestAdmissibility:
    def test_h1_gamma_classes_inadmissible(self, rng, h1):
        cx = CochainComplex(h1, trivial_representation(
            h1, 1, form=SymmetricForm.euclidean(1)))
        for coeff in (Q(1), Q(-3), Q(2, 5)):
            gamma = cx.cochain(3, {(0, 1, 2): [coeff]}, scalar=True)
            z = QuadraticCocycle(cx, cx.zero_cochain(2), gamma)
            report = admissibility(z)
            assert not report.admissible
            assert not report.per_k[0].a_holds or not report.per_k[1].a_holds

    def test_h1_nonzero_alpha_admissible(self, h1):
        cx = CochainComplex(h1, trivial_representation(
            h1, 1, form=SymmetricForm.euclidean(1)))
        alpha = cx.cochain(2, {(0, 2): [1]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        assert admissibility(z).admissible

    def test_r3m2_example_admissible(self):
        l = base_algebra("r3m2")
        rep = Representation(
            l, (Matrix([[1, 0], [0, -1]]), Matrix.zeros(2, 2),
                Matrix.zeros(2, 2)),
            form=SymmetricForm(Matrix([[0, 1], [1, 0]])))
        cx = CochainComplex(l, rep)
        alpha = cx.cochain(2, {(1, 2): [0, 1], (0, 2): [1, 0]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        assert admissibility(z).admissible

    def test_abelian_plane_with_trivial_line(self):
        l = abelian(2)
        rep = trivial_representation(l, 1, form=SymmetricForm.euclidean(1))
        cx = CochainComplex(l, rep)
        alpha = cx.cochain(2, {(0, 1): [1]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        report = admissibility(z)
        assert report.admissible
        assert report.regularly_admissible   # alpha_0 image is all of a^l

    def test_class_invariance(self, rng, n2):
        cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        alpha = cx.cochain(2, {(1, 2): [0, 0, 1]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        base = admissibility(z).admissible
        for _ in range(5):
            c = QuadraticCochain(random_cochain(rng, cx, 1),
                                 random_cochain(rng, cx, 2, scalar=True))
            assert admissibility(q_action(z, c)).admissible == base

    def test_admissible_iff_balanced(self, rng, r3m1):
        cx = CochainComplex(r3m1, rotation_rep(r3m1, [1], extra_trivial=1))
        for alpha_vals in ({}, {(1, 2): [0, 0, 1]}):
            alpha = cx.cochain(2, alpha_vals)
            z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
            report = admissibility(z)   # raises if the two routes disagree
            assert report.admissible == is_balanced(build_model(z))

    def test_nonsemisimple_module_inadmissible(self, h1):
        # the adjoint module of h(1) is not semisimple
        from metlie import adjoint_representation
        # equip with an invariant form? none nondegenerate exists; instead
        # use a 2-dim non-semisimple action of the abelian line
        l = abelian(1)
        nilp = Representation(l, (Matrix([[0, 1], [0, 0]]),),
                              form=None, validate=True)
        # orthogonal version: the Jordan block is skew for the hyperbolic form
        hyp = SymmetricForm(Matrix([[0, 1], [1, 0]]))
        mats = (Matrix([[1, 0], [0, -1]]),)
        rep = Representation(l, mats, form=hyp)
        cx = CochainComplex(l, rep)
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        report = admissibility(z)
        assert report.rho_semisimple    # diag(1,-1) is semisimple
        # a genuinely non-semisimple orthogonal action:
        shear = Matrix([[0, 1], [0, 0]])
        assert (shear.transpose() @ hyp.gram + hyp.gram @ shear) != \
            Matrix.zeros(2, 2)
        skew_shear = Matrix([[0, 1], [0, 0]])
        # build one directly: on R^{1,1} with gram [[0,1],[1,0]],
        # the matrix [[0,0],[1,0]]? check skewness exactly:
        cand = Matrix([[0, 0], [1, 0]])
        if (cand.transpose() @ hyp.gram + hyp.gram @ cand).is_zero():
            rep2 = Representation(l, (cand,), form=hyp)
            cx2 = CochainComplex(l, rep2)
            z2 = QuadraticCocycle(cx2, cx2.zero_cochain(2),
                                  cx2.zero_cochain(3, scalar=True))
            report2 = admissibility(z2)
            assert not report2.rho_semisimple
            assert not report2.admissible

    def test_bk_secondary_oracle_level_one(self, n2, r3m1):
        for l in (n2, r3m1):
            cx = CochainComplex(l, rotation_rep(l, [1], extra_trivial=1))
            alpha = cx.cochain(2, {(1, 2): [0, 0, 1]})
            z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
            report = admissibility(z)
            P = report.per_k[1].b_subspace
            # the computed subspace solves the displayed system...
            assert bk_system_solvable(z, 1, P)
            # ...and is maximal: extending by any unused direction fails
            for t in range(cx.module_dim):
                v = unit_vector(cx.module_dim, t)
                if P.contains(v):
                    continue
                bigger = submodule_generated(
                    cx.rep, list(P.basis.data) + [v])
                if bigger != P:
                    assert not bk_system_solvable(z, 1, bigger)


class TestRoundTrip:
    def test_admissible_round_trip(self, rng, n2, r3m1):
        for l in (n2, r3m1):
            cx = CochainComplex(l, rotation_rep(l, [1], extra_trivial=1))
            alpha = cx.cochain(2, {(1, 2): [0, 0, 1]})
            z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
            # move z along the action to hide the canonical shape
            c = QuadraticCochain(random_cochain(rng, cx, 1),
                                 random_cochain(rng, cx, 2, scalar=True))
            z = q_action(z, c)
            model = build_model(z)
            ext = canonical_extension(model.metric)
            assert ext.base == l
            assert ext.module.action == cx.rep.action
            assert ext.module.form == cx.rep.form
            back = QuadraticCocycle(cx, ext.cocycle.alpha, ext.cocycle.gamma)
            assert equivalent_cocycles(z, back) is not None

    def test_built_models_have_no_simple_ideals(self, rng, n2, sl2):
        for cx in (CochainComplex(n2, rotation_rep(n2, [1])),
                   CochainComplex(sl2, empty_module(sl2))):
            z = random_cocycle(rng, cx)
            model = build_model(z)
            assert find_simple_ideal(model.metric) is None


class TestIndecomposability:
    def test_n2_with_spare_trivial_direction(self, n2):
        cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=2))
        alpha = cx.cochain(2, {(1, 2): [0, 0, 1, 0]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        verdict = is_indecomposable_class(z, assume_admissible=True)
        assert verdict.indecomposable is False
        assert verdict.witness is not None and verdict.witness.dim == 1

    def test_n2_tight_trivial_direction(self, n2):
        cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        alpha = cx.cochain(2, {(1, 2): [0, 0, 1]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        assert is_indecomposable_class(z, assume_admissible=True).indecomposable

    def test_sum_class_detected_decomposable(self, n2):
        from metlie import sum_classes
        cx1 = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        alpha = cx1.cochain(2, {(1, 2): [0, 0, 1]})
        z1 = QuadraticCocycle(cx1, alpha, cx1.zero_cochain(3, scalar=True))
        lR = abelian(1)
        cx2 = CochainComplex(lR, rotation_rep(lR, [1]))
        z2 = QuadraticCocycle(cx2, cx2.zero_cochain(2),
                              cx2.zero_cochain(3, scalar=True))
        cx, total = sum_classes(z1, z2)
        verdict = is_indecomposable_class(total, assume_admissible=True)
        assert verdict.indecomposable is False

    def test_inadmissible_class_rejected(self, n2):
        cx = CochainComplex(n2, trivial_representation(
            n2, 1, form=SymmetricForm.euclidean(1)))
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        with pytest.raises(ValueError):
            is_indecomposable_class(z)


class TestCatalogRoundTrips:
    def test_extraction_recovers_catalog_classes(self):
        # Thm-level integration: for one row per family, the canonical
        # extension of the built model carries a cocycle equivalent to the
        # one the row was built from
        from metlie.catalog import catalog_row
        cases = [
            ("n2", "Ia", {"lam": (Q(1),)}),
            ("n2", "III", {"lam": (), "r": Q(2)}),
            ("r3m1", "I", {"lam": (Q(2),)}),
            ("h1", "II", {"lam": ((Q(1), Q(1)),)}),
            ("R1", "II", {"lam": (Q(1),)}),
            ("R2", "I", {"lam": ((Q(1), Q(0)),)}),
            ("sl2r", "c", {"c": Q(1)}),
            ("su2", "ck", {"m": 3, "k": ((1,), ()), "c": Q(0)}),
        ]
        for base, variant, params in cases:
            row = catalog_row(base, variant, params)
            ext = canonical_extension(row.model.metric)
            cx = row.cocycle.complex
            assert ext.base == cx.algebra, (base, variant)
            assert ext.module.action == cx.rep.action, (base, variant)
            assert ext.module.form == cx.rep.form, (base, variant)
            back = QuadraticCocycle(cx, ext.cocycle.alpha, ext.cocycle.gamma)
            assert equivalent_cocycles(row.cocycle, back) is not None, \
                (base, variant)


class TestRegularBalancedness:
    def test_admissible_but_not_regular(self):
        # a spare trivial direction beyond the class support: still
        # admissible, but the strengthened level-zero condition fails
        l = abelian(2)
        rep = trivial_representation(l, 2, form=SymmetricForm.euclidean(2))
        cx = CochainComplex(l, rep)
        alpha = cx.cochain(2, {(0, 1): [1, 0]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        report = admissibility(z)
        assert report.admissible
        assert not report.b0_prime
        assert not report.regularly_admissible
        # and precisely this class is decomposable along the spare direction
        verdict = is_indecomposable_class(z, assume_admissible=True)
        assert verdict.indecomposable is False


INVARIANTS = settings(max_examples=40, deadline=None, derandomize=True)


class TestModelInvariants:
    """The paper's invariants of the standard model, on random classes over
    n2, r3m1, h1 and R2 with orthogonal modules in random bases."""

    @INVARIANTS
    @given(pairs)
    def test_index(self, pair):
        # l* + l is hyperbolic whatever the l-l block, so the index of d is
        # dim l plus that of a
        cx, rng = pair
        z = random_cocycle(rng, cx)
        expected = cx.n + signature(cx.rep.form)[0]
        assert build_model(z).metric.index() == expected
        modified, _, _ = build_modified(z, random_invariant_form(rng, cx.algebra))
        assert modified.metric.index() == expected

    @INVARIANTS
    @given(pairs)
    def test_orbits(self, pair):
        # z·(tau, sigma) is equivalent to z, and Psi of the witness is an
        # isometric isomorphism of the models
        cx, rng = pair
        z = random_cocycle(rng, cx)
        moved = q_action(z, QuadraticCochain(
            random_cochain(rng, cx, 1), random_cochain(rng, cx, 2, scalar=True)))
        witness = equivalent_cocycles(moved, z)
        assert witness is not None
        psi = psi_map(cx, witness)
        src, dst = build_model(moved).metric, build_model(z).metric
        assert psi.transpose() @ dst.form.gram @ psi == src.form.gram
        N = src.dim
        for i in range(N):
            for j in range(i + 1, N):
                assert psi.apply(src.algebra.bracket(unit_vector(N, i),
                                                     unit_vector(N, j))) == \
                    dst.algebra.bracket(psi.column(i), psi.column(j))
