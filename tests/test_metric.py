from fractions import Fraction as Q

import pytest

from metlie import (CochainComplex, LieAlgebra, Matrix, MetricLieAlgebra,
                    QuadraticCocycle, SimpleIdealError, Subspace,
                    SymmetricForm, abelian, canonical_extension,
                    canonical_ideals, direct_sum, equivalent_cocycles,
                    extract_cocycle, find_simple_ideal, killing_form,
                    metric_violation, orthogonal_complement, signature)
from metlie.linalg import unit_vector

from conftest import rotation_rep


def oscillator():
    """Basis Z, A1, A2, L with [A1,A2]=Z, [L,A1]=A2, [L,A2]=-A1."""
    g = LieAlgebra(4, {(1, 2): [1, 0, 0, 0],
                       (1, 3): [0, 0, -1, 0],
                       (2, 3): [0, 1, 0, 0]})
    form = SymmetricForm(Matrix([[0, 0, 0, 1], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [1, 0, 0, 0]]))
    return MetricLieAlgebra(g, form)


def sl2_semidirect(sl2, c=Q(0)):
    """sl(2,R) acting on its dual; hyperbolic pairing plus c times Killing."""
    brackets = {}
    for i in range(3):
        for j in range(i + 1, 3):
            brackets[(3 + i, 3 + j)] = [0, 0, 0] + list(sl2.table[i][j])
    for i in range(3):
        for a in range(3):
            coeffs = [sl2.table[i][b][a] for b in range(3)]
            brackets[(a, 3 + i)] = coeffs + [0, 0, 0]
    g = LieAlgebra(6, brackets)
    kf = killing_form(sl2).gram
    rows = []
    for r in range(6):
        row = [Q(0)] * 6
        if r < 3:
            row[3 + r] = Q(1)
        else:
            row[r - 3] = Q(1)
            for cidx in range(3):
                row[3 + cidx] += c * kf[r - 3, cidx]
        rows.append(row)
    return MetricLieAlgebra(g, SymmetricForm(Matrix(rows, 6, 6)))


class TestValidateMetric:
    def test_abelian_euclidean(self):
        m = MetricLieAlgebra(abelian(2), SymmetricForm.euclidean(2))
        assert m.dim == 2

    def test_sl2_with_killing(self, sl2):
        # invariance of the Killing form is itself an exact identity
        m = MetricLieAlgebra(sl2, killing_form(sl2))
        assert m.index() == 1

    def test_h1_identity_form_rejected(self, h1):
        witness = metric_violation(h1, SymmetricForm.euclidean(3))
        assert witness is not None
        # oracle: <[X,Y],Z> = 1 but <X,[Y,Z]> = 0
        with pytest.raises(ValueError):
            MetricLieAlgebra(h1, SymmetricForm.euclidean(3))

    def test_degenerate_form_rejected(self, n2):
        with pytest.raises(ValueError):
            MetricLieAlgebra(abelian(2),
                             SymmetricForm(Matrix([[1, 0], [0, 0]])))


class TestIndex:
    def test_euclidean_abelian(self):
        assert MetricLieAlgebra(abelian(3),
                                SymmetricForm.euclidean(3)).index() == 0

    def test_sl2_killing_index_one(self, sl2):
        assert MetricLieAlgebra(sl2, killing_form(sl2)).index() == 1

    def test_model_index_is_base_dimension(self, n2):
        # hyperbolic pairing contributes dim l negatives over a Euclidean a
        from metlie.quadext import build_model
        cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        z = QuadraticCocycle(cx, cx.zero_cochain(2),
                             cx.zero_cochain(3, scalar=True))
        assert build_model(z).metric.index() == 3


class TestCanonicalIdeals:
    def test_abelian(self):
        m = MetricLieAlgebra(abelian(2), SymmetricForm.euclidean(2))
        ids = canonical_ideals(m)
        assert ids.isotropic.dim == 0
        assert ids.coisotropic == Subspace.full(2)

    def test_sl2_semidirect(self, sl2):
        ids = canonical_ideals(sl2_semidirect(sl2))
        dual_block = Subspace.span(6, [unit_vector(6, a) for a in range(3)])
        assert ids.isotropic == dual_block
        assert ids.coisotropic == dual_block

    def test_oscillator(self):
        ids = canonical_ideals(oscillator())
        assert ids.isotropic.dim == 1
        assert ids.coisotropic.dim == 3

    def test_filtration_duality(self, sl2):
        for m in (oscillator(), sl2_semidirect(sl2)):
            ids = canonical_ideals(m)
            filt = ids.filtration
            for k in range(max(len(filt.socles), len(filt.radicals))):
                assert filt.socle(k) == orthogonal_complement(
                    filt.radical(k), m.form)

    def test_isotropy_and_abelian_quotient(self, sl2):
        for m in (oscillator(), sl2_semidirect(sl2, Q(2))):
            ids = canonical_ideals(m)
            assert m.form.is_isotropic(ids.isotropic)
            assert ids.coisotropic == orthogonal_complement(ids.isotropic,
                                                            m.form)
            # [j, j] inside i
            for u in ids.coisotropic.basis.data:
                for v in ids.coisotropic.basis.data:
                    assert ids.isotropic.contains(m.algebra.bracket(u, v))

    def test_additive_over_direct_sums(self):
        m1 = oscillator()
        g = direct_sum(m1.algebra, m1.algebra)
        gram = Matrix([[m1.form.gram[i % 4, j % 4]
                        if (i < 4) == (j < 4) else Q(0)
                        for j in range(8)] for i in range(8)])
        m = MetricLieAlgebra(g, SymmetricForm(gram))
        ids = canonical_ideals(m)
        assert ids.isotropic == Subspace.span(
            8, [unit_vector(8, 0), unit_vector(8, 4)])


class TestSimpleIdeals:
    def test_sl2_plus_euclidean(self, sl2):
        g = direct_sum(sl2, abelian(2))
        kf = killing_form(sl2).gram
        gram = Matrix([[kf[i, j] if i < 3 and j < 3 else
                        (Q(1) if (i == j and i >= 3) else Q(0))
                        for j in range(5)] for i in range(5)])
        m = MetricLieAlgebra(g, SymmetricForm(gram))
        ids = canonical_ideals(m)
        assert ids.simple_ideal is not None
        assert ids.simple_ideal.dim == 3
        # the simple ideal of a metric Lie algebra is nondegenerate
        assert m.form.restrict(ids.simple_ideal).is_nondegenerate()
        with pytest.raises(SimpleIdealError):
            canonical_extension(m)

    def test_no_false_positive(self, sl2):
        assert canonical_ideals(sl2_semidirect(sl2)).simple_ideal is None
        assert find_simple_ideal(oscillator()) is None


class TestCanonicalExtension:
    def test_abelian_nondegenerate(self):
        m = MetricLieAlgebra(abelian(3), SymmetricForm.euclidean(3))
        ext = canonical_extension(m)
        assert ext.base.dim == 0
        assert ext.module.module_dim == 3

    def test_sl2_semidirect_recovers_base(self, sl2):
        ext = canonical_extension(sl2_semidirect(sl2))
        assert ext.base == sl2
        assert ext.module.module_dim == 0

    def test_oscillator(self):
        ext = canonical_extension(oscillator())
        assert ext.base.dim == 1
        assert ext.module.module_dim == 2
        # induced form on the module is definite Euclidean here
        assert signature(ext.module.form) == (0, 0, 2)

    def test_section_contract(self, sl2):
        for m in (oscillator(), sl2_semidirect(sl2, Q(1))):
            ext = canonical_extension(m)
            n = ext.base.dim
            assert (ext.base_projection @ ext.section) == Matrix.identity(n)
            sec_space = Subspace.span(
                m.dim, [ext.section.column(i) for i in range(n)])
            assert m.form.is_isotropic(sec_space)
            # the pairing <p*(Z), s(L)> = Z(L): the ideal/section Gram
            # is invertible, so every functional Z has its representative
            pairing = Matrix([[m.form.evaluate(u, ext.section.column(i))
                               for i in range(n)]
                              for u in ext.ideal.basis.data],
                             ext.ideal.dim, n)
            assert pairing.rank() == n


class TestExtractCocycle:
    def test_canonical_section_round_trip(self, n2):
        # build from a cocycle, re-extract through the canonical machinery
        from metlie.quadext import build_model
        cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        alpha = cx.cochain(2, {(1, 2): [0, 0, 1]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        model = build_model(z)
        ext = canonical_extension(model.metric)
        assert ext.base == n2
        assert ext.module.action == cx.rep.action
        assert ext.module.form == cx.rep.form
        back = QuadraticCocycle(cx, ext.cocycle.alpha, ext.cocycle.gamma)
        assert equivalent_cocycles(z, back) is not None

    def test_perturbed_section_gives_equivalent_cocycle(self, sl2):
        m = sl2_semidirect(sl2, Q(1))
        ext = canonical_extension(m)
        n = ext.base.dim
        # shear the section by an isotropic correction into the ideal
        shear = Matrix([[Q(0), Q(1), Q(0)],
                        [Q(-1), Q(0), Q(0)],
                        [Q(0), Q(0), Q(0)]])
        correction = Matrix.from_columns(
            tuple(tuple(sum(shear[t, i] * ext.ideal.basis.data[t][r]
                            for t in range(ext.ideal.dim))
                        for r in range(m.dim))
                  for i in range(n)), rows=m.dim).transpose()
        new_section = ext.section + correction.transpose()
        z2 = extract_cocycle(ext, section=new_section)
        z1 = ext.cocycle
        assert equivalent_cocycles(
            QuadraticCocycle(z1.complex, z1.alpha, z1.gamma),
            QuadraticCocycle(z1.complex, z2.alpha, z2.gamma)) is not None

    def test_canonical_section_reproduces_the_cocycle(self, sl2, n2):
        # both routes through the section -> (alpha, gamma) extraction agree
        from metlie.quadext import build_model
        cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        z = QuadraticCocycle(cx, cx.cochain(2, {(1, 2): [0, 0, 1]}),
                             cx.zero_cochain(3, scalar=True))
        for m in (oscillator(), sl2_semidirect(sl2),
                  sl2_semidirect(sl2, Q(1)), build_model(z).metric):
            ext = canonical_extension(m)
            assert extract_cocycle(ext, section=ext.section) == ext.cocycle

    def test_abelian_base_extraction_is_zero(self):
        ext = canonical_extension(oscillator())
        assert ext.cocycle.alpha.is_zero()
        assert ext.cocycle.gamma.is_zero()

    def test_bad_section_rejected(self):
        ext = canonical_extension(oscillator())
        with pytest.raises(ValueError):
            extract_cocycle(ext, section=Matrix.zeros(4, 1))
