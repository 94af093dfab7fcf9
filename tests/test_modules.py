from fractions import Fraction as Q

import pytest

from metlie import (Matrix, Representation, Subspace, SymmetricForm,
                    abelian, adjoint_representation,
                    direct_sum_representations, dual_representation,
                    filtration, invariant_split, is_semisimple,
                    module_radical, module_socle, nilpotency_radical,
                    quotient_representation, trivial_representation)
from metlie.linalg import unit_vector
from metlie.modules import sub_representation, submodule_generated

from conftest import rotation_rep


def jordan_module():
    return Representation(abelian(1), (Matrix([[0, 1], [0, 0]]),))


def invariant_complement_exists(rep, W):
    """Equivariant projection onto W: the independent semisimplicity probe."""
    m = rep.module_dim
    if W.dim in (0, m):
        return True
    unknowns = m * m
    rows = []
    rhs = []
    # P rho(e_i) = rho(e_i) P
    for a in rep.action:
        for r in range(m):
            for c in range(m):
                row = [Q(0)] * unknowns
                for k in range(m):
                    row[r * m + k] += a[k, c]
                    row[k * m + c] -= a[r, k]
                rows.append(row)
                rhs.append(Q(0))
    # P w = w on a basis of W
    for w in W.basis.data:
        for r in range(m):
            row = [Q(0)] * unknowns
            for k in range(m):
                row[r * m + k] += w[k]
            rows.append(row)
            rhs.append(w[r])
    # im P inside W: annihilator functionals kill every column of P
    for f in W.annihilator().basis.data:
        for c in range(m):
            row = [Q(0)] * unknowns
            for r in range(m):
                row[r * m + c] += f[r]
            rows.append(row)
            rhs.append(Q(0))
    system = Matrix.from_rows(tuple(rows), cols=unknowns)
    return system.solve(tuple(rhs)) is not None


def semisimple_probe_oracle(rep, rng, probes=6):
    """Every probe-generated submodule admits an invariant complement."""
    m = rep.module_dim
    vectors = [unit_vector(m, i) for i in range(m)]
    for _ in range(probes):
        vectors.append(tuple(Q(rng.randint(-2, 2)) for _ in range(m)))
    for v in vectors:
        if all(x == 0 for x in v):
            continue
        W = submodule_generated(rep, [v])
        if not invariant_complement_exists(rep, W):
            return False
    return True


class TestCheckRepresentation:
    def test_trivial_action(self, n2):
        assert trivial_representation(n2, 3).violation() is None

    def test_adjoint_of_validated_algebra(self, sl2, n2, h1):
        for g in (sl2, n2, h1):
            assert adjoint_representation(g).violation() is None

    def test_rotation_family_with_euclidean_form(self, n2):
        rep = rotation_rep(n2, [1, 2])
        assert rep.violation() is None

    def test_broken_homomorphism_detected(self, h1):
        # rho([X,Y]) = rho(Z) = 1 but scalar actions commute
        bad = Representation(h1, (Matrix([[1]]), Matrix([[1]]), Matrix([[1]])),
                             validate=False)
        assert bad.violation() is not None

    def test_broken_skewness_detected(self, n2):
        mats = (Matrix([[1, 0], [0, -1]]), Matrix.zeros(2, 2),
                Matrix.zeros(2, 2))
        bad = Representation(abelian(3), mats,
                             form=SymmetricForm.euclidean(2), validate=False)
        assert bad.violation() is not None


class TestModuleRadical:
    def test_trivial_module(self, n2):
        assert module_radical(trivial_representation(n2, 3)).dim == 0

    def test_jordan_block(self):
        # squarefree part of t^2 is t; radical = image of the block
        rep = jordan_module()
        assert module_radical(rep) == Subspace.span(2, [unit_vector(2, 0)])

    def test_adjoint_n2_matches_nilpotency_radical(self, n2):
        rep = adjoint_representation(n2)
        assert module_radical(rep) == nilpotency_radical(n2)
        assert module_radical(rep) == \
            Subspace.span(3, [unit_vector(3, 1), unit_vector(3, 2)])

    def test_adjoint_h1_matches_nilpotency_radical(self, h1):
        assert module_radical(adjoint_representation(h1)) == \
            nilpotency_radical(h1)

    def test_non_submodule_rejected(self, n2):
        rep = adjoint_representation(n2)
        with pytest.raises(ValueError):
            module_radical(rep, Subspace.span(3, [unit_vector(3, 1)]))

    def test_quotient_semisimple_by_probe_oracle(self, rng, n2, h1):
        for rep in (jordan_module(), adjoint_representation(n2),
                    adjoint_representation(h1)):
            R = module_radical(rep)
            qrep, proj, lift = quotient_representation(rep, R)
            assert semisimple_probe_oracle(qrep, rng)
            assert is_semisimple(qrep)


class TestModuleSocle:
    def test_semisimple_module_is_its_own_socle(self, n2):
        rep = rotation_rep(n2, [1])
        assert module_socle(rep) == Subspace.full(2)

    def test_jordan_block_socle(self):
        # the only invariant line, found by inspection of the eigenstructure
        assert module_socle(jordan_module()) == \
            Subspace.span(2, [unit_vector(2, 0)])

    def test_adjoint_h1_socle(self, h1):
        s = module_socle(adjoint_representation(h1))
        # dual-radical oracle: S(V) = R(V*)^perp
        dual = dual_representation(adjoint_representation(h1))
        rad_dual = module_radical(dual)
        assert s == rad_dual.annihilator()
        # invariant-line enumeration oracle: only span(Z) is invariant
        assert s == Subspace.span(3, [unit_vector(3, 2)])
        # sanity: contains the centre, killed by the nilpotency radical action
        assert s.contains(unit_vector(3, 2))

    def test_socle_rules(self, h1, n2):
        for rep in (adjoint_representation(h1), adjoint_representation(n2)):
            S = module_socle(rep)
            assert module_radical(rep, S).dim == 0      # R(S(W)) = 0
            assert module_socle(rep, S) == S            # S(S(W)) = S(W)


class TestFiltration:
    def test_semisimple(self, n2):
        rep = rotation_rep(n2, [1, 2])
        filt = filtration(rep)
        assert filt.socles[1] == Subspace.full(4)
        assert filt.radicals[1].dim == 0

    def test_adjoint_n2(self, n2):
        filt = filtration(adjoint_representation(n2))
        r1 = Subspace.span(3, [unit_vector(3, 1), unit_vector(3, 2)])
        assert filt.radicals[1] == r1
        assert filt.radicals[2].dim == 0   # rotation action: t^2+1 squarefree
        assert len(filt.radicals) == 3

    def test_adjoint_h1(self, h1):
        filt = filtration(adjoint_representation(h1))
        z = Subspace.span(3, [unit_vector(3, 2)])
        assert filt.radicals[1] == z
        assert filt.radicals[2].dim == 0
        assert filt.socles[1] == z

    def test_higher_socle_consistency(self, h1, n2):
        for rep in (adjoint_representation(h1), adjoint_representation(n2)):
            filt = filtration(rep)
            for k in range(1, len(filt.socles)):
                prev = filt.socles[k - 1]
                qrep, proj, lift = quotient_representation(rep, prev)
                socle_q = module_socle(qrep)
                lifted = prev.add(Subspace.span(
                    rep.module_dim, [lift.apply(v) for v in
                                     socle_q.basis.data]))
                assert lifted == filt.socles[k]


class TestSemisimpleSplit:
    def test_trivial_module(self, n2):
        rep = trivial_representation(n2, 2)
        inv, comp = invariant_split(rep)
        assert inv == Subspace.full(2) and comp.dim == 0

    def test_rotations_have_no_invariants(self, n2):
        rep = rotation_rep(n2, [1, 2])
        inv, comp = invariant_split(rep)
        assert inv.dim == 0 and comp == Subspace.full(4)

    def test_mixed_block(self, n2):
        rep = rotation_rep(n2, [1], extra_trivial=1)
        inv, comp = invariant_split(rep)
        assert inv == Subspace.span(3, [unit_vector(3, 2)])
        assert comp == Subspace.span(3, [unit_vector(3, 0), unit_vector(3, 1)])
        # orthogonal when a form is present
        for u in inv.basis.data:
            for w in comp.basis.data:
                assert rep.form.evaluate(u, w) == 0

    def test_split_requires_semisimple(self):
        with pytest.raises(ValueError):
            invariant_split(jordan_module())


class TestDualSubQuotient:
    def test_dual_of_trivial(self, n2):
        rep = trivial_representation(n2, 2)
        assert dual_representation(rep).action == rep.action

    def test_quotient_by_zero_is_identity_base_change(self, n2):
        rep = adjoint_representation(n2)
        qrep, proj, lift = quotient_representation(rep, Subspace.zero(3))
        assert proj == Matrix.identity(3)
        assert lift == Matrix.identity(3)
        assert qrep.action == rep.action

    def test_dual_jordan_radical_annihilates_socle(self):
        rep = jordan_module()
        dual = dual_representation(rep)
        # duality: R(V*) = S(V)^perp
        assert module_radical(dual) == module_socle(rep).annihilator()

    def test_duality_on_randomized_modules(self, rng, n2, h1):
        mods = [adjoint_representation(n2), adjoint_representation(h1),
                jordan_module(),
                direct_sum_representations(adjoint_representation(h1),
                                           adjoint_representation(h1))]
        for rep in mods:
            dual = dual_representation(rep)
            assert module_socle(dual) == module_radical(rep).annihilator()
            assert module_radical(dual) == module_socle(rep).annihilator()

    def test_radical_additive_on_submodule_sums(self, h1):
        rep = direct_sum_representations(adjoint_representation(h1),
                                         adjoint_representation(h1))
        U = Subspace.span(6, [unit_vector(6, i) for i in range(3)])
        V = Subspace.span(6, [unit_vector(6, i) for i in range(3, 6)])
        # R(U + V) = R(U) + R(V)
        assert module_radical(rep, U.add(V)) == \
            module_radical(rep, U).add(module_radical(rep, V))


class TestSubmoduleCheck:
    """Each route that builds on a subspace rejects one that is not a
    submodule: [X, Y] = Z takes span(Y) out of itself in the adjoint n(2)."""

    @staticmethod
    def not_a_submodule():
        return Subspace.span(3, [unit_vector(3, 1)])

    def test_sub_representation_rejects(self, n2):
        with pytest.raises(ValueError, match="not a submodule"):
            sub_representation(adjoint_representation(n2),
                               self.not_a_submodule())

    def test_quotient_representation_rejects(self, n2):
        with pytest.raises(ValueError, match="not a submodule"):
            quotient_representation(adjoint_representation(n2),
                                    self.not_a_submodule())

    def test_module_radical_rejects_after_a_cached_radical(self, n2):
        rep = adjoint_representation(n2)
        nilrad = nilpotency_radical(n2)
        module_radical(rep, nilrad)
        assert nilrad.basis in rep._radical_cache
        with pytest.raises(ValueError, match="non-submodule"):
            module_radical(rep, self.not_a_submodule())
        assert self.not_a_submodule().basis not in rep._radical_cache

    def test_submodules_accepted(self, n2):
        rep = adjoint_representation(n2)
        nilrad = nilpotency_radical(n2)
        sub, inclusion = sub_representation(rep, nilrad)
        qrep, proj, lift = quotient_representation(rep, nilrad)
        assert (sub.module_dim, qrep.module_dim) == (2, 1)
        assert sub.violation() is None and qrep.violation() is None

    def test_ambient_mismatch_rejected(self, n2):
        rep = adjoint_representation(n2)
        for route in (sub_representation, quotient_representation,
                      module_radical):
            with pytest.raises(ValueError):
                route(rep, Subspace.zero(4))
