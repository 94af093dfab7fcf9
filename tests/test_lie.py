from fractions import Fraction as Q

import pytest

from metlie import (JacobiError, LieAlgebra, Matrix, Subspace, abelian,
                    center, derived_subalgebra, direct_sum, killing_form,
                    nilpotency_radical, signature, solvable_radical,
                    structure_report)
from metlie.lie import bracket_subspace, is_ideal, quotient_algebra
from metlie.linalg import unit_vector


def cyclic_sum_oracle(table, dim):
    """Brute-force Jacobi check straight from the cyclic-sum definition."""
    def bracket(x, y):
        out = [Q(0)] * dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj and i != j:
                    for k, c in enumerate(table[(min(i, j), max(i, j))]):
                        out[k] += xi * yj * c * (1 if i < j else -1)
        return out

    def basis(i):
        return [Q(1) if t == i else Q(0) for t in range(dim)]

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                total = [Q(0)] * dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket(basis(b), basis(c))
                    term = bracket(basis(a), inner)
                    total = [x + y for x, y in zip(total, term)]
                if any(x != 0 for x in total):
                    return (i, j, k)
    return None


class TestJacobi:
    def test_abelian(self):
        assert abelian(3).jacobi_witness() is None

    def test_heisenberg(self, h1):
        assert h1.jacobi_witness() is None

    def test_tampered_table_matches_oracle(self):
        # [X,Y] = Z, [X,Z] = X, [Y,Z] = Y
        table = {(0, 1): (Q(0), Q(0), Q(1)),
                 (0, 2): (Q(1), Q(0), Q(0)),
                 (1, 2): (Q(0), Q(1), Q(0))}
        oracle = cyclic_sum_oracle(table, 3)
        if oracle is None:
            LieAlgebra(3, table)   # must construct cleanly
        else:
            with pytest.raises(JacobiError):
                LieAlgebra(3, table)
            g = LieAlgebra(3, table, validate=False)
            assert g.jacobi_witness() is not None

    def test_witness_has_defect(self):
        table = {(0, 1): (Q(0), Q(0), Q(1)), (0, 2): (Q(1), Q(0), Q(0)),
                 (1, 2): (Q(0), Q(1), Q(0))}
        g = LieAlgebra(3, table, validate=False)
        witness = g.jacobi_witness()
        assert witness is not None
        i, j, k, defect = witness
        assert any(x != 0 for x in defect)


class TestStructureReport:
    def test_sl2(self, sl2):
        report = structure_report(sl2)
        assert report.derived == Subspace.full(3)
        assert report.center.dim == 0
        assert not report.is_solvable and not report.is_nilpotent

    def test_heisenberg(self, h1):
        report = structure_report(h1)
        z = Subspace.span(3, [unit_vector(3, 2)])
        assert report.derived == z
        assert report.center == z
        assert report.is_nilpotent and report.is_solvable

    def test_abelian(self):
        report = structure_report(abelian(4))
        assert report.derived.dim == 0
        assert report.center == Subspace.full(4)
        assert report.is_nilpotent

    def test_series_monotone(self, n2):
        report = structure_report(n2)
        chain = report.lower_central
        for a, b in zip(chain.entries, chain.entries[1:]):
            assert a.contains_subspace(b)


class TestKillingAndRadical:
    def test_sl2_semisimple(self, sl2):
        killing, radical = killing_form(sl2), solvable_radical(sl2)
        assert radical.dim == 0
        assert signature(killing) == (1, 0, 2)

    def test_solvable_is_whole(self, n2):
        radical = solvable_radical(n2)
        assert radical == Subspace.full(3)

    def test_block_sum(self, sl2):
        g = direct_sum(sl2, abelian(1))
        radical = solvable_radical(g)
        assert radical == Subspace.span(4, [unit_vector(4, 3)])


class TestNilpotencyRadical:
    def test_n2(self, n2):
        expected = Subspace.span(3, [unit_vector(3, 1), unit_vector(3, 2)])
        assert nilpotency_radical(n2) == expected

    def test_sl2(self, sl2):
        assert nilpotency_radical(sl2).dim == 0

    def test_heisenberg(self, h1):
        assert nilpotency_radical(h1) == Subspace.span(3, [unit_vector(3, 2)])
        # also equals r ∩ g' here (the internal consistency identity)
        r = solvable_radical(h1)
        assert r == Subspace.full(3)
        assert nilpotency_radical(h1) == r.intersect(derived_subalgebra(h1))

    def test_output_is_nilpotent_algebra(self, n2, h1, sl2):
        from metlie.lie import subalgebra_restriction
        for g in (n2, h1, sl2, direct_sum(n2, h1)):
            nr = nilpotency_radical(g)
            if nr.dim == 0:
                continue
            sub = subalgebra_restriction(g, nr)
            assert structure_report(sub).is_nilpotent


class TestDirectSum:
    def test_h1_plus_line(self, h1):
        g = direct_sum(h1, abelian(1))
        assert g.dim == 4
        assert derived_subalgebra(g) == Subspace.span(4, [unit_vector(4, 2)])

    def test_zero_identity(self, n2):
        assert direct_sum(abelian(0), n2) == n2

    def test_blockwise_radical(self, sl2, h1):
        g = direct_sum(sl2, h1)
        assert center(g) == Subspace.span(6, [unit_vector(6, 5)])
        expected = Subspace.span(6, [unit_vector(6, k) for k in (3, 4, 5)])
        # blockwise oracle: radical of each summand embedded
        assert solvable_radical(g) == expected


class TestAlgebraProperties:
    def test_ad_is_derivation(self, rng, n2, h1, sl2):
        for g in (n2, h1, sl2):
            for _ in range(10):
                x, y, z = (tuple(Q(rng.randint(-3, 3)) for _ in range(g.dim))
                           for _ in range(3))
                lhs = g.bracket(x, g.bracket(y, z))
                rhs = tuple(a + b for a, b in zip(
                    g.bracket(g.bracket(x, y), z),
                    g.bracket(y, g.bracket(x, z))))
                assert lhs == rhs

    def test_killing_invariance(self, rng, n2, sl2):
        for g in (n2, sl2):
            killing = killing_form(g)
            for _ in range(10):
                x, y, z = (tuple(Q(rng.randint(-3, 3)) for _ in range(g.dim))
                           for _ in range(3))
                assert killing.evaluate(g.bracket(x, y), z) == \
                    killing.evaluate(x, g.bracket(y, z))

    def test_radical_additivity(self, sl2, n2, h1):
        for g1, g2 in ((sl2, n2), (h1, sl2), (n2, h1)):
            r1 = solvable_radical(g1)
            r2 = solvable_radical(g2)
            total = solvable_radical(direct_sum(g1, g2))
            expected = Subspace.span(
                g1.dim + g2.dim,
                [tuple(v) + (Q(0),) * g2.dim for v in r1.basis.data] +
                [(Q(0),) * g1.dim + tuple(v) for v in r2.basis.data])
            assert total == expected

    def test_center_inside_radical_for_non_semisimple(self, n2, h1):
        for g in (n2, h1, direct_sum(n2, abelian(2))):
            assert solvable_radical(g).contains_subspace(center(g))


class TestQuotients:
    def test_quotient_by_center_of_h1(self, h1):
        z = center(h1)
        q, proj, lift = quotient_algebra(h1, z)
        assert q.dim == 2
        assert derived_subalgebra(q).dim == 0
        # projection-lift identity
        assert (proj @ lift) == Matrix.identity(2)

    def test_non_ideal_rejected(self, sl2):
        with pytest.raises(ValueError):
            quotient_algebra(sl2, Subspace.span(3, [unit_vector(3, 1)]))

    def test_bracket_subspace_of_ideals_is_ideal(self, n2):
        full = Subspace.full(3)
        r = solvable_radical(n2)
        assert is_ideal(n2, bracket_subspace(n2, full, r))
