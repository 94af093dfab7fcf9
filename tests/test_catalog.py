import hashlib
from fractions import Fraction as Q

import pytest

from metlie import (Matrix, Subspace, adjoint_representation,
                    admissibility, center, documents, nilpotency_radical,
                    signature)
from metlie.catalog import (_MAX_SWEEP_ROWS, RepFamilySpec, RowConstraintError,
                            SweepBounds, _row_count, base_algebra, build_rep,
                            casimir, catalog_row, enumerate_rows,
                            k_index_sets, non_isomorphism_certificate,
                            run_controls, run_row, su2_odd_irrep,
                            su2_quaternionic_irrep, sweep)
from metlie.linalg import unit_vector


class TestBaseAlgebras:
    def test_n2_nilpotency_radical(self, n2):
        assert nilpotency_radical(n2) == \
            Subspace.span(3, [unit_vector(3, 1), unit_vector(3, 2)])

    def test_r3m1_ad_weights(self, r3m1):
        # ad(X) on the radical is diag(1, -1) on the Y, Z basis
        adx = r3m1.ad(0)
        assert adx.apply(unit_vector(3, 1)) == (Q(0), Q(1), Q(0))
        assert adx.apply(unit_vector(3, 2)) == (Q(0), Q(0), Q(-1))

    def test_r3m2_ad_weights(self):
        l = base_algebra("r3m2")
        adx = l.ad(0)
        assert adx.apply(unit_vector(3, 1)) == (Q(0), Q(-2), Q(0))
        assert adx.apply(unit_vector(3, 2)) == (Q(0), Q(0), Q(1))

    def test_h1_center(self, h1):
        assert center(h1) == Subspace.span(3, [unit_vector(3, 2)])

    def test_su2_cyclic(self, su2):
        assert su2.bracket(unit_vector(3, 0), unit_vector(3, 1)) == \
            (Q(0), Q(0), Q(1))
        assert su2.bracket(unit_vector(3, 1), unit_vector(3, 2)) == \
            (Q(1), Q(0), Q(0))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            base_algebra("nope")


class TestRepFamilies:
    def test_rho_plus_single_weight(self, n2):
        rep = build_rep([RepFamilySpec("plus", ((Q(1), Q(0), Q(0)),))], n2)
        assert rep.action[0] == Matrix([[0, -1], [1, 0]])
        assert rep.action[1].is_zero() and rep.action[2].is_zero()
        assert signature(rep.form) == (0, 0, 2)

    def test_rho_doubleprime_displayed_matrix(self):
        l = base_algebra("R1")
        rep = build_rep([RepFamilySpec("doubleprime",
                                       (((Q(1),), (Q(2),)),))], l)
        assert rep.action[0] == Matrix([[0, -2, 1, 0], [2, 0, 0, 1],
                                        [1, 0, 0, -2], [0, 1, 2, 0]])
        assert signature(rep.form) == (2, 0, 2)
        assert rep.violation() is None

    def test_rho_prime_skew_for_signed_form(self):
        l = base_algebra("R2")
        rep = build_rep([RepFamilySpec("prime", ((Q(1), Q(0)),))], l)
        gram = rep.form.gram
        for a in rep.action:
            assert (a.transpose() @ gram + gram @ a).is_zero()

    def test_sigma1_is_the_adjoint_representation(self, su2):
        rep = su2_odd_irrep(1, su2)
        assert rep.module_dim == 3
        assert rep.violation() is None
        # dimension-3 orthogonal irrep of su(2) is the adjoint one; the
        # Casimir eigenvalue matches the adjoint computation exactly
        ad = adjoint_representation(su2)
        total = Matrix.zeros(3, 3)
        for a in ad.action:
            total = total + a @ a
        assert casimir(rep) == total[0, 0]

    def test_sigma_k_dimensions_and_casimir(self, su2):
        for k in (1, 2, 3):
            rep = su2_odd_irrep(k, su2)
            assert rep.module_dim == 2 * k + 1
            assert rep.violation() is None
            value = casimir(rep)
            assert value is not None
            assert value == -Q(k * (k + 1))
            neg, zero, pos = signature(rep.form)
            assert neg == 0 and zero == 0

    def test_sigma_prime_k_dimensions_and_casimir(self, su2):
        for k in (1, 2):
            rep = su2_quaternionic_irrep(k, su2)
            assert rep.module_dim == 4 * k
            assert rep.violation() is None
            value = casimir(rep)
            assert value is not None
            # spin j = (2k-1)/2: eigenvalue -j(j+1)
            j = Q(2 * k - 1, 2)
            assert value == -j * (j + 1)
            neg, zero, pos = signature(rep.form)
            assert neg == 0 and zero == 0


class TestKIndexSets:
    def test_small_values(self):
        assert k_index_sets(0) == [((), ())]
        assert k_index_sets(1) == []
        assert k_index_sets(2) == []
        assert k_index_sets(3) == [((1,), ())]
        assert k_index_sets(4) == [((), (1,))]
        assert k_index_sets(7) == [((1,), (1,)), ((3,), ())]

    def test_defining_constraint(self):
        for m in range(0, 12):
            for odd, quat in k_index_sets(m):
                assert sum(2 * k + 1 for k in odd) + \
                    sum(4 * k for k in quat) == m
                assert tuple(sorted(odd)) == odd
                assert tuple(sorted(quat)) == quat


class TestRows:
    def test_n2_Ia_minimal(self):
        row = catalog_row("n2", "Ia", {"lam": ()})
        assert row.model.metric.dim == 6
        assert row.model.metric.index() == 3
        assert admissibility(row.cocycle).admissible

    def test_psl_c_zero(self):
        row = catalog_row("sl2r", "c", {"c": Q(0)})
        assert row.model.metric.index() == 3
        assert row.model.metric.dim == 6

    def test_pr1_II_minimal(self):
        row = catalog_row("R1", "II", {"lam": ()})
        assert row.model.metric.index() == 3
        # a = R^{2,0}: rotation with the negative-definite form
        assert signature(row.cocycle.complex.rep.form) == (2, 0, 0)

    def test_row_constraints_enforced(self):
        with pytest.raises(RowConstraintError):
            catalog_row("n2", "Ia", {"lam": (Q(2), Q(1))})   # unsorted
        with pytest.raises(RowConstraintError):
            catalog_row("n2", "III", {"lam": (), "r": Q(-1)})
        with pytest.raises(RowConstraintError):
            catalog_row("R1", "I", {"lam": (), "nu": Q(0)})
        with pytest.raises(RowConstraintError):
            catalog_row("R1", "III", {"lam": (), "mu": (Q(1), Q(1, 2))})
        with pytest.raises(RowConstraintError):
            catalog_row("su2", "ck", {"m": 3, "k": ((), (1,)), "c": 0})

    def test_pipeline_fields(self):
        result = run_row("n2", "II", {"lam": (Q(1),)})
        assert result.index == 3
        assert result.balanced and result.admissible
        assert result.indecomposable is True
        assert result.passed

    def test_su2_row_with_module(self):
        result = run_row("su2", "ck", {"m": 3, "k": ((1,), ()), "c": Q(1)})
        assert result.index == 3
        assert result.admissible
        assert result.indecomposable is True

    def test_r3_rows_conditional(self):
        result = run_row("R3", "gamma", {"lam": (), "gamma": Q(1)})
        assert result.index == 3 and result.admissible
        assert result.conditional
        result2 = run_row("R3", "a3", {"lam": ()})
        assert result2.index == 3 and result2.admissible


class TestCertificates:
    def test_gamma_sign_split(self):
        a = catalog_row("n2", "Ia", {"lam": (Q(1),)})
        b = catalog_row("n2", "Ib", {"lam": (Q(1),)})
        assert non_isomorphism_certificate(a, b) == "distinct"

    def test_n2_III_r_values(self):
        r1 = catalog_row("n2", "III", {"lam": (), "r": Q(1)})
        r2 = catalog_row("n2", "III", {"lam": (), "r": Q(2)})
        assert non_isomorphism_certificate(r1, r2) == "distinct"
        r1b = catalog_row("n2", "III", {"lam": (), "r": Q(1)})
        assert non_isomorphism_certificate(r1, r1b) == "equal"

    def test_h1_II_gram_invariant(self):
        a = catalog_row("h1", "II", {"lam": ((Q(1), Q(0)),)})
        b = catalog_row("h1", "II", {"lam": ((Q(2), Q(0)),)})
        c = catalog_row("h1", "II", {"lam": ((Q(-1), Q(0)),)})
        assert non_isomorphism_certificate(a, b) == "distinct"
        # signed permutation: lambda and -lambda give the same Gram matrix
        assert non_isomorphism_certificate(a, c) == "equal"

    def test_h1_I_scaling_relation(self):
        # (delta lambda(X), +-delta^-2 lambda(Y)) relation: lambda = (1,0)
        # and (2,0) are isomorphic parameters in family I
        a = catalog_row("h1", "I", {"lam": ((Q(1), Q(0)),)})
        b = catalog_row("h1", "I", {"lam": ((Q(2), Q(0)),)})
        assert non_isomorphism_certificate(a, b) == "equal"

    def test_pr1_III_mu(self):
        p1 = catalog_row("R1", "III", {"lam": (), "mu": (Q(1), Q(1))})
        p2 = catalog_row("R1", "III", {"lam": (), "mu": (Q(1), Q(2))})
        assert non_isomorphism_certificate(p1, p2) == "distinct"

    def test_cross_base_distinct(self):
        a = catalog_row("n2", "II", {"lam": ()})
        b = catalog_row("r3m1", "I", {"lam": ()})
        assert non_isomorphism_certificate(a, b) == "distinct"

    def test_r3_incomparable(self):
        a = catalog_row("R3", "gamma", {"lam": (), "gamma": Q(1)})
        b = catalog_row("R3", "gamma", {"lam": (), "gamma": Q(2)})
        assert non_isomorphism_certificate(a, b) == "incomparable"


class TestControlsAndSweep:
    def test_controls(self):
        controls = run_controls()
        by_name = {c.name: c for c in controls}
        assert not by_name["n2-zero-class"].admissible
        assert not by_name["h1-gamma-class"].admissible
        assert by_name["r3m2-example"].admissible
        assert by_name["r3m2-example"].index == 4
        assert all(c.passed for c in controls)

    def test_small_sweep(self):
        report = sweep(SweepBounds(m=1, weight_num=2, weight_den=1))
        assert report.all_passed
        assert all(r.index == 3 for r in report.rows)
        assert all(r.admissible for r in report.rows)
        for r in report.rows:
            base_dim = r.row.cocycle.complex.algebra.dim
            module_dim = r.row.cocycle.complex.module_dim
            assert r.row.model.metric.dim == 2 * base_dim + module_dim
        for fam, distinct in report.family_distinct.items():
            assert distinct, fam
        bases = {r.row.base for r in report.rows}
        assert {"n2", "r3m1", "h1", "sl2r", "su2", "R1", "R2", "R3"} <= bases

    @pytest.mark.parametrize("m, num, den", [
        (0, 1, 1), (0, 5, 7), (1, 1, 1), (1, 2, 3), (2, 1, 1), (2, 2, 1),
        (2, 3, 4), (3, 2, 1), (3, 1, 2), (4, 1, 1), (5, 2, 2), (8, 2, 1),
    ])
    def test_row_count_without_listing(self, m, num, den):
        bounds = SweepBounds(m, num, den)
        assert _row_count(m, num, den) == len(enumerate_rows(bounds))

    def test_bounds_over_the_cap_refused(self):
        assert _row_count(8, 2, 1) == 3460
        assert _row_count(11, 2, 1) == 8765 <= _MAX_SWEEP_ROWS
        SweepBounds(11, 2, 1)
        assert _row_count(12, 2, 1) > _MAX_SWEEP_ROWS
        with pytest.raises(ValueError, match=r"\$\.bounds\.m"):
            SweepBounds(12, 2, 1)


class TestCatalogDocuments:
    # sha256 of the catalog_row documents below, one after another, each
    # followed by a newline; any change to a row's model, cocycle,
    # certificate or parameters changes it
    DIGEST = "81d0fa8f584188b261e5001a1b3eb080e350856d91183afeaecd26c50ff1cf58"

    def test_documents_unchanged(self):
        specs = enumerate_rows(SweepBounds(m=2))
        assert len(specs) == 175
        # rows the sweep never builds
        specs += [
            ("R3", "a1", {"lam": ((Q(1), Q(0), Q(0)),)}),
            ("R3", "gamma", {"lam": ((Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)),
                                     (Q(0), Q(0), Q(1)),
                                     (Q(1), Q(1), Q(0)))}),
            ("n2", "III", {"lam": (Q(1),), "r": Q(1, 3)}),
            ("R1", "I", {"lam": (Q(1),), "nu": Q(-2)}),
        ]
        digest = hashlib.sha256()
        for base, variant, params in specs:
            row = catalog_row(base, variant, params)
            digest.update(documents.dump_catalog_row(row).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST
