from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from metlie.linalg import (Matrix, Subspace, SymmetricForm,
                           orthogonal_complement, signature, solve_affine,
                           subspace_ops, unit_vector, vector)

small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def small_matrix(rows, cols):
    return st.lists(st.lists(small_q, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Matrix)


class TestSolveAffine:
    def test_identity_case(self):
        particular, kernel = solve_affine(Matrix.identity(2), vector([1, 2]))
        assert particular == (Q(1), Q(2))
        assert kernel.dim == 0

    def test_inconsistent_system(self):
        assert solve_affine(Matrix.zeros(1, 2), vector([1])) is None

    def test_one_relation_two_unknowns(self):
        particular, kernel = solve_affine(Matrix([[1, 1]]), vector([0]))
        assert particular == (Q(0), Q(0))
        assert kernel.dim == 1

    def test_dimension_mismatch_is_usage_error(self):
        with pytest.raises(ValueError):
            solve_affine(Matrix.identity(2), vector([1, 2, 3]))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_kernel_parameterizes_solutions(self, data):
        rows = data.draw(st.integers(1, 3))
        cols = data.draw(st.integers(1, 3))
        A = data.draw(small_matrix(rows, cols))
        x = tuple(data.draw(small_q) for _ in range(cols))
        b = A.apply(x)
        particular, kernel = solve_affine(A, b)
        assert A.apply(particular) == b
        for k in kernel.basis.data:
            for t in (Q(1), Q(-2), Q(1, 2)):
                shifted = tuple(p + t * kv for p, kv in zip(particular, k))
                assert A.apply(shifted) == b


class TestSubspaces:
    def test_coordinate_lines(self):
        U = Subspace.span(2, [unit_vector(2, 0)])
        V = Subspace.span(2, [unit_vector(2, 1)])
        ops = subspace_ops(U, V)
        assert ops.sum == Subspace.full(2)
        assert ops.intersection.dim == 0
        assert ops.quotient_dim == 1

    def test_idempotence(self):
        U = Subspace.span(3, [(1, 2, 0), (0, 0, 1)])
        ops = subspace_ops(U, U)
        assert ops.sum == U
        assert ops.intersection == U
        assert ops.complement.dim == 0

    def test_skew_line_rank_oracle(self):
        U = Subspace.span(2, [unit_vector(2, 0)])
        V = Subspace.span(2, [(1, 1)])
        # oracle: rank of the stacked spanning set
        stacked = Matrix([[1, 0], [1, 1]])
        assert stacked.rank() == 2
        ops = subspace_ops(U, V)
        assert ops.intersection.dim == 0
        assert ops.sum.dim == 2

    def test_canonical_form_is_syntactic_equality(self):
        A = Subspace.span(3, [(1, 2, 3), (0, 1, 1)])
        B = Subspace.span(3, [(2, 5, 7), (3, 7, 10), (1, 2, 3)])
        assert A == B
        assert A.basis.data == B.basis.data

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.span(2, [(1, 0)]).add(Subspace.span(3, [(1, 0, 0)]))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_dimension_formula(self, data):
        n = data.draw(st.integers(1, 4))
        make_rows = st.lists(st.lists(small_q, min_size=n, max_size=n),
                             min_size=0, max_size=3)
        U = Subspace.span(n, data.draw(make_rows))
        V = Subspace.span(n, data.draw(make_rows))
        ops = subspace_ops(U, V)
        assert U.dim + V.dim == ops.sum.dim + ops.intersection.dim
        assert ops.complement.dim == ops.quotient_dim
        assert U.add(ops.complement) == ops.sum

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_preimage_under_several_maps(self, data):
        n = data.draw(st.integers(1, 4))
        rows = st.lists(st.lists(small_q, min_size=n, max_size=n),
                        min_size=0, max_size=3)
        S = Subspace.span(n, data.draw(rows))
        mats = data.draw(st.lists(small_matrix(n, n), max_size=2))
        P = S.preimage(mats)
        assert all(S.contains(a.apply(v)) for a in mats for v in P.basis.data)
        # every vector outside P leaves S under some map: P is a common
        # nullspace, so its dimension is n minus the stacked rank
        ann = S.basis.nullspace()
        stacked = [r for a in mats for r in (ann @ a).data]
        rank = Matrix.from_rows(stacked, cols=n).rank() if stacked else 0
        assert P.dim == n - rank
        assert S.preimage([]) == Subspace.full(n)


class TestOrthogonalComplement:
    def test_zero_subspace(self):
        form = SymmetricForm.euclidean(3)
        assert orthogonal_complement(Subspace.zero(3), form) == Subspace.full(3)

    def test_hyperbolic_isotropic_line(self):
        form = SymmetricForm(Matrix([[0, 1], [1, 0]]))
        U = Subspace.span(2, [unit_vector(2, 0)])
        # oracle: solve <e1, x> = x_2 = 0 directly
        assert orthogonal_complement(U, form) == U

    def test_euclidean_line_in_three_space(self):
        form = SymmetricForm.euclidean(3)
        U = Subspace.span(3, [unit_vector(3, 0)])
        expected = Subspace.span(3, [unit_vector(3, 1), unit_vector(3, 2)])
        assert orthogonal_complement(U, form) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_involution_for_nondegenerate_forms(self, data):
        n = data.draw(st.integers(1, 4))
        # random nondegenerate form: congruence transform of a signed identity
        diag = [data.draw(st.sampled_from([1, -1])) for _ in range(n)]
        P = data.draw(small_matrix(n, n).filter(lambda M: M.rank() == n))
        form = SymmetricForm(P.transpose() @ Matrix.diagonal(diag) @ P)
        U = Subspace.span(n, data.draw(
            st.lists(st.lists(small_q, min_size=n, max_size=n),
                     min_size=0, max_size=n)))
        perp = orthogonal_complement(U, form)
        assert U.dim + perp.dim == n
        assert orthogonal_complement(perp, form) == U


class TestSignature:
    def test_euclidean(self):
        assert signature(SymmetricForm.euclidean(3)) == (0, 0, 3)

    def test_hyperbolic_plane(self):
        # eigenvalues of [[0,1],[1,0]] are -1 and 1, computed by hand
        assert signature(SymmetricForm(Matrix([[0, 1], [1, 0]]))) == (1, 0, 1)

    def test_killing_form_of_sl2(self):
        # on basis H, E, F the Killing form is [[8,0,0],[0,0,4],[0,4,0]];
        # independent diagonalization: 8 on H, hyperbolic E/F pair -> (1,0,2)
        gram = Matrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
        assert signature(SymmetricForm(gram)) == (1, 0, 2)

    def test_degenerate_directions_counted(self):
        gram = Matrix([[1, 0], [0, 0]])
        assert signature(SymmetricForm(gram)) == (0, 1, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_congruence_invariance(self, data):
        n = data.draw(st.integers(1, 4))
        G = data.draw(small_matrix(n, n))
        sym = SymmetricForm(G + G.transpose())
        P = data.draw(small_matrix(n, n).filter(lambda M: M.rank() == n))
        transformed = SymmetricForm(P.transpose() @ sym.gram @ P)
        assert signature(sym) == signature(transformed)
