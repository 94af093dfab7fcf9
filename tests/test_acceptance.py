"""Acceptance suite: every criterion exact, one verdict line per criterion."""

import random
import time
from fractions import Fraction as Q

import pytest

from metlie import (Cochain, CochainComplex, Matrix, QuadraticCochain,
                    QuadraticCocycle, Representation, SymmetricForm, abelian,
                    adjoint_representation, admissibility,
                    equivalent_cocycles, inner_automorphism, is_balanced,
                    killing_form, orthogonal_complement, psi_map, pullback,
                    q_action, trivial_representation)
from metlie.catalog import (SweepBounds, base_algebra, catalog_row,
                            non_isomorphism_certificate, sweep)
from metlie.modules import filtration
from metlie.quadext import build_model

from conftest import random_cochain, random_cocycle, rotation_rep


def report(number, label, started):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number:02d} ({label}): PASS in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def swept():
    started = time.time()
    result = sweep(SweepBounds(m=2, weight_num=2, weight_den=1))
    return result, time.time() - started


def test_criterion_01_complex_correctness():
    """d∘d = 0 for all degrees over the six base algebras and three modules."""
    started = time.time()
    bases = ["n2", "r3m1", "h1", "sl2r", "su2", "R3"]
    for name in bases:
        g = base_algebra(name)
        modules = [trivial_representation(g, 1,
                                          form=SymmetricForm(Matrix([[1]])))]
        form = killing_form(g) if name in ("sl2r", "su2") else None
        modules.append(adjoint_representation(g, form=form))
        for lam in (1, 2):
            if name in ("sl2r", "su2"):
                # the rotation family factors through the abelianization,
                # which is zero here: the module degenerates to the trivial
                # two-dimensional orthogonal one
                modules.append(trivial_representation(
                    g, 2, form=SymmetricForm.euclidean(2)))
            else:
                modules.append(rotation_rep(g, [lam]))
        for rep in modules:
            cx = CochainComplex(g, rep)
            for p in range(0, g.dim + 1):
                product = cx.d_matrix(p + 1) @ cx.d_matrix(p)
                assert product.is_zero(), (name, p)
    assert time.time() - started < 5.0
    report(1, "chain complex d∘d = 0", started)


def test_criterion_02_model_jacobi_iff_cocycle():
    """build_model satisfies Jacobi exactly when (alpha, gamma) is a cocycle."""
    started = time.time()
    rng = random.Random(101)
    n2 = base_algebra("n2")
    r3m1 = base_algebra("r3m1")
    h1 = base_algebra("h1")
    pairs = [CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1)),
             CochainComplex(r3m1, rotation_rep(r3m1, [1])),
             CochainComplex(h1, rotation_rep(h1, [1], extra_trivial=1))]
    for cx in pairs:
        cocycle_count = 0
        non_cocycle_count = 0
        for trial in range(100):
            if trial % 3 == 0:
                alpha = random_cocycle(rng, cx).alpha
            else:
                alpha = random_cochain(rng, cx, 2)
            gamma = random_cochain(rng, cx, 3, scalar=True)
            # dim 3 base: C^4 = 0, so the cocycle condition is d(alpha) = 0
            is_cocycle = cx.differential(alpha).is_zero()
            if is_cocycle:
                cocycle_count += 1
            else:
                non_cocycle_count += 1
            candidate = QuadraticCocycle(cx, alpha, gamma, validate=False)
            model = build_model(candidate, force=True)
            assert (model.metric.algebra.jacobi_witness() is None) == is_cocycle
        assert cocycle_count >= 10 and non_cocycle_count >= 10
    assert time.time() - started < 30.0
    report(2, "Jacobi iff quadratic cocycle, 100 random draws x 3 pairs",
           started)


def test_criterion_03_equivalence_decision_and_psi():
    """Witness search on 50 orbits with exact Psi conjugation; fiber-shifted
    pairs are recognized as non-equivalent."""
    started = time.time()
    rng = random.Random(303)
    n2 = base_algebra("n2")
    cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
    for _ in range(50):
        z = random_cocycle(rng, cx)
        c = QuadraticCochain(random_cochain(rng, cx, 1),
                             random_cochain(rng, cx, 2, scalar=True))
        moved = q_action(z, c)
        witness = equivalent_cocycles(moved, z)
        assert witness is not None
        psi = psi_map(cx, witness)
        d_orig = build_model(z).metric
        d_moved = build_model(moved).metric
        assert psi.transpose() @ d_orig.form.gram @ psi == d_orig.form.gram
        for i in range(d_orig.dim):
            for j in range(i + 1, d_orig.dim):
                assert psi.apply(d_moved.algebra.table[i][j]) == \
                    d_orig.algebra.bracket(psi.column(i), psi.column(j))
    # non-equivalent pairs: gamma shifted by a nonzero top-degree class
    # over a class with [alpha] = 0 (the fiber there is all of C^3)
    delta = cx.cochain(3, {(0, 1, 2): [1]}, scalar=True)
    for _ in range(10):
        tau = random_cochain(rng, cx, 1)
        sigma = random_cochain(rng, cx, 2, scalar=True)
        z0 = QuadraticCocycle(cx, cx.zero_cochain(2),
                              cx.zero_cochain(3, scalar=True))
        z1 = q_action(z0, QuadraticCochain(tau, sigma))   # class [0, 0]
        shifted = QuadraticCocycle(cx, z1.alpha, z1.gamma + delta)
        assert equivalent_cocycles(z1, shifted) is None
    assert time.time() - started < 60.0
    report(3, "equivalence witnesses + exact Psi conjugation, 50 orbits",
           started)


def test_criterion_04_balancedness_cross_check(swept):
    """Socle-route admissibility equals the direct i(d) = l* computation on
    every catalog row and on the inadmissible controls."""
    started = time.time()
    result, sweep_seconds = swept
    assert result.rows, "sweep produced no rows"
    for rr in result.rows:
        assert rr.balanced == rr.admissible, \
            (rr.row.base, rr.row.variant, rr.row.params)
    by_name = {c.name: c for c in result.controls}
    assert not by_name["n2-zero-class"].admissible
    assert not by_name["h1-gamma-class"].admissible
    # the direct route on the controls agrees (recompute explicitly)
    n2 = base_algebra("n2")
    cx = CochainComplex(n2, trivial_representation(
        n2, 1, form=SymmetricForm.euclidean(1)))
    z = QuadraticCocycle(cx, cx.zero_cochain(2),
                         cx.zero_cochain(3, scalar=True))
    assert not is_balanced(build_model(z))
    h1 = base_algebra("h1")
    cxh = CochainComplex(h1, trivial_representation(
        h1, 1, form=SymmetricForm.euclidean(1)))
    gamma = cxh.cochain(3, {(0, 1, 2): [2]}, scalar=True)
    zh = QuadraticCocycle(cxh, cxh.zero_cochain(2), gamma)
    assert not is_balanced(build_model(zh))
    assert sweep_seconds < 60.0, f"sweep took {sweep_seconds:.1f}s"
    report(4, f"balancedness two-route agreement on {len(result.rows)} rows "
              f"(sweep {sweep_seconds:.1f}s)", started)


def test_criterion_05_admissibility_ground_truths():
    """The admissibility patterns for n(2), r_{3,-1}, h(1), r_{3,-2}."""
    started = time.time()
    for name in ("n2", "r3m1"):
        l = base_algebra(name)
        # (0, gamma != 0) admissible over the empty module
        empty = Representation(l, (Matrix.zeros(0, 0),) * 3,
                               form=SymmetricForm(Matrix.zeros(0, 0)),
                               module_dim=0, validate=False)
        cx0 = CochainComplex(l, empty)
        for coeff in (Q(1), Q(-1), Q(3, 7)):
            gamma = cx0.cochain(3, {(0, 1, 2): [coeff]}, scalar=True)
            z = QuadraticCocycle(cx0, cx0.zero_cochain(2), gamma)
            assert admissibility(z).admissible, (name, "gamma", coeff)
        # ([alpha] != 0, 0) admissible
        cx1 = CochainComplex(l, trivial_representation(
            l, 1, form=SymmetricForm.euclidean(1)))
        alpha = cx1.cochain(2, {(1, 2): [1]})
        z = QuadraticCocycle(cx1, alpha, cx1.zero_cochain(3, scalar=True))
        assert admissibility(z).admissible, (name, "alpha")
        # (0, 0) inadmissible
        z0 = QuadraticCocycle(cx1, cx1.zero_cochain(2),
                              cx1.zero_cochain(3, scalar=True))
        assert not admissibility(z0).admissible, (name, "zero")

    h1 = base_algebra("h1")
    cxh = CochainComplex(h1, trivial_representation(
        h1, 1, form=SymmetricForm.euclidean(1)))
    for coeff in (Q(0), Q(1), Q(-5), Q(2, 3)):
        gamma = cxh.cochain(3, {(0, 1, 2): [coeff]}, scalar=True)
        z = QuadraticCocycle(cxh, cxh.zero_cochain(2), gamma)
        assert not admissibility(z).admissible, ("h1", coeff)
    alpha = cxh.cochain(2, {(0, 2): [1]})
    z = QuadraticCocycle(cxh, alpha, cxh.zero_cochain(3, scalar=True))
    assert admissibility(z).admissible

    r3m2 = base_algebra("r3m2")
    rep = Representation(r3m2, (Matrix([[1, 0], [0, -1]]),
                                Matrix.zeros(2, 2), Matrix.zeros(2, 2)),
                         form=SymmetricForm(Matrix([[0, 1], [1, 0]])))
    cxr = CochainComplex(r3m2, rep)
    alpha = cxr.cochain(2, {(1, 2): [0, 1], (0, 2): [1, 0]})
    z = QuadraticCocycle(cxr, alpha, cxr.zero_cochain(3, scalar=True))
    assert admissibility(z).admissible
    report(5, "admissibility ground truths", started)


def test_criterion_06_index3_catalog(swept):
    """Every table row within bounds: index exactly 3, balanced, admissible,
    indecomposable per its criterion; the four stated certificate pairs are
    distinguished."""
    started = time.time()
    result, sweep_seconds = swept
    for rr in result.rows:
        assert rr.index == 3, (rr.row.base, rr.row.variant)
        assert rr.admissible and rr.balanced
        if rr.row.base != "R3":
            assert rr.indecomposable is True, (rr.row.base, rr.row.variant)
        assert rr.passed
    for fam, ok in result.family_distinct.items():
        assert ok, fam

    pairs = [
        (catalog_row("n2", "Ia", {"lam": (Q(1),)}),
         catalog_row("n2", "Ib", {"lam": (Q(1),)})),
        (catalog_row("n2", "III", {"lam": (), "r": Q(1)}),
         catalog_row("n2", "III", {"lam": (), "r": Q(2)})),
        (catalog_row("h1", "II", {"lam": ((Q(1), Q(0)),)}),
         catalog_row("h1", "II", {"lam": ((Q(2), Q(0)),)})),
        (catalog_row("R1", "III", {"lam": (), "mu": (Q(1), Q(1))}),
         catalog_row("R1", "III", {"lam": (), "mu": (Q(1), Q(2))})),
    ]
    for r1, r2 in pairs:
        assert non_isomorphism_certificate(r1, r2) == "distinct", \
            (r1.base, r1.variant)
    total = sweep_seconds + (time.time() - started)
    assert total < 180.0, f"catalog criterion took {total:.1f}s"
    report(6, f"index-3 catalog m<=2: {len(result.rows)} rows verified "
              f"(total {total:.1f}s)", started)


def test_criterion_07_poincare_duality():
    """Full-rank cup pairing H^1 x H^2 -> H^3 for the unimodular bases."""
    started = time.time()
    for name in ("n2", "r3m1", "h1"):
        g = base_algebra(name)
        for weights, trivial in (([1], 1), ([1, 2], 1), ([2], 2)):
            cx = CochainComplex(g, rotation_rep(g, weights,
                                                extra_trivial=trivial))
            h1s = cx.cohomology(1)
            h2s = cx.cohomology(2)
            h3s = cx.scalar_complex().cohomology(3)
            assert h3s.dim == 1
            assert h1s.dim == h2s.dim
            gram = Matrix([[h3s.class_coords(cx.wedge(a, b))[0]
                            for b in h2s.representatives]
                           for a in h1s.representatives], h1s.dim, h2s.dim)
            assert gram.rank() == h1s.dim, (name, weights, trivial)
    report(7, "Poincare cup pairing full rank", started)


def test_criterion_08_filtration_duality():
    """S_k(adjoint) = R_k(adjoint)^perp on ten randomized built models."""
    started = time.time()
    rng = random.Random(808)
    n2 = base_algebra("n2")
    r3m1 = base_algebra("r3m1")
    h1 = base_algebra("h1")
    built = 0
    pairs = [CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1)),
             CochainComplex(r3m1, rotation_rep(r3m1, [2])),
             CochainComplex(h1, trivial_representation(
                 h1, 2, form=SymmetricForm.euclidean(2))),
             CochainComplex(abelian(2), trivial_representation(
                 abelian(2), 1, form=SymmetricForm.euclidean(1)))]
    while built < 10:
        cx = pairs[built % len(pairs)]
        z = random_cocycle(rng, cx)
        metric = build_model(z).metric
        filt = filtration(metric.adjoint_module())
        depth = max(len(filt.socles), len(filt.radicals))
        for k in range(depth):
            assert filt.socle(k) == orthogonal_complement(filt.radical(k),
                                                          metric.form)
        built += 1
    report(8, "S_k = R_k^perp on 10 randomized models", started)


def test_criterion_09_inner_automorphism_triviality():
    """Pullback along exp(ad L), L in the nilpotency radical, fixes classes."""
    started = time.time()
    rng = random.Random(909)
    n2 = base_algebra("n2")
    h1 = base_algebra("h1")
    cases = []
    cxn = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
    alpha = cxn.cochain(2, {(1, 2): [0, 0, 1]})
    cases.append((cxn, QuadraticCocycle(cxn, alpha,
                                        cxn.zero_cochain(3, scalar=True))))
    cxh = CochainComplex(h1, trivial_representation(
        h1, 1, form=SymmetricForm.euclidean(1)))
    alpha_h = cxh.cochain(2, {(0, 2): [1]})
    cases.append((cxh, QuadraticCocycle(cxh, alpha_h,
                                        cxh.zero_cochain(3, scalar=True))))
    for cx, z in cases:
        for idx in (1, 2):
            for scale in (Q(1), Q(-2), Q(1, 2)):
                L = tuple(scale if t == idx else Q(0) for t in range(3))
                F = inner_automorphism(cx, L)
                moved = pullback(F, z)
                assert equivalent_cocycles(moved, z) is not None
    assert time.time() - started < 10.0
    report(9, "inner automorphisms act trivially", started)


def test_criterion_10_betti_numbers():
    """dim H^1(h(1)) = 2, dim H^2 = 2, dim H^3 = 1 with trivial coefficients."""
    started = time.time()
    h1 = base_algebra("h1")
    cx = CochainComplex(h1, trivial_representation(
        h1, 1, form=SymmetricForm(Matrix([[1]]))))
    dims = [cx.cohomology(p).dim for p in range(4)]
    assert dims[1] == 2
    assert dims[2] == 2
    assert dims[3] == 1
    report(10, "Betti numbers of h(1)", started)
