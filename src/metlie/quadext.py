"""Standard-model metric Lie algebras and balancedness/admissibility.

Builds d(l, a, rho; alpha, gamma) on l* + a + l with the hyperbolic-plus-a
form, the modified model with an extra invariant form on l, and the
unipotent isometries Psi(tau, sigma), each assembled from blocks (rho,
alpha, gamma, the adjoint matrices of l and the Gram matrix of a).  Then
the balancedness test through the canonical isotropic ideal, the
per-level admissibility conditions evaluated through the socles of the
subquotients h_k/h_k^perp (read as preimages under the radical operators
of the model's adjoint module), and decidable indecomposability for the
base-algebra shapes where complete case analysis is available.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import polynomials as poly
from .cohomology import (Cochain, CochainComplex, NotACocycleError,
                         QuadraticCochain, QuadraticCocycle,
                         equivalent_cocycles)
from .lie import (InternalCheckError, LieAlgebra, center,
                  derived_subalgebra)
from .linalg import (Matrix, Q, Subspace, SymmetricForm, Vector,
                     block_coordinates, block_diagonal, lex_subsets,
                     orthogonal_complement, stack_rows, unit_vector, vec_add,
                     vec_scale, zero_vector)
from .metric import MetricLieAlgebra, canonical_ideals, invariance_witness
from .modules import (Representation, adjoint_representation, filtration,
                      invariant_split, is_semisimple)


@dataclass(frozen=True)
class StandardModel:
    metric: MetricLieAlgebra
    complex: CochainComplex
    alpha: Cochain
    gamma: Cochain
    dual_block: range
    module_block: range
    base_block: range

    @property
    def cocycle(self) -> QuadraticCocycle:
        return QuadraticCocycle(self.complex, self.alpha, self.gamma,
                                validate=False)


def _grid(n: int, m: int, blocks) -> Matrix:
    """The matrix on l* + a + l (block sizes n, m, n) with the given 3 x 3
    blocks, None standing for a zero block."""
    sizes = (n, m, n)
    return stack_rows([functools.reduce(Matrix.hstack, (
        Matrix.zeros(r, c) if b is None else b for b, c in zip(row, sizes)))
        for row, r in zip(blocks, sizes)], 2 * n + m)


def _model_ads(cx: CochainComplex, alpha: Cochain,
               gamma: Cochain) -> List[Matrix]:
    """ad(Z_a), ad(A_s), ad(L_i) on l* + a + l, from blocks.

    With ρ_i = ρ(e_i), G the Gram matrix of a, α_i the m x n matrix with
    columns α(e_i, e_j) and Γ_i the n x n matrix with Γ_i[k][j] =
    γ(e_i, e_j, e_k),

        ad(L_i) = [[-ad(e_i)ᵀ, -(G α_i)ᵀ, Γ_i],
                   [    0,         ρ_i,   α_i],
                   [    0,          0,  ad(e_i)]]:

    L_i acts on l* coadjointly and on a by ρ, [L_i, A_t] has the l*-part
    -<A_t, α(e_i, .)>, and [L_i, L_j] = γ(e_i, e_j, .) + α(e_i, e_j) +
    [e_i, e_j].  For y in l* + a, column L_i of ad(y) is minus column y of
    ad(L_i), and the only other brackets are [A_s, A_t] = <ρ(.)A_s, A_t>
    in l*, read for s < t.
    """
    l, rep = cx.algebra, cx.rep
    n, m = l.dim, rep.module_dim
    N = 2 * n + m
    G = rep.form.gram
    ad_L = []
    for i in range(n):
        ad_i = l.ad(i)
        alpha_i = Matrix.from_columns(
            [alpha.eval_indices((i, j)) for j in range(n)], rows=m)
        gamma_i = Matrix.from_columns(
            [[gamma.eval_indices((i, j, k))[0] for k in range(n)]
             for j in range(n)], rows=n)
        ad_L.append(_grid(n, m, (
            (-ad_i.transpose(), -(G @ alpha_i).transpose(), gamma_i),
            (None, rep.action[i], alpha_i),
            (None, None, ad_i))))
    # [A_s, A_t] at Z_i, read for s < t: entry (s, t) of Uᵀ - U, with U
    # the part of Gρ_i below the diagonal
    lower = [Matrix([[x if c < r else 0 for c, x in enumerate(row)]
                     for r, row in enumerate((G @ a).data)], m, m)
             for a in rep.action]
    aa = [u.transpose() - u for u in lower]
    ads = []
    zero = Matrix.zeros(N, n + m)
    for y in range(n + m):
        left = zero
        if y >= n:
            block = Matrix.from_rows([b.row(y - n) for b in aa], cols=m)
            left = stack_rows((Matrix.zeros(n, n).hstack(block),
                               Matrix.zeros(n + m, n + m)), n + m)
        right = Matrix.from_columns([a.column(y) for a in ad_L], rows=N)
        ads.append(left.hstack(-right))
    return ads + ad_L


def _model_form(cx: CochainComplex,
                ip_l: Optional[SymmetricForm] = None) -> SymmetricForm:
    n, m = cx.algebra.dim, cx.rep.module_dim
    one = Matrix.identity(n)
    return SymmetricForm(_grid(n, m, (
        (None, None, one), (None, cx.rep.form.gram, None),
        (one, None, None if ip_l is None else ip_l.gram))))


def build_model(z: QuadraticCocycle, force: bool = False) -> StandardModel:
    """Metric Lie algebra d on l* + a + l from a quadratic cocycle.

    With ``force`` the adjoint matrices are assembled without any
    validation, so the Jacobi test can be run on non-cocycle data.
    """
    cx = z.complex
    if cx.rep.form is None:
        raise ValueError("standard model needs an orthogonal module")
    n, m = cx.algebra.dim, cx.rep.module_dim
    algebra = LieAlgebra._from_ad(_model_ads(cx, z.alpha, z.gamma),
                                  validate=not force)
    metric = MetricLieAlgebra(algebra, _model_form(cx), validate=not force)
    return StandardModel(metric, cx, z.alpha, z.gamma,
                         dual_block=range(0, n),
                         module_block=range(n, n + m),
                         base_block=range(n + m, 2 * n + m))


def build_modified(z: QuadraticCocycle, ip_l: SymmetricForm
                   ) -> Tuple[StandardModel, Matrix, StandardModel]:
    """Model with form <,> + ip_l on the base block.

    Returns (modified model, equivalence matrix, standard target model);
    the matrix is an isometric isomorphism onto the standard model whose
    gamma is shifted by -1/2 ip_l([.,.], .).
    """
    cx = z.complex
    l = cx.algebra
    if ip_l.dim != l.dim:
        raise ValueError("ip_l has the wrong dimension")
    # ip_l may be degenerate (the zero form is allowed), so only invariance
    bad = invariance_witness(l, ip_l)
    if bad is not None:
        raise ValueError(f"ip_l is not invariant (triple ({bad[0]},{bad[1]},"
                         f"{bad[2]}))")
    n, m = l.dim, cx.rep.module_dim
    N = 2 * n + m
    algebra = LieAlgebra._from_ad(_model_ads(cx, z.alpha, z.gamma),
                                  validate=True)
    metric = MetricLieAlgebra(algebra, _model_form(cx, ip_l), validate=True)
    modified = StandardModel(metric, cx, z.alpha, z.gamma,
                             range(0, n), range(n, n + m), range(n + m, N))

    # gamma'(x,y,w) = gamma(x,y,w) - 1/2 ip_l([x,y], w), and
    # ip_l([e_i, e_j], e_k) is entry (k, j) of ip_l·ad(e_i)
    pairings = [ip_l.gram @ l.ad(i) for i in range(n)]
    shift = {(i, j, k): (Q(-1, 2) * pairings[i][k, j],)
             for (i, j, k) in lex_subsets(n, 3)}
    gamma_target = z.gamma + Cochain.from_values(n, 3, 1, shift)
    target = build_model(QuadraticCocycle(cx, z.alpha, gamma_target))

    # Z+A+L  ->  Z + 1/2 ip_l(L, .) + A + L
    phi = _grid(n, m, ((Matrix.identity(n), None, ip_l.gram.scale(Q(1, 2))),
                       (None, Matrix.identity(m), None),
                       (None, None, Matrix.identity(n))))

    _assert_isometric_isomorphism(modified.metric, target.metric, phi)
    return modified, phi, target


def _assert_isometric_isomorphism(src: MetricLieAlgebra, dst: MetricLieAlgebra,
                                  phi: Matrix):
    if phi.transpose() @ dst.form.gram @ phi != src.form.gram:
        raise InternalCheckError("claimed equivalence is not an isometry")
    # phi[e_i, y] = [phi e_i, phi y] for every y
    for i in range(src.dim):
        if phi @ src.algebra.ad(i) != \
                dst.algebra.ad_vector(phi.column(i)) @ phi:
            raise InternalCheckError(
                "claimed equivalence is not a Lie homomorphism")


def psi_map(cx: CochainComplex, c: QuadraticCochain) -> Matrix:
    """Unipotent isometry Psi(tau, sigma) of the standard form on l* + a + l.

    Psi(tau, sigma) maps the model of z·(tau, sigma) isomorphically onto the
    model of z, and is a group homomorphism in (tau, sigma).
    """
    rep = cx.rep
    n, m = cx.algebra.dim, rep.module_dim
    tau, sigma = c.tau, c.sigma
    tau_mat = Matrix.from_columns(tuple(tau.value((i,)) for i in range(n)),
                                  rows=m)
    tau_star = (rep.form.gram @ tau_mat).transpose()   # a -> l*
    sigma_bar = Matrix(tuple(tuple(sigma.eval_indices((j, i))[0]
                                   for j in range(n)) for i in range(n)), n, n)
    corner = sigma_bar - (tau_star @ tau_mat).scale(Q(1, 2))   # l -> l*
    return _grid(n, m, ((Matrix.identity(n), -tau_star, corner),
                        (None, Matrix.identity(m), tau_mat),
                        (None, None, Matrix.identity(n))))


@dataclass(frozen=True)
class LevelConditions:
    """(A_k) and (B_k) at one level.

    ``socle`` is the socle of d_k = h_k/h_k^perp lifted to h_k, a subspace
    of d; ``witness`` is that lift when (A_k) fails and the a-block P of
    the socle of M_k when (B_k) fails.
    """
    k: int
    a_holds: bool
    b_holds: bool
    witness: Optional[Subspace]
    socle: Subspace
    b_subspace: Subspace


@dataclass(frozen=True)
class AdmissibilityReport:
    rho_semisimple: bool
    per_k: Tuple[LevelConditions, ...]
    b0_prime: bool
    admissible: bool
    regularly_admissible: bool


def is_balanced(model: StandardModel) -> bool:
    """Direct route: the canonical isotropic ideal must equal the l* block."""
    ids = canonical_ideals(model.metric)
    dual = Subspace.span(model.metric.dim,
                         [unit_vector(model.metric.dim, a) for a in
                          model.dual_block])
    return ids.isotropic == dual


def admissibility(z: QuadraticCocycle,
                  model: Optional[StandardModel] = None) -> AdmissibilityReport:
    """Socle-route conditions per level, cross-checked against the direct
    balancedness computation and the explicit level-0 linear systems."""
    cx = z.complex
    l = cx.algebra
    rep = cx.rep
    rho_ss = is_semisimple(rep)

    if model is None:
        model = build_model(z)
    elif model.alpha != z.alpha or model.gamma != z.gamma:
        raise ValueError("supplied model was built from different data")
    d = model.metric
    ad_d = d.adjoint_module()
    # the radical operators of d's adjoint module serve every level; the
    # direct route below reads the same filtration
    ops = filtration(ad_d).operators
    base_filt = filtration(adjoint_representation(l))

    per_k: List[LevelConditions] = []
    k = 0
    while True:
        r_k = base_filt.radical(k)
        if r_k.dim == 0:
            break
        level = _level_conditions(z, model, ad_d, ops, r_k, k)
        per_k.append(level)
        k += 1

    b0p = per_k[0].b_subspace.dim == 0 if per_k else True
    admissible = rho_ss and all(lv.a_holds and lv.b_holds for lv in per_k)
    regularly = admissible and b0p

    direct = is_balanced(model)
    if direct != admissible:
        raise InternalCheckError(
            f"socle-route admissibility ({admissible}) disagrees with the "
            f"direct canonical-ideal computation ({direct})")
    if per_k:
        a0, b0, b0p_explicit = _level0_explicit(z, rho_ss)
        if a0 != per_k[0].a_holds:
            raise InternalCheckError("explicit (A_0) disagrees with socle route")
        if b0 is not None and b0 != per_k[0].b_holds:
            raise InternalCheckError("explicit (B_0) disagrees with socle route")
        if b0p_explicit is not None and b0p_explicit != b0p:
            raise InternalCheckError("explicit (B_0') disagrees with socle route")
    return AdmissibilityReport(rho_ss, tuple(per_k), b0p, admissible, regularly)


def _level_conditions(z: QuadraticCocycle, model: StandardModel,
                      ad_d: Representation, ops: Tuple[Matrix, ...],
                      r_k: Subspace, k: int) -> LevelConditions:
    cx = z.complex
    n, m = cx.algebra.dim, cx.rep.module_dim
    d = model.metric
    N = d.dim

    # l* + a and h_k = l* + a + r_k, in reduced echelon form as they stand
    la_block = Matrix.identity(n + m)
    la = Subspace(N, block_diagonal((la_block, Matrix.zeros(0, n))))
    h_k = Subspace(N, block_diagonal((la_block, r_k.basis)))
    h_perp = orthogonal_complement(h_k, d.form)
    if not h_k.contains_subspace(h_perp):
        raise InternalCheckError("h_k is not coisotropic")

    # Everything is read in d itself, with no complement or lift of the
    # subquotient d_k = h_k/h_k^perp: h_k contains l* + a, so h_k^perp lies
    # in (l* + a)^perp = l* (also for the modified forms, whose l-l block
    # pairs nothing with l* + a).  So l* + a is the whole preimage of M_k
    # in h_k, and any lift of a vector of d_k has the same a-block.
    socle = _lifted_socle(ops, h_k, h_perp)
    if not ad_d.is_submodule(socle):
        raise InternalCheckError("level socle is not a submodule")
    a_holds = la.contains_subspace(socle)

    socle_Mk = la.intersect(socle)
    if not ad_d.is_submodule(socle_Mk):
        raise InternalCheckError("level socle of M_k is not a submodule")
    P = Subspace.span(m, [v[n:n + m] for v in socle_Mk.basis.data])
    b_holds = cx.rep.form.restrict(P).is_nondegenerate()

    witness = None
    if not a_holds:
        witness = socle
    elif not b_holds:
        witness = P
    return LevelConditions(k, a_holds, b_holds, witness, socle, P)


def _lifted_socle(ops: Tuple[Matrix, ...], h_k: Subspace,
                  h_perp: Subspace) -> Subspace:
    """The socle of d_k = h_k/h_k^perp lifted to h_k:
    {v in h_k : T v ⊆ h_k^perp}."""
    return h_k.intersect(h_perp.preimage(ops))


def _rho_kernel(rep: Representation) -> Subspace:
    """{x in l : rho(x) = 0}."""
    l = rep.algebra
    m = rep.module_dim
    if l.dim == 0:
        return Subspace.zero(0)
    cols = []
    for i in range(l.dim):
        cols.append(tuple(rep.action[i][r, c]
                          for r in range(m) for c in range(m)))
    mat = Matrix.from_columns(cols, rows=m * m) if m else Matrix.zeros(0, l.dim)
    return Subspace(l.dim, mat.nullspace().rref()[0])


def _level0_explicit(z: QuadraticCocycle, rho_ss: bool):
    """Explicit (A_0), (B_0), (B_0') linear systems.

    (B_0)/(B_0') need the invariant split, so they are only evaluated for
    semisimple rho; None marks them skipped.
    """
    cx = z.complex
    l = cx.algebra
    rep = cx.rep
    n, m = l.dim, rep.module_dim

    zker = center(l).intersect(_rho_kernel(rep))
    r = zker.dim
    a0_holds = True
    if r > 0:
        # unknowns: c (r), A0 (m), Z0 (n)
        unknowns = r + m + n
        rows = []
        for i in range(n):
            # alpha(e_i, L0) - rho(e_i) A0 = 0
            for t in range(m):
                row = [Q(0)] * unknowns
                for s, w in enumerate(zker.basis.data):
                    total = Q(0)
                    for b, wb in enumerate(w):
                        if wb != 0:
                            total += wb * z.alpha.eval_indices((i, b))[t]
                    row[s] = total
                for u in range(m):
                    row[r + u] = -rep.action[i][t, u]
                rows.append(row)
            # gamma(e_i, L0, e_j) + <A0, alpha(e_i, e_j)> - Z0([e_i, e_j]) = 0
            for j in range(n):
                row = [Q(0)] * unknowns
                for s, w in enumerate(zker.basis.data):
                    total = Q(0)
                    for b, wb in enumerate(w):
                        if wb != 0:
                            total += wb * z.gamma.eval_indices((i, b, j))[0]
                    row[s] = total
                av = z.alpha.eval_indices((i, j))
                gav = rep.form.gram.apply(av)
                for u in range(m):
                    row[r + u] = gav[u]
                for b in range(n):
                    row[r + m + b] = -l.ad(i)[b, j]
                rows.append(row)
        system = Matrix.from_rows(tuple(rows), cols=unknowns)
        sol_space = system.nullspace()
        # (A_0) holds iff the L0-projection of the solution space vanishes
        a0_holds = all(all(v[s] == 0 for s in range(r))
                       for v in sol_space.data)

    if not rho_ss:
        return a0_holds, None, None
    inv, img = invariant_split(rep)
    W = alpha0_kernel_image(z)
    b0 = rep.form.restrict(W).is_nondegenerate()
    b0p = W == inv
    return a0_holds, b0, b0p


def alpha0_kernel_image(z: QuadraticCocycle) -> Subspace:
    """Invariant-part image alpha_0(ker [.,.]) inside a^l.

    The projection of alpha to a^l restricted to the kernel of the bracket
    map on 2-vectors; unchanged along the class, and exactly the subspace
    tested by the level-0 nondegeneracy condition.
    """
    cx = z.complex
    l = cx.algebra
    rep = cx.rep
    n, m = l.dim, rep.module_dim
    inv, img = invariant_split(rep)
    # projection onto a^l along rho(l)a
    if inv.dim + img.dim != m:
        raise InternalCheckError("invariant split is not a direct sum")
    proj0 = inv.basis.transpose() @ \
        block_coordinates((inv.basis.data, img.basis.data), 0, m)
    pairs = lex_subsets(n, 2)
    if not pairs:
        return Subspace.zero(m)
    # combinations of the pairs (e_i, e_j) that the bracket kills, and the
    # values alpha(e_i, e_j) as columns: the rows of kernel·(proj0·values)ᵀ
    kernel = Matrix.from_columns([l.ad(i).column(j) for (i, j) in pairs],
                                 rows=n).nullspace()
    values = Matrix.from_columns([z.alpha.value(p) for p in pairs], rows=m)
    return Subspace.row_space(kernel @ (proj0 @ values).transpose())


def bk_system_solvable(z: QuadraticCocycle, k: int, b: Subspace) -> bool:
    """Secondary oracle: does Hom(R_k(l), a) contain Phi with
    <alpha(L,K), B> = <rho(L)Phi(K) - Phi([L,K]), B> for all basis L, K, B in b?
    """
    cx = z.complex
    l = cx.algebra
    rep = cx.rep
    n, m = l.dim, rep.module_dim
    base_filt = filtration(adjoint_representation(l))
    r_k = base_filt.radical(k)
    rk_basis = r_k.basis.data
    unknowns = len(rk_basis) * m   # Phi columns over the R_k basis
    rows = []
    rhs = []
    for i in range(n):
        for kk, Kvec in enumerate(rk_basis):
            alpha_val = zero_vector(m)
            for b_idx, cval in enumerate(Kvec):
                if cval != 0:
                    alpha_val = vec_add(alpha_val,
                                        vec_scale(cval,
                                                  z.alpha.eval_indices((i, b_idx))))
            bracket = l.ad(i).apply(Kvec)
            bracket_coords = r_k.coordinates(bracket)
            if bracket_coords is None:
                raise InternalCheckError("R_k is not an ideal")
            for B in b.basis.data:
                gB = rep.form.gram.apply(B)
                row = [Q(0)] * unknowns
                # + <rho(e_i) Phi(K_kk), B>
                for u in range(m):
                    col_val = rep.action[i].column(u)
                    row[kk * m + u] += sum(x * y for x, y in zip(col_val, gB))
                # - <Phi([e_i, K]), B>
                for s, coeff in enumerate(bracket_coords):
                    if coeff != 0:
                        for u in range(m):
                            row[s * m + u] -= coeff * gB[u]
                rows.append(row)
                rhs.append(sum(x * y for x, y in zip(alpha_val, gB)))
    if not rows:
        return True
    system = Matrix.from_rows(tuple(rows), cols=unknowns)
    return system.solve(tuple(rhs)) is not None


@dataclass(frozen=True)
class IndecomposabilityVerdict:
    indecomposable: Optional[bool]   # None when undecided
    reason: str
    witness: Optional[Subspace] = None

    @property
    def decided(self) -> bool:
        return self.indecomposable is not None


def _lie_algebra_has_line_summand(l: LieAlgebra) -> bool:
    """A one-dimensional direct summand exists iff z(l) is not inside l'."""
    z = center(l)
    lprime = derived_subalgebra(l)
    return not lprime.contains_subspace(z)


def is_indecomposable_class(z: QuadraticCocycle,
                            assume_admissible: bool = False
                            ) -> IndecomposabilityVerdict:
    """Decide decomposability of an admissible class where the case
    analysis is complete (abelian base of dim <= 2, or an indecomposable
    base of dim <= 3); report sufficient decompositions or 'undecided'
    elsewhere."""
    cx = z.complex
    l = cx.algebra
    rep = cx.rep
    if not assume_admissible:
        report = admissibility(z)
        if not report.admissible:
            raise ValueError("indecomposability requires an admissible class")

    inv, img = invariant_split(rep)
    W = alpha0_kernel_image(z)
    rest = inv.intersect(orthogonal_complement(W, rep.form))
    if rest.dim > 0 and rep.form.restrict(rest).is_nondegenerate():
        return IndecomposabilityVerdict(
            False, "nondegenerate trivial directions split off beyond the "
                   "class support", rest)

    is_abelian = derived_subalgebra(l).dim == 0
    if is_abelian and l.dim <= 2:
        return _abelian_small_verdict(z, inv, W)

    if l.dim <= 3 and not _lie_algebra_has_line_summand(l):
        # base algebra indecomposable: only trivial-direction splits remain,
        # and those were just excluded
        return IndecomposabilityVerdict(
            True, "base algebra indecomposable and the class supports all "
                  "trivial directions")

    split = _coordinate_split(z)
    if split is not None:
        return IndecomposabilityVerdict(
            False, "class decomposes along a coordinate bipartition of the "
                   "base and module bases", split)
    return IndecomposabilityVerdict(
        None, "no decomposition found; complete case analysis unavailable "
              "for this base algebra")


def _abelian_small_verdict(z: QuadraticCocycle, inv: Subspace,
                           W: Subspace) -> IndecomposabilityVerdict:
    cx = z.complex
    l = cx.algebra
    rep = cx.rep
    if l.dim <= 1:
        # no 2-cochains: class is zero; splits are trivial-direction splits
        return IndecomposabilityVerdict(
            True, "one-dimensional abelian base with no spare trivial "
                  "directions")
    # dim 2: trivial-direction splits excluded already
    if W.dim > 0:
        return IndecomposabilityVerdict(
            True, "nonzero class over an abelian plane cannot restrict to "
                  "one-dimensional factors")
    # class zero, a^l = 0: split iff the weight lines fit in two pencils
    decided, result, witness = _plane_split_search(rep)
    if not decided:
        return IndecomposabilityVerdict(
            None, "irrational weight directions: rational line search is "
                  "inconclusive")
    if result:
        return IndecomposabilityVerdict(
            False, "module weights split across two directions of the "
                   "abelian plane", witness)
    return IndecomposabilityVerdict(
        True, "module weights are not covered by two directions of the "
              "abelian plane")


def _binary_det_lines(rep: Representation) -> Tuple[bool, List[Vector]]:
    """Rational directions u of a 2-dim abelian base with det rho(u) = 0.

    Returns (complete, lines); complete is False when irreducible factors
    with real roots may hide irrational kernel lines.
    """
    m = rep.module_dim
    A, B = rep.action[0], rep.action[1]
    # det(x A + y B) as a binary form: evaluate at m+1 points and interpolate
    xs = list(range(m + 1))
    values = [(A.scale(t) + B).det() for t in xs]
    # coefficients of p(t) = det(tA + B), degree <= m
    van = Matrix([[Q(t) ** j for j in range(m + 1)] for t in xs], m + 1, m + 1)
    coeffs = van.solve(tuple(values))
    if coeffs is None:
        raise InternalCheckError("Vandermonde interpolation has no solution")
    p = poly.normalize(coeffs)
    if not p:
        # det vanishes identically: every direction is singular, which the
        # finite line list cannot represent
        return False, [(Q(1), Q(0)), (Q(0), Q(1))]
    # direction A when the coefficient of t^m vanishes
    lines: List[Vector] = [(Q(1), Q(0))] if len(p) - 1 < m else []
    # rational roots t give directions (t, 1)
    roots = _rational_roots(p)
    lines += [(root, Q(1)) for root in roots]
    residual = p
    for root in roots:
        while True:
            quo, rem = poly.divmod_poly(residual, (-root, Q(1)))
            if rem:
                break
            residual = quo
    return _no_real_roots(residual), lines


def _rational_roots(p) -> List[Q]:
    """The rational roots of a nonzero normalized p, in increasing order."""
    ints = poly.primitive(p)
    a0, an = next(c for c in ints if c), ints[-1]
    roots = set()
    for pdiv in _divisors(a0):
        for qdiv in _divisors(an):
            for cand in (Q(pdiv, qdiv), Q(-pdiv, qdiv)):
                if sum(c * cand ** k for k, c in enumerate(ints)) == 0:
                    roots.add(cand)
    if sum(1 for c in p if c != 0) == 1 or p[0] == 0:
        roots.add(Q(0))
    return sorted(roots)


def _divisors(n: int) -> List[int]:
    """The positive divisors of n ≠ 0, in increasing order."""
    n = abs(n)
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0
                   for d in (k, n // k)})


def _no_real_roots(p) -> bool:
    """True when the polynomial is a constant or a definite quadratic;
    conservative (False) beyond degree 2."""
    p = poly.normalize(p)
    return len(p) <= 1 or (len(p) == 3 and p[1] * p[1] < 4 * p[2] * p[0])


def _plane_split_search(rep: Representation):
    """Search for l = span(u) + span(v) with a = ker rho(v) ⊥ its complement
    inside ker rho(u); returns (decided, decomposable, witness)."""
    complete, lines = _binary_det_lines(rep)
    m = rep.module_dim
    kernels = []
    for u in lines:
        ker = Subspace(m, rep.rho(u).nullspace().rref()[0])
        kernels.append((u, ker))
    # a full-kernel direction alone suffices (the partner takes all of a)
    for u, ker in kernels:
        if ker.dim == m:
            return True, True, ker
    for (u, ku) in kernels:
        for (v, kv) in kernels:
            if u == v:
                continue
            if not rep.form.restrict(kv).is_nondegenerate():
                continue
            comp = orthogonal_complement(kv, rep.form)
            if ku.contains_subspace(comp):
                return True, True, kv
    if not complete:
        return False, False, None
    return True, False, None


def _coordinate_split(z: QuadraticCocycle) -> Optional[Subspace]:
    """Sufficient test: bipartition of basis indices into commuting ideal
    blocks with an orthogonal module split carrying the class blockwise."""
    cx = z.complex
    l = cx.algebra
    rep = cx.rep
    n, m = l.dim, rep.module_dim
    for size in range(1, n):
        for left in itertools.combinations(range(n), size):
            right = tuple(i for i in range(n) if i not in left)
            if not _is_block_split(l, left, right):
                continue
            K_right = _joint_kernel(rep, right)   # killed by the right block
            K_left = _joint_kernel(rep, left)
            if not rep.form.restrict(K_right).is_nondegenerate():
                continue
            comp = orthogonal_complement(K_right, rep.form)
            if not K_left.contains_subspace(comp):
                continue
            if _class_supported_blockwise(z, left, right, K_right, comp):
                return K_right
    return None


def _is_block_split(l: LieAlgebra, left, right) -> bool:
    """[left, right] = 0 and each block is a subalgebra: ad(e_i) of a basis
    vector of one block vanishes on the other's columns and rows."""
    return not any(row[c] for block, other in ((left, right), (right, left))
                   for i in block for r, row in enumerate(l.ad(i).num)
                   for c in (range(l.dim) if r in other else other))


def _joint_kernel(rep: Representation, indices) -> Subspace:
    return Subspace.zero(rep.module_dim).preimage(
        [rep.action[i] for i in indices])


def _class_supported_blockwise(z: QuadraticCocycle, left, right,
                               a_left: Subspace, a_right: Subspace) -> bool:
    """Is z equivalent to a cocycle with alpha supported on
    (left-pairs -> a_left) + (right-pairs -> a_right) and gamma with no
    cross terms?  Tested by an exact affine solve through the equivalence
    decision procedure against the blockwise truncation of z."""
    cx = z.complex
    n, m = cx.algebra.dim, cx.rep.module_dim
    left_set, right_set = set(left), set(right)

    def a_project(vec: Vector, target: Subspace) -> Optional[Vector]:
        coords = []
        # orthogonal projection onto target along its perp
        comp = orthogonal_complement(target, cx.rep.form)
        change_cols = target.basis.data + comp.basis.data
        if len(change_cols) != m:
            return None
        change = Matrix.from_columns(change_cols, rows=m)
        sol = change.solve(vec)
        if sol is None:
            return None
        out = zero_vector(m)
        for coeff, basis_vec in zip(sol[:target.dim], target.basis.data):
            out = vec_add(out, vec_scale(coeff, basis_vec))
        return out

    alpha_vals = {}
    for (i, j) in lex_subsets(n, 2):
        val = z.alpha.value((i, j))
        if i in left_set and j in left_set:
            proj = a_project(val, a_left)
        elif i in right_set and j in right_set:
            proj = a_project(val, a_right)
        else:
            proj = zero_vector(m)
        if proj is None:
            return False
        alpha_vals[(i, j)] = proj
    gamma_vals = {}
    for (i, j, k) in lex_subsets(n, 3):
        same_left = all(t in left_set for t in (i, j, k))
        same_right = all(t in right_set for t in (i, j, k))
        gamma_vals[(i, j, k)] = z.gamma.value((i, j, k)) \
            if (same_left or same_right) else (Q(0),)
    try:
        candidate = QuadraticCocycle(
            cx, Cochain.from_values(n, 2, m, alpha_vals),
            Cochain.from_values(n, 3, 1, gamma_vals))
    except NotACocycleError:
        return False
    return equivalent_cocycles(z, candidate) is not None
