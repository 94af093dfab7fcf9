"""Chevalley-Eilenberg complex and quadratic cohomology.

A :class:`CochainComplex` bundles a Lie algebra with an orthogonal module
and caches differential matrices per degree.  On top of it sit the wedge
pairing into scalar cochains, the cup product, the group of quadratic
cochains with its right action on quadratic cocycles, a decision procedure
for equivalence of quadratic cocycles, pullbacks along morphisms of pairs,
direct sums, and the affine fibration of the quadratic cohomology set over
the square-zero part of ordinary cohomology.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from .lie import InternalCheckError, LieAlgebra, direct_sum
from .linalg import (Matrix, Q, Subspace, SymmetricForm, Vector, block_diagonal,
                     lex_subsets, solve_affine, vec_add, vec_scale,
                     zero_vector)
from .modules import Representation


def _sort_with_sign(indices: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sorted tuple and permutation sign; None when an index repeats."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return None
    return tuple(idx), sign


@functools.lru_cache(maxsize=None)
def _subset_positions(n: int, p: int) -> Dict[Tuple[int, ...], int]:
    """Position of each p-subset of range(n) in lexicographic order."""
    return {s: i for i, s in enumerate(lex_subsets(n, p))}


class Cochain:
    """Alternating p-linear map with coordinates over lexicographic subsets.

    ``coords`` concatenates one module vector per p-subset of the basis of
    the algebra, subsets ordered lexicographically.
    """

    __slots__ = ("n", "degree", "module_dim", "coords")

    def __init__(self, n: int, degree: int, module_dim: int, coords: Sequence):
        if degree < 0:
            raise ValueError("cochain degree must be non-negative")
        self.n = n
        self.degree = degree
        self.module_dim = module_dim
        expected = len(_subset_positions(n, degree)) * module_dim
        coords = tuple(Q(c) if isinstance(c, Fraction) else Fraction(c)
                       for c in coords)
        if len(coords) != expected:
            raise ValueError(f"cochain coordinate length {len(coords)}, "
                             f"expected {expected}")
        self.coords = coords

    @classmethod
    def zero(cls, n: int, degree: int, module_dim: int) -> "Cochain":
        count = len(_subset_positions(n, degree)) * module_dim
        return cls(n, degree, module_dim, (Q(0),) * count)

    @classmethod
    def from_values(cls, n: int, degree: int, module_dim: int,
                    values: Dict[Tuple[int, ...], Sequence]) -> "Cochain":
        pos = _subset_positions(n, degree)
        coords = [Q(0)] * (len(pos) * module_dim)
        for subset, vec in values.items():
            key = tuple(subset)
            srt = _sort_with_sign(key)
            if srt is None:
                raise ValueError(f"repeated index in subset {subset}")
            key, sign = srt
            base = pos[key] * module_dim
            for t, v in enumerate(vec):
                coords[base + t] += sign * Fraction(v)
        return cls(n, degree, module_dim, coords)

    def value(self, subset: Tuple[int, ...]) -> Vector:
        """Module value on a sorted basis subset."""
        i = _subset_positions(self.n, self.degree).get(subset)
        if i is None:
            raise ValueError(f"{subset} is not a sorted {self.degree}-subset "
                             f"of range({self.n})")
        return self.coords[i * self.module_dim:(i + 1) * self.module_dim]

    def eval_indices(self, indices: Sequence[int]) -> Vector:
        """Value on basis vectors in arbitrary order (with sign, 0 on repeats)."""
        srt = _sort_with_sign(indices)
        if srt is None:
            return zero_vector(self.module_dim)
        subset, sign = srt
        v = self.value(subset)
        return v if sign == 1 else vec_scale(Q(-1), v)

    def _like(self, other: "Cochain"):
        if (self.n, self.degree, self.module_dim) != \
                (other.n, other.degree, other.module_dim):
            raise ValueError("cochain shape mismatch")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._like(other)
        return Cochain(self.n, self.degree, self.module_dim,
                       tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._like(other)
        return Cochain(self.n, self.degree, self.module_dim,
                       tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Cochain":
        return self.scale(Q(-1))

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        return Cochain(self.n, self.degree, self.module_dim,
                       tuple(c * x for x in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, Cochain)
                and (self.n, self.degree, self.module_dim) ==
                (other.n, other.degree, other.module_dim)
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.n, self.degree, self.module_dim, self.coords))

    def __repr__(self):
        return f"Cochain(deg {self.degree}, module {self.module_dim}, n={self.n})"


@dataclass(frozen=True)
class CohomologySpace:
    degree: int
    dim: int
    cocycles: Subspace        # Z^p in cochain coordinates
    coboundaries: Subspace    # B^p in cochain coordinates
    representatives: Tuple[Cochain, ...]
    coboundary_test: Callable[[Cochain], Optional[Cochain]]
    class_coords: Callable[[Cochain], Vector]


class CochainComplex:
    """Standard cochain complex of a pair (algebra, orthogonal module)."""

    def __init__(self, algebra: LieAlgebra, rep: Representation):
        if rep.algebra != algebra:
            raise ValueError("module is over a different algebra")
        self.algebra = algebra
        self.rep = rep
        self._d_cache: Dict[int, Matrix] = {}
        self._h_cache: Dict[int, CohomologySpace] = {}
        self._scalar: Optional[CochainComplex] = None

    @property
    def n(self) -> int:
        return self.algebra.dim

    @property
    def module_dim(self) -> int:
        return self.rep.module_dim

    def scalar_complex(self) -> "CochainComplex":
        """Complex with trivial one-dimensional coefficients (for C^p(l))."""
        if self.rep.module_dim == 1 and all(a.is_zero() for a in self.rep.action):
            return self
        if self._scalar is None:
            from .modules import trivial_representation
            triv = trivial_representation(self.algebra, 1,
                                          form=SymmetricForm(Matrix([[1]])))
            self._scalar = CochainComplex(self.algebra, triv)
        return self._scalar

    def zero_cochain(self, degree: int, scalar: bool = False) -> Cochain:
        m = 1 if scalar else self.module_dim
        return Cochain.zero(self.n, degree, m)

    def cochain(self, degree: int, values, scalar: bool = False) -> Cochain:
        m = 1 if scalar else self.module_dim
        if scalar:
            values = {k: (v if isinstance(v, (tuple, list)) else (v,))
                      for k, v in values.items()}
        return Cochain.from_values(self.n, degree, m, values)

    def differential(self, c: Cochain) -> Cochain:
        """Alternating-sum Chevalley-Eilenberg differential."""
        m = c.module_dim
        if m == self.module_dim:
            action = self.rep.action
        elif m == 1:
            action = None  # scalar cochain: trivial coefficients
        else:
            raise ValueError("cochain values fit neither the module nor scalars")
        p = c.degree
        out: Dict[Tuple[int, ...], Vector] = {}
        for subset in lex_subsets(self.n, p + 1):
            total = zero_vector(m)
            if action is not None:
                for a in range(p + 1):
                    rest = subset[:a] + subset[a + 1:]
                    val = c.value(rest)
                    if any(x != 0 for x in val):
                        term = action[subset[a]].apply(val)
                        if a % 2 == 1:
                            term = vec_scale(Q(-1), term)
                        total = vec_add(total, term)
            for a in range(p + 1):
                for b in range(a + 1, p + 1):
                    bracket = self.algebra.table[subset[a]][subset[b]]
                    rest = subset[:a] + subset[a + 1:b] + subset[b + 1:]
                    for k, ck in enumerate(bracket):
                        if ck == 0:
                            continue
                        val = c.eval_indices((k,) + rest)
                        # (-1)^{i+j} with 1-based i = a+1, j = b+1
                        sgn = Q(1) if (a + b) % 2 == 0 else Q(-1)
                        total = vec_add(total, vec_scale(sgn * ck, val))
            out[subset] = total
        return Cochain.from_values(self.n, p + 1, m, out)

    def d_matrix(self, p: int, scalar: bool = False) -> Matrix:
        """Matrix of d: C^p -> C^{p+1} on coordinate vectors."""
        cx = self.scalar_complex() if scalar else self
        key = p
        if key not in cx._d_cache:
            m = cx.module_dim
            src = len(lex_subsets(cx.n, p)) * m
            dst = len(lex_subsets(cx.n, p + 1)) * m
            cols = []
            for i in range(src):
                coords = [Q(0)] * src
                coords[i] = Q(1)
                image = cx.differential(Cochain(cx.n, p, m, coords))
                cols.append(image.coords)
            cx._d_cache[key] = Matrix.from_columns(cols, rows=dst)
        return cx._d_cache[key]

    def wedge(self, a: Cochain, b: Cochain) -> Cochain:
        """Shuffle-sum pairing <a ∧ b> into scalar cochains via the form."""
        if self.rep.form is None:
            raise ValueError("wedge needs an invariant form on the module")
        if a.module_dim != self.module_dim or b.module_dim != self.module_dim:
            raise ValueError("wedge arguments must take values in the module")
        p, q = a.degree, b.degree
        form = self.rep.form
        shuffles = []
        for left in itertools.combinations(range(p + q), p):
            right = tuple(t for t in range(p + q) if t not in left)
            shuffles.append((left, right, _sort_with_sign(left + right)[1]))
        out: Dict[Tuple[int, ...], Vector] = {}
        for subset in lex_subsets(self.n, p + q):
            total = Q(0)
            for left, right, sign in shuffles:
                va = a.value(tuple(subset[t] for t in left))
                vb = b.value(tuple(subset[t] for t in right))
                total += sign * form.evaluate(va, vb)
            out[subset] = (total,)
        return Cochain.from_values(self.n, p + q, 1, out)

    def cohomology(self, p: int) -> CohomologySpace:
        """H^p of this complex with representatives and membership tests."""
        if p in self._h_cache:
            return self._h_cache[p]
        m = self.module_dim
        size = len(lex_subsets(self.n, p)) * m
        d_p = self.d_matrix(p)
        cocycles = Subspace(size, d_p.nullspace().rref()[0])
        if p == 0:
            coboundaries = Subspace.zero(size)
            d_prev = None
        else:
            d_prev = self.d_matrix(p - 1)
            prev_size = d_prev.cols
            coboundaries = Subspace.span(
                size, tuple(d_prev.column(j) for j in range(prev_size)))
        reps_space = coboundaries.complement_in(cocycles)
        reps = tuple(Cochain(self.n, p, m, row) for row in reps_space.basis.data)

        def coboundary_test(c: Cochain) -> Optional[Cochain]:
            # no primitives in degree 0: B^0 = {0} and C^{-1} is empty
            if p == 0:
                return None
            sol = d_prev.solve(c.coords)
            if sol is None:
                return None
            return Cochain(self.n, p - 1, m, sol)

        basis_matrix = Matrix.from_columns(
            tuple(coboundaries.basis.data) + tuple(r.coords for r in reps),
            rows=size)

        def class_coords(c: Cochain) -> Vector:
            sol = basis_matrix.solve(c.coords)
            if sol is None:
                raise ValueError("cochain is not a cocycle of this degree")
            return tuple(sol[coboundaries.dim:])

        space = CohomologySpace(p, cocycles.dim - coboundaries.dim, cocycles,
                                coboundaries, reps, coboundary_test, class_coords)
        self._h_cache[p] = space
        return space

    def cup(self, a: Cochain, b: Cochain) -> Tuple[Cochain, Vector]:
        """Cup product of cocycle representatives: wedge plus its H-class."""
        w = self.wedge(a, b)
        scalar = self.scalar_complex()
        coords = scalar.cohomology(a.degree + b.degree).class_coords(w)
        return w, coords

    def is_cocycle(self, c: Cochain) -> bool:
        return self.differential(c).is_zero()

    def pair_key(self):
        return (self.algebra.dim, self.algebra.table,
                tuple(m.data for m in self.rep.action),
                self.rep.form.gram.data if self.rep.form else None)


@dataclass(frozen=True)
class QuadraticCochain:
    """Element (tau, sigma) of the group of quadratic (p-1)-cochains."""
    tau: Cochain     # degree p-1 with module values
    sigma: Cochain   # degree 2p-2 scalar

    @property
    def p(self) -> int:
        return self.tau.degree + 1


def q_star(cx: CochainComplex, c1: QuadraticCochain,
           c2: QuadraticCochain) -> QuadraticCochain:
    """Group law (tau1,sigma1)*(tau2,sigma2)."""
    if c1.p != c2.p:
        raise ValueError("mixed degrees in quadratic cochain product")
    cross = cx.wedge(c1.tau, c2.tau).scale(Q(1, 2))
    return QuadraticCochain(c1.tau + c2.tau, c1.sigma + c2.sigma + cross)


def q_inverse(cx: CochainComplex, c: QuadraticCochain) -> QuadraticCochain:
    self_pair = cx.wedge(c.tau, c.tau).scale(Q(1, 2))
    return QuadraticCochain(-c.tau, self_pair - c.sigma)


class NotACocycleError(ValueError):
    pass


class QuadraticCocycle:
    """Pair (alpha, gamma) with d(alpha) = 0 and d(gamma) = 1/2 <alpha ∧ alpha>."""

    __slots__ = ("complex", "alpha", "gamma", "p")

    def __init__(self, cx: CochainComplex, alpha: Cochain, gamma: Cochain,
                 validate: bool = True):
        p = alpha.degree
        if p % 2 != 0:
            raise ValueError("quadratic cocycles exist in even degree only")
        if gamma.degree != 2 * p - 1 or gamma.module_dim != 1:
            raise ValueError("gamma must be a scalar cochain of degree 2p-1")
        self.complex = cx
        self.alpha = alpha
        self.gamma = gamma
        self.p = p
        if validate:
            defect = cocycle_defect(cx, alpha, gamma)
            if defect is not None:
                raise NotACocycleError(f"quadratic cocycle conditions fail: {defect}")

    def pair(self) -> Tuple[Cochain, Cochain]:
        return self.alpha, self.gamma

    def __eq__(self, other):
        return (isinstance(other, QuadraticCocycle)
                and self.alpha == other.alpha and self.gamma == other.gamma)

    def __repr__(self):
        return f"QuadraticCocycle(p={self.p})"


def cocycle_defect(cx: CochainComplex, alpha: Cochain,
                   gamma: Cochain) -> Optional[str]:
    """None when (alpha, gamma) is a quadratic cocycle, else what failed."""
    if not cx.differential(alpha).is_zero():
        return "d(alpha) != 0"
    lhs = cx.scalar_complex().differential(gamma)
    rhs = cx.wedge(alpha, alpha).scale(Q(1, 2))
    if lhs != rhs:
        return "d(gamma) != 1/2<alpha ∧ alpha>"
    return None


def q_action(z: QuadraticCocycle, c: QuadraticCochain,
             validate: bool = True) -> QuadraticCocycle:
    """Right action (alpha,gamma)(tau,sigma); the result is again a cocycle."""
    cx = z.complex
    if c.p != z.p:
        raise ValueError("degree mismatch between cocycle and cochain")
    dtau = cx.differential(c.tau)
    dsigma = cx.scalar_complex().differential(c.sigma)
    shifted = z.alpha + dtau.scale(Q(1, 2))
    new_alpha = z.alpha + dtau
    new_gamma = z.gamma + dsigma + cx.wedge(shifted, c.tau)
    return QuadraticCocycle(cx, new_alpha, new_gamma, validate=validate)


def equivalent_cocycles(z1: QuadraticCocycle, z2: QuadraticCocycle
                        ) -> Optional[QuadraticCochain]:
    """Witness (tau, sigma) with z2·(tau,sigma) = z1, or None.

    Solves d(tau) = alpha1 - alpha2 affinely; with d(tau) pinned the residual
    gamma condition is affine-linear in the kernel parameters of tau and in
    sigma, so one joint affine solve decides equivalence.
    """
    if z1.complex is not z2.complex and \
            z1.complex.pair_key() != z2.complex.pair_key():
        raise ValueError("cocycles over different pairs")
    cx = z1.complex
    p = z1.p
    if p != z2.p:
        raise ValueError("cocycles of different degrees")
    d_tau_matrix = cx.d_matrix(p - 1)
    target = tuple(a - b for a, b in zip(z1.alpha.coords, z2.alpha.coords))
    solved = solve_affine(d_tau_matrix, target)
    if solved is None:
        return None
    tau0_coords, kernel = solved
    m = cx.module_dim
    tau0 = Cochain(cx.n, p - 1, m, tau0_coords)
    kernel_cochains = [Cochain(cx.n, p - 1, m, row) for row in kernel.basis.data]

    beta = (z1.alpha + z2.alpha).scale(Q(1, 2))
    base_residual = z1.gamma - z2.gamma - cx.wedge(beta, tau0)

    scalar = cx.scalar_complex()
    d_sigma_matrix = scalar.d_matrix(2 * p - 2)
    sigma_count = d_sigma_matrix.cols
    columns = [d_sigma_matrix.column(j) for j in range(sigma_count)]
    columns += [cx.wedge(beta, k).coords for k in kernel_cochains]
    system = Matrix.from_columns(columns, rows=len(base_residual.coords))
    sol = system.solve(base_residual.coords)
    if sol is None:
        return None
    sigma = Cochain(cx.n, 2 * p - 2, 1, sol[:sigma_count])
    tau = tau0
    for t, k in zip(sol[sigma_count:], kernel_cochains):
        tau = tau + k.scale(t)
    witness = QuadraticCochain(tau, sigma)
    check = q_action(z2, witness, validate=False)
    if check.alpha != z1.alpha or check.gamma != z1.gamma:
        raise InternalCheckError("equivalence witness failed verification")
    return witness


class PairMorphism:
    """Morphism of pairs (S, U): S on algebras, U an isometric embedding back."""

    __slots__ = ("source", "target", "S", "U")

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 S: Matrix, U: Matrix, validate: bool = True):
        self.source = source
        self.target = target
        self.S = S
        self.U = U
        if validate:
            problem = self.violation()
            if problem is not None:
                raise ValueError(f"not a morphism of pairs: {problem}")

    def violation(self) -> Optional[str]:
        l1, l2 = self.source.algebra, self.target.algebra
        a1, a2 = self.source.rep, self.target.rep
        if self.S.rows != l2.dim or self.S.cols != l1.dim:
            return "S has the wrong shape"
        if self.U.rows != a1.module_dim or self.U.cols != a2.module_dim:
            return "U has the wrong shape"
        for i in range(l1.dim):
            for j in range(i + 1, l1.dim):
                lhs = self.S.apply(l1.table[i][j])
                rhs = l2.bracket(self.S.column(i), self.S.column(j))
                if lhs != rhs:
                    return f"S does not respect the bracket on (e{i},e{j})"
        if a1.form is not None and a2.form is not None:
            if self.U.transpose() @ a1.form.gram @ self.U != a2.form.gram:
                return "U is not an isometric embedding"
        for i in range(l1.dim):
            lhs = self.U @ a2.rho(self.S.column(i))
            rhs = a1.action[i] @ self.U
            if lhs != rhs:
                return f"U does not intertwine the actions at e{i}"
        return None


def _pull_cochain(F: PairMorphism, c: Cochain, scalar: bool) -> Cochain:
    """(S,U)* for module cochains, S* for scalar cochains."""
    src = F.source
    p = c.degree
    m = 1 if scalar else src.module_dim
    out: Dict[Tuple[int, ...], Vector] = {}
    l1 = src.algebra
    for subset in lex_subsets(l1.dim, p):
        cols = [F.S.column(i) for i in subset]
        total = zero_vector(c.module_dim)
        for choice in itertools.product(range(F.S.rows), repeat=p):
            coeff = Q(1)
            for row_idx, col in zip(choice, cols):
                coeff *= col[row_idx]
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            total = vec_add(total, vec_scale(coeff, c.eval_indices(choice)))
        if not scalar:
            total = F.U.apply(total)
        out[subset] = total
    return Cochain.from_values(l1.dim, p, m, out)


def pullback(F: PairMorphism, z: QuadraticCocycle) -> QuadraticCocycle:
    """F*[alpha, gamma] = [(S,U)* alpha, S* gamma]."""
    if z.complex.pair_key() != F.target.pair_key():
        raise ValueError("cocycle is not over the morphism target")
    alpha = _pull_cochain(F, z.alpha, scalar=False)
    gamma = _pull_cochain(F, z.gamma, scalar=True)
    return QuadraticCocycle(F.source, alpha, gamma)


def nilpotent_exponential(M: Matrix) -> Matrix:
    """exp(M) for nilpotent M, exact; raises for non-nilpotent input."""
    n = M.rows
    power = Matrix.identity(n)
    acc = Matrix.zeros(n, n)
    factorial = Q(1)
    for k in range(n + 1):
        acc = acc + power.scale(Q(1) / factorial)
        power = power @ M
        factorial *= (k + 1)
    if not power.is_zero():
        raise ValueError("matrix is not nilpotent; exact exponential unavailable")
    return acc


def inner_automorphism(cx: CochainComplex, L: Vector) -> PairMorphism:
    """I_L = (e^{ad L}, e^{-rho(L)}) for L with nilpotent ad and rho."""
    S = nilpotent_exponential(cx.algebra.ad_vector(L))
    U = nilpotent_exponential(cx.rep.rho(L).scale(-1))
    return PairMorphism(cx, cx, S, U)


def sum_pairs(cx1: CochainComplex, cx2: CochainComplex) -> CochainComplex:
    """Direct sum of pairs: algebras summed, modules orthogonally summed."""
    g = direct_sum(cx1.algebra, cx2.algebra)
    m1, m2 = cx1.module_dim, cx2.module_dim
    mats = [block_diagonal((a, Matrix.zeros(m2, m2))) for a in cx1.rep.action]
    mats += [block_diagonal((Matrix.zeros(m1, m1), b)) for b in cx2.rep.action]
    form = None
    if cx1.rep.form is not None and cx2.rep.form is not None:
        form = SymmetricForm(block_diagonal((cx1.rep.form.gram,
                                             cx2.rep.form.gram)))
    rep = Representation(g, tuple(mats), form=form, validate=False,
                         module_dim=m1 + m2)
    return CochainComplex(g, rep)


def sum_classes(z1: QuadraticCocycle, z2: QuadraticCocycle
                ) -> Tuple[CochainComplex, QuadraticCocycle]:
    """Block cocycle over the direct sum of the two pairs."""
    cx1, cx2 = z1.complex, z2.complex
    if z1.p != z2.p:
        raise ValueError("cocycles of different degrees")
    p = z1.p
    cx = sum_pairs(cx1, cx2)
    n1 = cx1.algebra.dim
    m1 = cx1.module_dim
    n = cx.algebra.dim

    alpha_vals: Dict[Tuple[int, ...], Vector] = {}
    for subset in lex_subsets(n, p):
        if all(i < n1 for i in subset):
            v = z1.alpha.value(subset)
            alpha_vals[subset] = tuple(v) + zero_vector(cx2.module_dim)
        elif all(i >= n1 for i in subset):
            v = z2.alpha.value(tuple(i - n1 for i in subset))
            alpha_vals[subset] = zero_vector(m1) + tuple(v)
    gamma_vals: Dict[Tuple[int, ...], Vector] = {}
    for subset in lex_subsets(n, 2 * p - 1):
        if all(i < n1 for i in subset):
            gamma_vals[subset] = z1.gamma.value(subset)
        elif all(i >= n1 for i in subset):
            gamma_vals[subset] = z2.gamma.value(tuple(i - n1 for i in subset))
    alpha = Cochain.from_values(n, p, cx.module_dim, alpha_vals)
    gamma = Cochain.from_values(n, 2 * p - 1, 1, gamma_vals)
    return cx, QuadraticCocycle(cx, alpha, gamma)


def quadratic_h0_contains(cx: CochainComplex, v: Vector) -> bool:
    """Membership in the degree-zero quadratic cohomology set.

    In degree zero there are no equivalences and the cocycle conditions say
    the vector is invariant and isotropic, so the set is exactly the
    isotropic invariant vectors of the module.
    """
    if len(v) != cx.module_dim:
        raise ValueError("vector length differs from the module dimension")
    if cx.rep.form is None:
        raise ValueError("membership needs the invariant form")
    for a in cx.rep.action:
        if any(x != 0 for x in a.apply(v)):
            return False
    return cx.rep.form.evaluate(v, v) == 0


@dataclass(frozen=True)
class FiberStructure:
    fiber_dim: int
    translate: Callable[[QuadraticCocycle, Cochain], QuadraticCocycle]


def fiber_structure(cx: CochainComplex, alpha: Cochain, p: int = 2
                    ) -> FiberStructure:
    """Affine fiber of the quadratic cohomology set over [alpha].

    Requires [alpha] ∪ [alpha] = 0; the fiber over the class has dimension
    dim H^{2p-1}(l) - dim([alpha] ∪ H^{p-1}(l, a)) and is translated by
    scalar (2p-1)-cocycles via gamma shifts.
    """
    if not cx.is_cocycle(alpha):
        raise ValueError("alpha must be a cocycle")
    scalar = cx.scalar_complex()
    square = cx.wedge(alpha, alpha)
    if scalar.cohomology(2 * p).coboundary_test(square) is None \
            and not square.is_zero():
        raise ValueError("[alpha] ∪ [alpha] != 0: no quadratic class over it")
    h_top = scalar.cohomology(2 * p - 1)
    h_low = cx.cohomology(p - 1)
    image_rows = []
    for rep_c in h_low.representatives:
        w = cx.wedge(alpha, rep_c)
        image_rows.append(h_top.class_coords(w))
    image = Subspace.span(h_top.dim, image_rows) if h_top.dim else \
        Subspace.zero(0)
    fiber_dim = h_top.dim - image.dim

    def translate(z: QuadraticCocycle, delta: Cochain) -> QuadraticCocycle:
        if not scalar.is_cocycle(delta):
            raise ValueError("translation requires a scalar cocycle")
        return QuadraticCocycle(cx, z.alpha, z.gamma + delta)

    return FiberStructure(fiber_dim, translate)
