"""Lie algebras presented by structure constants on a fixed basis.

Brackets, adjoint maps, characteristic series, the Killing form, the
solvable radical (Cartan criterion), and the radical of nilpotency.
All ideals are returned as canonical :class:`~metlie.linalg.Subspace`
values of the ambient coordinate space.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .linalg import (Matrix, Q, Subspace, SymmetricForm, Vector,
                     block_coordinates, linear_combination, rational,
                     stack_rows, unit_vector, vec_add, vec_scale,
                     zero_vector)


class JacobiError(ValueError):
    """Structure constants violate the Jacobi identity."""

    def __init__(self, witness):
        i, j, k, defect = witness
        super().__init__(f"Jacobi identity fails on basis triple ({i},{j},{k}): "
                         f"cyclic sum {defect}")
        self.witness = witness


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants."""

    __slots__ = ("dim", "table", "labels", "_ad", "_cache")

    def __init__(self, dim: int,
                 brackets: Mapping[Tuple[int, int], Sequence],
                 labels: Optional[Sequence[str]] = None,
                 validate: bool = True):
        """brackets maps (i, j) with i < j to the coordinates of [e_i, e_j]."""
        self.dim = dim
        table = [[zero_vector(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), coords in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range, need i<j")
            v = tuple(rational(x) for x in coords)
            if len(v) != dim:
                raise ValueError("bracket coordinate length mismatch")
            table[i][j] = v
            table[j][i] = vec_scale(Q(-1), v)
        self.table = tuple(tuple(row) for row in table)
        self.labels = tuple(labels) if labels is not None else None
        self._ad: Dict[int, Matrix] = {}
        self._cache: Dict[str, object] = {}
        if validate:
            witness = self.jacobi_witness()
            if witness is not None:
                raise JacobiError(witness)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        out = zero_vector(self.dim)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0 or i == j:
                    continue
                out = vec_add(out, vec_scale(xi * yj, self.table[i][j]))
        return out

    def ad(self, i: int) -> Matrix:
        """Matrix of ad(e_i) acting on column coordinates."""
        if i not in self._ad:
            self._ad[i] = Matrix.from_columns(
                tuple(self.table[i][j] for j in range(self.dim)), rows=self.dim)
        return self._ad[i]

    def ad_vector(self, x: Vector) -> Matrix:
        return linear_combination(
            ((xi, self.ad(i)) for i, xi in enumerate(x) if xi != 0), self.dim)

    def jacobi_witness(self) -> Optional[Tuple[int, int, int, Vector]]:
        """First violating basis triple with its cyclic-sum defect, if any.

        The Jacobi identity holds exactly when ad is a homomorphism, which
        is checked as a matrix identity; the basis triples are walked only
        to name the witness when it fails.
        """
        if self._ad_is_homomorphism():
            return None
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    s = vec_add(
                        vec_add(self.bracket(unit_vector(self.dim, i),
                                             self.table[j][k]),
                                self.bracket(unit_vector(self.dim, j),
                                             self.table[k][i])),
                        self.bracket(unit_vector(self.dim, k), self.table[i][j]))
                    if any(c != 0 for c in s):
                        return (i, j, k, s)
        return None

    def _ad_is_homomorphism(self) -> bool:
        """ad([e_i, e_j]) = [ad e_i, ad e_j] for i < j in the same half.

        The identity for (i, j) applied to e_k is the Jacobi sum of the
        triple (i, j, k).  Of any three distinct indices two lie in the same
        half, {0, ..., n//2 - 1} or {n//2, ..., n - 1}, so these pairs cover
        every triple; triples with a repeated index hold by antisymmetry.
        A pair where ad(e_i) or ad(e_j) is zero is skipped: both sides
        vanish there, since [ad e_i, ad e_j] = 0 and
        [e_i, e_j] = ad(e_i)e_j = −ad(e_j)e_i = 0.
        """
        n, half = self.dim, self.dim // 2
        ads = [self.ad(i) for i in range(n)]
        live = [not a.is_zero() for a in ads]
        return all(self.ad_vector(self.table[i][j])
                   == ads[i] @ ads[j] - ads[j] @ ads[i]
                   for lo, hi in ((0, half), (half, n))
                   for i in range(lo, hi) if live[i]
                   for j in range(i + 1, hi) if live[j])

    def structure_entries(self) -> Tuple[Tuple[int, int, int, Q], ...]:
        """Sparse (i, j, k, value) quadruples with i < j, deterministic order."""
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k, val in enumerate(self.table[i][j]):
                    if val != 0:
                        out.append((i, j, k, val))
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.table == other.table)

    def __hash__(self):
        return hash((self.dim, self.table))

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim})"


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, validate=False)


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """Block structure constants; brackets across the summands vanish."""
    n1, n2 = g1.dim, g2.dim
    brackets = {}
    for i in range(n1):
        for j in range(i + 1, n1):
            v = g1.table[i][j]
            if any(c != 0 for c in v):
                brackets[(i, j)] = v + zero_vector(n2)
    for i in range(n2):
        for j in range(i + 1, n2):
            v = g2.table[i][j]
            if any(c != 0 for c in v):
                brackets[(i + n1, j + n1)] = zero_vector(n1) + v
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = g1.labels + g2.labels
    return LieAlgebra(n1 + n2, brackets, labels=labels, validate=False)


def bracket_subspace(g: LieAlgebra, U: Subspace, V: Subspace) -> Subspace:
    """Span of [u, v] over basis vectors of U and V: the rows of
    V·ad(u)ᵀ are the brackets [u, v]."""
    return Subspace.row_space(stack_rows(
        [V.basis @ g.ad_vector(u).transpose() for u in U.basis.data], g.dim))


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    if "derived" not in g._cache:
        full = Subspace.full(g.dim)
        g._cache["derived"] = bracket_subspace(g, full, full)
    return g._cache["derived"]


def center(g: LieAlgebra) -> Subspace:
    """Joint kernel of all ad(e_j) acting on the left argument."""
    if g.dim == 0:
        return Subspace.zero(0)
    if "center" in g._cache:
        return g._cache["center"]
    stacked = None
    for j in range(g.dim):
        block = Matrix.from_columns(
            tuple(g.table[i][j] for i in range(g.dim)), rows=g.dim)
        stacked = block if stacked is None else stacked.vstack(block)
    out = Subspace(g.dim, stacked.nullspace().rref()[0])
    g._cache["center"] = out
    return out


@dataclass(frozen=True)
class IdealChain:
    entries: Tuple[Subspace, ...]
    increasing: bool

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k):
        return self.entries[k]


@dataclass(frozen=True)
class StructureReport:
    derived: Subspace
    center: Subspace
    lower_central: IdealChain
    derived_series: IdealChain
    is_nilpotent: bool
    is_solvable: bool


def structure_report(g: LieAlgebra) -> StructureReport:
    full = Subspace.full(g.dim)
    derived = derived_subalgebra(g)

    lower = [full]
    while lower[-1].dim > 0:
        nxt = bracket_subspace(g, full, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)

    series = [full]
    while series[-1].dim > 0:
        nxt = bracket_subspace(g, series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)

    return StructureReport(
        derived=derived,
        center=center(g),
        lower_central=IdealChain(tuple(lower), increasing=False),
        derived_series=IdealChain(tuple(series), increasing=False),
        is_nilpotent=lower[-1].dim == 0,
        is_solvable=series[-1].dim == 0,
    )


def killing_form(g: LieAlgebra) -> SymmetricForm:
    if "killing" in g._cache:
        return g._cache["killing"]
    n = g.dim
    ads = [g.ad(i) for i in range(n)]

    def trace_product(a: Matrix, b: Matrix):
        # tr(ab) over the product of the denominators, from a's rows and
        # b's columns
        total = sum(sum(map(mul, row, col))
                    for row, col in zip(a.num, zip(*b.num)))
        return Q(total, a.den * b.den)

    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = trace_product(ads[i], ads[j])
    gram = Matrix(rows, n, n)
    out = SymmetricForm(gram)
    g._cache["killing"] = out
    return out


def solvable_radical(g: LieAlgebra) -> Subspace:
    """Cartan criterion: the Killing-orthogonal space of the derived algebra."""
    if "radical" in g._cache:
        return g._cache["radical"]
    derived = derived_subalgebra(g)
    if derived.dim == 0:
        out = Subspace.full(g.dim)
    else:
        constraint = derived.basis @ killing_form(g).gram
        out = Subspace(g.dim, constraint.nullspace().rref()[0])
    g._cache["radical"] = out
    return out


class InternalCheckError(RuntimeError):
    """A paper-backed internal consistency identity failed: a bug, never data."""


def nilpotency_radical(g: LieAlgebra) -> Subspace:
    """[g, r] with r the solvable radical; checked against r ∩ g'."""
    if "nilradical" in g._cache:
        return g._cache["nilradical"]
    r = solvable_radical(g)
    gprime = derived_subalgebra(g)
    out = bracket_subspace(g, Subspace.full(g.dim), r)
    if out != r.intersect(gprime):
        raise InternalCheckError("nilpotency radical: [g, r] != r ∩ g'")
    g._cache["nilradical"] = out
    return out


def is_ideal(g: LieAlgebra, U: Subspace) -> bool:
    """ad(e_i)·U ⊆ U for every i, tested as ann(U)·ad(e_i)·Uᵀ = 0."""
    if U.dim in (0, g.dim):
        return True
    ann = U.basis.nullspace()
    cols = U.basis.transpose()
    return all((ann @ (g.ad(i) @ cols)).is_zero() for i in range(g.dim))


def subalgebra_restriction(g: LieAlgebra, U: Subspace,
                           validate: bool = False) -> LieAlgebra:
    """Structure constants of a bracket-closed subspace in its own basis."""
    rows = U.basis.data
    brackets = {}
    for a in range(U.dim):
        for b in range(a + 1, U.dim):
            w = g.bracket(rows[a], rows[b])
            coords = U.coordinates(w)
            if coords is None:
                raise ValueError("subspace is not closed under the bracket")
            if any(c != 0 for c in coords):
                brackets[(a, b)] = coords
    return LieAlgebra(U.dim, brackets, validate=validate)


def quotient_algebra(g: LieAlgebra, ideal: Subspace
                     ) -> Tuple[LieAlgebra, Matrix, Matrix]:
    """Quotient by an ideal: (algebra, projection g->q, lift q->g).

    The lift embeds the chosen complement basis; projection ∘ lift = Id.
    """
    if not is_ideal(g, ideal):
        raise ValueError("quotient by a non-ideal")
    comp = ideal.complement_in(Subspace.full(g.dim))
    lift = Matrix.from_columns(comp.basis.data, rows=g.dim)
    proj = block_coordinates((ideal.basis.data, comp.basis.data), 1, g.dim)
    brackets = {}
    for a in range(comp.dim):
        for b in range(a + 1, comp.dim):
            w = proj.apply(g.bracket(comp.basis.data[a], comp.basis.data[b]))
            if any(c != 0 for c in w):
                brackets[(a, b)] = w
    return LieAlgebra(comp.dim, brackets, validate=False), proj, lift
