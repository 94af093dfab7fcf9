"""Lie algebras presented by structure constants on a fixed basis.

Brackets, adjoint maps, characteristic series, the Killing form, the
solvable radical (Cartan criterion), and the radical of nilpotency.
All ideals are returned as canonical :class:`~metlie.linalg.Subspace`
values of the ambient coordinate space.

An algebra stores its brackets once, as its integer-row adjoint matrices;
``table`` is a view of them for readers outside the library.  Sums,
quotients and subalgebras pass theirs to the trusted ``_from_ad``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .linalg import (Matrix, Q, Subspace, SymmetricForm, Vector,
                     block_coordinates, block_diagonal, lex_subsets,
                     linear_combination, rational, stack_rows, vec_add)


class JacobiError(ValueError):
    """Structure constants violate the Jacobi identity."""

    def __init__(self, witness):
        i, j, k, defect = witness
        super().__init__(f"Jacobi identity fails on basis triple ({i},{j},{k}): "
                         f"cyclic sum {defect}")
        self.witness = witness


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    The brackets are stored once, as the integer-row adjoint matrices
    ad(e_0), ..., ad(e_{n-1}); column j of ad(e_i) is [e_i, e_j].
    """

    __slots__ = ("dim", "labels", "_ad", "_table", "_cache")

    def __init__(self, dim: int,
                 brackets: Mapping[Tuple[int, int], Sequence],
                 labels: Optional[Sequence[str]] = None,
                 validate: bool = True):
        """brackets maps (i, j) with i < j to the coordinates of [e_i, e_j]."""
        coerced = {}
        for (i, j), coords in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range, need i<j")
            v = tuple(rational(x) for x in coords)
            if len(v) != dim:
                raise ValueError("bracket coordinate length mismatch")
            coerced[i, j] = v
        den = lcm(*(x.denominator for v in coerced.values() for x in v))
        # num[i][k][j]: the k-th coordinate of [e_i, e_j], times den
        num = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in coerced.items():
            for k, x in enumerate(v):
                num[i][k][j] = x.numerator * (den // x.denominator)
                num[j][k][i] = -num[i][k][j]
        self._adopt(tuple(Matrix._int(tuple(map(tuple, a)), den, dim, dim)
                          for a in num), labels, validate)

    @classmethod
    def _from_ad(cls, ads: Sequence[Matrix],
                 labels: Optional[Sequence[str]] = None,
                 validate: bool = False) -> "LieAlgebra":
        """The algebra with these adjoint matrices, taken without a check of
        their shape or antisymmetry (ad(e_i)e_j = -ad(e_j)e_i), and without
        the Jacobi check unless asked for."""
        out = cls.__new__(cls)
        out._adopt(tuple(ads), labels, validate)
        return out

    def _adopt(self, ads: Tuple[Matrix, ...], labels, validate: bool):
        self.dim = len(ads)
        self.labels = tuple(labels) if labels is not None else None
        self._ad = ads
        self._table = None
        self._cache: Dict[str, object] = {}
        if validate:
            witness = self.jacobi_witness()
            if witness is not None:
                raise JacobiError(witness)

    @property
    def table(self) -> Tuple[Tuple[Vector, ...], ...]:
        """table[i][j] = [e_i, e_j] as Fractions: a read-only view of the
        adjoint matrices, built on first read and then kept."""
        if self._table is None:
            self._table = tuple(tuple(a.column(j) for j in range(self.dim))
                                for a in self._ad)
        return self._table

    def bracket(self, x: Vector, y: Vector) -> Vector:
        return self.ad_vector(x).apply(y)

    def ad(self, i: int) -> Matrix:
        """Matrix of ad(e_i) acting on column coordinates."""
        return self._ad[i]

    def ad_vector(self, x: Vector) -> Matrix:
        return linear_combination(zip(x, self._ad), self.dim)

    def jacobi_witness(self) -> Optional[Tuple[int, int, int, Vector]]:
        """First violating basis triple with its cyclic-sum defect, if any.

        The Jacobi identity holds exactly when ad is a homomorphism, which
        is checked as a matrix identity; the basis triples are walked only
        to name the witness when it fails.
        """
        if self._ad_is_homomorphism():
            return None
        ads = self._ad
        for i, j, k in lex_subsets(self.dim, 3):
            s = vec_add(vec_add(ads[i].apply(ads[j].column(k)),
                                ads[j].apply(ads[k].column(i))),
                        ads[k].apply(ads[i].column(j)))
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
        ads = self._ad
        live = [not a.is_zero() for a in ads]
        return all(self.ad_vector(ads[i].column(j))
                   == ads[i] @ ads[j] - ads[j] @ ads[i]
                   for lo, hi in ((0, half), (half, n))
                   for i in range(lo, hi) if live[i]
                   for j in range(i + 1, hi) if live[j])

    def structure_entries(self) -> Tuple[Tuple[int, int, int, Q], ...]:
        """Sparse (i, j, k, value) quadruples with i < j, deterministic order."""
        return tuple((i, j, k, Q(row[j], a.den))
                     for i, a in enumerate(self._ad)
                     for j in range(i + 1, self.dim)
                     for k, row in enumerate(a.num) if row[j])

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self._ad == other._ad

    def __hash__(self):
        return hash(self._ad)

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim})"


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, validate=False)


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """Block-diagonal adjoint matrices; brackets across the summands vanish."""
    z1, z2 = Matrix.zeros(g1.dim, g1.dim), Matrix.zeros(g2.dim, g2.dim)
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = g1.labels + g2.labels
    return LieAlgebra._from_ad(
        [block_diagonal((a, z2)) for a in g1._ad]
        + [block_diagonal((z1, b)) for b in g2._ad], labels)


def bracket_subspace(g: LieAlgebra, U: Subspace, V: Subspace) -> Subspace:
    """Span of [u, v] over basis vectors of U and V: the rows of
    V·ad(u)ᵀ are the brackets [u, v].  Only the span counts, so u is read
    as an integer row of U's basis."""
    return Subspace.row_space(stack_rows(
        [V.basis @ g.ad_vector(u).transpose() for u in U.basis.num], g.dim))


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    if "derived" not in g._cache:
        full = Subspace.full(g.dim)
        g._cache["derived"] = bracket_subspace(g, full, full)
    return g._cache["derived"]


def center(g: LieAlgebra) -> Subspace:
    """Joint kernel of all ad(e_j)."""
    if "center" not in g._cache:
        g._cache["center"] = Subspace.zero(g.dim).preimage(g._ad)
    return g._cache["center"]


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
    n, ads = g.dim, g._ad
    den = lcm(*(a.den for a in ads))
    cols = [tuple(zip(*a.num)) for a in ads]
    # tr(ad_i ad_j) from ad_i's rows and ad_j's columns, over den²
    rows = [[0] * n for _ in range(n)]
    for i, a in enumerate(ads):
        for j in range(i, n):
            total = sum(sum(map(mul, row, col))
                        for row, col in zip(a.num, cols[j]))
            rows[i][j] = rows[j][i] = \
                total * (den // a.den) * (den // ads[j].den)
    out = SymmetricForm(Matrix._int(tuple(map(tuple, rows)), den * den, n, n))
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
    """Structure constants of a bracket-closed subspace in its own basis:
    each ad(u) restricted to U, in coordinates along U."""
    if not U.contains_subspace(bracket_subspace(g, U, U)):
        raise ValueError("subspace is not closed under the bracket")
    coords = block_coordinates(
        (U.basis.data, U.complement_in(Subspace.full(g.dim)).basis.data), 0,
        g.dim)
    return LieAlgebra._from_ad(
        [coords @ g.ad_vector(u) @ U.basis.transpose() for u in U.basis.data],
        validate=validate)


def quotient_algebra(g: LieAlgebra, ideal: Subspace
                     ) -> Tuple[LieAlgebra, Matrix, Matrix]:
    """Quotient by an ideal: (algebra, projection g->q, lift q->g).

    The lift embeds the chosen complement basis; projection ∘ lift = Id.
    """
    if not is_ideal(g, ideal):
        raise ValueError("quotient by a non-ideal")
    comp = ideal.complement_in(Subspace.full(g.dim))
    lift = comp.basis.transpose()
    proj = block_coordinates((ideal.basis.data, comp.basis.data), 1, g.dim)
    ads = [proj @ g.ad_vector(c) @ lift for c in comp.basis.data]
    return LieAlgebra._from_ad(ads), proj, lift
