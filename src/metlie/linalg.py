"""Exact dense linear algebra over the rationals.

Everything in this package reduces to the primitives here: rational
matrices, canonical subspaces (reduced row echelon bases), affine solving,
and symmetric-form diagnostics.  No floating point is used anywhere; all
results are exact values in ``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

Q = Fraction

Vector = Tuple[Fraction, ...]


def rational(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def vector(entries: Iterable) -> Vector:
    return tuple(rational(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (Q(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a if not b else (b if not a else a + b)
                 for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a if not b else a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a if a else a for a in v)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable dense matrix with Fraction entries, row-major storage."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence], rows: Optional[int] = None,
                 cols: Optional[int] = None):
        table = tuple(tuple(rational(x) for x in row) for row in data)
        if rows is None:
            rows = len(table)
        if cols is None:
            cols = len(table[0]) if table else 0
        if len(table) != rows or any(len(r) != cols for r in table):
            raise ValueError("ragged matrix data")
        self.rows = rows
        self.cols = cols
        self.data = table

    @classmethod
    def _trusted(cls, data: Tuple[Vector, ...], rows: int, cols: int) -> "Matrix":
        """A matrix from rows this module computed itself: a tuple of
        ``rows`` tuples of ``cols`` Fractions each, taken without a check."""
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out.data = data
        return out

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted(((Q(0),) * cols,) * rows, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._trusted(tuple(unit_vector(n, i) for i in range(n)), n, n)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        ents = vector(entries)
        n = len(ents)
        return cls(tuple(tuple(ents[i] if i == j else Q(0) for j in range(n))
                         for i in range(n)), n, n)

    @classmethod
    def from_rows(cls, rows: Sequence[Vector], cols: Optional[int] = None) -> "Matrix":
        rows = tuple(rows)
        if not rows and cols is None:
            raise ValueError("empty row list needs explicit column count")
        return cls(rows, len(rows), cols if rows == () else len(rows[0]))

    @classmethod
    def from_columns(cls, cols: Sequence[Vector], rows: Optional[int] = None) -> "Matrix":
        return cls.from_rows(cols, rows).transpose()

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._trusted(
            tuple(vec_add(a, b) for a, b in zip(self.data, other.data)),
            self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._trusted(
            tuple(vec_sub(a, b) for a, b in zip(self.data, other.data)),
            self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(Q(-1))

    def scale(self, c) -> "Matrix":
        c = rational(c)
        return Matrix._trusted(tuple(vec_scale(c, r) for r in self.data),
                               self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        zero = Q(0)
        odata = other.data
        ocols = other.cols
        out = []
        for row in self.data:
            acc = [zero] * ocols
            for k, x in enumerate(row):
                if x:
                    orow = odata[k]
                    for c, y in enumerate(orow):
                        if y:
                            acc[c] = acc[c] + x * y
            out.append(tuple(acc))
        return Matrix._trusted(tuple(out), self.rows, ocols)

    def apply(self, v: Vector) -> Vector:
        """Matrix acting on a coordinate column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        zero = Q(0)
        out = []
        for row in self.data:
            acc = zero
            for a, b in zip(row, v):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(tuple(self.column(j) for j in range(self.cols)),
                               self.cols, self.rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Q(0))

    def is_zero(self) -> bool:
        return all(is_zero_vector(r) for r in self.data)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._trusted(tuple(a + b for a, b in zip(self.data, other.data)),
                               self.rows, self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return Matrix._trusted(self.data + other.data, self.rows + other.rows,
                               self.cols)

    def rref(self) -> Tuple["Matrix", Tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        m = [list(r) for r in self.data]
        pivots = []
        prow = 0
        one = Q(1)
        for col in range(self.cols):
            if prow >= self.rows:
                break
            sel = next((r for r in range(prow, self.rows) if m[r][col] != 0), None)
            if sel is None:
                continue
            m[prow], m[sel] = m[sel], m[prow]
            pivot_val = m[prow][col]
            if pivot_val != one:
                inv = one / pivot_val
                m[prow] = [x * inv if x else x for x in m[prow]]
            prow_vals = m[prow]
            for r in range(self.rows):
                if r != prow and m[r][col] != 0:
                    f = m[r][col]
                    row_r = m[r]
                    m[r] = [x - f * y if y else x
                            for x, y in zip(row_r, prow_vals)]
            pivots.append(col)
            prow += 1
        return (Matrix._trusted(tuple(tuple(r) for r in m), self.rows, self.cols),
                tuple(pivots))

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Matrix":
        """Rows span the right kernel {x : A x = 0}."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = [Q(0)] * self.cols
            v[f] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = -red[r, f]
            basis.append(tuple(v))
        return Matrix._trusted(tuple(basis), len(basis), self.cols)

    def solve(self, b: Vector) -> Optional[Vector]:
        """One solution of A x = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        aug = self.hstack(Matrix.from_columns((b,), rows=self.rows))
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Q(0)] * self.cols
        for r, p in enumerate(pivots):
            x[p] = red[r, self.cols]
        return tuple(x)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        red, pivots = self.hstack(Matrix.identity(self.rows)).rref()
        if len(pivots) != self.rows or any(p >= self.rows for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix._trusted(tuple(r[self.rows:] for r in red.data),
                               self.rows, self.rows)

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        m = [list(r) for r in self.data]
        n = self.rows
        d = Q(1)
        for col in range(n):
            sel = next((r for r in range(col, n) if m[r][col] != 0), None)
            if sel is None:
                return Q(0)
            if sel != col:
                m[col], m[sel] = m[sel], m[col]
                d = -d
            d *= m[col][col]
            inv = Q(1) / m[col][col]
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    f = m[r][col] * inv
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return d

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def linear_combination(terms: Iterable[Tuple[Fraction, Matrix]],
                       n: int) -> Matrix:
    """Sum of c·a over the (c, a) with c nonzero, as an n x n matrix; a
    itself, not a copy, when it is the only term and c = 1."""
    scaled = [a if c == 1 else a.scale(c) for c, a in terms if c != 0]
    if not scaled:
        return Matrix.zeros(n, n)
    acc = scaled[0]
    for t in scaled[1:]:
        acc = acc + t
    return acc


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """The blocks placed along the diagonal, zeros elsewhere."""
    cols = sum(b.cols for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        left, right = zero_vector(offset), zero_vector(cols - offset - b.cols)
        rows.extend(left + r + right for r in b.data)
        offset += b.cols
    return Matrix._trusted(tuple(rows), len(rows), cols)


def block_coordinates(blocks: Sequence[Sequence[Vector]], k: int,
                      ambient: int) -> Matrix:
    """Coordinates along block k of the direct sum Q^ambient = ⊕ span(blocks).

    The rows of the inverse basis change that belong to block k: the result
    kills every other block and sends block k's vectors to unit vectors.
    """
    inv = Matrix.from_columns(tuple(v for b in blocks for v in b),
                              rows=ambient).inverse()
    start = sum(len(b) for b in blocks[:k])
    size = len(blocks[k])
    return Matrix._trusted(inv.data[start:start + size], size, ambient)


class Subspace:
    """Subspace of Q^n held as a canonical reduced-row-echelon basis.

    Equal subspaces compare equal bit for bit, so containment chains can be
    tested syntactically.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: Matrix):
        if basis.cols != ambient:
            raise ValueError("basis width differs from ambient dimension")
        self.ambient = ambient
        self.basis = basis

    @classmethod
    def span(cls, ambient: int, rows: Iterable[Vector]) -> "Subspace":
        mat = Matrix.from_rows(tuple(tuple(r) for r in rows), cols=ambient)
        red, pivots = mat.rref()
        return cls(ambient, Matrix._trusted(red.data[: len(pivots)],
                                            len(pivots), ambient))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, Matrix.zeros(0, ambient))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, Matrix.identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> Tuple[Vector, ...]:
        return self.basis.data

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return self.coordinates(v) is not None

    def coordinates(self, v: Vector) -> Optional[Vector]:
        """Coefficients of v in the canonical basis, or None if outside."""
        if self.dim == self.ambient:
            return tuple(v)    # canonical basis of the full space is identity
        coeffs = []
        residual = list(v)
        for row in self.basis.data:
            pivot = next((j for j, x in enumerate(row) if x != 0), None)
            if pivot is None:
                coeffs.append(Q(0))
                continue
            c = residual[pivot]
            coeffs.append(c)
            if c != 0:
                for j, x in enumerate(row):
                    if x:
                        residual[j] -= c * x
        if any(x != 0 for x in residual):
            return None
        return tuple(coeffs)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.data)

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.span(self.ambient, self.basis.data + other.basis.data)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        # x = c·U = d·V; kernel of the stacked transposed bases gives (c, d).
        stacked = self.basis.transpose().hstack(other.basis.transpose().scale(-1))
        combos = stacked.nullspace()
        coeffs = Matrix._trusted(tuple(c[: self.dim] for c in combos.data),
                                 combos.rows, self.dim)
        return Subspace.span(self.ambient, (coeffs @ self.basis).data)

    def complement_in(self, larger: "Subspace") -> "Subspace":
        """A complement W with self ⊕ W = larger (self ⊆ larger required)."""
        if not larger.contains_subspace(self):
            raise ValueError("complement_in requires containment")
        # Keep each basis vector of larger that is independent of self and
        # of the vectors kept before it: with self's basis and then larger's
        # as the columns of one matrix, these are its pivot columns past
        # self's.
        vectors = self.basis.data + larger.basis.data
        _, pivots = Matrix._trusted(vectors, len(vectors),
                                    self.ambient).transpose().rref()
        chosen = [vectors[p] for p in pivots if p >= self.dim]
        return Subspace.span(self.ambient, chosen)

    def image(self, mat: Matrix) -> "Subspace":
        """Span of mat·v over basis vectors v (mat acts on columns)."""
        if mat.cols != self.ambient:
            raise ValueError("matrix width differs from ambient dim")
        return Subspace.span(mat.rows, tuple(mat.apply(r) for r in self.basis.data))

    def preimage(self, mats: Sequence[Matrix]) -> "Subspace":
        """{v : a·v in the subspace for every a}: the kernel of the stacked
        ann·a, with ann the functionals vanishing on the subspace."""
        if self.dim:
            ann = self.basis.nullspace()
            mats = [ann @ a for a in mats]
        rows = tuple(r for a in mats for r in a.data)
        kernel = Matrix._trusted(rows, len(rows), self.ambient).nullspace()
        return Subspace(self.ambient, kernel.rref()[0])

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, in dual coordinates."""
        return Subspace(self.ambient, self.basis.nullspace().rref()[0]) \
            if self.dim else Subspace.full(self.ambient)

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"


@dataclass(frozen=True)
class SubspaceArithmetic:
    sum: Subspace
    intersection: Subspace
    complement: Subspace
    quotient_dim: int


def subspace_ops(U: Subspace, V: Subspace) -> SubspaceArithmetic:
    """Sum, intersection, a complement of U in U+V, and dim((U+V)/U)."""
    total = U.add(V)
    inter = U.intersect(V)
    comp = U.complement_in(total)
    return SubspaceArithmetic(total, inter, comp, total.dim - U.dim)


class SymmetricForm:
    """Symmetric bilinear form given by its Gram matrix."""

    __slots__ = ("dim", "gram")

    def __init__(self, gram: Matrix):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        self.dim = gram.rows
        self.gram = gram

    @classmethod
    def euclidean(cls, n: int) -> "SymmetricForm":
        return cls(Matrix.identity(n))

    @classmethod
    def signed(cls, negatives: int, positives: int) -> "SymmetricForm":
        """diag(-1,...,-1,+1,...,+1) with the stated counts."""
        return cls(Matrix.diagonal([-1] * negatives + [1] * positives))

    def evaluate(self, u: Vector, v: Vector) -> Fraction:
        total = Q(0)
        for x, y in zip(self.gram.apply(v), u):
            if x and y:
                total += x * y
        return total

    def __eq__(self, other):
        return isinstance(other, SymmetricForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def is_nondegenerate(self) -> bool:
        return self.gram.rank() == self.dim

    def is_skew_adjoint(self, a: Matrix) -> bool:
        """<a x, y> = -<x, a y> for all x, y, i.e. gram·a is skew."""
        m = (self.gram @ a).data
        return not any(m[i][j] + m[j][i]
                       for i in range(self.dim) for j in range(i, self.dim))

    def restrict(self, U: Subspace) -> "SymmetricForm":
        rows = U.basis.data
        return SymmetricForm(Matrix(
            tuple(tuple(self.evaluate(u, v) for v in rows) for u in rows),
            U.dim, U.dim))

    def is_isotropic(self, U: Subspace) -> bool:
        return self.restrict(U).gram.is_zero()

    def __repr__(self):
        return f"SymmetricForm(dim {self.dim})"


def orthogonal_complement(U: Subspace, form: SymmetricForm) -> Subspace:
    """{x : <x, u> = 0 for all u in U} with respect to the given form."""
    if U.ambient != form.dim:
        raise ValueError("ambient dimension mismatch")
    if U.dim == 0:
        return Subspace.full(U.ambient)
    constraint = U.basis @ form.gram
    return Subspace(U.ambient, constraint.nullspace().rref()[0])


def solve_affine(A: Matrix, b: Vector) -> Optional[Tuple[Vector, Subspace]]:
    """Solve A x = b exactly: a particular solution plus the kernel."""
    particular = A.solve(b)
    if particular is None:
        return None
    kernel = Subspace(A.cols, A.nullspace().rref()[0])
    return particular, kernel


def signature(form: SymmetricForm) -> Tuple[int, int, int]:
    """Sylvester counts (negatives, zeros, positives) by exact congruence.

    Simultaneous row/column elimination; when every remaining diagonal entry
    vanishes, a nonzero off-diagonal pair is folded onto the diagonal first.
    """
    n = form.dim
    m = [list(r) for r in form.gram.data]
    neg = pos = 0
    todo = list(range(n))
    while todo:
        pivot = next((i for i in todo if m[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in todo for j in todo if j > i and m[i][j] != 0),
                        None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for col in range(n):
                m[i][col] += m[j][col]
            for row in range(n):
                m[row][i] += m[row][j]
            pivot = i
        d = m[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        todo.remove(pivot)
        for other in todo:
            if m[other][pivot] != 0:
                f = m[other][pivot] / d
                for col in range(n):
                    m[other][col] -= f * m[pivot][col]
                for row in range(n):
                    m[row][other] -= f * m[row][pivot]
    zero = n - neg - pos
    return neg, zero, pos


def lex_subsets(n: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """All p-element subsets of range(n) in lexicographic order."""
    return tuple(itertools.combinations(range(n), p))
