"""Exact dense linear algebra over the rationals.

Everything in this package reduces to the primitives here: rational
matrices, canonical subspaces (reduced row echelon bases), affine solving,
and symmetric-form diagnostics.  No floating point is used anywhere.  A
matrix holds integer rows over one positive common denominator in lowest
terms, and all arithmetic, elimination included, is done on those
integers; entries, vectors and solutions are given out as exact
``fractions.Fraction`` values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence, Tuple

Q = Fraction
_ZERO = Fraction(0)

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


class Matrix:
    """Immutable dense rational matrix, row-major.

    The entries are held as integer rows ``num`` over one common
    denominator ``den`` in lowest terms: ``den > 0`` and
    ``gcd(den, *entries) == 1``, so equal matrices have equal fields.  All
    arithmetic is done on the integers; ``data``, ``[i, j]``, ``row``,
    ``column``, ``apply`` and ``solve`` give Fractions.
    """

    __slots__ = ("rows", "cols", "num", "den", "_data")

    def __init__(self, data: Sequence[Sequence], rows: Optional[int] = None,
                 cols: Optional[int] = None):
        table = tuple(tuple(rational(x) for x in row) for row in data)
        if rows is None:
            rows = len(table)
        if cols is None:
            cols = len(table[0]) if table else 0
        if len(table) != rows or any(len(r) != cols for r in table):
            raise ValueError("ragged matrix data")
        # over the lcm of lowest-terms denominators the rows are in lowest
        # terms already
        den = lcm(*(x.denominator for r in table for x in r))
        self.rows = rows
        self.cols = cols
        self.num = tuple(tuple(x.numerator * (den // x.denominator)
                               for x in r) for r in table)
        self.den = den
        self._data = table

    @classmethod
    def _int(cls, num: Tuple[Tuple[int, ...], ...], den: int, rows: int,
             cols: int) -> "Matrix":
        """The matrix num/den from integer rows this module computed: a
        tuple of ``rows`` tuples of ``cols`` ints and a positive ``den``,
        brought to lowest terms and otherwise taken without a check."""
        g = gcd(den, *itertools.chain.from_iterable(num))
        if g != 1:
            num = tuple(tuple(x // g for x in r) for r in num)
            den //= g
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out.num = num
        out.den = den
        out._data = None
        return out

    @property
    def data(self) -> Tuple[Vector, ...]:
        """The entries as rows of Fractions, built on first read."""
        if self._data is None:
            den = self.den
            self._data = tuple(tuple(Fraction(x, den) if x else _ZERO
                                     for x in r) for r in self.num)
        return self._data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._int(((0,) * cols,) * rows, 1, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._int(tuple(tuple(int(i == j) for j in range(n))
                              for i in range(n)), 1, n, n)

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
        return Fraction(self.num[i][j], self.den)

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.num))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        (a, b), den = _common((self, other))
        return Matrix._int(tuple(tuple(map(add, r, s)) for r, s in zip(a, b)),
                           den, self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        (a, b), den = _common((self, other))
        return Matrix._int(tuple(tuple(map(sub, r, s)) for r, s in zip(a, b)),
                           den, self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = rational(c)
        n = c.numerator
        return Matrix._int(tuple(tuple(x * n for x in r) for r in self.num),
                           self.den * c.denominator, self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        onum = other.num
        zero = (0,) * other.cols
        out = []
        for row in self.num:
            acc = None
            for x, orow in zip(row, onum):
                if x:
                    if acc is None:
                        acc = orow if x == 1 else [x * y for y in orow]
                    else:
                        acc = [a + x * y for a, y in zip(acc, orow)]
            out.append(zero if acc is None else tuple(acc))
        return Matrix._int(tuple(out), self.den * other.den, self.rows,
                           other.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix acting on a coordinate column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        iv, dv = _integer_vector(v)
        den = self.den * dv
        return tuple(Fraction(s, den) if s else _ZERO
                     for s in (sum(map(mul, row, iv)) for row in self.num))

    def transpose(self) -> "Matrix":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return Matrix._int(num, self.den, self.cols, self.rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return Fraction(sum(self.num[i][i] for i in range(self.rows)),
                        self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        (a, b), den = _common((self, other))
        return Matrix._int(tuple(map(add, a, b)), den, self.rows,
                           self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        return stack_rows((self, other), self.cols)

    def rref(self) -> Tuple["Matrix", Tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        Fraction-free Gauss–Jordan elimination on the integer rows: a row
        operation replaces a row r by p·r − f·s (s the pivot row, p its
        pivot, f the entry of r under it) and divides the result by its
        content.  At the end each pivot row is scaled so that every pivot
        equals their common multiple D, which is the unique RREF over D.
        """
        rows, cols = self.rows, self.cols
        m = list(self.num)
        pivots = []
        prow = 0
        for col in range(cols):
            if prow == rows:
                break
            sel = next((r for r in range(prow, rows) if m[r][col]), None)
            if sel is None:
                continue
            top = m[sel]
            g = gcd(*top)
            if g != 1:
                top = [x // g for x in top]
            m[sel] = m[prow]
            m[prow] = top
            p = top[col]
            for r in range(rows):
                row = m[r]
                f = row[col]
                if f and r != prow:
                    if p == 1:
                        new = [x - f * y for x, y in zip(row, top)]
                    else:
                        new = [p * x - f * y for x, y in zip(row, top)]
                    g = gcd(*new)
                    if g > 1:
                        new = [x // g for x in new]
                    m[r] = new
            pivots.append(col)
            prow += 1
        heads = [m[i][p] for i, p in enumerate(pivots)]
        common = lcm(*heads)
        out = tuple(tuple(x * (common // h) for x in m[i])
                    for i, h in enumerate(heads))
        out += ((0,) * cols,) * (rows - prow)
        return Matrix._int(out, common, rows, cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Matrix":
        """Rows span the right kernel {x : A x = 0}."""
        red, pivots = self.rref()
        num, common = red.num, red.den
        taken = set(pivots)
        basis = []
        for f in range(self.cols):
            if f in taken:
                continue
            v = [0] * self.cols
            v[f] = common
            for r, p in enumerate(pivots):
                v[p] = -num[r][f]
            basis.append(tuple(v))
        return Matrix._int(tuple(basis), common, len(basis), self.cols)

    def solve(self, b: Vector) -> Optional[Vector]:
        """One solution of A x = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        # row i of [A | b] times den·denominator(b_i): the same RREF
        den = self.den
        aug = tuple(tuple(x * y.denominator for x in r) + (y.numerator * den,)
                    for r, y in zip(self.num, b))
        red, pivots = Matrix._int(aug, 1, self.rows, self.cols + 1).rref()
        if self.cols in pivots:
            return None
        x = [_ZERO] * self.cols
        for r, p in enumerate(pivots):
            x[p] = Fraction(red.num[r][self.cols], red.den)
        return tuple(x)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n, den = self.rows, self.den
        aug = tuple(r + tuple(den if j == i else 0 for j in range(n))
                    for i, r in enumerate(self.num))
        red, pivots = Matrix._int(aug, den, n, 2 * n).rref()
        if len(pivots) != n or any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix._int(tuple(r[n:] for r in red.num), red.den, n, n)

    def det(self) -> Fraction:
        """Bareiss's fraction-free elimination on the integer rows: each
        step's entries are 2x2 minors divided exactly by the previous
        pivot, and the last pivot is det(num) = den^n · det."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        m = [list(r) for r in self.num]
        sign, prev = 1, 1
        for k in range(n):
            sel = next((r for r in range(k, n) if m[r][k]), None)
            if sel is None:
                return _ZERO
            if sel != k:
                m[k], m[sel] = m[sel], m[k]
                sign = -sign
            top = m[k]
            p = top[k]
            for i in range(k + 1, n):
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
            prev = p
        return Fraction(sign * prev, self.den ** n)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _common(mats: Sequence[Matrix]):
    """The integer rows of each matrix over the lcm of their denominators,
    and that lcm."""
    den = lcm(*(a.den for a in mats))
    return [a.num if a.den == den else
            tuple(tuple(x * (den // a.den) for x in r) for r in a.num)
            for a in mats], den


def _integer_vector(v: Vector) -> Tuple[Tuple[int, ...], int]:
    """(w, d) with v = w/d, w integers and d the lcm of v's denominators."""
    d = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v), d


def stack_rows(mats: Sequence[Matrix], cols: int) -> Matrix:
    """The rows of the matrices in turn, as one matrix of width cols."""
    if any(a.cols != cols for a in mats):
        raise ValueError("column count mismatch in vstack")
    nums, den = _common(mats)
    rows = tuple(itertools.chain.from_iterable(nums))
    return Matrix._int(rows, den, len(rows), cols)


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
    nums, den = _common(blocks)
    rows = []
    offset = 0
    for b, num in zip(blocks, nums):
        left, right = (0,) * offset, (0,) * (cols - offset - b.cols)
        rows.extend(left + r + right for r in num)
        offset += b.cols
    return Matrix._int(tuple(rows), den, len(rows), cols)


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
    return Matrix._int(inv.num[start:start + size], inv.den, size, ambient)


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
        return cls.row_space(
            Matrix.from_rows(tuple(tuple(r) for r in rows), cols=ambient))

    @classmethod
    def row_space(cls, mat: Matrix) -> "Subspace":
        """The span of mat's rows."""
        red, pivots = mat.rref()
        k = len(pivots)
        return cls(mat.cols, Matrix._int(red.num[:k], red.den, k, mat.cols))

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
        """Coefficients of v in the canonical basis, or None if outside.

        The coefficient of a basis row is v's entry at the row's pivot.
        """
        if self.dim == self.ambient:
            return tuple(v)    # canonical basis of the full space is identity
        pivots = self._pivots()
        if not self._holds(_integer_vector(v)[0], pivots):
            return None
        return tuple(v[p] for p in pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        pivots = self._pivots()
        return all(self._holds(r, pivots) for r in other.basis.num)

    def _pivots(self) -> Tuple[int, ...]:
        # in a canonical basis each row's first nonzero entry is its pivot,
        # equal to the common denominator
        den = self.basis.den
        return tuple(r.index(den) for r in self.basis.num)

    def _holds(self, w: Sequence[int], pivots: Tuple[int, ...]) -> bool:
        """Whether the integer vector w lies in the subspace: w·den minus
        w's pivot entries times the integer basis rows is zero."""
        residual = [x * self.basis.den for x in w]
        for p, row in zip(pivots, self.basis.num):
            c = w[p]
            if c:
                residual = [x - c * y for x, y in zip(residual, row)]
        return not any(residual)

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.row_space(self.basis.vstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        # x = c·U = d·V; kernel of the stacked transposed bases gives (c, d).
        stacked = self.basis.transpose().hstack(other.basis.transpose().scale(-1))
        combos = stacked.nullspace()
        coeffs = Matrix._int(tuple(c[: self.dim] for c in combos.num),
                             combos.den, combos.rows, self.dim)
        return Subspace.row_space(coeffs @ self.basis)

    def complement_in(self, larger: "Subspace") -> "Subspace":
        """A complement W with self ⊕ W = larger (self ⊆ larger required)."""
        if not larger.contains_subspace(self):
            raise ValueError("complement_in requires containment")
        # Keep each basis vector of larger that is independent of self and
        # of the vectors kept before it: with self's basis and then larger's
        # as the columns of one matrix, these are its pivot columns past
        # self's.
        vectors = self.basis.vstack(larger.basis)
        _, pivots = vectors.transpose().rref()
        chosen = tuple(vectors.num[p] for p in pivots if p >= self.dim)
        return Subspace.row_space(
            Matrix._int(chosen, vectors.den, len(chosen), self.ambient))

    def image(self, mat: Matrix) -> "Subspace":
        """Span of mat·v over basis vectors v (mat acts on columns): the
        rows of basis·matᵀ."""
        if mat.cols != self.ambient:
            raise ValueError("matrix width differs from ambient dim")
        return Subspace.row_space(self.basis @ mat.transpose())

    def preimage(self, mats: Sequence[Matrix]) -> "Subspace":
        """{v : a·v in the subspace for every a}: the kernel of the stacked
        ann·a, with ann the functionals vanishing on the subspace."""
        if self.dim:
            ann = self.basis.nullspace()
            mats = [ann @ a for a in mats]
        kernel = stack_rows(mats, self.ambient).nullspace()
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
        m = (self.gram @ a).num
        return not any(m[i][j] + m[j][i]
                       for i in range(self.dim) for j in range(i, self.dim))

    def restrict(self, U: Subspace) -> "SymmetricForm":
        return SymmetricForm(U.basis @ self.gram @ U.basis.transpose())

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
