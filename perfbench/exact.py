"""Exact arithmetic the checkers use in place of the program's own routines.

Everything here works on plain nested tuples or lists of ``Fraction`` and
never calls into ``metlie``: a check that reused the program's kernels
would share their faults.  The structure tables read here are the
``table`` attribute of a ``LieAlgebra`` (``table[i][j]`` holds the
coordinates of [e_i, e_j]) or the same shape parsed from a document.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Vec = Tuple[Fraction, ...]
Mat = List[List[Fraction]]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def transpose(a: Sequence[Sequence[Fraction]]) -> Mat:
    return [list(col) for col in zip(*a)]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), Fraction(0))
                 for row in a)


def inverse(a: Sequence[Sequence[Fraction]]) -> Mat:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    work = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = 1 / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


# --- index by Descartes' rule on the characteristic polynomial -------------

def charpoly(a: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Coefficients c_0..c_n of det(xI - A) by Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        for i in range(n):
            am[i][i] += coeffs[n - k + 1]
        m = am
        trace = sum((a[i][j] * m[j][i] for i in range(n) for j in range(n)),
                    Fraction(0))
        coeffs[n - k] = -trace / k
    return coeffs


def _sign_changes(coeffs: Sequence[Fraction]) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def inertia(gram: Sequence[Sequence[Fraction]]) -> Tuple[int, int, int]:
    """(negatives, zeros, positives) of a symmetric matrix.

    Its eigenvalues are real, so Descartes' rule counts the positive roots
    of the characteristic polynomial p(x), and of p(-x) the negative ones,
    exactly and with multiplicity.
    """
    p = charpoly(gram)
    zeros = next(i for i, c in enumerate(p) if c != 0)
    p = p[zeros:]
    positives = _sign_changes(p)
    negatives = _sign_changes([c if i % 2 == 0 else -c for i, c in enumerate(p)])
    return negatives, zeros, positives


# --- structure constants ----------------------------------------------------

def ad_matrix(table, k: int) -> Mat:
    """ad(e_k) on column coordinates: column j holds [e_k, e_j]."""
    n = len(table)
    return [[Fraction(table[k][j][i]) for j in range(n)] for i in range(n)]


def invariance_failure(table, gram) -> Optional[int]:
    """First k for which G ad(e_k) is not skew-symmetric, else None."""
    for k in range(len(table)):
        prod = mat_mul(gram, ad_matrix(table, k))
        n = len(prod)
        if any(prod[i][j] != -prod[j][i] for i in range(n) for j in range(i, n)):
            return k
    return None


def _sparse(v: Sequence[Fraction]):
    return [(i, x) for i, x in enumerate(v) if x]


def bracket(table, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
    n = len(table)
    out = [Fraction(0)] * n
    ys = _sparse(y)
    for i, xi in _sparse(x):
        row = table[i]
        for j, yj in ys:
            if i != j:
                c = xi * yj
                for k, t in enumerate(row[j]):
                    if t:
                        out[k] += c * t
    return tuple(out)


def isometric_isomorphism_failure(phi, src_table, src_gram, dst_table,
                                  dst_gram) -> Optional[str]:
    """Why phi (columns = images of the source basis) is not an isometric
    Lie algebra isomorphism from the source onto the target, or None."""
    n = len(src_table)
    if len(phi) != n or any(len(r) != n for r in phi):
        return "map has the wrong shape"
    if mat_mul(mat_mul(transpose(phi), dst_gram), phi) != \
            [list(map(Fraction, r)) for r in src_gram]:
        return "not an isometry"
    cols = [tuple(phi[r][c] for r in range(n)) for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if mat_vec(phi, src_table[i][j]) != bracket(dst_table, cols[i], cols[j]):
                return f"bracket of source basis pair ({i},{j}) is not carried"
    return None


# --- documents --------------------------------------------------------------

def table_from_entries(dim: int, entries) -> List[List[Vec]]:
    """Full antisymmetric table from sparse (i, j, k, value), i < j."""
    rows = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, v in entries:
        rows[i][j][k] += Fraction(v)
        rows[j][i][k] -= Fraction(v)
    return [[tuple(v) for v in row] for row in rows]


def random_unimodular(rng: random.Random, n: int) -> Tuple[Mat, Mat]:
    """An integral matrix of determinant +-1 and its inverse: the all-ones
    upper unitriangular matrix between two random diagonal sign matrices.

    Every seed gets the same pattern of nonzero entries, so that the
    inputs of different seeds cost the same to process.
    """
    rows = [rng.choice((-1, 1)) for _ in range(n)]
    cols = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[Fraction(rows[i] * cols[j] * int(j >= i)) for j in range(n)]
         for i in range(n)]
    return p, inverse(p)


def change_basis(table, gram, p: Mat, p_inv: Mat):
    """Structure constants and Gram matrix in the basis f_i = sum_a p[a][i] e_a."""
    n = len(table)
    cols = [tuple(p[a][i] for a in range(n)) for i in range(n)]
    new_table = [[None] * n for _ in range(n)]
    for i in range(n):
        new_table[i][i] = (Fraction(0),) * n
        for j in range(i + 1, n):
            v = mat_vec(p_inv, bracket(table, cols[i], cols[j]))
            new_table[i][j] = v
            new_table[j][i] = tuple(-x for x in v)
    new_gram = mat_mul(mat_mul(transpose(p), gram), p)
    return new_table, new_gram
