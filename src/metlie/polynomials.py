"""Univariate polynomial helpers over the rationals.

Coefficient tuples are stored low degree first and kept normalized (no
trailing zeros).  Only what the module-radical computation needs: gcd,
derivative, squarefree part, and Krylov-based minimal polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .lie import InternalCheckError
from .linalg import Matrix, Q, Vector, unit_vector, vec_add, vec_scale

Poly = Tuple[Fraction, ...]


def normalize(p) -> Poly:
    p = tuple(Q(c) if not isinstance(c, Fraction) else c for c in p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def monic(p: Poly) -> Poly:
    p = normalize(p)
    if not p:
        return p
    lead = p[-1]
    return tuple(c / lead for c in p)


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    p = p + (Q(0),) * (n - len(p))
    q = q + (Q(0),) * (n - len(q))
    return normalize(tuple(a + b for a, b in zip(p, q)))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(tuple(out))


def divmod_poly(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    p, q = normalize(p), normalize(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Q(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q) and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return normalize(tuple(quot)), normalize(tuple(rem))


def gcd(p: Poly, q: Poly) -> Poly:
    p, q = normalize(p), normalize(q)
    while q:
        p, q = q, divmod_poly(p, q)[1]
    return monic(p)


def derivative(p: Poly) -> Poly:
    return normalize(tuple(Q(i) * p[i] for i in range(1, len(p))))


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p') — squarefree over any perfect field, exact over Q."""
    p = monic(p)
    if degree(p) <= 1:
        return p
    g = gcd(p, derivative(p))
    return monic(divmod_poly(p, g)[0])


def evaluate_matrix(p: Poly, M: Matrix) -> Matrix:
    acc = Matrix.zeros(M.rows, M.cols)
    power = Matrix.identity(M.rows)
    for c in p:
        if c != 0:
            acc = acc + power.scale(c)
        power = power @ M
    return acc


def _annihilator(M: Matrix, v: Vector, limit: int) -> Poly:
    """Monic generator of {p : p(M) v = 0}, of degree at most ``limit``.

    Read off the first dependence among the columns v, Mv, ..., M^limit v
    of one reduced row echelon form.
    """
    krylov = [v]
    for _ in range(limit):
        krylov.append(M.apply(krylov[-1]))
    red, pivots = Matrix.from_columns(krylov, rows=M.rows).rref()
    # pivots are 0, 1, ..., d-1 up to the first dependent column d
    d = next((c for c, col in enumerate(pivots) if col != c), len(pivots))
    if d > limit:
        raise InternalCheckError("no Krylov dependence within the degree bound")
    p = tuple(-red[r, d] for r in range(d)) + (Q(1),)
    if any(sum((c * x[row] for c, x in zip(p, krylov) if c), Q(0))
           for row in range(M.rows)):
        raise InternalCheckError("Krylov polynomial does not annihilate its vector")
    return p


def minimal_polynomial(M: Matrix) -> Poly:
    """Minimal polynomial via Krylov annihilators, exact arithmetic.

    With m annihilating e_0, ..., e_{i-1}, the product m·ann(m(M) e_i) is
    lcm(m, ann(e_i)), so no polynomial gcd is needed.
    """
    if M.rows != M.cols:
        raise ValueError("minimal polynomial of non-square matrix")
    n = M.rows
    result: Poly = (Q(1),)
    for i in range(n):
        w = _evaluate_on(result, M, unit_vector(n, i))
        if any(w):
            result = mul(result, _annihilator(M, w, n - degree(result)))
            if degree(result) == n:
                break
    return result


def _evaluate_on(p: Poly, M: Matrix, v: Vector) -> Vector:
    """p(M) v for monic p, by Horner's rule."""
    out = v
    for c in reversed(p[:-1]):
        out = M.apply(out)
        if c:
            out = vec_add(out, vec_scale(c, v))
    return out
