"""Univariate polynomial helpers over the rationals.

Coefficient tuples are stored low degree first and kept normalized (no
trailing zeros).  Only what the module-radical computation needs: gcd,
derivative, squarefree part, and Krylov-based minimal polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .lie import InternalCheckError
from .linalg import Matrix, Q, Vector, unit_vector

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


def lcm(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    g = gcd(p, q)
    return monic(divmod_poly(mul(p, q), g)[0])


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


def _annihilator(M: Matrix, v: Vector) -> Poly:
    """Monic generator of {p : p(M) v = 0} by first Krylov dependence."""
    rows = [v]
    w = v
    while True:
        w = M.apply(w)
        stack = Matrix.from_rows(tuple(rows) + (w,), cols=M.cols)
        red, pivots = stack.transpose().rref()
        if len(pivots) < stack.rows:
            break
        rows.append(w)
    # w = sum c_i M^i v is solvable; coefficients give the annihilator.
    krylov = Matrix.from_rows(tuple(rows), cols=M.cols).transpose()
    coeffs = krylov.solve(w)
    if coeffs is None:
        raise InternalCheckError("Krylov vector outside the span it depends on")
    return monic(tuple(-c for c in coeffs) + (Q(1),))


def minimal_polynomial(M: Matrix) -> Poly:
    """Minimal polynomial via iterated Krylov spans, exact arithmetic."""
    if M.rows != M.cols:
        raise ValueError("minimal polynomial of non-square matrix")
    n = M.rows
    if n == 0:
        return (Q(1),)
    result: Poly = (Q(1),)
    for i in range(n):
        result = lcm(result, _annihilator(M, unit_vector(n, i)))
        if degree(result) == n:
            break
    return result
