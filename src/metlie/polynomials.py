"""Univariate polynomial helpers over the rationals.

Coefficient tuples are stored low degree first.  The public functions take
and give normalized ``Fraction`` tuples (no trailing zeros), monic where a
polynomial is defined up to a scalar.  Inside, polynomials are integer
tuples: gcds and squarefree parts are primitive pseudo-remainder sequences
(Gauss' lemma), and minimal polynomials come from Krylov chains on a
matrix's integer rows.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Tuple

from .lie import InternalCheckError
from .linalg import Matrix, Q

Poly = Tuple[Fraction, ...]
IntPoly = Tuple[int, ...]


def normalize(p) -> Poly:
    p = tuple(Q(c) if not isinstance(c, Fraction) else c for c in p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def _scaled(p) -> Tuple[IntPoly, int]:
    """(w, d) with p = w/d, w integers and d the lcm of p's denominators."""
    p = normalize(p)
    d = lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (d // c.denominator) for c in p), d


def _primitive(w) -> IntPoly:
    """w without trailing zeros, over its content, leading entry > 0."""
    w = list(w)
    while w and not w[-1]:
        w.pop()
    g = -int_gcd(*w) if w and w[-1] < 0 else int_gcd(*w)
    return tuple(x // g for x in w)


def primitive(p) -> IntPoly:
    """The primitive multiple of p with a positive leading coefficient."""
    return _primitive(_scaled(p)[0])


def _fractions(w, den: int) -> Poly:
    return tuple(Fraction(x, den) for x in w)


def monic(p) -> Poly:
    w = _scaled(p)[0]
    return _fractions(w, w[-1]) if w else ()


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    p = p + (Q(0),) * (n - len(p))
    q = q + (Q(0),) * (n - len(q))
    return normalize(tuple(a + b for a, b in zip(p, q)))


def _mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def mul(p: Poly, q: Poly) -> Poly:
    (a, da), (b, db) = _scaled(p), _scaled(q)
    return _fractions(_mul(a, b), da * db)


def _pseudo_divmod(a: IntPoly, b: IntPoly) -> Tuple[IntPoly, list, int]:
    """(q, r, s) with s·a = q·b + r, deg r < deg b (r may keep trailing
    zeros) and s = lc(b)^k, k = deg a − deg b + 1 or 0 if that is negative."""
    k = max(len(a) - len(b) + 1, 0)
    lead, top = b[-1], len(b) - 1
    q, r = [0] * k, list(a)
    for i in reversed(range(k)):
        c = r[i + top]
        q, r = [lead * x for x in q], [lead * x for x in r]
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] -= c * y
    return tuple(q), r[:top], lead ** k


def divmod_poly(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    (a, da), (b, db) = _scaled(p), _scaled(q)
    if not b:
        raise InternalCheckError("polynomial division by zero")
    # s·a = quot·b + rem gives p = a/da = (quot·db/(s·da))·q + rem/(s·da)
    quot, rem, s = _pseudo_divmod(a, b)
    return (_fractions((x * db for x in quot), s * da),
            normalize(_fractions(rem, s * da)))


def _gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The primitive gcd, by the primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def gcd(p: Poly, q: Poly) -> Poly:
    return monic(_gcd(_scaled(p)[0], _scaled(q)[0]))


def derivative(p: Poly) -> Poly:
    w, d = _scaled(p)
    return _fractions((i * w[i] for i in range(1, len(w))), d)


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p') — squarefree over any perfect field, exact over Q.
    For primitive w and g, w/g has integer coefficients and the
    pseudo-quotient is a multiple of it."""
    w = primitive(p)
    if len(w) > 2:
        dw = [i * w[i] for i in range(1, len(w))]
        w = _pseudo_divmod(w, _gcd(w, dw))[0]
    return monic(w)


def _apply(N, v):
    return [sum(map(operator.mul, row, v)) for row in N]


def _horner(w: IntPoly, N, i: int, den: int = 1):
    """Σ_k w_k·den^(deg−k)·N^k e_i for integer rows N, by Horner's rule."""
    out, scale = [0] * len(N), 1
    for k, c in enumerate(reversed(w)):
        if k:
            out, scale = _apply(N, out), scale * den
        out[i] += c * scale
    return out


def evaluate_matrix(p: Poly, M: Matrix) -> Matrix:
    """p(M) column by column: with p = w/d and N = den·M, column i is
    Σ_k w_k·den^(deg−k)·N^k e_i over d·den^deg."""
    if M.rows != M.cols:
        raise InternalCheckError("polynomial of a non-square matrix")
    w, d = _scaled(p)
    columns = [_horner(w, M.num, i, M.den) for i in range(M.rows)]
    return Matrix._int(tuple(zip(*columns)),
                       d * M.den ** max(len(w) - 1, 0), M.rows, M.cols)


def _annihilator(N, v, limit: int) -> IntPoly:
    """Monic generator of {p : p(N) v = 0}, of degree at most ``limit``,
    for integer rows N and an integer vector v: the first dependence among
    the columns v, Nv, ..., N^limit v of one reduced row echelon form.  It
    divides N's monic integer minimal polynomial, so it is monic integer
    too (Gauss' lemma)."""
    chain = [v]
    for _ in range(limit):
        chain.append(_apply(N, chain[-1]))
    red, pivots = Matrix._int(tuple(zip(*chain)), 1, len(N), limit + 1).rref()
    # pivots are 0, 1, ..., d-1 up to the first dependent column d
    d = next((c for c, col in enumerate(pivots) if col != c), len(pivots))
    if d > limit:
        raise InternalCheckError("no Krylov dependence within the degree bound")
    p = tuple(-red.num[r][d] for r in range(d)) + (red.den,)
    if any(sum(map(operator.mul, p, x)) for x in zip(*chain[:d + 1])):
        raise InternalCheckError("Krylov polynomial does not annihilate its vector")
    return _primitive(p)


def minimal_polynomial(M: Matrix) -> Poly:
    """Minimal polynomial via Krylov annihilators on the integer rows
    N = den·M: m_M(t) = m_N(den·t)/den^deg.  With m annihilating e_0, ...,
    e_{i-1}, m·ann(m(N) e_i) is lcm(m, ann(e_i)), so no gcd is needed.
    """
    if M.rows != M.cols:
        raise InternalCheckError("polynomial of a non-square matrix")
    n = M.rows
    result: IntPoly = (1,)
    for i in range(n):
        w = _horner(result, M.num, i)
        if any(w):
            result = _mul(result, _annihilator(M.num, w, n + 1 - len(result)))
            if len(result) == n + 1:
                break
    deg = len(result) - 1
    return tuple(Fraction(c, M.den ** (deg - k)) for k, c in enumerate(result))
