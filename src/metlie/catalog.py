"""Base algebras, orthogonal representation families, and the index-3 rows.

Constructors for the six base algebras, the weight-block families
(rotation, negative-definite rotation, boost, the coupled 4x4 family,
trivial blocks, and the real irreducibles of su(2)), row builders for the
classification table, non-isomorphism certificates from the stated
invariants, and the sweep pipeline that verifies index, balancedness,
admissibility and indecomposability for every row within bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cohomology import Cochain, CochainComplex, QuadraticCocycle
from .lie import InternalCheckError, LieAlgebra, abelian, killing_form
from .linalg import (Matrix, Q, Subspace, SymmetricForm, block_diagonal,
                     rational, signature, unit_vector)
from .modules import Representation
from .quadext import (IndecomposabilityVerdict, StandardModel,
                      admissibility, build_model, build_modified,
                      is_balanced, is_indecomposable_class)

BASE_NAMES = ("n2", "r3m1", "r3m2", "h1", "sl2r", "su2", "R1", "R2", "R3")

_BASE_CACHE: Dict[str, LieAlgebra] = {}


def base_algebra(name: str) -> LieAlgebra:
    """Structure constants of the named base algebra on its standard basis.

    Instances are immutable and shared, so derived invariants (Killing
    form, radicals, adjoint filtrations) are computed once per base.
    """
    if name in _BASE_CACHE:
        return _BASE_CACHE[name]
    algebra = _construct_base(name)
    _BASE_CACHE[name] = algebra
    return algebra


def _construct_base(name: str) -> LieAlgebra:
    if name == "n2":       # [X,Y] = Z, [X,Z] = -Y
        return LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]},
                          labels=("X", "Y", "Z"))
    if name == "r3m1":     # [X,Y] = Y, [X,Z] = -Z
        return LieAlgebra(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, -1]},
                          labels=("X", "Y", "Z"))
    if name == "r3m2":     # [X,Y] = -2Y, [X,Z] = Z
        return LieAlgebra(3, {(0, 1): [0, -2, 0], (0, 2): [0, 0, 1]},
                          labels=("X", "Y", "Z"))
    if name == "h1":       # [X,Y] = Z
        return LieAlgebra(3, {(0, 1): [0, 0, 1]}, labels=("X", "Y", "Z"))
    if name == "sl2r":     # basis H, E, F
        return LieAlgebra(3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2],
                              (1, 2): [1, 0, 0]}, labels=("H", "E", "F"))
    if name == "su2":      # cyclic orthonormal basis
        return LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0],
                              (0, 2): [0, -1, 0]}, labels=("e1", "e2", "e3"))
    if name in ("R1", "R2", "R3"):
        return abelian(int(name[1]))
    raise ValueError(f"unknown base algebra {name!r}")


@dataclass(frozen=True)
class RepFamilySpec:
    """One block family of an orthogonal representation.

    ``weights`` holds functionals on the base algebra as coordinate tuples:
    one per block for kind plus/minus/prime, pairs (mu, nu) for
    doubleprime, the signature pair (negatives, positives) for trivial
    blocks, and the irreducible index (k,) for the su(2) kinds.
    """
    kind: str
    weights: Tuple


def _plus_block(value: Fraction) -> Matrix:
    return Matrix([[0, -value], [value, 0]])


def _prime_block(value: Fraction) -> Matrix:
    return Matrix([[0, value], [value, 0]])


def _doubleprime_block(mu: Fraction, nu: Fraction) -> Matrix:
    return Matrix([
        [0, -nu, mu, 0],
        [nu, 0, 0, mu],
        [mu, 0, 0, -nu],
        [0, mu, nu, 0]])


def build_rep(specs: Sequence[RepFamilySpec], l: LieAlgebra) -> Representation:
    """Block-diagonal representation with the signed-orthonormal form
    (computed invariant form for the su(2) irreducible blocks)."""
    block_actions: List[List[Matrix]] = []   # per spec: one matrix per basis elt
    block_forms: List[Matrix] = []
    per_block_gram = {"plus": (1, 1), "minus": (-1, -1), "prime": (-1, 1),
                      "doubleprime": (-1, -1, 1, 1)}
    for spec in specs:
        if spec.kind in ("plus", "minus", "prime"):
            mats = []
            for i in range(l.dim):
                blocks = []
                for w in spec.weights:
                    val = rational(w[i]) if i < len(w) else Q(0)
                    blocks.append(_plus_block(val) if spec.kind != "prime"
                                  else _prime_block(val))
                mats.append(block_diagonal(blocks))
            block_actions.append(mats)
            block_forms.append(Matrix.diagonal(
                per_block_gram[spec.kind] * len(spec.weights)))
        elif spec.kind == "doubleprime":
            mats = []
            for i in range(l.dim):
                blocks = []
                for (mu, nu) in spec.weights:
                    mu_i = rational(mu[i]) if i < len(mu) else Q(0)
                    nu_i = rational(nu[i]) if i < len(nu) else Q(0)
                    blocks.append(_doubleprime_block(mu_i, nu_i))
                mats.append(block_diagonal(blocks))
            block_actions.append(mats)
            block_forms.append(Matrix.diagonal(
                per_block_gram[spec.kind] * len(spec.weights)))
        elif spec.kind == "trivial":
            neg, pos = spec.weights
            size = neg + pos
            block_actions.append([Matrix.zeros(size, size)] * l.dim)
            block_forms.append(Matrix.diagonal([-1] * neg + [1] * pos))
        elif spec.kind == "su2_odd":
            rep = su2_odd_irrep(spec.weights[0], l)
            block_actions.append(list(rep.action))
            block_forms.append(rep.form.gram)
        elif spec.kind == "su2_quat":
            rep = su2_quaternionic_irrep(spec.weights[0], l)
            block_actions.append(list(rep.action))
            block_forms.append(rep.form.gram)
        else:
            raise ValueError(f"unknown family kind {spec.kind!r}")

    action = []
    for i in range(l.dim):
        action.append(block_diagonal([mats[i] for mats in block_actions]))
    form = SymmetricForm(block_diagonal(block_forms))
    total = sum(m.rows for m in block_forms)
    rep = Representation(l, tuple(action), form=form, validate=True,
                         module_dim=total)
    return rep


def _invariant_symmetric_gram(action: Sequence[Matrix]) -> Matrix:
    """The (unique up to scale) invariant symmetric form of an irreducible
    family, normalized to primitive integer entries and positive definite."""
    m = action[0].rows
    pairs = [(r, s) for r in range(m) for s in range(r, m)]
    idx = {p: t for t, p in enumerate(pairs)}
    rows = []
    for A in action:
        # (A^T G + G A)_{rc} = sum_k A_{kr} G_{kc} + G_{rk} A_{kc} = 0
        for r in range(m):
            for c in range(m):
                row = [Q(0)] * len(pairs)
                for k in range(m):
                    row[idx[(min(k, c), max(k, c))]] += A[k, r]
                    row[idx[(min(r, k), max(r, k))]] += A[k, c]
                rows.append(row)
    system = Matrix.from_rows(tuple(rows), cols=len(pairs))
    null = system.nullspace()
    if null.rows != 1:
        raise InternalCheckError(
            f"invariant form space has dimension {null.rows}, expected 1")
    coeffs = null.data[0]
    gram_rows = [[Q(0)] * m for _ in range(m)]
    for (r, s), t in idx.items():
        gram_rows[r][s] = coeffs[t]
        gram_rows[s][r] = coeffs[t]
    gram = Matrix(gram_rows, m, m)
    neg, zero, pos = signature(SymmetricForm(gram))
    if zero:
        raise InternalCheckError("invariant form of an irreducible is degenerate")
    if neg and pos:
        raise InternalCheckError("invariant form of a compact irreducible "
                                 "is indefinite")
    if neg:
        gram = gram.scale(-1)
    gram = gram.scale(math.lcm(*(x.denominator for row in gram.data
                                 for x in row)))
    g = math.gcd(*(int(x) for row in gram.data for x in row))
    if g > 1:
        gram = gram.scale(Q(1, g))
    return gram


def _monomials3(k: int) -> List[Tuple[int, int, int]]:
    return [(a, b, k - a - b) for a in range(k, -1, -1)
            for b in range(k - a, -1, -1)]


def su2_odd_irrep(k: int, l: Optional[LieAlgebra] = None) -> Representation:
    """sigma_k of dimension 2k+1 on harmonic degree-k polynomials in 3
    variables, integer action matrices, computed invariant form."""
    if l is None:
        l = base_algebra("su2")
    monos = _monomials3(k)
    pos = {m: i for i, m in enumerate(monos)}
    dim = len(monos)

    def rotation(i: int) -> Matrix:
        # minus the rotation vector field around axis i
        cols = []
        for (a, b, c) in monos:
            col = [Q(0)] * dim
            terms = []
            if i == 0:   # -(y d/dz - z d/dy)
                if c:
                    terms.append(((a, b + 1, c - 1), -Q(c)))
                if b:
                    terms.append(((a, b - 1, c + 1), Q(b)))
            elif i == 1:  # -(z d/dx - x d/dz)
                if a:
                    terms.append(((a - 1, b, c + 1), -Q(a)))
                if c:
                    terms.append(((a + 1, b, c - 1), Q(c)))
            else:        # -(x d/dy - y d/dx)
                if b:
                    terms.append(((a + 1, b - 1, c), -Q(b)))
                if a:
                    terms.append(((a - 1, b + 1, c), Q(a)))
            for mono, coeff in terms:
                col[pos[mono]] += coeff
            cols.append(tuple(col))
        return Matrix.from_columns(cols, rows=dim)

    full_action = [rotation(i) for i in range(3)]
    if k >= 2:
        lower = _monomials3(k - 2)
        lower_pos = {m: i for i, m in enumerate(lower)}
        cols = []
        for (a, b, c) in monos:
            col = [Q(0)] * len(lower)
            if a >= 2:
                col[lower_pos[(a - 2, b, c)]] += Q(a * (a - 1))
            if b >= 2:
                col[lower_pos[(a, b - 2, c)]] += Q(b * (b - 1))
            if c >= 2:
                col[lower_pos[(a, b, c - 2)]] += Q(c * (c - 1))
            cols.append(tuple(col))
        laplacian = Matrix.from_columns(cols, rows=len(lower))
        harmonic = Subspace(dim, laplacian.nullspace().rref()[0])
    else:
        harmonic = Subspace.full(dim)
    if harmonic.dim != 2 * k + 1:
        raise InternalCheckError(
            f"harmonic space of degree {k} has dim {harmonic.dim}")

    basis = harmonic.basis.data
    action = []
    for A in full_action:
        cols = []
        for h in basis:
            coords = harmonic.coordinates(A.apply(h))
            if coords is None:
                raise InternalCheckError("rotation does not preserve harmonics")
            cols.append(coords)
        action.append(Matrix.from_columns(cols, rows=harmonic.dim))
    gram = _invariant_symmetric_gram(action)
    return Representation(l, tuple(action), form=SymmetricForm(gram),
                          validate=True)


def su2_quaternionic_irrep(k: int, l: Optional[LieAlgebra] = None
                           ) -> Representation:
    """sigma'_k of dimension 4k: realified odd symmetric power of the
    defining complex representation, computed invariant form."""
    if l is None:
        l = base_algebra("su2")
    n = 2 * k - 1            # symmetric power; complex dimension n+1 = 2k
    cdim = n + 1

    def complex_action(i: int) -> Tuple[Matrix, Matrix]:
        """(real part, imaginary part) on the monomial basis u^a v^{n-a}."""
        re = [[Q(0)] * cdim for _ in range(cdim)]
        im = [[Q(0)] * cdim for _ in range(cdim)]
        for a in range(cdim):
            b = n - a
            if i == 0:
                # e1 = diag(i/2, -i/2): eigenvalue i(a-b)/2
                im[a][a] += Q(a - b, 2)
            elif i == 1:
                # e2·u = -v/2, e2·v = u/2
                if a:
                    re[a - 1][a] += -Q(a, 2)
                if b:
                    re[a + 1][a] += Q(b, 2)
            else:
                # e3·u = iv/2, e3·v = iu/2
                if a:
                    im[a - 1][a] += Q(a, 2)
                if b:
                    im[a + 1][a] += Q(b, 2)
        return Matrix(re, cdim, cdim), Matrix(im, cdim, cdim)

    action = []
    for i in range(3):
        re, im = complex_action(i)
        rows = []
        for r in range(cdim):
            row_re = []
            row_im = []
            for c in range(cdim):
                row_re.extend((re[r, c], -im[r, c]))
                row_im.extend((im[r, c], re[r, c]))
            rows.append(tuple(row_re))
            rows.append(tuple(row_im))
        action.append(Matrix(rows, 2 * cdim, 2 * cdim))
    gram = _invariant_symmetric_gram(action)
    return Representation(l, tuple(action), form=SymmetricForm(gram),
                          validate=True)


def casimir(rep: Representation) -> Optional[Fraction]:
    """Scalar by which the sum of squared basis actions acts, or None."""
    m = rep.module_dim
    total = Matrix.zeros(m, m)
    for A in rep.action:
        total = total + A @ A
    if m == 0:
        return Q(0)
    scalar = total[0, 0]
    if total == Matrix.identity(m).scale(scalar):
        return scalar
    return None


def k_index_sets(m: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Partitions of m into parts 2k+1 (odd irreps) and 4k (quaternionic)."""
    out = []

    def rec_quat(remaining, minimum, chosen, odd_part):
        if remaining == 0:
            out.append((odd_part, tuple(chosen)))
            return
        for k in range(minimum, remaining // 4 + 1):
            if 4 * k <= remaining:
                rec_quat(remaining - 4 * k, k, chosen + [k], odd_part)

    def rec_odd(remaining, minimum, chosen):
        rec_quat(remaining, 1, [], tuple(chosen))
        for k in range(minimum, (remaining - 1) // 2 + 1):
            if 2 * k + 1 <= remaining:
                rec_odd(remaining - (2 * k + 1), k, chosen + [k])

    if m == 0:
        return [((), ())]
    rec_odd(m, 1, [])
    return sorted(set(out))


class RowConstraintError(ValueError):
    """Parameters violate the row's stated constraints."""


@dataclass
class CatalogRow:
    base: str
    variant: str
    params: Dict
    complex: CochainComplex
    cocycle: QuadraticCocycle
    model: StandardModel
    modified_form: Optional[SymmetricForm]
    certificate: Tuple
    # the standard model of ``cocycle``; ``model`` itself unless the row
    # carries a modified form
    standard: StandardModel


def _required(params: Dict, name: str):
    if name not in params:
        raise RowConstraintError(f"missing parameter $.params.{name}")
    return params[name]


def _rational_param(params: Dict, name: str, default=None) -> Fraction:
    """A rational parameter, required when it has no default."""
    value = _required(params, name) if default is None \
        else params.get(name, default)
    try:
        return rational(value)
    except TypeError:
        raise RowConstraintError(
            f"$.params.{name} must be a rational number") from None


def _rationals(value, name: str) -> Tuple[Fraction, ...]:
    """A flat list of rationals given for the parameter ``name``."""
    if isinstance(value, (list, tuple)):
        try:
            return tuple(rational(x) for x in value)
        except TypeError:
            pass
    raise RowConstraintError(
        f"$.params.{name} must be a list of rational numbers")


def _is_count(x) -> bool:
    """A non-negative int; bools, though ints in Python, are not counts."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _sorted_positive(lam: Sequence) -> Tuple[Fraction, ...]:
    vals = _rationals(lam, "lam")
    if any(v <= 0 for v in vals):
        raise RowConstraintError("weights must be positive: 0 < l1 <= ... <= lm")
    if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
        raise RowConstraintError("weights must be sorted ascending")
    return vals


def _x_functionals(lam: Sequence[Fraction], dim: int) -> Tuple[Tuple, ...]:
    """Weights supported on the first basis vector (the X direction)."""
    return tuple((v,) + (Q(0),) * (dim - 1) for v in lam)


def _pair_functionals(lam: Sequence, dim: int) -> Tuple[Tuple, ...]:
    if not isinstance(lam, (list, tuple)):
        raise RowConstraintError("$.params.lam must be a list of weight lists")
    out = []
    for w in lam:
        w = _rationals(w, "lam")
        if all(x == 0 for x in w):
            raise RowConstraintError("weight functionals must be nonzero")
        out.append(w + (Q(0),) * (dim - len(w)))
    return tuple(out)


def catalog_row(base: str, variant: str, params: Dict) -> CatalogRow:
    """Construct one classification-table row and its verified model."""
    key = (base, variant)
    builder = _ROW_BUILDERS.get(key)
    if builder is None:
        raise ValueError(f"unknown catalog row {base}/{variant}")
    return builder(dict(params))


def _finish_row(base, variant, params, cx, alpha_vals, gamma_vals,
                certificate, ip_l=None) -> CatalogRow:
    n = cx.algebra.dim
    m = cx.module_dim
    alpha = Cochain.from_values(n, 2, m, alpha_vals)
    gamma = Cochain.from_values(n, 3, 1, gamma_vals)
    z = QuadraticCocycle(cx, alpha, gamma)
    if ip_l is not None:
        model, phi, standard = build_modified(z, ip_l)
        z = standard.cocycle    # validated when build_modified built it
        modified_form = ip_l
    else:
        model = standard = build_model(z)
        modified_form = None
    return CatalogRow(base, variant, params, cx, z, model, modified_form,
                      certificate, standard)


def _row_n2_I(params, sign):
    lam = _sorted_positive(params.get("lam", ()))
    l = base_algebra("n2")
    specs = [RepFamilySpec("plus", _x_functionals(lam, 3))] if lam else []
    rep = build_rep(specs, l) if specs else _empty_module(l)
    cx = CochainComplex(l, rep)
    gamma_vals = {(0, 1, 2): (Q(sign),)}
    cert = ("n2", "I", len(lam), lam, sign)
    return _finish_row("n2", "Ia" if sign > 0 else "Ib", params, cx, {},
                       gamma_vals, cert)


def _empty_module(l: LieAlgebra) -> Representation:
    return Representation(l, (Matrix.zeros(0, 0),) * l.dim,
                          form=SymmetricForm(Matrix.zeros(0, 0)),
                          module_dim=0, validate=False)


def _row_n2_II(params):
    lam = _sorted_positive(params.get("lam", ()))
    m = len(lam)
    l = base_algebra("n2")
    specs = ([RepFamilySpec("plus", _x_functionals(lam, 3))] if lam else []) \
        + [RepFamilySpec("trivial", (0, 1))]
    rep = build_rep(specs, l)
    cx = CochainComplex(l, rep)
    a0 = unit_vector(rep.module_dim, 2 * m)
    cert = ("n2", "II", m, lam)
    return _finish_row("n2", "II", params, cx, {(1, 2): a0}, {}, cert)


def _row_n2_III(params):
    lam = _sorted_positive(params.get("lam", ()))
    r = _rational_param(params, "r")
    if r <= 0:
        raise RowConstraintError("parameter r must be positive")
    m = len(lam)
    l = base_algebra("n2")
    lam_ext = lam + (Q(1),)
    specs = [RepFamilySpec("plus", _x_functionals(lam_ext, 3)),
             RepFamilySpec("trivial", (0, 1))]
    rep = build_rep(specs, l)
    md = rep.module_dim
    alpha_vals = {
        (1, 2): unit_vector(md, 2 * m + 2),
        (0, 1): tuple(r * x for x in unit_vector(md, 2 * m)),
        (0, 2): tuple(r * x for x in unit_vector(md, 2 * m + 1)),
    }
    cert = ("n2", "III", m, lam, r)
    return _finish_row("n2", "III", params, cx=CochainComplex(l, rep),
                       alpha_vals=alpha_vals, gamma_vals={}, certificate=cert)


def _row_n2_IV(params):
    lam = _sorted_positive(params.get("lam", ()))
    m = len(lam)
    l = base_algebra("n2")
    lam_ext = lam + (Q(1),)
    rep = build_rep([RepFamilySpec("plus", _x_functionals(lam_ext, 3))], l)
    md = rep.module_dim
    alpha_vals = {
        (0, 1): unit_vector(md, 2 * m),
        (0, 2): unit_vector(md, 2 * m + 1),
    }
    cert = ("n2", "IV", m, lam)
    return _finish_row("n2", "IV", params, CochainComplex(l, rep),
                       alpha_vals, {}, cert)


def _row_r3m1_I(params):
    lam = _sorted_positive(params.get("lam", ()))
    m = len(lam)
    l = base_algebra("r3m1")
    specs = ([RepFamilySpec("plus", _x_functionals(lam, 3))] if lam else []) \
        + [RepFamilySpec("trivial", (0, 1))]
    rep = build_rep(specs, l)
    a0 = unit_vector(rep.module_dim, 2 * m)
    cert = ("r3m1", "I", m, lam)
    return _finish_row("r3m1", "I", params, CochainComplex(l, rep),
                       {(1, 2): a0}, {}, cert)


def _row_r3m1_II(params):
    lam = _sorted_positive(params.get("lam", ()))
    l = base_algebra("r3m1")
    specs = [RepFamilySpec("plus", _x_functionals(lam, 3))] if lam else []
    rep = build_rep(specs, l) if specs else _empty_module(l)
    cert = ("r3m1", "II", len(lam), lam)
    return _finish_row("r3m1", "II", params, CochainComplex(l, rep), {},
                       {(0, 1, 2): (Q(1),)}, cert)


def _row_h1_I(params):
    lam = _pair_functionals(params.get("lam", ()), 3)
    m = len(lam)
    l = base_algebra("h1")
    specs = ([RepFamilySpec("plus", lam)] if lam else []) \
        + [RepFamilySpec("trivial", (0, 1))]
    rep = build_rep(specs, l)
    a0 = unit_vector(rep.module_dim, 2 * m)
    cert = ("h1", "I", m, _h1_normal_lambda(lam))
    return _finish_row("h1", "I", params, CochainComplex(l, rep),
                       {(0, 2): a0}, {}, cert)


def _row_h1_II(params):
    lam = _pair_functionals(params.get("lam", ()), 3)
    m = len(lam)
    l = base_algebra("h1")
    specs = ([RepFamilySpec("plus", lam)] if lam else []) \
        + [RepFamilySpec("trivial", (0, 2))]
    rep = build_rep(specs, l)
    a1 = unit_vector(rep.module_dim, 2 * m)
    a2 = unit_vector(rep.module_dim, 2 * m + 1)
    cert = ("h1", "II", m, h1_gram_certificate([w[:2] for w in lam]))
    return _finish_row("h1", "II", params, CochainComplex(l, rep),
                       {(0, 2): a1, (1, 2): a2}, {}, cert)


def _row_sl2r(params):
    c = _rational_param(params, "c", 0)
    l = base_algebra("sl2r")
    rep = _empty_module(l)
    cx = CochainComplex(l, rep)
    ip = SymmetricForm(killing_form(l).gram.scale(c))
    cert = ("sl2r", "c", c)
    return _finish_row("sl2r", "c", params, cx, {}, {}, cert, ip_l=ip)


def _row_su2(params):
    c = _rational_param(params, "c", 0)
    m = params.get("m", 0)
    if not _is_count(m):
        raise RowConstraintError("$.params.m must be a non-negative integer")
    k = params.get("k", ((), ()))
    if not (isinstance(k, (list, tuple)) and len(k) == 2
            and all(isinstance(part, (list, tuple))
                    and all(_is_count(t) for t in part) for part in k)):
        raise RowConstraintError(
            "$.params.k must be two lists of non-negative integers")
    odd, quat = tuple(k[0]), tuple(k[1])
    if sum(2 * t + 1 for t in odd) + sum(4 * t for t in quat) != m:
        raise RowConstraintError("k indices must partition m")
    if any(odd[i] > odd[i + 1] for i in range(len(odd) - 1)) or \
            any(quat[i] > quat[i + 1] for i in range(len(quat) - 1)):
        raise RowConstraintError("k indices must be sorted")
    l = base_algebra("su2")
    specs = [RepFamilySpec("su2_odd", (t,)) for t in odd]
    specs += [RepFamilySpec("su2_quat", (t,)) for t in quat]
    rep = build_rep(specs, l) if specs else _empty_module(l)
    cx = CochainComplex(l, rep)
    ip = SymmetricForm(killing_form(l).gram.scale(c))
    cert = ("su2", "ck", m, (odd, quat), c)
    return _finish_row("su2", "ck", params, cx, {}, {}, cert, ip_l=ip)


def _row_R1_I(params):
    lam = _sorted_positive(params.get("lam", ()))
    nu = _rational_param(params, "nu")
    if nu == 0:
        raise RowConstraintError("nu must be nonzero")
    l = base_algebra("R1")
    specs = ([RepFamilySpec("plus", _x_functionals(lam, 1))] if lam else []) \
        + [RepFamilySpec("doubleprime", (((Q(1),), (nu,)),))]
    rep = build_rep(specs, l)
    cert = ("R1", "I", len(lam), lam, nu)
    return _finish_row("R1", "I", params, CochainComplex(l, rep), {}, {}, cert)


def _row_R1_II(params):
    lam = _sorted_positive(params.get("lam", ()))
    l = base_algebra("R1")
    specs = ([RepFamilySpec("plus", _x_functionals(lam, 1))] if lam else []) \
        + [RepFamilySpec("minus", ((Q(1),),))]
    rep = build_rep(specs, l)
    cert = ("R1", "II", len(lam), lam)
    return _finish_row("R1", "II", params, CochainComplex(l, rep), {}, {}, cert)


def _row_R1_III(params):
    lam = _sorted_positive(params.get("lam", ()))
    mu = _rationals(_required(params, "mu"), "mu")
    if len(mu) != 2 or mu[0] != 1 or mu[1] < 1:
        raise RowConstraintError("mu must be (1, mu2) with mu2 >= 1")
    l = base_algebra("R1")
    specs = ([RepFamilySpec("plus", _x_functionals(lam, 1))] if lam else []) \
        + [RepFamilySpec("prime", ((mu[0],), (mu[1],)))]
    rep = build_rep(specs, l)
    cert = ("R1", "III", len(lam), lam, mu)
    return _finish_row("R1", "III", params, CochainComplex(l, rep), {}, {},
                       cert)


def _row_R2_I(params):
    lam = _pair_functionals(params.get("lam", ()), 2)
    m = len(lam)
    l = base_algebra("R2")
    specs = ([RepFamilySpec("plus", lam)] if lam else []) \
        + [RepFamilySpec("trivial", (1, 0))]
    rep = build_rep(specs, l)
    a0 = unit_vector(rep.module_dim, 2 * m)
    cert = ("R2", "I", m, r2_I_certificate([w[:2] for w in lam]))
    return _finish_row("R2", "I", params, CochainComplex(l, rep),
                       {(0, 1): a0}, {}, cert)


def _row_R2_II(params):
    lam = _pair_functionals(params.get("lam", ()), 2)
    m = len(lam)
    l = base_algebra("R2")
    mu = ((Q(1), Q(0)),)
    specs = ([RepFamilySpec("plus", lam)] if lam else []) \
        + [RepFamilySpec("prime", mu), RepFamilySpec("trivial", (0, 1))]
    rep = build_rep(specs, l)
    a0 = unit_vector(rep.module_dim, 2 * m + 2)
    cert = ("R2", "II", m, tuple(sorted(tuple(w[:2]) for w in lam)))
    return _finish_row("R2", "II", params, CochainComplex(l, rep),
                       {(0, 1): a0}, {}, cert)


def _row_R2_III(params):
    lam = _pair_functionals(params.get("lam", ()), 2)
    m = len(lam)
    if m < 2:
        raise RowConstraintError("type III needs m >= 2")
    directions = {_line_normal((Q(1), Q(0)))}
    for w in lam:
        directions.add(_line_normal(w[:2]))
    if len(directions) <= 2:
        raise RowConstraintError(
            "weights with the boost direction lie in a union of two lines")
    l = base_algebra("R2")
    mu = ((Q(1), Q(0)),)
    specs = [RepFamilySpec("plus", lam), RepFamilySpec("prime", mu)]
    rep = build_rep(specs, l)
    cert = ("R2", "III", m, tuple(sorted(tuple(w[:2]) for w in lam)))
    return _finish_row("R2", "III", params, CochainComplex(l, rep), {}, {},
                       cert)


def _row_R3(params, image_dim):
    lam = _pair_functionals(params.get("lam", ()), 3)
    m = len(lam)
    l = base_algebra("R3")
    gamma_val = _rational_param(params, "gamma", 0)
    specs = ([RepFamilySpec("plus", lam)] if lam else [])
    if image_dim:
        specs += [RepFamilySpec("trivial", (0, image_dim))]
    rep = build_rep(specs, l) if specs else _empty_module(l)
    md = rep.module_dim
    alpha_vals = {}
    pairs = ((1, 2), (0, 2), (0, 1))
    for t in range(image_dim):
        alpha_vals[pairs[t]] = unit_vector(md, 2 * m + t)
    gamma_vals = {(0, 1, 2): (gamma_val,)} if gamma_val != 0 else {}
    if image_dim == 0 and gamma_val == 0 and m < 4:
        raise RowConstraintError("the open-set row needs m >= 4")
    variant = f"a{image_dim}" if image_dim else \
        ("gamma" if gamma_val != 0 else "open")
    cert = ("R3", variant, m, tuple(sorted(tuple(w[:3]) for w in lam)),
            gamma_val)
    return _finish_row("R3", variant, params, CochainComplex(l, rep),
                       alpha_vals, gamma_vals, cert)


def _row_r3m2_control(params):
    l = base_algebra("r3m2")
    action_x = Matrix([[1, 0], [0, -1]])
    rep = Representation(l, (action_x, Matrix.zeros(2, 2), Matrix.zeros(2, 2)),
                         form=SymmetricForm(Matrix([[0, 1], [1, 0]])))
    cx = CochainComplex(l, rep)
    alpha_vals = {(1, 2): (Q(0), Q(1)), (0, 2): (Q(1), Q(0))}
    cert = ("r3m2", "control", ())
    return _finish_row("r3m2", "control", params, cx, alpha_vals, {}, cert)


_ROW_BUILDERS = {
    ("n2", "Ia"): lambda p: _row_n2_I(p, 1),
    ("n2", "Ib"): lambda p: _row_n2_I(p, -1),
    ("n2", "II"): _row_n2_II,
    ("n2", "III"): _row_n2_III,
    ("n2", "IV"): _row_n2_IV,
    ("r3m1", "I"): _row_r3m1_I,
    ("r3m1", "II"): _row_r3m1_II,
    ("h1", "I"): _row_h1_I,
    ("h1", "II"): _row_h1_II,
    ("sl2r", "c"): _row_sl2r,
    ("su2", "ck"): _row_su2,
    ("R1", "I"): _row_R1_I,
    ("R1", "II"): _row_R1_II,
    ("R1", "III"): _row_R1_III,
    ("R2", "I"): _row_R2_I,
    ("R2", "II"): _row_R2_II,
    ("R2", "III"): _row_R2_III,
    ("R3", "gamma"): lambda p: _row_R3(p, 0),
    ("R3", "a1"): lambda p: _row_R3(p, 1),
    ("R3", "a2"): lambda p: _row_R3(p, 2),
    ("R3", "a3"): lambda p: _row_R3(p, 3),
    ("r3m2", "control"): _row_r3m2_control,
}


# --- certificates ---------------------------------------------------------

def _signed_perms(m: int):
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((1, -1), repeat=m):
            yield perm, signs


def _line_normal(w: Tuple[Fraction, Fraction]) -> Tuple[Fraction, Fraction]:
    """Canonical representative of the line through a nonzero 2-vector."""
    a, b = w
    if a != 0:
        return (Q(1), b / a)
    return (Q(0), Q(1))


def _h1_normal_lambda(lam) -> Tuple:
    return tuple(sorted(tuple(w[:2]) for w in lam))


def h1_gram_certificate(lam: Sequence[Tuple[Fraction, Fraction]]) -> Tuple:
    """Canonical form of M M^T modulo simultaneous signed permutations."""
    m = len(lam)
    if m == 0:
        return ()
    gram = [[lam[i][0] * lam[j][0] + lam[i][1] * lam[j][1] for j in range(m)]
            for i in range(m)]
    best = None
    for perm, signs in _signed_perms(m):
        candidate = tuple(tuple(signs[i] * signs[j] * gram[perm[i]][perm[j]]
                                for j in range(m)) for i in range(m))
        if best is None or candidate < best:
            best = candidate
    return best


def r2_I_certificate(lam: Sequence[Tuple[Fraction, Fraction]]) -> Tuple:
    """Span data and wedge of the weight components, canonicalized."""
    m = len(lam)
    ys = tuple(w[0] for w in lam)
    zs = tuple(w[1] for w in lam)
    best = None
    for perm, signs in _signed_perms(m):
        py = tuple(signs[i] * ys[perm[i]] for i in range(m))
        pz = tuple(signs[i] * zs[perm[i]] for i in range(m))
        for flip in (1, -1):
            pw = tuple(flip * (py[i] * pz[j] - py[j] * pz[i])
                       for i in range(m) for j in range(i + 1, m))
            candidate = (tuple(sorted(zip(py, pz))), pw)
            if best is None or candidate < best:
                best = candidate
    return best


def non_isomorphism_certificate(r1: CatalogRow, r2: CatalogRow) -> str:
    """'equal', 'distinct', or 'incomparable' from the stated invariants."""
    if r1.base != r2.base:
        return "distinct"
    fam1, fam2 = _family(r1), _family(r2)
    if fam1 != fam2:
        return "distinct"
    if r1.base == "R3":
        return "incomparable"
    if r1.base == "h1" and fam1 == "I":
        lam1 = [w[:2] for w in _pair_functionals(r1.params.get("lam", ()), 3)]
        lam2 = [w[:2] for w in _pair_functionals(r2.params.get("lam", ()), 3)]
        return "equal" if _h1_I_same(lam1, lam2) else "distinct"
    if r1.base == "R2" and fam1 == "II":
        lam1 = [w[:2] for w in _pair_functionals(r1.params.get("lam", ()), 2)]
        lam2 = [w[:2] for w in _pair_functionals(r2.params.get("lam", ()), 2)]
        return "equal" if _r2_II_same(lam1, lam2) else "distinct"
    if r1.base == "R2" and fam1 == "III":
        lam1 = [w[:2] for w in _pair_functionals(r1.params.get("lam", ()), 2)]
        lam2 = [w[:2] for w in _pair_functionals(r2.params.get("lam", ()), 2)]
        return "equal" if _r2_III_same(lam1, lam2) else "distinct"
    return "equal" if r1.certificate == r2.certificate else "distinct"


def _family(row: CatalogRow) -> str:
    if row.base == "n2" and row.variant in ("Ia", "Ib"):
        return "I"
    return row.variant


def _h1_I_same(lam1, lam2) -> bool:
    if len(lam1) != len(lam2):
        return False
    m = len(lam1)
    if m == 0:
        return True
    x1 = tuple(w[0] for w in lam1)
    y1 = tuple(w[1] for w in lam1)
    x2 = tuple(w[0] for w in lam2)
    y2 = tuple(w[1] for w in lam2)
    span2 = Subspace.span(m, [x2, y2])
    for perm, signs in _signed_perms(m):
        px = tuple(signs[i] * x1[perm[i]] for i in range(m))
        py = tuple(signs[i] * y1[perm[i]] for i in range(m))
        pspan = Subspace.span(m, [px, py])
        if pspan.dim <= 1 and span2.dim <= 1:
            if pspan == span2 and \
                    Subspace.span(m, [py]) == Subspace.span(m, [y2]):
                return True
        if pspan.dim == 2 and span2.dim == 2:
            wedge1 = tuple(px[i] * py[j] - px[j] * py[i]
                           for i in range(m) for j in range(i + 1, m))
            wedge2 = tuple(x2[i] * y2[j] - x2[j] * y2[i]
                           for i in range(m) for j in range(i + 1, m))
            # wedge2 = r wedge1 and y2 = r^2 py for some real r != 0
            r = _proportionality(wedge1, wedge2)
            if r is None or r == 0:
                continue
            if tuple(r * r * v for v in py) == tuple(y2):
                return True
    return False


def _proportionality(v1, v2) -> Optional[Fraction]:
    """r with v2 = r v1, or None."""
    r = None
    for a, b in zip(v1, v2):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return None
        ratio = b / a
        if r is None:
            r = ratio
        elif r != ratio:
            return None
    return r if r is not None else Q(0)


def _r2_II_same(lam1, lam2) -> bool:
    if len(lam1) != len(lam2):
        return False
    m = len(lam1)
    if m == 0:
        return True
    y1 = tuple(w[0] for w in lam1)
    z1 = tuple(w[1] for w in lam1)
    y2 = tuple(w[0] for w in lam2)
    z2 = tuple(w[1] for w in lam2)
    span1 = Subspace.span(m, [y1, z1])
    span2 = Subspace.span(m, [y2, z2])
    for perm, signs in _signed_perms(m):
        py = tuple(signs[i] * y1[perm[i]] for i in range(m))
        pz = tuple(signs[i] * z1[perm[i]] for i in range(m))
        if span1.dim <= 1 and span2.dim <= 1:
            if any(v != 0 for v in pz):
                if pz == tuple(z2):
                    return True
            elif all(v == 0 for v in z2) and py == tuple(y2):
                return True
        if span1.dim == 2 and span2.dim == 2:
            if pz != tuple(z2):
                continue
            w1 = tuple(py[i] * pz[j] - py[j] * pz[i]
                       for i in range(m) for j in range(i + 1, m))
            w2 = tuple(y2[i] * z2[j] - y2[j] * z2[i]
                       for i in range(m) for j in range(i + 1, m))
            if w1 == w2 or tuple(-v for v in w1) == w2:
                return True
    return False


def _r2_III_same(lam1, lam2) -> bool:
    if len(lam1) != len(lam2):
        return False
    m = len(lam1)
    y1 = tuple(w[0] for w in lam1)
    z1 = tuple(w[1] for w in lam1)
    y2 = tuple(w[0] for w in lam2)
    z2 = tuple(w[1] for w in lam2)
    for perm, signs in _signed_perms(m):
        py = tuple(signs[i] * y1[perm[i]] for i in range(m))
        pz = tuple(signs[i] * z1[perm[i]] for i in range(m))
        if Subspace.span(m, [pz]) != Subspace.span(m, [z2]):
            continue
        # y2 in py + R·pz
        diff = tuple(b - a for a, b in zip(py, y2))
        if _proportionality(pz, diff) is not None or all(v == 0 for v in diff):
            return True
    return False


# --- sweep ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepBounds:
    m: int = 2
    weight_num: int = 2
    weight_den: int = 1

    def __post_init__(self):
        if self.m < 0 or self.weight_num < 1 or self.weight_den < 1:
            raise ValueError(f"sweep bounds need m >= 0, num >= 1 and "
                             f"den >= 1, got {self}")


@dataclass
class RowResult:
    row: CatalogRow
    index: int
    balanced: bool
    admissible: bool
    indecomposable: Optional[bool]
    conditional: bool
    passed: bool


@dataclass
class ControlResult:
    name: str
    admissible: bool
    index: Optional[int]
    expected: str
    passed: bool


@dataclass
class SweepReport:
    bounds: SweepBounds
    rows: List[RowResult]
    controls: List[ControlResult]
    family_distinct: Dict[str, bool]
    all_passed: bool


def _weight_values(bounds: SweepBounds) -> List[Fraction]:
    vals = set()
    for p in range(1, bounds.weight_num + 1):
        for q in range(1, bounds.weight_den + 1):
            vals.add(Q(p, q))
    return sorted(vals)


def _lambda_tuples(bounds: SweepBounds, m: int) -> List[Tuple[Fraction, ...]]:
    vals = _weight_values(bounds)
    return [tuple(t) for t in
            itertools.combinations_with_replacement(vals, m)]


def _pair_grid(bounds: SweepBounds) -> List[Tuple[Fraction, Fraction]]:
    grid = [(Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))]
    if bounds.weight_num >= 2:
        grid.append((Q(2), Q(1)))
    return grid


def _pair_tuples(bounds: SweepBounds, m: int):
    return [tuple(t) for t in
            itertools.combinations_with_replacement(_pair_grid(bounds), m)]


def enumerate_rows(bounds: SweepBounds) -> List[Tuple[str, str, Dict]]:
    """All (base, variant, params) combinations within the bounds."""
    out: List[Tuple[str, str, Dict]] = []
    for m in range(bounds.m + 1):
        for lam in _lambda_tuples(bounds, m):
            out.append(("n2", "Ia", {"lam": lam}))
            out.append(("n2", "Ib", {"lam": lam}))
            out.append(("n2", "II", {"lam": lam}))
            out.append(("n2", "IV", {"lam": lam}))
            for r in range(1, bounds.weight_num + 1):
                out.append(("n2", "III", {"lam": lam, "r": Q(r)}))
            out.append(("r3m1", "I", {"lam": lam}))
            out.append(("r3m1", "II", {"lam": lam}))
            out.append(("R1", "II", {"lam": lam}))
            for nu in range(1, bounds.weight_num + 1):
                out.append(("R1", "I", {"lam": lam, "nu": Q(nu)}))
            for mu2 in range(1, bounds.weight_num + 1):
                out.append(("R1", "III", {"lam": lam, "mu": (Q(1), Q(mu2))}))
        for lam in _pair_tuples(bounds, m):
            out.append(("h1", "I", {"lam": lam}))
            out.append(("h1", "II", {"lam": lam}))
            out.append(("R2", "I", {"lam": lam}))
            out.append(("R2", "II", {"lam": lam}))
            if m >= 2:
                directions = {_line_normal((Q(1), Q(0)))}
                for w in lam:
                    directions.add(_line_normal(w))
                if len(directions) > 2:
                    out.append(("R2", "III", {"lam": lam}))
        for c in (Q(0), Q(1)):
            if m == 0:
                out.append(("sl2r", "c", {"c": c}))
            for k in k_index_sets(m):
                out.append(("su2", "ck", {"m": m, "k": k, "c": c}))
        for lam in _triple_tuples(bounds, m):
            out.append(("R3", "gamma", {"lam": lam, "gamma": Q(1)}))
            out.append(("R3", "a2", {"lam": lam}))
            out.append(("R3", "a3", {"lam": lam}))
    return out


def _triple_tuples(bounds: SweepBounds, m: int):
    grid = [(Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))]
    return [tuple(t) for t in
            itertools.combinations_with_replacement(grid, m)]


def run_row(base: str, variant: str, params: Dict) -> RowResult:
    row = catalog_row(base, variant, params)
    idx = row.model.metric.index()
    # the socle-route conditions; internally compared with the direct route
    report = admissibility(row.cocycle, model=row.standard)
    # the direct route once more, explicitly, for the recorded cross-check
    balanced = is_balanced(row.model)
    verdict = is_indecomposable_class(row.cocycle, assume_admissible=True) \
        if report.admissible else \
        IndecomposabilityVerdict(None, "inadmissible")
    conditional = verdict.indecomposable is None
    passed = (idx == 3) and report.admissible and \
        (balanced == report.admissible) and \
        (verdict.indecomposable is True or conditional)
    return RowResult(row, idx, balanced, report.admissible,
                     verdict.indecomposable, conditional, passed)


def run_controls() -> List[ControlResult]:
    """The inadmissible controls and the admissible-but-excluded one."""
    out = []
    # n(2) with the zero class over a one-dimensional trivial module
    l = base_algebra("n2")
    from .modules import trivial_representation
    rep = trivial_representation(l, 1, form=SymmetricForm.euclidean(1))
    cx = CochainComplex(l, rep)
    z = QuadraticCocycle(cx, cx.zero_cochain(2),
                         cx.zero_cochain(3, scalar=True))
    rpt = admissibility(z)
    out.append(ControlResult("n2-zero-class", rpt.admissible,
                             build_model(z).metric.index(),
                             "inadmissible", not rpt.admissible))
    # h(1) with (0, gamma), gamma != 0
    lh = base_algebra("h1")
    reph = trivial_representation(lh, 1, form=SymmetricForm.euclidean(1))
    cxh = CochainComplex(lh, reph)
    gamma = cxh.cochain(3, {(0, 1, 2): [1]}, scalar=True)
    zh = QuadraticCocycle(cxh, cxh.zero_cochain(2), gamma)
    rpth = admissibility(zh)
    out.append(ControlResult("h1-gamma-class", rpth.admissible,
                             build_model(zh).metric.index(),
                             "inadmissible", not rpth.admissible))
    # r_{3,-2}: admissible but excluded from index 3 by its split form
    rowc = catalog_row("r3m2", "control", {})
    rptc = admissibility(rowc.cocycle, model=rowc.standard)
    idx = rowc.model.metric.index()
    out.append(ControlResult("r3m2-example", rptc.admissible, idx,
                             "admissible, index != 3",
                             rptc.admissible and idx != 3))
    return out


def sweep(bounds: SweepBounds = SweepBounds()) -> SweepReport:
    """Build and verify every row within bounds; check pairwise certificates
    inside the families whose propositions assert uniqueness."""
    rows = []
    for base, variant, params in enumerate_rows(bounds):
        rows.append(run_row(base, variant, params))
    controls = run_controls()

    # pairwise distinctness inside the families whose propositions list
    # pairwise non-isomorphic parameters ("exactly one of the following")
    family_distinct: Dict[str, bool] = {}
    unique_families = ("n2", "r3m1", "sl2r", "su2", "R1")
    grouped: Dict[str, List[RowResult]] = {}
    for rr in rows:
        grouped.setdefault(rr.row.base, []).append(rr)
    for fam in unique_families:
        ok = True
        members = grouped.get(fam, [])
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                verdict = non_isomorphism_certificate(members[i].row,
                                                      members[j].row)
                if verdict != "distinct":
                    ok = False
        family_distinct[fam] = ok

    all_passed = all(r.passed for r in rows) and \
        all(c.passed for c in controls) and all(family_distinct.values())
    return SweepReport(bounds, rows, controls, family_distinct, all_passed)
