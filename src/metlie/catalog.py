"""Base algebras, orthogonal representation families, and the index-3 rows.

Constructors for the six base algebras, the weight-block families
(rotation, negative-definite rotation, boost, the coupled 4x4 family,
trivial blocks, and the real irreducibles of su(2)), the classification
table as one row table ``_ROWS`` read by one function, with three rows
built explicitly, non-isomorphism certificates from the stated
invariants, and the sweep pipeline that verifies index, balancedness,
admissibility and indecomposability for every row within bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cohomology import Cochain, CochainComplex, QuadraticCocycle
from .lie import (InternalCheckError, LieAlgebra, abelian, derived_subalgebra,
                  killing_form)
from .linalg import (Matrix, Q, Subspace, SymmetricForm, block_diagonal,
                     rational, signature, unit_vector)
from .modules import Representation, sub_representation
from .quadext import (IndecomposabilityVerdict, StandardModel,
                      admissibility, build_model, build_modified,
                      is_balanced, is_indecomposable_class)

BASE_NAMES = ("n2", "r3m1", "r3m2", "h1", "sl2r", "su2", "R1", "R2", "R3")


@functools.lru_cache(maxsize=None)
def base_algebra(name: str) -> LieAlgebra:
    """Structure constants of the named base algebra on its standard basis.

    Instances are immutable and shared, so derived invariants (Killing
    form, radicals, adjoint filtrations) are computed once per base.
    """
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


# kind: (the block at one basis element, from the values there of one
# weight, or of the (mu, nu) pair for doubleprime; the block's form)
_WEIGHT_BLOCKS = {
    "plus": (_plus_block, (1, 1)),
    "minus": (_plus_block, (-1, -1)),
    "prime": (lambda v: Matrix([[0, v], [v, 0]]), (-1, 1)),
    "doubleprime": (lambda mu, nu: Matrix([[0, -nu, mu, 0], [nu, 0, 0, mu],
                                           [mu, 0, 0, -nu], [0, mu, nu, 0]]),
                    (-1, -1, 1, 1)),
}


def build_rep(specs: Sequence[RepFamilySpec], l: LieAlgebra) -> Representation:
    """Block-diagonal representation with the signed-orthonormal form
    (computed invariant form for the su(2) irreducible blocks); no specs
    give the zero module."""
    block_actions: List[List[Matrix]] = []   # per spec: one matrix per basis elt
    block_forms: List[Matrix] = []
    for spec in specs:
        if spec.kind in _WEIGHT_BLOCKS:
            block, gram = _WEIGHT_BLOCKS[spec.kind]
            functionals = spec.weights if spec.kind == "doubleprime" \
                else [(w,) for w in spec.weights]
            block_actions.append([block_diagonal([
                block(*(rational(f[i]) if i < len(f) else Q(0) for f in fs))
                for fs in functionals]) for i in range(l.dim)])
            block_forms.append(Matrix.diagonal(gram * len(spec.weights)))
        elif spec.kind == "trivial":
            neg, pos = spec.weights
            size = neg + pos
            block_actions.append([Matrix.zeros(size, size)] * l.dim)
            block_forms.append(Matrix.diagonal([-1] * neg + [1] * pos))
        elif spec.kind in ("su2_odd", "su2_quat"):
            irrep = su2_odd_irrep if spec.kind == "su2_odd" \
                else su2_quaternionic_irrep
            rep = irrep(spec.weights[0], l)
            block_actions.append(list(rep.action))
            block_forms.append(rep.form.gram)
        else:
            raise ValueError(f"unknown family kind {spec.kind!r}")

    action = tuple(block_diagonal([mats[i] for mats in block_actions])
                   for i in range(l.dim))
    form = SymmetricForm(block_diagonal(block_forms))
    return Representation(l, action, form=form, validate=True,
                          module_dim=sum(m.rows for m in block_forms))


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

    polys = Representation(l, tuple(full_action), validate=False)
    if not polys.is_submodule(harmonic):
        raise InternalCheckError("rotation does not preserve harmonics")
    action = sub_representation(polys, harmonic)[0].action
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
        raise RowConstraintError(
            "$.params.lam must be positive: 0 < l1 <= ... <= lm")
    if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
        raise RowConstraintError("$.params.lam must be sorted ascending")
    return vals


def _x_functionals(lam: Sequence[Fraction], dim: int) -> Tuple[Tuple, ...]:
    """Weights supported on the first basis vector (the X direction)."""
    return tuple((v,) + (Q(0),) * (dim - 1) for v in lam)


def _pair_functionals(lam: Sequence, l: LieAlgebra) -> Tuple[Tuple, ...]:
    """Nonzero weight functionals on l that vanish on [l, l], padded."""
    if not isinstance(lam, (list, tuple)):
        raise RowConstraintError("$.params.lam must be a list of weight lists")
    derived = derived_subalgebra(l).basis.data
    out = []
    for w in lam:
        w = _rationals(w, "lam")
        if all(x == 0 for x in w):
            raise RowConstraintError(
                "$.params.lam: weight functionals must be nonzero")
        w += (Q(0),) * (l.dim - len(w))
        if len(w) > l.dim or any(sum(x * y for x, y in zip(w, v))
                                 for v in derived):
            raise RowConstraintError(
                f"$.params.lam: weight functionals have {l.dim} coordinates "
                f"and vanish on [l, l]")
        out.append(w)
    return tuple(out)


def _more_than_two_lines(lam) -> bool:
    """R2 III's condition: the weights and the boost direction (1, 0) lie
    on more than two lines through 0."""
    directions = {_line_normal((Q(1), Q(0)))}
    directions.update(_line_normal(w[:2]) for w in lam)
    return len(directions) > 2


class _Entry(NamedTuple):
    """One weight-family row of the classification table (see ``_ROWS``)."""
    weights: str
    cert: Tuple
    extras: Tuple = ()
    alpha: Tuple = ()
    gamma: object = 0
    params: Tuple = ()
    min_m: int = 0


# The index-3 classification, one entry per weight-family row; m is the
# number of weights in the parameter lam (default: none).
#   weights  "x": sorted positive weights on X, as functionals on l;
#            "pair", "triple": nonzero functionals on l given as lists,
#            certified by their first two or three coordinates;
#            "lines": pairs that lie, with the boost direction (1, 0), on
#            more than two lines
#   cert     (form of lam, *rest): the certificate is (base, family, m,
#            form, *rest)
#   extras   the families after the plus block of lam, as (kind, weights
#            on X) or ("trivial", (negatives, positives)); a "plus" extra
#            appends its weights to the plus block
#   alpha    (pair, t) or (pair, t, name): alpha(pair) = e_{2m+t}, scaled
#            by the named parameter
#   gamma    gamma(X, Y, Z), a number or a parameter name
#   params   parameters besides lam, read and checked by ``_PARAMS``
#   min_m    the least m
# A name in cert, extras or gamma stands for its parameter's value.  Rows
# that follow no such pattern are explicit: sl2r and su2 carry a modified
# form (su2's module is a k-partition of m into real irreducibles), and the
# r_{3,-2} control has a hyperbolic module outside the catalog.
_ROWS = {
    ("n2", "Ia"): _Entry("x", ("lam", 1), gamma=1),
    ("n2", "Ib"): _Entry("x", ("lam", -1), gamma=-1),
    ("n2", "II"): _Entry("x", ("lam",), extras=(("trivial", (0, 1)),),
                         alpha=(((1, 2), 0),)),
    ("n2", "III"): _Entry("x", ("lam", "r"),
                          extras=(("plus", (1,)), ("trivial", (0, 1))),
                          alpha=(((1, 2), 2), ((0, 1), 0, "r"),
                                 ((0, 2), 1, "r")), params=("r",)),
    ("n2", "IV"): _Entry("x", ("lam",), extras=(("plus", (1,)),),
                         alpha=(((0, 1), 0), ((0, 2), 1))),
    ("r3m1", "I"): _Entry("x", ("lam",), extras=(("trivial", (0, 1)),),
                          alpha=(((1, 2), 0),)),
    ("r3m1", "II"): _Entry("x", ("lam",), gamma=1),
    ("h1", "I"): _Entry("pair", ("sorted",), extras=(("trivial", (0, 1)),),
                        alpha=(((0, 2), 0),)),
    ("h1", "II"): _Entry("pair", ("gram",), extras=(("trivial", (0, 2)),),
                         alpha=(((0, 2), 0), ((1, 2), 1))),
    ("R1", "I"): _Entry("x", ("lam", "nu"),
                        extras=(("doubleprime", ((1, "nu"),)),),
                        params=("nu",)),
    ("R1", "II"): _Entry("x", ("lam",), extras=(("minus", (1,)),)),
    ("R1", "III"): _Entry("x", ("lam", "mu"), extras=(("prime", "mu"),),
                          params=("mu",)),
    ("R2", "I"): _Entry("pair", ("r2",), extras=(("trivial", (1, 0)),),
                        alpha=(((0, 1), 0),)),
    ("R2", "II"): _Entry("pair", ("sorted",),
                         extras=(("prime", (1,)), ("trivial", (0, 1))),
                         alpha=(((0, 1), 2),)),
    ("R2", "III"): _Entry("lines", ("sorted",), extras=(("prime", (1,)),),
                          min_m=2),
    # with gamma = 0 the gamma row is the open-set row, and back
    ("R3", "gamma"): _Entry("triple", ("sorted", "gamma"), gamma="gamma",
                            params=("gamma",)),
    ("R3", "open"): _Entry("triple", ("sorted", "gamma"), gamma="gamma",
                           params=("gamma",), min_m=4),
    ("R3", "a1"): _Entry("triple", ("sorted", "gamma"),
                         extras=(("trivial", (0, 1)),),
                         alpha=(((1, 2), 0),), gamma="gamma",
                         params=("gamma",)),
    ("R3", "a2"): _Entry("triple", ("sorted", "gamma"),
                         extras=(("trivial", (0, 2)),),
                         alpha=(((1, 2), 0), ((0, 2), 1)), gamma="gamma",
                         params=("gamma",)),
    ("R3", "a3"): _Entry("triple", ("sorted", "gamma"),
                         extras=(("trivial", (0, 3)),),
                         alpha=(((1, 2), 0), ((0, 2), 1), ((0, 1), 2)),
                         gamma="gamma", params=("gamma",)),
}

# The parameters of table rows besides lam, one meaning per name:
# (default, or None when required; list-valued; constraint; its wording)
_PARAMS = {
    "r": (None, False, lambda r: r > 0, "must be positive"),
    "nu": (None, False, lambda nu: nu != 0, "must be nonzero"),
    "mu": (None, True, lambda mu: len(mu) == 2 and mu[0] == 1 and mu[1] >= 1,
           "must be (1, mu2) with mu2 >= 1"),
    "gamma": (0, False, None, None),
}


def _param(params: Dict, name: str):
    default, is_list, holds, wording = _PARAMS[name]
    value = _rationals(_required(params, name), name) if is_list \
        else _rational_param(params, name, default)
    if holds is not None and not holds(value):
        raise RowConstraintError(f"$.params.{name} {wording}")
    return value


def _value(x, values: Dict):
    """A table value with each parameter name replaced by its value."""
    if isinstance(x, str):
        return values[x]
    if isinstance(x, tuple):
        return tuple(_value(y, values) for y in x)
    return Q(x)


def catalog_row(base: str, variant: str, params: Dict) -> CatalogRow:
    """Construct one classification-table row and its verified model."""
    params = dict(params)
    explicit = _EXPLICIT_ROWS.get((base, variant))
    if explicit is not None:
        return explicit(params)
    if (base, variant) not in _ROWS:
        raise ValueError(f"unknown catalog row {base}/{variant}")
    return _table_row(base, variant, params)


def _table_row(base: str, variant: str, params: Dict) -> CatalogRow:
    """The row ``_ROWS[base, variant]`` for the given parameters."""
    entry = _ROWS[base, variant]
    l = base_algebra(base)
    lam = params.get("lam", ())
    lam = _sorted_positive(lam) if entry.weights == "x" \
        else _pair_functionals(lam, l)
    m = len(lam)
    values = {name: _param(params, name) for name in entry.params}
    if variant in ("gamma", "open"):     # R3 without alpha: gamma decides
        variant = "gamma" if values["gamma"] else "open"
        entry = _ROWS[base, variant]
    if m < entry.min_m:
        raise RowConstraintError(f"$.params.lam needs at least "
                                 f"{entry.min_m} weights in {base}/{variant}")
    if entry.weights == "lines" and not _more_than_two_lines(lam):
        raise RowConstraintError("$.params.lam: the weights and the boost "
                                 "direction lie in a union of two lines")
    plus = _x_functionals(lam, l.dim) if entry.weights == "x" else lam
    specs = []
    for kind, weights in entry.extras:
        if kind == "doubleprime":
            weights = tuple(_x_functionals(pair, l.dim)
                            for pair in _value(weights, values))
        elif kind != "trivial":
            weights = _x_functionals(_value(weights, values), l.dim)
        if kind == "plus":
            plus += weights
        else:
            specs.append(RepFamilySpec(kind, weights))
    if plus:
        specs.insert(0, RepFamilySpec("plus", plus))
    rep = build_rep(specs, l)
    alpha_vals = {}
    for pair, t, *scale in entry.alpha:
        e = unit_vector(rep.module_dim, 2 * m + t)
        alpha_vals[pair] = tuple(values[scale[0]] * x for x in e) \
            if scale else e
    gamma = _value(entry.gamma, values)
    form, *rest = entry.cert
    width = 3 if entry.weights == "triple" else 2
    lam_form = lam if form == "lam" else {
        "sorted": lambda w: tuple(sorted(w)),
        "gram": h1_gram_certificate,
        "r2": r2_I_certificate}[form]([w[:width] for w in lam])
    cert = (base, _family(base, variant), m, lam_form) + \
        tuple(values[x] if isinstance(x, str) else x for x in rest)
    return _finish_row(base, variant, params, rep, alpha_vals,
                       {(0, 1, 2): (gamma,)} if gamma else {}, cert)


def _finish_row(base, variant, params, rep, alpha_vals, gamma_vals,
                certificate, ip_l=None) -> CatalogRow:
    cx = CochainComplex(rep.algebra, rep)
    alpha = Cochain.from_values(cx.algebra.dim, 2, cx.module_dim, alpha_vals)
    gamma = Cochain.from_values(cx.algebra.dim, 3, 1, gamma_vals)
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


def _row_sl2r(params):
    c = _rational_param(params, "c", 0)
    l = base_algebra("sl2r")
    ip = SymmetricForm(killing_form(l).gram.scale(c))
    return _finish_row("sl2r", "c", params, build_rep([], l), {}, {},
                       ("sl2r", "c", c), ip_l=ip)


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
        raise RowConstraintError("$.params.k must partition m")
    if odd != tuple(sorted(odd)) or quat != tuple(sorted(quat)):
        raise RowConstraintError("$.params.k must be sorted")
    l = base_algebra("su2")
    specs = [RepFamilySpec("su2_odd", (t,)) for t in odd]
    specs += [RepFamilySpec("su2_quat", (t,)) for t in quat]
    ip = SymmetricForm(killing_form(l).gram.scale(c))
    return _finish_row("su2", "ck", params, build_rep(specs, l), {}, {},
                       ("su2", "ck", m, (odd, quat), c), ip_l=ip)


def _row_r3m2_control(params):
    l = base_algebra("r3m2")
    action_x = Matrix([[1, 0], [0, -1]])
    rep = Representation(l, (action_x, Matrix.zeros(2, 2), Matrix.zeros(2, 2)),
                         form=SymmetricForm(Matrix([[0, 1], [1, 0]])))
    alpha_vals = {(1, 2): (Q(0), Q(1)), (0, 2): (Q(1), Q(0))}
    return _finish_row("r3m2", "control", params, rep, alpha_vals, {},
                       ("r3m2", "control", ()))


_EXPLICIT_ROWS = {
    ("sl2r", "c"): _row_sl2r,
    ("su2", "ck"): _row_su2,
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
    fam1 = _family(r1.base, r1.variant)
    if fam1 != _family(r2.base, r2.variant):
        return "distinct"
    if r1.base == "R3":
        return "incomparable"
    same = _SAME_PARAMETERS.get((r1.base, fam1))
    if same is not None:
        lam1, lam2 = ([w[:2] for w in _pair_functionals(
            row.params.get("lam", ()), base_algebra(row.base))]
            for row in (r1, r2))
        if len(lam1) != len(lam2):
            return "distinct"
        equal = not lam1 or same(*zip(*lam1), *zip(*lam2))
        return "equal" if equal else "distinct"
    return "equal" if r1.certificate == r2.certificate else "distinct"


def _family(base: str, variant: str) -> str:
    return "I" if base == "n2" and variant in ("Ia", "Ib") else variant


def _h1_I_same(x1, y1, x2, y2) -> bool:
    m = len(x1)
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


def _r2_II_same(y1, z1, y2, z2) -> bool:
    m = len(y1)
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


def _r2_III_same(y1, z1, y2, z2) -> bool:
    m = len(y1)
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


# the families whose parameters are compared by an isomorphism test on
# the columns of their weights (m-vectors, m >= 1) rather than by the
# certificate tuple
_SAME_PARAMETERS = {("h1", "I"): _h1_I_same, ("R2", "II"): _r2_II_same,
                    ("R2", "III"): _r2_III_same}


# --- sweep ----------------------------------------------------------------

# the most rows a sweep may list (README); larger bounds are refused
_MAX_SWEEP_ROWS = 10_000


@dataclass(frozen=True)
class SweepBounds:
    m: int = 2
    weight_num: int = 2
    weight_den: int = 1

    def __post_init__(self):
        num, den = self.weight_num, self.weight_den
        for name, value, least in (("m", self.m, 0), ("num", num, 1),
                                   ("den", den, 1)):
            if value < least:
                raise ValueError(f"$.bounds.{name} must be >= {least}, "
                                 f"got {value}")
        if _row_count(self.m, num, den) > _MAX_SWEEP_ROWS:
            # m is to blame when the weight grid alone stays within the cap
            name = "m" if _row_count(min(self.m, 1), num, den) <= \
                _MAX_SWEEP_ROWS else ("den" if den > num else "num")
            raise ValueError(f"$.bounds.{name}: the bounds list more than "
                             f"{_MAX_SWEEP_ROWS} catalog rows")


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


def _weight_values(num: int, den: int) -> List[Fraction]:
    return sorted({Q(p, q) for p in range(1, num + 1)
                   for q in range(1, den + 1)})


def _pair_grid(num: int) -> List[Tuple[Fraction, Fraction]]:
    grid = [(Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))]
    if num >= 2:
        grid.append((Q(2), Q(1)))
    return grid


_TRIPLE_GRID = ((Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1)))


def _row_count(m: int, num: int, den: int) -> int:
    """len(enumerate_rows(SweepBounds(m, num, den))) without listing a row.

    Past _MAX_SWEEP_ROWS it stops early with a lower bound.  With m >= 1
    every weight value gives 7 + 3 num rows, and there are at least
    max(num, den) values, so num * den > _MAX_SWEEP_ROWS is such a bound.
    """
    if m and num * den > _MAX_SWEEP_ROWS:
        return num * den
    values = len(_weight_values(num, den)) if m else 1
    pairs = len(_pair_grid(num))
    total = 0
    for k in range(m + 1):
        pair_tuples = math.comb(pairs + k - 1, k)
        # R2 III takes the tuples with two distinct pairs off the boost
        # line; (1, 0) is the one grid pair on it
        total += math.comb(values + k - 1, k) * (7 + 3 * num) \
            + 4 * pair_tuples + pair_tuples - 1 - (pairs - 1) * k \
            + 3 * math.comb(k + 2, 2) + (2 if k == 0 else 0)
        if total > _MAX_SWEEP_ROWS:
            return total
        total += 2 * len(k_index_sets(k))
    return total


def enumerate_rows(bounds: SweepBounds) -> List[Tuple[str, str, Dict]]:
    """All (base, variant, params) combinations within the bounds."""
    out: List[Tuple[str, str, Dict]] = []
    num = bounds.weight_num
    values = _weight_values(num, bounds.weight_den) if bounds.m else []
    for m in range(bounds.m + 1):
        for lam in itertools.combinations_with_replacement(values, m):
            out.append(("n2", "Ia", {"lam": lam}))
            out.append(("n2", "Ib", {"lam": lam}))
            out.append(("n2", "II", {"lam": lam}))
            out.append(("n2", "IV", {"lam": lam}))
            for r in range(1, num + 1):
                out.append(("n2", "III", {"lam": lam, "r": Q(r)}))
            out.append(("r3m1", "I", {"lam": lam}))
            out.append(("r3m1", "II", {"lam": lam}))
            out.append(("R1", "II", {"lam": lam}))
            for nu in range(1, num + 1):
                out.append(("R1", "I", {"lam": lam, "nu": Q(nu)}))
            for mu2 in range(1, num + 1):
                out.append(("R1", "III", {"lam": lam, "mu": (Q(1), Q(mu2))}))
        for lam in itertools.combinations_with_replacement(_pair_grid(num), m):
            out.append(("h1", "I", {"lam": lam}))
            out.append(("h1", "II", {"lam": lam}))
            out.append(("R2", "I", {"lam": lam}))
            out.append(("R2", "II", {"lam": lam}))
            if _more_than_two_lines(lam):
                out.append(("R2", "III", {"lam": lam}))
        for c in (Q(0), Q(1)):
            if m == 0:
                out.append(("sl2r", "c", {"c": c}))
            for k in k_index_sets(m):
                out.append(("su2", "ck", {"m": m, "k": k, "c": c}))
        for lam in itertools.combinations_with_replacement(_TRIPLE_GRID, m):
            out.append(("R3", "gamma", {"lam": lam, "gamma": Q(1)}))
            out.append(("R3", "a2", {"lam": lam}))
            out.append(("R3", "a3", {"lam": lam}))
    return out


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
