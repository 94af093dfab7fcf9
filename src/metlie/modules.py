"""Finite-dimensional modules over a Lie algebra.

Validation of representations (with optional invariant symmetric form),
duals, sub/quotient modules, the module radical and socle, higher
socle/radical filtrations, and semisimplicity with the invariant split.

The radical R(W) of a submodule W is the minimal submodule with semisimple
quotient action.  W is restricted to once, and the formula

    R = rho(N)·W + sum_i s_i(rho(z_i))·W

runs on that sub-module in its own basis, where N is the nilpotency
radical of the algebra, the z_i lift a basis of the centre of the reductive
quotient, and s_i is the squarefree part of the minimal polynomial of
rho(z_i) on W / rho(N)·W.  Because N is an ideal, rho(N)·W is a submodule
(x·(n·w) = [x, n]·w + n·(x·w)), so only the induced matrices of the rho(z_i)
are formed on that quotient, with no further submodule test.  A
verification pass checks the radical it produced: it re-applies the formula
to W/R, whose construction tests that R is a submodule, and iterates in
the (never yet observed) event the result is not already zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from . import polynomials as poly
from .lie import (IdealChain, InternalCheckError, LieAlgebra, center,
                  nilpotency_radical, quotient_algebra)
from .linalg import (Matrix, Subspace, SymmetricForm, Vector, block_coordinates,
                     block_diagonal, unit_vector)


class Representation:
    """Action matrices of a Lie algebra on Q^m, optionally orthogonal."""

    __slots__ = ("algebra", "module_dim", "action", "form",
                 "_radical_cache", "_socle_cache", "_filtration_cache")

    def __init__(self, algebra: LieAlgebra, action: Sequence[Matrix],
                 form: Optional[SymmetricForm] = None, validate: bool = True,
                 module_dim: Optional[int] = None):
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        dims = {(m.rows, m.cols) for m in action}
        if len(dims) > 1:
            raise ValueError("action matrices of mixed sizes")
        if action:
            m = action[0].rows
        elif module_dim is not None:
            m = module_dim
        else:
            m = form.dim if form else 0
        if action and action[0].rows != action[0].cols:
            raise ValueError("action matrices must be square")
        if form is not None and form.dim != m:
            raise ValueError("form dimension differs from module dimension")
        self.algebra = algebra
        self.module_dim = m
        self.action = tuple(action)
        self.form = form
        self._radical_cache = {}
        self._socle_cache = {}
        self._filtration_cache = None
        if validate:
            witness = self.violation()
            if witness is not None:
                raise ValueError(f"not a representation: {witness}")

    def rho(self, x: Vector) -> Matrix:
        acc = Matrix.zeros(self.module_dim, self.module_dim)
        for i, xi in enumerate(x):
            if xi != 0:
                acc = acc + self.action[i].scale(xi)
        return acc

    def violation(self) -> Optional[str]:
        """First failed homomorphism or skew-adjointness identity, if any."""
        g = self.algebra
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = self.rho(g.table[i][j])
                rhs = self.action[i] @ self.action[j] - self.action[j] @ self.action[i]
                if lhs != rhs:
                    return f"rho([e{i},e{j}]) != [rho(e{i}),rho(e{j})]"
        if self.form is not None:
            for i, a in enumerate(self.action):
                if not self.form.is_skew_adjoint(a):
                    return f"rho(e{i}) is not skew-adjoint for the form"
        return None

    def is_submodule(self, W: Subspace) -> bool:
        if W.ambient != self.module_dim:
            raise ValueError("ambient dimension mismatch")
        if W.dim == self.module_dim:
            return True    # the whole module contains every image
        return all(W.contains(a.apply(w)) for a in self.action for w in W.basis.data)

    def full_space(self) -> Subspace:
        return Subspace.full(self.module_dim)

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.algebra == other.algebra
                and self.action == other.action
                and self.form == other.form)

    def __repr__(self):
        return (f"Representation(dim {self.module_dim} over algebra of "
                f"dim {self.algebra.dim})")


def trivial_representation(g: LieAlgebra, m: int,
                           form: Optional[SymmetricForm] = None) -> Representation:
    zero = Matrix.zeros(m, m)
    return Representation(g, (zero,) * g.dim, form=form, validate=False,
                          module_dim=m)


def adjoint_representation(g: LieAlgebra,
                           form: Optional[SymmetricForm] = None) -> Representation:
    if form is None:
        # plain adjoint modules are shared so their filtrations cache
        if "adjoint_rep" not in g._cache:
            g._cache["adjoint_rep"] = Representation(
                g, tuple(g.ad(i) for i in range(g.dim)), validate=False)
        return g._cache["adjoint_rep"]
    return Representation(g, tuple(g.ad(i) for i in range(g.dim)),
                          form=form, validate=False)


def dual_representation(rep: Representation) -> Representation:
    return Representation(rep.algebra,
                          tuple(a.transpose().scale(-1) for a in rep.action),
                          validate=False)


def sub_representation(rep: Representation, U: Subspace
                       ) -> Tuple[Representation, Matrix]:
    """Action on a submodule in its own basis, plus the inclusion matrix.

    Inclusion columns are the chosen basis vectors of U, so
    ``inclusion @ (coords in U)`` recovers ambient coordinates.
    """
    _check_ambient(rep, U)
    if U.dim == rep.module_dim:
        return rep, Matrix.identity(rep.module_dim)
    rows = U.basis.data
    inclusion = Matrix.from_columns(rows, rows=rep.module_dim)
    mats = []
    for a in rep.action:
        cols = []
        for u in rows:
            coords = U.coordinates(a.apply(u))
            if coords is None:
                raise ValueError("not a submodule")
            cols.append(coords)
        mats.append(Matrix.from_columns(cols, rows=U.dim))
    return Representation(rep.algebra, tuple(mats), validate=False), inclusion


def quotient_representation(rep: Representation, U: Subspace
                            ) -> Tuple[Representation, Matrix, Matrix]:
    """Action on V/U: (representation, projection V->V/U, lift V/U->V)."""
    _check_ambient(rep, U)
    if U.dim == 0:
        # a fresh object: caches hung on it must not land on rep
        identity = Matrix.identity(rep.module_dim)
        return (Representation(rep.algebra, rep.action, validate=False,
                               module_dim=rep.module_dim), identity, identity)
    proj, lift = _quotient_maps(rep.module_dim, U)
    mats = []
    for a in rep.action:
        pa = proj @ a
        # proj kills exactly U, so U is a submodule iff proj·a·U = 0
        if any(any(pa.apply(u)) for u in U.basis.data):
            raise ValueError("not a submodule")
        mats.append(pa @ lift)
    return Representation(rep.algebra, tuple(mats), validate=False), proj, lift


def _quotient_maps(m: int, U: Subspace) -> Tuple[Matrix, Matrix]:
    """Projection Q^m -> Q^m/U and lift back, through a complement of U."""
    comp = U.complement_in(Subspace.full(m))
    lift = Matrix.from_columns(comp.basis.data, rows=m)
    proj = block_coordinates((U.basis.data, comp.basis.data), 1, m)
    return proj, lift


def _check_ambient(rep: Representation, U: Subspace):
    if U.ambient != rep.module_dim:
        raise ValueError("ambient dimension mismatch")


def direct_sum_representations(r1: Representation, r2: Representation,
                               algebra: Optional[LieAlgebra] = None) -> Representation:
    """Blockwise sum of two representations of the same algebra."""
    g = algebra if algebra is not None else r1.algebra
    if r1.algebra != g or r2.algebra != g:
        raise ValueError("representations of different algebras")
    mats = tuple(block_diagonal((a, b)) for a, b in zip(r1.action, r2.action))
    form = None
    if r1.form is not None and r2.form is not None:
        form = SymmetricForm(block_diagonal((r1.form.gram, r2.form.gram)))
    return Representation(g, mats, form=form, validate=False,
                          module_dim=r1.module_dim + r2.module_dim)


def submodule_generated(rep: Representation, vectors: Sequence[Vector]) -> Subspace:
    current = Subspace.span(rep.module_dim, vectors)
    while True:
        rows = list(current.basis.data)
        nxt = Subspace.span(rep.module_dim,
                            rows + [a.apply(v) for a in rep.action for v in rows])
        if nxt == current:
            return current
        current = nxt


def _central_lifts(g: LieAlgebra, nilrad: Subspace) -> Tuple[Vector, ...]:
    """Lifts to g of a basis of the centre of the reductive quotient g/N."""
    if "central_lifts" in g._cache:
        return g._cache["central_lifts"]
    if nilrad.dim == g.dim:
        out = ()
    else:
        quotient, _, lift = quotient_algebra(g, nilrad)
        out = tuple(lift.apply(z) for z in center(quotient).basis.data)
    g._cache["central_lifts"] = out
    return out


def _radical_once(rep: Representation, nilrad: Subspace,
                  lifts: Tuple[Vector, ...]) -> Subspace:
    """rho(N)·V + sum_i s_i(rho(z_i))·V on the whole module V."""
    m = rep.module_dim
    pieces = []
    for r in nilrad.basis.data:
        pieces.extend(rep.rho(r).transpose().data)    # images of unit vectors
    base = Subspace.span(m, pieces)
    if lifts and base.dim < m:
        # rho(N)·V is a submodule because N = [g, r] is an ideal
        # (nilpotency_radical checks it against the ideal r ∩ g'), so
        # V/rho(N)·V needs no submodule test, and only the central lifts'
        # induced matrices are formed on it.
        if base.dim:
            proj, lift = _quotient_maps(m, base)
        for z in lifts:
            rz = rep.rho(z)
            induced = proj @ rz @ lift if base.dim else rz
            s = poly.squarefree_part(poly.minimal_polynomial(induced))
            pieces.extend(poly.evaluate_matrix(s, rz).transpose().data)
    return Subspace.span(m, pieces)


def module_radical(rep: Representation, W: Optional[Subspace] = None) -> Subspace:
    """Minimal submodule R of W such that the action on W/R is semisimple."""
    if W is None:
        W = rep.full_space()
    key = W.basis
    if key in rep._radical_cache:    # W was checked when it was stored
        return rep._radical_cache[key]
    _check_ambient(rep, W)
    try:
        sub, _ = sub_representation(rep, W)
    except ValueError:
        raise ValueError("radical of a non-submodule") from None
    g = rep.algebra
    nilrad = nilpotency_radical(g)
    lifts = _central_lifts(g, nilrad)
    R = _radical_once(sub, nilrad, lifts)
    # Verification: the formula applied to W/R must give zero.
    while R.dim < sub.module_dim:
        qrep, _, lift = quotient_representation(sub, R)
        again = _radical_once(qrep, nilrad, lifts)
        if again.dim == 0:
            break
        R = R.add(Subspace.span(sub.module_dim,
                                [lift.apply(v) for v in again.basis.data]))
    # W-coordinates to ambient ones: the rows of R's basis times W's
    out = R if W.dim == rep.module_dim else \
        Subspace.span(rep.module_dim, (R.basis @ W.basis).data)
    rep._radical_cache[key] = out
    return out


def module_socle(rep: Representation, W: Optional[Subspace] = None) -> Subspace:
    """Maximal semisimple submodule, via the dual radical: S(W) = R(W*)^perp."""
    if W is None:
        W = rep.full_space()
    key = W.basis
    if key in rep._socle_cache:
        return rep._socle_cache[key]
    sub_rep, inclusion = sub_representation(rep, W)
    dual = dual_representation(sub_rep)
    rad_dual = module_radical(dual)
    ann = rad_dual.annihilator()  # vectors of W killed by every radical functional
    out = Subspace.span(rep.module_dim,
                        tuple(inclusion.apply(v) for v in ann.basis.data))
    rep._socle_cache[key] = out
    return out


@dataclass(frozen=True)
class ModuleFiltration:
    socles: IdealChain       # S_0 = 0 ⊂ S_1 ⊂ ... ⊂ V, increasing
    radicals: IdealChain     # V = R_0 ⊃ R_1 ⊃ ... ⊃ 0, decreasing

    def socle(self, k: int) -> Subspace:
        return self.socles[min(k, len(self.socles) - 1)]

    def radical(self, k: int) -> Subspace:
        return self.radicals[min(k, len(self.radicals) - 1)]


def filtration(rep: Representation) -> ModuleFiltration:
    """Higher socles by socles of quotients, higher radicals by iteration."""
    if rep._filtration_cache is not None:
        return rep._filtration_cache
    V = rep.full_space()
    socles = [Subspace.zero(rep.module_dim)]
    while socles[-1].dim < rep.module_dim:
        qrep, proj, lift = quotient_representation(rep, socles[-1])
        s = module_socle(qrep)
        lifted = [lift.apply(v) for v in s.basis.data]
        nxt = socles[-1].add(Subspace.span(rep.module_dim, lifted))
        if nxt == socles[-1]:
            raise InternalCheckError(
                "socle chain stalled before reaching the module")
        socles.append(nxt)

    radicals = [V]
    while radicals[-1].dim > 0:
        nxt = module_radical(rep, radicals[-1])
        if nxt == radicals[-1]:
            raise InternalCheckError(
                "radical chain stalled before reaching zero")
        radicals.append(nxt)

    out = ModuleFiltration(IdealChain(tuple(socles), increasing=True),
                           IdealChain(tuple(radicals), increasing=False))
    rep._filtration_cache = out
    return out


def is_semisimple(rep: Representation) -> bool:
    return module_radical(rep).dim == 0


def invariant_split(rep: Representation) -> Tuple[Subspace, Subspace]:
    """a^l and rho(l)a; complementary for semisimple rep, orthogonal if formed."""
    if not is_semisimple(rep):
        raise ValueError("invariant_split requires a semisimple representation")
    m = rep.module_dim
    if rep.algebra.dim == 0:
        return Subspace.full(m), Subspace.zero(m)
    stacked = rep.action[0]
    for a in rep.action[1:]:
        stacked = stacked.vstack(a)
    invariants = Subspace(m, stacked.nullspace().rref()[0])
    image_rows = [a.apply(unit_vector(m, j)) for a in rep.action for j in range(m)]
    complement = Subspace.span(m, image_rows)
    return invariants, complement
