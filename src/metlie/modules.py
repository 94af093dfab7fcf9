"""Finite-dimensional modules over a Lie algebra.

Validation of representations (with optional invariant symmetric form),
duals, sub/quotient modules, the module radical and socle, higher
socle/radical filtrations, and semisimplicity with the invariant split.

Radicals and socles are read off one set of *radical operators* of the
module V,

    T = {rho(n) : n in a basis of N} ∪ {s_i(rho(z_i))},

where N is the nilpotency radical of the algebra, the z_i lift a basis of
the centre of the reductive quotient g/N, and s_i is the squarefree part of
the minimal polynomial of rho(z_i) on the whole of V.  For a submodule W,

    R(W) = span T·W,           R_{k+1} = T·R_k,
    S(V) = ∩ ker T,            S_{k+1} = {v : T v ⊆ S_k},
    S(W) = W ∩ S(V),

and, for submodules U ⊆ W, the socle of the subquotient W/U lifts to

    {v ∈ W : T v ⊆ U} = W ∩ U.preimage(T),

so every radical is an image and every socle a preimage (one nullspace of
the stacked ann(S_k)·t), with no restriction, quotient or dual module built.

Why V's own s_i serves every subquotient U of V: each irreducible factor of
the minimal polynomial of rho(z) on U divides the one on V, so s_V = s_U·t
with t coprime to s_U, and t(rho(z)) is invertible on U modulo rho(N)U.
Hence rho(N)U + s_V(rho(z))U = rho(N)U + s_U(rho(z))U.  With the standard
facts that N acts as zero on every simple module, that the centre of the
reductive g/N acts semisimply on a module iff that module is semisimple,
and that rho(N)W and rho(N)W + s(rho(z))W are submodules (N is an ideal
and [rho(x), rho(z)] ∈ rho(N)), this gives R(W) = J·W and
S = {v : J v = 0} for the ideal J generated by T.  Each s_i is checked to
be nonzero and squarefree, so W/R(W) is semisimple by construction; every
radical, socle and chain member returned is tested as a submodule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from . import polynomials as poly
from .lie import (IdealChain, InternalCheckError, LieAlgebra, center,
                  nilpotency_radical, quotient_algebra)
from .linalg import (Matrix, Q, Subspace, SymmetricForm, Vector,
                     block_coordinates, block_diagonal, linear_combination,
                     stack_rows)


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
        self._socle_cache = None    # S(V); S(W) is W ∩ S(V)
        self._filtration_cache = None
        if validate:
            witness = self.violation()
            if witness is not None:
                raise ValueError(f"not a representation: {witness}")

    def rho(self, x: Vector) -> Matrix:
        return linear_combination(zip(x, self.action), self.module_dim)

    def violation(self) -> Optional[str]:
        """First failed homomorphism or skew-adjointness identity, if any."""
        g = self.algebra
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = self.rho(g.ad(i).column(j))
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
        if W.dim in (0, self.module_dim):
            return True
        # a·W ⊆ W iff every functional vanishing on W vanishes on a·W
        ann = W.basis.nullspace()
        cols = W.basis.transpose()
        return all((ann @ (a @ cols)).is_zero() for a in self.action)

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
    if not rep.is_submodule(U):
        raise ValueError("not a submodule")
    # coordinates along U of a·u, through a complement of U
    coords = block_coordinates(
        (U.basis.data, U.complement_in(rep.full_space()).basis.data), 0,
        rep.module_dim)
    inclusion = U.basis.transpose()
    mats = tuple(coords @ a @ inclusion for a in rep.action)
    return Representation(rep.algebra, mats, validate=False), inclusion


def quotient_representation(rep: Representation, U: Subspace
                            ) -> Tuple[Representation, Matrix, Matrix]:
    """Action on V/U: (representation, projection V->V/U, lift V/U->V)."""
    _check_ambient(rep, U)
    if U.dim == 0:
        # a fresh object: caches hung on it must not land on rep
        identity = Matrix.identity(rep.module_dim)
        return (Representation(rep.algebra, rep.action, validate=False,
                               module_dim=rep.module_dim), identity, identity)
    if not rep.is_submodule(U):
        raise ValueError("not a submodule")
    # projection Q^m -> Q^m/U and lift back, through a complement of U
    m = rep.module_dim
    comp = U.complement_in(Subspace.full(m))
    lift = comp.basis.transpose()
    proj = block_coordinates((U.basis.data, comp.basis.data), 1, m)
    mats = tuple(proj @ a @ lift for a in rep.action)
    return Representation(rep.algebra, mats, validate=False), proj, lift


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
        # the rows of basis·aᵀ are the images a·v
        nxt = Subspace.row_space(stack_rows(
            [current.basis] + [current.basis @ a.transpose()
                               for a in rep.action], rep.module_dim))
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
        out = (center(quotient).basis @ lift.transpose()).data
    g._cache["central_lifts"] = out
    return out


def _radical_operators(rep: Representation) -> Tuple[Matrix, ...]:
    """T = {rho(n) : n in a basis of N} ∪ {s_i(rho(z_i))}, zeros left out.

    Each s_i is the squarefree part of the minimal polynomial of rho(z_i) on
    the whole module; it is checked to be nonzero and squarefree, which is
    what makes W/T·W semisimple for every submodule W.
    """
    g = rep.algebra
    nilrad = nilpotency_radical(g)
    ops = [rep.rho(n) for n in nilrad.basis.data]
    for z in _central_lifts(g, nilrad):
        rz = rep.rho(z)
        s = poly.squarefree_part(poly.minimal_polynomial(rz))
        if not s or poly.gcd(s, poly.derivative(s)) != (Q(1),):
            raise InternalCheckError(
                "squarefree part of a central lift's minimal polynomial "
                "is zero or has a repeated factor")
        ops.append(poly.evaluate_matrix(s, rz))
    return tuple(op for op in ops if not op.is_zero())


def _checked_submodule(rep: Representation, U: Subspace, what: str) -> Subspace:
    if not rep.is_submodule(U):
        raise InternalCheckError(f"{what} is not a submodule")
    return U


def _radical_of(rep: Representation, W: Subspace,
                ops: Tuple[Matrix, ...]) -> Subspace:
    """R(W) = span T·W; the rows of W·tᵀ are the images t·w."""
    images = stack_rows([W.basis @ t.transpose() for t in ops],
                        rep.module_dim)
    # W/R is semisimple by construction (T was checked in
    # _radical_operators); what is left to test is that R is a submodule.
    return _checked_submodule(rep, Subspace.row_space(images), "radical")


def module_radical(rep: Representation, W: Optional[Subspace] = None) -> Subspace:
    """Minimal submodule R of W such that the action on W/R is semisimple."""
    if W is None:
        W = rep.full_space()
    key = W.basis
    if key in rep._radical_cache:    # W was checked when it was stored
        return rep._radical_cache[key]
    if not rep.is_submodule(W):
        raise ValueError("radical of a non-submodule")
    out = _radical_of(rep, W, _radical_operators(rep))
    rep._radical_cache[key] = out
    return out


def module_socle(rep: Representation, W: Optional[Subspace] = None) -> Subspace:
    """Maximal semisimple submodule: S(V) = ∩ ker T and S(W) = W ∩ S(V)."""
    if W is not None and not rep.is_submodule(W):
        raise ValueError("not a submodule")
    if rep._socle_cache is None:
        S = Subspace.zero(rep.module_dim).preimage(_radical_operators(rep))
        rep._socle_cache = _checked_submodule(rep, S, "socle")
    if W is None:
        return rep._socle_cache
    return _checked_submodule(rep, W.intersect(rep._socle_cache), "socle")


@dataclass(frozen=True)
class ModuleFiltration:
    socles: IdealChain       # S_0 = 0 ⊂ S_1 ⊂ ... ⊂ V, increasing
    radicals: IdealChain     # V = R_0 ⊃ R_1 ⊃ ... ⊃ 0, decreasing
    # the radical operators T both chains were read off
    operators: Tuple[Matrix, ...] = field(compare=False, repr=False)

    def socle(self, k: int) -> Subspace:
        return self.socles[min(k, len(self.socles) - 1)]

    def radical(self, k: int) -> Subspace:
        return self.radicals[min(k, len(self.radicals) - 1)]


def filtration(rep: Representation) -> ModuleFiltration:
    """Higher socles as preimages and higher radicals as images under T."""
    if rep._filtration_cache is not None:
        return rep._filtration_cache
    ops = _radical_operators(rep)
    socles = [Subspace.zero(rep.module_dim)]
    while socles[-1].dim < rep.module_dim:
        nxt = _checked_submodule(rep, socles[-1].preimage(ops), "socle")
        if nxt == socles[-1]:
            raise InternalCheckError(
                "socle chain stalled before reaching the module")
        socles.append(nxt)

    radicals = [rep.full_space()]
    while radicals[-1].dim > 0:
        nxt = _radical_of(rep, radicals[-1], ops)
        if nxt == radicals[-1]:
            raise InternalCheckError(
                "radical chain stalled before reaching zero")
        radicals.append(nxt)

    out = ModuleFiltration(IdealChain(tuple(socles), increasing=True),
                           IdealChain(tuple(radicals), increasing=False),
                           ops)
    rep._filtration_cache = out
    return out


def is_semisimple(rep: Representation) -> bool:
    return module_radical(rep).dim == 0


def invariant_split(rep: Representation) -> Tuple[Subspace, Subspace]:
    """a^l and rho(l)a; complementary for semisimple rep, orthogonal if formed."""
    if not is_semisimple(rep):
        raise ValueError("invariant_split requires a semisimple representation")
    m = rep.module_dim
    invariants = Subspace.zero(m).preimage(rep.action)
    # the rows of each aᵀ are the images a·e_j
    complement = Subspace.row_space(
        stack_rows([a.transpose() for a in rep.action], m))
    return invariants, complement
