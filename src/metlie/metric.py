"""Metric Lie algebras and their canonical quadratic-extension data.

Validation of invariant nondegenerate forms, the index, the canonical
isotropic ideal i(g) with its orthogonal complement j(g) computed from the
socle/radical filtration of the adjoint module, simple-ideal detection, and
extraction of the base algebra, orthogonal module, section and quadratic
cocycle from any metric Lie algebra without simple ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .cohomology import Cochain, CochainComplex, QuadraticCocycle
from .lie import (InternalCheckError, LieAlgebra, bracket_subspace, is_ideal,
                  quotient_algebra, solvable_radical, subalgebra_restriction)
from .linalg import (Matrix, Q, Subspace, SymmetricForm, block_coordinates,
                     orthogonal_complement, signature, unit_vector, vec_scale,
                     vec_sub)
from .modules import (ModuleFiltration, Representation, adjoint_representation,
                      filtration)


class MetricValidationError(ValueError):
    pass


class SimpleIdealError(ValueError):
    """The canonical extension is undefined when a simple ideal is present."""

    def __init__(self, ideal: Subspace):
        super().__init__(f"metric algebra contains a simple ideal of dim {ideal.dim}")
        self.ideal = ideal


class MetricLieAlgebra:
    """Lie algebra with an invariant nondegenerate symmetric form."""

    __slots__ = ("algebra", "form", "_cache")

    def __init__(self, algebra: LieAlgebra, form: SymmetricForm,
                 validate: bool = True):
        if form.dim != algebra.dim:
            raise MetricValidationError("form dimension differs from the algebra")
        self.algebra = algebra
        self.form = form
        self._cache = {}
        if validate:
            witness = metric_violation(algebra, form)
            if witness is not None:
                raise MetricValidationError(witness)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def index(self) -> int:
        return signature(self.form)[0]

    def adjoint_module(self) -> Representation:
        if "adjoint" not in self._cache:
            self._cache["adjoint"] = adjoint_representation(self.algebra,
                                                            form=self.form)
        return self._cache["adjoint"]

    def __repr__(self):
        return f"MetricLieAlgebra(dim {self.dim}, index {self.index()})"


def metric_violation(g: LieAlgebra, form: SymmetricForm) -> Optional[str]:
    """First degeneracy or invariance failure, or None when valid."""
    if not form.is_nondegenerate():
        return "form is degenerate"
    witness = invariance_witness(g, form)
    if witness is None:
        return None
    i, k, j, lhs, rhs = witness
    return (f"invariance fails on basis triple ({i},{k},{j}): "
            f"<[e{i},e{k}],e{j}> = {lhs} but <e{i},[e{k},e{j}]> = {rhs}")


def invariance_witness(g: LieAlgebra, form: SymmetricForm
                       ) -> Optional[Tuple[int, int, int, Fraction, Fraction]]:
    """First basis triple (i, k, j) with <[e_i,e_k],e_j> != <e_i,[e_k,e_j]>,
    with both sides, or None when the form (degenerate or not) is invariant.

    The form is invariant exactly when every ad(e_k) is skew-adjoint for
    it, which is checked as a matrix identity; the basis triples are walked
    only to name the witness when it fails.
    """
    if all(form.is_skew_adjoint(g.ad(k)) for k in range(g.dim)):
        return None
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                lhs = form.evaluate(g.ad(i).column(k), unit_vector(g.dim, j))
                rhs = form.evaluate(unit_vector(g.dim, i), g.ad(k).column(j))
                if lhs != rhs:
                    return i, k, j, lhs, rhs
    return None


@dataclass(frozen=True)
class CanonicalIdeals:
    isotropic: Subspace      # i(g) = sum of R_k ∩ S_k
    coisotropic: Subspace    # j(g) = intersection of R_k + S_k = i(g)^perp
    filtration: ModuleFiltration
    simple_ideal: Optional[Subspace]


def canonical_ideals(metric: MetricLieAlgebra,
                     require_no_simple_ideal: bool = False) -> CanonicalIdeals:
    """i(g), j(g), and the adjoint filtration, with the dual/isotropy checks."""
    if "ideals" in metric._cache:
        ids = metric._cache["ideals"]
        if require_no_simple_ideal and ids.simple_ideal is not None:
            raise SimpleIdealError(ids.simple_ideal)
        return ids
    g = metric.algebra
    filt = filtration(metric.adjoint_module())
    iso = Subspace.zero(g.dim)
    coiso = Subspace.full(g.dim)
    depth = max(len(filt.socles), len(filt.radicals))
    for k in range(1, depth):
        r_k = filt.radical(k)
        s_k = filt.socle(k)
        iso = iso.add(r_k.intersect(s_k))
        coiso = coiso.intersect(r_k.add(s_k))
    if coiso != orthogonal_complement(iso, metric.form):
        raise InternalCheckError("canonical ideals: j(g) != i(g)^perp")
    if not metric.form.is_isotropic(iso):
        raise InternalCheckError("canonical ideals: i(g) is not isotropic")
    # duality of the filtration itself
    for k in range(depth):
        if filt.socle(k) != orthogonal_complement(filt.radical(k), metric.form):
            raise InternalCheckError(
                f"adjoint filtration: S_{k} != R_{k}^perp")
    simple = None
    if not iso.contains_subspace(bracket_subspace(g, coiso, coiso)):
        simple = find_simple_ideal(metric)
        if simple is None:
            raise InternalCheckError(
                "j/i is non-abelian but no simple ideal was exhibited")
    out = CanonicalIdeals(iso, coiso, filt, simple)
    metric._cache["ideals"] = out
    if require_no_simple_ideal and simple is not None:
        raise SimpleIdealError(simple)
    return out


def find_simple_ideal(metric: MetricLieAlgebra) -> Optional[Subspace]:
    """A simple ideal, or None; the square of the radical's form-complement
    is the candidate, confirmed by a vanishing solvable radical."""
    g = metric.algebra
    r = solvable_radical(g)
    k = orthogonal_complement(r, metric.form)
    candidate = bracket_subspace(g, k, k)
    if candidate.dim == 0:
        return None
    if not is_ideal(g, candidate):
        return None
    restricted = subalgebra_restriction(g, candidate)
    if solvable_radical(restricted).dim > 0:
        return None
    return candidate


@dataclass(frozen=True)
class ExtensionData:
    """Canonical quadratic-extension data of a metric Lie algebra.

    ``section`` has one column per basis vector of the base algebra; its
    columns span the chosen isotropic complement of the coisotropic ideal.
    ``a_lift`` columns realize the module basis inside the algebra.
    """
    metric: MetricLieAlgebra
    base: LieAlgebra
    module: Representation
    ideal: Subspace
    perp: Subspace
    section: Matrix
    a_lift: Matrix
    base_projection: Matrix
    cocycle: QuadraticCocycle

    @property
    def complex(self) -> CochainComplex:
        return self.cocycle.complex


def _hyperbolic_complement(metric: MetricLieAlgebra, iso: Subspace) -> Subspace:
    """Isotropic complement to iso^perp pairing hyperbolically with iso.

    Gram-style completion: each dual vector is solved for, orthogonalized
    against the previously chosen ones, and isotropized with its partner.
    """
    g_dim = metric.dim
    gram = metric.form.gram
    basis = iso.basis.data
    chosen = []
    for t, u in enumerate(basis):
        constraints = []
        rhs = []
        for s, v in enumerate(basis):
            constraints.append(gram.apply(v))
            rhs.append(Q(1) if s == t else Q(0))
        for w in chosen:
            constraints.append(gram.apply(w))
            rhs.append(Q(0))
        system = Matrix.from_rows(tuple(constraints), cols=g_dim)
        sol = system.solve(tuple(rhs))
        if sol is None:
            raise InternalCheckError("hyperbolic completion: dual solve failed")
        self_pair = metric.form.evaluate(sol, sol)
        if self_pair != 0:
            sol = vec_sub(sol, vec_scale(self_pair / 2, u))
        chosen.append(sol)
    return Subspace.span(g_dim, chosen)


def canonical_extension(metric: MetricLieAlgebra) -> ExtensionData:
    """Base algebra, orthogonal module, section, and extracted cocycle."""
    ideals = canonical_ideals(metric, require_no_simple_ideal=True)
    return extension_from_ideal(metric, ideals.isotropic, ideals.coisotropic)


def extension_from_ideal(metric: MetricLieAlgebra, iso: Subspace,
                         perp: Optional[Subspace] = None) -> ExtensionData:
    """Quadratic-extension data for a given isotropic ideal with abelian
    perp/ideal quotient (the canonical one, or any other valid choice)."""
    g = metric.algebra
    if perp is None:
        perp = orthogonal_complement(iso, metric.form)
    if not metric.form.is_isotropic(iso):
        raise ValueError("chosen ideal is not isotropic")
    if not is_ideal(g, iso):
        raise ValueError("chosen subspace is not an ideal")
    if not iso.contains_subspace(bracket_subspace(g, perp, perp)):
        raise ValueError("perp/ideal is not abelian; extension undefined")

    base, base_proj, _ = quotient_algebra(g, perp)
    n = base.dim

    # module a = perp/iso on a complement basis inside perp
    a_space = iso.complement_in(perp)
    a_lift = a_space.basis.transpose()
    # projection perp -> a-coordinates killing iso
    a_proj = block_coordinates(
        (iso.basis.data, a_space.basis.data,
         perp.complement_in(Subspace.full(g.dim)).basis.data), 1, g.dim)

    a_form = metric.form.restrict(a_space)
    if not a_form.is_nondegenerate():
        raise InternalCheckError("induced form on perp/ideal is degenerate")

    section_space = _hyperbolic_complement(metric, iso)
    # reorder section columns so that base_proj ∘ section = Id
    raw = Matrix.from_columns(section_space.basis.data, rows=g.dim)
    coeff = base_proj @ raw
    section = raw @ coeff.inverse()

    action = tuple(a_proj @ g.ad_vector(section.column(i)) @ a_lift
                   for i in range(n))
    module = Representation(base, action, form=a_form, validate=True)
    cocycle = _section_cocycle(metric, CochainComplex(base, module), section,
                               base_proj, a_proj)
    return ExtensionData(metric=metric, base=base, module=module, ideal=iso,
                         perp=perp, section=section, a_lift=a_lift,
                         base_projection=base_proj, cocycle=cocycle)


def _section_cocycle(metric: MetricLieAlgebra, cx: CochainComplex,
                     section: Matrix, base_proj: Matrix,
                     a_proj: Matrix) -> QuadraticCocycle:
    """alpha(x, y) = a-part of [s x, s y], gamma(x, y, w) = <[s x, s y], s w>."""
    g = metric.algebra
    n, m = cx.n, cx.module_dim
    cols = [section.column(i) for i in range(n)]
    ads = [g.ad_vector(c) for c in cols]
    alpha_vals = {}
    gamma_vals = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = ads[i].apply(cols[j])
            residual = vec_sub(w, section.apply(base_proj.apply(w)))
            alpha_vals[(i, j)] = a_proj.apply(residual)
            for k in range(j + 1, n):
                gamma_vals[(i, j, k)] = (metric.form.evaluate(w, cols[k]),)
    alpha = Cochain.from_values(n, 2, m, alpha_vals)
    gamma = Cochain.from_values(n, 3, 1, gamma_vals)
    return QuadraticCocycle(cx, alpha, gamma, validate=True)


def extract_cocycle(data: ExtensionData,
                    section: Optional[Matrix] = None) -> QuadraticCocycle:
    """Cocycle of the extension, optionally with a user-supplied section.

    A replacement section must satisfy base_projection ∘ section = Id and
    have isotropic image; different sections give equivalent cocycles.
    """
    if section is None:
        return data.cocycle
    metric = data.metric
    g = metric.algebra
    n = data.base.dim
    check = data.base_projection @ section
    if check != Matrix.identity(n):
        raise ValueError("section does not split the base projection")
    sec_cols = section.transpose().data
    if not metric.form.is_isotropic(Subspace.span(g.dim, sec_cols)):
        raise ValueError("section image is not isotropic")

    a_proj = block_coordinates(
        (data.ideal.basis.data, data.a_lift.transpose().data, sec_cols),
        1, g.dim)
    return _section_cocycle(metric, data.complex, section,
                            data.base_projection, a_proj)
