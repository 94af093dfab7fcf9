"""Workload ``equivalence-orbits``: one ``equivalent_cocycles`` decision per
operation, over a fixed set of pairs (l, a).

The bases have dimension 3 to 6 (catalog bases and ``lie.direct_sum`` of
them) and the modules dimension 1 to 6.  Each complex is built once in
set-up and reused, as a library caller does; set-up also fills the two
differential matrices a degree-2 decision reads, so that the rounds repeat
the same work.

From the seed, each pair gets random quadratic 2-cocycles:

* equivalent by construction: z1 = z.c1 and z2 = z.c2 for a random class
  z and random group elements c1, c2 = (tau, sigma).  On a 3-dimensional
  base alpha is a random 2-cocycle; on a larger base it is f (x) v for a
  random scalar 2-cocycle f and an invariant isotropic vector v, so that
  its cup square vanishes, and gamma is solved for.
* not equivalent by construction: (0, g) and (0, g + delta) hidden by
  random group elements, where delta is a nonzero multiple of the volume
  form on a unimodular 3-dimensional base (where B^3 = 0), or any nonzero
  scalar 3-cochain on an abelian base (where the scalar differential
  vanishes).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from metlie import catalog, cohomology, lie, linalg, quadext
from metlie.catalog import RepFamilySpec as Spec

import exact
from harness import FAILED

Q = Fraction

# name, base builder, module blocks, equivalent pairs, non-equivalent kind
# and count.  "unimodular" and "abelian" name the two constructions above.
PAIRS = (
    ("n2+rot", lambda: catalog.base_algebra("n2"),
     [Spec("plus", ((1,),)), Spec("trivial", (0, 1))], 10, "unimodular", 5),
    ("h1+line", lambda: catalog.base_algebra("h1"),
     [Spec("trivial", (0, 1))], 10, "unimodular", 5),
    ("sl2r+hyp", lambda: catalog.base_algebra("sl2r"),
     [Spec("trivial", (1, 1))], 10, "unimodular", 5),
    ("su2+so3", lambda: catalog.base_algebra("su2"),
     [Spec("su2_odd", (1,))], 10, "unimodular", 5),
    ("r3m1+boost", lambda: catalog.base_algebra("r3m1"),
     [Spec("prime", ((1,),)), Spec("plus", ((2,),))], 10, "unimodular", 5),
    ("R3+rot2", lambda: catalog.base_algebra("R3"),
     [Spec("plus", ((1, 0, 0), (0, 1, 1)))], 10, "abelian", 5),
    ("R4+hyp", lambda: lie.abelian(4),
     [Spec("trivial", (1, 1))], 10, "abelian", 5),
    ("n2+R1", lambda: lie.direct_sum(catalog.base_algebra("n2"),
                                     catalog.base_algebra("R1")),
     [Spec("plus", ((1, 0, 0, 1),)), Spec("trivial", (1, 1))], 10, None, 0),
    ("h1+R2", lambda: lie.direct_sum(catalog.base_algebra("h1"),
                                     catalog.base_algebra("R2")),
     [Spec("plus", ((1, 0, 0, 0, 1),)), Spec("trivial", (1, 1))], 10, None, 0),
    ("n2+n2", lambda: lie.direct_sum(catalog.base_algebra("n2"),
                                     catalog.base_algebra("n2")),
     [Spec("trivial", (1, 1))], 10, None, 0),
    ("r3m1+R3", lambda: lie.direct_sum(catalog.base_algebra("r3m1"),
                                       catalog.base_algebra("R3")),
     [Spec("prime", ((1, 0, 0, 0, 0, 1),)), Spec("plus", ((0, 0, 0, 1),)),
      Spec("trivial", (1, 1))], 10, None, 0),
)


class Case:
    def __init__(self, pair: str, cx, z1, z2, equivalent: bool):
        self.pair = pair
        self.cx = cx
        self.z1 = z1
        self.z2 = z2
        self.equivalent = equivalent


class Inputs:
    def __init__(self, cases: List[Case]):
        self.cases = cases


def _rand_coords(rng, count, span=1):
    return [Q(rng.randint(-span, span)) for _ in range(count)]


def _combination(rng, rows, span=2):
    """A random integral combination of the rows, nonzero when rows exist."""
    while True:
        coeffs = _rand_coords(rng, len(rows), span)
        if any(coeffs) or not rows:
            break
    width = len(rows[0]) if rows else 0
    return [sum((c * r[i] for c, r in zip(coeffs, rows)), Q(0))
            for i in range(width)]


def _group_element(rng, cx):
    n, m = cx.n, cx.module_dim
    tau = cohomology.Cochain(n, 1, m, _rand_coords(rng, n * m))
    sigma = cohomology.Cochain(n, 2, 1, _rand_coords(rng, n * (n - 1) // 2))
    return cohomology.QuadraticCochain(tau, sigma)


def _isotropic_invariant(cx):
    """An invariant vector v with <v, v> = 0 in a trivial hyperbolic block."""
    rep = cx.rep
    gram = rep.form.gram
    m = rep.module_dim
    for s in range(m):
        for t in range(s + 1, m):
            v = tuple(Q(int(i in (s, t))) for i in range(m))
            if all(not any(a.apply(v)) for a in rep.action) and \
                    gram[s, s] == -gram[t, t] and gram[s, t] == 0:
                return v
    raise ValueError("no invariant isotropic vector in the module")


def _random_class(rng, cx):
    """A quadratic 2-cocycle (alpha, gamma) of the pair, drawn at random."""
    n, m = cx.n, cx.module_dim
    if n == 3:
        cocycles = cx.d_matrix(2).nullspace().data
        alpha = cohomology.Cochain(n, 2, m, _combination(rng, cocycles))
        gamma = cohomology.Cochain(n, 3, 1, [Q(rng.choice((-2, -1, 1, 2)))])
        return cohomology.QuadraticCocycle(cx, alpha, gamma)
    scalar = cx.scalar_complex()
    f = _combination(rng, scalar.d_matrix(2).nullspace().data)
    v = _isotropic_invariant(cx)
    alpha = cohomology.Cochain(n, 2, m, [c * x for c in f for x in v])
    rhs = cx.wedge(alpha, alpha).scale(Q(1, 2))
    particular, kernel = linalg.solve_affine(scalar.d_matrix(3), rhs.coords)
    shift = _combination(rng, kernel.basis.data)
    gamma = cohomology.Cochain(n, 3, 1, [a + b for a, b in
                                         zip(particular, shift)])
    return cohomology.QuadraticCocycle(cx, alpha, gamma)


def _shifted_pair(rng, cx, kind):
    """(0, g) and (0, g + delta) with delta outside the orbit's reach."""
    n = cx.n
    count = n * (n - 1) * (n - 2) // 6
    g = _rand_coords(rng, count, 2)
    if kind == "unimodular":
        delta = [Q(rng.choice((-2, -1, 1, 2)))]
    else:
        delta = _combination(rng, [tuple(Q(int(i == j)) for i in range(count))
                                   for j in range(count)])
    zero = cx.zero_cochain(2)
    z = cohomology.QuadraticCocycle(cx, zero, cohomology.Cochain(n, 3, 1, g))
    w = cohomology.QuadraticCocycle(
        cx, zero, cohomology.Cochain(n, 3, 1, [a + b for a, b in zip(g, delta)]))
    return z, w


def setup(seed: int) -> Inputs:
    rng = random.Random(seed)
    cases = []
    for name, make_base, blocks, n_equiv, kind, n_other in PAIRS:
        l = make_base()
        cx = cohomology.CochainComplex(l, catalog.build_rep(blocks, l))
        cx.d_matrix(1)
        cx.scalar_complex().d_matrix(2)
        for _ in range(n_equiv):
            z = _random_class(rng, cx)
            cases.append(Case(name, cx,
                              cohomology.q_action(z, _group_element(rng, cx)),
                              cohomology.q_action(z, _group_element(rng, cx)),
                              True))
        for _ in range(n_other):
            z, w = _shifted_pair(rng, cx, kind)
            cases.append(Case(name, cx,
                              cohomology.q_action(z, _group_element(rng, cx)),
                              cohomology.q_action(w, _group_element(rng, cx)),
                              False))
    rng.shuffle(cases)
    return Inputs(cases)


def digest_material(inputs: Inputs):
    return [(c.pair, c.equivalent, c.z1.alpha.coords, c.z1.gamma.coords,
             c.z2.alpha.coords, c.z2.gamma.coords) for c in inputs.cases]


def operations(inputs: Inputs):
    return [(f"{c.pair}/{'equivalent' if c.equivalent else 'distinct'}",
             lambda done, c=c: cohomology.equivalent_cocycles(c.z1, c.z2))
            for c in inputs.cases]


def fingerprint(out):
    return None if out is None else (out.tau.coords, out.sigma.coords)


def check(inputs: Inputs, outputs) -> List[str]:
    problems = []
    for case, out in zip(inputs.cases, outputs):
        if out is not FAILED:
            problems += check_case(case, out)
    return problems


def check_case(case: Case, witness) -> List[str]:
    """A witness must exist exactly for the pairs built equivalent, and its
    Psi must be an isometric isomorphism model(z1) -> model(z2)."""
    if not case.equivalent:
        return [] if witness is None else \
            [f"{case.pair}: a witness for a pair built non-equivalent"]
    if witness is None:
        return [f"{case.pair}: no witness for a pair built equivalent"]
    psi = quadext.psi_map(case.cx, witness).data
    # the tables only: the cocycles were validated in set-up
    src = quadext.build_model(case.z1, force=True).metric
    dst = quadext.build_model(case.z2, force=True).metric
    why = exact.isometric_isomorphism_failure(
        psi, src.algebra.table, src.form.gram.data,
        dst.algebra.table, dst.form.gram.data)
    return [] if why is None else [f"{case.pair}: witness Psi {why}"]
