"""Workload ``extract-roundtrip``: the ``metlie extract`` path, in-process.

Set-up builds the standard model of every catalog row with m = 0 (24
rows), puts it in the bases of three seeded random integral unimodular
changes of basis, and writes each as a ``metric`` document, so that a
round has 72 documents in seeded order.  Each operation loads one document, computes its
canonical extension and serializes the extension, as ``metlie extract``
does.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from typing import List

from metlie import catalog, documents, metric, quadext

import exact
from harness import FAILED

BOUNDS = dict(m=0, weight_num=2, weight_den=1)
CHANGES_PER_ROW = 3


class Document:
    def __init__(self, row: str, base_dim: int, module_dim: int, text: str):
        self.row = row
        self.base_dim = base_dim
        self.module_dim = module_dim
        self.text = text


class Inputs:
    def __init__(self, docs: List[Document]):
        self.docs = docs


def _metric_document(table, gram) -> str:
    n = len(table)
    brackets = [[i, j, k, str(v)] for i in range(n) for j in range(i + 1, n)
                for k, v in enumerate(table[i][j]) if v]
    payload = {"algebra": {"dim": n, "brackets": brackets},
               "gram": [[str(x) for x in row] for row in gram]}
    return json.dumps({"format_version": "1", "kind": "metric",
                       "payload": payload}, indent=2, sort_keys=True)


def setup(seed: int) -> Inputs:
    rng = random.Random(seed)
    docs = []
    for base, variant, params in catalog.enumerate_rows(
            catalog.SweepBounds(**BOUNDS)):
        row = catalog.catalog_row(base, variant, params)
        m = row.model.metric
        table, gram = m.algebra.table, m.form.gram.data
        n = row.complex.n
        for _ in range(CHANGES_PER_ROW):
            p, p_inv = exact.random_unimodular(rng, m.dim)
            new_table, new_gram = exact.change_basis(table, gram, p, p_inv)
            docs.append(Document(f"{base}/{variant}", n, row.complex.module_dim,
                                 _metric_document(new_table, new_gram)))
    rng.shuffle(docs)
    return Inputs(docs)


def digest_material(inputs: Inputs):
    return [d.text for d in inputs.docs]


def _extract(text: str):
    kind, m = documents.load(text)
    data = metric.canonical_extension(m)
    return kind, data, documents.serialize("extension",
                                           documents.extension_payload(data))


def operations(inputs: Inputs):
    return [(d.row, lambda done, text=d.text: _extract(text))
            for d in inputs.docs]


def fingerprint(out):
    return out[0], out[2]


def check(inputs: Inputs, outputs) -> List[str]:
    problems = []
    for doc, out in zip(inputs.docs, outputs):
        if out is not FAILED:
            problems += [f"{doc.row}: {p}" for p in check_document(doc, *out)]
    return problems


def extension_map(data, gram):
    """Columns: the ideal vectors dual to the section, the module lift made
    orthogonal to the section, then the section."""
    n = data.base.dim
    m = data.module.module_dim
    section = [data.section.column(i) for i in range(n)]
    ideal = data.ideal.basis.data
    lift = [data.a_lift.column(t) for t in range(m)]

    def pair(u, v):
        return sum((x * y for x, y in zip(u, exact.mat_vec(gram, v))), Fraction(0))

    dual = exact.inverse([[pair(u, s) for s in section] for u in ideal])
    duals = [tuple(sum((c * u[k] for c, u in zip(coeffs, ideal)), Fraction(0))
                   for k in range(len(gram))) for coeffs in dual]
    lifted = []
    for a in lift:
        shifts = [pair(a, s) for s in section]
        lifted.append(tuple(x - sum((c * d[k] for c, d in zip(shifts, duals)),
                                    Fraction(0)) for k, x in enumerate(a)))
    cols = duals + lifted + section
    return [[col[r] for col in cols] for r in range(len(gram))]


def _cocycle_from_json(payload, n, m):
    alpha = {tuple(ij): tuple(Fraction(x) for x in vec)
             for ij, vec in payload["alpha"]}
    gamma = {(i, j, k): Fraction(v) for i, j, k, v in payload["gamma"]}
    zero = (Fraction(0),) * m
    return ([alpha.get(s, zero) for s in combinations(range(n), 2)],
            [gamma.get(s, Fraction(0)) for s in combinations(range(n), 3)])


def check_document(doc: Document, kind, data, text) -> List[str]:
    if kind != "metric":
        return [f"loaded as {kind!r}"]
    n, m = data.base.dim, data.module.module_dim
    if (n, m) != (doc.base_dim, doc.module_dim):
        return [f"extracted base/module dimensions {(n, m)}, built with "
                f"{(doc.base_dim, doc.module_dim)}"]
    source = json.loads(doc.text)["payload"]
    dim = source["algebra"]["dim"]
    table = exact.table_from_entries(dim, source["algebra"]["brackets"])
    gram = [[Fraction(x) for x in row] for row in source["gram"]]
    problems = []
    try:
        phi = extension_map(data, gram)
    except ValueError:
        return ["the ideal does not pair nondegenerately with the section"]
    model = quadext.build_model(data.cocycle, force=True).metric
    why = exact.isometric_isomorphism_failure(
        phi, model.algebra.table, model.form.gram.data, table, gram)
    if why is not None:
        problems.append(f"extension map from the model: {why}")
    parsed = _cocycle_from_json(json.loads(text)["payload"]["cocycle"], n, m)
    z = data.cocycle
    own = ([z.alpha.coords[t * m:(t + 1) * m] for t in range(n * (n - 1) // 2)],
           list(z.gamma.coords))
    if parsed != own:
        problems.append("the serialized extension does not parse back to "
                        "its cocycle")
    return problems
