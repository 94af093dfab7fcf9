"""Workload ``catalog-sweep``: the catalog verification sweep, row by row.

One round makes the calls of ``sweep(SweepBounds(m=1, weight_num=1,
weight_den=1))``: ``run_row`` on each of its 52 rows, then
``run_controls``, then the pairwise-certificate pass over the families
whose propositions assert uniqueness.  Each is one operation.  The seed
only permutes the order of the rows; the certificate pass visits the pairs
in the sweep's own order.
"""

from __future__ import annotations

import random
from typing import Dict, List

from metlie import catalog

import exact
from harness import FAILED

BOUNDS = dict(m=1, weight_num=1, weight_den=1)
UNIQUE_FAMILIES = ("n2", "r3m1", "sl2r", "su2", "R1")


class Inputs:
    def __init__(self, rows):
        self.rows = rows          # (sweep position, base, variant, params)


def setup(seed: int) -> Inputs:
    specs = catalog.enumerate_rows(catalog.SweepBounds(**BOUNDS))
    rows = [(pos,) + tuple(spec) for pos, spec in enumerate(specs)]
    random.Random(seed).shuffle(rows)
    return Inputs(rows)


def digest_material(inputs: Inputs):
    return [(pos, base, variant, sorted((k, str(v)) for k, v in params.items()))
            for pos, base, variant, params in inputs.rows]


def _certificate_pass(done):
    """Verdicts of every pair inside each uniqueness family, pairs taken in
    the sweep's row order, as ``sweep`` takes them."""
    results = sorted((out for out in done if isinstance(out, tuple)),
                     key=lambda t: t[0])
    grouped: Dict[str, list] = {}
    for _, rr in results:
        grouped.setdefault(rr.row.base, []).append(rr.row)
    verdicts: Dict[str, List[str]] = {}
    for fam in UNIQUE_FAMILIES:
        members = grouped.get(fam, [])
        verdicts[fam] = [catalog.non_isomorphism_certificate(members[i], members[j])
                         for i in range(len(members))
                         for j in range(i + 1, len(members))]
    return verdicts


def operations(inputs: Inputs):
    """The round: (label, callable taking the outputs so far) per operation."""
    ops = []
    for pos, base, variant, params in inputs.rows:
        ops.append((f"{base}/{variant}",
                    lambda done, row=(pos, base, variant, params):
                    (row[0], catalog.run_row(*row[1:]))))
    ops.append(("controls", lambda done: catalog.run_controls()))
    ops.append(("certificates", _certificate_pass))
    return ops


def check(inputs: Inputs, outputs) -> List[str]:
    """Problems found in one round's outputs; failed operations are skipped."""
    problems = []
    for out in outputs[:len(inputs.rows)]:
        if out is not FAILED:
            problems += check_row(out[1])
    controls = outputs[len(inputs.rows)]
    if controls is not FAILED:
        problems += check_controls(controls)
    verdicts = outputs[len(inputs.rows) + 1]
    if verdicts is not FAILED:
        problems += check_certificates(verdicts)
    return problems


def check_row(rr) -> List[str]:
    row = rr.row
    name = f"{row.base}/{row.variant} {row.params}"
    metric = row.model.metric
    table = metric.algebra.table
    gram = metric.form.gram.data
    out = []
    neg, zero, _ = exact.inertia(gram)
    if zero:
        out.append(f"{name}: form is degenerate")
    if neg != 3 or rr.index != 3:
        out.append(f"{name}: index {neg} by Descartes, {rr.index} reported; "
                   "the table states 3")
    k = exact.invariance_failure(table, gram)
    if k is not None:
        out.append(f"{name}: G ad(e_{k}) is not skew-symmetric")
    if not (rr.admissible and rr.balanced):
        out.append(f"{name}: admissible={rr.admissible} balanced={rr.balanced}")
    if row.base == "R3":
        if rr.indecomposable is False:
            out.append(f"{name}: decided decomposable")
    elif rr.indecomposable is not True:
        out.append(f"{name}: indecomposable={rr.indecomposable}")
    return out


def check_controls(controls) -> List[str]:
    got = {c.name: c for c in controls}
    out = []
    for name in ("n2-zero-class", "h1-gamma-class"):
        if name not in got or got[name].admissible:
            out.append(f"control {name} is not reported inadmissible")
    c = got.get("r3m2-example")
    if c is None or not c.admissible or c.index == 3:
        out.append("control r3m2-example is not admissible with index != 3")
    return out


def check_certificates(verdicts) -> List[str]:
    out = []
    for fam in UNIQUE_FAMILIES:
        bad = [v for v in verdicts.get(fam, [None]) if v != "distinct"]
        if fam not in verdicts or bad:
            out.append(f"certificates in family {fam}: {bad or 'missing'}")
    return out


def fingerprint(out):
    if isinstance(out, tuple):
        pos, rr = out
        return (pos, rr.index, rr.balanced, rr.admissible, rr.indecomposable)
    if isinstance(out, dict):
        return tuple((fam, tuple(v)) for fam, v in sorted(out.items()))
    return tuple((c.name, c.admissible, c.index) for c in out)
