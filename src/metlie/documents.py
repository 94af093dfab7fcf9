"""Self-describing JSON documents for every object kind.

One versioned format; all rationals serialize as strings like "3/4" (the
denominator is omitted when it is 1), structure constants as sparse
(i, j, k, value) quadruples with i < j, and matrices as nested string
lists.  parse(serialize(x)) reproduces x bit for bit.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cohomology import Cochain, CochainComplex, QuadraticCocycle
from .lie import LieAlgebra
from .linalg import Matrix, Q, SymmetricForm, lex_subsets
from .metric import ExtensionData, MetricLieAlgebra
from .modules import Representation

FORMAT_VERSION = "1"

KINDS = ("lie", "metric", "representation", "cocycle", "extension",
         "catalog_row")

# Largest algebra `dim` and `module_dim` a document may declare.  A dimension
# is rejected before anything of its size is allocated (the structure table
# alone has dim**3 entries); the tests and the benchmark stay below 20.
MAX_DIM = 64


class DocumentError(ValueError):
    """Malformed document; carries a location path for the report."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def _q_str(x: Fraction) -> str:
    return str(x)


def _is_int(x) -> bool:
    """An integer field; JSON true and false are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _q_parse(s, path: str) -> Fraction:
    if _is_int(s):
        return Q(s)
    if not isinstance(s, str):
        raise DocumentError(f"expected rational string, got {s!r}", path)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {s!r}: {exc}", path)


def _dim_in(payload: Dict, key: str, path: str) -> int:
    x = payload.get(key)
    if not _is_int(x) or x < 0:
        raise DocumentError(f"{key} must be a non-negative integer",
                            f"{path}.{key}")
    if x > MAX_DIM:
        raise DocumentError(f"{key} {x} exceeds the cap of {MAX_DIM}",
                            f"{path}.{key}")
    return x


def _matrix_out(m: Matrix) -> List[List[str]]:
    return [[_q_str(x) for x in row] for row in m.data]


def _matrix_in(data, path: str, rows: Optional[int] = None,
               cols: Optional[int] = None) -> Matrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise DocumentError("expected a list of rows", path)
    table = [[_q_parse(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
             for i, row in enumerate(data)]
    if rows is not None and len(table) != rows:
        raise DocumentError(f"expected {rows} rows, got {len(table)}", path)
    if cols is not None and any(len(r) != cols for r in table):
        raise DocumentError(f"expected {cols} columns in every row", path)
    try:
        return Matrix(table, rows=len(table),
                      cols=cols if not table else len(table[0]))
    except ValueError as exc:
        raise DocumentError(str(exc), path)


def _value_out(v):
    if isinstance(v, Fraction):
        return _q_str(v)
    if isinstance(v, bool) or isinstance(v, int):
        return v
    if isinstance(v, str):
        return v
    if isinstance(v, (tuple, list)):
        return [_value_out(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _value_out(x) for k, x in v.items()}
    raise DocumentError(f"unserializable value {v!r}")


def _params_in(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, list):
        return tuple(_params_in(x) for x in v)
    if isinstance(v, dict):
        return {k: _params_in(x) for k, x in v.items()}
    return v


# --- per-kind payloads ------------------------------------------------------

def lie_payload(g: LieAlgebra) -> Dict:
    payload = {
        "dim": g.dim,
        "brackets": [[i, j, k, _q_str(v)] for (i, j, k, v)
                     in g.structure_entries()],
    }
    if g.labels is not None:
        payload["labels"] = list(g.labels)
    return payload


def lie_from_payload(payload, path: str = "$.payload",
                     validate: bool = True) -> LieAlgebra:
    if not isinstance(payload, dict):
        raise DocumentError("expected an object", path)
    dim = _dim_in(payload, "dim", path)
    brackets: Dict[Tuple[int, int], List[Fraction]] = {}
    entries = payload.get("brackets", [])
    if not isinstance(entries, list):
        raise DocumentError("brackets must be a list", f"{path}.brackets")
    for t, quad in enumerate(entries):
        where = f"{path}.brackets[{t}]"
        if not (isinstance(quad, list) and len(quad) == 4):
            raise DocumentError("expected [i, j, k, value]", where)
        i, j, k, v = quad
        if not all(_is_int(x) for x in (i, j, k)):
            raise DocumentError("indices must be integers", where)
        if not (0 <= i < j < dim and 0 <= k < dim):
            raise DocumentError("indices out of range (need i < j)", where)
        vec = brackets.setdefault((i, j), [Q(0)] * dim)
        vec[k] += _q_parse(v, where)
    labels = payload.get("labels")
    try:
        return LieAlgebra(dim, {k: tuple(v) for k, v in brackets.items()},
                          labels=labels, validate=validate)
    except ValueError as exc:
        raise DocumentError(f"invalid structure constants: {exc}", path)


def metric_payload(m: MetricLieAlgebra) -> Dict:
    return {"algebra": lie_payload(m.algebra), "gram": _matrix_out(m.form.gram)}


def metric_from_payload(payload, path: str = "$.payload",
                        validate: bool = True) -> MetricLieAlgebra:
    if not isinstance(payload, dict):
        raise DocumentError("expected an object", path)
    g = lie_from_payload(payload.get("algebra"), f"{path}.algebra",
                         validate=validate)
    gram = _matrix_in(payload.get("gram"), f"{path}.gram", rows=g.dim,
                      cols=g.dim)
    try:
        return MetricLieAlgebra(g, SymmetricForm(gram), validate=validate)
    except ValueError as exc:
        raise DocumentError(str(exc), path)


def representation_payload(rep: Representation) -> Dict:
    payload = {
        "algebra": lie_payload(rep.algebra),
        "module_dim": rep.module_dim,
        "action": [_matrix_out(a) for a in rep.action],
    }
    if rep.form is not None:
        payload["gram"] = _matrix_out(rep.form.gram)
    return payload


def representation_from_payload(payload, path: str = "$.payload",
                                validate: bool = True) -> Representation:
    if not isinstance(payload, dict):
        raise DocumentError("expected an object", path)
    g = lie_from_payload(payload.get("algebra"), f"{path}.algebra",
                         validate=validate)
    m = _dim_in(payload, "module_dim", path)
    raw = payload.get("action")
    if not isinstance(raw, list) or len(raw) != g.dim:
        raise DocumentError("need one action matrix per basis element",
                            f"{path}.action")
    action = tuple(_matrix_in(a, f"{path}.action[{i}]", rows=m, cols=m)
                   for i, a in enumerate(raw))
    form = None
    if payload.get("gram") is not None:
        form = SymmetricForm(_matrix_in(payload["gram"], f"{path}.gram",
                                        rows=m, cols=m))
    try:
        return Representation(g, action, form=form, module_dim=m,
                              validate=validate)
    except ValueError as exc:
        raise DocumentError(str(exc), path)


def _cochain_out(c: Cochain, scalar: bool) -> List:
    out = []
    for subset in lex_subsets(c.n, c.degree):
        val = c.value(subset)
        if any(x != 0 for x in val):
            if scalar:
                out.append(list(subset) + [_q_str(val[0])])
            else:
                out.append([list(subset), [_q_str(x) for x in val]])
    return out


def _alpha_in(data, n: int, m: int, path: str) -> Cochain:
    values = {}
    if not isinstance(data, list):
        raise DocumentError("alpha must be a list", path)
    for t, entry in enumerate(data):
        where = f"{path}[{t}]"
        if not (isinstance(entry, list) and len(entry) == 2):
            raise DocumentError("expected [[i, j], vector]", where)
        subset, vec = entry
        if not (isinstance(subset, list) and len(subset) == 2
                and all(_is_int(x) for x in subset)):
            raise DocumentError("bad index pair", where)
        i, j = subset
        if not (0 <= i < j < n):
            raise DocumentError("indices out of range (need i < j)", where)
        if not isinstance(vec, list) or len(vec) != m:
            raise DocumentError(f"value must be a vector of length {m}", where)
        values[(i, j)] = tuple(_q_parse(x, where) for x in vec)
    return Cochain.from_values(n, 2, m, values)


def _gamma_in(data, n: int, path: str) -> Cochain:
    values = {}
    if not isinstance(data, list):
        raise DocumentError("gamma must be a list", path)
    for t, entry in enumerate(data):
        where = f"{path}[{t}]"
        if not (isinstance(entry, list) and len(entry) == 4):
            raise DocumentError("expected [i, j, k, value]", where)
        i, j, k, v = entry
        if not all(_is_int(x) for x in (i, j, k)):
            raise DocumentError("indices must be integers", where)
        if not (0 <= i < j < k < n):
            raise DocumentError("indices out of range (need i < j < k)", where)
        values[(i, j, k)] = (_q_parse(v, where),)
    return Cochain.from_values(n, 3, 1, values)


def cocycle_payload(z: QuadraticCocycle) -> Dict:
    cx = z.complex
    return {
        "pair": representation_payload(cx.rep),
        "alpha": _cochain_out(z.alpha, scalar=False),
        "gamma": _cochain_out(z.gamma, scalar=True),
    }


def cocycle_from_payload(payload, path: str = "$.payload",
                         validate: bool = True) -> QuadraticCocycle:
    if not isinstance(payload, dict):
        raise DocumentError("expected an object", path)
    rep = representation_from_payload(payload.get("pair"), f"{path}.pair",
                                      validate=validate)
    if rep.form is None:
        raise DocumentError("cocycle pair needs an invariant form",
                            f"{path}.pair.gram")
    cx = CochainComplex(rep.algebra, rep)
    n, m = rep.algebra.dim, rep.module_dim
    alpha = _alpha_in(payload.get("alpha", []), n, m, f"{path}.alpha")
    gamma = _gamma_in(payload.get("gamma", []), n, f"{path}.gamma")
    try:
        return QuadraticCocycle(cx, alpha, gamma, validate=validate)
    except ValueError as exc:
        raise DocumentError(f"not a quadratic cocycle: {exc}", path)


def extension_payload(data: ExtensionData) -> Dict:
    return {
        "metric": metric_payload(data.metric),
        "base": lie_payload(data.base),
        "module": representation_payload(data.module),
        "ideal": _matrix_out(data.ideal.basis),
        "perp": _matrix_out(data.perp.basis),
        "section": _matrix_out(data.section),
        "cocycle": cocycle_payload(data.cocycle),
    }


def catalog_row_payload(row) -> Dict:
    return {
        "base": row.base,
        "variant": row.variant,
        "params": _value_out(row.params),
        "certificate": _value_out(list(row.certificate)),
        "model": metric_payload(row.model.metric),
        "cocycle": cocycle_payload(row.cocycle),
    }


def catalog_params_from_payload(payload, path: str = "$.payload"):
    if not isinstance(payload, dict):
        raise DocumentError("expected an object", path)
    base = payload.get("base")
    variant = payload.get("variant")
    if not isinstance(base, str) or not isinstance(variant, str):
        raise DocumentError("base and variant must be strings", path)
    params = _params_in(payload.get("params", {}))
    return base, variant, params


# --- envelopes --------------------------------------------------------------

def serialize(kind: str, payload: Dict) -> str:
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}", "$.kind")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}
    return json.dumps(doc, indent=2, sort_keys=True)


def parse(text: str) -> Tuple[str, Dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}", "$")
    if not isinstance(doc, dict):
        raise DocumentError("document must be an object", "$")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version "
                            f"{doc.get('format_version')!r}", "$.format_version")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}", "$.kind")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DocumentError("payload must be an object", "$.payload")
    return kind, payload


def dump_lie(g: LieAlgebra) -> str:
    return serialize("lie", lie_payload(g))


def dump_metric(m: MetricLieAlgebra) -> str:
    return serialize("metric", metric_payload(m))


def dump_representation(rep: Representation) -> str:
    return serialize("representation", representation_payload(rep))


def dump_cocycle(z: QuadraticCocycle) -> str:
    return serialize("cocycle", cocycle_payload(z))


def dump_extension(data: ExtensionData) -> str:
    return serialize("extension", extension_payload(data))


def dump_catalog_row(row) -> str:
    return serialize("catalog_row", catalog_row_payload(row))


def load(text: str):
    """Parse any document into its domain object."""
    kind, payload = parse(text)
    if kind == "lie":
        return kind, lie_from_payload(payload)
    if kind == "metric":
        return kind, metric_from_payload(payload)
    if kind == "representation":
        return kind, representation_from_payload(payload)
    if kind == "cocycle":
        return kind, cocycle_from_payload(payload)
    if kind == "extension":
        return kind, payload     # structural container; parts parsed on demand
    if kind == "catalog_row":
        return kind, payload
    raise DocumentError(f"unhandled kind {kind!r}", "$.kind")
