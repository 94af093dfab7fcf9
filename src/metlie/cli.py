"""Command-line interface.

Subcommands: validate, analyze, cohomology, build, extract, check-balanced,
check-admissible, equivalent, catalog, sweep, certify.  Exit status 0 for
success and true verdicts, 1 for false verdicts, 2 for input errors, and 3
for internal cross-check failures (a bug, never valid input behaviour).
All numeric output is exact; --json selects the machine format.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from . import documents as doc
from .catalog import (SweepBounds, catalog_row, non_isomorphism_certificate,
                      sweep)
from .cohomology import CochainComplex, cocycle_defect, equivalent_cocycles
from .lie import InternalCheckError
from .metric import (SimpleIdealError, canonical_extension, canonical_ideals,
                     metric_violation)
from .quadext import admissibility, build_model, is_balanced

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(text: str, out: Optional[str]):
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_kind(path: str, expected: str):
    kind, obj = doc.load(_read(path))
    if kind != expected:
        raise doc.DocumentError(f"expected a {expected} document, got {kind}",
                                "$.kind")
    return obj


def _emit(args, human_lines: List[str], machine: Dict):
    if args.json:
        print(json.dumps(machine, indent=2, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)


def cmd_validate(args) -> int:
    """Structural problems exit 2; semantic verdicts exit 0/1 with a witness."""
    kind, payload = doc.parse(_read(args.file))
    if kind == "lie":
        g = doc.lie_from_payload(payload, validate=False)
        witness = g.jacobi_witness()
        ok = witness is None
        detail = "" if ok else f"Jacobi fails at triple {witness[:3]}"
    elif kind == "metric":
        metric = doc.metric_from_payload(payload, validate=False)
        witness = metric.algebra.jacobi_witness()
        if witness is not None:
            ok, detail = False, f"Jacobi fails at triple {witness[:3]}"
        else:
            problem = metric_violation(metric.algebra, metric.form)
            ok = problem is None
            detail = problem or ""
    elif kind == "representation":
        rep = doc.representation_from_payload(payload, validate=False)
        witness = rep.algebra.jacobi_witness()
        if witness is not None:
            ok, detail = False, f"Jacobi fails at triple {witness[:3]}"
        else:
            problem = rep.violation()
            ok = problem is None
            detail = problem or ""
    elif kind == "cocycle":
        z = doc.cocycle_from_payload(payload, validate=False)
        cx = z.complex
        witness = cx.algebra.jacobi_witness()
        problem = cx.rep.violation() if witness is None else \
            f"Jacobi fails at triple {witness[:3]}"
        if problem is None:
            problem = cocycle_defect(cx, z.alpha, z.gamma)
        ok = problem is None
        detail = problem or ""
    else:
        ok, detail = True, f"{kind} documents carry no validity predicate"
    _emit(args, [f"valid: {ok}" + (f"  ({detail})" if detail else "")],
          {"valid": ok, "detail": detail})
    return EXIT_OK if ok else EXIT_FALSE


def cmd_analyze(args) -> int:
    metric = _load_kind(args.file, "metric")
    ids = canonical_ideals(metric)
    idx = metric.index()
    iso_dim, coiso_dim = ids.isotropic.dim, ids.coisotropic.dim
    socle_dims = [s.dim for s in ids.filtration.socles]
    radical_dims = [r.dim for r in ids.filtration.radicals]
    simple = ids.simple_ideal
    lines = [
        f"dimension: {metric.dim}",
        f"index: {idx}",
        f"canonical isotropic ideal i(g): dim {iso_dim}",
        f"coisotropic ideal j(g) = i(g)^perp: dim {coiso_dim}",
        f"socle chain dims: {socle_dims}",
        f"radical chain dims: {radical_dims}",
        f"simple ideal: {'dim %d' % simple.dim if simple else 'none'}",
    ]
    machine = {
        "dimension": metric.dim, "index": idx,
        "isotropic_ideal_dim": iso_dim, "coisotropic_ideal_dim": coiso_dim,
        "socle_dims": socle_dims, "radical_dims": radical_dims,
        "simple_ideal_dim": simple.dim if simple else None,
    }
    if simple is None:
        ext = canonical_extension(metric)
        lines.append(f"canonical quadratic extension (balanced): base dim "
                     f"{ext.base.dim}, module dim {ext.module.module_dim}")
        machine["balanced_canonical_extension"] = True
        machine["base_dim"] = ext.base.dim
        machine["module_dim"] = ext.module.module_dim
    _emit(args, lines, machine)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    rep = _load_kind(args.file, "representation")
    cx = CochainComplex(rep.algebra, rep)
    degrees = range(0, args.max_degree + 1) if args.degree is None \
        else [args.degree]
    lines = []
    machine = {"dims": {}}
    for p in degrees:
        space = cx.cohomology(p)
        lines.append(f"dim H^{p} = {space.dim}")
        machine["dims"][str(p)] = space.dim
    _emit(args, lines, machine)
    return EXIT_OK


def cmd_build(args) -> int:
    z = _load_kind(args.file, "cocycle")
    model = build_model(z)
    _write_output(doc.dump_metric(model.metric), args.output)
    return EXIT_OK


def cmd_extract(args) -> int:
    metric = _load_kind(args.file, "metric")
    data = canonical_extension(metric)
    _write_output(doc.serialize("extension", doc.extension_payload(data)),
                  args.output)
    return EXIT_OK


def cmd_check_balanced(args) -> int:
    z = _load_kind(args.file, "cocycle")
    model = build_model(z)
    flag = is_balanced(model)
    _emit(args, [f"balanced: {flag}"], {"balanced": flag})
    return EXIT_OK if flag else EXIT_FALSE


def cmd_check_admissible(args) -> int:
    z = _load_kind(args.file, "cocycle")
    report = admissibility(z)
    lines = [f"rho semisimple: {report.rho_semisimple}"]
    failing = []
    for lv in report.per_k:
        lines.append(f"level k={lv.k}: (a_k) {'holds' if lv.a_holds else 'FAILS'},"
                     f" (b_k) {'holds' if lv.b_holds else 'FAILS'}")
        if not (lv.a_holds and lv.b_holds):
            failing.append(lv.k)
    lines.append(f"(b_0') regular condition: {report.b0_prime}")
    lines.append(f"admissible: {report.admissible}")
    lines.append(f"regularly admissible: {report.regularly_admissible}")
    machine = {
        "rho_semisimple": report.rho_semisimple,
        "levels": [{"k": lv.k, "a": lv.a_holds, "b": lv.b_holds}
                   for lv in report.per_k],
        "b0_prime": report.b0_prime,
        "admissible": report.admissible,
        "regularly_admissible": report.regularly_admissible,
        "failing_levels": failing,
    }
    _emit(args, lines, machine)
    return EXIT_OK if report.admissible else EXIT_FALSE


def cmd_equivalent(args) -> int:
    z1 = _load_kind(args.first, "cocycle")
    z2 = _load_kind(args.second, "cocycle")
    if z1.complex.pair_key() != z2.complex.pair_key():
        raise doc.DocumentError("cocycles live over different pairs", "$")
    witness = equivalent_cocycles(z1, z2)
    if witness is None:
        _emit(args, ["equivalent: False"], {"equivalent": False})
        return EXIT_FALSE
    tau = doc._cochain_out(witness.tau, scalar=False)
    sigma = [[i, j, str(witness.sigma.value((i, j))[0])]
             for (i, j) in _pairs(witness.sigma.n)
             if witness.sigma.value((i, j))[0] != 0]
    _emit(args, ["equivalent: True", f"witness tau: {tau}",
                 f"witness sigma: {sigma}"],
          {"equivalent": True, "tau": tau, "sigma": sigma})
    return EXIT_OK


def _pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def cmd_catalog(args) -> int:
    params = doc._params_in(json.loads(args.params)) if args.params else {}
    row = catalog_row(args.base, args.variant, params)
    _write_output(doc.dump_catalog_row(row), args.output)
    return EXIT_OK


def _parse_bounds(spec: Optional[str]) -> SweepBounds:
    if not spec:
        return SweepBounds()
    values = {}
    for part in spec.split(","):
        if not part:
            continue
        if "=" not in part:
            raise doc.DocumentError(f"bad bounds fragment {part!r}", "$")
        key, val = part.split("=", 1)
        values[key.strip()] = int(val)
    return SweepBounds(m=values.get("m", 2),
                       weight_num=values.get("num", 2),
                       weight_den=values.get("den", 1))


def cmd_sweep(args) -> int:
    bounds = _parse_bounds(args.bounds)
    report = sweep(bounds)
    lines = [f"rows checked: {len(report.rows)}"]
    for rr in report.rows:
        status = "pass" if rr.passed else "FAIL"
        extra = " (conditional)" if rr.conditional else ""
        lines.append(f"  [{status}] {rr.row.base}/{rr.row.variant} "
                     f"{_short_params(rr.row.params)} index={rr.index} "
                     f"admissible={rr.admissible}{extra}")
    for c in report.controls:
        status = "pass" if c.passed else "FAIL"
        lines.append(f"  [{status}] control {c.name}: admissible={c.admissible}"
                     f" index={c.index} expected {c.expected}")
    for fam, ok in report.family_distinct.items():
        lines.append(f"  certificates pairwise distinct in {fam}: {ok}")
    lines.append(f"all passed: {report.all_passed}")
    machine = {
        "bounds": {"m": bounds.m, "num": bounds.weight_num,
                   "den": bounds.weight_den},
        "rows": [{
            "base": rr.row.base, "variant": rr.row.variant,
            "params": doc._value_out(rr.row.params), "index": rr.index,
            "balanced": rr.balanced, "admissible": rr.admissible,
            "indecomposable": rr.indecomposable,
            "conditional": rr.conditional, "passed": rr.passed,
        } for rr in report.rows],
        "controls": [{"name": c.name, "admissible": c.admissible,
                      "index": c.index, "expected": c.expected,
                      "passed": c.passed} for c in report.controls],
        "family_distinct": report.family_distinct,
        "all_passed": report.all_passed,
    }
    _emit(args, lines, machine)
    return EXIT_OK if report.all_passed else EXIT_FALSE


def _short_params(params: Dict) -> str:
    return json.dumps(doc._value_out(params), sort_keys=True, default=str)


def cmd_certify(args) -> int:
    base1, var1, params1 = doc.catalog_params_from_payload(
        doc.parse(_read(args.first))[1])
    base2, var2, params2 = doc.catalog_params_from_payload(
        doc.parse(_read(args.second))[1])
    row1 = catalog_row(base1, var1, params1)
    row2 = catalog_row(base2, var2, params2)
    verdict = non_isomorphism_certificate(row1, row2)
    _emit(args, [f"verdict: {verdict}",
                 f"certificate 1: {doc._value_out(list(row1.certificate))}",
                 f"certificate 2: {doc._value_out(list(row2.certificate))}"],
          {"verdict": verdict,
           "certificate_1": doc._value_out(list(row1.certificate)),
           "certificate_2": doc._value_out(list(row2.certificate))})
    return EXIT_OK if verdict == "distinct" else EXIT_FALSE


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metlie",
        description="Exact computations with metric Lie algebras as "
                    "quadratic extensions.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a document's object")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="filtrations, i(g)/j(g), index")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cohomology", help="cohomology dimensions of a pair")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=3)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("build", help="standard model from a cocycle document")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("extract", help="canonical extension of a metric "
                                       "Lie algebra")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check-balanced", help="is the model's isotropic "
                                              "ideal canonical?")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_balanced)

    p = sub.add_parser("check-admissible", help="admissibility report of a "
                                                "cocycle")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_admissible)

    p = sub.add_parser("equivalent", help="decide equivalence of two "
                                          "cocycles")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("catalog", help="construct a classification-table row")
    p.add_argument("base")
    p.add_argument("variant")
    p.add_argument("--params", default=None,
                   help="JSON object of row parameters")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("sweep", help="verify all rows within bounds")
    p.add_argument("--bounds", default=None, help="m=..,num=..,den=..")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="non-isomorphism certificate for two "
                                       "catalog rows")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except doc.DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SimpleIdealError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
