"""Tests of the benchmark itself: small workloads, checkers that reject
corrupted outputs, seeded inputs, the tracer and the exit statuses.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import catalog_sweep
import equivalence_orbits
import exact
import extract_roundtrip
import harness
import tracing
from metlie import cohomology, linalg

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(ops):
    rounds = harness.run_rounds(ops, 0.0, lambda out: None)
    assert rounds.failed == 0
    return rounds.first_outputs


def _digest(module, seed):
    material = module.digest_material(module.setup(seed))
    return hashlib.sha256(repr(material).encode()).hexdigest()


# --- small workloads ----------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_small():
    inputs = catalog_sweep.setup(3)
    inputs.rows = [r for r in inputs.rows if r[1] in ("n2", "R1", "sl2r")][:6]
    return inputs, _run(catalog_sweep.operations(inputs))


@pytest.fixture(scope="module")
def orbits_small():
    inputs = equivalence_orbits.setup(3)
    small = [c for c in inputs.cases if c.cx.n == 3]
    inputs.cases = [c for c in small if c.equivalent][:4] + \
        [c for c in small if not c.equivalent][:4]
    return inputs, _run(equivalence_orbits.operations(inputs))


@pytest.fixture(scope="module")
def extract_small():
    inputs = extract_roundtrip.setup(3)
    smallest = {}
    for doc in sorted(inputs.docs, key=lambda d: len(d.text)):
        smallest.setdefault(doc.base_dim, doc)
    inputs.docs = [smallest[n] for n in sorted(smallest)]
    return inputs, _run(extract_roundtrip.operations(inputs))


def test_catalog_sweep_small_round_passes(sweep_small):
    inputs, outputs = sweep_small
    assert len(outputs) == len(inputs.rows) + 2
    assert catalog_sweep.check(inputs, outputs) == []


def test_equivalence_orbits_small_round_passes(orbits_small):
    inputs, outputs = orbits_small
    assert [out is not None for out in outputs] == \
        [c.equivalent for c in inputs.cases]
    assert equivalence_orbits.check(inputs, outputs) == []


def test_extract_roundtrip_small_round_passes(extract_small):
    inputs, outputs = extract_small
    assert extract_roundtrip.check(inputs, outputs) == []


def test_workload_sizes():
    sweep = catalog_sweep.setup(1)
    assert len(catalog_sweep.operations(sweep)) == 54
    assert len(extract_roundtrip.setup(1).docs) == 72
    orbits = equivalence_orbits.setup(1)
    assert len(orbits.cases) >= 100
    assert {c.cx.n for c in orbits.cases} == {3, 4, 5, 6}
    assert min(c.cx.module_dim for c in orbits.cases) == 1
    assert max(c.cx.module_dim for c in orbits.cases) == 6
    share = sum(c.equivalent for c in orbits.cases) / len(orbits.cases)
    assert 0.7 <= share <= 0.8


# --- checkers reject corrupted outputs ------------------------------------------

def test_sweep_checker_rejects_a_wrong_index(sweep_small):
    _, outputs = sweep_small
    rr = outputs[0][1]
    assert catalog_sweep.check_row(rr) == []
    assert catalog_sweep.check_row(dataclasses.replace(rr, index=2))


def test_sweep_checker_rejects_a_wrong_form(sweep_small):
    _, outputs = sweep_small
    rr = outputs[0][1]
    metric = rr.row.model.metric
    definite = type(metric)(
        metric.algebra, linalg.SymmetricForm(linalg.Matrix.identity(metric.dim)),
        validate=False)
    model = dataclasses.replace(rr.row.model, metric=definite)
    row = dataclasses.replace(rr.row, model=model)
    assert any("index" in p for p in
               catalog_sweep.check_row(dataclasses.replace(rr, row=row)))


def test_sweep_checker_rejects_verdicts(sweep_small):
    inputs, outputs = sweep_small
    rr = outputs[0][1]
    assert catalog_sweep.check_row(dataclasses.replace(rr, admissible=False))
    assert catalog_sweep.check_row(dataclasses.replace(rr, indecomposable=None))
    controls = outputs[len(inputs.rows)]
    flipped = [dataclasses.replace(c, admissible=not c.admissible)
               for c in controls]
    assert catalog_sweep.check_controls(controls) == []
    assert len(catalog_sweep.check_controls(flipped)) == 3
    verdicts = dict(outputs[len(inputs.rows) + 1], n2=["distinct", "equal"])
    assert catalog_sweep.check_certificates(verdicts)


def test_orbits_checker_rejects_a_none_verdict(orbits_small):
    inputs, outputs = orbits_small
    case = next(c for c in inputs.cases if c.equivalent)
    assert equivalence_orbits.check_case(case, None)


def test_orbits_checker_rejects_a_witness_for_a_distinct_pair(orbits_small):
    inputs, outputs = orbits_small
    witness = next(out for out in outputs if out is not None)
    case = next(c for c in inputs.cases if not c.equivalent)
    assert equivalence_orbits.check_case(case, witness)


def test_orbits_checker_rejects_a_perturbed_witness(orbits_small):
    """A bump of tau whose differential is nonzero moves alpha, so Psi of
    the bumped witness cannot carry model(z1) onto model(z2)."""
    inputs, outputs = orbits_small
    tested = 0
    for case, witness in zip(inputs.cases, outputs):
        if not case.equivalent:
            continue
        assert equivalence_orbits.check_case(case, witness) == []
        tau = witness.tau
        for i in range(len(tau.coords)):
            bump = cohomology.Cochain(tau.n, 1, tau.module_dim,
                                      [int(i == j) for j in range(len(tau.coords))])
            if not case.cx.differential(bump).is_zero():
                bad = cohomology.QuadraticCochain(tau + bump, witness.sigma)
                assert any("witness Psi" in p
                           for p in equivalence_orbits.check_case(case, bad))
                tested += 1
                break
    assert tested


def test_extract_checker_rejects_a_perturbed_section(extract_small):
    inputs, outputs = extract_small
    doc, (kind, data, text) = inputs.docs[-1], outputs[-1]
    assert extract_roundtrip.check_document(doc, kind, data, text) == []
    rows = [list(r) for r in data.section.data]
    rows[0][0] += 1
    moved = dataclasses.replace(data, section=linalg.Matrix(rows))
    assert extract_roundtrip.check_document(doc, kind, moved, text)


def test_extract_checker_rejects_a_wrong_document(extract_small):
    inputs, outputs = extract_small
    doc, (kind, data, text) = inputs.docs[-1], outputs[-1]
    assert data.base.dim == 3
    assert extract_roundtrip.check_document(inputs.docs[0], kind, data, text)
    assert extract_roundtrip.check_document(doc, "lie", data, text)
    envelope = json.loads(text)
    gamma = envelope["payload"]["cocycle"]["gamma"]
    old = Fraction(gamma[0][3]) if gamma else Fraction(0)
    envelope["payload"]["cocycle"]["gamma"] = [[0, 1, 2, str(old + 1)]]
    assert extract_roundtrip.check_document(doc, kind, data,
                                            json.dumps(envelope))


# --- seeded inputs -------------------------------------------------------------

def test_same_seed_same_inputs():
    for module in (equivalence_orbits, extract_roundtrip, catalog_sweep):
        assert _digest(module, 5) == _digest(module, 5)
    assert _digest(equivalence_orbits, 5) != _digest(equivalence_orbits, 6)
    assert _digest(extract_roundtrip, 5) != _digest(extract_roundtrip, 6)


# --- harness and tracer ---------------------------------------------------------

def test_failed_operations_are_counted():
    def boom(done):
        raise ValueError("boom")
    rounds = harness.run_rounds([("ok", lambda done: 1), ("bad", boom)], 0.0,
                                lambda out: out)
    assert len(rounds.walls) == harness.MIN_ROUNDS
    assert (rounds.attempted, rounds.failed) == (2 * harness.MIN_ROUNDS,
                                                 harness.MIN_ROUNDS)
    assert rounds.first_outputs == [1, harness.FAILED]
    assert rounds.mismatches == []


def test_untraced_rounds_wrap_nothing(orbits_small):
    originals = (linalg.Matrix.__init__, linalg.Matrix.rref,
                 cohomology.equivalent_cocycles)
    inputs, _ = orbits_small
    harness.run_rounds(equivalence_orbits.operations(inputs), 0.0,
                       equivalence_orbits.fingerprint)
    assert (linalg.Matrix.__init__, linalg.Matrix.rref,
            cohomology.equivalent_cocycles) == originals
    assert not hasattr(linalg.Matrix.rref, "__wrapped__")


def test_tracer_counts_and_restores(orbits_small, tmp_path):
    inputs, _ = orbits_small
    ops = equivalence_orbits.operations(inputs)
    original = cohomology.equivalent_cocycles
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cohomology.equivalent_cocycles is not original
        harness.run_rounds(ops, 0.0, equivalence_orbits.fingerprint,
                           call=tracer.call)
    finally:
        tracer.uninstall()
    assert cohomology.equivalent_cocycles is original
    assert tracer.absent == []
    metrics = tracer.metrics(harness.MIN_ROUNDS)
    assert set(metrics) == {name for name, _ in tracing.metric_names()}
    assert metrics["cohomology.equivalent_cocycles.calls"]["value"] == len(ops)
    assert metrics["cohomology.Cochain.value.calls"]["value"] > 0
    stage = metrics["cohomology.equivalent_cocycles.total_s"]["value"]
    assert 0 < metrics["cohomology.CochainComplex.wedge.self_s"]["value"] < stage
    stem = str(tmp_path / "trace")
    tracer.write(stem, {})
    names, spans = tracing.read_spans(stem)
    assert len(spans) == len(tracer.span_start)
    for name, parent, start, end in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]
    roots = [names[s[0]] for s in spans if s[1] < 0]
    assert len(roots) == harness.MIN_ROUNDS * len(ops)


def test_missing_boundary_is_absent_not_an_error(monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (
        ("linalg", "no_such_kernel", "span"),
        ("linalg", "Matrix.no_such_method", "span"),
        ("no_such_module", "anything", "stage")))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["linalg.no_such_kernel",
                             "linalg.Matrix.no_such_method",
                             "no_such_module.anything"]
    assert tracer.metrics(1)["no_such_module.anything.total_s"]["value"] == 0


# --- exact helpers --------------------------------------------------------------

def test_inertia_by_descartes():
    q = [[Fraction(x) for x in row] for row in
         ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 1), (0, 0, 1, 3))]
    assert exact.inertia(q) == (2, 0, 2)
    assert exact.inertia([[Fraction(-1), Fraction(0)],
                          [Fraction(0), Fraction(0)]]) == (1, 1, 0)


def test_change_of_basis_keeps_an_isometric_isomorphism():
    import random
    table = exact.table_from_entries(3, [(0, 1, 2, 1), (1, 2, 0, 1),
                                         (0, 2, 1, -1)])
    gram = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    p, p_inv = exact.random_unimodular(random.Random(1), 3)
    assert exact.mat_mul(p, p_inv) == exact.identity(3)
    new_table, new_gram = exact.change_basis(table, gram, p, p_inv)
    assert exact.isometric_isomorphism_failure(p, new_table, new_gram,
                                               table, gram) is None
    assert exact.isometric_isomorphism_failure(
        exact.identity(3), new_table, new_gram, table, gram) is not None


# --- the command ----------------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
