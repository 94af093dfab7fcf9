import json
import tracemalloc
from fractions import Fraction as Q

import pytest

from metlie import (Cochain, CochainComplex, Matrix, QuadraticCochain,
                    QuadraticCocycle, SymmetricForm, q_action,
                    trivial_representation)
from metlie import documents as doc
from metlie import polynomials as poly
from metlie.catalog import base_algebra, catalog_row
from metlie.cli import main
from metlie.lie import InternalCheckError

from conftest import rotation_rep


@pytest.fixture
def workspace(tmp_path):
    files = {}

    row = catalog_row("sl2r", "c", {"c": Q(0)})
    files["metric"] = tmp_path / "sl2sd.json"
    files["metric"].write_text(doc.dump_metric(row.model.metric))
    files["row1"] = tmp_path / "row1.json"
    files["row1"].write_text(doc.dump_catalog_row(row))
    row2 = catalog_row("sl2r", "c", {"c": Q(1)})
    files["row2"] = tmp_path / "row2.json"
    files["row2"].write_text(doc.dump_catalog_row(row2))

    h1 = base_algebra("h1")
    reph = trivial_representation(h1, 1, form=SymmetricForm.euclidean(1))
    cxh = CochainComplex(h1, reph)
    gamma = cxh.cochain(3, {(0, 1, 2): [1]}, scalar=True)
    zh = QuadraticCocycle(cxh, cxh.zero_cochain(2), gamma)
    files["h1gamma"] = tmp_path / "h1gamma.json"
    files["h1gamma"].write_text(doc.dump_cocycle(zh))

    n2 = base_algebra("n2")
    cxn = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
    alpha = cxn.cochain(2, {(1, 2): [0, 0, 1]})
    z = QuadraticCocycle(cxn, alpha, cxn.zero_cochain(3, scalar=True))
    files["n2II"] = tmp_path / "n2II.json"
    files["n2II"].write_text(doc.dump_cocycle(z))
    tau = Cochain(3, 1, 3, [1, 0, 0, 0, 2, 0, 0, 0, -1])
    sigma = Cochain(3, 2, 1, [0, 1, 2])
    moved = q_action(z, QuadraticCochain(tau, sigma))
    files["n2IIm"] = tmp_path / "n2IIm.json"
    files["n2IIm"].write_text(doc.dump_cocycle(moved))

    cx0 = CochainComplex(n2, trivial_representation(
        n2, 1, form=SymmetricForm.euclidean(1)))
    z0 = QuadraticCocycle(cx0, cx0.zero_cochain(2),
                          cx0.zero_cochain(3, scalar=True))
    files["n2zero"] = tmp_path / "n2zero.json"
    files["n2zero"].write_text(doc.dump_cocycle(z0))

    files["rep"] = tmp_path / "rep.json"
    files["rep"].write_text(doc.dump_representation(reph))

    files["bad"] = tmp_path / "bad.json"
    files["bad"].write_text('{"nope": 1}')
    files["tmp"] = tmp_path
    return files


class TestExitCodes:
    def test_analyze_semidirect(self, workspace, capsys):
        assert main(["analyze", str(workspace["metric"])]) == 0
        out = capsys.readouterr().out
        assert "index: 3" in out
        assert "i(g): dim 3" in out
        assert "j(g) = i(g)^perp: dim 3" in out
        assert "balanced" in out

    def test_check_admissible_failure_cites_level(self, workspace, capsys):
        code = main(["check-admissible", str(workspace["h1gamma"])])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILS" in out
        assert "k=0" in out or "k=1" in out

    def test_check_admissible_success(self, workspace):
        assert main(["check-admissible", str(workspace["n2II"])]) == 0

    def test_equivalent_with_witness(self, workspace, capsys):
        code = main(["--json", "equivalent", str(workspace["n2II"]),
                     str(workspace["n2IIm"])])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True
        assert payload["tau"]

    def test_not_equivalent(self, workspace, tmp_path):
        # same pair, classes differ: zero class vs type II class
        n2 = base_algebra("n2")
        cxn = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        z0 = QuadraticCocycle(cxn, cxn.zero_cochain(2),
                              cxn.zero_cochain(3, scalar=True))
        other = tmp_path / "zero.json"
        other.write_text(doc.dump_cocycle(z0))
        assert main(["equivalent", str(workspace["n2II"]), str(other)]) == 1

    def test_check_balanced(self, workspace):
        assert main(["check-balanced", str(workspace["n2II"])]) == 0
        assert main(["check-balanced", str(workspace["n2zero"])]) == 1

    def test_malformed_input_exit_two(self, workspace, capsys):
        assert main(["validate", str(workspace["bad"])]) == 2
        err = capsys.readouterr().err
        assert "input error" in err

    def test_missing_file_exit_two(self):
        assert main(["analyze", "/nonexistent/nothing.json"]) == 2

    def test_failed_witness_check_exit_three(self, workspace, monkeypatch,
                                             capsys):
        # a witness that no longer maps the second cocycle onto the first
        import metlie.cohomology
        monkeypatch.setattr(metlie.cohomology, "q_action",
                            lambda z, c, validate=True: z)
        assert main(["equivalent", str(workspace["n2II"]),
                     str(workspace["n2IIm"])]) == 3
        assert "internal cross-check failure" in capsys.readouterr().err

    def test_impossible_sweep_bounds_exit_two(self, capsys):
        assert main(["--json", "sweep", "--bounds", "m=-1"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_validate_good_documents(self, workspace):
        assert main(["validate", str(workspace["metric"])]) == 0
        assert main(["validate", str(workspace["rep"])]) == 0
        assert main(["validate", str(workspace["n2II"])]) == 0


class TestPipelines:
    def test_build_then_analyze_and_extract(self, workspace, capsys):
        built = workspace["tmp"] / "built.json"
        assert main(["build", str(workspace["n2II"]), "-o", str(built)]) == 0
        assert main(["analyze", str(built)]) == 0
        out = capsys.readouterr().out
        assert "index: 3" in out
        ext = workspace["tmp"] / "ext.json"
        assert main(["extract", str(built), "-o", str(ext)]) == 0
        kind, payload = doc.parse(ext.read_text())
        assert kind == "extension"
        inner = doc.cocycle_from_payload(payload["cocycle"])
        original = doc.cocycle_from_payload(
            doc.parse(workspace["n2II"].read_text())[1])
        from metlie import equivalent_cocycles
        rebuilt = QuadraticCocycle(original.complex, inner.alpha, inner.gamma)
        assert equivalent_cocycles(original, rebuilt) is not None

    def test_cohomology_dims(self, workspace, capsys):
        assert main(["--json", "cohomology", str(workspace["rep"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == {"0": 1, "1": 2, "2": 2, "3": 1}

    def test_catalog_and_certify(self, workspace, capsys):
        out = workspace["tmp"] / "row3.json"
        assert main(["catalog", "n2", "III",
                     "--params", '{"lam": ["1"], "r": "2"}',
                     "-o", str(out)]) == 0
        kind, payload = doc.parse(out.read_text())
        assert kind == "catalog_row"
        assert main(["certify", str(workspace["row1"]),
                     str(workspace["row2"])]) == 0
        capsys.readouterr()
        assert main(["certify", str(workspace["row1"]),
                     str(workspace["row1"])]) == 1

    def test_sweep_tiny(self, capsys):
        assert main(["--json", "sweep", "--bounds", "m=0,num=1,den=1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert payload["controls"]
        names = {c["name"] for c in payload["controls"]}
        assert names == {"n2-zero-class", "h1-gamma-class", "r3m2-example"}

    @pytest.mark.parametrize("base, variant, params, path", [
        ("n2", "III", '{"lam": [], "r": "-1"}', "$.params.r"),
        ("n2", "III", '{"lam": ["1"]}', "$.params.r"),
        ("R1", "I", '{"lam": ["1"]}', "$.params.nu"),
        ("R1", "III", '{"lam": ["1"]}', "$.params.mu"),
        ("n2", "III", '{"lam": ["1"], "r": null}', "$.params.r"),
        ("n2", "III", '{"lam": ["1"], "r": [1]}', "$.params.r"),
        ("n2", "III", '{"lam": [["1", "0"]], "r": "1"}', "$.params.lam"),
        ("R1", "III", '{"mu": "12"}', "$.params.mu"),
        ("su2", "ck", '{"m": null}', "$.params.m"),
        ("su2", "ck", '{"m": true}', "$.params.m"),
        ("su2", "ck", '{"m": "1", "k": [[], []]}', "$.params.m"),
        ("su2", "ck", '{"m": 1, "k": [["0"], []]}', "$.params.k"),
        ("su2", "ck", '{"m": 1, "k": [[true], []]}', "$.params.k"),
        ("su2", "ck", '{"m": 1, "k": [[0]]}', "$.params.k"),
        ("n2", "Ia", '{"lam": ["2", "1"]}', "$.params.lam"),
        ("n2", "II", '{"lam": ["0"]}', "$.params.lam"),
        ("R1", "I", '{"lam": [], "nu": "0"}', "$.params.nu"),
        ("R1", "III", '{"mu": ["1", "1/2"]}', "$.params.mu"),
        ("R1", "III", '{"mu": ["1"]}', "$.params.mu"),
        ("R2", "III", '{"lam": [["0", "1"]]}', "$.params.lam"),
        ("R2", "III", '{"lam": [["0", "1"], ["0", "2"]]}', "$.params.lam"),
        ("R3", "open", '{"lam": [["1", "0", "0"]]}', "$.params.lam"),
        ("R3", "gamma", '{"lam": [["1", "0", "0"]]}', "$.params.lam"),
        ("h1", "I", '{"lam": [["0", "0"]]}', "$.params.lam"),
        ("su2", "ck", '{"m": 10, "k": [[3, 1], []]}', "$.params.k"),
        ("su2", "ck", '{"m": 3, "k": [[], [1]]}', "$.params.k"),
        ("R2", "I", '{"lam": [["1", "0", "5"]]}', "$.params.lam"),
        ("R3", "a1", '{"lam": [["1", "0", "0", "1"]]}', "$.params.lam"),
        ("h1", "I", '{"lam": [["1", "0", "1"]]}', "$.params.lam"),
    ], ids=["n2-III-negative-r", "n2-III-missing-r", "R1-I-missing-nu",
            "R1-III-missing-mu", "n2-III-null-r", "n2-III-list-r",
            "n2-III-nested-lam", "R1-III-string-mu", "su2-null-m",
            "su2-bool-m", "su2-string-m", "su2-string-k", "su2-bool-k",
            "su2-one-list-k", "n2-unsorted-lam", "n2-zero-lam",
            "R1-I-zero-nu", "R1-III-small-mu2", "R1-III-short-mu",
            "R2-III-one-weight", "R2-III-two-lines", "R3-open-few-weights",
            "R3-gamma-absent-few-weights", "h1-zero-functional",
            "su2-unsorted-k", "su2-k-not-partition", "R2-I-long-weight",
            "R3-a1-long-weight", "h1-I-weight-off-the-centre"])
    def test_row_constraint_violation_exit_two(self, capsys, base, variant,
                                               params, path):
        assert main(["catalog", base, variant, "--params", params]) == 2
        if path is not None:
            assert path in capsys.readouterr().err

    # parameters for each key of the row table, and for the explicit rows
    ROW_PARAMS = {
        ("n2", "Ia"): {"lam": ["1"]}, ("n2", "Ib"): {"lam": ["1"]},
        ("n2", "II"): {"lam": ["1"]}, ("n2", "III"): {"lam": ["1"], "r": "2"},
        ("n2", "IV"): {"lam": ["1"]}, ("r3m1", "I"): {"lam": ["1"]},
        ("r3m1", "II"): {"lam": ["1"]}, ("h1", "I"): {"lam": [["1", "0"]]},
        ("h1", "II"): {"lam": [["1", "0"]]},
        ("R1", "I"): {"lam": ["1"], "nu": "2"}, ("R1", "II"): {"lam": ["1"]},
        ("R1", "III"): {"mu": ["1", "2"]}, ("R2", "I"): {"lam": [["1", "0"]]},
        ("R2", "II"): {"lam": [["1", "1"]]},
        ("R2", "III"): {"lam": [["0", "1"], ["1", "1"]]},
        ("R3", "gamma"): {"gamma": "1"}, ("R3", "a1"): {},
        ("R3", "a2"): {}, ("R3", "a3"): {},
        ("R3", "open"): {"lam": [["1", "0", "0"], ["0", "1", "0"],
                                 ["0", "0", "1"], ["1", "1", "0"]]},
        ("sl2r", "c"): {"c": "1"}, ("su2", "ck"): {"m": 3, "k": [[1], []]},
        ("r3m2", "control"): {},
    }

    def test_row_params_cover_the_table(self):
        import metlie.catalog
        assert set(metlie.catalog._ROWS) | set(metlie.catalog._EXPLICIT_ROWS) \
            == set(self.ROW_PARAMS)

    @pytest.mark.parametrize("key", sorted(ROW_PARAMS), ids="/".join)
    def test_catalog_output_certifies(self, tmp_path, capsys, key):
        # a row document that catalog writes is one that certify reads
        out = tmp_path / "row.json"
        assert main(["catalog", *key, "--params",
                     json.dumps(self.ROW_PARAMS[key]), "-o", str(out)]) == 0
        assert main(["certify", str(out), str(out)]) in (0, 1)
        assert "input error" not in capsys.readouterr().err

    def test_open_row_written_by_the_gamma_key_certifies(self, tmp_path):
        out = tmp_path / "row.json"
        params = {"lam": self.ROW_PARAMS["R3", "open"]["lam"]}
        assert main(["catalog", "R3", "gamma", "--params", json.dumps(params),
                     "-o", str(out)]) == 0
        assert doc.parse(out.read_text())[1]["variant"] == "open"
        assert main(["certify", str(out), str(out)]) == 1


class TestSweepBounds:
    @pytest.mark.parametrize("bounds, path", [
        ("num=60,den=60", "$.bounds.num"),
        ("den=1000000000", "$.bounds.den"),
        ("m=1000000000", "$.bounds.m"),
        ("m=0,num=1000000000", "$.bounds.num"),
    ])
    def test_over_the_cap_exit_two_before_listing(self, monkeypatch, capsys,
                                                  bounds, path):
        import metlie.catalog

        def refuse(bounds):
            pytest.fail("rows were listed for bounds over the cap")

        monkeypatch.setattr(metlie.catalog, "enumerate_rows", refuse)
        assert main(["--json", "sweep", "--bounds", bounds]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("bounds, path", [
        ("mm=0", "$.bounds.mm"), ("m=x", "$.bounds.m"),
        ("num=1.5", "$.bounds.num"), ("den=", "$.bounds.den"),
        ("m=0,step=1", "$.bounds.step"), ("m", "$.bounds"),
    ])
    def test_bad_fragment_exit_two(self, monkeypatch, capsys, bounds, path):
        import metlie.cli

        def refuse(bounds):
            pytest.fail("a sweep ran on bad bounds")

        monkeypatch.setattr(metlie.cli, "sweep", refuse)
        assert main(["--json", "sweep", "--bounds", bounds]) == 2
        assert path in capsys.readouterr().err


def _h1_pair(dim=3, module_dim=1, i=0, j=1):
    return {"algebra": {"dim": dim, "brackets": [[i, j, 2, "1"]]},
            "module_dim": module_dim, "action": [[["0"]]] * 3,
            "gram": [["1"]]}


class TestUnexpectedErrors:
    """Any exception the CLI does not map to an input error is a bug: exit
    3, never the false-verdict status 1, and nothing on standard output."""

    @pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"),
                                     KeyError("missing"), MemoryError()],
                             ids=lambda e: type(e).__name__)
    def test_exit_three(self, monkeypatch, capsys, exc):
        import metlie.cli

        def fail(bounds):
            raise exc

        monkeypatch.setattr(metlie.cli, "sweep", fail)
        assert main(["sweep", "--bounds", "m=1,num=1,den=1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"internal error: {type(exc).__name__}" in err

    @pytest.mark.parametrize("name, misuse, message", [
        ("minimal_polynomial", lambda real: lambda M: real(M.hstack(M)),
         "polynomial of a non-square matrix"),
        ("squarefree_part", lambda real: lambda p: poly.divmod_poly(p, ()),
         "polynomial division by zero")], ids=["non-square", "zero-divisor"])
    def test_polynomial_misuse_exit_three(self, monkeypatch, capsys, name,
                                          misuse, message):
        # the radical operators of the R1 rows take both functions
        monkeypatch.setattr(poly, name, misuse(getattr(poly, name)))
        assert main(["--json", "sweep", "--bounds", "m=0,num=1,den=1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"internal cross-check failure: {message}" in err

    def test_polynomial_misuse_raises(self):
        with pytest.raises(InternalCheckError, match="non-square matrix"):
            poly.minimal_polynomial(Matrix([[1, 2]]))
        with pytest.raises(InternalCheckError, match="division by zero"):
            poly.divmod_poly((Q(1), Q(1)), (Q(0),))


class TestBooleansAreNotIntegers:
    """JSON true reads as the integer 1 in Python; no index or size field
    of a document may take it."""

    @pytest.mark.parametrize("kind, payload, path", [
        ("metric", {"algebra": {"dim": True, "brackets": []},
                    "gram": [["1"]]}, "$.payload.algebra.dim"),
        ("lie", _h1_pair(j=True)["algebra"], "$.payload.brackets[0]"),
        ("representation", _h1_pair(module_dim=True), "$.payload.module_dim"),
        ("cocycle", {"pair": _h1_pair(), "alpha": [[[0, True], ["1"]]],
                     "gamma": []}, "$.payload.alpha[0]"),
        ("cocycle", {"pair": _h1_pair(), "alpha": [],
                     "gamma": [[0, True, 2, "1"]]}, "$.payload.gamma[0]"),
    ], ids=["dim", "bracket-index", "module-dim", "alpha-index",
            "gamma-index"])
    def test_boolean_field_exit_two(self, tmp_path, capsys, kind, payload,
                                    path):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps({"format_version": "1", "kind": kind,
                                 "payload": payload}))
        assert main(["validate", str(f)]) == 2
        assert path in capsys.readouterr().err


class TestBooleansAreNotRationals:
    """JSON true reads as the integer 1 in Python; no rational field of a
    document may take it either."""

    @pytest.mark.parametrize("kind, payload, path", [
        ("metric", {"algebra": {"dim": 1, "brackets": []},
                    "gram": [[True]]}, "$.payload.gram[0][0]"),
        ("representation", dict(_h1_pair(), gram=[[True]]),
         "$.payload.gram[0][0]"),
        ("representation", dict(_h1_pair(), action=[[[True]]] * 3),
         "$.payload.action[0][0][0]"),
        ("lie", {"dim": 3, "brackets": [[0, 1, 2, True]]},
         "$.payload.brackets[0]"),
        ("cocycle", {"pair": _h1_pair(), "alpha": [[[0, 1], [True]]],
                     "gamma": []}, "$.payload.alpha[0]"),
        ("cocycle", {"pair": _h1_pair(), "alpha": [],
                     "gamma": [[0, 1, 2, True]]}, "$.payload.gamma[0]"),
    ], ids=["metric-gram", "representation-gram", "action", "bracket-value",
            "alpha-value", "gamma-value"])
    def test_boolean_rational_exit_two(self, tmp_path, capsys, kind, payload,
                                       path):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps({"format_version": "1", "kind": kind,
                                 "payload": payload}))
        assert main(["validate", str(f)]) == 2
        assert path in capsys.readouterr().err


class TestMatrixShape:
    def test_non_square_representation_gram_exit_two(self, tmp_path, capsys):
        payload = dict(_h1_pair(module_dim=2),
                       action=[[["0", "0"], ["0", "0"]]] * 3,
                       gram=[["1", "0", "0"], ["0", "1", "0"]])
        f = tmp_path / "doc.json"
        f.write_text(json.dumps({"format_version": "1",
                                 "kind": "representation",
                                 "payload": payload}))
        assert main(["validate", str(f)]) == 2
        assert "$.payload.gram" in capsys.readouterr().err


class TestSizeCap:
    """A declared dimension above documents.MAX_DIM exits 2 at its path
    before anything of that size is allocated.  The constructors are
    replaced by ones that fail the test, and the lie document's bracket
    entry, whose coordinate list has the declared length, is read only
    after the check; 10**9 comes with no bracket entry, so that a missing
    check fails the test without allocating."""

    @pytest.mark.parametrize("size", [doc.MAX_DIM + 1, 10 ** 9],
                             ids=["cap+1", "1e9"])
    @pytest.mark.parametrize("kind, path", [
        ("lie", "$.payload.dim"),
        ("representation", "$.payload.module_dim")])
    def test_exit_two_before_allocation(self, monkeypatch, tmp_path, capsys,
                                        size, kind, path):
        def unreachable(*args, **kwargs):
            raise AssertionError("constructed past the size cap")
        monkeypatch.setattr(doc, "LieAlgebra" if kind == "lie"
                            else "Representation", unreachable)
        brackets = [[0, 1, 0, "1"]] if size < 10 ** 9 else []
        if kind == "lie":
            payload = {"dim": size, "brackets": brackets}
        else:
            payload = {"algebra": {"dim": 0, "brackets": []},
                       "module_dim": size, "action": []}
        f = tmp_path / "doc.json"
        f.write_text(json.dumps({"format_version": "1", "kind": kind,
                                 "payload": payload}))
        tracemalloc.start()
        try:
            code = main(["validate", str(f)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert path in capsys.readouterr().err
        assert peak < 1 << 20

    def test_cap_admits_its_own_size(self):
        g = doc.lie_from_payload({"dim": doc.MAX_DIM, "brackets": []},
                                 validate=False)
        rep = doc.representation_from_payload(
            {"algebra": {"dim": 0, "brackets": []},
             "module_dim": doc.MAX_DIM, "action": []})
        assert g.dim == rep.module_dim == doc.MAX_DIM


    def test_abelian_at_the_cap_forms_no_products(self, monkeypatch,
                                                  tmp_path, capsys):
        # every ad(e_i) is zero, so the Jacobi check has no pair to test
        products = []
        matmul = Matrix.__matmul__

        def counted(a, b):
            products.append((a.rows, b.cols))
            return matmul(a, b)
        monkeypatch.setattr(Matrix, "__matmul__", counted)
        f = tmp_path / "abelian.json"
        f.write_text(json.dumps({"format_version": "1", "kind": "lie",
                                 "payload": {"dim": doc.MAX_DIM,
                                             "brackets": []}}))
        assert main(["validate", str(f)]) == 0
        assert products == []
        capsys.readouterr()


class TestValidateVerdicts:
    def test_invalid_lie_exits_one_not_two(self, tmp_path, capsys):
        # structurally fine, semantically not a Lie algebra
        bad = ('{"format_version": "1", "kind": "lie", "payload": {"dim": 3, '
               '"brackets": [[0, 1, 2, "1"], [0, 2, 0, "1"], '
               '[1, 2, 1, "1"]]}}')
        f = tmp_path / "tampered.json"
        f.write_text(bad)
        assert main(["validate", str(f)]) == 1
        out = capsys.readouterr().out
        assert "Jacobi" in out

    def test_invalid_metric_form(self, tmp_path):
        # h(1) with the identity form: invariance fails -> verdict false
        h1 = base_algebra("h1")
        payload = doc.lie_payload(h1)
        text = doc.serialize("metric", {
            "algebra": payload,
            "gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
        f = tmp_path / "badmetric.json"
        f.write_text(text)
        assert main(["validate", str(f)]) == 1

    def test_non_cocycle_document(self, tmp_path, workspace):
        # take the n2 cocycle document and corrupt alpha into a non-cocycle
        kind, payload = doc.parse(workspace["n2II"].read_text())
        # rotation-block value on (Y, Z): rho(X) maps it off itself,
        # so d(alpha)(X,Y,Z) = rho(X) alpha(Y,Z) != 0
        payload["alpha"] = [[[1, 2], ["1", "0", "0"]]]
        f = tmp_path / "noncocycle.json"
        f.write_text(doc.serialize("cocycle", payload))
        assert main(["validate", str(f)]) == 1

    def test_analyze_reports_simple_ideal(self, tmp_path, capsys):
        from metlie import direct_sum, killing_form, MetricLieAlgebra, abelian
        from metlie import Matrix as M, SymmetricForm as SF
        sl2 = base_algebra("sl2r")
        g = direct_sum(sl2, abelian(2))
        kf = killing_form(sl2).gram
        gram = M([[kf[i, j] if i < 3 and j < 3 else
                   (1 if (i == j and i >= 3) else 0)
                   for j in range(5)] for i in range(5)])
        metric = MetricLieAlgebra(g, SF(gram))
        f = tmp_path / "withsimple.json"
        f.write_text(doc.dump_metric(metric))
        assert main(["analyze", str(f)]) == 0
        out = capsys.readouterr().out
        assert "simple ideal: dim 3" in out
        assert "balanced" not in out   # no canonical extension offered
