import random
from fractions import Fraction as Q

import pytest

from metlie import (CochainComplex, LieAlgebra, QuadraticCocycle,
                    SymmetricForm, abelian, adjoint_representation,
                    MetricLieAlgebra, canonical_extension, killing_form,
                    trivial_representation)
from metlie import documents as doc
from metlie.catalog import base_algebra, catalog_row

from conftest import rotation_rep


def random_algebra(rng):
    """Random small nilpotent-flavoured algebra that satisfies Jacobi."""
    choices = [base_algebra("n2"), base_algebra("h1"), base_algebra("sl2r"),
               abelian(rng.randint(0, 3))]
    return rng.choice(choices)


class TestRationalStrings:
    def test_integer_omits_denominator(self):
        g = LieAlgebra(2, {(0, 1): [Q(2), Q(0)]}, validate=False)
        payload = doc.lie_payload(g)
        assert payload["brackets"] == [[0, 1, 0, "2"]]

    def test_fraction_form(self):
        g = LieAlgebra(2, {(0, 1): [Q(-3, 4), Q(0)]}, validate=False)
        payload = doc.lie_payload(g)
        assert payload["brackets"] == [[0, 1, 0, "-3/4"]]


class TestRoundTrips:
    def test_lie_fuzz(self, rng):
        for _ in range(20):
            g = random_algebra(rng)
            kind, back = doc.load(doc.dump_lie(g))
            assert kind == "lie"
            assert back == g
            assert (back.labels or None) == (g.labels or None)
            assert doc.dump_lie(back) == doc.dump_lie(g)

    def test_metric_fuzz(self, rng, sl2):
        metrics = [MetricLieAlgebra(sl2, killing_form(sl2)),
                   MetricLieAlgebra(abelian(3), SymmetricForm.euclidean(3))]
        for m in metrics:
            kind, back = doc.load(doc.dump_metric(m))
            assert kind == "metric"
            assert back.algebra == m.algebra
            assert back.form == m.form
            assert doc.dump_metric(back) == doc.dump_metric(m)

    def test_representation_fuzz(self, rng, n2, h1):
        reps = [rotation_rep(n2, [1, Q(1, 2)], extra_trivial=1),
                adjoint_representation(h1),
                trivial_representation(abelian(2), 2,
                                       form=SymmetricForm.euclidean(2))]
        for rep in reps:
            kind, back = doc.load(doc.dump_representation(rep))
            assert kind == "representation"
            assert back.algebra == rep.algebra
            assert back.action == rep.action
            assert back.form == rep.form
            assert doc.dump_representation(back) == doc.dump_representation(rep)

    def test_cocycle_fuzz(self, rng, n2, r3m1):
        for l in (n2, r3m1):
            cx = CochainComplex(l, rotation_rep(l, [1], extra_trivial=1))
            alpha = cx.cochain(2, {(1, 2): [0, 0, Q(5, 3)]})
            gamma = cx.cochain(3, {(0, 1, 2): [Q(-7, 2)]}, scalar=True)
            z = QuadraticCocycle(cx, alpha, gamma)
            kind, back = doc.load(doc.dump_cocycle(z))
            assert kind == "cocycle"
            assert back.alpha == z.alpha
            assert back.gamma == z.gamma
            assert doc.dump_cocycle(back) == doc.dump_cocycle(z)

    def test_extension_document(self, n2):
        from metlie.quadext import build_model
        cx = CochainComplex(n2, rotation_rep(n2, [1], extra_trivial=1))
        alpha = cx.cochain(2, {(1, 2): [0, 0, 1]})
        z = QuadraticCocycle(cx, alpha, cx.zero_cochain(3, scalar=True))
        ext = canonical_extension(build_model(z).metric)
        text = doc.dump_extension(ext)
        kind, payload = doc.parse(text)
        assert kind == "extension"
        base = doc.lie_from_payload(payload["base"], "$.payload.base")
        assert base == ext.base
        inner = doc.cocycle_from_payload(payload["cocycle"],
                                         "$.payload.cocycle")
        assert inner.alpha == ext.cocycle.alpha
        assert inner.gamma == ext.cocycle.gamma

    def test_catalog_row_document(self):
        row = catalog_row("n2", "III", {"lam": (Q(1),), "r": Q(2)})
        text = doc.dump_catalog_row(row)
        kind, payload = doc.parse(text)
        assert kind == "catalog_row"
        base, variant, params = doc.catalog_params_from_payload(payload)
        rebuilt = catalog_row(base, variant, params)
        assert rebuilt.certificate == row.certificate
        assert doc.dump_catalog_row(rebuilt) == text


class TestErrors:
    def test_bad_json(self):
        with pytest.raises(doc.DocumentError):
            doc.parse("{not json")

    def test_unknown_kind(self):
        with pytest.raises(doc.DocumentError) as err:
            doc.parse('{"format_version": "1", "kind": "what", "payload": {}}')
        assert "kind" in str(err.value)

    def test_bad_rational_with_location(self):
        bad = ('{"format_version": "1", "kind": "lie", '
               '"payload": {"dim": 2, "brackets": [[0, 1, 0, "x"]]}}')
        with pytest.raises(doc.DocumentError) as err:
            doc.load(bad)
        assert "brackets[0]" in str(err.value)

    def test_index_order_enforced(self):
        bad = ('{"format_version": "1", "kind": "lie", '
               '"payload": {"dim": 2, "brackets": [[1, 0, 0, "1"]]}}')
        with pytest.raises(doc.DocumentError):
            doc.load(bad)

    def test_jacobi_failure_reported(self):
        bad = ('{"format_version": "1", "kind": "lie", "payload": {"dim": 3, '
               '"brackets": [[0, 1, 2, "1"], [0, 2, 0, "1"], '
               '[1, 2, 1, "1"]]}}')
        with pytest.raises(doc.DocumentError):
            doc.load(bad)
