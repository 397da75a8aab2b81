"""Serialization: point-set documents, run reports, witness files."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereflow.field import F1
from sphereflow.formats import (
    DocumentError,
    PointSetDocument,
    RunReport,
    WitnessDocument,
    document_from_pointset,
    load_document,
    load_witness,
    pointset_from_document,
    save_document,
    save_witness,
)
from sphereflow.geometry import PointSet, SpherePoint
from sphereflow.solver import parse_dimacs


def test_pointset_document_round_trip_exact(icosi, tmp_path):
    doc = document_from_pointset(icosi, "icosi", {"note": "test"})
    assert doc.field_tag == "F1"
    assert doc.radius == Fraction(1)
    path = str(tmp_path / "icosi.json")
    save_document(doc, path)
    loaded = load_document(path)
    assert loaded == doc
    ps = pointset_from_document(loaded)
    assert ps.n_points == 30 and len(ps.triples) == 20
    for a, b in zip(ps.points, icosi.points):
        assert a.exact == b.exact
    assert ps.triples == icosi.triples


def test_pointset_document_round_trip_ce2(ce2, tmp_path):
    doc = document_from_pointset(ce2.final, "ce2", {})
    assert doc.field_tag == "F2"
    path = str(tmp_path / "ce2.json")
    save_document(doc, path)
    ps = pointset_from_document(load_document(path))
    assert ps.n_points == 36 and len(ps.triples) == 13
    for a, b in zip(ps.points, ce2.final.points):
        assert a.exact == b.exact


def test_pointset_document_round_trip_float(icosi):
    floats = PointSet(
        tuple(SpherePoint.from_floats(*p.floats) for p in icosi.points),
        icosi.triples,
    )
    doc = document_from_pointset(floats, "icosi", {})
    assert doc.field_tag == "float"
    assert "exact" not in doc.points[0]
    ps = pointset_from_document(doc)
    assert not ps.all_exact
    for a, b in zip(ps.points, floats.points):
        assert all(abs(x - y) < 1e-15 for x, y in zip(a.floats, b.floats))


def test_radius_two_export_scales_coordinates(icosi):
    doc = document_from_pointset(icosi, "icosi", {}, radius=Fraction(2))
    # exported floats sit on a radius-2 sphere
    for entry in doc.points:
        x, y, z = entry["floats"]
        assert abs(x * x + y * y + z * z - 4.0) < 1e-9
    # loading undoes the scaling
    ps = pointset_from_document(doc)
    for a, b in zip(ps.points, icosi.points):
        assert a.exact == b.exact


def test_rejects_nonpositive_radius(icosi):
    with pytest.raises(DocumentError, match="radius"):
        document_from_pointset(icosi, "icosi", {}, radius=Fraction(0))


def test_shadow_mismatch_detected(icosi):
    doc = document_from_pointset(icosi, "icosi", {})
    tampered_points = list(doc.points)
    entry = dict(tampered_points[0])
    entry["floats"] = [v + 0.001 for v in entry["floats"]]
    tampered_points[0] = entry
    tampered = PointSetDocument(
        field_tag=doc.field_tag,
        radius=doc.radius,
        points=tuple(tampered_points),
        triples=doc.triples,
        provenance=doc.provenance,
    )
    with pytest.raises(DocumentError, match="float shadow"):
        pointset_from_document(tampered)


def test_unknown_field_tag_rejected(icosi):
    doc = document_from_pointset(icosi, "icosi", {})
    bad = PointSetDocument(
        field_tag="F9",
        radius=doc.radius,
        points=doc.points,
        triples=doc.triples,
        provenance=doc.provenance,
    )
    with pytest.raises(DocumentError, match="unknown field tag"):
        pointset_from_document(bad)


def test_document_json_error_paths(icosi):
    with pytest.raises(DocumentError, match="not valid JSON"):
        PointSetDocument.from_json("{nope")
    doc = document_from_pointset(icosi, "icosi", {})
    payload = json.loads(doc.to_json())
    payload["schema_version"] = 99
    with pytest.raises(DocumentError, match="unsupported schema version"):
        PointSetDocument.from_json(json.dumps(payload))
    payload = json.loads(doc.to_json())
    del payload["field_tag"]
    with pytest.raises(DocumentError, match="missing document key"):
        PointSetDocument.from_json(json.dumps(payload))


def test_missing_exact_coordinates_rejected(icosi):
    doc = document_from_pointset(icosi, "icosi", {})
    stripped = list(doc.points)
    entry = dict(stripped[0])
    del entry["exact"]
    stripped[0] = entry
    bad = PointSetDocument(
        field_tag=doc.field_tag,
        radius=doc.radius,
        points=tuple(stripped),
        triples=doc.triples,
        provenance=doc.provenance,
    )
    with pytest.raises(DocumentError, match="lacks exact"):
        pointset_from_document(bad)


def test_provenance_recorded(ce1):
    doc = document_from_pointset(ce1, "ce1", {"alpha": 1})
    assert doc.provenance["construction"] == "ce1"
    assert doc.provenance["parameters"] == {"alpha": 1}


def test_witness_document_round_trip(tmp_path):
    w = WitnessDocument(k=4, values=(1, -2, 3), instance="icosi")
    path = str(tmp_path / "w.json")
    save_witness(w, path)
    loaded = load_witness(path)
    assert loaded.k == 4
    assert loaded.values == (1, -2, 3)
    assert loaded.instance == "icosi"
    # serialized form is stable and sorted
    assert w.to_json() == loaded.to_json()


def test_witness_document_malformed():
    with pytest.raises(DocumentError, match="not valid JSON"):
        WitnessDocument.from_json("][")
    with pytest.raises(DocumentError, match="JSON object"):
        WitnessDocument.from_json("[1, 2]")
    with pytest.raises(DocumentError, match="malformed witness"):
        WitnessDocument.from_json('{"k": 4}')
    with pytest.raises(DocumentError, match="malformed witness"):
        WitnessDocument.from_json('{"k": 4, "values": ["a"]}')


def test_run_report_serialization():
    rep = RunReport(
        instance="icosi",
        n_points=30,
        n_triples=20,
        n_reps=15,
        k=4,
        num_vars=120,
        num_clauses=9955,
        decision="SAT",
        witness=(1, 2, 3),
        engines=("sat", "backtrack"),
        oracle_agrees=True,
        wall_time_s=0.1234,
    )
    assert rep.verified
    payload = json.loads(rep.to_json())
    assert payload["decision"] == "SAT"
    assert payload["verified"] is True
    assert payload["counts"]["clauses"] == 9955
    assert payload["wall_time_s"] == 0.123
    lines = rep.summary_lines()
    assert any("decision:  SAT [sat, backtrack]" in line for line in lines)
    assert any("engines agree" in line for line in lines)


def test_run_report_disagreement_flagged():
    rep = RunReport(
        instance="x",
        n_points=1,
        n_triples=0,
        n_reps=1,
        k=1,
        num_vars=2,
        num_clauses=2,
        decision="UNSAT",
        witness=None,
        engines=("sat", "backtrack"),
        oracle_agrees=False,
        wall_time_s=0.0,
    )
    assert not rep.verified
    assert any("ENGINE DISAGREEMENT" in line for line in rep.summary_lines())


def test_mixed_field_export_rejected(icosi, ce2):
    mixed = PointSet((icosi.points[0], ce2.final.points[0]))
    with pytest.raises(DocumentError, match="mixed coordinate fields"):
        document_from_pointset(mixed, "bad", {})


# ---------------------------------------------------------------------------
# fuzzing: a malformed input may only raise DocumentError or ValueError
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(alphabet="0123456789/,-+ .eFx", max_size=24),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

def _small_document() -> dict:
    one, zero = F1.one, F1.zero
    pts = tuple(
        SpherePoint.from_exact(c)
        for c in ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    )
    doc = document_from_pointset(PointSet(pts, ((0, 1, 2),)), "fuzz", {})
    return json.loads(doc.to_json())


@st.composite
def point_set_texts(draw) -> str:
    payload = _small_document()
    value = draw(JSON_VALUES)
    where = draw(st.sampled_from(["top", "point", "coordinate"]))
    if where == "top":
        payload[draw(st.sampled_from(sorted(payload)))] = value
    else:
        entry = payload["points"][draw(st.integers(0, 2))]
        key = draw(st.sampled_from(["exact", "floats"]))
        if where == "point":
            entry[key] = value
        else:
            entry[key][draw(st.integers(0, 2))] = value
    if draw(st.booleans()):
        payload["field_tag"] = "float"
    return json.dumps(payload)


def _load_point_set(text: str) -> None:
    pointset_from_document(PointSetDocument.from_json(text))


@settings(max_examples=150, deadline=None)
@given(st.one_of(point_set_texts(), st.text(max_size=40)))
def test_point_set_loader_fuzz(text):
    try:
        _load_point_set(text)
    except ValueError:  # DocumentError is a ValueError
        pass


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.dictionaries(
            st.sampled_from(["k", "values", "instance", "schema_version"]),
            JSON_VALUES,
        ).map(json.dumps),
        st.text(max_size=40),
    )
)
def test_witness_loader_fuzz(text):
    try:
        doc = WitnessDocument.from_json(text)
    except ValueError:
        return
    assert all(type(v) is int for v in (doc.k, *doc.values))


DIMACS_TOKENS = st.sampled_from(["p", "cnf", "c", "0", "1", "-1", "2", "-3", "x", "1.5", "-0"])


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.lists(DIMACS_TOKENS | st.integers(-5, 5).map(str), max_size=5).map(" ".join),
            max_size=6,
        ).map("\n".join),
        st.text(max_size=40),
    )
)
def test_dimacs_parser_fuzz(text):
    try:
        parse_dimacs(text)
    except ValueError:
        pass
