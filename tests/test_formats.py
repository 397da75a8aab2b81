"""Serialization: point-set documents, run reports, witness files."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereflow.constructions import SURVEY_PARAMETERS
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


@pytest.mark.parametrize("floats", [False, True])
def test_triple_off_zero_sum_rejected(icosi, floats):
    # icosi's points 0, 1 and 2 are in no triple of the configuration
    if floats:
        icosi = PointSet(
            tuple(SpherePoint.from_floats(*p.floats) for p in icosi.points),
            icosi.triples,
        )
    doc = document_from_pointset(icosi, "icosi", {})
    bad = PointSetDocument(
        field_tag=doc.field_tag,
        radius=doc.radius,
        points=doc.points,
        triples=((0, 1, 2),) + doc.triples[1:],
        provenance=doc.provenance,
    )
    with pytest.raises(DocumentError, match=r"triple \[0, 1, 2\] does not sum"):
        pointset_from_document(bad)


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


BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


@pytest.mark.parametrize("name", ["icosi", "ce1", "ce2"])
def test_constructed_documents_match_bundled_bytes(name, request):
    # the arguments `sphereflow construct NAME` passes at the default radius
    if name == "ce2":
        ps, parameters = request.getfixturevalue("ce2").final, SURVEY_PARAMETERS
    else:
        ps, parameters = request.getfixturevalue(name), {}
    doc = document_from_pointset(
        ps, construction=name, parameters=parameters, radius=Fraction(1)
    )
    assert doc.to_json() == (BENCH_DATA / f"{name}.json").read_text(encoding="ascii")


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
    payload = json.loads(doc.to_json())
    payload["radius"] = True  # Fraction(True) would be 1
    with pytest.raises(DocumentError, match="malformed radius"):
        PointSetDocument.from_json(json.dumps(payload))
    payload = json.loads(doc.to_json())
    payload["provenance"]["construction"] = [1, 2]
    with pytest.raises(DocumentError, match="construction must be a string"):
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


def _float_document(coordinate: float) -> str:
    payload = _small_document()
    payload["field_tag"] = "float"
    payload["points"][0]["floats"][0] = coordinate
    return json.dumps(payload)


@settings(max_examples=150, deadline=None)
@given(st.one_of(point_set_texts(), st.text(max_size=40)))
# its square overflows
@example(_float_document(1.3407807929942597e154))
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
    assert doc.schema_version == 1 and isinstance(doc.instance, str)


DIMACS_TOKENS = st.sampled_from(["p", "cnf", "c", "0", "1", "-1", "2", "-3", "x", "1.5", "-0"])


DIMACS_LINES = st.lists(DIMACS_TOKENS | st.integers(-5, 5).map(str), max_size=5).map(" ".join)


@st.composite
def headed_dimacs_texts(draw) -> str:
    """Clause lines under a header whose counts are often right, with an
    odd line now and then."""
    literal = st.integers(-3, 3).filter(bool)
    clauses = draw(st.lists(st.lists(literal, max_size=3), max_size=4))
    n = max((abs(lit) for c in clauses for lit in c), default=0) + draw(st.integers(-1, 1))
    m = len(clauses) + draw(st.sampled_from((0, 0, 0, 1, -1)))
    lines = [f"p cnf {n} {m}"] + [" ".join(map(str, c + [0])) for c in clauses]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(DIMACS_LINES))
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(DIMACS_LINES, max_size=6).map("\n".join),
        headed_dimacs_texts(),
        st.text(max_size=40),
    )
)
def test_dimacs_parser_fuzz(text):
    try:
        formula = parse_dimacs(text)
    except ValueError:
        return
    # whatever the parser accepts, it reads back from its own output
    assert parse_dimacs(formula.to_dimacs()) == formula
