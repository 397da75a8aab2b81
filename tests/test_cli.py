"""Command-line interface, exercised in process through main(argv)."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from sphereflow.cli import (
    EXIT_ERROR,
    EXIT_EXPECT_MISMATCH,
    EXIT_OK,
    main,
)
from sphereflow.formats import (
    WitnessDocument,
    document_from_pointset,
    load_witness,
    save_document,
    save_witness,
)
from sphereflow.geometry import PointSet, SpherePoint


@pytest.fixture(scope="module")
def icosi_doc(tmp_path_factory, icosi):
    path = tmp_path_factory.mktemp("docs") / "icosi.json"
    save_document(document_from_pointset(icosi, "icosi", {}), str(path))
    return str(path)


@pytest.fixture(scope="module")
def ce1_doc(tmp_path_factory, ce1):
    path = tmp_path_factory.mktemp("docs") / "ce1.json"
    save_document(document_from_pointset(ce1, "ce1", {}), str(path))
    return str(path)


@pytest.fixture(scope="module")
def ce2_doc(tmp_path_factory, ce2):
    # written from the session fixture: the CLI construct route would
    # re-run the whole search and prune
    path = tmp_path_factory.mktemp("docs") / "ce2.json"
    save_document(
        document_from_pointset(
            ce2.final, "ce2", {"v1": 1, "v2": 3, "w": 2}
        ),
        str(path),
    )
    return str(path)


def test_construct_icosi(tmp_path, capsys):
    out = str(tmp_path / "icosi.json")
    assert main(["construct", "icosi", "--out", out]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "30 points" in stdout
    assert os.path.exists(out)
    payload = json.loads(open(out).read())
    assert payload["field_tag"] == "F1"
    assert len(payload["points"]) == 30
    assert len(payload["triples"]) == 20


def test_construct_ce1_radius_two(tmp_path, capsys):
    out = str(tmp_path / "ce1r2.json")
    assert main(["construct", "ce1", "--out", out, "--radius", "2"]) == EXIT_OK
    payload = json.loads(open(out).read())
    assert payload["radius"] == "2/1"
    assert len(payload["points"]) == 50
    x, y, z = payload["points"][0]["floats"]
    assert abs(x * x + y * y + z * z - 4.0) < 1e-9


def test_verify_icosi_k3_unsat(icosi_doc, capsys):
    code = main(
        ["verify", icosi_doc, "-k", "3", "--expect", "unsat"]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "decision:  UNSAT [sat, backtrack]" in stdout
    assert "engines agree" in stdout
    assert "90 variables, 4200 clauses" in stdout


def test_verify_icosi_k4_sat_with_witness(icosi_doc, tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    rpath = str(tmp_path / "r.json")
    code = main(
        [
            "verify", icosi_doc, "-k", "4",
            "--expect", "sat",
            "--witness-out", wpath,
            "--report-out", rpath,
        ]
    )
    assert code == EXIT_OK
    w = load_witness(wpath)
    assert w.k == 4 and len(w.values) == 15
    assert all(v != 0 and abs(v) <= 4 for v in w.values)
    report = json.loads(open(rpath).read())
    assert report["decision"] == "SAT"
    assert report["verified"] is True
    assert report["counts"]["reps"] == 15


# The published documents the benchmark also reads.
PUBLISHED = Path(__file__).resolve().parents[1] / "bench" / "data"


@pytest.mark.parametrize(
    "name, decision, counts",
    [
        ("icosi", "SAT", (30, 20, 15, 120, 9955)),
        ("ce1", "UNSAT", (50, 40, 25, 200, 19765)),
        ("ce2", "UNSAT", (36, 13, 18, 144, 6710)),
    ],
)
def test_verify_report_counts_the_direct_encoding(name, decision, counts, tmp_path):
    # deciding runs on the support encoding; the report still gives the
    # published direct CNF's size
    rpath = str(tmp_path / "r.json")
    doc = str(PUBLISHED / f"{name}.json")
    assert main(["verify", doc, "-k", "4", "--report-out", rpath]) == EXIT_OK
    report = json.loads(open(rpath).read())
    assert sorted(report) == [
        "counts", "decision", "engines", "instance", "k", "oracle_agrees",
        "verified", "wall_time_s", "witness",
    ]
    assert report["counts"] == dict(
        zip(("points", "triples", "reps", "vars", "clauses"), counts)
    )
    assert report["decision"] == decision and report["verified"] is True
    assert (report["witness"] is None) == (decision == "UNSAT")


def test_verify_expect_mismatch_exit_code(icosi_doc, capsys):
    code = main(["verify", icosi_doc, "-k", "4", "--expect", "unsat"])
    assert code == EXIT_EXPECT_MISMATCH
    assert "expectation failed" in capsys.readouterr().err


def test_verify_single_engine(icosi_doc, capsys):
    assert main(["verify", icosi_doc, "-k", "3", "--engine", "backtrack"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "decision:  UNSAT [backtrack]" in stdout
    assert "engines agree" not in stdout


def test_verify_ce2_published_encodings(ce2_doc, capsys):
    assert main(["verify", ce2_doc, "-k", "4", "--expect", "unsat"]) == EXIT_OK
    out4 = capsys.readouterr().out
    assert "144 variables, 6710 clauses" in out4
    assert main(["verify", ce2_doc, "-k", "5", "--expect", "sat"]) == EXIT_OK
    out5 = capsys.readouterr().out
    assert "180 variables, 13048 clauses" in out5


def test_export_dimacs_icosi(icosi_doc, tmp_path, capsys):
    out = str(tmp_path / "icosi_k3.cnf")
    assert main(["export-dimacs", icosi_doc, "-k", "3", "--out", out]) == EXIT_OK
    text = open(out).read()
    assert text.splitlines()[0] == "p cnf 90 4200"
    assert "p cnf 90 4200" in capsys.readouterr().out
    # export is byte-deterministic
    out2 = str(tmp_path / "again.cnf")
    main(["export-dimacs", icosi_doc, "-k", "3", "--out", out2])
    assert open(out2).read() == text


def test_export_dimacs_ce1_published_header(ce1_doc, tmp_path):
    out = str(tmp_path / "ce1_k4.cnf")
    assert main(["export-dimacs", ce1_doc, "-k", "4", "--out", out]) == EXIT_OK
    assert open(out).read().splitlines()[0] == "p cnf 200 19765"


def test_report_icosi(icosi_doc, capsys):
    assert main(["report", icosi_doc]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "15 representatives / 20 oriented triples / 10 classes" in stdout
    assert "Petersen: yes" in stdout


def test_report_ce1(ce1_doc, capsys):
    assert main(["report", ce1_doc]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "25 representatives / 40 oriented triples / 20 classes" in stdout
    assert "Petersen: yes" in stdout
    assert "Möbius ladder M10: yes" in stdout
    assert "orbits 10/10/5" in stdout
    assert "perfect matchings" in stdout


def test_report_ce1_json(ce1_doc, capsys):
    assert main(["report", ce1_doc, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["petersen"] is True
    assert payload["moebius_ladder_m10"] is True
    assert payload["edge_orbits"] == [10, 10, 5]


def test_report_ce2_skips_graph(ce2_doc, capsys):
    assert main(["report", ce2_doc]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "18 representatives / 13 oriented triples / 13 classes" in stdout
    assert "graph extraction skipped" in stdout


def test_render_geometry_only(icosi_doc, tmp_path, capsys):
    out = str(tmp_path / "icosi.svg")
    assert main(["render", icosi_doc, "--out", out]) == EXIT_OK
    svg = open(out).read()
    assert svg.startswith("<svg")
    assert "30 points / 20 triples" in svg


def test_render_with_witness(icosi_doc, tmp_path):
    wpath = str(tmp_path / "w.json")
    main(["verify", icosi_doc, "-k", "4", "--witness-out", wpath])
    out = str(tmp_path / "labeled.svg")
    assert main(["render", icosi_doc, "--witness", wpath, "--out", out]) == EXIT_OK
    svg = open(out).read()
    assert "k=4 witness" in svg


def test_render_rejects_bad_witness(icosi_doc, tmp_path, capsys):
    wpath = str(tmp_path / "bad.json")
    save_witness(WitnessDocument(k=4, values=(1,) * 15, instance="icosi"), wpath)
    out = str(tmp_path / "never.svg")
    code = main(["render", icosi_doc, "--witness", wpath, "--out", out])
    assert code == EXIT_ERROR
    assert not os.path.exists(out)  # refused before writing anything
    err = capsys.readouterr().err
    assert "witness failed verification" in err


def test_flow_compare_icosi(icosi_doc, capsys):
    assert main(["flow-compare", icosi_doc, "--k-max", "5"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "min value bound k:  4" in stdout
    assert "min modulus m:      5" in stdout
    assert "agreement: yes" in stdout
    assert "MISMATCH" not in stdout


def test_mode_float_still_decides(icosi, tmp_path, capsys):
    # a document without exact coordinates is decided on its floats
    floats = PointSet(
        tuple(SpherePoint.from_floats(*p.floats) for p in icosi.points),
        icosi.triples,
    )
    path = str(tmp_path / "float.json")
    save_document(document_from_pointset(floats, "icosi-float", {}), path)
    assert main(["verify", path, "-k", "3", "--expect", "unsat"]) == EXIT_OK
    assert main(["verify", path, "-k", "4", "--expect", "sat"]) == EXIT_OK


def test_missing_document_is_an_error(capsys):
    assert main(["report", "/nonexistent/nowhere.json"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def _assert_one_line_error(code, capsys):
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: [],
        lambda doc: json.dumps("x"),
        lambda doc: {**doc, "points": [3]},
        lambda doc: {**doc, "triples": [5]},
        lambda doc: {**doc, "triples": [["a", "b", "c"]]},
        lambda doc: {**doc, "points": [{"exact": p["exact"]} for p in doc["points"]]},
        lambda doc: {**doc, "radius": "0"},
        lambda doc: {**doc, "radius": "1/0"},
        lambda doc: {**doc, "field_tag": []},
        lambda doc: {**doc, "provenance": 5},
        lambda doc: {**doc, "radius": float("inf")},
        lambda doc: {
            **doc,
            "points": [{**doc["points"][0], "exact": ["1/0,0/1,0/1,0/1"] * 3}],
            "triples": [],
        },
        lambda doc: "[" * 100000 + "]" * 100000,
        lambda doc: {
            **doc,
            "field_tag": "float",
            "points": [
                {"floats": [5 * c for c in p["floats"]]} for p in doc["points"]
            ],
        },
        lambda doc: {**doc, "schema_version": True},
        lambda doc: {
            **doc,
            "triples": [[True if i == 1 else i for i in t] for t in doc["triples"]],
        },
        lambda doc: {**doc, "radius": True},
        lambda doc: {
            **doc,
            "provenance": {**doc["provenance"], "construction": [1, 2]},
        },
        lambda doc: {**doc, "triples": [[0, 1, 2]] + doc["triples"][1:]},
        # point 0 and its antipode 3 again
        lambda doc: {
            **doc,
            "points": doc["points"] + [doc["points"][i] for i in (0, 3)],
        },
        # triple 0 again, members reversed
        lambda doc: {**doc, "triples": doc["triples"] + [doc["triples"][0][::-1]]},
        # squaring this coordinate overflows
        lambda doc: {
            **doc,
            "field_tag": "float",
            "points": [
                {**p, "floats": [1.3407807929942597e154, 0.0, 0.0]} if i == 0 else p
                for i, p in enumerate(doc["points"])
            ],
        },
        # a subnormal radius scales (1, 0, 0) to (inf, nan, nan)
        lambda doc: {
            **doc,
            "field_tag": "float",
            "radius": "1/1" + "0" * 316,
            "points": doc["points"][2:3],
            "triples": [],
        },
    ],
    ids=[
        "list",
        "string",
        "point-not-object",
        "triple-not-list",
        "triple-of-strings",
        "no-floats",
        "zero-radius",
        "infinite-radius",
        "field-tag-not-string",
        "provenance-not-object",
        "json-infinity-radius",
        "zero-denominator-coordinate",
        "deep-nesting",
        "off-sphere-float-point",
        "bool-schema-version",
        "bool-triple-member",
        "bool-radius",
        "construction-not-string",
        "triple-off-zero-sum",
        "repeated-point",
        "repeated-triple",
        "overflowing-float-point",
        "subnormal-radius",
    ],
)
def test_malformed_document_is_a_one_line_error(
    mutate, icosi_doc, tmp_path, capsys
):
    with open(icosi_doc) as fh:
        doc = json.load(fh)
    bad = mutate(doc)
    path = str(tmp_path / "malformed.json")
    with open(path, "w") as fh:
        fh.write(bad if isinstance(bad, str) else json.dumps(bad))
    _assert_one_line_error(main(["verify", path, "-k", "3"]), capsys)


def test_off_sphere_exact_point_is_named(icosi_doc, tmp_path, capsys):
    """An exact point off the unit sphere is reported with its index, as
    an off-sphere float point is."""
    with open(icosi_doc) as fh:
        doc = json.load(fh)
    one, zero = "1/1,0/1,0/1,0/1", "0/1,0/1,0/1,0/1"
    doc["points"][3] = {"exact": [one, one, zero], "floats": [1.0, 1.0, 0.0]}
    path = str(tmp_path / "off_sphere.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["verify", path, "-k", "3"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: point 3: exact point is not on the unit sphere\n"


def _fractional(values):
    # int() truncates each of these back to the stored value
    return [v + (0.5 if v > 0 else -0.5) for v in values]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda w: {**w, "k": w["k"] + 0.9, "values": _fractional(w["values"])},
        lambda w: {**w, "values": [str(v) for v in w["values"]]},
        lambda w: {**w, "k": True},
        lambda w: {**w, "values": {"1": 2}},
        lambda w: {**w, "values": "12"},
        lambda w: "[" * 100000 + "]" * 100000,
        lambda w: {**w, "schema_version": 99},
        lambda w: {**w, "schema_version": True},
        lambda w: {**w, "instance": [1, 2]},
    ],
    ids=[
        "float-numbers",
        "string-values",
        "bool-k",
        "values-object",
        "values-string",
        "deep-nesting",
        "bad-schema-version",
        "bool-schema-version",
        "instance-not-string",
    ],
)
def test_malformed_witness_is_a_one_line_error(
    mutate, icosi_doc, tmp_path, capsys
):
    wpath = str(tmp_path / "w.json")
    assert main(["verify", icosi_doc, "-k", "4", "--witness-out", wpath]) == EXIT_OK
    with open(wpath) as fh:
        bad = mutate(json.load(fh))
    with open(wpath, "w") as fh:
        fh.write(bad if isinstance(bad, str) else json.dumps(bad))
    capsys.readouterr()
    out = str(tmp_path / "w.svg")
    _assert_one_line_error(
        main(["render", icosi_doc, "--witness", wpath, "--out", out]), capsys
    )


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing required arguments
    assert exc.value.code == 2
