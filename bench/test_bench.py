"""Tests of the benchmark itself: checks, seeding and tracing.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``
(about 40 s; one full verify pass is included).
"""

from __future__ import annotations

import copy
import json

import pytest

from run import PER_LAYER, ROOT, _import_program

_import_program()

import sphereflow.constructions as constructions  # noqa: E402
from sphereflow import (  # noqa: E402
    PointSetDocument,
    pointset_from_document,
    quotient_antipodal,
)

from inputs import EXPECTED, load_inputs, permute_document  # noqa: E402
from tracing import NULL, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SECOND_COUNTS,
    SECOND_STAGES,
    Op,
    exact_ops,
    run_pass,
    verify_ops,
)


@pytest.fixture(scope="module")
def seed0():
    return load_inputs(0)


def _cheap_verify_ops(inputs, expected):
    """Verify operations minus the 10 s ce1 k=4 solve."""
    return [op for op in verify_ops(inputs, expected) if op.name != "verify ce1 k=4"]


def test_wrong_expected_value_fails_the_operation_and_the_pass_goes_on(seed0):
    expected = copy.deepcopy(EXPECTED)
    expected["decisions"]["icosi"] = (True, True, True)
    ops = _cheap_verify_ops(seed0, expected)
    result = run_pass(ops, NULL)
    assert len(result.answers) == len(ops)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("verify icosi k=3: sat decision")


def test_exception_in_an_operation_is_a_failure(seed0):
    def boom(tr):
        raise ValueError("broken input")

    ops = [Op("boom", boom, lambda a: [])] + exact_ops(seed0, EXPECTED)[:1]
    result = run_pass(ops, NULL)
    assert result.failures == ("boom: ValueError: broken input",)
    assert result.answers[0] is None and result.answers[1] is not None


def test_answer_that_differs_from_the_first_pass_fails(seed0):
    ops = exact_ops(seed0, EXPECTED)[:1]
    result = run_pass(ops, NULL, first=("another answer",))
    assert result.failures == ("construct icosi: answer differs from the first pass",)


def test_seed_zero_is_identity(seed0):
    for name, text in seed0.texts.items():
        doc = PointSetDocument.from_json(text)
        assert permute_document(doc, 0) is doc
        assert seed0.seeded[name] == text


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nonzero_seed_reorders_points_but_keeps_the_quotient(seed0, seed):
    seeded = load_inputs(seed)
    for name in seed0.texts:
        assert seeded.seeded[name] != seed0.texts[name]
        before = quotient_antipodal(seed0.pointsets[name])
        after_ps = pointset_from_document(PointSetDocument.from_json(seeded.seeded[name]))
        after = quotient_antipodal(after_ps)
        assert after_ps.n_points == seed0.pointsets[name].n_points
        assert len(after_ps.triples) == len(seed0.pointsets[name].triples)
        assert after.representatives == before.representatives
        assert sorted(after.oriented_triples) == sorted(before.oriented_triples)


def test_nonzero_seed_keeps_every_count_and_decision():
    inputs = load_inputs(1)
    result = run_pass(verify_ops(inputs, EXPECTED), NULL)
    assert result.failures == ()
    assert len(result.answers) == 12


def test_traced_and_untraced_passes_give_identical_answers(seed0):
    for ops in (exact_ops(seed0, EXPECTED), _cheap_verify_ops(seed0, EXPECTED)):
        plain = run_pass(ops, NULL)
        tracer = Tracer()
        traced = run_pass(ops, tracer)
        assert plain.failures == () and traced.failures == ()
        assert plain.answers == traced.answers
        assert tracer.spans


def test_flows_clauses_counts_every_encoding(seed0):
    tracer = Tracer()
    run_pass(_cheap_verify_ops(seed0, EXPECTED), tracer)
    clauses = EXPECTED["clauses"]
    want = sum(sum(c) for c in clauses.values()) - clauses["ce1"][1]
    assert tracer.counts["flows.clauses"] == want


def test_rebound_restores_every_name_after_an_error():
    originals = {attr: getattr(constructions, attr) for attr, _ in SECOND_STAGES}
    with pytest.raises(RuntimeError):
        with Tracer().rebound(constructions, SECOND_STAGES, SECOND_COUNTS):
            assert all(getattr(constructions, a) is not f for a, f in originals.items())
            raise RuntimeError
    assert all(getattr(constructions, a) is f for a, f in originals.items())


def test_null_tracer_rebinds_nothing():
    original = constructions.sat_solve_cdcl
    with NULL.rebound(constructions, SECOND_STAGES, SECOND_COUNTS):
        assert constructions.sat_solve_cdcl is original


def test_rebound_names_are_the_ones_the_construction_calls():
    called = set(constructions.build_second_counterexample.__code__.co_names)
    called |= set(constructions._labeling_exists.__code__.co_names)
    assert {attr for attr, _ in SECOND_STAGES} <= called


def test_nested_spans_are_not_top_level(seed0):
    tracer = Tracer()
    ce2 = seed0.pointsets["ce2"]
    with tracer.rebound(constructions, SECOND_STAGES, SECOND_COUNTS):
        lifted = constructions.lift_to_exact(ce2, constructions.final_coordinate_values())
    assert lifted == ce2
    spans = tracer.totals()
    top = tracer.totals(top_level=True)
    assert spans["constructions.lift"][0] == 1
    assert spans["geometry.detect_float"][0] == 2
    assert "geometry.detect_float" not in top


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [*PER_LAYER, "trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == ["verify", "construct", "exact"]
