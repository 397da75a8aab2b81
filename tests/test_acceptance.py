"""Acceptance gate: every headline claim, timed against its stated budget.

Each criterion is one test; `pytest -v` therefore emits one pass/fail
line per criterion, and each test additionally prints a one-line summary
with its measured wall time (visible with -s or -rA).
"""

from __future__ import annotations

import math
import random
import time

from sphereflow.constructions import (
    build_first_expansion,
    build_icosidodecahedron,
    candidate_coordinate_survey,
    final_coordinate_values,
    generate_candidate_points_float,
    largest_connected_component,
    prune_low_degree,
)
from sphereflow.flows import (
    FlowInstance,
    backtrack_search,
    count_zero_sum_values,
    decode_witness,
    encode_nzk,
    expected_clause_count,
    min_flow_number,
    min_mod_flow_number,
    verify_labeling,
)
from sphereflow.geometry import (
    PointSet,
    SpherePoint,
    find_zero_sum_triples,
)
from sphereflow.quotient import (
    classify_edge_orbits,
    extract_cubic_graph,
    is_isomorphic_to,
    moebius_ladder_10,
    petersen_graph,
    quotient_antipodal,
)
from sphereflow.solver import sat_solve

from test_flowsat import synthetic_quotient


def _stamp(criterion: int, description: str, elapsed: float, budget: float) -> None:
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(
        f"criterion {criterion}: {verdict} — {description} "
        f"({elapsed:.2f}s, budget {budget:g}s)"
    )
    assert elapsed < budget, (
        f"criterion {criterion} exceeded its {budget}s budget: {elapsed:.2f}s"
    )


def test_criterion_01_icosi_construction():
    t0 = time.perf_counter()
    ps = build_icosidodecahedron()
    dt = time.perf_counter() - t0
    assert ps.n_points == 30
    assert len(ps.triples) == 20
    assert ps.all_exact
    assert set(ps.degrees()) == {2}
    _stamp(1, "30 exact vertices, 20 triples, every point in exactly 2", dt, 1.0)


def test_criterion_02_icosi_quotient_is_petersen(icosi):
    t0 = time.perf_counter()
    q = quotient_antipodal(icosi)
    graph = extract_cubic_graph(q, range(q.n_classes))
    ok = is_isomorphic_to(graph, petersen_graph())
    dt = time.perf_counter() - t0
    assert q.n_reps == 15 and q.n_classes == 10
    assert ok
    _stamp(2, "antipodal quotient graph is the Petersen graph", dt, 1.0)


def test_criterion_03_icosi_decisions(icosi_q):
    t0 = time.perf_counter()
    inst3 = FlowInstance(icosi_q, 3)
    res3 = sat_solve(encode_nzk(inst3))
    dt3 = time.perf_counter() - t0
    assert not res3.satisfiable
    _stamp(3, "k=3 has no labeling", dt3, 1.0)

    t0 = time.perf_counter()
    inst4 = FlowInstance(icosi_q, 4)
    res4 = sat_solve(encode_nzk(inst4))
    assert res4.satisfiable
    lab = decode_witness(res4.model, inst4)
    assert verify_labeling(lab, inst4).ok
    dt4 = time.perf_counter() - t0
    _stamp(3, "k=4 labeling found and verified", dt4, 1.0)


def test_criterion_04_first_expansion_counts():
    t0 = time.perf_counter()
    ps = build_first_expansion()
    dt = time.perf_counter() - t0
    assert ps.n_points == 50
    assert len(ps.triples) == 40
    assert quotient_antipodal(ps).n_reps == 25
    _stamp(4, "expansion has 50 points / 40 triples / 25 antipodal pairs", dt, 5.0)


def test_criterion_05_first_expansion_encoding(ce1_q):
    t0 = time.perf_counter()
    formula = encode_nzk(FlowInstance(ce1_q, 4))
    header = formula.to_dimacs().splitlines()[0]
    dt = time.perf_counter() - t0
    assert formula.num_vars == 200
    assert formula.n_clauses == 19765
    assert header == "p cnf 200 19765"
    _stamp(5, "k=4 encoding is exactly 200 variables / 19765 clauses", dt, 5.0)


def test_criterion_06_first_expansion_decisions(ce1_q):
    t0 = time.perf_counter()
    inst4 = FlowInstance(ce1_q, 4)
    sat4 = sat_solve(encode_nzk(inst4))
    oracle4 = backtrack_search(inst4)
    assert not sat4.satisfiable and oracle4 is None

    inst5 = FlowInstance(ce1_q, 5)
    sat5 = sat_solve(encode_nzk(inst5))
    assert sat5.satisfiable
    lab = decode_witness(sat5.model, inst5)
    assert verify_labeling(lab, inst5).ok
    dt = time.perf_counter() - t0
    _stamp(6, "k=4 refuted by both engines; k=5 witness verified", dt, 10.0)


def test_criterion_07_first_expansion_graph_structure(ce1_q):
    t0 = time.perf_counter()
    partition, old_graph, new_graph = classify_edge_orbits(ce1_q)
    dt = time.perf_counter() - t0
    sizes = (
        len(partition.old_only),
        len(partition.new_only),
        len(partition.shared),
    )
    assert sizes == (10, 10, 5)
    assert is_isomorphic_to(old_graph, petersen_graph())
    assert is_isomorphic_to(new_graph, moebius_ladder_10())
    # classify_edge_orbits already verifies the perfect-matching property;
    # re-check it here independently
    for graph in (old_graph, new_graph):
        chosen = [e for e in graph.edges if e[2] in set(partition.shared)]
        covered = sorted(v for a, b, _ in chosen for v in (a, b))
        assert covered == sorted(graph.vertices)
    _stamp(
        7,
        "new-triple graph is the Moebius ladder M10; orbits 10/10/5; "
        "shared reps are perfect matchings",
        dt,
        5.0,
    )


def test_criterion_08_candidate_search_and_component():
    t0 = time.perf_counter()
    survey = candidate_coordinate_survey()
    exact = [c.exact for c in survey if c.exact is not None]
    finals = final_coordinate_values()
    cloud = generate_candidate_points_float([c.value for c in survey])
    cloud = cloud.with_triples(find_zero_sum_triples(cloud))
    pruned, _ = prune_low_degree(cloud)
    component = largest_connected_component(pruned)
    dt = time.perf_counter() - t0
    # the exact candidates include exactly the seven published magnitudes
    assert len(finals) == 7
    assert set(finals) <= set(exact)
    published = [
        0.0,
        0.13397459621556135,
        0.36602540378443865,
        0.5,
        0.8555996771673522,
        0.8660254037844386,
        1.0,
    ]
    got = sorted(v.to_float() for v in finals)
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, published))
    assert cloud.n_points == 210 and len(cloud.triples) == 116
    assert component.n_points == 126 and len(component.triples) == 108
    _stamp(
        8,
        "survey yields the published coordinate values; largest component "
        "is 126 points / 108 triples",
        dt,
        60.0,
    )


def test_criterion_09_second_counterexample_decisions(ce2, ce2_q):
    t0 = time.perf_counter()
    assert ce2.n_points == 36
    assert ce2.n_triples == 13
    assert ce2_q.n_reps == 18

    inst4 = FlowInstance(ce2_q, 4)
    f4 = encode_nzk(inst4)
    assert f4.num_vars == 144 and f4.n_clauses == 6710
    assert f4.n_clauses == expected_clause_count(18, 13, 4)
    sat4 = sat_solve(f4)
    oracle4 = backtrack_search(inst4)
    assert not sat4.satisfiable and oracle4 is None

    inst5 = FlowInstance(ce2_q, 5)
    f5 = encode_nzk(inst5)
    assert f5.num_vars == 180 and f5.n_clauses == 13048
    assert f5.n_clauses == expected_clause_count(18, 13, 5)
    sat5 = sat_solve(f5)
    assert sat5.satisfiable
    lab = decode_witness(sat5.model, inst5)
    assert verify_labeling(lab, inst5).ok
    dt = time.perf_counter() - t0
    _stamp(
        9,
        "36-point/13-triple instance: 144/6710 refuted at k=4, "
        "180/13048 labeled at k=5",
        dt,
        30.0,
    )


def test_criterion_10_zero_sum_counts_reconcile_clause_totals():
    t0 = time.perf_counter()
    assert count_zero_sum_values(4) == 36
    assert count_zero_sum_values(5) == 60
    # the three published clause totals follow from the closed form
    assert expected_clause_count(25, 40, 4) == 19765
    assert expected_clause_count(18, 13, 4) == 6710
    assert expected_clause_count(18, 13, 5) == 13048
    dt = time.perf_counter() - t0
    _stamp(10, "zero-sum value counts reconcile all published clause totals", dt, 1.0)


def test_criterion_11_cross_validation(icosi, ce1, ce2):
    t0 = time.perf_counter()

    # (a) zero-sum <=> all pairwise dots equal -1/2, on 10^4 random triples
    rng = random.Random(20260818)
    checked = 0
    planted = 0
    for _ in range(10_000):
        if rng.random() < 0.5:
            triple = []
            for _ in range(3):
                while True:
                    v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
                    n = math.sqrt(sum(c * c for c in v))
                    if n > 1e-6:
                        triple.append(tuple(c / n for c in v))
                        break
        else:
            phi = rng.uniform(0, 2 * math.pi)
            triple = [
                (math.cos(phi + j * 2 * math.pi / 3),
                 math.sin(phi + j * 2 * math.pi / 3),
                 0.0)
                for j in range(3)
            ]
            planted += 1
        u, v, w = triple
        is_zero = all(
            abs(a + b + c) <= 1e-9 for a, b, c in zip(u, v, w)
        )
        dots = (
            sum(x * y for x, y in zip(u, v)),
            sum(x * y for x, y in zip(u, w)),
            sum(x * y for x, y in zip(v, w)),
        )
        dots_half = all(abs(d + 0.5) <= 1e-9 for d in dots)
        assert is_zero == dots_half
        checked += 1
    assert checked == 10_000 and planted > 4000

    # (b) SAT engine and backtracking oracle agree on 100 random instances
    rng = random.Random(424242)
    for _ in range(100):
        q = synthetic_quotient(rng, rng.randint(3, 6), rng.randint(1, 6))
        inst = FlowInstance(q, rng.randint(1, 3))
        assert sat_solve(encode_nzk(inst)).satisfiable == (
            backtrack_search(inst) is not None
        )

    # (c) exact and float triple detection agree on every bundled construction
    for ps in (icosi, ce1, ce2.final):
        floats = PointSet(
            tuple(SpherePoint.from_floats(*p.floats) for p in ps.points)
        )
        exact_triples = set(find_zero_sum_triples(PointSet(ps.points)))
        float_triples = set(find_zero_sum_triples(floats))
        assert exact_triples == float_triples

    dt = time.perf_counter() - t0
    _stamp(
        11,
        "geometry property on 10^4 triples; engine agreement on 100 "
        "instances; exact/float detection agreement on all constructions",
        dt,
        60.0,
    )


def test_criterion_12_integer_and_modular_minima_agree(icosi_q, ce1_q, ce2_q):
    t0 = time.perf_counter()
    expected = {"icosi": 4, "ce1": 5, "ce2": 5}
    quotients = {"icosi": icosi_q, "ce1": ce1_q, "ce2": ce2_q}
    for name, q in quotients.items():
        k_int = min_flow_number(q, 6)
        m_mod = min_mod_flow_number(q, 7)
        assert k_int == expected[name], (name, k_int)
        assert m_mod == k_int + 1, (name, k_int, m_mod)
    dt = time.perf_counter() - t0
    _stamp(
        12,
        "integer-bounded and modular minima agree on all three instances",
        dt,
        30.0,
    )
