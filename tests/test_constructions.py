"""Construction pipeline: vertex sets, expansions, pruning, exact lift."""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from sphereflow.constructions import (
    GOLDEN_RATIO,
    ConstructionError,
    _degree_prune,
    _select_points,
    build_first_expansion,
    candidate_coordinate_survey,
    final_coordinate_values,
    generate_candidate_points_float,
    icosidodecahedron_distance_pairs,
    largest_connected_component,
    lift_to_exact,
    prune_low_degree,
    symmetric_expansion,
    unsat_preserving_prune,
)
from sphereflow.field import F1, F2
from sphereflow.geometry import (
    PointSet,
    SpherePoint,
    antipode_map,
    find_zero_sum_triples,
)


# ---------------------------------------------------------------------------
# icosidodecahedron
# ---------------------------------------------------------------------------


def test_icosi_counts(icosi, icosi_q):
    assert icosi.n_points == 30
    assert len(icosi.triples) == 20
    assert icosi_q.n_reps == 15
    assert icosi.all_exact
    assert set(icosi.degrees()) == {2}


def test_icosi_triples_are_great_circles(icosi):
    # every detected triple lies on a great circle through equidistant points
    for i, j, k in icosi.triples:
        pts = [icosi.points[m].floats for m in (i, j, k)]
        for a in range(3):
            for b in range(a + 1, 3):
                d = sum(x * y for x, y in zip(pts[a], pts[b]))
                assert abs(d + 0.5) < 1e-12


def test_icosi_distance_pairs(icosi):
    pairs = icosidodecahedron_distance_pairs(icosi)
    # each vertex has exactly four vertices two decagon steps away
    counts = Counter(i for p in pairs for i in p)
    assert set(counts.values()) == {4}
    assert len(pairs) == 60


# ---------------------------------------------------------------------------
# first expansion
# ---------------------------------------------------------------------------


def test_symmetric_expansion_counts():
    full = symmetric_expansion()
    assert full.n_points == 150
    assert len(full.triples) == 140
    assert full.all_exact


def test_first_expansion_counts(ce1, ce1_q):
    assert ce1.n_points == 50
    assert len(ce1.triples) == 40
    assert ce1_q.n_reps == 25
    assert ce1.all_exact


def test_first_expansion_preserves_original_structure(ce1, icosi):
    # the first 30 points are the original vertices, in order
    for p, q in zip(ce1.points[:30], icosi.points):
        assert p.exact == q.exact
    old_triples = {t for t in ce1.triples if all(i < 30 for i in t)}
    assert old_triples == set(icosi.triples)


def test_first_expansion_degrees(ce1):
    counts = Counter(ce1.degrees())
    # expansion points sit in two triples each; vertices gain two more
    assert counts == {2: 40, 4: 10}


def test_first_expansion_build_is_deterministic(ce1):
    again = build_first_expansion()
    assert [p.exact for p in again.points] == [p.exact for p in ce1.points]
    assert again.triples == ce1.triples


X_UNIT = 2 * F1.t**3 / 5  # 2 / 5^(1/4)
Y_UNIT = X_UNIT * GOLDEN_RATIO


def radius2_integer_decomposition(e):
    """Write e as an integer combination of 1, phi, x, y, or None.

    Here phi is the golden ratio, x = 2/5^(1/4) and y = x*phi.  The four
    elements form a Q-basis of the field, so the decomposition is unique;
    only integrality can fail.
    """
    c0, c1, c2, c3 = e.coeffs
    # 1 -> (1,0,0,0); phi -> (1/2,0,1/2,0); x -> (0,0,0,2/5); y -> (0,1,0,1/5)
    a, b, cc, d = c0 - c2, 2 * c2, (5 * c3 - c1) / 2, c1
    if any(v.denominator != 1 for v in (a, b, cc, d)):
        return None
    assert F1.element(a) + b * GOLDEN_RATIO + cc * X_UNIT + d * Y_UNIT == e
    return (int(a), int(b), int(cc), int(d))


def test_radius2_decomposition_on_first_expansion(ce1):
    # doubled coordinates decompose integrally over (1, phi, x, y)
    two = F1.element(2)
    for p in ce1.points:
        for c in p.exact:
            coeffs = radius2_integer_decomposition(two * c)
            assert coeffs is not None
            assert all(isinstance(v, int) for v in coeffs)
            assert all(abs(v) <= 2 for v in coeffs)


def test_radius2_decomposition_rejects_non_integral():
    half = F1.element(Fraction(1, 2))
    assert radius2_integer_decomposition(half) is None
    assert radius2_integer_decomposition(F1.one) == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# candidate coordinate survey
# ---------------------------------------------------------------------------


def test_survey_default_parameters():
    survey = candidate_coordinate_survey()
    assert len(survey) == 11
    exact = [c for c in survey if c.exact is not None]
    assert len(exact) == 8
    # three sqrt branches outside the field survive as floats only
    assert sum(1 for c in survey if c.exact is None) == 3
    values = [c.value for c in survey]
    assert values == sorted(values)
    assert all(0.0 <= v <= 1.0 for v in values)
    # frozen float embeddings of the survivors
    expected = [
        0.0,
        0.13397459621556135,
        0.36602540378443865,
        0.5,
        0.6050003337060557,
        0.7071067811865476,
        0.7320508075688773,
        0.8555996771673522,
        0.8660254037844386,
        0.9306048591020996,
        1.0,
    ]
    assert all(abs(a - b) < 1e-12 for a, b in zip(values, expected))


def test_final_values_subset_of_candidates(ce2):
    exact = [c.exact for c in ce2.survey if c.exact is not None]
    finals = final_coordinate_values()
    assert len(finals) == 7
    assert set(finals) <= set(exact)
    # there is exactly one exact candidate the final configuration drops
    assert len(set(exact) - set(finals)) == 1
    floats = sorted(v.to_float() for v in finals)
    expected = [
        0.0,
        0.13397459621556135,
        0.36602540378443865,
        0.5,
        0.8555996771673522,
        0.8660254037844386,
        1.0,
    ]
    assert all(abs(a - b) < 1e-12 for a, b in zip(floats, expected))


# ---------------------------------------------------------------------------
# second construction (session fixture: built once)
# ---------------------------------------------------------------------------


def test_ce2_cloud_counts(ce2):
    assert ce2.cloud.n_points == 210
    assert len(ce2.cloud.triples) == 116


def test_ce2_component_counts(ce2):
    assert ce2.component.n_points == 126
    assert len(ce2.component.triples) == 108


def test_ce2_final_counts(ce2, ce2_q):
    assert ce2.n_points == 36
    assert ce2.n_triples == 13
    assert ce2_q.n_reps == 18
    assert ce2.final.all_exact


def test_ce2_final_uses_published_magnitudes(ce2):
    allowed = {abs(v).to_float() for v in final_coordinate_values()}
    used = {abs(c).to_float() for p in ce2.final.points for c in p.exact}
    assert used == allowed


def test_ce2_final_floats_match_exact(ce2):
    for pf, pe in zip(ce2.final_float.points, ce2.final.points):
        assert all(abs(a - b) < 1e-9 for a, b in zip(pf.floats, pe.floats))
    assert ce2.final.triples == ce2.final_float.triples


def test_ce2_prune_report_consistency(ce2):
    rep = ce2.prune_report
    assert rep.final_points == 36
    assert rep.final_triples == 13
    removed_triples = sum(t for _, t in rep.rounds)
    assert removed_triples == 108 - 13
    removed_points = sum(p for p, _ in rep.rounds)
    assert removed_points == 126 - 36


# The greedy prune's decisions and result, recorded when each step was
# still decided on the direct encoding.  Every step is a SAT/UNSAT fact,
# so no change of encoding or solver may move them.
CE2_PRUNE_ROUNDS = (
    (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
    (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
    (0, 3), (8, 3), (0, 3), (10, 3), (0, 1), (0, 1), (0, 1), (0, 1),
    (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
    (0, 3), (8, 3), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
    (0, 1), (0, 1), (0, 1), (0, 4), (0, 4), (16, 4), (16, 4), (0, 4),
    (0, 4), (16, 4), (16, 4), (0, 2), (0, 2), (0, 3), (0, 1),
)
CE2_FINAL_TRIPLES = (
    (1, 8, 10), (1, 13, 16), (3, 4, 5), (3, 20, 23), (3, 21, 22),
    (5, 16, 33), (6, 14, 31), (7, 12, 29), (7, 13, 28), (10, 22, 31),
    (10, 23, 30), (11, 20, 29), (11, 21, 28),
)


def test_ce2_prune_decisions_are_pinned(ce2):
    assert len(CE2_PRUNE_ROUNDS) == 55
    assert ce2.prune_report.rounds == CE2_PRUNE_ROUNDS
    assert ce2.final.triples == CE2_FINAL_TRIPLES


def test_ce1_greedy_prune(ce1):
    t0 = time.perf_counter()
    pruned, report = unsat_preserving_prune(ce1, 4)
    elapsed = time.perf_counter() - t0
    assert (report.final_points, report.final_triples) == (40, 14)
    assert (pruned.n_points, len(pruned.triples)) == (40, 14)
    assert len(report.rounds) == 20
    assert elapsed < 10.0, f"ce1 greedy prune took {elapsed:.1f}s, budget 10s"


def test_ce2_selected_triples_are_zero_sums(ce2):
    geometric = set(find_zero_sum_triples(PointSet(ce2.final.points)))
    assert set(ce2.final.triples) <= geometric


# ---------------------------------------------------------------------------
# pruning machinery on small inputs
# ---------------------------------------------------------------------------


def test_prune_low_degree_removes_weak_triples():
    # two triples sharing no points: each has three degree-1 members,
    # so a single round clears everything
    pts = []
    for phi in (0.0, 0.3):
        for j in range(3):
            a = phi + j * 2 * math.pi / 3
            pts.append(SpherePoint.from_floats(math.cos(a), math.sin(a), 0.0))
    ps = PointSet(tuple(pts)).with_triples(find_zero_sum_triples(PointSet(tuple(pts))))
    pruned, report = prune_low_degree(ps)
    assert pruned.n_points == 0
    assert report.final_points == 0 and report.final_triples == 0


def test_degree_prune_keeps_points_whose_antipode_is_used(icosi):
    # dropping two icosi triples cascades to a third; two points are then
    # unused, but their antipodes still lie in triples
    triples = [t for i, t in enumerate(icosi.triples) if i not in (0, 2)]
    anti = antipode_map(icosi)
    points, kept, rounds = _degree_prune(range(icosi.n_points), triples, anti)
    used = {i for t in kept for i in t}
    assert len(kept) == 17 and rounds == [(0, 1)]
    assert all(i in used or anti[i] in used for i in points)
    dropped = set(range(icosi.n_points)) - set(points)
    assert all(anti[i] not in used for i in dropped)
    assert any(i not in used for i in points)

    # without a partner map the same triples survive, and the result is
    # the public prune_low_degree's
    bare_points, bare_kept, bare_rounds = _degree_prune(range(icosi.n_points), triples)
    assert bare_kept == kept and bare_rounds == [(2, 1)]
    assert bare_points == sorted(used)
    pruned, report = prune_low_degree(icosi.with_triples(triples))
    assert pruned == _select_points(icosi.with_triples(bare_kept), bare_points)
    assert report.rounds == tuple(bare_rounds)


def test_unsat_preserving_prune_rejects_satisfiable_input(icosi):
    # the vertex set admits a labeling at k=4, so there is nothing to keep
    with pytest.raises(ValueError, match="admits a labeling"):
        unsat_preserving_prune(icosi, 4)


def test_unsat_preserving_prune_keeps_icosi_at_k3(icosi):
    pruned, report = unsat_preserving_prune(icosi, 3)
    assert report.final_points == pruned.n_points
    assert report.final_triples == len(pruned.triples)
    # the result still refutes k=3: check via the public oracle
    from sphereflow.flows import FlowInstance, backtrack_search
    from sphereflow.quotient import quotient_antipodal

    q = quotient_antipodal(pruned)
    assert backtrack_search(FlowInstance(q, 3)) is None


# ---------------------------------------------------------------------------
# exact lift
# ---------------------------------------------------------------------------


def test_lift_to_exact_round_trip(icosi):
    floats = PointSet(
        tuple(SpherePoint.from_floats(*p.floats) for p in icosi.points),
        icosi.triples,
    )
    coords = sorted(
        {abs(c) for p in icosi.points for c in p.exact},
        key=lambda e: e.to_float(),
    )
    lifted = lift_to_exact(floats, coords)
    assert lifted.all_exact
    assert lifted.triples == icosi.triples
    for a, b in zip(lifted.points, icosi.points):
        assert a.exact == b.exact


def test_lift_to_exact_rejects_unknown_coordinate():
    p = SpherePoint.from_floats(0.6, 0.8, 0.0)
    with pytest.raises(ConstructionError, match="matches no exact value"):
        lift_to_exact(PointSet((p,)), [F2.zero, F2.one])


def test_largest_connected_component_on_cloud(ce2):
    comp = largest_connected_component(ce2.cloud)
    assert comp.n_points == 126
    assert len(comp.triples) == 108


def test_generate_candidate_points_float_counts(ce2):
    values = [c.value for c in ce2.survey]
    cloud = generate_candidate_points_float(values)
    assert cloud.n_points == 210
