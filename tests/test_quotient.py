"""Antipodal quotient structure and cubic-graph extraction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereflow.field import F1
from sphereflow.geometry import PointSet, SpherePoint, antipode_map
from sphereflow.quotient import (
    QuotientGraph,
    StructureError,
    classify_edge_orbits,
    extract_cubic_graph,
    is_isomorphic_to,
    moebius_ladder_10,
    petersen_graph,
    quotient_antipodal,
)


def test_icosi_quotient_sizes(icosi_q):
    assert icosi_q.n_reps == 15
    assert len(icosi_q.oriented_triples) == 20
    assert icosi_q.n_classes == 10
    # every class is a mirror pair of oriented triples
    assert all(len(c) == 2 for c in icosi_q.triple_classes)


def test_ce1_quotient_sizes(ce1_q):
    assert ce1_q.n_reps == 25
    assert len(ce1_q.oriented_triples) == 40
    assert ce1_q.n_classes == 20
    assert all(len(c) == 2 for c in ce1_q.triple_classes)


def test_ce2_quotient_sizes(ce2_q):
    assert ce2_q.n_reps == 18
    assert len(ce2_q.oriented_triples) == 13
    # the pruned instance keeps one oriented triple per class
    assert ce2_q.n_classes == 13
    assert all(len(c) == 1 for c in ce2_q.triple_classes)


def test_orientation_reconstructs_points(icosi, icosi_q):
    for i, p in enumerate(icosi.points):
        rep, sign = icosi_q.orientation[i]
        r = icosi_q.representatives[rep]
        expected = r if sign == 1 else r.antipode()
        assert p.exact == expected.exact
        assert all(abs(a - b) < 1e-15 for a, b in zip(p.floats, expected.floats))


def test_oriented_triples_reference_distinct_reps(ce1_q):
    for members in ce1_q.oriented_triples:
        reps = [r for r, _ in members]
        assert len(set(reps)) == 3
        assert reps == sorted(reps)
        assert all(s in (-1, 1) for _, s in members)


def test_icosi_quotient_graph_is_petersen(icosi_q):
    g = extract_cubic_graph(icosi_q, range(icosi_q.n_classes))
    assert g.n_vertices == 10 and g.n_edges == 15
    assert is_isomorphic_to(g, petersen_graph())
    assert not is_isomorphic_to(g, moebius_ladder_10())


def test_ce1_edge_orbits(ce1_q):
    partition, old_graph, new_graph = classify_edge_orbits(ce1_q)
    assert len(partition.old_only) == 10
    assert len(partition.new_only) == 10
    assert len(partition.shared) == 5
    assert is_isomorphic_to(old_graph, petersen_graph())
    assert is_isomorphic_to(new_graph, moebius_ladder_10())
    assert not is_isomorphic_to(new_graph, petersen_graph())
    # shared reps appear as edges of both graphs and cover all vertices
    for graph in (old_graph, new_graph):
        chosen = [e for e in graph.edges if e[2] in set(partition.shared)]
        covered = sorted(v for a, b, _ in chosen for v in (a, b))
        assert covered == sorted(graph.vertices)


def test_petersen_not_isomorphic_to_moebius_ladder():
    assert not is_isomorphic_to(petersen_graph(), moebius_ladder_10())
    assert is_isomorphic_to(petersen_graph(), petersen_graph())
    assert is_isomorphic_to(moebius_ladder_10(), moebius_ladder_10())


def test_isomorphism_rejects_large_graphs():
    edges = tuple((i, (i + 1) % 13, -1) for i in range(13))
    big = QuotientGraph(vertices=tuple(range(13)), edges=edges)
    with pytest.raises(ValueError):
        is_isomorphic_to(big, big)


def test_quotient_requires_antipodal_closure():
    for pole in (
        SpherePoint.from_floats(0.0, 0.0, 1.0),
        SpherePoint.from_exact((F1.zero, F1.zero, F1.one)),
    ):
        with pytest.raises(StructureError, match="no antipode"):
            quotient_antipodal(PointSet((pole,)))


@pytest.mark.parametrize("name", ["icosi", "ce1", "ce2"])
def test_antipode_map_agrees_across_modes(name, request):
    ps = request.getfixturevalue(name)
    if name == "ce2":
        ps = ps.final
    shadows = PointSet(
        tuple(SpherePoint.from_floats(*p.floats) for p in ps.points), ps.triples
    )
    assert ps.all_exact and not shadows.all_exact
    assert antipode_map(shadows) == antipode_map(ps)


def test_quotient_rejects_triple_through_antipodal_pair():
    e1 = SpherePoint.from_floats(1.0, 0.0, 0.0)
    e2 = SpherePoint.from_floats(0.0, 1.0, 0.0)
    pts = (e1, e1.antipode(), e2, e2.antipode())
    ps = PointSet(pts, triples=((0, 1, 2),))
    with pytest.raises(StructureError, match="antipodal pair twice"):
        quotient_antipodal(ps)


def test_quotient_rejects_a_repeated_point(ce2):
    """ce2 with point 4 and its antipode 7 appended again: the antipode map
    sends both copies of each to the other's first copy, so the four
    points form one class, in the exact set and in its float shadows."""
    ps = ce2.final
    assert antipode_map(ps)[4] == 7
    exact = PointSet(ps.points + (ps.points[4], ps.points[7]), ps.triples)
    shadows = PointSet(
        tuple(SpherePoint.from_floats(*p.floats) for p in exact.points),
        ps.triples,
    )
    for repeated in (exact, shadows):
        with pytest.raises(StructureError, match=r"points \[4, 7, 36, 37\]"):
            quotient_antipodal(repeated)


def test_quotient_of_empty_set():
    q = quotient_antipodal(PointSet(()))
    assert q.n_reps == 0 and q.n_classes == 0


def test_extract_cubic_graph_rejects_dangling_reps(icosi_q):
    with pytest.raises(StructureError, match="exactly two classes"):
        extract_cubic_graph(icosi_q, [0])


def test_representatives_positively_oriented(ce1_q):
    for r in ce1_q.representatives:
        first_nonzero = next(c for c in r.floats if abs(c) > 1e-9)
        assert first_nonzero > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_quotient_graph_invariant_under_relabeling(icosi, seed):
    """Permuting the input points never changes the quotient graph type."""
    rng = random.Random(seed)
    perm = list(range(icosi.n_points))
    rng.shuffle(perm)
    inv = {old: new for new, old in enumerate(perm)}
    pts = tuple(icosi.points[i] for i in perm)
    triples = tuple(
        tuple(sorted(inv[i] for i in t)) for t in icosi.triples
    )
    shuffled = PointSet(pts, triples=tuple(sorted(triples)))
    q = quotient_antipodal(shuffled)
    assert q.n_reps == 15 and q.n_classes == 10
    g = extract_cubic_graph(q, range(q.n_classes))
    assert is_isomorphic_to(g, petersen_graph())
