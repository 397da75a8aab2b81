"""Geometry layer: sphere points, dot products, zero-sum triple search."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereflow.constructions import icosidodecahedron_distance_pairs
from sphereflow.field import F1
from sphereflow.geometry import (
    EPSILON,
    SHADOW_TOLERANCE,
    PointSet,
    SpherePoint,
    antipode_map,
    components,
    dedup_points,
    exact_dot,
    find_zero_sum_triples,
    small_circle_intersection,
    _CELL_SIDE,
    _shadow_grid,
)


def find_zero_sum_triples_brute(ps: PointSet) -> tuple[tuple[int, int, int], ...]:
    """The O(n^3) reference search the grid search is checked against:
    every triple of indices, summed coordinate by coordinate, with no
    shadow grid and no shared confirm test."""
    pts = ps.points
    exact = ps.all_exact
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                if exact:
                    s = tuple(
                        pts[i].exact[c] + pts[j].exact[c] + pts[k].exact[c]
                        for c in range(3)
                    )
                    if all(v.is_zero for v in s):
                        out.append((i, j, k))
                else:
                    if all(
                        abs(pts[i].floats[c] + pts[j].floats[c] + pts[k].floats[c])
                        <= EPSILON
                        for c in range(3)
                    ):
                        out.append((i, j, k))
    return tuple(out)


def _random_unit(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-6:
            return (v[0] / n, v[1] / n, v[2] / n)


def _rotate_about_z(v, angle):
    c, s = math.cos(angle), math.sin(angle)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1], v[2])


def _raw_dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _planted_triple(rng: random.Random):
    """Three unit vectors 120 degrees apart in the xy-plane: sum is zero."""
    phi = rng.uniform(0, 2 * math.pi)
    step = 2 * math.pi / 3
    base = (1.0, 0.0, 0.0)
    return tuple(_rotate_about_z(base, phi + j * step) for j in range(3))


def test_zero_sum_iff_pairwise_dot_minus_half():
    """u+v+w = 0 on the sphere exactly when all pairwise dots are -1/2."""
    rng = random.Random(7)
    n_zero = 0
    for _ in range(2000):
        if rng.random() < 0.5:
            u, v, w = (_random_unit(rng) for _ in range(3))
        else:
            u, v, w = _planted_triple(rng)
        s = tuple(a + b + c for a, b, c in zip(u, v, w))
        is_zero_sum = all(abs(c) <= 1e-9 for c in s)
        dots_ok = (
            abs(_raw_dot(u, v) + 0.5) <= 1e-9
            and abs(_raw_dot(u, w) + 0.5) <= 1e-9
            and abs(_raw_dot(v, w) + 0.5) <= 1e-9
        )
        assert is_zero_sum == dots_ok
        n_zero += is_zero_sum
    assert n_zero > 500  # the planted half actually exercised the property


def test_triple_search_matches_brute_force_float():
    rng = random.Random(20260818)
    for _ in range(20):
        pts = []
        for _ in range(rng.randint(1, 4)):
            for v in _planted_triple(rng):
                pts.append(SpherePoint.from_floats(*v))
        for _ in range(rng.randint(0, 6)):
            pts.append(SpherePoint.from_floats(*_random_unit(rng)))
        ps = PointSet(tuple(pts))
        fast = find_zero_sum_triples(ps)
        brute = find_zero_sum_triples_brute(ps)
        assert set(fast) == set(brute)
        assert fast == tuple(sorted(fast))


def test_triple_search_exact_matches_brute(icosi, ce1, ce2):
    """The grid search and the O(n^3) oracle agree on every bundled
    exact configuration, found afresh on the bare points."""
    for ps in (icosi, ce1, ce2.final):
        bare = PointSet(ps.points)
        assert find_zero_sum_triples(bare) == find_zero_sum_triples_brute(bare)


def test_exact_dot_on_icosi_spectrum(icosi):
    assert exact_dot(icosi.points[0], icosi.points[0]) == F1.one
    # pairwise dots of distinct vertices land in the known exact spectrum
    phi = (1 + math.sqrt(5)) / 2
    spectrum = {-1.0, -phi / 2, -0.5, -(phi - 1) / 2, 0.0, (phi - 1) / 2, 0.5, phi / 2}
    for i in range(8):
        for j in range(i + 1, 8):
            v = exact_dot(icosi.points[i], icosi.points[j]).to_float()
            assert any(abs(v - ref) < 1e-12 for ref in spectrum), v


def test_from_exact_rejects_off_sphere():
    with pytest.raises(ValueError):
        SpherePoint.from_exact((F1.one, F1.one, F1.zero))


def test_from_floats_epsilon_check():
    SpherePoint.from_floats(1.0, 1e-8, 0.0, check_eps=1e-7)
    with pytest.raises(ValueError):
        SpherePoint.from_floats(1.0, 1e-3, 0.0, check_eps=1e-7)


def test_antipode_round_trip(icosi):
    p = icosi.points[3]
    q = p.antipode()
    assert q.antipode() == p
    assert all(abs(a + b) < 1e-15 for a, b in zip(p.floats, q.floats))
    assert q.is_exact


def _merged_by_brute_force(nodes, groups):
    classes = [{u} for u in nodes]
    for group in groups:
        hit = [c for c in classes if c & set(group)]
        classes = [c for c in classes if not c & set(group)]
        classes.append(set().union(*hit))
    # disjoint classes: ordering the sorted lists orders them by smallest member
    return sorted(sorted(c) for c in classes)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_components_match_a_brute_force_merge(seed):
    rng = random.Random(seed)
    nodes = rng.sample(range(60), rng.randint(1, 30))
    groups = [
        rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
        for _ in range(rng.randint(0, 25))
    ]
    assert components(nodes, groups) == _merged_by_brute_force(nodes, groups)


def test_components_keep_nodes_in_no_group():
    assert components(range(5), [(3, 1)]) == [[0], [1, 3], [2], [4]]
    assert components(range(3), []) == [[0], [1], [2]]
    assert components((), []) == []


def test_components_are_ordered_by_smallest_member():
    """The quotient numbers its reps in this order, and
    ``largest_connected_component`` keeps the first of equally large
    classes, which is the one holding the smallest node."""
    comps = components([9, 5, 2, 7, 0], [(9, 2), (7, 5, 0)])
    assert comps == [[0, 5, 7], [2, 9]]
    tied = components(range(6), [(5, 4), (3, 1)])
    assert tied == [[0], [1, 3], [2], [4, 5]]
    assert max(tied, key=len) == [1, 3]


def test_dedup_points_merges_close_floats():
    a = SpherePoint.from_floats(1.0, 0.0, 0.0)
    b = SpherePoint.from_floats(1.0 + 1e-12, 0.0, 0.0)
    c = SpherePoint.from_floats(0.0, 1.0, 0.0)
    ps = dedup_points((a, b, c))
    assert ps.n_points == 2
    # first-seen representative wins
    assert ps.points[0] == a


def test_dedup_points_exact_mode(icosi):
    doubled = icosi.points + icosi.points
    ps = dedup_points(doubled)
    assert ps.n_points == 30


def test_dedup_points_exact_and_shadows_keep_the_same_points(icosi):
    """Exact equality and the float tolerance merge the same points of a
    list holding every vertex twice: as itself, then as the negation of
    its antipodal vertex, whose shadow may differ in the last bits."""
    exact = icosi.points + tuple(p.antipode() for p in icosi.points)
    shadows = tuple(SpherePoint.from_floats(*p.floats) for p in exact)
    kept_exact = dedup_points(exact).points
    kept_float = dedup_points(shadows).points
    assert len(kept_exact) == 30
    assert [p.floats for p in kept_exact] == [p.floats for p in kept_float]


def test_searches_reach_past_the_target_cell():
    """Matches within EPSILON whose float shadows straddle a grid cell
    boundary are found by all three searches."""
    edge = math.floor(0.5 / _CELL_SIDE) * _CELL_SIDE  # a cell boundary
    below, above = edge - 0.3 * EPSILON, edge + 0.3 * EPSILON
    assert math.floor(below / _CELL_SIDE) != math.floor(above / _CELL_SIDE)
    dup = (
        SpherePoint.from_floats(below, 0.6, 0.8),
        SpherePoint.from_floats(above, 0.6, 0.8),
    )
    assert dedup_points(dup).n_points == 1
    pair = PointSet((dup[0], dup[1].antipode()))
    assert antipode_map(pair) == {0: 1, 1: 0}
    triple = PointSet(
        (
            SpherePoint.from_floats(above, 0.6, 0.8),
            SpherePoint.from_floats(0.0, -0.6, -0.8),
            SpherePoint.from_floats(-below, 0.0, 0.0),
        )
    )
    assert find_zero_sum_triples(triple) == ((0, 1, 2),)


def _within(points, target, reach):
    return {
        i
        for i, p in enumerate(points)
        if all(abs(v - w) <= reach for v, w in zip(p.floats, target))
    }


def _cells(values):
    return {math.floor(v / _CELL_SIDE) for v in values}


def test_shadow_grid_reaches_across_a_cell_edge(icosi):
    """Targets whose probe box straddles a cell edge get every point
    within reach: SHADOW_TOLERANCE for an exact set, EPSILON for a
    float set."""
    # icosi's axis points have shadow coordinates 0.0, on the edge between
    # cells -1 and 0; a target 1e-13 below it lies in cell -1
    near = _shadow_grid(icosi.points, True)
    straddled = 0
    for i, p in enumerate(icosi.points[:6]):
        for shift in itertools.product((-1e-13, 0.0, 1e-13), repeat=3):
            target = tuple(v + d for v, d in zip(p.floats, shift))
            got = near(target)
            assert _within(icosi.points, target, SHADOW_TOLERANCE) == {i}
            assert i in got
            straddled += _cells(target) != _cells(p.floats)
    assert straddled > 0
    # a float cloud scattered within 2 EPSILON of a target beside an edge
    rng = random.Random(3)
    edge = math.floor(0.5 / _CELL_SIDE) * _CELL_SIDE
    target = (edge - 0.3 * EPSILON, edge + 0.2 * EPSILON, 0.7)
    cloud = tuple(
        SpherePoint.from_floats(*(v + rng.uniform(-2, 2) * EPSILON for v in target))
        for _ in range(300)
    )
    reached = _within(cloud, target, EPSILON)
    assert len(_cells(cloud[i].floats[0] for i in reached)) > 1
    assert reached <= set(_shadow_grid(cloud, False)(target))


def test_small_circle_intersection_gives_two_points_or_raises(icosi):
    i, j = icosidodecahedron_distance_pairs(icosi)[0]
    p, q = icosi.points[i], icosi.points[j]
    half = Fraction(-1, 2)
    x, y = small_circle_intersection(p, q, half)
    assert x.exact != y.exact
    for point in (x, y):
        assert exact_dot(point, p) == half and exact_dot(point, q) == half
    with pytest.raises(ValueError):
        small_circle_intersection(p, p, half)  # parallel: p itself
    with pytest.raises(ValueError):
        small_circle_intersection(p, p.antipode(), half)  # parallel: antipode
    with pytest.raises(ValueError):
        # discriminant -1/(1+c)^2: the circles at height -1 are disjoint
        small_circle_intersection(p, q, Fraction(-1))


def test_dedup_points_rejects_mixed_modes(icosi):
    mixed = (icosi.points[0], SpherePoint.from_floats(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        dedup_points(mixed)


def test_pointset_rejects_malformed_triples():
    pts = tuple(
        SpherePoint.from_floats(*v) for v in _planted_triple(random.Random(1))
    )
    with pytest.raises(ValueError):
        PointSet(pts, triples=((0, 1, 5),))
    with pytest.raises(ValueError):
        PointSet(pts, triples=((0, 1, 1),))


def test_pointset_degrees(icosi):
    deg = icosi.degrees()
    assert len(deg) == 30
    assert set(deg) == {2}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_planted_triples_always_found(seed):
    rng = random.Random(seed)
    pts = tuple(SpherePoint.from_floats(*v) for v in _planted_triple(rng))
    assert find_zero_sum_triples(PointSet(pts)) == ((0, 1, 2),)
