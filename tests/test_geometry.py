"""Geometry layer: sphere points, dot products, zero-sum triple search."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereflow.field import F1
from sphereflow.geometry import (
    DEFAULT_CONFIG,
    PointSet,
    SpherePoint,
    dedup_points,
    exact_dot,
    find_zero_sum_triples,
    find_zero_sum_triples_brute,
)


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


def test_triple_search_exact_matches_brute(icosi):
    assert set(find_zero_sum_triples(icosi)) == set(
        find_zero_sum_triples_brute(icosi)
    )


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


def test_dedup_points_merges_close_floats():
    a = SpherePoint.from_floats(1.0, 0.0, 0.0)
    b = SpherePoint.from_floats(1.0 + 1e-12, 0.0, 0.0)
    c = SpherePoint.from_floats(0.0, 1.0, 0.0)
    ps = dedup_points((a, b, c), DEFAULT_CONFIG)
    assert ps.n_points == 2
    # first-seen representative wins
    assert ps.points[0] == a


def test_dedup_points_exact_mode(icosi):
    doubled = icosi.points + icosi.points
    ps = dedup_points(doubled)
    assert ps.n_points == 30


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
