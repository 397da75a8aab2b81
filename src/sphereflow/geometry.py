"""Unit-sphere geometry over exact field coordinates or plain floats.

Every point carries a float shadow, and every point search (zero-sum
triples, duplicates, antipodes) finds its candidates with one probe of
one grid of float shadows.  The mode of the point set, which each
search reads once, sets the probe's reach and the confirm test: exact
sets reach SHADOW_TOLERANCE around the target and confirm each
candidate by exact arithmetic in the field, float sets reach EPSILON
and confirm within EPSILON.  Small-circle intersection is exact only
and returns two points or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .field import FieldElement, Rational, field_sqrt


class StructureError(ValueError):
    """A combinatorial invariant of a point set or its quotient failed."""


# The tolerance of every float comparison and the reach of a float set's
# shadow-grid probe.
EPSILON = 1e-7
# How far a float may sit from the exact value it stands for: a stored
# shadow from its coordinate, a survey float from an earlier candidate, a
# float coordinate from the field element it lifts to.
SHADOW_TOLERANCE = 1e-12

ExactCoords = tuple[FieldElement, FieldElement, FieldElement]
FloatCoords = tuple[float, float, float]


def _clean(v: float) -> float:
    return 0.0 if v == 0 else float(v)


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere; exact coordinates are optional."""

    exact: Optional[ExactCoords]
    floats: FloatCoords

    @classmethod
    def from_exact(cls, coords: Sequence[FieldElement]) -> "SpherePoint":
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("three coordinates required")
        norm = coords[0] * coords[0] + coords[1] * coords[1] + coords[2] * coords[2]
        if norm != coords[0].field.one:
            raise ValueError("exact point is not on the unit sphere")
        floats = tuple(_clean(c.to_float()) for c in coords)
        return cls(exact=coords, floats=floats)  # type: ignore[arg-type]

    @classmethod
    def from_floats(
        cls, x: float, y: float, z: float, check_eps: Optional[float] = None
    ) -> "SpherePoint":
        floats = (_clean(x), _clean(y), _clean(z))
        if check_eps is not None:
            err = abs(sum(c * c for c in floats) - 1.0)
            # overflow gives inf and 0 * inf gives nan; neither passes
            if not err <= check_eps:
                raise ValueError(f"float point off the unit sphere by {err}")
        return cls(exact=None, floats=floats)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def antipode(self) -> "SpherePoint":
        if self.exact is not None:
            return SpherePoint(
                exact=tuple(-c for c in self.exact),  # type: ignore[arg-type]
                floats=tuple(_clean(-v) for v in self.floats),  # type: ignore[arg-type]
            )
        return SpherePoint(exact=None, floats=tuple(_clean(-v) for v in self.floats))  # type: ignore[arg-type]


Triple = tuple[int, int, int]


@dataclass(frozen=True)
class PointSet:
    """An ordered collection of sphere points plus detected index triples."""

    points: tuple[SpherePoint, ...]
    triples: tuple[Triple, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.points)
        seen: set[frozenset[int]] = set()
        for t in self.triples:
            if (
                len(t) != 3
                or not all(type(i) is int and 0 <= i < n for i in t)
                or len(set(t)) != 3
            ):
                raise ValueError(f"malformed triple {t}")
            if frozenset(t) in seen:
                raise ValueError(f"triple {t} repeats an earlier triple")
            seen.add(frozenset(t))

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def all_exact(self) -> bool:
        return all(p.is_exact for p in self.points)

    def with_triples(self, triples: Sequence[Triple]) -> "PointSet":
        return PointSet(self.points, tuple(triples))

    def degrees(self) -> list[int]:
        deg = [0] * len(self.points)
        for t in self.triples:
            for i in t:
                deg[i] += 1
        return deg


# ---------------------------------------------------------------------------
# dot products
# ---------------------------------------------------------------------------


def exact_dot(p: SpherePoint, q: SpherePoint) -> FieldElement:
    if p.exact is None or q.exact is None:
        raise ValueError("exact_dot requires exact points")
    a, b = p.exact, q.exact
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


# ---------------------------------------------------------------------------
# the shadow grid
# ---------------------------------------------------------------------------

# Cells are twice the float reach wide, so a float probe touches at most
# 8 cells and an exact probe nearly always 1.
_CELL_SIDE = 2 * EPSILON


def _cell(v: FloatCoords, shift: float = 0.0) -> tuple[int, int, int]:
    return (
        math.floor((v[0] + shift) / _CELL_SIDE),
        math.floor((v[1] + shift) / _CELL_SIDE),
        math.floor((v[2] + shift) / _CELL_SIDE),
    )


def _shadow_grid(
    points: Sequence[SpherePoint], exact: bool
) -> Callable[[FloatCoords], Sequence[int]]:
    """Index points by float shadow in cubes of side 2*EPSILON.

    Returns ``near(target)``: the indices in every cell that
    target +- reach touches, which holds every point whose shadow is
    within reach of the target in each coordinate.  The reach is EPSILON
    for a float set and SHADOW_TOLERANCE for an all-exact set.  That
    reach suffices because an exact point's shadow comes from to_float,
    which picks its working precision from the coefficient sizes and so
    stays within 2**-64 of every coordinate plus one rounding; every
    exact zero sum, negation or equality has its shadow a few roundings
    from its target, and confirming the candidates exactly misses none
    of them.
    """
    reach = SHADOW_TOLERANCE if exact else EPSILON
    cells: dict[tuple[int, int, int], list[int]] = {}
    for i, p in enumerate(points):
        cells.setdefault(_cell(p.floats), []).append(i)

    def near(target: FloatCoords) -> Sequence[int]:
        lo, hi = _cell(target, -reach), _cell(target, reach)
        if lo == hi:
            return cells.get(lo, ())
        return [
            i
            for x in range(lo[0], hi[0] + 1)
            for y in range(lo[1], hi[1] + 1)
            for z in range(lo[2], hi[2] + 1)
            for i in cells.get((x, y, z), ())
        ]

    return near


def _is_zero_sum(exact: bool, *points: SpherePoint) -> bool:
    """Whether the points sum to zero: in the field when exact, else
    within EPSILON in every coordinate of their float shadows."""
    first, *rest = [p.exact if exact else p.floats for p in points]
    sums = [sum((v[c] for v in rest), first[c]) for c in range(3)]
    if exact:
        return all(s.is_zero for s in sums)
    return all(abs(s) <= EPSILON for s in sums)


# ---------------------------------------------------------------------------
# zero-sum triple detection
# ---------------------------------------------------------------------------


def find_zero_sum_triples(ps: PointSet) -> tuple[Triple, ...]:
    """All index triples i<j<k whose points sum to the zero vector.

    For every pair the shadow grid proposes third points near the
    negated pair sum, and ``_is_zero_sum`` confirms each.  The cost is
    O(n^2) pair enumeration, not the O(n^3) brute force.  Raises
    ValueError on a duplicated exact point.
    """
    pts = ps.points
    exact = ps.all_exact
    near = _shadow_grid(pts, exact)
    if exact:
        for i, p in enumerate(pts):
            for j in near(p.floats):
                if j < i and pts[j].exact == p.exact:
                    raise ValueError(f"duplicate exact point at indices {j} and {i}")
    out = []
    for i, p in enumerate(pts):
        a = p.floats
        for j in range(i + 1, len(pts)):
            b = pts[j].floats
            for k in near((-(a[0] + b[0]), -(a[1] + b[1]), -(a[2] + b[2]))):
                if k > j and _is_zero_sum(exact, p, pts[j], pts[k]):
                    out.append((i, j, k))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# small-circle intersection
# ---------------------------------------------------------------------------


def _cross_exact(a: ExactCoords, b: ExactCoords) -> ExactCoords:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def small_circle_intersection(
    p: SpherePoint, q: SpherePoint, height: Rational
) -> tuple[SpherePoint, SpherePoint]:
    """The two unit vectors x with <x,p> = <x,q> = height, for exact p, q.

    Parameterizes the intersection line of the two planes as
    alpha*(p+q) + gamma*(p x q) and takes the discriminant's square root
    inside the field.  Raises ValueError when p and q are parallel, or
    when that root is zero (tangent circles), negative (disjoint ones) or
    outside the field.
    """
    c = exact_dot(p, q)
    a, b = p.exact, q.exact
    one = c.field.one
    if c == one or c == -one:
        raise ValueError("small circles around parallel points")
    alpha = c.field.element(Fraction(height)) / (one + c)
    # |x|^2 = 2 alpha^2 (1+c) + gamma^2 (1-c^2) = 1
    gamma = field_sqrt((one - 2 * alpha * alpha * (one + c)) / (one - c * c))
    if gamma is None or gamma.is_zero:
        raise ValueError("small circles do not cross in two points of the field")
    mid = tuple(alpha * (a[i] + b[i]) for i in range(3))
    w = _cross_exact(a, b)
    plus = tuple(mid[i] + gamma * w[i] for i in range(3))
    minus = tuple(mid[i] - gamma * w[i] for i in range(3))
    return (SpherePoint.from_exact(plus), SpherePoint.from_exact(minus))


# ---------------------------------------------------------------------------
# grouping and deduplication
# ---------------------------------------------------------------------------


def components(
    nodes: Iterable[int], groups: Iterable[Sequence[int]]
) -> list[list[int]]:
    """Classes joined by the groups: sorted lists, ordered by smallest member.

    Each group (a pair, a triple) puts all its members in one class, and
    a node in no group is a class of its own.  Every member must be one
    of ``nodes``.  Union-find with path halving (Tarjan, JACM 1975).
    """
    parent = {u: u for u in nodes}

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for first, *rest in groups:
        root = find(first)
        for u in rest:
            parent[find(u)] = root
    classes: dict[int, list[int]] = {}
    for u in sorted(parent):
        classes.setdefault(find(u), []).append(u)
    return list(classes.values())


def dedup_points(raw: Sequence[SpherePoint]) -> PointSet:
    """Merge duplicate points, keeping the first-seen representative.

    Candidates come from the shadow grid.  Exact inputs are merged on
    exact coordinate equality, float inputs by transitive closure of
    Euclidean distance <= EPSILON.
    """
    exact = all(p.is_exact for p in raw)
    if not exact and any(p.is_exact for p in raw):
        raise ValueError("dedup_points requires points of a single mode")

    def same(p: SpherePoint, q: SpherePoint) -> bool:
        if exact:
            return p.exact == q.exact
        d2 = sum((x - y) ** 2 for x, y in zip(p.floats, q.floats))
        return d2 <= EPSILON * EPSILON

    near = _shadow_grid(raw, exact)
    duplicates = [
        (j, i)
        for i, p in enumerate(raw)
        for j in near(p.floats)
        if j < i and same(p, raw[j])
    ]
    classes = components(range(len(raw)), duplicates)
    return PointSet(tuple(raw[c[0]] for c in classes))


def antipode_map(ps: PointSet) -> dict[int, int]:
    """Map each point index to the smallest index of its antipode.

    Candidates come from the shadow grid around the negated shadow, and
    ``_is_zero_sum`` confirms each: in the field for an exact set,
    within EPSILON per coordinate for a float set.  Raises
    StructureError when a point has none.
    """
    exact = ps.all_exact
    near = _shadow_grid(ps.points, exact)
    out = {}
    for i, p in enumerate(ps.points):
        hits = [
            j
            for j in near(tuple(-v for v in p.floats))
            if _is_zero_sum(exact, p, ps.points[j])
        ]
        if not hits:
            raise StructureError(f"point {i} has no antipode in the set")
        out[i] = min(hits)
    return out
