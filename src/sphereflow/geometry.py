"""Unit-sphere geometry over exact field coordinates or plain floats.

Detection and deduplication have two modes.  Exact mode works on
points whose coordinates are FieldElements and decides every predicate
with exact arithmetic.  Approximate mode works on float coordinates
with a tolerance epsilon and exists to cross-validate the exact path
(and to drive searches whose intermediate values leave the field).
Small-circle intersection is exact only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .field import FieldElement, Rational, field_sqrt


class DegenerateConfigurationError(ValueError):
    """Raised when an operation receives geometrically degenerate input."""


class ExactnessError(ValueError):
    """Raised when an exact computation would have to leave the field."""


@dataclass(frozen=True)
class GeometryConfig:
    """Tolerance settings for approximate-mode geometry."""

    epsilon: float = 1e-7

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < 1e-2):
            raise ValueError("epsilon must be a small positive number")


DEFAULT_CONFIG = GeometryConfig()

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
            err = abs(floats[0] ** 2 + floats[1] ** 2 + floats[2] ** 2 - 1.0)
            if err > check_eps:
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
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.points)
        for t in self.triples:
            if (
                len(t) != 3
                or not all(isinstance(i, int) and 0 <= i < n for i in t)
                or len(set(t)) != 3
            ):
                raise ValueError(f"malformed triple {t}")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def all_exact(self) -> bool:
        return all(p.is_exact for p in self.points)

    def with_triples(self, triples: Sequence[Triple]) -> "PointSet":
        return PointSet(self.points, tuple(triples), self.diagnostics)

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
# zero-sum triple detection
# ---------------------------------------------------------------------------


def find_zero_sum_triples(
    ps: PointSet, cfg: GeometryConfig = DEFAULT_CONFIG
) -> tuple[Triple, ...]:
    """All index triples i<j<k whose points sum to the zero vector.

    Exact mode resolves the third point by hash lookup of the negated
    pair sum; approximate mode uses an epsilon grid.  Either way the
    cost is O(n^2) pair enumeration, not the O(n^3) brute force.
    """
    pts = ps.points
    if ps.all_exact:
        index: dict[ExactCoords, int] = {}
        for i, p in enumerate(pts):
            key = p.exact
            if key in index:
                raise ValueError(f"duplicate exact point at indices {index[key]} and {i}")
            index[key] = i
        out = []
        for i in range(len(pts)):
            a = pts[i].exact
            for j in range(i + 1, len(pts)):
                b = pts[j].exact
                target = (-(a[0] + b[0]), -(a[1] + b[1]), -(a[2] + b[2]))
                k = index.get(target)
                if k is not None and k > j:
                    out.append((i, j, k))
        return tuple(sorted(out))

    eps = cfg.epsilon
    grid: dict[tuple[int, int, int], list[int]] = {}
    for i, p in enumerate(pts):
        cell = tuple(math.floor(v / eps) for v in p.floats)
        grid.setdefault(cell, []).append(i)
    found = set()
    offsets = [-1, 0, 1]
    for i in range(len(pts)):
        a = pts[i].floats
        for j in range(i + 1, len(pts)):
            b = pts[j].floats
            tx, ty, tz = -(a[0] + b[0]), -(a[1] + b[1]), -(a[2] + b[2])
            cx, cy, cz = math.floor(tx / eps), math.floor(ty / eps), math.floor(tz / eps)
            for ox in offsets:
                for oy in offsets:
                    for oz in offsets:
                        for k in grid.get((cx + ox, cy + oy, cz + oz), ()):
                            if k <= j or k == i:
                                continue
                            c = pts[k].floats
                            if (
                                abs(a[0] + b[0] + c[0]) <= eps
                                and abs(a[1] + b[1] + c[1]) <= eps
                                and abs(a[2] + b[2] + c[2]) <= eps
                            ):
                                found.add((i, j, k))
    return tuple(sorted(found))


def find_zero_sum_triples_brute(
    ps: PointSet, cfg: GeometryConfig = DEFAULT_CONFIG
) -> tuple[Triple, ...]:
    """O(n^3) reference implementation, kept as a test oracle."""
    pts = ps.points
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                if ps.all_exact:
                    s = tuple(
                        pts[i].exact[c] + pts[j].exact[c] + pts[k].exact[c]
                        for c in range(3)
                    )
                    if all(v.is_zero for v in s):
                        out.append((i, j, k))
                else:
                    if all(
                        abs(pts[i].floats[c] + pts[j].floats[c] + pts[k].floats[c])
                        <= cfg.epsilon
                        for c in range(3)
                    ):
                        out.append((i, j, k))
    return tuple(out)


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
) -> tuple[SpherePoint, ...]:
    """Unit vectors x with <x,p> = <x,q> = height, for exact non-parallel p, q.

    Parameterizes the intersection line of the two planes as
    alpha*(p+q) + gamma*(p x q) and takes the discriminant's square root
    inside the field; if that root does not exist in the field the
    operation raises ExactnessError rather than falling back to floats.
    Returns 2, 1 (tangent), or 0 (disjoint) points.
    """
    c = exact_dot(p, q)
    a, b = p.exact, q.exact
    one = c.field.one
    if c == one or c == -one:
        raise DegenerateConfigurationError("small circles around parallel points")
    alpha = c.field.from_rational(Fraction(height)) / (one + c)
    # |x|^2 = 2 alpha^2 (1+c) + gamma^2 (1-c^2) = 1
    gamma2 = (one - 2 * alpha * alpha * (one + c)) / (one - c * c)
    s = gamma2.sign()
    if s < 0:
        return ()
    mid = tuple(alpha * (a[i] + b[i]) for i in range(3))
    if s == 0:
        return (SpherePoint.from_exact(mid),)
    gamma = field_sqrt(gamma2)
    if gamma is None:
        raise ExactnessError(
            "intersection discriminant has no square root in the field"
        )
    w = _cross_exact(a, b)
    plus = tuple(mid[i] + gamma * w[i] for i in range(3))
    minus = tuple(mid[i] - gamma * w[i] for i in range(3))
    return (SpherePoint.from_exact(plus), SpherePoint.from_exact(minus))


# ---------------------------------------------------------------------------
# deduplication
# ---------------------------------------------------------------------------


def dedup_points(
    raw: Sequence[SpherePoint], cfg: GeometryConfig = DEFAULT_CONFIG
) -> PointSet:
    """Merge duplicate points, keeping the first-seen representative.

    Exact inputs are merged on exact coordinate equality.  Float inputs
    are merged by transitive closure of Euclidean distance <= epsilon;
    pairs at distance in (epsilon, 10*epsilon] are reported in the
    diagnostics channel because they sit uncomfortably close to the
    merge threshold.
    """
    if all(p.is_exact for p in raw):
        seen: dict[ExactCoords, int] = {}
        out = []
        for p in raw:
            if p.exact not in seen:
                seen[p.exact] = len(out)
                out.append(p)
        return PointSet(tuple(out))
    if any(p.is_exact for p in raw):
        raise ValueError("dedup_points requires points of a single mode")

    eps = cfg.epsilon
    n = len(raw)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    diagnostics = []
    for i in range(n):
        a = raw[i].floats
        for j in range(i + 1, n):
            b = raw[j].floats
            d2 = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
            if d2 <= eps * eps:
                union(i, j)
            elif d2 <= (10 * eps) ** 2:
                diagnostics.append(
                    f"ambiguous pair: raw points {i} and {j} at distance "
                    f"{math.sqrt(d2):.3e} (between eps and 10*eps)"
                )
    reps = []
    seen_roots: set[int] = set()
    for i in range(n):
        r = find(i)
        if r not in seen_roots:
            seen_roots.add(r)
            reps.append(raw[r])
    return PointSet(tuple(reps), diagnostics=tuple(diagnostics))
