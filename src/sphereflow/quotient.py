"""Antipodal quotients of sphere point sets and their cubic graphs.

A point set closed under x -> -x collapses to one representative per
antipodal pair.  Each zero-sum triple survives as an "oriented triple"
recording, for every member, which representative it is and with which
sign.  Shared representatives between triples induce small cubic graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .geometry import DEFAULT_CONFIG, GeometryConfig, PointSet, SpherePoint

__all__ = [
    "AntipodalQuotient",
    "QuotientGraph",
    "StructureError",
    "antipode_map",
    "classify_edge_orbits",
    "extract_cubic_graph",
    "is_isomorphic_to",
    "moebius_ladder_10",
    "petersen_graph",
    "quotient_antipodal",
]


class StructureError(ValueError):
    """A combinatorial invariant of the quotient structure failed."""


OrientedMember = tuple[int, int]
OrientedTriple = tuple[OrientedMember, OrientedMember, OrientedMember]


@dataclass(frozen=True)
class AntipodalQuotient:
    """Point set modulo the antipodal map.

    ``orientation[i]`` gives ``(rep, sign)`` with point i equal to
    sign * representatives[rep].  Antipodal mirror triples are kept as
    distinct oriented triples because they encode the same sum constraint
    only up to global negation; ``triple_classes`` groups each mirror
    pair (or unpaired triple) into one class for graph extraction.
    """

    representatives: tuple[SpherePoint, ...]
    orientation: tuple[OrientedMember, ...]
    oriented_triples: tuple[OrientedTriple, ...]
    triple_classes: tuple[tuple[int, ...], ...]

    @property
    def n_reps(self) -> int:
        return len(self.representatives)

    @property
    def n_classes(self) -> int:
        return len(self.triple_classes)

    def reps_of_triple(self, triple_id: int) -> tuple[int, int, int]:
        (r1, _), (r2, _), (r3, _) = self.oriented_triples[triple_id]
        return (r1, r2, r3)

    def reps_of_class(self, class_id: int) -> tuple[int, int, int]:
        return self.reps_of_triple(self.triple_classes[class_id][0])


def antipode_map(
    ps: PointSet, config: GeometryConfig = DEFAULT_CONFIG
) -> dict[int, int]:
    """Map each point index to the index of its antipode in the set.

    Exact point sets match by hashing the negated coordinates.  Float
    point sets take the first index within epsilon of the negation in
    every coordinate.  Raises StructureError when a point has none.
    """
    if ps.all_exact:
        index = {p.exact: i for i, p in enumerate(ps.points)}

        def find(p: SpherePoint) -> Optional[int]:
            return index.get(tuple(-c for c in p.exact))

    else:
        eps = config.epsilon
        floats = [p.floats for p in ps.points]

        def find(p: SpherePoint) -> Optional[int]:
            px, py, pz = p.floats
            for j, (qx, qy, qz) in enumerate(floats):
                if abs(px + qx) <= eps and abs(py + qy) <= eps and abs(pz + qz) <= eps:
                    return j
            return None

    out = {}
    for i, p in enumerate(ps.points):
        j = find(p)
        if j is None:
            raise StructureError(f"point {i} has no antipode in the set")
        out[i] = j
    return out


def _points_positively_oriented(p: SpherePoint, config: GeometryConfig) -> bool:
    """True when the first nonzero coordinate of p is positive."""
    if p.exact is not None:
        for c in p.exact:
            s = c.sign()
            if s != 0:
                return s > 0
        raise StructureError("zero vector cannot be oriented")
    for c in p.floats:
        if abs(c) > config.epsilon:
            return c > 0
    raise StructureError("zero vector cannot be oriented")


def quotient_antipodal(
    ps: PointSet, config: GeometryConfig = DEFAULT_CONFIG
) -> AntipodalQuotient:
    """Collapse an antipode-closed point set to pair representatives.

    The representative of a pair is the member whose first nonzero
    coordinate is positive.  Representatives are ordered by the smaller
    original index of their pair, so the quotient is deterministic for a
    fixed point order.
    """
    anti = antipode_map(ps, config)
    for i, j in anti.items():
        if i == j:
            raise StructureError(f"point {i} is its own antipode")
    rep_of: dict[int, int] = {}
    sign_of: dict[int, int] = {}
    reps: list[SpherePoint] = []
    for i in range(ps.n_points):
        if i in rep_of:
            continue
        j = anti[i]
        chosen = i if _points_positively_oriented(ps.points[i], config) else j
        r = len(reps)
        reps.append(ps.points[chosen])
        rep_of[i] = rep_of[j] = r
        sign_of[chosen] = 1
        sign_of[i if chosen == j else j] = -1
    oriented: list[OrientedTriple] = []
    for t in ps.triples:
        members = tuple(
            sorted(((rep_of[i], sign_of[i]) for i in t), key=lambda m: m[0])
        )
        touched = {r for r, _ in members}
        if len(touched) != 3:
            raise StructureError(
                f"triple {t} references an antipodal pair twice"
            )
        oriented.append(members)  # type: ignore[arg-type]
    # Mirror triples share reps and have globally opposite signs; collapse
    # each such pair into one class.
    class_ids: dict[tuple, int] = {}
    classes: list[list[int]] = []
    for tid, members in enumerate(oriented):
        reps_part = tuple(r for r, _ in members)
        signs = tuple(s for _, s in members)
        key = (reps_part, min(signs, tuple(-s for s in signs)))
        cid = class_ids.setdefault(key, len(classes))
        if cid == len(classes):
            classes.append([])
        classes[cid].append(tid)
    orientation = tuple((rep_of[i], sign_of[i]) for i in range(ps.n_points))
    return AntipodalQuotient(
        representatives=tuple(reps),
        orientation=orientation,
        oriented_triples=tuple(oriented),
        triple_classes=tuple(tuple(c) for c in classes),
    )


@dataclass(frozen=True)
class QuotientGraph:
    """Cubic graph with triple classes as vertices, shared reps as edges.

    Edges carry the representative index they came from (-1 for the
    hardcoded reference graphs).
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(nb) for v, nb in adj.items()}


def extract_cubic_graph(
    q: AntipodalQuotient, class_subset: Sequence[int]
) -> QuotientGraph:
    """Graph on a sub-collection of triple classes joined by shared reps.

    Every representative touched by the subset must lie in exactly two of
    its classes; each such rep becomes one edge.  The result is verified
    to be 3-regular (or empty).
    """
    subset = sorted(set(class_subset))
    touched: dict[int, list[int]] = {}
    for cid in subset:
        for r in q.reps_of_class(cid):
            touched.setdefault(r, []).append(cid)
    bad = sorted(r for r, cids in touched.items() if len(cids) != 2)
    if bad:
        raise StructureError(
            f"reps {bad} do not occur in exactly two classes of the subset"
        )
    edges = tuple(
        (cids[0], cids[1], r) for r, cids in sorted(touched.items())
    )
    graph = QuotientGraph(vertices=tuple(subset), edges=edges)
    degree: dict[int, int] = {v: 0 for v in subset}
    for a, b, _ in edges:
        if a == b:
            raise StructureError(f"self-loop at triple class {a}")
        degree[a] += 1
        degree[b] += 1
    if subset and any(degree[v] != 3 for v in subset):
        raise StructureError(f"graph is not cubic: degrees {degree}")
    return graph


def petersen_graph() -> QuotientGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5, -1))
        edges.append((5 + i, 5 + (i + 2) % 5, -1))
        edges.append((i, 5 + i, -1))
    return QuotientGraph(vertices=tuple(range(10)), edges=tuple(edges))


def moebius_ladder_10() -> QuotientGraph:
    """10-cycle 0..9 with the five long chords i -- i+5."""
    edges = [(i, (i + 1) % 10, -1) for i in range(10)]
    edges += [(i, i + 5, -1) for i in range(5)]
    return QuotientGraph(vertices=tuple(range(10)), edges=tuple(edges))


def is_isomorphic_to(g: QuotientGraph, reference: QuotientGraph) -> bool:
    """Exact isomorphism check by backtracking; intended for <= 12 vertices."""
    if g.n_vertices != reference.n_vertices or g.n_edges != reference.n_edges:
        return False
    if g.n_vertices > 12:
        raise ValueError("isomorphism check is limited to 12 vertices")
    adj_g = g.adjacency()
    adj_r = reference.adjacency()
    deg_g = sorted(len(nb) for nb in adj_g.values())
    deg_r = sorted(len(nb) for nb in adj_r.values())
    if deg_g != deg_r:
        return False
    gs = list(adj_g)
    rs = list(adj_r)

    def extend(mapping: dict[int, int], used: set[int]) -> bool:
        if len(mapping) == len(gs):
            return True
        v = gs[len(mapping)]
        for w in rs:
            if w in used or len(adj_g[v]) != len(adj_r[w]):
                continue
            ok = True
            for u in adj_g[v]:
                if u in mapping and mapping[u] not in adj_r[w]:
                    ok = False
                    break
            for u, mu in mapping.items():
                if u not in adj_g[v] and mu in adj_r[w]:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(mapping, used):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend({}, set())


@dataclass(frozen=True)
class EdgeOrbitPartition:
    """Reps split by which triple families use them."""

    old_only: tuple[int, ...]
    new_only: tuple[int, ...]
    shared: tuple[int, ...]


def _is_perfect_matching(graph: QuotientGraph, reps: Iterable[int]) -> bool:
    chosen = [e for e in graph.edges if e[2] in set(reps)]
    covered: list[int] = []
    for a, b, _ in chosen:
        covered.extend((a, b))
    return sorted(covered) == sorted(graph.vertices)


def classify_edge_orbits(
    q: AntipodalQuotient
) -> tuple[EdgeOrbitPartition, QuotientGraph, QuotientGraph]:
    """Partition reps of the 50-point quotient by old/new triple usage.

    Old triple classes are those all of whose reps index antipodal pairs
    of the 30 icosidodecahedron vertices, which come first.  Returns the
    partition together with the two extracted cubic graphs (old classes,
    new classes).  The partition must have sizes (10, 10, 5) and the
    shared reps must form a perfect matching in both graphs.
    """
    n_old_reps = 15
    old_classes = [
        cid
        for cid in range(q.n_classes)
        if all(r < n_old_reps for r in q.reps_of_class(cid))
    ]
    new_classes = [
        cid for cid in range(q.n_classes) if cid not in set(old_classes)
    ]
    in_old: set[int] = set()
    for cid in old_classes:
        in_old.update(q.reps_of_class(cid))
    in_new: set[int] = set()
    for cid in new_classes:
        in_new.update(q.reps_of_class(cid))
    partition = EdgeOrbitPartition(
        old_only=tuple(sorted(in_old - in_new)),
        new_only=tuple(sorted(in_new - in_old)),
        shared=tuple(sorted(in_old & in_new)),
    )
    sizes = (
        len(partition.old_only),
        len(partition.new_only),
        len(partition.shared),
    )
    if sizes != (10, 10, 5):
        raise StructureError(f"unexpected edge-orbit sizes {sizes}")
    old_graph = extract_cubic_graph(q, old_classes)
    new_graph = extract_cubic_graph(q, new_classes)
    if not _is_perfect_matching(old_graph, partition.shared):
        raise StructureError("shared reps are not a perfect matching (old graph)")
    if not _is_perfect_matching(new_graph, partition.shared):
        raise StructureError("shared reps are not a perfect matching (new graph)")
    return partition, old_graph, new_graph
