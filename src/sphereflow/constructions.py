"""The bundled sphere configurations and their pruning pipelines.

Three configurations are built here:

* the icosidodecahedron (30 vertices, 20 zero-sum triples);
* its expansion by small-circle intersections at height -1/2 over all
  vertex pairs two decagon steps apart (50 points, 40 triples);
* a search-generated configuration over Q(sqrt(sqrt(3)-1)) that is
  degree-pruned and then greedily minimized under an UNSAT constraint.

Every published count is asserted as a self-check at build time; a
failed count raises ConstructionError rather than returning quietly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .field import F1, F2, FieldElement, field_sqrt
from .geometry import (
    DEFAULT_CONFIG,
    GeometryConfig,
    PointSet,
    SpherePoint,
    Triple,
    dedup_points,
    exact_dot,
    find_zero_sum_triples,
    small_circle_intersection,
)
from .flows import encode_triples
from .quotient import antipode_map, quotient_antipodal
from .solver import sat_solve as sat_solve_cdcl


class ConstructionError(RuntimeError):
    """A construction self-check (published count) failed."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ConstructionError(f"construction self-check failed: {what}")


def _components(
    nodes: Iterable[int],
    neighbours: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
) -> list[list[int]]:
    """Connected components as sorted lists, ordered by smallest member.

    ``neighbours[u]`` lists the nodes adjacent to node u.
    """
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in sorted(nodes):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in neighbours[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


# -- shared exact constants ---------------------------------------------------

GOLDEN_RATIO = (F1.one + F1.t**2) / 2  # (1 + sqrt5)/2
SQRT5 = F1.t**2
COS_2PI_5 = (SQRT5 - 1) / 4  # cos of two decagon steps
COS_PI_5 = (SQRT5 + 1) / 4
X_UNIT = 2 * F1.t**3 / 5  # 2 / 5^(1/4)
Y_UNIT = X_UNIT * GOLDEN_RATIO

SQRT3 = F2.t**2 + 1


# ---------------------------------------------------------------------------
# icosidodecahedron
# ---------------------------------------------------------------------------


def build_icosidodecahedron() -> PointSet:
    """All even permutations of (0,0,+-1) and (+-(phi-1)/2, +-1/2, +-phi/2)."""
    zero, one = F1.zero, F1.one
    half = F1.from_rational(Fraction(1, 2))
    a = (GOLDEN_RATIO - 1) / 2
    c = GOLDEN_RATIO / 2
    bases: list[tuple[FieldElement, FieldElement, FieldElement]] = [
        (zero, zero, one),
        (zero, zero, -one),
    ]
    for s1, s2, s3 in itertools.product((1, -1), repeat=3):
        bases.append((s1 * a, s2 * half, s3 * c))
    coords = []
    for x, y, z in bases:
        coords.extend([(x, y, z), (y, z, x), (z, x, y)])  # even permutations
    pts = [SpherePoint.from_exact(c) for c in coords]
    ps = dedup_points(pts)
    _require(ps.n_points == 30, f"expected 30 vertices, got {ps.n_points}")
    triples = find_zero_sum_triples(ps)
    _require(len(triples) == 20, f"expected 20 triples, got {len(triples)}")
    ps = ps.with_triples(triples)
    deg = ps.degrees()
    _require(all(d == 2 for d in deg), "every vertex must lie in exactly 2 triples")
    return ps


def icosidodecahedron_distance_pairs(ps: PointSet) -> tuple[tuple[int, int], ...]:
    """Unordered vertex pairs two decagon steps apart (dot = (sqrt5-1)/4)."""
    out = []
    for i in range(ps.n_points):
        for j in range(i + 1, ps.n_points):
            if exact_dot(ps.points[i], ps.points[j]) == COS_2PI_5:
                out.append((i, j))
    return tuple(out)


# ---------------------------------------------------------------------------
# first expansion: small circles at height -1/2
# ---------------------------------------------------------------------------


def symmetric_expansion() -> PointSet:
    """Intersect all height -1/2 small-circle pairs over close vertex pairs.

    For every vertex pair at spherical distance 2*pi/5, the planes
    <x,p> = <x,q> = -1/2 cut the sphere in two points.  All 120 outputs are
    distinct and new, giving 150 points with 140 zero-sum triples.  Every
    mixed triple joins one vertex to two expansion points on its circle.
    """
    icosi = build_icosidodecahedron()
    pairs = icosidodecahedron_distance_pairs(icosi)
    _require(len(pairs) == 60, f"expected 60 close pairs, got {len(pairs)}")
    raw: list[SpherePoint] = list(icosi.points)
    for i, j in pairs:
        pts = small_circle_intersection(
            icosi.points[i], icosi.points[j], Fraction(-1, 2)
        )
        _require(len(pts) == 2, "each close pair must give two intersections")
        raw.extend(pts)
    ps = dedup_points(raw)
    _require(ps.n_points == 150, f"expected 150 points, got {ps.n_points}")
    triples = find_zero_sum_triples(ps)
    _require(len(triples) == 140, f"expected 140 triples, got {len(triples)}")
    _require(
        set(icosi.triples) <= set(triples), "original triples must be preserved"
    )
    return ps.with_triples(triples)


def _partner_components(ps: PointSet, n_old: int) -> list[frozenset[int]]:
    """Components of the partner graph on expansion points.

    Two expansion points are partners when some triple contains both.  A
    subset of expansion points supports a closed family of mixed triples
    exactly when it is a union of these components, so they are the atoms
    any selection must be built from.
    """
    adj: dict[int, set[int]] = {}
    for t in ps.triples:
        fresh = [i for i in t if i >= n_old]
        if not fresh:
            continue
        _require(
            len(fresh) == 2,
            "each mixed triple must contain exactly two expansion points",
        )
        a, b = fresh
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return [frozenset(c) for c in _components(adj, adj)]


def build_first_expansion() -> PointSet:
    """Build the 50-point counterexample from the icosidodecahedron.

    The symmetric expansion has 150 points, too many: the target keeps the
    30 vertices plus a closed sub-family of 20 intersection points.  The
    partner graph on the 120 expansion points splits into twelve components
    of ten, each supported on five vertex circles, and antipody permutes
    them.  Keeping the first component together with its antipodal mirror
    yields 50 points, 40 triples and 25 antipodal pairs; every expansion
    point stays in both of its triples, so no zero-sum relation is cut.
    """
    full = symmetric_expansion()
    n_old = 30
    comps = _partner_components(full, n_old)
    _require(
        len(comps) == 12 and all(len(c) == 10 for c in comps),
        "expected twelve partner components of ten points",
    )
    anti = antipode_map(full)
    first = comps[0]
    mirror = frozenset(anti[i] for i in first)
    _require(mirror in comps, "antipodal mirror must itself be a component")
    _require(not (first & mirror), "component must not meet its mirror")
    keep = sorted(set(range(n_old)) | first | mirror)
    ps = _select_points(full, keep)
    triples = find_zero_sum_triples(ps)
    _require(len(triples) == 40, f"expected 40 triples, got {len(triples)}")
    old = {t for t in triples if all(i < n_old for i in t)}
    _require(len(old) == 20, "original triples must be preserved")
    ps = ps.with_triples(triples)
    _require(count_antipodal_pairs(ps) == 25, "expected 25 antipodal pairs")
    return ps


def count_antipodal_pairs(ps: PointSet) -> int:
    """Number of antipodal point pairs; raises if the set is not closed."""
    if not ps.all_exact:
        raise ValueError("count_antipodal_pairs expects an exact point set")
    return len(antipode_map(ps)) // 2


def radius2_integer_decomposition(e: FieldElement) -> Optional[tuple[int, int, int, int]]:
    """Write e as an integer combination of 1, phi, x, y, or None.

    Here phi is the golden ratio, x = 2/5^(1/4) and y = x*phi.  The four
    elements form a Q-basis of the field, so the decomposition is unique;
    only integrality can fail.
    """
    c0, c1, c2, c3 = e.coeffs
    # 1 -> (1,0,0,0); phi -> (1/2,0,1/2,0); x -> (0,0,0,2/5); y -> (0,1,0,1/5)
    b = 2 * c2
    a = c0 - c2
    d = c1
    cc = (5 * c3 - c1) / 2
    for v in (a, b, cc, d):
        if v.denominator != 1:
            return None
    check = (
        F1.from_rational(a)
        + b * GOLDEN_RATIO
        + cc * X_UNIT
        + d * Y_UNIT
    )
    assert check == e
    return (int(a), int(b), int(cc), int(d))


# ---------------------------------------------------------------------------
# second construction: candidate coordinates over Q(sqrt(sqrt(3)-1))
# ---------------------------------------------------------------------------


# The survey grid c = |w1*sqrt(v1) + w2*sqrt(v2)|/2 over 0 <= w1 <= w and
# |w2| <= w, recorded as the provenance of a ce2 document.  Only these
# values yield the 210-point, 116-triple cloud the construction checks.
SURVEY_PARAMETERS = {"v1": 1, "v2": 3, "w": 2}


@dataclass(frozen=True)
class CandidateValue:
    """One surviving coordinate candidate with its float embedding."""

    value: float
    exact: Optional[FieldElement]
    w1: int
    w2: int
    kind: str  # "rat" or "sqrt"


@dataclass(frozen=True)
class CandidateSurvey:
    kept: tuple[CandidateValue, ...]
    dropped: tuple[str, ...]


def candidate_coordinate_survey() -> CandidateSurvey:
    """Evaluate both candidate formulas over the fixed survey grid.

    c_rat = |w1 + w2*sqrt3|/2 for 0 <= w1 <= 2 and |w2| <= 2 (the grid
    of SURVEY_PARAMETERS) is computed exactly in Q(sqrt3).  c_sqrt =
    sqrt(c_rat) is kept exact when the square root exists in the field;
    otherwise the candidate survives as a float-only value and is
    reported in `dropped` so the final configuration can be checked
    against it later.  Values > 1 are discarded, and the survivors are
    deduplicated and sorted ascending.
    """
    kept: list[CandidateValue] = []
    dropped: list[str] = []
    seen_exact: set[FieldElement] = set()
    seen_float: list[float] = []

    def add(value: float, exact: Optional[FieldElement], w1: int, w2: int, kind: str) -> None:
        if exact is not None:
            if exact in seen_exact:
                return
            seen_exact.add(exact)
        else:
            if any(abs(value - v) <= 1e-12 for v in seen_float):
                return
        seen_float.append(value)
        kept.append(CandidateValue(value, exact, w1, w2, kind))

    w = SURVEY_PARAMETERS["w"]
    for w1 in range(0, w + 1):
        for w2 in range(-w, w + 1):
            base = w1 + w2 * SQRT3
            if base.sign() < 0:
                base = -base
            c_rat = base / 2
            if (c_rat - 1).sign() > 0:
                continue
            add(c_rat.to_float(), c_rat, w1, w2, "rat")
            c_sqrt = field_sqrt(c_rat)
            if c_sqrt is not None:
                add(c_sqrt.to_float(), c_sqrt, w1, w2, "sqrt")
            else:
                value = math.sqrt(c_rat.to_float())
                add(value, None, w1, w2, "sqrt")
                dropped.append(
                    f"sqrt branch at (w1={w1}, w2={w2}): square root of "
                    f"{c_rat.coeffs} is not in the field; kept as float only"
                )
    kept.sort(key=lambda c: c.value)
    return CandidateSurvey(tuple(kept), tuple(dropped))


def candidate_coordinates() -> list[FieldElement]:
    """The exactly representable candidate coordinate values, ascending."""
    survey = candidate_coordinate_survey()
    return [c.exact for c in survey.kept if c.exact is not None]


def generate_candidate_points_float(
    values: Sequence[float], cfg: GeometryConfig = DEFAULT_CONFIG
) -> PointSet:
    """On-sphere float points from candidate values (no triples yet).

    Takes every multiset {c1, c2, c3} of candidate values with
    c1^2 + c2^2 + c3^2 = 1 within epsilon and expands it through all
    coordinate permutations and sign choices, merging duplicates within
    epsilon.
    """
    hits = [
        (a, b, c)
        for a, b, c in itertools.combinations_with_replacement(sorted(values), 3)
        if abs(a * a + b * b + c * c - 1.0) <= cfg.epsilon
    ]
    raw = [
        SpherePoint.from_floats(*(vals[p] * s for p, s in zip(perm, signs)))
        for vals in hits
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    return dedup_points(raw, cfg)


# ---------------------------------------------------------------------------
# pruning pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruneReport:
    """Per-round removal counts (points_removed, triples_removed)."""

    rounds: tuple[tuple[int, int], ...]
    final_points: int
    final_triples: int


def _select_points(ps: PointSet, keep: Sequence[int]) -> PointSet:
    keep = list(keep)
    remap = {old: new for new, old in enumerate(keep)}
    pts = tuple(ps.points[i] for i in keep)
    triples = tuple(
        tuple(sorted(remap[i] for i in t))
        for t in ps.triples
        if all(i in remap for i in t)
    )
    return PointSet(pts, tuple(sorted(triples)), ps.diagnostics)


def _degree_prune(
    points: Iterable[int],
    triples: Sequence[Triple],
    partner: Optional[Mapping[int, int]] = None,
) -> tuple[list[int], list[Triple], list[tuple[int, int]]]:
    """Drop triples with >= 2 degree-1 members, then points left unused.

    Each round works from a degree snapshot, removes all qualifying
    triples at once, then deletes the points no remaining triple uses.
    With a partner map a point also stays while its partner is still
    used, so antipodal pairs survive together.  A weak triple stays weak
    as others go, so the surviving triples do not depend on the removal
    order.  Returns the surviving points and triples, in input order, and
    the (points, triples) removed in each non-empty round.
    """
    alive = list(points)
    triples = list(triples)
    rounds: list[tuple[int, int]] = []
    while True:
        deg: dict[int, int] = dict.fromkeys(alive, 0)
        for t in triples:
            for i in t:
                deg[i] += 1
        kept = [t for t in triples if sum(1 for i in t if deg[i] == 1) < 2]
        used = {i for t in kept for i in t}
        survivors = [
            i
            for i in alive
            if i in used or (partner is not None and partner[i] in used)
        ]
        if len(kept) == len(triples) and len(survivors) == len(alive):
            return alive, triples, rounds
        rounds.append((len(alive) - len(survivors), len(triples) - len(kept)))
        alive, triples = survivors, kept


def prune_low_degree(ps: PointSet) -> tuple[PointSet, PruneReport]:
    """Iteratively drop triples with >= 2 degree-1 members, then loose points.

    Runs ``_degree_prune`` without a partner map; the report holds one
    (points removed, triples removed) entry per round.  Idempotent once
    it reports an empty round.
    """
    alive, triples, rounds = _degree_prune(range(ps.n_points), ps.triples)
    kept = _select_points(PointSet(ps.points, tuple(triples)), alive)
    report = PruneReport(tuple(rounds), kept.n_points, len(kept.triples))
    return kept, report


def connected_components(ps: PointSet) -> list[PointSet]:
    """Components under the relation "shares a triple", largest first."""
    adj: list[set[int]] = [set() for _ in range(ps.n_points)]
    for a, b, c in ps.triples:
        adj[a] |= {b, c}
        adj[b] |= {a, c}
        adj[c] |= {a, b}
    comps = _components(range(ps.n_points), adj)
    comps.sort(key=lambda c: (-len(c), c[0]))
    return [_select_points(ps, c) for c in comps]


def largest_connected_component(ps: PointSet) -> PointSet:
    comps = connected_components(ps)
    if not comps:
        raise ValueError("empty point set has no components")
    return comps[0]


# ---------------------------------------------------------------------------
# UNSAT-preserving minimization
# ---------------------------------------------------------------------------


def _labeling_exists(
    ps: PointSet, k: int, config: GeometryConfig = DEFAULT_CONFIG
) -> tuple[bool, tuple[Triple, ...]]:
    """Decide whether a nowhere-zero k-bounded labeling exists.

    Works blockwise: mirror-duplicate constraints are collapsed and the
    representative constraint graph is split into connected blocks, each
    decided by the conflict-learning solver.  When no labeling exists,
    also returns the triples of one refuted block; any point set
    retaining all of them stays unsatisfiable.
    """
    if not ps.triples:
        return True, ()
    q = quotient_antipodal(ps, config)
    class_reps: list[tuple[int, ...]] = [
        q.reps_of_class(cid) for cid in range(q.n_classes)
    ]
    # connected blocks of classes via shared representatives
    by_rep: dict[int, list[int]] = {}
    for cid, reps in enumerate(class_reps):
        for r in reps:
            by_rep.setdefault(r, []).append(cid)
    sharing = [{c for r in reps for c in by_rep[r]} for reps in class_reps]
    blocks = _components(range(q.n_classes), sharing)
    blocks.sort(key=len)
    for block in blocks:
        reps = sorted({r for cid in block for r in class_reps[cid]})
        remap = {r: i for i, r in enumerate(reps)}
        constraints = tuple(
            tuple(
                (remap[r], s)
                for r, s in q.oriented_triples[q.triple_classes[cid][0]]
            )
            for cid in block
        )
        result = sat_solve_cdcl(encode_triples(len(reps), constraints, k))
        if not result.satisfiable:
            core = tuple(
                ps.triples[tid] for cid in block for tid in q.triple_classes[cid]
            )
            return False, core
    return True, ()


def unsat_preserving_prune(
    ps: PointSet, k: int, config: GeometryConfig = DEFAULT_CONFIG
) -> tuple[PointSet, PruneReport]:
    """Greedily shrink a refuting configuration, keeping it refuting.

    Triples are attempted for removal once each, in construction order.
    A candidate step removes the triple, re-applies the degree prune with
    the antipode map as partner map (so every surviving point keeps its
    antipode and the set stays quotientable), and is committed only when
    no k-bounded labeling exists afterwards.  One refuted constraint
    block is cached: steps that do not touch it are committed without a
    fresh search.  A single pass is locally minimal because constraint
    removal can only enlarge the solution set, so a rejected removal
    stays rejected.

    A trailing pass drops antipodal mirror duplicates among the
    surviving triples: a triple and its mirror impose the same quotient
    constraint, so removing one member changes nothing the solver sees.
    Points are never dropped there, keeping the pair structure (and the
    variable count of the encoded instance) intact.
    """
    sat, core = _labeling_exists(ps, k, config)
    if sat:
        raise ValueError(
            f"input admits a labeling at k={k}; nothing to preserve"
        )
    anti = antipode_map(ps, config)

    alive_points = list(range(ps.n_points))
    alive_triples = list(ps.triples)
    core_set = set(core)
    rounds: list[tuple[int, int]] = []

    for candidate in ps.triples:
        if candidate not in alive_triples:
            continue
        trial_points, trial_triples, trial_rounds = _degree_prune(
            alive_points, [t for t in alive_triples if t != candidate], anti
        )
        removed = set(alive_triples) - set(trial_triples)
        if removed & core_set:
            sub = _select_points(ps.with_triples(trial_triples), trial_points)
            sat, sub_core = _labeling_exists(sub, k, config)
            if sat:
                continue
            core_set = {
                tuple(sorted(trial_points[i] for i in t)) for t in sub_core
            }
        alive_points = trial_points
        alive_triples = trial_triples
        rounds.append((sum(p for p, _ in trial_rounds), len(removed)))

    seen: set[Triple] = set()
    deduped: list[Triple] = []
    for t in alive_triples:
        mirror: Triple = tuple(sorted(anti[i] for i in t))
        if mirror in seen:
            rounds.append((0, 1))
            continue
        seen.add(t)
        deduped.append(t)

    final = _select_points(ps.with_triples(deduped), alive_points)
    sat, _ = _labeling_exists(final, k, config)
    _require(not sat, "pruned configuration must stay unlabelable")
    report = PruneReport(tuple(rounds), final.n_points, len(final.triples))
    return final, report


def final_coordinate_values() -> tuple[FieldElement, ...]:
    """The seven coordinate magnitudes of the finished second configuration.

    All live in the degree-4 field with sqrt3 = t^2 + 1: zero, (1-t^2)/2,
    t^2/2, 1/2, t itself, (t^2+1)/2 and one.  The eighth exactly
    representable survey value, t^2 (about 0.732), feeds the search but
    never survives pruning.
    """
    t = F2.t
    one = F2.one
    half = F2.from_rational(Fraction(1, 2))
    return (
        F2.zero,
        (one - t * t) * half,
        t * t * half,
        half,
        t,
        (t * t + one) * half,
        one,
    )


def lift_to_exact(
    ps: PointSet,
    coords: Sequence[FieldElement],
    tol: float = 1e-12,
) -> PointSet:
    """Exact twin of a float point set over known coordinate values.

    Every |coordinate| must match one of the given field elements within
    tol (signs carry over).  Zero-sum triples are re-detected from
    scratch on both sides and must agree; the input's selected triple
    list (possibly a pruned subset of the geometric ones) carries over.
    """
    _require(len(coords) > 0, "need candidate values to lift against")
    table = [(abs(c).to_float(), c) for c in coords]

    def lift_one(v: float) -> FieldElement:
        av = abs(v)
        fv, e = min(table, key=lambda pair: abs(pair[0] - av))
        if abs(fv - av) > tol:
            raise ConstructionError(
                f"coordinate {v!r} matches no exact value within {tol}"
            )
        return -e if v < 0 else e

    points = tuple(
        SpherePoint.from_exact(tuple(lift_one(c) for c in p.floats))
        for p in ps.points
    )
    lifted = PointSet(points)
    exact_triples = set(find_zero_sum_triples(lifted))
    float_triples = set(find_zero_sum_triples(PointSet(ps.points)))
    _require(
        exact_triples == float_triples,
        "exact and float zero-sum detection must agree after lifting",
    )
    _require(
        set(ps.triples) <= exact_triples,
        "selected triples must all be exact zero sums",
    )
    return lifted.with_triples(ps.triples)


@dataclass(frozen=True)
class SecondConstruction:
    """Full record of the searched-and-pruned second configuration."""

    survey: CandidateSurvey
    cloud: PointSet
    degree_report: PruneReport
    component: PointSet
    prune_report: PruneReport
    final_float: PointSet
    final: PointSet

    @property
    def n_points(self) -> int:
        return self.final.n_points

    @property
    def n_triples(self) -> int:
        return len(self.final.triples)


def build_second_counterexample(
    config: GeometryConfig = DEFAULT_CONFIG,
) -> SecondConstruction:
    """Search, prune and exactify the second refuting configuration.

    Pipeline: survey the candidate coordinate values, expand them into
    the float point cloud, detect zero-sum triples, degree-prune, take
    the largest connected component, greedily shrink it while it stays
    unlabelable at k=4, then lift the survivors to exact coordinates.
    Every stage is deterministic, so the outcome is reproducible bit for
    bit; the stage invariants below pin the expected shape.
    """
    survey = candidate_coordinate_survey()
    cloud = generate_candidate_points_float(
        [c.value for c in survey.kept], config
    )
    _require(cloud.n_points == 210, "candidate cloud must have 210 points")
    cloud = cloud.with_triples(find_zero_sum_triples(cloud, config))
    _require(len(cloud.triples) == 116, "candidate cloud must carry 116 triples")
    thinned, degree_report = prune_low_degree(cloud)
    component = largest_connected_component(thinned)
    _require(
        component.n_points == 126 and len(component.triples) == 108,
        "largest component must be 126 points / 108 triples",
    )
    final_float, prune_report = unsat_preserving_prune(component, 4, config)
    exact_values = [c.exact for c in survey.kept if c.exact is not None]
    final = lift_to_exact(final_float, exact_values)
    used = {abs(c) for p in final.points for c in (p.exact or ())}
    expected = set(final_coordinate_values())
    _require(
        used == expected,
        "final configuration must use exactly the seven known magnitudes",
    )
    return SecondConstruction(
        survey=survey,
        cloud=cloud,
        degree_report=degree_report,
        component=component,
        prune_report=prune_report,
        final_float=final_float,
        final=final,
    )
