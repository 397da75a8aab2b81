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
    EPSILON,
    SHADOW_TOLERANCE,
    PointSet,
    SpherePoint,
    Triple,
    antipode_map,
    components,
    dedup_points,
    exact_dot,
    find_zero_sum_triples,
    small_circle_intersection,
)
from .flows import FlowInstance, class_refuter, decide_labeling
from .quotient import quotient_antipodal
from .solver import sat_solve as sat_solve_cdcl


class ConstructionError(RuntimeError):
    """A construction self-check (published count) failed."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ConstructionError(f"construction self-check failed: {what}")


# -- shared exact constants ---------------------------------------------------

GOLDEN_RATIO = (F1.one + F1.t**2) / 2  # (1 + sqrt5)/2
SQRT5 = F1.t**2
COS_2PI_5 = (SQRT5 - 1) / 4  # cos of two decagon steps

SQRT3 = F2.t**2 + 1


# ---------------------------------------------------------------------------
# icosidodecahedron
# ---------------------------------------------------------------------------


def build_icosidodecahedron() -> PointSet:
    """All even permutations of (0,0,+-1) and (+-(phi-1)/2, +-1/2, +-phi/2)."""
    zero, one = F1.zero, F1.one
    half = F1.element(Fraction(1, 2))
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
    pairs = [[i for i in t if i >= n_old] for t in ps.triples]
    pairs = [p for p in pairs if p]
    _require(
        all(len(p) == 2 for p in pairs),
        "each mixed triple must contain exactly two expansion points",
    )
    nodes = {i for p in pairs for i in p}
    return [frozenset(c) for c in components(nodes, pairs)]


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
    # The kept points' zero-sum triples are exactly the full set's
    # triples among them, which _select_points carries over.
    ps = _select_points(full, sorted(set(range(n_old)) | first | mirror))
    n_triples = len(ps.triples)
    _require(n_triples == 40, f"expected 40 triples, got {n_triples}")
    old = {t for t in ps.triples if all(i < n_old for i in t)}
    _require(len(old) == 20, "original triples must be preserved")
    n_pairs = quotient_antipodal(ps).n_reps
    _require(n_pairs == 25, f"expected 25 antipodal pairs, got {n_pairs}")
    return ps


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


def candidate_coordinate_survey() -> tuple[CandidateValue, ...]:
    """Evaluate both candidate formulas over the fixed survey grid.

    c_rat = |w1 + w2*sqrt3|/2 for 0 <= w1 <= 2 and |w2| <= 2 (the grid
    of SURVEY_PARAMETERS) is computed exactly in Q(sqrt3).  c_sqrt =
    sqrt(c_rat) is kept exact when the square root exists in the field;
    otherwise the candidate survives as a float-only value.  Values > 1
    are discarded, and the survivors are deduplicated and sorted
    ascending.
    """
    kept: list[CandidateValue] = []
    seen_exact: set[FieldElement] = set()
    seen_float: list[float] = []

    def add(value: float, exact: Optional[FieldElement]) -> None:
        if exact is not None:
            if exact in seen_exact:
                return
            seen_exact.add(exact)
        else:
            if any(abs(value - v) <= SHADOW_TOLERANCE for v in seen_float):
                return
        seen_float.append(value)
        kept.append(CandidateValue(value, exact))

    w = SURVEY_PARAMETERS["w"]
    for w1 in range(0, w + 1):
        for w2 in range(-w, w + 1):
            base = w1 + w2 * SQRT3
            if base.sign() < 0:
                base = -base
            c_rat = base / 2
            if (c_rat - 1).sign() > 0:
                continue
            add(c_rat.to_float(), c_rat)
            c_sqrt = field_sqrt(c_rat)
            if c_sqrt is not None:
                add(c_sqrt.to_float(), c_sqrt)
            else:
                add(math.sqrt(c_rat.to_float()), None)
    kept.sort(key=lambda c: c.value)
    return tuple(kept)


def generate_candidate_points_float(values: Sequence[float]) -> PointSet:
    """On-sphere float points from candidate values (no triples yet).

    Takes every multiset {c1, c2, c3} of candidate values with
    c1^2 + c2^2 + c3^2 = 1 within EPSILON and expands it through all
    coordinate permutations and sign choices, merging duplicates within
    EPSILON.
    """
    hits = [
        (a, b, c)
        for a, b, c in itertools.combinations_with_replacement(sorted(values), 3)
        if abs(a * a + b * b + c * c - 1.0) <= EPSILON
    ]
    raw = [
        SpherePoint.from_floats(*(vals[p] * s for p, s in zip(perm, signs)))
        for vals in hits
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    return dedup_points(raw)


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
    return PointSet(pts, tuple(sorted(triples)))


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


def largest_connected_component(ps: PointSet) -> PointSet:
    """The largest component under the relation "shares a triple".

    Of equally large components, the one holding the smallest point
    index wins: ``components`` orders them by smallest member, and
    ``max`` keeps the first maximum.
    """
    comps = components(range(ps.n_points), ps.triples)
    if not comps:
        raise ValueError("empty point set has no components")
    return _select_points(ps, max(comps, key=len))


# ---------------------------------------------------------------------------
# UNSAT-preserving minimization
# ---------------------------------------------------------------------------


def _labeling_exists(ps: PointSet, k: int) -> bool:
    """Decide whether a nowhere-zero k-bounded labeling exists.

    Decided from scratch by ``decide_labeling``: one solve of the
    quotient's support CNF by the conflict-learning solver.
    """
    q = quotient_antipodal(ps)
    return decide_labeling(FlowInstance(q, k), sat_solve_cdcl) is not None


def unsat_preserving_prune(ps: PointSet, k: int) -> tuple[PointSet, PruneReport]:
    """Greedily shrink a refuting configuration, keeping it refuting.

    Triples are attempted for removal once each, in construction order.
    A candidate step removes the triple, re-applies the degree prune with
    the antipode map as partner map (so every surviving point keeps its
    antipode and the set stays quotientable), and is committed only when
    no k-bounded labeling exists afterwards.  A single pass is locally
    minimal because constraint removal can only enlarge the solution
    set, so a rejected removal stays rejected.

    Every step is decided by one ``flows.class_refuter`` over the
    input's quotient, on the classes of mirror triples that keep a live
    triple.  A refuted step's core is a set of classes that admits no
    labeling on its own; it replaces the cached core, and a step that
    keeps a live triple in every core class is committed without a
    search (clause-set refinement, as in MUSer2, Belov & Marques-Silva
    2012).

    A trailing pass keeps the first surviving triple of each mirror
    class: a triple and its mirror impose the same quotient constraint,
    so removing one member changes nothing the solver sees.
    Points are never dropped there, keeping the pair structure (and the
    variable count of the encoded instance) intact.  The result is
    refuted once more from scratch by ``_labeling_exists``.
    """
    q = quotient_antipodal(ps)
    class_of = {
        ps.triples[tid]: cid
        for cid, tids in enumerate(q.triple_classes)
        for tid in tids
    }
    refuted = class_refuter(q, k)
    core = refuted(set(range(q.n_classes)))
    if core is None:
        raise ValueError(
            f"input admits a labeling at k={k}; nothing to preserve"
        )
    anti = antipode_map(ps)

    alive_points = list(range(ps.n_points))
    alive_triples = list(ps.triples)
    rounds: list[tuple[int, int]] = []

    for candidate in ps.triples:
        if candidate not in alive_triples:
            continue
        trial_points, trial_triples, trial_rounds = _degree_prune(
            alive_points, [t for t in alive_triples if t != candidate], anti
        )
        live = {class_of[t] for t in trial_triples}
        if not core <= live:
            trial_core = refuted(live)
            if trial_core is None:
                continue
            core = trial_core
        removed = len(alive_triples) - len(trial_triples)
        alive_points = trial_points
        alive_triples = trial_triples
        rounds.append((sum(p for p, _ in trial_rounds), removed))

    # Free the solver and its learned clauses before the fresh refutation
    # below builds another, so the two do not add up in peak memory.
    del refuted
    seen: set[int] = set()
    deduped: list[Triple] = []
    for t in alive_triples:
        if class_of[t] in seen:
            rounds.append((0, 1))
            continue
        seen.add(class_of[t])
        deduped.append(t)

    final = _select_points(ps.with_triples(deduped), alive_points)
    _require(
        not _labeling_exists(final, k), "pruned configuration must stay unlabelable"
    )
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
    half = F2.element(Fraction(1, 2))
    return (
        F2.zero,
        (one - t * t) * half,
        t * t * half,
        half,
        t,
        (t * t + one) * half,
        one,
    )


def lift_to_exact(ps: PointSet, coords: Sequence[FieldElement]) -> PointSet:
    """Exact twin of a float point set over known coordinate values.

    Every |coordinate| must match one of the given field elements within
    SHADOW_TOLERANCE (signs carry over).  Zero-sum triples are re-detected
    from scratch on both sides and must agree; the input's selected triple
    list (possibly a pruned subset of the geometric ones) carries over.
    """
    _require(len(coords) > 0, "need candidate values to lift against")
    table = [(abs(c).to_float(), c) for c in coords]

    def lift_one(v: float) -> FieldElement:
        av = abs(v)
        fv, e = min(table, key=lambda pair: abs(pair[0] - av))
        if abs(fv - av) > SHADOW_TOLERANCE:
            raise ConstructionError(
                f"coordinate {v!r} matches no exact value "
                f"within {SHADOW_TOLERANCE}"
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

    survey: tuple[CandidateValue, ...]
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


def build_second_counterexample() -> SecondConstruction:
    """Search, prune and exactify the second refuting configuration.

    Pipeline: survey the candidate coordinate values, expand them into
    the float point cloud, detect zero-sum triples, degree-prune, take
    the largest connected component, greedily shrink it while it stays
    unlabelable at k=4, then lift the survivors to exact coordinates.
    Every stage is deterministic, so the outcome is reproducible bit for
    bit; the stage invariants below pin the expected shape.
    """
    survey = candidate_coordinate_survey()
    cloud = generate_candidate_points_float([c.value for c in survey])
    _require(cloud.n_points == 210, "candidate cloud must have 210 points")
    cloud = cloud.with_triples(find_zero_sum_triples(cloud))
    _require(len(cloud.triples) == 116, "candidate cloud must carry 116 triples")
    thinned, degree_report = prune_low_degree(cloud)
    component = largest_connected_component(thinned)
    _require(
        component.n_points == 126 and len(component.triples) == 108,
        "largest component must be 126 points / 108 triples",
    )
    final_float, prune_report = unsat_preserving_prune(component, 4)
    exact_values = [c.exact for c in survey if c.exact is not None]
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
