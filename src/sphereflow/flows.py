"""Nowhere-zero bounded labelings of antipodal quotients.

A labeling assigns each pair representative a nonzero integer value in
{-k..-1, 1..k} so that every oriented triple's signed sum vanishes;
antipodal consistency is structural through the orientation signs.  The
problem is decided twice, by CNF encoding plus SAT solving and by a
direct backtracking oracle, and the two answers are cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence

from .oracle import CspProblem, OrientedTriple, csp_solve
from .quotient import AntipodalQuotient
from .solver import CnfFormula, sat_solve

__all__ = [
    "FlowInstance",
    "Labeling",
    "VerificationReport",
    "backtrack_search",
    "count_zero_sum_values",
    "decode_witness",
    "encode_nzk",
    "encode_triples",
    "expected_clause_count",
    "min_flow_number",
    "min_mod_flow_number",
    "value_slots",
    "verify_labeling",
]


def value_slots(k: int) -> tuple[int, ...]:
    """The ordered allowed values (-k..-1, 1..k); slot index = position."""
    if k < 1:
        raise ValueError("value bound must be at least 1")
    return tuple(range(-k, 0)) + tuple(range(1, k + 1))


@dataclass(frozen=True)
class FlowInstance:
    """A quotient together with the value bound k.

    Every oriented triple is encoded, antipodal mirrors included: the
    published clause counts keep them.
    """

    quotient: AntipodalQuotient
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("value bound must be at least 1")

    @property
    def triples(self) -> tuple[OrientedTriple, ...]:
        return self.quotient.oriented_triples

    @property
    def n_reps(self) -> int:
        return self.quotient.n_reps


def count_zero_sum_values(k: int) -> int:
    """Number of ordered triples over {+-1..+-k} summing to zero."""
    slots = value_slots(k)
    allowed = set(slots)
    return sum(1 for a in slots for b in slots if -(a + b) in allowed)


def expected_clause_count(n_reps: int, n_triples: int, k: int) -> int:
    """Closed form: P*(1 + C(2k,2)) + T*((2k)^3 - Z_k)."""
    two_k = 2 * k
    return n_reps * (1 + comb(two_k, 2)) + n_triples * (
        two_k**3 - count_zero_sum_values(k)
    )


def encode_triples(
    n_reps: int, triples: Sequence[OrientedTriple], k: int
) -> CnfFormula:
    """CNF for labeling n_reps reps under the oriented triples, bound k.

    Clause order is deterministic.  Variable i*2k + j + 1 asserts rep i takes value_slots(k)[j].  Per
    rep: one at-least-one clause then the pairwise at-most-one clauses;
    per oriented triple: a 3-literal blocking clause for every ordered
    value combination whose signed sum is nonzero.
    """
    slots = value_slots(k)
    two_k = len(slots)

    def var(rep: int, slot: int) -> int:
        return rep * two_k + slot + 1

    clauses: list[tuple[int, ...]] = []
    for rep in range(n_reps):
        clauses.append(tuple(var(rep, j) for j in range(two_k)))
        for j1 in range(two_k):
            for j2 in range(j1 + 1, two_k):
                clauses.append((-var(rep, j1), -var(rep, j2)))
    z_k = count_zero_sum_values(k)
    for triple in triples:
        (r1, s1), (r2, s2), (r3, s3) = triple
        blocked = 0
        for j1, v1 in enumerate(slots):
            for j2, v2 in enumerate(slots):
                partial = s1 * v1 + s2 * v2
                for j3, v3 in enumerate(slots):
                    if partial + s3 * v3 != 0:
                        blocked += 1
                        clauses.append(
                            (-var(r1, j1), -var(r2, j2), -var(r3, j3))
                        )
        # Negating any orientation sign permutes the value combinations,
        # so the blocked count must match the unsigned count.
        if blocked != two_k**3 - z_k:
            raise AssertionError(
                f"sign-adjusted block count {blocked} != {two_k**3 - z_k}"
            )
    formula = CnfFormula(num_vars=n_reps * two_k, clauses=tuple(clauses))
    expected = expected_clause_count(n_reps, len(triples), k)
    if formula.n_clauses != expected:
        raise AssertionError(
            f"clause count {formula.n_clauses} != closed form {expected}"
        )
    return formula


def encode_nzk(inst: FlowInstance) -> CnfFormula:
    """CNF for a flow instance: encode_triples over its quotient."""
    return encode_triples(inst.n_reps, inst.triples, inst.k)


@dataclass(frozen=True)
class Labeling:
    """One value per representative; antipodes inherit the negated value."""

    values: tuple[int, ...]

    def __getitem__(self, rep: int) -> int:
        return self.values[rep]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def verify_labeling(labeling: Labeling, inst: FlowInstance) -> VerificationReport:
    """Check value range, nonzeroness, and every triple's signed sum."""
    problems: list[str] = []
    if len(labeling.values) != inst.n_reps:
        problems.append(
            f"expected {inst.n_reps} values, got {len(labeling.values)}"
        )
        return VerificationReport(False, tuple(problems))
    for rep, v in enumerate(labeling.values):
        if v == 0:
            problems.append(f"rep {rep} has value 0")
        elif abs(v) > inst.k:
            problems.append(f"rep {rep} value {v} exceeds bound {inst.k}")
    for ti, triple in enumerate(inst.triples):
        total = sum(s * labeling.values[r] for r, s in triple)
        if total != 0:
            problems.append(f"triple {ti} {triple} sums to {total}")
    return VerificationReport(not problems, tuple(problems))


def decode_witness(model: Sequence[int], inst: FlowInstance) -> Labeling:
    """Read the chosen value per rep out of a satisfying assignment."""
    slots = value_slots(inst.k)
    two_k = len(slots)
    positives = {lit for lit in model if lit > 0}
    values: list[int] = []
    for rep in range(inst.n_reps):
        chosen = [
            slots[j] for j in range(two_k) if rep * two_k + j + 1 in positives
        ]
        if len(chosen) != 1:
            raise AssertionError(
                f"rep {rep} has {len(chosen)} chosen values; encoding bug"
            )
        values.append(chosen[0])
    labeling = Labeling(values=tuple(values))
    report = verify_labeling(labeling, inst)
    if not report.ok:
        raise AssertionError(f"decoded witness fails checks: {report.violations}")
    return labeling


def backtrack_search(inst: FlowInstance) -> Optional[Labeling]:
    """Oracle route: direct search over rep values, no CNF involved."""
    problem = CspProblem(
        n_vars=inst.n_reps,
        triples=inst.triples,
        domain=value_slots(inst.k),
    )
    solution = csp_solve(problem)
    if solution is None:
        return None
    labeling = Labeling(values=solution)
    report = verify_labeling(labeling, inst)
    if not report.ok:
        raise AssertionError(f"oracle labeling fails checks: {report.violations}")
    return labeling


def min_flow_number(
    q: AntipodalQuotient, k_max: int, engine: str = "sat"
) -> Optional[int]:
    """Smallest value bound k <= k_max admitting a labeling, else None."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    for k in range(1, k_max + 1):
        inst = FlowInstance(q, k)
        if engine == "sat":
            if sat_solve(encode_nzk(inst)).satisfiable:
                return k
        elif engine == "backtrack":
            if backtrack_search(inst) is not None:
                return k
        else:
            raise ValueError(f"unknown engine {engine!r}")
    return None


def min_mod_flow_number(q: AntipodalQuotient, k_max: int) -> Optional[int]:
    """Smallest modulus m <= k_max with values in {1..m-1}, sums 0 mod m.

    Orientation sign -1 sends value v to m - v, the canonical residue of
    -v; the search works directly on residues.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    for m in range(2, k_max + 1):
        problem = CspProblem(
            n_vars=q.n_reps,
            triples=q.oriented_triples,
            domain=tuple(range(1, m)),
            modulus=m,
        )
        if csp_solve(problem) is not None:
            return m
    return None
