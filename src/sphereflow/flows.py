"""Nowhere-zero bounded labelings of antipodal quotients.

A labeling assigns each pair representative a nonzero integer value in
{-k..-1, 1..k} so that every oriented triple's signed sum vanishes;
antipodal consistency is structural through the orientation signs.  The
problem is decided twice, by CNF encoding plus SAT solving and by a
direct backtracking oracle, and the two answers are cross-checked.

Two encodings share one variable layout, ``_slot_literals``: rep r
taking slot j is variable r*2k + j + 1.  The direct encoding
(``encode_nzk``) blocks every nonzero value combination of a triple;
it is the published DIMACS export and fixes the published clause counts.
The support encoding (``encode_support``) is what SAT decisions run on:
unit propagation on it enforces arc consistency on every triple.  Every
decision is one support formula over the whole quotient, one triple per
mirror class: ``decide_labeling`` solves it once, and ``class_refuter``
guards each class with a selector so that one incremental solver decides
any set of live classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import AbstractSet, Callable, Optional, Sequence

from .oracle import CspProblem, csp_solve
from .quotient import AntipodalQuotient, OrientedTriple
from .solver import CnfFormula, SatResult, Solver, sat_solve

__all__ = [
    "FlowInstance",
    "Labeling",
    "VerificationReport",
    "backtrack_search",
    "class_refuter",
    "count_zero_sum_values",
    "decide_labeling",
    "decode_witness",
    "encode_nzk",
    "encode_support",
    "expected_clause_count",
    "expected_support_clause_count",
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

    The direct encoding keeps every oriented triple, antipodal mirrors
    included, as the published clause counts do; decide_labeling keeps
    one triple per mirror class.
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


_Rows = list[tuple[int, ...]]


def _slot_literals(n_reps: int, k: int) -> tuple[_Rows, _Rows]:
    """The layout's literal rows: pos[r][j] = r*2k + j + 1 says rep r
    takes slot j, and neg[r][j] is its negation.

    Every clause of a formula takes its literals from these rows, so each
    distinct literal is one shared int object, which keeps a formula of
    many triples small in memory.
    """
    two_k = 2 * k
    pos = [tuple(range(r * two_k + 1, (r + 1) * two_k + 1)) for r in range(n_reps)]
    return pos, [tuple(-lit for lit in row) for row in pos]


def _one_value_clauses(pos: _Rows, neg: _Rows) -> list[tuple[int, ...]]:
    """Per rep: the at-least-one clause, then the pairwise at-most-one ones."""
    clauses: list[tuple[int, ...]] = []
    for row, negs in zip(pos, neg):
        clauses.append(row)
        for j1, lit1 in enumerate(negs):
            clauses.extend((lit1, lit2) for lit2 in negs[j1 + 1 :])
    return clauses


def encode_nzk(inst: FlowInstance) -> CnfFormula:
    """Direct CNF for a flow instance over every oriented triple.

    Clause order is deterministic; variables follow ``_slot_literals``.
    Per rep: one at-least-one clause then the pairwise at-most-one
    clauses; per oriented triple: a 3-literal blocking clause for every
    ordered value combination whose signed sum is nonzero.
    """
    n_reps, triples, k = inst.n_reps, inst.triples, inst.k
    slots = value_slots(k)
    two_k = len(slots)
    pos, neg = _slot_literals(n_reps, k)
    clauses = _one_value_clauses(pos, neg)
    z_k = count_zero_sum_values(k)
    for triple in triples:
        (r1, s1), (r2, s2), (r3, s3) = triple
        blocked = 0
        for v1, lit1 in zip(slots, neg[r1]):
            for v2, lit2 in zip(slots, neg[r2]):
                partial = s1 * v1 + s2 * v2
                for v3, lit3 in zip(slots, neg[r3]):
                    if partial + s3 * v3 != 0:
                        blocked += 1
                        clauses.append((lit1, lit2, lit3))
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


def expected_support_clause_count(n_reps: int, n_triples: int, k: int) -> int:
    """Closed form: P*(1 + C(2k,2)) + T*3*(2k)^2, plus 1 when T > 0."""
    two_k = 2 * k
    sign_clauses = 1 if n_triples else 0
    return n_reps * (1 + comb(two_k, 2)) + n_triples * 3 * two_k**2 + sign_clauses


def _support_clauses(
    triple: OrientedTriple, k: int, pos: _Rows, neg: _Rows, z_k: int
) -> list[tuple[int, ...]]:
    """The 3*(2k)^2 support clauses of one oriented triple.

    Per member pair (a, b) with third member c, in the order (1,2),
    (1,3), (2,3): for every value pair, the clause -a(va) | -b(vb) | c(vc),
    where vc is the value the triple then forces on c; c(vc) is left out
    when vc is zero or beyond k.  ``pos`` and ``neg`` are the formula's
    ``_slot_literals`` rows and ``z_k`` is ``count_zero_sum_values(k)``.
    """
    slots = value_slots(k)
    pos = [pos[r] for r, _ in triple]  # from here on, one row per member
    neg = [neg[r] for r, _ in triple]
    clauses: list[tuple[int, ...]] = []
    supported = 0
    for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        sa, sb, sc = triple[a][1], triple[b][1], triple[c][1]
        for ja, va in enumerate(slots):
            for jb, vb in enumerate(slots):
                vc = -sc * (sa * va + sb * vb)
                if vc != 0 and abs(vc) <= k:
                    supported += 1
                    jc = vc + k if vc < 0 else vc + k - 1
                    clauses.append((neg[a][ja], neg[b][jb], pos[c][jc]))
                else:
                    clauses.append((neg[a][ja], neg[b][jb]))
    # Each member pair has as many supported value pairs as there are
    # zero-sum value triples, whatever the orientation signs.
    if supported != 3 * z_k:
        raise AssertionError(
            f"sign-adjusted support count {supported} != {3 * z_k}"
        )
    return clauses


def encode_support(
    n_reps: int, triples: Sequence[OrientedTriple], k: int, guarded: bool = False
) -> CnfFormula:
    """Support-encoding CNF with the variable layout of encode_nzk.

    Per rep: the at-least-one clause then the pairwise at-most-one
    clauses.  Per oriented triple: its ``_support_clauses``.  Last, when
    there are triples, one clause makes the smallest rep that any triple
    names positive, which is sound because negating a whole labeling
    gives another.

    With ``guarded``, triple i also gets the selector variable
    n_reps*2k + i + 1, and every one of its clauses the literal -s_i:
    assuming s_i imposes the triple and assuming -s_i drops it.  The
    sign-breaking clause stays unguarded.  It remains sound for any
    subset of the triples, because global negation maps the labelings
    of every subset to labelings of the same subset.
    """
    two_k = 2 * k
    pos, neg = _slot_literals(n_reps, k)
    z_k = count_zero_sum_values(k)
    clauses = _one_value_clauses(pos, neg)
    for i, triple in enumerate(triples):
        guard = (-(n_reps * two_k + i + 1),) if guarded else ()
        clauses += [c + guard for c in _support_clauses(triple, k, pos, neg, z_k)]
    if triples:
        first = min(r for t in triples for r, _ in t)
        clauses.append(pos[first][k:])
    num_vars = n_reps * two_k + (len(triples) if guarded else 0)
    formula = CnfFormula(num_vars=num_vars, clauses=tuple(clauses))
    expected = expected_support_clause_count(n_reps, len(triples), k)
    if formula.n_clauses != expected:
        raise AssertionError(
            f"clause count {formula.n_clauses} != closed form {expected}"
        )
    return formula


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


def _checked(labeling: Labeling, inst: FlowInstance, route: str) -> Labeling:
    report = verify_labeling(labeling, inst)
    if not report.ok:
        raise AssertionError(f"{route} fails checks: {report.violations}")
    return labeling


def decode_witness(model: Sequence[int], inst: FlowInstance) -> Labeling:
    """Read the chosen value per rep out of a model of either encoding."""
    slots = value_slots(inst.k)
    pos, _ = _slot_literals(inst.n_reps, inst.k)
    positives = {lit for lit in model if lit > 0}
    values: list[int] = []
    for rep, row in enumerate(pos):
        chosen = [v for v, lit in zip(slots, row) if lit in positives]
        if len(chosen) != 1:
            raise AssertionError(
                f"rep {rep} has {len(chosen)} chosen values; encoding bug"
            )
        values.append(chosen[0])
    return _checked(Labeling(values=tuple(values)), inst, "decoded witness")


def decide_labeling(
    inst: FlowInstance,
    solve: Callable[[CnfFormula], SatResult] = sat_solve,
) -> Optional[Labeling]:
    """SAT route: decide an instance with one solve of its support CNF.

    The formula covers the whole quotient, each class of mirror triples
    contributing its first triple.  Returns the verified labeling that
    the model selects, or None when ``solve`` refutes the formula.
    """
    q = inst.quotient
    result = solve(encode_support(q.n_reps, q.class_triples, inst.k))
    if not result.satisfiable:
        return None
    return decode_witness(result.model, inst)


def class_refuter(
    q: AntipodalQuotient, k: int
) -> Callable[[AbstractSet[int]], Optional[set[int]]]:
    """Decide sets of live classes on one incremental solver.

    The solver holds the guarded support CNF of ``q.class_triples``, so
    class c has the selector n_reps*2k + c + 1.  ``refuted(live)``
    assumes the selectors of the live classes and the negations of the
    others.  It returns None when the live classes admit a labeling at
    bound k, else its core: the classes among the failed assumptions,
    which admit no labeling on their own.  Learned clauses carry over
    from one call to the next.
    """
    solver = Solver(encode_support(q.n_reps, q.class_triples, k, guarded=True))
    first = q.n_reps * 2 * k + 1  # selector of class 0

    def refuted(live: AbstractSet[int]) -> Optional[set[int]]:
        result = solver.solve(
            [first + c if c in live else -(first + c) for c in range(q.n_classes)]
        )
        return None if result.satisfiable else {lit - first for lit in result.core}

    return refuted


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
    return _checked(Labeling(values=solution), inst, "oracle labeling")


def min_flow_number(q: AntipodalQuotient, k_max: int) -> Optional[int]:
    """Smallest value bound k <= k_max admitting a labeling, else None."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    for k in range(1, k_max + 1):
        if decide_labeling(FlowInstance(q, k)) is not None:
            return k
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
