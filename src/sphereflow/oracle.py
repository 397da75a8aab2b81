"""Backtracking oracle for signed triple-sum labeling problems.

Independent of the CNF route: searches rep values directly with domain
propagation over the ternary sum constraints.  Used to cross-check every
SAT-solver decision and to decide the mod-k variant, where the domain is
small enough for plain search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .quotient import components

__all__ = ["CspProblem", "csp_solve"]

OrientedMember = tuple[int, int]
OrientedTriple = tuple[OrientedMember, OrientedMember, OrientedMember]


@dataclass(frozen=True)
class CspProblem:
    """Assign one value per variable so every signed triple sum vanishes.

    With ``modulus`` None the constraint is s1*v1 + s2*v2 + s3*v3 = 0 over
    the integers; otherwise the sum must vanish mod ``modulus``.
    """

    n_vars: int
    triples: tuple[OrientedTriple, ...]
    domain: tuple[int, ...]
    modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_vars < 0 or not self.domain:
            raise ValueError("need at least one variable value")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        for t in self.triples:
            for r, s in t:
                if not 0 <= r < self.n_vars:
                    raise ValueError(f"triple member {r} out of range")
                if s not in (-1, 1):
                    raise ValueError(f"orientation sign must be +-1, got {s}")

    def sum_ok(self, t: OrientedTriple, values: Sequence[int]) -> bool:
        total = sum(s * values[r] for r, s in t)
        if self.modulus is None:
            return total == 0
        return total % self.modulus == 0


def _filter_triple(
    problem: CspProblem, t: OrientedTriple, domains: list[set[int]]
) -> Optional[list[int]]:
    """Shrink member domains to values extendable within the triple.

    Returns the list of variables whose domain changed, or None when a
    domain became empty.
    """
    changed: list[int] = []
    for slot in range(3):
        r, s = t[slot]
        others = [t[i] for i in range(3) if i != slot]
        (r1, s1), (r2, s2) = others
        reachable = {
            s1 * v1 + s2 * v2 for v1 in domains[r1] for v2 in domains[r2]
        }
        if problem.modulus is not None:
            reachable = {v % problem.modulus for v in reachable}
        keep = set()
        for v in domains[r]:
            need = -s * v
            if problem.modulus is not None:
                need %= problem.modulus
            if need in reachable:
                keep.add(v)
        if keep != domains[r]:
            if not keep:
                return None
            domains[r] = keep
            changed.append(r)
    return changed


def _propagate(
    problem: CspProblem,
    domains: list[set[int]],
    by_var: dict[int, list[int]],
    dirty: Sequence[int],
) -> bool:
    queue = list(dict.fromkeys(dirty))
    while queue:
        ti = queue.pop()
        changed = _filter_triple(problem, problem.triples[ti], domains)
        if changed is None:
            return False
        for r in changed:
            for tj in by_var.get(r, ()):
                if tj != ti and tj not in queue:
                    queue.append(tj)
    return True


def csp_solve(problem: CspProblem) -> Optional[tuple[int, ...]]:
    """Complete search; returns one assignment or None when none exists.

    Deterministic: the blocks of variables that share triples are
    searched one at a time, smallest variable first, and None comes at
    the first refuted block.  A block's search branches on the smallest
    domain (ties by index) with values in ascending order.  A variable
    no triple constrains takes its smallest value.
    """
    by_var: dict[int, list[int]] = {}
    for ti, t in enumerate(problem.triples):
        for r, _ in t:
            by_var.setdefault(r, []).append(ti)
    domains: list[set[int]] = [set(problem.domain) for _ in range(problem.n_vars)]
    if not _propagate(problem, domains, by_var, range(len(problem.triples))):
        return None

    def search(domains: list[set[int]], block: list[int]) -> Optional[list[set[int]]]:
        open_vars = [r for r in block if len(domains[r]) > 1]
        if not open_vars:
            return domains
        r = min(open_vars, key=lambda v: (len(domains[v]), v))
        for v in sorted(domains[r]):
            trial = [set(d) for d in domains]
            trial[r] = {v}
            if not _propagate(problem, trial, by_var, by_var.get(r, ())):
                continue
            result = search(trial, block)
            if result is not None:
                return result
        return None

    neighbours = {
        r: [m for ti in tis for m, _ in problem.triples[ti]]
        for r, tis in by_var.items()
    }
    for block in components(by_var, neighbours):
        domains = search(domains, block)
        if domains is None:
            return None
    values = tuple(min(d) for d in domains)
    for t in problem.triples:
        if not problem.sum_ok(t, values):
            raise AssertionError("oracle produced an invalid assignment")
    return values
