"""Backtracking oracle for signed triple-sum labeling problems.

Independent of the CNF route: searches rep values directly with domain
propagation over the ternary sum constraints.  Used to cross-check every
SAT-solver decision and to decide the mod-k variant, where the domain is
small enough for plain search.

Each constraint is filtered once: a triple and its global sign flip
(Σ s·v = 0 exactly when Σ -s·v = 0) are one constraint, and only the
first of them is kept.  The oracle finds these pairs itself, so it does
not lean on the quotient's mirror classes that the SAT route uses.
Domains are integer bitmasks with bit v mod m for value v, so the
values a triple's other two members can reach are a few shift-ORs (arc
consistency on word-sized domains, Lecoutre & Vion, Constraint
Programming Letters 2, 2008).  An integer problem with values in -M..M
is decided as the modular problem mod m = 3M + 1 (masks of 13 bits at
k = 4): no two values share a residue, and a signed sum of three values
is at most 3M < m in size, so it vanishes exactly when it does mod m.
This is arithmetic on one sum, not Tutte's equivalence of Z_k- and
integer k-flows, which holds on graphs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import components
from .quotient import OrientedMember, OrientedTriple

__all__ = ["CspProblem", "csp_solve"]


@dataclass(frozen=True)
class CspProblem:
    """Assign one value per variable so every signed triple sum vanishes.

    With ``modulus`` None the constraint is s1*v1 + s2*v2 + s3*v3 = 0 over
    the integers; otherwise the sum must vanish mod ``modulus``, and no
    two domain values may share a residue.  A triple's three members are
    distinct variables, as in every antipodal quotient.

    ``csp_solve`` decides an integer problem as the modular one mod
    3*max|v| + 1, where no two values collide and no three-term sum
    wraps around; its masks are that many bits wide.  This reduction is
    not Tutte's equivalence of Z_k- and integer k-flows.  ``sum_ok``
    checks plain integer sums, independently of it.
    """

    n_vars: int
    triples: tuple[OrientedTriple, ...]
    domain: tuple[int, ...]
    modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_vars < 0 or not self.domain:
            raise ValueError("need at least one variable value")
        if self.modulus is not None:
            if self.modulus < 2:
                raise ValueError("modulus must be at least 2")
            values = set(self.domain)
            if len({v % self.modulus for v in values}) != len(values):
                raise ValueError("domain values must differ mod the modulus")
        for t in self.triples:
            if len({r for r, _ in t}) != 3:
                raise ValueError(f"triple {t} needs three distinct members")
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


def _mirror_key(t: OrientedTriple) -> tuple[OrientedMember, ...]:
    """The same key for a triple in any member order and for its sign flip."""
    return min(tuple(sorted(t)), tuple(sorted((r, -s) for r, s in t)))


def csp_solve(problem: CspProblem) -> Optional[tuple[int, ...]]:
    """Complete search; returns one assignment or None when none exists.

    Deterministic: the blocks of variables that share triples are
    searched one at a time, smallest variable first, and None comes at
    the first refuted block.  A block's search branches on the smallest
    domain (ties by index) with values in ascending order.  A variable
    no triple constrains takes its smallest value.
    """
    values = sorted(set(problem.domain))
    # Bit v % m of a domain stands for the value v (module docstring).
    m = problem.modulus or 3 * max(map(abs, values)) + 1
    bit = {v: 1 << v % m for v in values}
    full = sum(bit.values())  # the residues are distinct
    negated: dict[int, int] = {}

    def negate(d: int) -> int:
        r = negated.get(d)
        if r is None:
            # reversing m bits puts residue v at m-1-v; move it to (m-v) % m
            r = int(format(d, f"0{m}b")[::-1], 2)
            r = ((r << 1) | (r >> (m - 1))) & ((1 << m) - 1)
            negated[d] = r
        return r

    first: dict[tuple[OrientedMember, ...], OrientedTriple] = {}
    for t in problem.triples:
        first.setdefault(_mirror_key(t), t)
    triples = list(first.values())
    # Member r needs v_r in c_a*D_a + c_b*D_b, where c = -s_r * s for the
    # other two members; c = -1 reads the negated domain.
    revisions = []
    for t in triples:
        slots = []
        for i, j, h in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            (r, s), (a, sa), (b, sb) = t[i], t[j], t[h]
            slots.append((r, a, s == sa, b, s == sb))
        revisions.append(slots)
    by_var: dict[int, list[int]] = {}
    for ti, t in enumerate(triples):
        for r, _ in t:
            by_var.setdefault(r, []).append(ti)

    def revise(ti: int, domains: list[int]) -> Optional[list[int]]:
        """Shrink each member's domain to the values the other two reach.

        Returns the variables whose domain changed, or None when a domain
        became empty.
        """
        changed: list[int] = []
        for r, a, flip_a, b, flip_b in revisions[ti]:
            da = negate(domains[a]) if flip_a else domains[a]
            db = negate(domains[b]) if flip_b else domains[b]
            reach = 0
            while da:
                low = da & -da
                reach |= db << (low.bit_length() - 1)
                da ^= low
            reach |= reach >> m
            keep = domains[r] & reach
            if keep != domains[r]:
                if not keep:
                    return None
                domains[r] = keep
                changed.append(r)
        return changed

    def propagate(domains: list[int], dirty: Sequence[int]) -> bool:
        queue = list(dict.fromkeys(dirty))
        while queue:
            ti = queue.pop()
            changed = revise(ti, domains)
            if changed is None:
                return False
            for r in changed:
                for tj in by_var[r]:
                    if tj != ti and tj not in queue:
                        queue.append(tj)
        return True

    domains = [full] * problem.n_vars
    if not propagate(domains, range(len(triples))):
        return None

    def search(domains: list[int], block: list[int]) -> Optional[list[int]]:
        open_vars = [r for r in block if domains[r] & (domains[r] - 1)]
        if not open_vars:
            return domains
        r = min(open_vars, key=lambda v: (domains[v].bit_count(), v))
        for v in values:
            if not domains[r] & bit[v]:
                continue
            trial = domains[:]
            trial[r] = bit[v]
            if not propagate(trial, by_var[r]):
                continue
            result = search(trial, block)
            if result is not None:
                return result
        return None

    for block in components(by_var, ([r for r, _ in t] for t in triples)):
        domains = search(domains, block)
        if domains is None:
            return None
    solution = tuple(next(v for v in values if d & bit[v]) for d in domains)
    for t in problem.triples:
        if not problem.sum_ok(t, solution):
            raise AssertionError("oracle produced an invalid assignment")
    return solution
