"""CNF formulas, DIMACS I/O and the SAT engine that decides them.

``Solver`` is a conflict-driven search: first-UIP clause learning
(Eén & Sörensson, "An Extensible SAT-solver", SAT 2003), activity-based
branching and phase saving.  It decides one formula under
successive sets of assumption literals, keeping what it learned, and
explains each refuted set by the assumptions it used; ``sat_solve`` is
the one-shot form.  Binary clauses are propagated from occurrence
lists, which need no upkeep; every longer clause, whether loaded,
derived or learned, by two watched literals (Moskewicz, Madigan, Zhao,
Zhang & Malik, "Chaff", DAC 2001), unless a binary subsumes it on
load (below).  On load it keeps one
clause per literal set, the first occurrence in its own literal order:
the published direct CNF keeps both mirror copies of each triple's
clauses, and a mirror triple blocks the same value combinations in the
same order, so nearly half of it repeats (ce1 at k=4 has 10245
distinct clauses of 19765), and a repeat only costs visits.  A repeat
with its literals permuted goes too: it would list its literals in
another order, or watch other literals, than its original, which can
change the order of propagation and so the model.

After the originals the load adds what one round of hyper-resolution
derives (``hyper_resolvents``; Bacchus & Winter, SAT 2003): each clause
of four or more literals resolved against the ternary clauses on its
negated literals.  On the direct CNF the nuclei are the at-least-one
rows, their side clauses are the blocking clauses, and the resolvents
are exactly the support clauses of ``flows.encode_support``, 3·(2k)²
per class of mirror triples.  On
the blocking clauses alone unit propagation only forward-checks; with
the support clauses it is arc-consistent on every triple (Gent, "Arc
consistency in SAT", ECAI 2002), and ce1 at k=4, without the mirror
images below, takes 3121 conflicts instead of 7361.  An unguarded
support formula already holds every resolvent, so it gains none and
searches as before.  A guarded one gains none at k = 3; at k >= 4 its
sign clause is a nucleus of k literals, and resolving it against the
guarded ternaries derives a few clauses of two and three literals (8
for icosi and ce2, 16 for ce1), each with one negated selector and no
positive literal outside the sign clause.
Resolvents are implied by the formula, so models and cores keep their
meaning.

A binary resolvent (x | y) whose residual every literal c of its
nucleus meets subsumes each of its side clauses (-c | x | y), and the
load watches none of them (subsumption after hyper-resolution, as
Bacchus & Winter pair them; Eén & Biere, SAT 2005).  On the direct CNF
these are the blocking clauses of each value pair whose third value is
out of range, 8120 of ce1's 9520 distinct blocking clauses at k=4, and
its search makes 0.88M watch visits instead of 1.50M.  They stay in
``formula``, so every model is still checked against them and σ is
still tried on them.  No propagation is lost: a literal's binaries are
propagated before its watch list is read, so once x or y is false and
processed, (x | y) has implied the other or found the conflict, and a
side clause implies nothing more.  The side clause could only have
implied the same literal sooner, while the false one of x and y still
waited on the trail, and so a search may assign a few literals fewer
before a conflict.  An unguarded support formula derives nothing, so
it skips nothing; a guarded one skips, from k=4 on, the few ternaries
(16 or 20 for icosi and ce2, 32 or 40 for ce1) that a binary derived
through its sign clause subsumes.

Last the load tries one symmetry σ: it reverses each nucleus when the
nuclei are all-positive and share no variable, and fixes every other
variable.  On the direct CNF the nuclei are the at-least-one rows, and
σ swaps slot j with slot 2k-1-j, that is every value with its
negation.  σ is kept only if it maps every original clause onto one;
then the search adds the image σ(C) of each clause C it learns
(symmetric learning; Benhamou, Nabhani, Ostrowski & Saïdi, ICTAI 2010;
Devriendt, Bogaerts & Bruynooghe, SAT 2017), and refutes each region
once instead of once per sign: ce1 at k=4 takes 1329 conflicts.  The
formula implies C and σ maps it onto itself, so it implies σ(C) too,
and models and cores keep their meaning.  The clause database stays
closed under σ, so each image is RUP, derivable by unit propagation
from the clauses before it, and a clausal proof can list it as a lemma.
Support and guarded formulas keep σ out, so they search as before: at
k >= 4 the sign clause is an all-positive nucleus that shares a row's
variables, at k = 3 its image is not in the formula, and guarded
nuclei hold negative literals.
The solver is fully deterministic: ties break on variable index and
nothing is randomized.  Models are re-verified against every clause of
the formula before being returned.
UNSAT answers carry no certificate; ``verify --engine both`` re-decides
them with the independent CSP backtracking search in ``oracle``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Container, Iterable, Optional, Sequence

__all__ = [
    "CnfFormula",
    "SatResult",
    "Solver",
    "parse_dimacs",
    "sat_solve",
]


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..num_vars; clauses are nonzero signed ids."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError(f"negative variable count {self.num_vars}")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range in {clause}")

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def to_dimacs(self) -> str:
        """Serialize in DIMACS CNF form, one clause per line, 0-terminated."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    """Read DIMACS CNF: comments, then one ``p cnf`` header, then clauses.

    Raises ValueError on anything else, such as a clause before the
    header, a second header or a negative count.
    """
    num_vars: Optional[int] = None
    declared = 0
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise ValueError(f"bad DIMACS header: {line!r}")
            if num_vars is not None:
                raise ValueError(f"second DIMACS header: {line!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            if num_vars < 0 or declared < 0:
                raise ValueError(f"negative count in DIMACS header: {line!r}")
            continue
        if num_vars is None:
            raise ValueError(f"clause before the DIMACS header: {line!r}")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise ValueError("unterminated final clause")
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if len(clauses) != declared:
        raise ValueError(f"header declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


@dataclass(frozen=True)
class SatResult:
    """A decision; ``core`` holds the failed assumptions of an UNSAT one.

    ``stats`` counts the work of the ``solve`` call that made it:
    conflicts, decisions, propagations (literals assigned, decisions
    included), learned clauses, mirror images of learned clauses added
    (``symmetric``).  It takes no part in equality.
    """

    satisfiable: bool
    model: Optional[tuple[int, ...]]
    core: tuple[int, ...] = ()
    stats: dict[str, int] = field(default_factory=dict, compare=False)

    def __bool__(self) -> bool:
        return self.satisfiable


def check_model(formula: CnfFormula, model: Sequence[int]) -> bool:
    """True when the assignment satisfies every clause.

    A variable the model leaves out counts as false.
    """
    sign = {}
    for lit in model:
        sign[abs(lit)] = lit > 0
    true = {v if sign.get(v, False) else -v for v in range(1, formula.num_vars + 1)}
    return all(not true.isdisjoint(clause) for clause in formula.clauses)


def hyper_resolvents(
    clauses: Sequence[Sequence[int]],
    loaded: Container[tuple[int, ...]],
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Clauses derived by one round of hyper-resolution on ternary clauses,
    and the positions of the side clauses that a derived binary subsumes.

    A nucleus is one of ``clauses`` of four or more literals, and its side
    clauses are the ternary ones (-c | x | y) for c in it.  A residual
    {x, y} met for every c in the nucleus gives the clause (x | y); one
    met for every c but w gives (x | y | w).  ``clauses`` hold no
    repeated literal and no complementary pair.  Resolvents drop repeated
    literals, skip tautologies and any literal set in ``loaded`` or
    already found, and come in nucleus order, then in the order their
    residuals are first met, side clauses in the order of ``clauses``.

    A residual met for every c also makes (x | y) subsume each of its
    side clauses (-c | x | y), whether this nucleus derives (x | y) or
    it was loaded or found before.  Those side clauses are returned as
    their positions in ``clauses``, once for each nucleus that they are
    subsumed through: on the direct CNF a blocking clause is a side
    clause of the three rows of its triple.
    """
    # terns[lit] lists the positions of the ternary clauses holding lit
    terns: defaultdict[int, list[int]] = defaultdict(list)
    nuclei: list[Sequence[int]] = []
    for i, lits in enumerate(clauses):
        if len(lits) == 3:
            a, b, d = lits
            terns[a].append(i)
            terns[b].append(i)
            terns[d].append(i)
        elif len(lits) >= 4:
            nuclei.append(lits)
    found: list[tuple[int, ...]] = []
    new: set[tuple[int, ...]] = set()
    subsumed: list[int] = []
    for nucleus in nuclei:
        # A literal with no side clause leaves every residual unmet; two
        # of them leave nothing to derive.
        if sum(not terns[-c] for c in nucleus) > 1:
            continue
        # residual -> [number of c meeting it, sum of those c, then the
        # position of each side clause meeting it]
        met: dict[tuple[int, int], list[int]] = {}
        for c in nucleus:
            nc = -c
            for i in terns[nc]:
                x, y, z = clauses[i]
                if x == nc:
                    x = z
                elif y == nc:
                    y = z
                key = (x, y) if x < y else (y, x)
                entry = met.get(key)
                if entry is None:
                    met[key] = [1, c, i]
                else:
                    entry[0] += 1
                    entry[1] += c
                    entry.append(i)
        size = len(nucleus)
        total = sum(nucleus)
        for (x, y), entry in met.items():
            count = entry[0]
            if count == size:
                clause: tuple[int, ...] = (x, y)
                subsumed += entry[2:]
            elif count == size - 1:
                w = total - entry[1]  # the one literal not meeting it
                if w == -x or w == -y:
                    continue
                clause = (x, y) if w == x or w == y else (x, y, w)
            else:
                continue
            key = tuple(sorted(clause))
            if key not in loaded and key not in new:
                new.add(key)
                found.append(clause)
    return found, subsumed


_ACTIVITY_DECAY = 0.95
# the counters of ``SatResult.stats``
_STATS = ("conflicts", "decisions", "propagations", "learned", "symmetric")


class Solver:
    """One formula, decided under any number of assumption sets.

    Clauses, learned clauses, variable activities and saved phases carry
    over from one ``solve`` call to the next, so a run of closely related
    queries shares its work (MiniSat's incremental interface, Eén &
    Sörensson, SAT 2003).  Deterministic for a fixed formula and a fixed
    sequence of calls: branching ties break on the lowest variable index
    and nothing is randomized.
    """

    def __init__(self, formula: CnfFormula) -> None:
        self.formula = formula
        n = formula.num_vars
        # Per-literal tables have 2n+1 slots: a negative literal indexes
        # from the end, so ``table[lit]`` needs no sign test in the hot path.
        size = 2 * n + 1
        # False once the formula is refuted without any assumption.
        ok = True
        units: list[int] = []
        # A clause is loaded once per literal set: the first occurrence
        # keeps its place and its literal order in every list, so the lists
        # are those of the formula without the repeats.  The keys are
        # sorted tuples, far smaller than frozensets.
        first: dict[tuple[int, ...], tuple[int, ...]] = {}
        # the clauses of two or more literals, in load order
        loaded: list[Sequence[int]] = []
        clauses = formula.clauses
        for key, clause in zip(map(tuple, map(sorted, map(set, clauses))), clauses):
            if key in first:
                continue
            first[key] = clause
            # A key as long as its clause, of one sign, has no repeated
            # literal and no complementary pair to look for.
            if len(key) == len(clause) and key and (key[0] > 0 or key[-1] < 0):
                lits: Sequence[int] = clause
            else:
                lits = list(dict.fromkeys(clause))
                if any(-lit in clause for lit in lits):
                    continue
            if not lits:
                ok = False
            elif len(lits) == 1:
                units.append(lits[0])
            else:
                loaded.append(lits)
        # The resolvents follow the originals, so a formula with none
        # loads as it did without them.
        found, subsumed = hyper_resolvents(loaded, first)
        # skip[i] is 1 when a derived binary subsumes loaded[i]
        skip = bytearray(len(loaded) + len(found))
        for i in subsumed:
            skip[i] = 1
        del subsumed
        loaded += found
        # mirror[lit] is the image of lit under the candidate symmetry,
        # which reverses each nucleus; None when the formula is not
        # invariant under it, or has no nucleus.
        mirror: Optional[list[int]] = None
        nuclei = [row for row in loaded if len(row) >= 4]
        row_vars = [lit for row in nuclei for lit in row]
        if row_vars and min(row_vars) > 0 and len(set(row_vars)) == len(row_vars):
            mirror = list(range(n + 1)) + list(range(-n, 0))
            for row in nuclei:
                for lit, image in zip(row, reversed(row)):
                    mirror[lit] = image
                    mirror[-lit] = -image
            image_of = mirror.__getitem__
            images = map(tuple, map(sorted, (map(image_of, key) for key in first)))
            if not all(map(first.__contains__, images)):
                mirror = None
        del first
        # Binary clauses sit on full occurrence lists, which need no upkeep
        # when assignments change.  Every longer clause, loaded, resolvent,
        # learned or image, is watched by its first two literals, but for
        # the side clauses that a derived binary subsumes: the binary
        # implies each of them and is propagated first.  A unit needs
        # neither: its literal sits on the trail at level 0.  The lists
        # are made only once the keys are freed, so the load peaks lower.
        bins: list[list[int]] = [[] for _ in range(size)]
        watch: list[list[list[int]]] = [[] for _ in range(size)]

        def add_clause(c: list[int]) -> None:
            if len(c) == 2:
                bins[c[0]].append(c[1])
                bins[c[1]].append(c[0])
            elif len(c) > 2:
                watch[c[0]].append(c)
                watch[c[1]].append(c)

        for lits, skipped in zip(loaded, skip):
            if not skipped:
                add_clause(list(lits))
        val = [0] * size  # 1 true, -1 false, 0 unassigned; indexed by literal
        # neg[lit] is -lit as one shared int object, so the literals that
        # learned clauses keep are not each a fresh object.
        neg = [-v for v in range(n + 1)] + list(range(n, 0, -1))
        level = [0] * (n + 1)
        # the clause that implied each variable, implied literal included;
        # empty for decisions and the formula's units.  No search reads the
        # reason of a level-0 variable.
        reason: list[Sequence[int]] = [()] * (n + 1)
        trail: list[int] = []
        trail_lim: list[int] = []  # trail length at each decision
        activity = [0.0] * (n + 1)
        # score[v] is the activity of v while v is unassigned and -1.0
        # while it is assigned, so the decision is its first maximum: the
        # highest activity, lowest index on ties.  Slot 0 stays -1.0 and is
        # the maximum once every variable is assigned.
        score = [-1.0] + activity[1:]
        phase = [True] * (n + 1)
        bump = 1.0

        def enqueue(lit: int, why: Sequence[int]) -> bool:
            v = val[lit]
            if v != 0:
                return v > 0
            val[lit] = 1
            val[-lit] = -1
            var = lit if lit > 0 else -lit
            score[var] = -1.0
            level[var] = len(trail_lim)
            reason[var] = why
            trail.append(lit)
            return True

        def propagate(head: int) -> tuple[int, Sequence[int]]:
            """Returns (new head, conflicting clause or empty)."""
            # Hot path: implications are recorded inline, not via enqueue(),
            # to keep Python call overhead out of the inner loops.
            while head < len(trail):
                false_lit = neg[trail[head]]
                head += 1
                lv = len(trail_lim)
                for a in bins[false_lit]:
                    va = val[a]
                    if va > 0:
                        continue
                    if va < 0:
                        return head, (false_lit, a)
                    val[a] = 1
                    val[-a] = -1
                    var = a if a > 0 else -a
                    score[var] = -1.0
                    level[var] = lv
                    reason[var] = (a, false_lit)
                    trail.append(a)
                watchers = watch[false_lit]
                if not watchers:
                    continue
                # The clauses that keep watching false_lit are compacted to
                # the front of its list in place; the rest move away.
                i = j = 0
                nw = len(watchers)
                while i < nw:
                    c = watchers[i]
                    i += 1
                    first = c[0]
                    if first == false_lit:
                        first = c[1]
                        c[0] = first
                        c[1] = false_lit
                    a0 = val[first]
                    if a0 > 0:
                        watchers[j] = c
                        j += 1
                        continue
                    lk = c[2]
                    if val[lk] >= 0:
                        c[1], c[2] = lk, false_lit
                        watch[lk].append(c)
                        continue
                    for k in range(3, len(c)):
                        lk = c[k]
                        if val[lk] >= 0:
                            c[1], c[k] = lk, false_lit
                            watch[lk].append(c)
                            break
                    else:
                        watchers[j] = c
                        j += 1
                        if a0 < 0:
                            del watchers[j:i]
                            return head, c
                        val[first] = 1
                        val[-first] = -1
                        var = first if first > 0 else -first
                        score[var] = -1.0
                        level[var] = lv
                        reason[var] = c
                        trail.append(first)
                del watchers[j:]
            return head, ()

        def bump_var(var: int) -> None:
            nonlocal bump
            activity[var] += bump
            if activity[var] > 1e100:
                for v in range(1, n + 1):
                    activity[v] *= 1e-100
                    if score[v] >= 0.0:
                        score[v] = activity[v]
                bump *= 1e-100

        def analyze(conflict: Sequence[int]) -> tuple[list[int], int]:
            """First-UIP learned clause and the level to jump back to.

            The clause starts with the negated UIP, which the backjump
            frees and the clause then forces.  Its second literal has the
            highest level among the rest, the level jumped back to, so the
            clause watches the false literal that a later backjump frees
            first.  A unit jumps back to level 0.
            """
            learned: list[int] = []
            seen = [False] * (n + 1)
            counter = 0
            p = 0  # propagated literal being resolved on, 0 on the first pass
            clause = conflict
            idx = len(trail) - 1
            cur = len(trail_lim)
            while True:
                for lit in clause:
                    if lit == p:
                        continue
                    var = lit if lit > 0 else -lit
                    if not seen[var] and level[var] > 0:
                        seen[var] = True
                        bump_var(var)
                        if level[var] == cur:
                            counter += 1
                        else:
                            learned.append(lit)
                while not seen[abs(trail[idx])]:
                    idx -= 1
                p = trail[idx]
                var = p if p > 0 else -p
                seen[var] = False
                idx -= 1
                counter -= 1
                if counter == 0:
                    break
                clause = reason[var]
            learned.insert(0, neg[p])
            if len(learned) == 1:
                return learned, 0
            pos = max(range(1, len(learned)), key=lambda i: level[abs(learned[i])])
            learned[1], learned[pos] = learned[pos], learned[1]
            return learned, level[abs(learned[1])]

        def analyze_final(p: int) -> tuple[int, ...]:
            """The assumptions that force assumption ``p`` false, ``p`` first.

            Every decision on the trail is an assumption here, so walking
            the implication graph back from ``-p`` to the decisions it
            rests on gives a subset of the assumptions the formula refutes.
            """
            core = [p]
            seen = {abs(p)}
            if trail_lim:
                for lit in reversed(trail[trail_lim[0]:]):
                    var = lit if lit > 0 else -lit
                    if var not in seen:
                        continue
                    why = reason[var]
                    if not why:
                        core.append(lit)
                    for q in why:
                        if level[abs(q)] > 0:
                            seen.add(abs(q))
            return tuple(core)

        def attach_image(c: list[int]) -> Sequence[int]:
            """Add ``c``, the mirror image of a clause just learned.

            ``c`` is sorted so that it watches its two best literals:
            non-false ones first, then false ones from the highest level
            down.  When ``c[0]`` is unassigned and ``c`` is a unit or
            ``c[1]`` is false, ``c[0]`` is enqueued.  When every literal is
            false, ``c`` is returned as a conflict, after a backjump to the
            level of ``c[0]``; otherwise () is returned.
            """
            top = len(trail_lim) + 1  # above the level of any false literal
            c.sort(
                key=lambda lit: top if val[lit] >= 0 else level[abs(lit)], reverse=True
            )
            add_clause(c)
            v0 = val[c[0]]
            if v0 < 0:
                lv = level[abs(c[0])]
                if lv < len(trail_lim):
                    backjump(lv)
                return c
            if v0 == 0 and (len(c) == 1 or val[c[1]] < 0):
                enqueue(c[0], c)
            return ()

        # the trail position that propagation resumes from
        head = 0
        # literals unassigned by backjumps, which with the trail's length
        # counts the literals a search assigns
        dropped = 0

        def backjump(to_level: int) -> None:
            """Unassign every level above ``to_level``, saving each phase,
            and resume propagation where the trail is cut."""
            nonlocal dropped, head
            mark = head = trail_lim[to_level]
            dropped += len(trail) - mark
            for lit in trail[mark:]:
                var = lit if lit > 0 else -lit
                phase[var] = lit > 0
                score[var] = activity[var]
                val[lit] = 0
                val[-lit] = 0
            del trail[mark:]
            del trail_lim[to_level:]

        def search(assumptions: tuple[int, ...]) -> SatResult:
            nonlocal bump, ok, head
            stats = dict.fromkeys(_STATS, 0)
            if not ok:
                return SatResult(False, None, stats=stats)
            if trail_lim:
                backjump(0)
            base = len(trail) + dropped

            def result(
                satisfiable: bool,
                model: Optional[tuple[int, ...]] = None,
                core: tuple[int, ...] = (),
            ) -> SatResult:
                stats["propagations"] = len(trail) + dropped - base
                return SatResult(satisfiable, model, core, stats)

            n_assumed = len(assumptions)
            while True:
                while True:
                    head, conflict = propagate(head)
                    if not conflict:
                        break
                    # An image clause can be false as soon as it is added,
                    # which is one more conflict to analyze.
                    while conflict:
                        stats["conflicts"] += 1
                        if not trail_lim:
                            ok = False
                            return result(False)
                        learned, back = analyze(conflict)
                        backjump(back)
                        stats["learned"] += 1
                        add_clause(learned)
                        enqueue(learned[0], learned)
                        conflict = ()
                        if mirror:
                            image = [mirror[lit] for lit in learned]
                            if set(image) != set(learned):
                                stats["symmetric"] += 1
                                conflict = attach_image(image)
                        bump /= _ACTIVITY_DECAY
                # Assumptions are decided first, one level each; one that
                # already holds gets an empty level so levels stay aligned.
                lv = len(trail_lim)
                if lv < n_assumed:
                    p = assumptions[lv]
                    if val[p] < 0:
                        return result(False, None, analyze_final(p))
                    trail_lim.append(len(trail))
                    enqueue(p, ())
                    continue
                best = score.index(max(score))
                if best == 0:
                    model = tuple(v if val[v] > 0 else -v for v in range(1, n + 1))
                    if not check_model(formula, model) or any(
                        val[a] < 0 for a in assumptions
                    ):
                        raise AssertionError("solver produced a non-model")
                    return result(True, model)
                stats["decisions"] += 1
                trail_lim.append(len(trail))
                enqueue(best if phase[best] else neg[best], ())

        for u in units:
            if not enqueue(u, ()):
                ok = False
        if ok:
            head, conflict = propagate(0)
            ok = not conflict
        self._search = search

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Decide the formula with every assumption literal forced true.

        A SAT result carries a model checked against every clause and
        assumption.  An UNSAT result carries in ``core`` the failed
        assumptions, a subset of ``assumptions`` that the formula refutes
        on its own, found by final-conflict analysis; the core is empty
        when the formula has no model at all.
        """
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.formula.num_vars:
                raise ValueError(f"assumption {lit} out of range")
        return self._search(tuple(assumptions))


def sat_solve(formula: CnfFormula) -> SatResult:
    """One-shot decision of a formula; see ``Solver``."""
    return Solver(formula).solve()
