"""SAT layer: DIMACS round trips and the conflict-learning decision procedure.

The one engine is cross-checked against engine-free references:
exhaustive enumeration on random formulas and the CSP backtracking
oracle on the labeling encodings.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_flowsat import _pinned_formulas

import sphereflow.constructions as constructions
import sphereflow.solver as solver_module
from sphereflow.flows import (
    FlowInstance,
    backtrack_search,
    decide_labeling,
    encode_nzk,
    encode_support,
    expected_support_clause_count,
)
from sphereflow.solver import (
    CnfFormula,
    SatResult,
    Solver,
    check_model,
    hyper_resolvents,
    parse_dimacs,
    sat_solve,
)


def brute_force_sat(formula: CnfFormula) -> bool:
    n = formula.num_vars
    for bits in itertools.product((False, True), repeat=n):
        sign = dict(enumerate(bits, start=1))
        if all(
            any(sign[abs(lit)] == (lit > 0) for lit in clause)
            for clause in formula.clauses
        ):
            return True
    return False


def random_formula(rng: random.Random, max_vars: int = 8) -> CnfFormula:
    n = rng.randint(1, max_vars)
    m = rng.randint(0, 4 * n)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(num_vars=n, clauses=tuple(clauses))


def test_trivial_cases():
    empty = CnfFormula(num_vars=0, clauses=())
    assert sat_solve(empty).satisfiable
    one = CnfFormula(num_vars=1, clauses=((1,),))
    res = sat_solve(one)
    assert res.satisfiable and res.model == (1,)
    chain = CnfFormula(num_vars=2, clauses=((1,), (-1, 2)))
    assert sat_solve(chain).model == (1, 2)
    contradiction = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
    res = sat_solve(contradiction)
    assert not res.satisfiable and res.model is None
    assert not bool(res)


def test_prune_calls_the_one_solver_engine():
    assert constructions.sat_solve_cdcl is sat_solve


def test_formula_validates_literals():
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((0,),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((3,),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=-1, clauses=())


def test_solver_agrees_with_brute_force():
    rng = random.Random(12345)
    for _ in range(300):
        f = random_formula(rng)
        res = sat_solve(f)
        assert res.satisfiable == brute_force_sat(f)
        if res.satisfiable:
            assert check_model(f, res.model)
            assert len(res.model) == f.num_vars
            assert tuple(abs(lit) for lit in res.model) == tuple(
                range(1, f.num_vars + 1)
            )


def test_solver_agrees_with_brute_force_on_wide_clauses():
    # Clauses of four or more literals take the watched-literal path;
    # repeated and complementary literals exercise the clause clean-up.
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(1, 9)
        clauses = tuple(
            tuple(
                rng.choice((1, -1)) * rng.randint(1, n)
                for _ in range(rng.randint(1, 6))
            )
            for _ in range(rng.randint(0, 5 * n))
        )
        f = CnfFormula(num_vars=n, clauses=clauses)
        res = sat_solve(f)
        assert res.satisfiable == brute_force_sat(f)
        if res.satisfiable:
            assert check_model(f, res.model)


def test_solver_is_deterministic():
    rng = random.Random(31337)
    for _ in range(30):
        f = random_formula(rng, max_vars=10)
        assert sat_solve(f) == sat_solve(f)


def test_solver_decides_labeling_encodings(icosi_q):
    for k, expected in ((3, False), (4, True)):
        inst = FlowInstance(icosi_q, k)
        formula = encode_nzk(inst)
        res = sat_solve(formula)
        assert res.satisfiable == expected
        if res.satisfiable:
            assert check_model(formula, res.model)
        # the SAT route and the independent oracle must agree
        assert res.satisfiable == (backtrack_search(inst) is not None)


def _pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    var = lambda p, h: p * holes + h + 1
    clauses = []
    for p in range(pigeons):
        clauses.append(tuple(var(p, h) for h in range(holes)))
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return CnfFormula(num_vars=pigeons * holes, clauses=tuple(clauses))


def test_solver_refutes_pigeonhole():
    # Five pigeons in four holes: small enough to stay fast, hard enough
    # to take many conflicts and backjumps.
    assert not sat_solve(_pigeonhole(5, 4)).satisfiable


def test_activity_rescale_keeps_every_answer(monkeypatch):
    """With decay 0.5 the bump doubles at each conflict and passes 1e100,
    which rescales every activity, after about 330 conflicts; seven
    pigeons in six holes take over a thousand."""
    monkeypatch.setattr(solver_module, "_ACTIVITY_DECAY", 0.5)
    php = _pigeonhole(7, 6)
    # a guard literal on pigeon 0's row: assuming it false refutes the
    # formula, and without assumptions the formula has models
    guard = php.num_vars + 1
    f = CnfFormula(guard, ((guard,) + php.clauses[0],) + php.clauses[1:])
    solver = Solver(f)
    res = solver.solve((-guard,))
    assert not res.satisfiable and res.core == (-guard,)
    res = solver.solve()
    assert res.satisfiable and check_model(f, res.model)
    rng = random.Random(4242)
    for _ in range(200):
        f = random_formula(rng)
        res = sat_solve(f)
        assert res.satisfiable == brute_force_sat(f)
        if res.satisfiable:
            assert check_model(f, res.model)


def _resolvents(
    f: CnfFormula,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``hyper_resolvents`` on the distinct clauses of ``f`` in load order,
    each as the sorted literal set that ``Solver`` keys it by: the
    resolvents, and the distinct clauses a derived binary subsumes, which
    ``Solver`` does not watch, in load order."""
    loaded = dict.fromkeys(tuple(sorted(set(c))) for c in f.clauses)
    keys = list(loaded)
    found, subsumed = hyper_resolvents(keys, loaded)
    return found, [keys[i] for i in sorted(set(subsumed))]


def test_resolvents_of_the_direct_cnf_are_the_support_clauses(
    icosi_q, ce1_q, ce2_q
):
    """Loading the direct CNF derives exactly the support clauses of the
    class triples, and a support formula has nothing left to derive, so
    its search is unchanged."""
    for q in (icosi_q, ce1_q, ce2_q):
        for k in (3, 4, 5):
            support = encode_support(q.n_reps, q.class_triples, k)
            # the one-value rows that both encodings start with
            shared = expected_support_clause_count(q.n_reps, 0, k)
            found, _ = _resolvents(encode_nzk(FlowInstance(q, k)))
            assert len(found) == q.n_classes * 3 * (2 * k) ** 2
            assert {frozenset(c) for c in found} == {
                frozenset(c) for c in support.clauses[shared:-1]
            }
            assert _resolvents(support) == ([], [])


def test_guarded_formulas_derive_through_the_sign_clause(icosi_q, ce1_q, ce2_q):
    """A guarded support formula gains no resolvent at k=3.  From k=4 on
    its sign clause has k literals, so it is a nucleus too, and the
    guarded ternaries on its negated literals give clauses of two and
    three literals, each with one negated selector and no positive
    literal outside the sign clause."""
    for q, count in ((icosi_q, 8), (ce1_q, 16), (ce2_q, 8)):
        for k in (3, 4, 5):
            guarded = encode_support(q.n_reps, q.class_triples, k, guarded=True)
            found, _ = _resolvents(guarded)
            if k == 3:
                assert found == []
                continue
            assert len(found) == count
            assert {len(c) for c in found} == {2, 3}
            selector = q.n_reps * 2 * k + 1  # the lowest selector variable
            sign = set(guarded.clauses[-1])
            for c in found:
                assert sum(lit <= -selector for lit in c) == 1
                assert {lit for lit in c if lit > 0} <= sign


# clauses that a derived binary subsumes, per pinned formula at k = 3, 4, 5:
# (direct, support, guarded support)
SUBSUMED_COUNTS = {
    "icosi": ((1840, 0, 0), (4060, 0, 16), (7620, 0, 20)),
    "ce1": ((3680, 0, 0), (8120, 0, 32), (15240, 0, 40)),
    "ce2": ((2392, 0, 0), (5278, 0, 16), (9906, 0, 20)),
}


def test_derived_binaries_subsume_side_clauses(icosi_q, ce1_q, ce2_q):
    """On the direct CNF each out-of-range value pair gives a binary that
    subsumes all 2k blocking clauses of the pair, and ``Solver`` watches
    none of them.  An unguarded support formula derives nothing, and a
    guarded one only through its sign clause, from k=4 on.  Every skipped
    clause is a ternary that holds a derived binary."""
    quotients = {"icosi": icosi_q, "ce1": ce1_q, "ce2": ce2_q}
    for name, by_k in SUBSUMED_COUNTS.items():
        for k, counts in zip((3, 4, 5), by_k):
            got = []
            for f in _pinned_formulas(quotients[name], k):
                found, skipped = _resolvents(f)
                binaries = {frozenset(c) for c in found if len(c) == 2}
                for c in skipped:
                    assert len(c) == 3
                    pairs = map(frozenset, itertools.combinations(c, 2))
                    assert not binaries.isdisjoint(pairs)
                got.append(len(skipped))
            assert tuple(got) == counts, (name, k)


def test_resolvent_rule_on_small_clauses():
    # (1 | 2 | 3 | 4) with -1, -2, -3 each beside (5 | 6), and -4 beside
    # nothing: (5 | 6 | 4) follows.  With -4 beside (5 | 6) too, (5 | 6).
    sides = ((-1, 5, 6), (6, -2, 5), (5, 6, -3))
    nucleus = (1, 2, 3, 4)
    assert _resolvents(CnfFormula(6, (nucleus,) + sides)) == ([(5, 6, 4)], [])
    # (5 | 6) subsumes every side clause it is resolved from
    f = CnfFormula(6, (nucleus,) + sides + ((-4, 6, 5),))
    subsumed = [(-1, 5, 6), (-2, 5, 6), (-3, 5, 6), (-4, 5, 6)]
    assert _resolvents(f) == ([(5, 6)], subsumed)
    # a resolvent already in the formula, or a tautology, is not derived;
    # a loaded binary that a nucleus meets subsumes its side clauses too
    assert _resolvents(CnfFormula(6, (nucleus,) + sides + ((4, 5, 6),))) == ([], [])
    g = CnfFormula(6, (nucleus, (5, 6)) + sides + ((-4, 6, 5),))
    assert _resolvents(g) == ([], subsumed)
    taut = ((-1, 5, -4), (-2, 5, -4), (-3, 5, -4))
    assert _resolvents(CnfFormula(6, (nucleus,) + taut)) == ([], [])
    # the residual (5 | 4) holds the missing literal 4: the resolvent is
    # (4 | 5), met by only three of the four literals, so it subsumes nothing
    repeat = ((-1, 4, 5), (-2, 4, 5), (-3, 4, 5))
    assert _resolvents(CnfFormula(6, (nucleus,) + repeat)) == ([(4, 5)], [])
    # two literals with no side clause leave nothing to derive
    assert _resolvents(CnfFormula(6, (nucleus,) + sides[:2])) == ([], [])


def test_check_model_rejects_bad_assignment():
    f = CnfFormula(num_vars=2, clauses=((1, 2), (-1, 2)))
    assert check_model(f, (1, 2))
    assert not check_model(f, (1, -2))
    # unassigned variables count as false
    assert not check_model(f, (1,))
    assert check_model(f, (2,))


def test_dimacs_round_trip():
    f = CnfFormula(num_vars=4, clauses=((1, -3), (2, 3, -4), (-1,)))
    text = f.to_dimacs()
    assert text.splitlines()[0] == "p cnf 4 3"
    assert text.endswith("0\n")
    g = parse_dimacs(text)
    assert g == f


def test_dimacs_accepts_comments_and_blank_lines():
    text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 2 and f.clauses == ((1, -2),)


def test_dimacs_multiline_clause():
    f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert f.clauses == ((1, 2, 3),)


@pytest.mark.parametrize(
    "text",
    [
        "1 2 0\n",  # missing header
        "p cnf 2\n1 0\n",  # short header
        "p sat 2 1\n1 0\n",  # wrong format tag
        "p cnf 2 2\n1 0\n",  # clause count mismatch
        "p cnf 2 1\n1 2\n",  # unterminated clause
        "p cnf 1 1\n2 0\n",  # literal out of range
        "1 2 0\np cnf 2 1\n",  # clause before the header
        "p cnf 2 1\np cnf 3 1\n1 0\n",  # second header
        "p cnf 2 1\n1 0\np cnf 2 1\n",  # second header after the clauses
        "p cnf -1 0\n",  # negative variable count
        "p cnf 2 -1\n",  # negative clause count
        "pcnf cnf 2 1\n1 0\n",  # header word other than p
    ],
)
def test_dimacs_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_dimacs(text)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_solver_vs_brute_property(seed):
    rng = random.Random(seed)
    f = random_formula(rng, max_vars=6)
    res = sat_solve(f)
    assert res.satisfiable == brute_force_sat(f)
    if res.satisfiable:
        assert check_model(f, res.model)


def _with_units(f: CnfFormula, lits) -> CnfFormula:
    # units first, so brute force rejects most assignments at once
    return CnfFormula(f.num_vars, tuple((lit,) for lit in lits) + f.clauses)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    wide=st.booleans(),
)
def test_assumptions_cores_and_successive_solves(seed, wide):
    """One solver under a run of assumption sets decides each as a fresh
    solve of the formula plus the assumptions as unit clauses, and every
    core is a subset of its assumptions that the formula refutes."""
    rng = random.Random(seed)
    if wide:  # clauses of four or more literals take the watched path
        n = rng.randint(1, 8)
        clauses = tuple(
            tuple(
                rng.choice((1, -1)) * rng.randint(1, n)
                for _ in range(rng.randint(1, 6))
            )
            for _ in range(rng.randint(0, 5 * n))
        )
        f = CnfFormula(n, clauses)
    else:
        f = random_formula(rng, max_vars=8)
    solver = Solver(f)
    for _ in range(5):
        # literals drawn with replacement, so repeats and p, -p pairs occur
        assumptions = tuple(
            rng.choice((1, -1)) * rng.randint(1, f.num_vars)
            for _ in range(rng.randint(0, f.num_vars))
        )
        res = solver.solve(assumptions)
        units = _with_units(f, assumptions)
        expected = brute_force_sat(units)
        assert res.satisfiable == expected
        assert sat_solve(units).satisfiable == expected
        if expected:
            assert check_model(units, res.model) and res.core == ()
        else:
            assert set(res.core) <= set(assumptions)
            assert not brute_force_sat(_with_units(f, res.core))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_one_hot_instances_with_resolvents(seed):
    """Exactly-one groups with random ternary blocking clauses, the shape
    of the direct labeling CNF, so groups of four literals are nuclei
    that the load resolves: answers match brute force, every core is
    refuted, and sampled resolvents are implied by the formula."""
    rng = random.Random(seed)
    # 3-6 groups of 2-4 literals, at most 12 variables for brute force;
    # dropping whole groups first keeps groups of four, the nuclei
    sizes = [rng.randint(2, 4) for _ in range(rng.randint(3, 6))]
    while sum(sizes) > 12:
        if len(sizes) > 3:
            sizes.pop()
        else:
            sizes[sizes.index(max(sizes))] -= 1
    groups, clauses, n = [], [], 0
    for size in sizes:
        group = list(range(n + 1, n + size + 1))
        n += size
        groups.append(group)
        clauses.append(tuple(group))
        clauses += [(-a, -b) for a, b in itertools.combinations(group, 2)]
    density = rng.uniform(0.3, 1.0)
    for members in itertools.combinations(groups, 3):
        for values in itertools.product(*members):
            if rng.random() < density:
                clauses.append(tuple(-v for v in rng.sample(values, 3)))
    f = CnfFormula(n, tuple(clauses))
    found, _ = _resolvents(f)
    for resolvent in rng.sample(found, min(2, len(found))):
        assert not brute_force_sat(_with_units(f, (-lit for lit in resolvent)))
    solver = Solver(f)
    for _ in range(4):
        assumptions = tuple(
            rng.choice((1, -1)) * rng.randint(1, f.num_vars)
            for _ in range(rng.randint(0, 4))
        )
        res = solver.solve(assumptions)
        units = _with_units(f, assumptions)
        assert res.satisfiable == brute_force_sat(units)
        if res.satisfiable:
            assert check_model(units, res.model)
        else:
            assert set(res.core) <= set(assumptions)
            assert not brute_force_sat(_with_units(f, res.core))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_clauses_subsumed_by_derived_binaries(seed):
    """Exactly-one rows, each an at-least-one nucleus with its at-most-one
    binaries, and random ternary side clauses.  One residual of a nucleus
    is met by each of its literals, so the load derives a binary and
    leaves the side clauses it subsumes unwatched; another is met by all
    but one, so its side clauses stay watched.  Every answer still
    matches brute force, alone and under assumptions, and every model
    satisfies the formula."""
    rng = random.Random(seed)
    # a nucleus of 4 literals and 1-3 more rows of 2-4, at most 12 variables
    sizes = [4] + [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
    while sum(sizes) > 12:
        sizes.pop()
    rows, clauses, n = [], [], 0
    for size in sizes:
        row = list(range(n + 1, n + size + 1))
        n += size
        rows.append(row)
        clauses.append(tuple(row))
        clauses += [(-a, -b) for a, b in itertools.combinations(row, 2)]

    def lit(v: int) -> int:
        return v if rng.random() < 0.5 else -v

    for row in rows:
        if len(row) < 4:
            continue
        others = [v for v in range(1, n + 1) if v not in row]
        # one residual met by every literal, so a binary that subsumes its
        # side clauses, and one met by all but one, whose side clauses stay
        x, y = map(lit, rng.sample(others, 2))
        clauses += [(-c, x, y) for c in row]
        missing = rng.choice(row)
        x, y = map(lit, rng.sample(others, 2))
        clauses += [(-c, x, y) for c in row if c != missing]
        for _ in range(rng.randint(0, 2 * len(row))):
            clauses.append((-rng.choice(row),) + tuple(map(lit, rng.sample(others, 2))))
    for _ in range(rng.randint(0, n)):
        clauses.append(tuple(map(lit, rng.sample(range(1, n + 1), 3))))
    rng.shuffle(clauses)
    f = CnfFormula(n, tuple(clauses))
    _, skipped = _resolvents(f)
    assert len(skipped) >= 4
    res = sat_solve(f)
    assert res.satisfiable == brute_force_sat(f)
    if res.satisfiable:
        assert check_model(f, res.model)
    solver = Solver(f)
    for _ in range(4):
        assumptions = tuple(lit(rng.randint(1, n)) for _ in range(rng.randint(1, 4)))
        res = solver.solve(assumptions)
        units = _with_units(f, assumptions)
        assert res.satisfiable == brute_force_sat(units)
        if res.satisfiable:
            assert check_model(units, res.model)
        else:
            assert not brute_force_sat(_with_units(f, res.core))


def _mirrored(
    rng: random.Random, sizes, extra: int, count: int, weights=(1, 8, 24)
):
    """Disjoint all-positive rows of the given sizes, then ``count`` random
    clauses of 1, 2 or 3 literals, drawn with ``weights``, over the rows'
    variables and ``extra`` more.  Each is paired with its image under
    the symmetry that reverses every row and fixes the extra variables.
    Returns the variable count, the rows and the (clause, image) pairs."""
    n = sum(sizes) + extra
    image = list(range(n + 1))  # image[v] for each variable v
    rows = []
    for size in sizes:
        start = rows[-1][-1] + 1 if rows else 1
        row = tuple(range(start, start + size))
        rows.append(row)
        for v, w in zip(row, reversed(row)):
            image[v] = w
    pairs = []
    for _ in range(count):
        width = rng.choices((1, 2, 3), weights)[0]
        vs = rng.sample(range(1, n + 1), width)
        clause = tuple(v * rng.choice((1, -1)) for v in vs)
        pairs.append((clause, tuple(image[x] if x > 0 else -image[-x] for x in clause)))
    return n, rows, pairs


def _small_mirrored(rng: random.Random):
    """``_mirrored`` with one or two rows and at most 10 variables, few
    enough for brute force."""
    sizes = [rng.randint(4, 5) for _ in range(rng.randint(1, 2))]
    extra = rng.randint(0, 10 - sum(sizes))
    n = sum(sizes) + extra
    return _mirrored(rng, sizes, extra, rng.randint(n, 3 * n))


def _mirrored_formula(n: int, rows, pairs) -> CnfFormula:
    return CnfFormula(n, tuple(rows) + tuple(c for pair in pairs for c in pair))


def _assumption_sets(rng: random.Random, n: int, count: int, most: int):
    """``count`` sets of up to ``most`` literals, drawn with replacement."""
    for _ in range(count):
        size = rng.randint(0, most)
        yield tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(size))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_mirrored_formulas_match_brute_force(seed):
    """A formula invariant under reversing its rows learns the image of
    each learned clause too, and still decides every assumption set as
    brute force does, with checked models and refuted cores."""
    rng = random.Random(seed)
    n, rows, pairs = _small_mirrored(rng)
    f = _mirrored_formula(n, rows, pairs)
    solver = Solver(f)
    for assumptions in _assumption_sets(rng, n, 5, 4):
        res = solver.solve(assumptions)
        units = _with_units(f, assumptions)
        assert res.satisfiable == brute_force_sat(units)
        assert res.stats["symmetric"] <= res.stats["learned"] <= res.stats["conflicts"]
        if res.satisfiable:
            assert check_model(units, res.model)
        else:
            assert set(res.core) <= set(assumptions)
            assert not brute_force_sat(_with_units(f, res.core))


@pytest.mark.parametrize("seed", [137, 651, 3679, 4695])
def test_mirror_images_that_are_false_when_learned(seed):
    """Seeds whose searches add an image clause that the trail already
    falsifies, at the current level or below it, so the search analyzes
    it as a conflict.  Each answer matches a solver that learns no
    images: the same formula plus a row of four fresh variables and a
    clause on them whose image is missing."""
    rng = random.Random(seed)
    sizes = [rng.randint(4, 8) for _ in range(3)]
    n, rows, pairs = _mirrored(rng, sizes, 2, 2 * (sum(sizes) + 2), weights=(0, 0, 1))
    f = _mirrored_formula(n, rows, pairs)
    fresh = tuple(range(n + 1, n + 5))
    plain = Solver(CnfFormula(n + 4, f.clauses + (fresh, (fresh[0], -fresh[1]))))
    solver = Solver(f)
    for assumptions in _assumption_sets(rng, n, 3, 3):
        res = solver.solve(assumptions)
        ref = plain.solve(assumptions)
        assert ref.stats["symmetric"] == 0
        assert res.satisfiable == ref.satisfiable
        if res.satisfiable:
            assert check_model(_with_units(f, assumptions), res.model)
        else:
            assert set(res.core) <= set(assumptions)
            assert not plain.solve(res.core).satisfiable


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_nearly_mirrored_formula_learns_no_images(seed):
    """Without one image clause the formula is not invariant under the
    row reversal, so the solver adds no image and still answers as brute
    force does."""
    rng = random.Random(seed)
    n, rows, pairs = _small_mirrored(rng)
    row = rows[0]
    # (row[0] | -row[1]) stays, and its image (row[-1] | -row[-2]) goes
    missing = {row[-1], -row[-2]}
    clauses = _mirrored_formula(n, rows, pairs).clauses + ((row[0], -row[1]),)
    f = CnfFormula(n, tuple(c for c in clauses if set(c) != missing))
    solver = Solver(f)
    for assumptions in _assumption_sets(rng, n, 5, 4):
        res = solver.solve(assumptions)
        assert res.stats["symmetric"] == 0
        units = _with_units(f, assumptions)
        assert res.satisfiable == brute_force_sat(units)
        if res.satisfiable:
            assert check_model(units, res.model)
        else:
            assert not brute_force_sat(_with_units(f, res.core))


def test_direct_cnf_learns_mirror_images(ce1_q, ce2_q):
    """The direct CNF is invariant under negating every value, so each
    learned clause comes with its image, unless the symmetry maps it onto
    itself, and the refutations at k=4 take far fewer conflicts than the
    3121 and 1086 of a search without."""
    for q, conflicts, images in ((ce1_q, 1329, 1328), (ce2_q, 459, 458)):
        res = sat_solve(encode_nzk(FlowInstance(q, 4)))
        assert not res.satisfiable
        assert res.stats["conflicts"] == conflicts
        assert res.stats["learned"] == conflicts - 1
        assert res.stats["symmetric"] == images
        assert res.stats["decisions"] > 0 and res.stats["propagations"] > 0


def _prune_solves(ps) -> list[SatResult]:
    """Every ``Solver.solve`` result of one ``unsat_preserving_prune(ps, 4)``
    run, in call order."""
    results = []
    solve = Solver.solve

    def recorded_solve(self, assumptions=()):
        results.append(solve(self, assumptions))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Solver, "solve", recorded_solve)
        constructions.unsat_preserving_prune(ps, 4)
    return results


@pytest.fixture(scope="module")
def ce1_prune_solves(ce1) -> list[SatResult]:
    return _prune_solves(ce1)


@pytest.fixture(scope="module")
def ce2_prune_solves(ce2) -> list[SatResult]:
    """The solves of the prune that ``build_second_counterexample`` runs."""
    return _prune_solves(ce2.component)


def test_support_route_learns_no_images(
    icosi_q, ce1_q, ce2_q, ce1_prune_solves, ce2_prune_solves
):
    """The sign clause of a support formula, and the guards of a guarded
    one, break the mirror symmetry: every solve that decides a labeling
    or a prune step searches without images."""
    results = []

    def recorded(formula):
        results.append(sat_solve(formula))
        return results[-1]

    for q in (icosi_q, ce1_q, ce2_q):
        for k in (3, 4, 5):
            decide_labeling(FlowInstance(q, k), recorded)
    assert [r.stats["symmetric"] for r in results] == [0] * 9
    # ce1 at k=4, refuted by the support formula
    assert results[4].stats["conflicts"] == 1414
    assert len(ce1_prune_solves) > 20
    prune_solves = ce1_prune_solves + ce2_prune_solves
    assert all(r.stats["symmetric"] == 0 for r in prune_solves)


# ``_search_digest`` of the 27 pinned formulas, of the ce1 prune's solves
# and of the ce2 prune's solves.
PINNED_SEARCHES = "0ec082a28cee346f2fc527b600341cdb67797ee5c13d8c65f0fe4e5ef9618ce0"
PINNED_PRUNE_SEARCHES = (
    "00ca055162b6d496dae45075f8ad92e2924cbf678632ba42e5addae3498d6736"
)
PINNED_CE2_PRUNE_SEARCHES = (
    "a7bec0b23223d7cdc5ea3fa0f8afa15766a9e70dfdfa21b6bc48cc1b90045c7a"
)


def _search_digest(results) -> str:
    """SHA-256 of each result's answer, model, core and every counter."""
    searches = [
        (r.satisfiable, r.model, r.core, sorted(r.stats.items())) for r in results
    ]
    return hashlib.sha256(repr(searches).encode()).hexdigest()


def _assert_searches_pinned(searches, pinned: str) -> None:
    """The digest of the (label, result) pairs' results is the gate; its
    message gives each label, answer and conflicts, to show which moved."""
    table = "\n".join(
        f"{label}: {'SAT' if r.satisfiable else 'UNSAT'}, "
        f"{r.stats['conflicts']} conflicts"
        for label, r in searches
    )
    assert _search_digest(r for _, r in searches) == pinned, f"searches:\n{table}"


def test_search_is_pinned(icosi_q, ce1_q, ce2_q, ce1_prune_solves, ce2_prune_solves):
    """The answer, model, core and every ``stats`` counter of three sets of
    searches are pinned: the 27 formulas of ``test_formula_bytes_are_pinned``
    solved once each, and every solve of the ce1 and of the ce2 prune at
    k=4.  A change to the solver that is meant to leave the search alone
    must keep every digest; one that moves a search shows each of its
    set's labels, answers and conflicts."""
    pinned = [
        (f"{name} k={k} {encoding}", sat_solve(f))
        for name, q in (("icosi", icosi_q), ("ce1", ce1_q), ("ce2", ce2_q))
        for k in (3, 4, 5)
        for encoding, f in zip(("direct", "support", "guarded"), _pinned_formulas(q, k))
    ]
    _assert_searches_pinned(pinned, PINNED_SEARCHES)
    for name, solves, digest in (
        ("ce1", ce1_prune_solves, PINNED_PRUNE_SEARCHES),
        ("ce2", ce2_prune_solves, PINNED_CE2_PRUNE_SEARCHES),
    ):
        labeled = [(f"{name} prune solve {i}", r) for i, r in enumerate(solves)]
        _assert_searches_pinned(labeled, digest)


def test_stats_count_each_solve():
    # reversing each pigeon's row of holes maps the pigeonhole formula
    # onto itself, so it learns images too
    solver = Solver(_pigeonhole(5, 4))
    first, second = solver.solve(), solver.solve()
    assert set(first.stats) == {
        "conflicts", "decisions", "propagations", "learned", "symmetric"
    }
    assert first.stats["symmetric"] > 0
    # the first solve refutes the formula, and the second starts its
    # counters from zero
    assert first.stats["conflicts"] > second.stats["conflicts"] == 0
    # the counters take no part in equality
    assert first == SatResult(False, None)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@example(seed=66)
@example(seed=62009)
def test_repeated_clauses_leave_every_answer_unchanged(seed):
    """Repeats of binary and ternary clauses, literals permuted, placed
    anywhere after their originals, give the same answers, models and
    cores under every assumption set as the formula without them."""
    rng = random.Random(seed)
    # large enough that the search backtracks, so clause order matters
    n = rng.randint(6, 14)
    f = CnfFormula(n, tuple(
        tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), width))
        for width in rng.choices((1, 2, 3), (1, 4, 12), k=rng.randint(2 * n, 5 * n))
    ))
    m = len(f.clauses)
    # (place, is copy, clause): a copy sorts after its original
    entries = [(i, 0, c) for i, c in enumerate(f.clauses)]
    for i, c in enumerate(f.clauses):
        for _ in range(rng.choice((0, 0, 1, 2)) if len(c) > 1 else 0):
            entries.append((rng.randint(i, m), 1, tuple(rng.sample(c, len(c)))))
    g = CnfFormula(f.num_vars, tuple(c for *_, c in sorted(entries)))
    plain, repeated = Solver(f), Solver(g)
    for _ in range(5):
        assumptions = tuple(
            rng.choice((1, -1)) * rng.randint(1, f.num_vars)
            for _ in range(rng.randint(0, n // 2))
        )
        assert repeated.solve(assumptions) == plain.solve(assumptions)


def test_core_names_the_failed_assumptions():
    # 1 -> 2 and 2 -> -3: assuming 1 and 3 fails; 4 plays no part
    solver = Solver(CnfFormula(4, ((-1, 2), (-2, -3))))
    res = solver.solve((4, 1, 3))
    assert not res.satisfiable and sorted(res.core) == [1, 3]
    assert solver.solve((4, 1)).satisfiable
    # a formula refuted without assumptions has an empty core
    res = Solver(CnfFormula(1, ((1,), (-1,)))).solve((1,))
    assert not res.satisfiable and res.core == ()
    with pytest.raises(ValueError):
        solver.solve((5,))


def test_satresult_truthiness():
    assert bool(SatResult(satisfiable=True, model=()))
    assert not bool(SatResult(satisfiable=False, model=None))
