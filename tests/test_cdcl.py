"""The conflict-learning SAT engine, as the pruning loop calls it.

``constructions.sat_solve_cdcl`` is ``solver.sat_solve`` under another
name, so these tests cross-check that one engine against engine-free
references: exhaustive enumeration on random formulas and the CSP
backtracking oracle on the labeling encodings.
"""

from __future__ import annotations

import random

import sphereflow.constructions as constructions
from sphereflow.flows import FlowInstance, backtrack_search, encode_nzk
from sphereflow.solver import CnfFormula, check_model, sat_solve

from test_solver import brute_force_sat, random_formula


def test_prune_calls_the_one_solver_engine():
    assert constructions.sat_solve_cdcl is sat_solve


def test_trivial_cases():
    assert sat_solve(CnfFormula(num_vars=0, clauses=())).satisfiable
    res = sat_solve(CnfFormula(num_vars=2, clauses=((1,), (-1, 2))))
    assert res.satisfiable and set(res.model) == {1, 2}
    res = sat_solve(CnfFormula(num_vars=1, clauses=((1,), (-1,))))
    assert not res.satisfiable and res.model is None


def test_cdcl_agrees_with_dpll_on_random_formulas():
    rng = random.Random(99)
    for _ in range(400):
        f = random_formula(rng, max_vars=8)
        a = sat_solve(f)
        assert a.satisfiable == brute_force_sat(f)
        if a.satisfiable:
            assert check_model(f, a.model)


def test_cdcl_agrees_with_brute_force():
    rng = random.Random(4242)
    for _ in range(150):
        f = random_formula(rng, max_vars=6)
        assert sat_solve(f).satisfiable == brute_force_sat(f)


def test_cdcl_is_deterministic():
    rng = random.Random(31337)
    for _ in range(30):
        f = random_formula(rng, max_vars=10)
        first = sat_solve(f)
        second = sat_solve(f)
        assert first == second


def test_cdcl_on_labeling_encodings(icosi_q):
    for k, expected in ((3, False), (4, True)):
        inst = FlowInstance(icosi_q, k)
        formula = encode_nzk(inst)
        res = sat_solve(formula)
        assert res.satisfiable == expected
        if res.satisfiable:
            assert check_model(formula, res.model)
        # the SAT route and the independent oracle must agree
        assert res.satisfiable == (backtrack_search(inst) is not None)


def test_cdcl_exercises_restarts():
    # A pigeonhole-style instance small enough to stay fast but hard
    # enough to generate conflicts: 5 pigeons, 4 holes.
    pigeons, holes = 5, 4
    var = lambda p, h: p * holes + h + 1
    clauses = []
    for p in range(pigeons):
        clauses.append(tuple(var(p, h) for h in range(holes)))
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    f = CnfFormula(num_vars=pigeons * holes, clauses=tuple(clauses))
    assert not sat_solve(f).satisfiable
