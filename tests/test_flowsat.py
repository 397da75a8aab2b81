"""Labeling problem: CNF encoding, witness handling, engine agreement."""

from __future__ import annotations

import hashlib
import itertools
import random
import signal
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereflow.flows import (
    FlowInstance,
    Labeling,
    backtrack_search,
    class_refuter,
    count_zero_sum_values,
    decide_labeling,
    decode_witness,
    encode_nzk,
    encode_support,
    expected_clause_count,
    expected_support_clause_count,
    min_flow_number,
    min_mod_flow_number,
    value_slots,
    verify_labeling,
)
from sphereflow.geometry import SpherePoint
from sphereflow.oracle import CspProblem, csp_solve
from sphereflow.quotient import AntipodalQuotient
from sphereflow.solver import sat_solve


def synthetic_quotient(
    rng: random.Random, n_reps: int, n_triples: int, triples=None
):
    """A quotient skeleton for encoding tests; representative geometry is
    irrelevant to the labeling problem, so dummy points suffice.  Given
    ``triples``, it carries those instead of random ones, each triple in
    a class of its own."""
    dummy = SpherePoint.from_floats(0.0, 0.0, 1.0)
    if triples is None:
        triples = []
        for _ in range(n_triples):
            reps = sorted(rng.sample(range(n_reps), 3))
            triples.append(tuple((r, rng.choice((-1, 1))) for r in reps))
    return AntipodalQuotient(
        representatives=(dummy,) * n_reps,
        orientation=tuple((i, 1) for i in range(n_reps)),
        oriented_triples=tuple(triples),
        triple_classes=tuple((i,) for i in range(len(triples))),
    )


def test_value_slots():
    assert value_slots(1) == (-1, 1)
    assert value_slots(3) == (-3, -2, -1, 1, 2, 3)
    with pytest.raises(ValueError):
        value_slots(0)


def test_zero_sum_value_counts_frozen():
    # pinned counts of ordered nonzero triples over {+-1..+-k} summing to 0
    assert [count_zero_sum_values(k) for k in range(1, 6)] == [0, 6, 18, 36, 60]


def test_flow_instance_validation(icosi_q):
    with pytest.raises(ValueError):
        FlowInstance(icosi_q, 0)


def test_encoding_matches_closed_form(icosi_q, ce1_q, ce2_q):
    cases = [
        (icosi_q, 3, 90, 4200),
        (icosi_q, 4, 120, 9955),
        (ce1_q, 4, 200, 19765),
        (ce2_q, 4, 144, 6710),
        (ce2_q, 5, 180, 13048),
    ]
    for q, k, n_vars, n_clauses in cases:
        inst = FlowInstance(q, k)
        formula = encode_nzk(inst)
        assert formula.num_vars == n_vars
        assert formula.n_clauses == n_clauses
        assert n_clauses == expected_clause_count(
            q.n_reps, len(inst.triples), k
        )


def test_support_encoding_matches_closed_form(ce1_q, ce2_q):
    # mirror triples collapsed, as decide_labeling hands them over: one
    # block, 4566 clauses against the direct encoding's 19765
    formula = encode_support(ce1_q.n_reps, ce1_q.class_triples, 4)
    assert (formula.num_vars, formula.n_clauses) == (200, 4566)
    assert formula.n_clauses == expected_support_clause_count(25, 20, 4)
    assert formula.clauses[-1] == (5, 6, 7, 8)  # rep 0 positive
    # mirrors kept: each adds 3*(2k)^2 clauses, still one sign clause
    full = encode_support(ce1_q.n_reps, ce1_q.oriented_triples, 4)
    assert full.n_clauses == 4566 + 20 * 3 * 64
    # a rep in no triple gets no sign clause
    lone = encode_support(4, [((0, 1), (1, 1), (2, -1))], 1)
    assert lone.clauses[-1] == (2,) and (8,) not in lone.clauses
    assert lone.n_clauses == expected_support_clause_count(4, 1, 1)
    # three free reps before ce2's: the sign clause names rep 3
    shifted = [tuple((r + 3, s) for r, s in t) for t in ce2_q.class_triples]
    padded = encode_support(ce2_q.n_reps + 3, shifted, 4)
    assert padded.clauses[-1] == (29, 30, 31, 32)
    assert padded.n_clauses == expected_support_clause_count(21, 13, 4)


def test_encoding_is_byte_deterministic(icosi_q):
    a = encode_nzk(FlowInstance(icosi_q, 3)).to_dimacs()
    b = encode_nzk(FlowInstance(icosi_q, 3)).to_dimacs()
    assert a == b
    assert a.splitlines()[0] == "p cnf 90 4200"


# SHA-256 of to_dimacs() per instance and k: the direct CNF, the support
# CNF over class_triples, and the same support CNF guarded
PINNED_FORMULA_HASHES = {
    "icosi": {
        3: (
            "7eb0c5f75595eb8d6013f6a3e3ef5e3fbb6aa7284afdc082331e09d69f1526b8",
            "0593aaee557d7d2d808c79b69d505f185a16cc01d41d86a4b3a0d6e71faa6d0a",
            "59fdc99f9428002d1e4043bbf5c8b97809dcad097ad2b362903e86ffb5909587",
        ),
        4: (
            "a8f51909e879de55546d51266d5620f76e8e1a2a3b3ea0f7b631526f7d097db9",
            "23657b812e10c16ea333e2dbbf9afc2fe1d8084cf1a388da26d5ea443bbdc614",
            "91d0631c3248807208f55ab64e65526fb8fff39d6e46ed32e666be344a3b57b4",
        ),
        5: (
            "d3578ab8616e7d86dda7083df81c13a792643704d40e8e0918ee475b0b18ee86",
            "abb9234a8ca3672cb84869a2c78a910d32eec8a41f6288b2f55a25e843dfc4d4",
            "5627c1aa3d6336b51cbab45094ef1f9f8e76aaf7eb313afe4732743c7a84b218",
        ),
    },
    "ce1": {
        3: (
            "e7d8c64231fa8266f3063f69ff6f2a75e2951c0e990e7a75cea6e3c59ee29ba0",
            "747a16c3501f5ec78bff5724a2215ae6880af8d519d33e80ee67883afed2b62e",
            "9094a073501881ebe2fb0a8dae7306e81b9c9f60124d19d88913bd6cf81b4faa",
        ),
        4: (
            "7735c09c9ca484f5487acb283c31da0cd5b8933b55f1a8f285c989116893e448",
            "cc260f7a50106852f7c93ee59bf3a3056a1dcc34ff39e8509f6331fff7a935f1",
            "a81ee792adf65e6cf4ac1074cd78fb0bff0c0e6b340929fd0796fe7e4a023df9",
        ),
        5: (
            "0d32c8083c3ac28aec4065ab2caa2893beaa23b45a32d89cf700e49cb951adfc",
            "952b5f51278b4f8976b5e501dfb789edd4f6d710d69c28facf337b6f505d6875",
            "fa353f1a089c75c9ce484db477fa41130a89b5d704f288e00063b352101d1db9",
        ),
    },
    "ce2": {
        3: (
            "918303816d2e6f26d816abd1e4423b9ae8581db6699d55f4b9940dac31a89855",
            "7d27629f5f94405cc0ec8356a60d21c761a8988051a4b998703b2067d805ce7d",
            "31daf19d70cba109f7767caa0d4eb6736f26e1b6f880f5f721fd2e14d7551abc",
        ),
        4: (
            "bed3486002182d82ddae8234127d65c1d2c140d1585c5f0a024470a17e7a0edd",
            "1d8b9666ff5fff44f4eb13883f4708fd7e5b2108236de0a321866058b0a3a59a",
            "a2e0678c9d9ef7c6050242b40e133a475bc2e2d948e342fff69ead15d277c930",
        ),
        5: (
            "7a9211ca535d29aedb7db290628959edb6d25cb09e0b064efe63cc502b26b7c3",
            "b3dde954923f42bc8f7a4cc0be691b103403eb1da73abc87d269bd16518c7811",
            "08d7f0c9824057e0a74062d37b4569934e344518c97552c252c567c749973980",
        ),
    },
}


def _pinned_formulas(q, k):
    return (
        encode_nzk(FlowInstance(q, k)),
        encode_support(q.n_reps, q.class_triples, k),
        encode_support(q.n_reps, q.class_triples, k, guarded=True),
    )


def test_formula_bytes_are_pinned(icosi_q, ce1_q, ce2_q):
    quotients = {"icosi": icosi_q, "ce1": ce1_q, "ce2": ce2_q}
    for name, by_k in PINNED_FORMULA_HASHES.items():
        for k, pinned in by_k.items():
            got = tuple(
                hashlib.sha256(f.to_dimacs().encode()).hexdigest()
                for f in _pinned_formulas(quotients[name], k)
            )
            assert got == pinned, (name, k)


def test_formulas_share_one_int_per_literal(icosi_q, ce1_q, ce2_q):
    """Every clause takes its literals from one table per formula."""
    for q in (icosi_q, ce1_q, ce2_q):
        for k in (3, 4, 5):
            for formula in _pinned_formulas(q, k):
                literals = [lit for clause in formula.clauses for lit in clause]
                assert len({id(lit) for lit in literals}) == len(set(literals))


def test_icosi_decisions_both_engines(icosi_q):
    for k, expected in ((3, False), (4, True)):
        inst = FlowInstance(icosi_q, k)
        sat_res = sat_solve(encode_nzk(inst))
        oracle_res = backtrack_search(inst)
        assert sat_res.satisfiable == expected
        assert (oracle_res is not None) == expected
        if expected:
            lab = decode_witness(sat_res.model, inst)
            assert verify_labeling(lab, inst).ok
            assert verify_labeling(oracle_res, inst).ok


def test_witness_symmetries(icosi_q):
    inst = FlowInstance(icosi_q, 4)
    lab = decode_witness(sat_solve(encode_nzk(inst)).model, inst)
    # global negation is still a labeling (antipodal symmetry)
    negated = Labeling(values=tuple(-v for v in lab.values))
    assert verify_labeling(negated, inst).ok
    # corrupting a single rep's value breaks some triple
    other = next(v for v in value_slots(4) if v != lab[0])
    corrupted = Labeling(values=(other,) + lab.values[1:])
    report = verify_labeling(corrupted, inst)
    assert not report.ok
    assert any("sums to" in msg for msg in report.violations)


def test_verify_labeling_reports_range_violations(icosi_q):
    inst = FlowInstance(icosi_q, 3)
    wrong_len = verify_labeling(Labeling(values=(1, 2)), inst)
    assert not wrong_len.ok and "expected 15 values" in wrong_len.violations[0]
    values = [1] * 15
    values[4] = 0
    values[7] = 9
    report = verify_labeling(Labeling(values=tuple(values)), inst)
    assert not report.ok
    assert any("value 0" in msg for msg in report.violations)
    assert any("exceeds bound" in msg for msg in report.violations)


def test_engines_agree_on_random_instances():
    rng = random.Random(20260818)
    for trial in range(100):
        n_reps = rng.randint(3, 6)
        n_triples = rng.randint(1, 6)
        k = rng.randint(1, 3)
        q = synthetic_quotient(rng, n_reps, n_triples)
        inst = FlowInstance(q, k)
        sat_res = sat_solve(encode_nzk(inst))
        oracle_res = backtrack_search(inst)
        assert sat_res.satisfiable == (oracle_res is not None), (
            f"trial {trial}: engines disagree on {inst}"
        )
        if sat_res.satisfiable:
            lab = decode_witness(sat_res.model, inst)
            assert verify_labeling(lab, inst).ok


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_adding_mirror_triples_never_changes_decision(seed):
    """The mirror of an oriented triple constrains identically."""
    rng = random.Random(seed)
    n_reps = rng.randint(3, 5)
    base = synthetic_quotient(rng, n_reps, rng.randint(1, 4))
    mirrors = tuple(
        tuple((r, -s) for r, s in members)
        for members in base.oriented_triples
    )
    doubled = AntipodalQuotient(
        representatives=base.representatives,
        orientation=base.orientation,
        oriented_triples=base.oriented_triples + mirrors,
        triple_classes=tuple(
            (i, i + len(base.oriented_triples))
            for i in range(len(base.oriented_triples))
        ),
    )
    k = rng.randint(1, 3)
    plain = sat_solve(encode_nzk(FlowInstance(base, k)))
    mirrored = sat_solve(encode_nzk(FlowInstance(doubled, k)))
    assert plain.satisfiable == mirrored.satisfiable


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    k=st.integers(min_value=1, max_value=4),
    parts=st.integers(min_value=1, max_value=2),
    mirrored=st.booleans(),
)
def test_direct_support_and_oracle_decide_alike(seed, k, parts, mirrored):
    """Direct CNF, support CNF, the SAT route and the CSP oracle give one
    decision; every SAT witness checks out."""
    rng = random.Random(seed)
    triples: list = []
    n_reps = 0
    for _ in range(parts):  # two parts give at least two blocks
        size = rng.randint(3, 5)
        part = synthetic_quotient(rng, size, rng.randint(1, 4))
        triples += [
            tuple((r + n_reps, s) for r, s in t) for t in part.oriented_triples
        ]
        n_reps += size
    base = len(triples)
    chosen = sorted(rng.sample(range(base), rng.randint(1, base))) if mirrored else []
    triples += [tuple((r, -s) for r, s in triples[i]) for i in chosen]
    # each mirror joins its triple's class, as quotient_antipodal groups them
    classes = [[i] for i in range(base)]
    for j, i in enumerate(chosen):
        classes[i].append(base + j)
    q = synthetic_quotient(rng, n_reps, 0, triples)
    q = replace(q, triple_classes=tuple(map(tuple, classes)))
    inst = FlowInstance(q, k)

    direct = sat_solve(encode_nzk(inst))
    support = sat_solve(encode_support(n_reps, triples, k))
    labeling = decide_labeling(inst)
    oracle = backtrack_search(inst)
    expected = oracle is not None
    assert direct.satisfiable == support.satisfiable == expected
    assert (labeling is not None) == expected
    if expected:
        assert verify_labeling(decode_witness(support.model, inst), inst).ok
        assert verify_labeling(labeling, inst).ok


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    k=st.integers(min_value=1, max_value=3),
)
def test_guarded_support_decides_each_set_of_live_classes(seed, k):
    """One class_refuter, as the greedy prune runs it, decides each set
    of live classes as decide_labeling decides the instance of just
    those classes; a refuted set's core classes alone admit no
    labeling."""
    rng = random.Random(seed)
    n_reps = rng.randint(3, 8)
    base = synthetic_quotient(rng, n_reps, rng.randint(1, 7)).oriented_triples
    triples = list(base)
    classes = [[i] for i in range(len(base))]
    for i, t in enumerate(base):
        if rng.random() < 0.5:
            classes[i].append(len(triples))
            triples.append(tuple((r, -s) for r, s in t))
    n_classes = len(classes)

    def instance(cids) -> FlowInstance:
        kept = [classes[c] for c in cids]
        groups, start = [], 0
        for members in kept:
            groups.append(tuple(range(start, start + len(members))))
            start += len(members)
        q = synthetic_quotient(rng, n_reps, 0, [triples[t] for m in kept for t in m])
        return FlowInstance(replace(q, triple_classes=tuple(groups)), k)

    q = synthetic_quotient(rng, n_reps, 0, triples)
    refuted = class_refuter(replace(q, triple_classes=tuple(map(tuple, classes))), k)
    for _ in range(4):
        live = sorted(rng.sample(range(n_classes), rng.randint(0, n_classes)))
        core = refuted(set(live))
        labeling = decide_labeling(instance(live))
        assert (core is None) == (labeling is not None)
        if core is not None:
            assert core <= set(live)
            assert backtrack_search(instance(sorted(core))) is None


def test_oracle_ignores_reps_in_no_triple(ce2_q):
    """Three reps in no triple, numbered first so that they would win
    ties, cost the oracle nothing and take their smallest value: ce2
    stays refuted at k=4, and its k=5 labeling is unchanged."""
    n = ce2_q.n_reps
    shifted = tuple(
        tuple((r + 3, s) for r, s in t) for t in ce2_q.oriented_triples
    )
    for k in (4, 5):
        base = csp_solve(CspProblem(n, ce2_q.oriented_triples, value_slots(k)))
        t0 = time.perf_counter()
        padded = csp_solve(CspProblem(n + 3, shifted, value_slots(k)))
        elapsed = time.perf_counter() - t0
        assert (base is None) == (k == 4)
        assert padded == (None if base is None else (-k,) * 3 + base)
        # branching on the free reps multiplied the k=4 refutation by 8^3
        assert elapsed < 5.0, f"k={k} with free reps took {elapsed:.1f}s"


def test_sat_route_decides_several_blocks_and_free_reps(icosi_q, ce2_q):
    """One support formula covers blocks that share no rep and reps in
    no triple: ce2 after three free reps, and icosi's quotient followed
    by ce2's, are refuted at k=4 and labeled at k=5."""

    def ce2_after(head: int) -> tuple:
        return tuple(
            tuple((r + head, s) for r, s in t) for t in ce2_q.class_triples
        )

    n = icosi_q.n_reps
    cases = [(3, ce2_after(3)), (n, icosi_q.class_triples + ce2_after(n))]
    for head, triples in cases:
        q = synthetic_quotient(random.Random(0), head + ce2_q.n_reps, 0, triples)
        assert decide_labeling(FlowInstance(q, 4)) is None
        inst = FlowInstance(q, 5)
        assert verify_labeling(decide_labeling(inst), inst).ok


def test_oracle_refutes_a_block_numbered_last(icosi_q, ce2_q):
    """icosi's quotient (labelable at k=4) followed by ce2's (refuted at
    k=4) as one instance: the oracle searches each block on its own, so
    ce2's refutation is not repeated under every labeling of icosi."""
    n = icosi_q.n_reps
    shifted = tuple(
        tuple((r + n, s) for r, s in t) for t in ce2_q.oriented_triples
    )
    problem = CspProblem(
        n + ce2_q.n_reps, icosi_q.oriented_triples + shifted, value_slots(4)
    )

    def out_of_time(signum, frame):
        raise TimeoutError("oracle still searching after 5 s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(5)
    try:
        assert csp_solve(problem) is None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _brute_force_csp(problem: CspProblem) -> bool:
    values = sorted(set(problem.domain))
    return any(
        all(problem.sum_ok(t, assignment) for t in problem.triples)
        for assignment in itertools.product(values, repeat=problem.n_vars)
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    modular=st.booleans(),
)
def test_oracle_answer_ignores_repeated_and_flipped_triples(seed, modular):
    """Repeats and sign flips of triples, members in any order, leave the
    oracle's answer unchanged, and the answer agrees with enumerating
    every assignment, for integer and modular problems."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    if modular:
        m = rng.randint(2, 5)
        residues = rng.sample(range(m), rng.randint(1, min(m, 4)))
        domain = tuple(r + m * rng.randint(-1, 1) for r in residues)
    else:
        m = None
        domain = tuple(rng.sample(range(-3, 4), rng.randint(1, 4)))
    triples = tuple(
        tuple((r, rng.choice((-1, 1))) for r in rng.sample(range(n), 3))
        for _ in range(rng.randint(0, 6))
    )
    copies = tuple(
        tuple((r, s * sign) for r, s in rng.sample(t, 3))
        for t in triples
        for sign in rng.sample((1, -1), rng.randint(0, 2))
    )
    problem = CspProblem(n, triples, domain, m)
    answer = csp_solve(problem)
    assert csp_solve(replace(problem, triples=triples + copies)) == answer
    assert csp_solve(replace(problem, triples=copies + triples)) == answer
    assert (answer is not None) == _brute_force_csp(problem)
    if answer is not None:
        assert all(v in domain for v in answer)


def test_csp_problem_validation():
    with pytest.raises(ValueError, match="distinct members"):
        CspProblem(2, (((0, 1), (0, -1), (1, 1)),), (1, 2))
    with pytest.raises(ValueError, match="differ mod"):
        CspProblem(3, (), (1, 8), modulus=7)


def test_oracle_labelings_are_pinned(icosi_q, ce1_q, ce2_q):
    """The oracle's deterministic search returns these labelings."""
    pinned = [
        (icosi_q, 4, "-4 -2 -2 -4 -3 -3 2 -1 1 -2 1 1 4 -1 -3"),
        (ce1_q, 5, "-5 2 -2 -3 -1 -4 4 -3 1 -5 -1 1 2 1 -4 -3 3 2 -2 -1 1 2 -2 2 -2"),
        (ce2_q, 5, "-5 -1 -2 1 -4 1 -1 -3 4 2 -3 -5 4 2 1 -1 -1 -3"),
    ]
    for q, k, values in pinned:
        labeling = backtrack_search(FlowInstance(q, k))
        assert labeling.values == tuple(int(v) for v in values.split())


def test_sat_labelings_are_pinned(icosi_q, ce1_q, ce2_q):
    """The SAT route returns these labelings, each a valid one; None is a
    refutation."""
    pinned = [
        (icosi_q, 3, None),
        (icosi_q, 4, "4 -4 2 -2 -2 3 -3 1 -2 2 4 -1 1 1 2"),
        (icosi_q, 5, "5 -5 3 -3 -2 4 -4 1 -3 2 5 -1 1 2 2"),
        (ce1_q, 3, None),
        (ce1_q, 4, None),
        (ce1_q, 5, "5 -3 -3 2 -2 4 -2 -2 -4 5 -1 -1 1 -1 1 1 -1 -4 4 3 -3 1 -1 -3 3"),
        (ce2_q, 3, None),
        (ce2_q, 4, None),
        (ce2_q, 5, "5 1 2 -1 4 -1 1 3 -4 -2 3 5 -4 -2 -1 1 1 3"),
    ]
    for q, k, values in pinned:
        inst = FlowInstance(q, k)
        labeling = decide_labeling(inst)
        if values is None:
            assert labeling is None
        else:
            assert labeling.values == tuple(int(v) for v in values.split())
            assert verify_labeling(labeling, inst).ok


def test_min_flow_number_icosi(icosi_q):
    assert min_flow_number(icosi_q, 5) == 4
    assert min_flow_number(icosi_q, 3) is None
    # the oracle route alone gives the same minimum
    labelable = [
        backtrack_search(FlowInstance(icosi_q, k)) is not None for k in range(1, 6)
    ]
    assert labelable == [False, False, False, True, True]


def test_min_mod_flow_number_icosi(icosi_q):
    assert min_mod_flow_number(icosi_q, 6) == 5
    assert min_mod_flow_number(icosi_q, 4) is None


def test_min_searches_validate_arguments(icosi_q):
    with pytest.raises(ValueError):
        min_flow_number(icosi_q, 0)
    with pytest.raises(ValueError):
        min_mod_flow_number(icosi_q, 1)


def test_labeling_getitem():
    lab = Labeling(values=(3, -1, 2))
    assert lab[0] == 3 and lab[1] == -1 and lab[2] == 2
