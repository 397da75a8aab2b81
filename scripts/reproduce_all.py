#!/usr/bin/env python3
"""End-to-end reproduction of every headline number in the package.

Runs the full pipeline for all three bundled configurations — including
the slow greedy prune of the 50-point expansion, which the test suite
skips — and prints one line per derived quantity.  Exits nonzero on the
first mismatch.

Usage:
    python3 scripts/reproduce_all.py [--fast]

--fast skips the two greedy prunes.  On a 2-vCPU machine under CPython
3.11 the 50-point expansion's prune takes about 70 s and the second
construction's search-and-prune about 45 s.
"""

from __future__ import annotations

import argparse
import sys
import time

from sphereflow.constructions import (
    build_first_expansion,
    build_icosidodecahedron,
    build_second_counterexample,
    count_antipodal_pairs,
    unsat_preserving_prune,
)
from sphereflow.flows import (
    FlowInstance,
    backtrack_search,
    decode_witness,
    encode_nzk,
    min_flow_number,
    min_mod_flow_number,
    verify_labeling,
)
from sphereflow.quotient import (
    classify_edge_orbits,
    extract_cubic_graph,
    is_isomorphic_to,
    moebius_ladder_10,
    petersen_graph,
    quotient_antipodal,
)
from sphereflow.solver import sat_solve


def check(label: str, actual, expected=True) -> None:
    ok = actual == expected
    shown = actual if expected is not True else ("yes" if actual else "NO")
    print(f"  {'ok ' if ok else 'FAIL'} {label}: {shown}")
    if not ok:
        print(f"       expected {expected!r}", file=sys.stderr)
        sys.exit(1)


def decide(q, k: int) -> tuple[bool, bool]:
    """Decision by both routes; returns (sat_engine, oracle)."""
    inst = FlowInstance(q, k)
    res = sat_solve(encode_nzk(inst))
    if res.satisfiable:
        lab = decode_witness(res.model, inst)
        assert verify_labeling(lab, inst).ok
    oracle = backtrack_search(inst)
    if oracle is not None:
        assert verify_labeling(oracle, inst).ok
    return res.satisfiable, oracle is not None


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 66 - len(text)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="skip the greedy prunes"
    )
    args = parser.parse_args()
    t_start = time.perf_counter()

    banner("vertex configuration (icosi)")
    icosi = build_icosidodecahedron()
    check("points", icosi.n_points, 30)
    check("triples", len(icosi.triples), 20)
    check("antipodal pairs", count_antipodal_pairs(icosi), 15)
    check("every point in exactly two triples", set(icosi.degrees()), {2})
    q_icosi = quotient_antipodal(icosi)
    check("quotient representatives", q_icosi.n_reps, 15)
    check("quotient triple classes", q_icosi.n_classes, 10)
    graph = extract_cubic_graph(q_icosi, range(q_icosi.n_classes))
    check("quotient graph is Petersen", is_isomorphic_to(graph, petersen_graph()))
    sat3, oracle3 = decide(q_icosi, 3)
    check("k=3 refuted by SAT engine", not sat3)
    check("k=3 refuted by oracle", not oracle3)
    sat4, oracle4 = decide(q_icosi, 4)
    check("k=4 labeled by SAT engine (witness verified)", sat4)
    check("k=4 labeled by oracle (witness verified)", oracle4)

    banner("first counterexample (ce1)")
    ce1 = build_first_expansion()
    check("points", ce1.n_points, 50)
    check("triples", len(ce1.triples), 40)
    check("antipodal pairs", count_antipodal_pairs(ce1), 25)
    q_ce1 = quotient_antipodal(ce1)
    check("quotient representatives", q_ce1.n_reps, 25)
    check("quotient triple classes", q_ce1.n_classes, 20)
    formula4 = encode_nzk(FlowInstance(q_ce1, 4))
    check("k=4 variables", formula4.num_vars, 200)
    check("k=4 clauses", formula4.n_clauses, 19765)
    check(
        "k=4 DIMACS header",
        formula4.to_dimacs().splitlines()[0],
        "p cnf 200 19765",
    )
    sat4, oracle4 = decide(q_ce1, 4)
    check("k=4 refuted by SAT engine", not sat4)
    check("k=4 refuted by oracle", not oracle4)
    sat5, _ = decide(q_ce1, 5)
    check("k=5 labeled (witness verified)", sat5)
    partition, old_graph, new_graph = classify_edge_orbits(q_ce1)
    check(
        "edge orbits",
        (len(partition.old_only), len(partition.new_only), len(partition.shared)),
        (10, 10, 5),
    )
    check("old-triple graph is Petersen", is_isomorphic_to(old_graph, petersen_graph()))
    check(
        "new-triple graph is Moebius ladder M10",
        is_isomorphic_to(new_graph, moebius_ladder_10()),
    )

    if not args.fast:
        banner("greedy prune of ce1 at k=4 (slow; skipped by the test suite)")
        t0 = time.perf_counter()
        pruned, report = unsat_preserving_prune(ce1, 4)
        dt = time.perf_counter() - t0
        print(f"  prune finished in {dt:.1f}s, {len(report.rounds)} committed steps")
        check("pruned points (recorded derived value)", pruned.n_points, 40)
        check("pruned triples (recorded derived value)", len(pruned.triples), 14)
        check("pruned size within the 40-point bound", pruned.n_points <= 40)
        q_pruned = quotient_antipodal(pruned)
        sat4p, oracle4p = decide(q_pruned, 4)
        check("pruned configuration still refutes k=4 (SAT engine)", not sat4p)
        check("pruned configuration still refutes k=4 (oracle)", not oracle4p)

    banner("second counterexample (ce2)")
    if args.fast:
        print("  skipped (--fast): the search-and-prune pipeline takes about 45 s")
    else:
        ce2 = build_second_counterexample()
        check("survey kept values", len(ce2.survey.kept), 11)
        check(
            "survey exact values",
            sum(1 for c in ce2.survey.kept if c.exact is not None),
            8,
        )
        check("candidate cloud points", ce2.cloud.n_points, 210)
        check("candidate cloud triples", len(ce2.cloud.triples), 116)
        check("largest component points", ce2.component.n_points, 126)
        check("largest component triples", len(ce2.component.triples), 108)
        check("final points", ce2.n_points, 36)
        check("final triples", ce2.n_triples, 13)
        check("final antipodal pairs", count_antipodal_pairs(ce2.final), 18)
        check("final coordinates all exact", ce2.final.all_exact)
        q_ce2 = quotient_antipodal(ce2.final)
        check("quotient representatives", q_ce2.n_reps, 18)
        f4 = encode_nzk(FlowInstance(q_ce2, 4))
        check("k=4 variables", f4.num_vars, 144)
        check("k=4 clauses", f4.n_clauses, 6710)
        f5 = encode_nzk(FlowInstance(q_ce2, 5))
        check("k=5 variables", f5.num_vars, 180)
        check("k=5 clauses", f5.n_clauses, 13048)
        sat4, oracle4 = decide(q_ce2, 4)
        check("k=4 refuted by SAT engine", not sat4)
        check("k=4 refuted by oracle", not oracle4)
        sat5, _ = decide(q_ce2, 5)
        check("k=5 labeled (witness verified)", sat5)

    banner("minimal bounds, integer vs modular")
    targets = [("icosi", q_icosi, 4)]
    targets.append(("ce1", q_ce1, 5))
    if not args.fast:
        targets.append(("ce2", q_ce2, 5))
    for name, q, expected_k in targets:
        k_int = min_flow_number(q, 6, engine="sat")
        m_mod = min_mod_flow_number(q, 7)
        check(f"{name}: minimal value bound", k_int, expected_k)
        check(f"{name}: minimal modulus", m_mod, expected_k + 1)

    total = time.perf_counter() - t_start
    print(f"\nall checks passed in {total:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
