"""Command-line surface: construct, verify, export, report, render, compare.

Exit codes: 0 means the command ran to a decision (SAT and UNSAT are
both results, not errors), 1 means failure, 2 means bad usage, 3 means
an ``--expect`` assertion did not hold.

A document is decided with exact arithmetic when every point carries
exact coordinates and on its float coordinates otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .constructions import (
    SURVEY_PARAMETERS,
    ConstructionError,
    build_first_expansion,
    build_icosidodecahedron,
    build_second_counterexample,
)
from .flows import (
    FlowInstance,
    Labeling,
    backtrack_search,
    decide_labeling,
    encode_nzk,
    expected_clause_count,
    min_flow_number,
    min_mod_flow_number,
    verify_labeling,
)
from .formats import (
    RunReport,
    WitnessDocument,
    document_from_pointset,
    load_document,
    load_witness,
    pointset_from_document,
    save_document,
    save_witness,
)
from .geometry import PointSet
from .quotient import (
    classify_edge_orbits,
    extract_cubic_graph,
    is_isomorphic_to,
    moebius_ladder_10,
    petersen_graph,
    quotient_antipodal,
)
from .render import render_svg, witness_point_labels

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_EXPECT_MISMATCH = 3


def _load_pointset(args: argparse.Namespace) -> tuple[PointSet, str]:
    doc = load_document(args.doc)
    ps = pointset_from_document(doc)
    name = doc.provenance.get("construction") or os.path.basename(args.doc)
    return ps, name


def cmd_construct(args: argparse.Namespace) -> int:
    parameters: dict = {}
    if args.name == "icosi":
        ps = build_icosidodecahedron()
    elif args.name == "ce1":
        ps = build_first_expansion()
    else:
        parameters = SURVEY_PARAMETERS
        ps = build_second_counterexample().final
    doc = document_from_pointset(
        ps,
        construction=args.name,
        parameters=parameters,
        radius=Fraction(args.radius),
    )
    save_document(doc, args.out)
    print(
        f"{args.name}: {ps.n_points} points / {len(ps.triples)} triples "
        f"(field {doc.field_tag}, radius {args.radius}) -> {args.out}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    ps, name = _load_pointset(args)
    q = quotient_antipodal(ps)
    inst = FlowInstance(q, args.k)
    engines = ("sat", "backtrack") if args.engine == "both" else (args.engine,)
    decisions: dict[str, bool] = {}
    witness_values: Optional[tuple[int, ...]] = None
    for engine in engines:
        lab = decide_labeling(inst) if engine == "sat" else backtrack_search(inst)
        decisions[engine] = lab is not None
        if lab is not None and witness_values is None:
            witness_values = lab.values
    oracle_agrees: Optional[bool] = None
    if len(decisions) == 2:
        oracle_agrees = decisions["sat"] == decisions["backtrack"]
        if not oracle_agrees:
            print(
                "ENGINE DISAGREEMENT: "
                f"sat={decisions['sat']} backtrack={decisions['backtrack']}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    decision = "SAT" if decisions[engines[0]] else "UNSAT"
    report = RunReport(
        instance=name,
        n_points=ps.n_points,
        n_triples=len(ps.triples),
        n_reps=q.n_reps,
        k=args.k,
        num_vars=q.n_reps * 2 * args.k,
        num_clauses=expected_clause_count(
            q.n_reps, len(q.oriented_triples), args.k
        ),
        decision=decision,
        witness=witness_values,
        engines=engines,
        oracle_agrees=oracle_agrees,
        wall_time_s=time.perf_counter() - t0,
    )
    for line in report.summary_lines():
        print(line)
    if args.report_out:
        with open(args.report_out, "w", encoding="ascii") as fh:
            fh.write(report.to_json())
    if args.witness_out:
        if witness_values is None:
            print("no witness to write (UNSAT)", file=sys.stderr)
        else:
            save_witness(
                WitnessDocument(
                    k=args.k, values=witness_values, instance=name
                ),
                args.witness_out,
            )
    if args.expect is not None and args.expect != decision.lower():
        print(
            f"expectation failed: wanted {args.expect.upper()}, "
            f"got {decision}",
            file=sys.stderr,
        )
        return EXIT_EXPECT_MISMATCH
    return EXIT_OK


def cmd_export_dimacs(args: argparse.Namespace) -> int:
    ps, name = _load_pointset(args)
    formula = encode_nzk(FlowInstance(quotient_antipodal(ps), args.k))
    text = formula.to_dimacs()
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"{name} k={args.k}: {text.splitlines()[0]} -> {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    ps, name = _load_pointset(args)
    q = quotient_antipodal(ps)
    lines = [
        f"instance:  {name}",
        f"points:    {ps.n_points} ({len(ps.triples)} triples)",
        f"quotient:  {q.n_reps} representatives / "
        f"{len(q.oriented_triples)} oriented triples / "
        f"{q.n_classes} classes",
    ]
    data: dict = {
        "instance": name,
        "points": ps.n_points,
        "triples": len(ps.triples),
        "reps": q.n_reps,
        "oriented_triples": len(q.oriented_triples),
        "classes": q.n_classes,
    }
    if name == "icosi":
        graph = extract_cubic_graph(q, range(q.n_classes))
        ok = is_isomorphic_to(graph, petersen_graph())
        lines.append(f"Petersen: {'yes' if ok else 'NO'}")
        data["petersen"] = ok
    elif name == "ce1":
        partition, old_graph, new_graph = classify_edge_orbits(q)
        p_ok = is_isomorphic_to(old_graph, petersen_graph())
        m_ok = is_isomorphic_to(new_graph, moebius_ladder_10())
        orbit_sizes = (
            len(partition.old_only),
            len(partition.new_only),
            len(partition.shared),
        )
        lines.append(f"Petersen: {'yes' if p_ok else 'NO'}")
        lines.append(f"Möbius ladder M10: {'yes' if m_ok else 'NO'}")
        lines.append(
            "orbits "
            f"{orbit_sizes[0]}/{orbit_sizes[1]}/{orbit_sizes[2]}"
        )
        lines.append("shared edges form perfect matchings in both graphs")
        data.update(
            petersen=p_ok,
            moebius_ladder_m10=m_ok,
            edge_orbits=list(orbit_sizes),
            shared_edges_are_perfect_matchings=True,
        )
    else:
        notice = (
            "graph extraction skipped: no cubic structure is claimed "
            f"for {name!r}"
        )
        lines.append(notice)
        data["notice"] = notice
    if args.json:
        import json

        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    ps, name = _load_pointset(args)
    title = f"{name}: {ps.n_points} points / {len(ps.triples)} triples"
    labels = None
    if args.witness:
        w = load_witness(args.witness)
        q = quotient_antipodal(ps)
        inst = FlowInstance(q, w.k)
        outcome = verify_labeling(Labeling(values=w.values), inst)
        if not outcome.ok:
            for violation in outcome.violations:
                print(f"witness check: {violation}", file=sys.stderr)
            print("witness failed verification; not rendering", file=sys.stderr)
            return EXIT_ERROR
        labels = witness_point_labels(q, w.values)
        title += f", k={w.k} witness"
    svg = render_svg(ps, labels, title=title)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"{name}: wrote {len(svg)} bytes -> {args.out}")
    return EXIT_OK


def cmd_flow_compare(args: argparse.Namespace) -> int:
    ps, name = _load_pointset(args)
    q = quotient_antipodal(ps)
    k_int = min_flow_number(q, args.k_max)
    m_mod = min_mod_flow_number(q, max(args.k_max + 1, 2))
    int_desc = "none found" if k_int is None else str(k_int)
    mod_desc = "none found" if m_mod is None else str(m_mod)
    print(f"instance:           {name}")
    print(f"min value bound k:  {int_desc}"
          + (f"  (every triple sums to 0 with values in ±1..±{k_int})"
             if k_int is not None else f"  (searched k <= {args.k_max})"))
    print(f"min modulus m:      {mod_desc}"
          + (f"  (sums 0 mod {m_mod} with values in 1..{m_mod - 1})"
             if m_mod is not None else ""))
    if k_int is None or m_mod is None:
        print("comparison incomplete within the search bound")
        return EXIT_OK
    if m_mod == k_int + 1:
        print(f"agreement: yes (both routes give a nowhere-zero "
              f"{m_mod}-labeling as the minimum)")
    else:
        print("*** MISMATCH: the integer-bounded and modular minima "
              "disagree; this would be a research-relevant finding. ***")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereflow",
        description=(
            "Construct sphere point sets with zero-sum triples, quotient "
            "them by the antipodal map, and decide nowhere-zero bounded "
            "labelings by SAT plus an independent backtracking oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct", help="build a named configuration and write its JSON"
    )
    p.add_argument("name", choices=("icosi", "ce1", "ce2"))
    p.add_argument("--out", required=True, help="output document path")
    p.add_argument(
        "--radius",
        type=int,
        choices=(1, 2),
        default=1,
        help="export radius (default 1)",
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="decide a document at a value bound k")
    p.add_argument("doc", help="point-set document path")
    p.add_argument("-k", type=int, required=True, help="value bound")
    p.add_argument(
        "--engine",
        choices=("sat", "backtrack", "both"),
        default="both",
        help="decision route(s); both cross-checks them (default)",
    )
    p.add_argument(
        "--expect",
        choices=("sat", "unsat"),
        default=None,
        help="exit 3 unless the decision matches",
    )
    p.add_argument("--witness-out", default=None, help="write witness JSON here")
    p.add_argument("--report-out", default=None, help="write run report JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-dimacs", help="write the CNF in DIMACS form")
    p.add_argument("doc", help="point-set document path")
    p.add_argument("-k", type=int, required=True, help="value bound")
    p.add_argument("--out", required=True, help="output DIMACS path")
    p.set_defaults(func=cmd_export_dimacs)

    p = sub.add_parser(
        "report", help="quotient sizes and cubic-graph structure"
    )
    p.add_argument("doc", help="point-set document path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("render", help="orthographic SVG figure")
    p.add_argument("doc", help="point-set document path")
    p.add_argument("--witness", default=None, help="witness JSON to overlay")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "flow-compare",
        help="minimal integer value bound vs minimal modulus",
    )
    p.add_argument("doc", help="point-set document path")
    p.add_argument(
        "--k-max",
        type=int,
        default=6,
        help="largest value bound to try (default 6)",
    )
    p.set_defaults(func=cmd_flow_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
