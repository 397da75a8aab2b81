"""Command-line surface: construct, verify, export, report, render, compare.

Exit codes: 0 means the command ran to a decision (SAT and UNSAT are
both results, not errors), 1 means failure, 2 means bad usage, 3 means
an ``--expect`` assertion did not hold.  With ``--status-exit-codes``,
``verify`` instead exits 10 on SAT and 20 on UNSAT so shell scripts can
branch without parsing output.

Global flags may also come from the environment: SPHEREFLOW_EPSILON,
SPHEREFLOW_MODE and SPHEREFLOW_DEDUP_ANTIPODAL_TRIPLES mirror
--epsilon, --mode and --dedup-antipodal-triples; explicit flags win.
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
    decode_witness,
    encode_nzk,
    min_flow_number,
    min_mod_flow_number,
    verify_labeling,
)
from .formats import (
    DocumentError,
    RunReport,
    WitnessDocument,
    document_from_pointset,
    load_document,
    load_witness,
    pointset_from_document,
    save_document,
    save_witness,
)
from .geometry import DEFAULT_CONFIG, GeometryConfig, PointSet, SpherePoint
from .quotient import (
    StructureError,
    classify_edge_orbits,
    extract_cubic_graph,
    is_isomorphic_to,
    moebius_ladder_10,
    petersen_graph,
    quotient_antipodal,
)
from .render import render_svg, witness_point_labels
from .solver import sat_solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_EXPECT_MISMATCH = 3
EXIT_SAT = 10
EXIT_UNSAT = 20

_ENV_EPSILON = "SPHEREFLOW_EPSILON"
_ENV_MODE = "SPHEREFLOW_MODE"
_ENV_DEDUP = "SPHEREFLOW_DEDUP_ANTIPODAL_TRIPLES"

_MODES = ("exact", "float", "both")
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off", ""}


class CliError(RuntimeError):
    """A user-facing failure with a clean one-line message."""


def _default_epsilon() -> float:
    raw = os.environ.get(_ENV_EPSILON)
    if raw is None:
        return DEFAULT_CONFIG.epsilon
    try:
        value = float(raw)
    except ValueError:
        raise CliError(f"{_ENV_EPSILON} is not a number: {raw!r}")
    if value <= 0:
        raise CliError(f"{_ENV_EPSILON} must be positive, got {raw!r}")
    return value


def _default_mode() -> str:
    raw = os.environ.get(_ENV_MODE)
    if raw is None:
        return "both"
    if raw not in _MODES:
        raise CliError(f"{_ENV_MODE} must be one of {_MODES}, got {raw!r}")
    return raw


def _default_dedup() -> bool:
    raw = os.environ.get(_ENV_DEDUP)
    if raw is None:
        return False
    low = raw.strip().lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise CliError(f"{_ENV_DEDUP} is not a boolean: {raw!r}")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="float comparison tolerance (default 1e-7 or "
        f"${_ENV_EPSILON})",
    )
    p.add_argument(
        "--mode",
        choices=_MODES,
        default=None,
        help="coordinate arithmetic: exact requires exact coordinates, "
        "float forces the epsilon route, both prefers exact when "
        f"available (default both or ${_ENV_MODE})",
    )
    p.add_argument(
        "--dedup-antipodal-triples",
        action="store_true",
        default=None,
        help="drop one triple of each antipodal mirror pair before "
        f"encoding (default off or ${_ENV_DEDUP})",
    )


def _resolve_common(args: argparse.Namespace) -> None:
    if args.epsilon is None:
        args.epsilon = _default_epsilon()
    if args.epsilon <= 0:
        raise CliError("--epsilon must be positive")
    if args.mode is None:
        args.mode = _default_mode()
    if args.dedup_antipodal_triples is None:
        args.dedup_antipodal_triples = _default_dedup()


def _apply_mode(ps: PointSet, mode: str) -> PointSet:
    if mode == "exact":
        if not ps.all_exact:
            raise CliError(
                "mode=exact but the document has no exact coordinates"
            )
        return ps
    if mode == "float":
        return PointSet(
            tuple(SpherePoint.from_floats(*p.floats) for p in ps.points),
            ps.triples,
        )
    return ps


def _load_pointset(args: argparse.Namespace) -> tuple[PointSet, str]:
    doc = load_document(args.doc)
    ps = pointset_from_document(doc)
    name = doc.provenance.get("construction") or os.path.basename(args.doc)
    return _apply_mode(ps, args.mode), name


def cmd_construct(args: argparse.Namespace) -> int:
    config = GeometryConfig(epsilon=args.epsilon)
    parameters: dict = {}
    if args.name == "icosi":
        ps = build_icosidodecahedron()
    elif args.name == "ce1":
        ps = build_first_expansion()
    else:
        parameters = SURVEY_PARAMETERS
        ps = build_second_counterexample(config).final
    ps = _apply_mode(ps, args.mode)
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
    t0 = time.time()
    ps, name = _load_pointset(args)
    config = GeometryConfig(epsilon=args.epsilon)
    q = quotient_antipodal(ps, config)
    inst = FlowInstance(q, args.k, dedup_mirrors=args.dedup_antipodal_triples)
    formula = encode_nzk(inst)
    engines = ("sat", "backtrack") if args.engine == "both" else (args.engine,)
    decisions: dict[str, bool] = {}
    witness_values: Optional[tuple[int, ...]] = None
    for engine in engines:
        if engine == "sat":
            res = sat_solve(formula)
            decisions["sat"] = res.satisfiable
            if res.satisfiable:
                witness_values = decode_witness(res.model, inst).values
        else:
            lab = backtrack_search(inst)
            decisions["backtrack"] = lab is not None
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
    is_sat = decisions[engines[0]]
    decision = "SAT" if is_sat else "UNSAT"
    report = RunReport(
        instance=name,
        n_points=ps.n_points,
        n_triples=len(ps.triples),
        n_reps=q.n_reps,
        k=args.k,
        num_vars=formula.num_vars,
        num_clauses=formula.n_clauses,
        decision=decision,
        witness=witness_values,
        engines=engines,
        oracle_agrees=oracle_agrees,
        wall_time_s=time.time() - t0,
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
    if args.status_exit_codes:
        return EXIT_SAT if is_sat else EXIT_UNSAT
    return EXIT_OK


def cmd_export_dimacs(args: argparse.Namespace) -> int:
    ps, name = _load_pointset(args)
    config = GeometryConfig(epsilon=args.epsilon)
    q = quotient_antipodal(ps, config)
    inst = FlowInstance(q, args.k, dedup_mirrors=args.dedup_antipodal_triples)
    formula = encode_nzk(inst)
    text = formula.to_dimacs()
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"{name} k={args.k}: {text.splitlines()[0]} -> {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    ps, name = _load_pointset(args)
    config = GeometryConfig(epsilon=args.epsilon)
    q = quotient_antipodal(ps, config)
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
        config = GeometryConfig(epsilon=args.epsilon)
        q = quotient_antipodal(ps, config)
        inst = FlowInstance(
            q, w.k, dedup_mirrors=args.dedup_antipodal_triples
        )
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
    config = GeometryConfig(epsilon=args.epsilon)
    q = quotient_antipodal(ps, config)
    k_int = min_flow_number(q, args.k_max, engine="sat")
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
    _add_common_flags(p)
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
    p.add_argument(
        "--status-exit-codes",
        action="store_true",
        help="exit 10 on SAT, 20 on UNSAT instead of 0",
    )
    p.add_argument("--witness-out", default=None, help="write witness JSON here")
    p.add_argument("--report-out", default=None, help="write run report JSON here")
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-dimacs", help="write the CNF in DIMACS form")
    p.add_argument("doc", help="point-set document path")
    p.add_argument("-k", type=int, required=True, help="value bound")
    p.add_argument("--out", required=True, help="output DIMACS path")
    _add_common_flags(p)
    p.set_defaults(func=cmd_export_dimacs)

    p = sub.add_parser(
        "report", help="quotient sizes and cubic-graph structure"
    )
    p.add_argument("doc", help="point-set document path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_common_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("render", help="orthographic SVG figure")
    p.add_argument("doc", help="point-set document path")
    p.add_argument("--witness", default=None, help="witness JSON to overlay")
    p.add_argument("--out", required=True, help="output SVG path")
    _add_common_flags(p)
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
    _add_common_flags(p)
    p.set_defaults(func=cmd_flow_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_common(args)
        return args.func(args)
    except (
        CliError,
        ConstructionError,
        DocumentError,
        StructureError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
