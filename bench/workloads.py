"""The three workloads, each a list of operations with their checks.

An operation's ``run`` takes a tracer and returns an answer; its
``check`` takes that answer and returns the problems found.  ``run_pass``
times each ``run`` alone, then checks the answer outside the timed span.
A failed check or an exception marks the operation failed and the pass
goes on.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import sphereflow.constructions as constructions
from sphereflow import (
    FlowInstance,
    Labeling,
    PointSet,
    PointSetDocument,
    SecondConstruction,
    backtrack_search,
    build_first_expansion,
    build_icosidodecahedron,
    build_second_counterexample,
    classify_edge_orbits,
    decode_witness,
    document_from_pointset,
    encode_nzk,
    extract_cubic_graph,
    final_coordinate_values,
    find_zero_sum_triples,
    is_isomorphic_to,
    min_mod_flow_number,
    moebius_ladder_10,
    parse_dimacs,
    petersen_graph,
    pointset_from_document,
    quotient_antipodal,
    render_svg,
    sat_solve,
    verify_labeling,
    witness_point_labels,
)

from inputs import BOUNDS, INSTANCES, Inputs

Problems = list[str]


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Problems]


@dataclass(frozen=True)
class PassResult:
    wall_s: float  # the operations' timed spans, without their checks
    op_s: tuple[float, ...]
    failures: tuple[str, ...]
    answers: tuple[Any, ...]


def run_pass(ops: list[Op], tracer: Any, first: Optional[tuple] = None) -> PassResult:
    """One pass over ``ops``; an answer that differs from ``first`` (the
    first pass's answers) also fails its operation."""
    gc.collect()
    op_s, failures, answers = [], [], []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            answer = op.run(tracer)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            op_s.append(time.perf_counter() - t0)
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            answers.append(None)
            continue
        op_s.append(time.perf_counter() - t0)
        answers.append(answer)
        try:
            problems = op.check(answer)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if first is not None and answer != first[i]:
            problems.append("answer differs from the first pass")
        if problems:
            failures.append(f"{op.name}: {'; '.join(problems)}")
    return PassResult(sum(op_s), tuple(op_s), tuple(failures), tuple(answers))


def _load(text: str) -> PointSet:
    return pointset_from_document(PointSetDocument.from_json(text))


def _expect(what: str, got: Any, want: Any) -> Problems:
    return [] if got == want else [f"{what} is {got!r}, want {want!r}"]


# -- verify ----------------------------------------------------------------


@dataclass(frozen=True)
class VerifyAnswer:
    instance: FlowInstance
    n_points: int
    n_triples: int
    n_clauses: int
    sat_values: Optional[tuple[int, ...]]
    sat: bool
    oracle_values: Optional[tuple[int, ...]]


def _verify_op(name: str, k: int, text: str, expected: dict) -> Op:
    """What ``sphereflow verify --engine both`` does for one document and k."""

    def run(tr: Any) -> VerifyAnswer:
        ps = tr.call("formats.load", _load, text)
        q = tr.call("quotient.build", quotient_antipodal, ps)
        inst = FlowInstance(q, k)
        formula = tr.call("flows.encode", encode_nzk, inst)
        tr.add("flows.clauses", formula.n_clauses)
        res = tr.call("solver.solve", sat_solve, formula)
        sat_values = None
        if res.satisfiable:
            sat_values = tr.call("flows.witness", decode_witness, res.model, inst).values
        lab = tr.call("oracle.search", backtrack_search, inst)
        oracle_values = None if lab is None else lab.values
        return VerifyAnswer(
            inst, ps.n_points, len(ps.triples), formula.n_clauses,
            sat_values, res.satisfiable, oracle_values,
        )

    def check(a: VerifyAnswer) -> Problems:
        i = BOUNDS.index(k)
        want = expected["decisions"][name][i]
        problems = (
            _expect("counts", (a.n_points, a.n_triples, a.instance.n_reps),
                    expected["counts"][name])
            + _expect("clauses", a.n_clauses, expected["clauses"][name][i])
            + _expect("sat decision", a.sat, want)
            + _expect("oracle decision", a.oracle_values is not None, want)
        )
        for engine, values in (("sat", a.sat_values), ("oracle", a.oracle_values)):
            if values is not None:
                report = verify_labeling(Labeling(values), a.instance)
                if not report.ok:
                    problems.append(f"{engine} witness fails: {report.violations[:1]}")
        return problems

    return Op(f"verify {name} k={k}", run, check)


def _modular_op(name: str, text: str, expected: dict) -> Op:
    def run(tr: Any) -> Optional[int]:
        ps = tr.call("formats.load", _load, text)
        q = tr.call("quotient.build", quotient_antipodal, ps)
        return tr.call("oracle.modular", min_mod_flow_number, q, 7)

    return Op(f"modular {name}", run, lambda m: _expect("modulus", m, expected["moduli"][name]))


def verify_ops(inputs: Inputs, expected: dict) -> list[Op]:
    ops = [
        _verify_op(name, k, inputs.seeded[name], expected)
        for name in INSTANCES
        for k in BOUNDS
    ]
    ops += [_modular_op(name, inputs.seeded[name], expected) for name in INSTANCES]
    return ops


# -- construct -------------------------------------------------------------


# The names build_second_counterexample calls through in ``constructions``
# (itself or inside its prune), and the span each is timed under when
# traced.  find_zero_sum_triples is also called inside lift_to_exact;
# geometry.detect_float_s counts only its top-level call.
SECOND_STAGES = (
    ("candidate_coordinate_survey", "constructions.survey"),
    ("generate_candidate_points_float", "constructions.cloud"),
    ("find_zero_sum_triples", "geometry.detect_float"),
    ("prune_low_degree", "constructions.prune_low_degree"),
    ("largest_connected_component", "constructions.component"),
    ("unsat_preserving_prune", "constructions.unsat_prune"),
    ("lift_to_exact", "constructions.lift"),
    ("quotient_antipodal", "quotient.build"),
    ("sat_solve_cdcl", "cdcl.solve"),
)
SECOND_COUNTS = {"sat_solve_cdcl": lambda formula: ("cdcl.clauses", formula.n_clauses)}


def construct_ops(inputs: Inputs, expected: dict) -> list[Op]:
    stored = PointSetDocument.from_json(inputs.texts["ce2"])

    def run(tr: Any) -> SecondConstruction:
        with tr.rebound(constructions, SECOND_STAGES, SECOND_COUNTS):
            return build_second_counterexample()

    def check(c: SecondConstruction) -> Problems:
        problems: Problems = []
        for stage, shape in expected["ce2_stages"].items():
            ps = getattr(c, stage)
            problems += _expect(stage, (ps.n_points, len(ps.triples)), shape)
        doc = document_from_pointset(
            c.final, "ce2", stored.provenance["parameters"], stored.radius
        )
        problems += _expect("final document", doc.to_json(), inputs.texts["ce2"])
        used = {abs(x) for p in c.final.points for x in (p.exact or ())}
        problems += _expect("magnitudes", used, set(final_coordinate_values()))
        q = quotient_antipodal(c.final)
        if backtrack_search(FlowInstance(q, 4)) is not None:
            problems.append("oracle labels k=4")
        lab = backtrack_search(FlowInstance(q, 5))
        if lab is None or not verify_labeling(lab, FlowInstance(q, 5)).ok:
            problems.append("oracle finds no verified k=5 labeling")
        return problems

    return [Op("construct ce2", run, check)]


# -- exact -----------------------------------------------------------------


def _icosi_structure(q: Any) -> tuple[int, int, bool]:
    graph = extract_cubic_graph(q, range(q.n_classes))
    return q.n_reps, q.n_classes, is_isomorphic_to(graph, petersen_graph())


def _ce1_structure(q: Any) -> tuple[tuple[int, int, int], bool, bool]:
    part, old_graph, new_graph = classify_edge_orbits(q)
    sizes = (len(part.old_only), len(part.new_only), len(part.shared))
    return (
        sizes,
        is_isomorphic_to(old_graph, petersen_graph()),
        is_isomorphic_to(new_graph, moebius_ladder_10()),
    )


def _roundtrip(text: str) -> str:
    doc = PointSetDocument.from_json(text)
    ps = pointset_from_document(doc)
    again = document_from_pointset(
        ps, doc.provenance["construction"], doc.provenance["parameters"], doc.radius
    )
    return again.to_json()


def _dimacs_roundtrip(formula: Any) -> tuple[str, Any]:
    text = formula.to_dimacs()
    return text.splitlines()[0], parse_dimacs(text)


def exact_ops(inputs: Inputs, expected: dict) -> list[Op]:
    ce1 = inputs.pointsets["ce1"]
    texts = inputs.texts
    ops: list[Op] = []

    def built(name: str, span: str, build: Callable[[], PointSet]) -> Op:
        return Op(
            f"construct {name}",
            lambda tr: tr.call(span, build),
            lambda ps: _expect("document", document_from_pointset(ps, name).to_json(), texts[name]),
        )

    ops.append(built("icosi", "constructions.icosi", build_icosidodecahedron))
    ops.append(built("ce1", "constructions.ce1", build_first_expansion))

    bare = PointSet(ce1.points)
    ops.append(Op(
        "detect ce1",
        lambda tr: tr.call("geometry.detect_exact", find_zero_sum_triples, bare),
        lambda triples: _expect("triples", triples, ce1.triples),
    ))

    def structure(name: str, analyse: Callable, want: Any) -> Op:
        def run(tr: Any) -> Any:
            q = tr.call("quotient.build", quotient_antipodal, inputs.pointsets[name])
            return tr.call("quotient.structure", analyse, q)

        return Op(f"structure {name}", run, lambda got: _expect("structure", got, want))

    ops.append(structure("icosi", _icosi_structure, (*expected["icosi_quotient"], True)))
    ops.append(structure("ce1", _ce1_structure, (expected["ce1_orbits"], True, True)))

    for name in ("ce1", "ce2"):
        ops.append(Op(
            f"roundtrip {name}",
            lambda tr, t=texts[name]: tr.call("formats.roundtrip", _roundtrip, t),
            lambda out, t=texts[name]: _expect("document", out, t),
        ))

    def dimacs(tr: Any) -> tuple[str, Any, Any]:
        q = tr.call("quotient.build", quotient_antipodal, ce1)
        formula = tr.call("flows.encode", encode_nzk, FlowInstance(q, 4))
        header, parsed = tr.call("solver.dimacs", _dimacs_roundtrip, formula)
        return header, parsed, formula

    def dimacs_check(a: tuple[str, Any, Any]) -> Problems:
        header, parsed, formula = a
        problems = _expect("header", header, expected["dimacs_header"])
        if parsed != formula:
            problems.append("parsed DIMACS differs from the formula")
        return problems

    ops.append(Op("dimacs ce1 k=4", dimacs, dimacs_check))

    def render(tr: Any) -> str:
        q = tr.call("quotient.build", quotient_antipodal, ce1)
        labels = witness_point_labels(q, inputs.witness.values)
        title = f"ce1: {ce1.n_points} points / {len(ce1.triples)} triples, k=5 witness"
        return tr.call("render.svg", render_svg, ce1, labels, title)

    def render_check(svg: str) -> Problems:
        digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
        return _expect("svg sha256", digest, expected["svg_sha256"])

    ops.append(Op("render ce1 k=5", render, render_check))
    return ops


WORKLOADS = {"verify": verify_ops, "construct": construct_ops, "exact": exact_ops}
