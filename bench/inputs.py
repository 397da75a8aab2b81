"""Benchmark inputs: stored documents, pinned expectations, seeded order.

The three point-set documents under ``data/`` were written by
``sphereflow construct icosi|ce1|ce2``; the witness by
``sphereflow verify ce1.json -k 5 --witness-out``.  Storing them keeps
the 55 s ce2 build out of every workload's set-up.  ``load_inputs``
parses each document and checks it against the pinned counts before any
timed work starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from sphereflow import (
    FlowInstance,
    PointSet,
    PointSetDocument,
    WitnessDocument,
    final_coordinate_values,
    pointset_from_document,
    quotient_antipodal,
    verify_labeling,
)
from sphereflow.flows import Labeling

DATA = Path(__file__).resolve().parent / "data"
INSTANCES = ("icosi", "ce1", "ce2")
BOUNDS = (3, 4, 5)

# Every number the workloads check, in one place so a test can corrupt one.
EXPECTED = {
    # points, triples, representatives
    "counts": {"icosi": (30, 20, 15), "ce1": (50, 40, 25), "ce2": (36, 13, 18)},
    # True = a labeling exists (SAT), per k in BOUNDS
    "decisions": {
        "icosi": (False, True, True),
        "ce1": (False, False, True),
        "ce2": (False, False, True),
    },
    # encode_nzk clause counts per k in BOUNDS
    "clauses": {
        "icosi": (4200, 9955, 19490),
        "ce1": (8320, 19765, 38750),
        "ce2": (2862, 6710, 13048),
    },
    # min_mod_flow_number(q, 7)
    "moduli": {"icosi": 5, "ce1": 6, "ce2": 6},
    # build_second_counterexample stage shapes: points, triples
    "ce2_stages": {"cloud": (210, 116), "component": (126, 108), "final": (36, 13)},
    # icosi quotient: representatives, triple classes (Petersen vertices)
    "icosi_quotient": (15, 10),
    "ce1_orbits": (10, 10, 5),
    "dimacs_header": "p cnf 200 19765",
    "svg_sha256": "6bb70422e7944cc7eb989d1452d9f5add7172936fc4d21a762bff97baac8a870",
}


class InputError(RuntimeError):
    """A stored input does not match its pinned expectations."""


@dataclass(frozen=True)
class Inputs:
    """Parsed and checked inputs for one run.

    ``texts`` hold the document JSON as stored; ``seeded`` hold the JSON
    after the seed's point-order permutation (identical for seed 0).
    """

    texts: dict[str, str]
    seeded: dict[str, str]
    pointsets: dict[str, PointSet]
    witness: Labeling


def antipode_pairs(doc: PointSetDocument) -> list[tuple[int, int]]:
    """Antipodal index pairs (i < j) ordered by i, found from float shadows."""
    floats = [entry["floats"] for entry in doc.points]
    partner: dict[int, int] = {}
    for i, a in enumerate(floats):
        for j, b in enumerate(floats):
            if j != i and all(abs(x + y) < 1e-9 for x, y in zip(a, b)):
                partner[i] = j
                break
        else:
            raise InputError(f"point {i} has no antipode")
    return sorted((i, j) for i, j in partner.items() if i < j)


def permute_document(doc: PointSetDocument, seed: int) -> PointSetDocument:
    """Seeded shuffle of point order; seed 0 is the identity.

    Points are shuffled freely, except that antipodal pairs keep the
    order of their first occurrence.  The quotient orders its
    representatives by that occurrence, so representatives, variables
    and the decision stay put while point indices, triple indices and
    clause order change.  A free shuffle would also reorder the DPLL
    variables, which moves the ce1 k=4 solve between 4.7 s and 41.5 s.
    """
    if seed == 0:
        return doc
    rng = random.Random(seed)
    pairs = antipode_pairs(doc)
    slots = [p for p in range(len(pairs)) for _ in range(2)]
    rng.shuffle(slots)
    rank: dict[int, int] = {}
    for p in slots:
        rank.setdefault(p, len(rank))
    members = [list(pairs[p]) for p in range(len(pairs))]
    for m in members:
        rng.shuffle(m)
    order = [members[rank[p]].pop() for p in slots]
    new_index = {old: new for new, old in enumerate(order)}
    triples = sorted(tuple(sorted(new_index[i] for i in t)) for t in doc.triples)
    return replace(
        doc,
        points=tuple(doc.points[i] for i in order),
        triples=tuple(triples),
    )


def check_pointset(name: str, ps: PointSet) -> None:
    n_points, n_triples, n_reps = EXPECTED["counts"][name]
    q = quotient_antipodal(ps)
    got = (ps.n_points, len(ps.triples), q.n_reps)
    if got != (n_points, n_triples, n_reps) or not ps.all_exact:
        raise InputError(f"{name}: counts {got}, want {(n_points, n_triples, n_reps)}")


def load_inputs(seed: int) -> Inputs:
    """Read, check and permute every stored input."""
    texts = {n: (DATA / f"{n}.json").read_text(encoding="ascii") for n in INSTANCES}
    docs = {n: PointSetDocument.from_json(t) for n, t in texts.items()}
    pointsets = {}
    for name, doc in docs.items():
        ps = pointset_from_document(doc)
        check_pointset(name, ps)
        pointsets[name] = ps
    magnitudes = {abs(c) for p in pointsets["ce2"].points for c in p.exact}
    if magnitudes != set(final_coordinate_values()):
        raise InputError("ce2 does not use exactly the seven final magnitudes")
    raw = WitnessDocument.from_json(
        (DATA / "ce1_k5_witness.json").read_text(encoding="ascii")
    )
    witness = Labeling(raw.values)
    inst = FlowInstance(quotient_antipodal(pointsets["ce1"]), raw.k)
    if raw.k != 5 or not verify_labeling(witness, inst).ok:
        raise InputError("stored ce1 k=5 witness does not verify")
    seeded = {
        n: texts[n] if seed == 0 else permute_document(d, seed).to_json()
        for n, d in docs.items()
    }
    return Inputs(texts, seeded, pointsets, witness)
