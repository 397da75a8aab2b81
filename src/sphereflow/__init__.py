"""Exact sphere point configurations and SAT-verified nowhere-zero labelings.

The pipeline: construct point sets on the unit sphere with exact
quartic-field coordinates, detect zero-sum triples (equivalently,
triples of pairwise spherical distance 2*pi/3), quotient by the
antipodal map, encode the nowhere-zero bounded labeling problem as CNF,
and decide it twice — embedded SAT solver and independent backtracking
oracle.  Three bundled constructions: the icosidodecahedron (labelable
at bound 4), and two 50- and 36-point configurations that are not
(bound 5 needed), each reproducible deterministically from scratch.
"""

from .constructions import (
    CandidateSurvey,
    ConstructionError,
    SecondConstruction,
    build_first_expansion,
    build_icosidodecahedron,
    build_second_counterexample,
    candidate_coordinate_survey,
    final_coordinate_values,
    lift_to_exact,
    prune_low_degree,
    unsat_preserving_prune,
)
from .field import F1, F2, FieldElement, QuarticField, Rational, field_sqrt
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
    PointSetDocument,
    RunReport,
    WitnessDocument,
    document_from_pointset,
    load_document,
    pointset_from_document,
    save_document,
)
from .geometry import (
    DEFAULT_CONFIG,
    GeometryConfig,
    PointSet,
    SpherePoint,
    find_zero_sum_triples,
)
from .quotient import (
    AntipodalQuotient,
    QuotientGraph,
    StructureError,
    classify_edge_orbits,
    extract_cubic_graph,
    is_isomorphic_to,
    moebius_ladder_10,
    petersen_graph,
    quotient_antipodal,
)
from .render import render_svg, witness_point_labels
from .solver import CnfFormula, SatResult, parse_dimacs, sat_solve

__all__ = [
    "AntipodalQuotient",
    "CandidateSurvey",
    "CnfFormula",
    "ConstructionError",
    "DEFAULT_CONFIG",
    "F1",
    "F2",
    "FieldElement",
    "FlowInstance",
    "GeometryConfig",
    "Labeling",
    "PointSet",
    "PointSetDocument",
    "QuarticField",
    "QuotientGraph",
    "Rational",
    "RunReport",
    "SatResult",
    "SecondConstruction",
    "SpherePoint",
    "StructureError",
    "WitnessDocument",
    "backtrack_search",
    "build_first_expansion",
    "build_icosidodecahedron",
    "build_second_counterexample",
    "candidate_coordinate_survey",
    "classify_edge_orbits",
    "decode_witness",
    "document_from_pointset",
    "encode_nzk",
    "extract_cubic_graph",
    "field_sqrt",
    "final_coordinate_values",
    "find_zero_sum_triples",
    "is_isomorphic_to",
    "lift_to_exact",
    "load_document",
    "min_flow_number",
    "min_mod_flow_number",
    "moebius_ladder_10",
    "parse_dimacs",
    "petersen_graph",
    "pointset_from_document",
    "prune_low_degree",
    "quotient_antipodal",
    "render_svg",
    "sat_solve",
    "save_document",
    "unsat_preserving_prune",
    "verify_labeling",
    "witness_point_labels",
]
