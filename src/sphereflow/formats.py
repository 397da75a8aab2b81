"""JSON document formats for point sets and run reports.

A point-set document stores exact coordinates as coefficient strings
plus float shadows, with an export radius; parsing always recovers the
unit-sphere internal form losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Optional

from .field import FIELD_BY_TAG, parse_element, parse_rational, serialize_element
from .geometry import PointSet, SpherePoint

__all__ = [
    "DocumentError",
    "PointSetDocument",
    "RunReport",
    "WitnessDocument",
    "document_from_pointset",
    "load_document",
    "load_witness",
    "pointset_from_document",
    "save_document",
    "save_witness",
]

SCHEMA_VERSION = 1
FLOAT_SHADOW_TOLERANCE = 1e-12


class DocumentError(ValueError):
    """A document failed structural validation."""


@dataclass(frozen=True)
class PointSetDocument:
    """Serializable form of a PointSet at a chosen export radius."""

    field_tag: str
    radius: Fraction
    points: tuple[dict, ...]
    triples: tuple[tuple[int, int, int], ...]
    provenance: dict
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "field_tag": self.field_tag,
            "radius": f"{self.radius.numerator}/{self.radius.denominator}",
            "points": list(self.points),
            "triples": [list(t) for t in self.triples],
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PointSetDocument":
        payload = _json_object(text, "point-set document")
        try:
            version = payload["schema_version"]
            if version != SCHEMA_VERSION:
                raise DocumentError(f"unsupported schema version {version}")
            doc = cls(
                field_tag=payload["field_tag"],
                radius=_radius(payload["radius"]),
                points=tuple(payload["points"]),
                triples=tuple(tuple(t) for t in payload["triples"]),
                provenance=payload["provenance"],
                schema_version=version,
            )
        except KeyError as exc:
            raise DocumentError(f"missing document key {exc}") from exc
        except TypeError as exc:
            raise DocumentError(f"malformed document: {exc}") from exc
        if not isinstance(doc.field_tag, str):
            raise DocumentError("field_tag must be a string")
        if not isinstance(doc.provenance, Mapping):
            raise DocumentError("provenance must be a JSON object")
        return doc


def _json_object(text: str, what: str) -> Mapping:
    """Parse text as a JSON object, raising DocumentError otherwise."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError(f"{what} is nested too deeply") from None
    if not isinstance(payload, Mapping):
        raise DocumentError(f"{what} must be a JSON object")
    return payload


def _radius(value: Any) -> Fraction:
    """A positive radius whose float is finite and nonzero."""
    try:
        radius = parse_rational(value) if isinstance(value, str) else Fraction(value)
        scale = float(radius)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"malformed radius {value!r}: {exc}") from None
    if not scale > 0:
        raise DocumentError("radius must be positive within float range")
    return radius


def document_from_pointset(
    ps: PointSet,
    construction: str,
    parameters: Optional[Mapping[str, Any]] = None,
    radius: Fraction = Fraction(1),
) -> PointSetDocument:
    """Export a point set, scaling coordinates by the chosen radius."""
    if radius <= 0:
        raise DocumentError("radius must be positive")
    field_tag = "float"
    tags = {p.exact[0].field.tag for p in ps.points if p.exact is not None}
    if len(tags) > 1:
        raise DocumentError(f"mixed coordinate fields {sorted(tags)}")
    if tags and all(p.exact is not None for p in ps.points):
        field_tag = tags.pop()
    scale = float(radius)
    points = []
    for p in ps.points:
        entry: dict = {
            "floats": [c * scale for c in p.floats],
        }
        if field_tag != "float":
            r = p.exact[0].field.from_rational(radius)
            entry["exact"] = [serialize_element(c * r) for c in p.exact]
        points.append(entry)
    return PointSetDocument(
        field_tag=field_tag,
        radius=radius,
        points=tuple(points),
        triples=tuple(tuple(t) for t in ps.triples),
        provenance={"construction": construction, "parameters": dict(parameters or {})},
    )


def pointset_from_document(doc: PointSetDocument) -> PointSet:
    """Rebuild the unit-sphere point set, checking float shadows."""
    if doc.field_tag == "float":
        pts = []
        inv = 1.0 / float(doc.radius)
        for i, entry in enumerate(doc.points):
            x, y, z = _float_shadows(entry, i)
            pts.append(SpherePoint.from_floats(x * inv, y * inv, z * inv))
        return PointSet(points=tuple(pts), triples=doc.triples)
    field = FIELD_BY_TAG.get(doc.field_tag)
    if field is None:
        raise DocumentError(f"unknown field tag {doc.field_tag!r}")
    inv = field.from_rational(Fraction(1) / doc.radius)
    pts = []
    for i, entry in enumerate(doc.points):
        exact = _coordinates(entry, i, "exact", str)
        shadows = _float_shadows(entry, i)
        try:
            coords = tuple(parse_element(s, field) * inv for s in exact)
        except ValueError as exc:
            raise DocumentError(f"point {i}: {exc}") from None
        for c, s in zip(coords, shadows):
            if abs(c.to_float() * float(doc.radius) - s) > FLOAT_SHADOW_TOLERANCE:
                raise DocumentError(
                    f"point {i} float shadow {s} is off its exact value"
                )
        pts.append(SpherePoint.from_exact(coords))
    return PointSet(points=tuple(pts), triples=doc.triples)


def _coordinates(entry: Any, i: int, key: str, kind: Any) -> list:
    """The three coordinates stored under key in point entry i."""
    if not isinstance(entry, Mapping):
        raise DocumentError(f"point {i} is not a JSON object")
    if key not in entry:
        raise DocumentError(f"point {i} lacks {key} coordinates")
    coords = entry[key]
    if not (
        isinstance(coords, (list, tuple))
        and len(coords) == 3
        and all(isinstance(c, kind) and not isinstance(c, bool) for c in coords)
    ):
        raise DocumentError(f"point {i} has malformed {key} coordinates")
    return coords


def _float_shadows(entry: Any, i: int) -> list[float]:
    """The three finite float coordinates of point entry i."""
    coords = _coordinates(entry, i, "floats", (int, float))
    try:
        floats = [float(c) for c in coords]
        if all(map(math.isfinite, floats)):
            return floats
    except OverflowError:
        pass
    raise DocumentError(f"point {i} has non-finite floats coordinates")


def save_document(doc: PointSetDocument, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(doc.to_json())


def load_document(path: str) -> PointSetDocument:
    with open(path, "r", encoding="ascii") as fh:
        return PointSetDocument.from_json(fh.read())


@dataclass(frozen=True)
class RunReport:
    """Outcome of one verification run, for humans and scripts alike."""

    instance: str
    n_points: int
    n_triples: int
    n_reps: int
    k: int
    num_vars: int
    num_clauses: int
    decision: str
    witness: Optional[tuple[int, ...]]
    engines: tuple[str, ...]
    oracle_agrees: Optional[bool]
    wall_time_s: float

    @property
    def verified(self) -> bool:
        return self.oracle_agrees is True

    def to_json(self) -> str:
        payload = {
            "instance": self.instance,
            "counts": {
                "points": self.n_points,
                "triples": self.n_triples,
                "reps": self.n_reps,
                "vars": self.num_vars,
                "clauses": self.num_clauses,
            },
            "k": self.k,
            "decision": self.decision,
            "witness": list(self.witness) if self.witness is not None else None,
            "engines": list(self.engines),
            "oracle_agrees": self.oracle_agrees,
            "verified": self.verified,
            "wall_time_s": round(self.wall_time_s, 3),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> list[str]:
        lines = [
            f"instance:  {self.instance}",
            f"counts:    {self.n_points} points, {self.n_triples} triples, "
            f"{self.n_reps} representatives",
            f"encoding:  k={self.k} ({self.num_vars} variables, "
            f"{self.num_clauses} clauses)",
            f"decision:  {self.decision} [{', '.join(self.engines)}]",
        ]
        if self.oracle_agrees is not None:
            lines.append(
                "engines agree" if self.oracle_agrees else "ENGINE DISAGREEMENT"
            )
        lines.append(f"wall time: {self.wall_time_s:.3f}s")
        return lines


@dataclass(frozen=True)
class WitnessDocument:
    """A labeling witness: the bound k plus one value per representative.

    Values follow representative order of the antipodal quotient; the
    value shown at a concrete point is the representative's value times
    the point's orientation sign.
    """

    k: int
    values: tuple[int, ...]
    instance: str = ""
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "instance": self.instance,
            "k": self.k,
            "values": list(self.values),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "WitnessDocument":
        raw = _json_object(text, "witness document")
        k, values = raw.get("k"), raw.get("values")
        if not (_is_int(k) and isinstance(values, list) and all(map(_is_int, values))):
            raise DocumentError(
                "malformed witness document: k must be an integer and "
                "values a list of integers"
            )
        return cls(k=k, values=tuple(values), instance=str(raw.get("instance", "")))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def save_witness(doc: WitnessDocument, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(doc.to_json())


def load_witness(path: str) -> WitnessDocument:
    with open(path, "r", encoding="ascii") as fh:
        return WitnessDocument.from_json(fh.read())
