"""Deterministic SVG figures of sphere configurations.

Orthographic projection: the view rotation derives from a content hash
of the geometry, so identical inputs render to identical bytes; nothing
reads a clock or RNG.  Far-hemisphere points draw hollow, near ones
solid; each triple's great circle projects to an origin-centered
ellipse; optional witness values label each point with its
representative's value times the orientation sign.
"""

from __future__ import annotations

import hashlib
import math
from typing import Mapping, Optional

from .geometry import PointSet, _cross
from .quotient import AntipodalQuotient

__all__ = ["render_svg", "witness_point_labels"]

_SIZE = 720
_MARGIN_FRACTION = 0.42
_POINT_RADIUS = 5.0


def witness_point_labels(
    q: AntipodalQuotient, values: Mapping[int, int] | tuple[int, ...]
) -> dict[int, int]:
    """Per-point signed labels: representative value times orientation."""
    return {
        i: values[rep] * sign for i, (rep, sign) in enumerate(q.orientation)
    }


def _view_rotation(ps: PointSet) -> tuple[tuple[float, ...], ...]:
    """A rotation matrix pinned to the geometry's content hash."""
    h = hashlib.sha256()
    for p in ps.points:
        for c in p.floats:
            h.update(f"{c:.17g};".encode("ascii"))
    for t in ps.triples:
        h.update(f"{t[0]},{t[1]},{t[2]};".encode("ascii"))
    d = h.digest()

    def angle(offset: int) -> float:
        word = int.from_bytes(d[offset : offset + 4], "big")
        return 2.0 * math.pi * word / 2**32

    a, b, c = angle(0), angle(4), angle(8)
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cc, sc = math.cos(c), math.sin(c)
    rz1 = ((ca, -sa, 0.0), (sa, ca, 0.0), (0.0, 0.0, 1.0))
    rx = ((1.0, 0.0, 0.0), (0.0, cb, -sb), (0.0, sb, cb))
    rz2 = ((cc, -sc, 0.0), (sc, cc, 0.0), (0.0, 0.0, 1.0))

    def matmul(m1, m2):
        return tuple(
            tuple(
                sum(m1[i][t] * m2[t][j] for t in range(3)) for j in range(3)
            )
            for i in range(3)
        )

    return matmul(rz2, matmul(rx, rz1))


def _apply(m: tuple[tuple[float, ...], ...], v: tuple[float, ...]):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def _fmt(x: float) -> str:
    # fixed decimals keep the output stable across runs
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def render_svg(
    ps: PointSet,
    labels: Optional[Mapping[int, int]] = None,
    title: str = "",
) -> str:
    """Render the configuration to a standalone SVG string."""
    rot = _view_rotation(ps)
    rotated = [_apply(rot, p.floats) for p in ps.points]
    half = _SIZE / 2.0
    scale = _SIZE * _MARGIN_FRACTION

    def canvas(v) -> tuple[float, float]:
        return half + v[0] * scale, half - v[1] * scale

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
    )
    out.append(f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>')
    out.append(
        f'<circle cx="{_fmt(half)}" cy="{_fmt(half)}" r="{_fmt(scale)}" '
        'fill="none" stroke="#cccccc" stroke-width="1"/>'
    )
    if title:
        safe = (
            title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )
        out.append(
            f'<text x="12" y="24" font-family="monospace" font-size="14" '
            f'fill="#333333">{safe}</text>'
        )

    # one projected great circle per distinct triple plane
    seen_normals: set[tuple[float, float, float]] = set()
    for t in ps.triples:
        u, v = rotated[t[0]], rotated[t[1]]
        n = _cross(u, v)
        norm = math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)
        if norm < 1e-12:
            continue
        n = tuple(c / norm for c in n)
        for c in n:
            if abs(c) > 1e-9:
                if c < 0:
                    n = tuple(-x for x in n)
                break
        key = tuple(round(c, 9) for c in n)
        if key in seen_normals:
            continue
        seen_normals.add(key)
        minor = scale * abs(n[2])
        if math.hypot(n[0], n[1]) < 1e-9:
            angle_deg = 0.0
        else:
            # major axis is perpendicular to the projected normal
            angle_deg = -math.degrees(math.atan2(n[0], -n[1]))
        out.append(
            f'<ellipse cx="{_fmt(half)}" cy="{_fmt(half)}" '
            f'rx="{_fmt(scale)}" ry="{_fmt(max(minor, 0.4))}" '
            f'transform="rotate({_fmt(angle_deg)} {_fmt(half)} {_fmt(half)})" '
            'fill="none" stroke="#7a9ec2" stroke-width="1"/>'
        )

    def point_svg(i: int) -> str:
        x, y = canvas(rotated[i])
        if rotated[i][2] >= 0.0:
            style = 'fill="#222222" stroke="none"'
        else:
            style = 'fill="white" stroke="#222222" stroke-width="1.2"'
        return (
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(_POINT_RADIUS)}" {style}/>'
        )

    back = [i for i in range(ps.n_points) if rotated[i][2] < 0.0]
    front = [i for i in range(ps.n_points) if rotated[i][2] >= 0.0]
    for i in back:
        out.append(point_svg(i))
    for i in front:
        out.append(point_svg(i))

    if labels is not None:
        for i in back + front:
            if i not in labels:
                continue
            val = labels[i]
            x, y = canvas(rotated[i])
            text = f"+{val}" if val > 0 else str(val)
            out.append(
                f'<text x="{_fmt(x + 7.0)}" y="{_fmt(y - 7.0)}" '
                'font-family="monospace" font-size="12" '
                f'fill="#1a3b8a">{text}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
