"""Rank-3 projective pictures of n-small roots and their hyperplane traces.

Positive roots are normalized onto the affine cut where the coordinates in
the simple-root basis sum to one; in rank 3 that cut is the triangle
spanned by the normalized simple roots.  Each n-small root is drawn as a
labeled point, and each hyperplane {x : B(x, root) = 0} as its trace on
the triangle.  All geometry is computed exactly; decimals appear only at
emission, so re-rendering identical inputs is byte-identical.
"""

from __future__ import annotations

import math

from .errors import InternalInvariant, UnsupportedRank
from .scalars import Scalar
from .smallroots import build_small_roots
from .system import CoxeterSystem

CANVAS_W = 800
CANVAS_H = 693
_MARGIN = 14.0

# triangle vertices for the three normalized simple roots
_SIDE = CANVAS_W - 2 * _MARGIN
_BASE_Y = _MARGIN + _SIDE * math.sqrt(3) / 2
_VERTICES = (
    (_MARGIN, _BASE_Y),
    (CANVAS_W - _MARGIN, _BASE_Y),
    (CANVAS_W / 2, _BASE_Y - _SIDE * math.sqrt(3) / 2),
)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _bary_to_xy(bary: tuple[Scalar, Scalar, Scalar]) -> tuple[float, float]:
    weights = [float(c) for c in bary]
    x = sum(w * v[0] for w, v in zip(weights, _VERTICES))
    y = sum(w * v[1] for w, v in zip(weights, _VERTICES))
    return x, y


def _normalize(sys: CoxeterSystem, rid: int) -> tuple[Scalar, Scalar, Scalar]:
    coords = sys.root_coords(rid)
    total = coords[0] + coords[1] + coords[2]
    if total.sign() <= 0:
        raise InternalInvariant("positive root with nonpositive coordinate sum")
    bary = tuple(c / total for c in coords)
    if bary[0] + bary[1] + bary[2] != sys.ctx.one:
        raise InternalInvariant("normalized coordinates do not sum to one")
    for c in bary:
        if c.sign() < 0:
            raise InternalInvariant("normalized root leaves the triangle")
    return bary


def _hyperplane_trace(sys: CoxeterSystem, rid: int
                      ) -> list[tuple[Scalar, Scalar, Scalar]]:
    """Intersections of {x : B(x, root) = 0} with the triangle's edges."""
    alpha = sys.root_coords(rid)
    one, zero = sys.ctx.one, sys.ctx.zero
    corner = [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
    ]
    values = [sys.bilinear(c, alpha) for c in corner]
    points: list[tuple[Scalar, Scalar, Scalar]] = []
    for i in range(3):
        for j in range(i + 1, 3):
            vi, vj = values[i], values[j]
            si, sj = vi.sign(), vj.sign()
            if si == 0 and sj == 0:
                points.extend([corner[i], corner[j]])
                continue
            if si * sj > 0:
                continue
            # the signs differ, or exactly one endpoint value is zero
            t = vi / (vi - vj)
            if t.sign() < 0 or (t - 1).sign() > 0:
                continue
            point = tuple((one - t) * a + t * b
                          for a, b in zip(corner[i], corner[j]))
            points.append(point)  # type: ignore[arg-type]
    unique: list[tuple[Scalar, Scalar, Scalar]] = []
    for p in points:
        if all(any(not (a - b).is_zero() for a, b in zip(p, q)) for q in unique):
            unique.append(p)
    return unique


def render_rank3_svg(sys: CoxeterSystem, level: int) -> str:
    """Deterministic SVG of the system's n-small roots and hyperplane traces."""
    if sys.rank != 3:
        raise UnsupportedRank("projective pictures support rank 3 only")
    table = build_small_roots(sys, level)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'  <rect width="{CANVAS_W}" height="{CANVAS_H}" fill="white"/>',
    ]
    tri = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in _VERTICES)
    lines.append(f'  <polygon points="{tri}" fill="none" stroke="black" '
                 'stroke-width="1.5"/>')
    for s, (x, y) in enumerate(_VERTICES):
        dy = -6.0 if s == 2 else 16.0
        lines.append(f'  <text x="{_fmt(x)}" y="{_fmt(y + dy)}" '
                     f'font-size="14" text-anchor="middle">a{s + 1}</text>')

    for nid, node in enumerate(table.nodes):
        trace = _hyperplane_trace(sys, node.rid)
        if len(trace) < 2:
            continue
        (x1, y1), (x2, y2) = _bary_to_xy(trace[0]), _bary_to_xy(trace[1])
        lines.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="#888888" stroke-width="1"/>')

    for nid, node in enumerate(table.nodes):
        bary = _normalize(sys, node.rid)
        x, y = _bary_to_xy(bary)
        coords = ", ".join(repr(c) for c in sys.root_coords(node.rid))
        fill = "#1f5fbf" if node.spherical else "#bf3f1f"
        lines.append(f'  <g><title>({coords})</title>'
                     f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.5" '
                     f'fill="{fill}"/>'
                     f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" '
                     f'font-size="11">{nid}</text></g>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
