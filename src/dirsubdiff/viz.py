"""Visualization of 2-D directed sets as oriented boundary segments.

Each grid direction contributes one segment of the supporting face, traced
in the fixed tangent basis.  Segments of inverted parts (where the stored
pair runs backwards) are flagged so plots can style them differently; the
SVG writer uses dashes for them and a direction-indexed hue otherwise.
"""

from __future__ import annotations

import csv
from typing import IO, NamedTuple

from .dirset import DirectedSet, _directed
from .expr import finite_floats, instance, int_at_least, sequence

_ENDPOINT = "a segment endpoint must be two finite numbers, got {!r}"


class Segment(NamedTuple):
    p: tuple
    q: tuple
    inverted: bool


def viz_segments(a: DirectedSet) -> list[Segment]:
    """Boundary segments of a 2-D directed set.

    For direction ``l`` with support ``s`` and lower pair ``(c_neg, c_pos)``
    the segment runs from ``s*l - c_neg*R(l)`` to ``s*l + c_pos*R(l)`` where
    ``R(l)`` is the fixed tangent direction.  For embedded convex sets this
    is the supporting face; the segment is degenerate at a vertex.  The
    ``inverted`` flag is set when ``-c_neg > c_pos``.  An endpoint that
    overflows raises the writers' ``ValueError``.
    """
    if _directed(a).dim != 2:
        raise ValueError("segment visualization is defined for 2-D directed sets")
    segments = []
    for l, rows, s, c_neg, c_pos in zip(a.grid.directions, a.grid.tangent_rows,
                                        a.supports, a.a_neg, a.a_pos):
        r = (rows[0][0], rows[1][0])
        p = finite_floats((s * l[0] - c_neg * r[0], s * l[1] - c_neg * r[1]), _ENDPOINT)
        q = finite_floats((s * l[0] + c_pos * r[0], s * l[1] + c_pos * r[1]), _ENDPOINT)
        segments.append(Segment(p, q, -c_neg > c_pos))
    return segments


def _segments(segments) -> list:
    """The entries of ``segments`` as :class:`Segment` values with float
    endpoints, else ``ValueError``: each entry must be a :class:`Segment`,
    each endpoint two finite numbers and ``inverted`` a ``bool``."""
    checked = []
    for seg in sequence(segments, "segments"):
        p, q, inverted = instance(seg, Segment, "a segment")
        p, q = finite_floats(p, _ENDPOINT), finite_floats(q, _ENDPOINT)
        for end in (p, q):
            if len(end) != 2:
                raise ValueError(_ENDPOINT.format(end))
        checked.append(Segment(p, q, instance(inverted, bool, "a bool for inverted")))
    return checked


def write_segments_csv(segments, fp: IO[str]) -> None:
    """Write segments as ``px,py,qx,qy,inverted`` rows (inverted as 0/1)."""
    segments = _segments(segments)
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["px", "py", "qx", "qy", "inverted"])
    for seg in segments:
        writer.writerow(
            [repr(seg.p[0]), repr(seg.p[1]), repr(seg.q[0]), repr(seg.q[1]), int(seg.inverted)]
        )


def _bounds(segments):
    xs = [c for seg in segments for c in (seg.p[0], seg.q[0])]
    ys = [c for seg in segments for c in (seg.p[1], seg.q[1])]
    return min(xs), min(ys), max(xs), max(ys)


def write_segments_svg(segments, fp: IO[str], size: int = 640) -> None:
    """Render segments as an SVG drawing.

    Hue encodes the direction index, dashes mark inverted segments and the
    y axis is flipped so the drawing matches mathematical orientation.
    Degenerate segments stay visible through round line caps.
    """
    size = int_at_least(size, 1, "svg size")
    segments = _segments(segments)
    if segments:
        x0, y0, x1, y1 = _bounds(segments)
    else:
        x0 = y0 = -1.0
        x1 = y1 = 1.0
    span = max(x1 - x0, y1 - y0, 1e-6)
    margin = 0.08 * span
    x0, y0 = x0 - margin, y0 - margin
    x1, y1 = x1 + margin, y1 + margin
    width = x1 - x0
    height = y1 - y0
    stroke = 0.006 * max(width, height)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{x0:.6g} {-y1:.6g} {width:.6g} {height:.6g}">',
        f'<g fill="none" stroke-width="{stroke:.6g}" stroke-linecap="round">',
    ]
    n = max(len(segments), 1)
    for k, seg in enumerate(segments):
        hue = 360.0 * k / n
        dash = f' stroke-dasharray="{3 * stroke:.6g} {2 * stroke:.6g}"' if seg.inverted else ""
        lines.append(
            f'<line x1="{seg.p[0]:.12g}" y1="{-seg.p[1]:.12g}" '
            f'x2="{seg.q[0]:.12g}" y2="{-seg.q[1]:.12g}" '
            f'stroke="hsl({hue:.2f}, 80%, 42%)"{dash}/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    fp.write("\n".join(lines) + "\n")
