import io
import math
import re

import pytest

from dirsubdiff.cli import main
from dirsubdiff.corpus import get_rng
from generators import random_polygon
from dirsubdiff.dirset import DirectedSet, SphereGrid, embed_point, embed_polygon
from dirsubdiff.engine import directed_subdiff
from dirsubdiff.parser import parse
from dirsubdiff.viz import viz_segments, write_segments_csv, write_segments_svg
from references import (
    boundary_segments,
    convex_hull,
    polygon_support_oracle,
    segments_hausdorff,
)

SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


def face_segments(vertices, grid):
    """Supporting face of the hull for each grid direction, as a segment."""
    segs = []
    for l in grid.directions:
        _, attain = polygon_support_oracle(vertices, l)
        segs.append((attain[0], attain[-1]))
    return segs


def as_csv(segments):
    buf = io.StringIO()
    write_segments_csv(segments, buf)
    return buf.getvalue()


def as_svg(segments):
    buf = io.StringIO()
    write_segments_svg(segments, buf)
    return buf.getvalue()


def close(p, q, tol=1e-12):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= tol


def test_square_edges_at_coarse_resolution():
    segs = viz_segments(embed_polygon(SQUARE, SphereGrid.circle(4)))
    assert len(segs) == 4
    assert not any(s.inverted for s in segs)
    expected = [
        ((1.0, -1.0), (1.0, 1.0)),
        ((1.0, 1.0), (-1.0, 1.0)),
        ((-1.0, 1.0), (-1.0, -1.0)),
        ((-1.0, -1.0), (1.0, -1.0)),
    ]
    for seg, (p, q) in zip(segs, expected):
        assert close(seg.p, p, 1e-9) and close(seg.q, q, 1e-9)


def test_singleton_degenerates_to_point():
    segs = viz_segments(embed_point((3.0, 4.0), SphereGrid.circle(16)))
    for s in segs:
        assert close(s.p, (3.0, 4.0), 1e-9)
        assert close(s.q, (3.0, 4.0), 1e-9)
        assert not s.inverted


def test_inverted_segments_flagged():
    s = directed_subdiff(parse("abs(x1) - abs(x2)"), (0.0, 0.0), SphereGrid.circle(16))
    segs = viz_segments(s)
    assert any(seg.inverted for seg in segs)
    assert any(not seg.inverted for seg in segs)


def test_viz_requires_plane():
    with pytest.raises(ValueError):
        viz_segments(DirectedSet.leaf(1.0, 1.0))


def test_segments_lie_on_true_faces():
    g = SphereGrid.circle(32)
    rng = get_rng(7)
    for _ in range(10):
        hull = convex_hull(random_polygon(rng))
        segs = viz_segments(embed_polygon(hull, g))
        for seg, (p, q) in zip(segs, face_segments(hull, g)):
            assert close(seg.p, p, 1e-9) or close(seg.p, q, 1e-9)
            assert close(seg.q, p, 1e-9) or close(seg.q, q, 1e-9)


def test_hausdorff_against_boundary_for_square():
    # the square's edge normals all lie on the coarse grid, so the sampled
    # faces reproduce the full boundary exactly
    g = SphereGrid.circle(8)
    segs = [(s.p, s.q) for s in viz_segments(embed_polygon(SQUARE, g))]
    assert segments_hausdorff(segs, boundary_segments(SQUARE)) <= 1e-12


def test_hausdorff_bound_on_sampled_faces():
    rng = get_rng(13)
    for m in (16, 90):
        g = SphereGrid.circle(m)
        for _ in range(5):
            hull = convex_hull(random_polygon(rng))
            segs = [(s.p, s.q) for s in viz_segments(embed_polygon(hull, g))]
            faces = face_segments(hull, g)
            diam = max(
                math.hypot(p[0] - q[0], p[1] - q[1]) for p in hull for q in hull
            )
            bound = diam * (1.0 - math.cos(math.pi / m)) + 1e-9
            assert segments_hausdorff(segs, faces) <= bound


def test_csv_format():
    out = as_csv(viz_segments(embed_polygon(SQUARE, SphereGrid.circle(4))))
    lines = out.splitlines()
    assert lines[0] == "px,py,qx,qy,inverted"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1.0" and first[-1] == "0"
    assert out.endswith("\n")


def test_csv_deterministic():
    s = directed_subdiff(parse("abs(x1) - abs(x2)"), (0.0, 0.0), SphereGrid.circle(32))
    assert as_csv(viz_segments(s)) == as_csv(viz_segments(s))


def test_overflowing_endpoint_is_refused(tmp_path):
    # finite supports and leaf entries whose segment endpoints overflow
    s = DirectedSet(SphereGrid.circle(8), ([1.5e308] * 8,), [-1.5e308] * 8, [1.5e308] * 8)
    message = "a segment endpoint must be two finite numbers, got (1.99584030953472e+292, inf)"
    with pytest.raises(ValueError, match=re.escape(message)):
        viz_segments(s)
    stored = tmp_path / "set.json"
    stored.write_text(s.to_json())
    csv_path = tmp_path / "x.csv"
    assert main(["viz", "--in", str(stored), "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()


def test_svg_format():
    segs = viz_segments(
        directed_subdiff(parse("abs(x1) - abs(x2)"), (0.0, 0.0), SphereGrid.circle(16))
    )
    svg = as_svg(segs)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<line") == len(segs)
    assert "stroke-dasharray" in svg  # inverted segments drawn dashed


def test_svg_no_dashes_for_plain_hull():
    svg = as_svg(viz_segments(embed_polygon(SQUARE, SphereGrid.circle(8))))
    assert "stroke-dasharray" not in svg


def test_svg_empty_input():
    svg = as_svg([])
    assert svg.startswith("<svg") and "<line" not in svg
