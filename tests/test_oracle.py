import math

import pytest

from dirsubdiff.corpus import get_rng
from generators import random_interval, random_probe
from dirsubdiff.deriv import dirderiv
from dirsubdiff.dirset import DirectedInterval, DirectedSet, inf, sup
from dirsubdiff.expr import DomainError
from dirsubdiff.oracle import FdSchedule, dini_fd
from dirsubdiff.parser import parse
from references import (
    boundary_segments,
    convex_hull,
    dist_point_segment,
    interval_inf_bruteforce,
    interval_sup_bruteforce,
    polygon_support_oracle,
    segments_hausdorff,
)

SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


# ---------------------------------------------------------------------------
# finite differences


def test_fd_schedule_validation():
    with pytest.raises(ValueError):
        FdSchedule(factor=1.0)
    with pytest.raises(ValueError):
        FdSchedule(steps=1)
    with pytest.raises(ValueError):
        FdSchedule(t0=1e-10)


def test_dini_fd_abs_is_exact():
    e = parse("abs(x1)")
    assert dini_fd(e, (0.0,), (1.0,)) == 1.0
    assert dini_fd(e, (0.0,), (-1.0,)) == 1.0


def test_dini_fd_smooth():
    got = dini_fd(parse("sin(x1)"), (0.3,), (1.0,))
    assert abs(got - math.cos(0.3)) < 1e-6


def test_dini_fd_without_extrapolation():
    sched = FdSchedule(extrapolate=False)
    assert dini_fd(parse("abs(x1)"), (0.0,), (1.0,)) == dini_fd(
        parse("abs(x1)"), (0.0,), (1.0,), sched
    )
    # on smooth functions skipping the Richardson pass changes the value
    raw = dini_fd(parse("sin(x1)"), (0.3,), (1.0,), sched)
    assert raw != dini_fd(parse("sin(x1)"), (0.3,), (1.0,))
    assert abs(raw - math.cos(0.3)) < 1e-6


def test_dini_fd_matches_exact_derivative():
    rng = get_rng(61)
    checked = 0
    while checked < 20:
        e, x, l = random_probe(rng)
        try:
            exact = dirderiv(e, x, l)
            approx = dini_fd(e, x, l)
        except DomainError:
            continue
        assert abs(approx - exact) <= 1e-5 * (1.0 + abs(exact))
        checked += 1


# ---------------------------------------------------------------------------
# interval lattice cross-check


def test_bruteforce_interval_lattice_examples():
    a = DirectedInterval(1.0, 1.0)   # [-1, 1]
    b = DirectedInterval(0.0, 2.0)   # [0, 2]
    assert interval_sup_bruteforce([a, b]) == DirectedInterval(1.0, 2.0)
    assert interval_inf_bruteforce([a, b]) == DirectedInterval(0.0, 1.0)
    with pytest.raises(ValueError):
        interval_sup_bruteforce([])


def test_bruteforce_matches_componentwise():
    rng = get_rng(67)
    for _ in range(200):
        ivs = [random_interval(rng) for _ in range(rng.randint(1, 5))]
        sets = [DirectedSet.from_interval(iv) for iv in ivs]
        assert sup(sets).interval == interval_sup_bruteforce(ivs)
        assert inf(sets).interval == interval_inf_bruteforce(ivs)


# ---------------------------------------------------------------------------
# polygon geometry


def test_hull_of_square_with_interior_points():
    hull = convex_hull(SQUARE + [(0.0, 0.0), (0.3, -0.2)])
    assert hull == [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


def test_hull_degenerate_inputs():
    assert convex_hull([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]
    assert convex_hull([(2.0, 0.0), (0.0, 0.0)]) == [(0.0, 0.0), (2.0, 0.0)]
    assert convex_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]) == [(0.0, 0.0), (2.0, 2.0)]


def test_hull_drops_edge_midpoints():
    hull = convex_hull([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    assert hull == [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)]


def test_support_oracle():
    val, attain = polygon_support_oracle(SQUARE, (1.0, 0.0))
    assert val == 1.0
    assert attain == [(1.0, -1.0), (1.0, 1.0)]
    val, attain = polygon_support_oracle(SQUARE, (0.6, 0.8))
    assert val == pytest.approx(1.4)
    assert attain == [(1.0, 1.0)]


def test_boundary_segments():
    segs = boundary_segments(SQUARE)
    assert len(segs) == 4
    assert segs[0] == ((-1.0, -1.0), (1.0, -1.0))
    assert boundary_segments([(1.0, 2.0)]) == [((1.0, 2.0), (1.0, 2.0))]
    assert boundary_segments([(0.0, 0.0), (1.0, 0.0)]) == [((0.0, 0.0), (1.0, 0.0))]


def test_dist_point_segment():
    assert dist_point_segment((0.0, 2.0), (-1.0, 0.0), (1.0, 0.0)) == 2.0
    assert dist_point_segment((3.0, 4.0), (0.0, 0.0), (1.0, 0.0)) == math.hypot(2.0, 4.0)
    assert dist_point_segment((1.0, 1.0), (2.0, 2.0), (2.0, 2.0)) == math.hypot(1.0, 1.0)
    assert dist_point_segment((0.5, 0.0), (0.0, 0.0), (1.0, 0.0)) == 0.0


def test_segments_hausdorff():
    unit = [((0.0, 0.0), (1.0, 0.0))]
    assert segments_hausdorff(unit, unit) == 0.0
    shifted = [((0.0, 0.5), (1.0, 0.5))]
    assert segments_hausdorff(unit, shifted) == 0.5
    # asymmetric case: a sub-segment is covered one way but not the other
    sub = [((0.25, 0.0), (0.75, 0.0))]
    assert segments_hausdorff(unit, sub) == 0.25
