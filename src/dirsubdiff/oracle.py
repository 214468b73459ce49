"""Independent oracles used to cross-check the exact machinery.

Nothing here shares arithmetic with the expression transform or the
directed-set operations: directional derivatives come from one-sided
finite differences, interval lattice operations from brute-force endpoint
logic in the visualized (endpoint) representation, and polygon supports
from an explicit convex hull.  Agreement between these and the exact code
paths is what the verification suite relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dirset import DirectedInterval
from .expr import Expr, evaluate


# ---------------------------------------------------------------------------
# finite-difference directional derivatives


@dataclass(frozen=True)
class FdSchedule:
    """Geometric step schedule for one-sided difference quotients.

    The smallest step is ``t0 * factor ** (steps - 1)``; with the defaults
    that is about 1.9e-8, safely above the 1e-14 floor where rounding noise
    would dominate.
    """

    t0: float = 1e-2
    factor: float = 0.5
    steps: int = 20
    extrapolate: bool = True

    def __post_init__(self):
        if not (0.0 < self.factor < 1.0):
            raise ValueError("factor must lie in (0, 1)")
        if self.steps < 2:
            raise ValueError("schedule needs at least two steps")
        if self.t0 * self.factor ** self.steps <= 1e-14:
            raise ValueError("schedule descends below the 1e-14 noise floor")


def dini_fd(e: Expr, x, l, schedule: FdSchedule = FdSchedule()) -> float:
    """One-sided difference-quotient estimate of ``f'(x; l)``.

    Walks the schedule from ``t0`` down and applies one Richardson pass to
    the smallest pair of quotients, which cancels the leading linear error
    term on the smooth piece eventually selected by small steps.  Accuracy
    is of the order of the squared smallest step plus rounding noise.
    """
    xs = tuple(float(v) for v in x)
    ls = tuple(float(v) for v in l)
    f0 = evaluate(e, xs)
    quotients = []
    t = schedule.t0
    for _ in range(schedule.steps):
        xt = tuple(xv + t * lv for xv, lv in zip(xs, ls))
        quotients.append((evaluate(e, xt) - f0) / t)
        t *= schedule.factor
    if not schedule.extrapolate:
        return quotients[-1]
    # q(t) = d + C t + O(t^2) and t_{k+1} = factor * t_k, so the combination
    # (q_{k+1} - factor * q_k) / (1 - factor) removes the linear term.
    f = schedule.factor
    return (quotients[-1] - f * quotients[-2]) / (1.0 - f)


# ---------------------------------------------------------------------------
# brute-force interval lattice


def interval_sup_bruteforce(intervals) -> DirectedInterval:
    """Supremum of directed intervals computed in endpoint form.

    Works on the visualized endpoints (smallest left endpoint, largest right
    endpoint) and converts back, deliberately avoiding the componentwise
    stored-pair shortcut used by the exact code.
    """
    items = list(intervals)
    if not items:
        raise ValueError("empty interval family")
    left = min(-iv.a_neg for iv in items)
    right = max(iv.a_pos for iv in items)
    return DirectedInterval(-left, right)


def interval_inf_bruteforce(intervals) -> DirectedInterval:
    """Infimum of directed intervals in endpoint form (may come out inverted)."""
    items = list(intervals)
    if not items:
        raise ValueError("empty interval family")
    left = max(-iv.a_neg for iv in items)
    right = min(iv.a_pos for iv in items)
    return DirectedInterval(-left, right)


# ---------------------------------------------------------------------------
# polygon support geometry


def convex_hull(points) -> list:
    """Convex hull as a counterclockwise vertex list (monotone chain).

    Degenerate inputs are handled: duplicates collapse, and one or two
    distinct points simply come back as given.  Collinear midpoints are
    dropped, so the result holds true vertices only.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all points collinear: keep the two extremes
        return [pts[0], pts[-1]]
    return hull


def polygon_support_oracle(vertices, l, tie_tol: float = 1e-12):
    """Exact support value and attaining hull vertices in direction ``l``.

    Returns ``(value, attaining)`` where ``attaining`` lists the hull
    vertices within ``tie_tol`` of the maximum (one vertex generically, two
    when ``l`` is an edge normal).
    """
    hull = convex_hull(vertices)
    lx, ly = float(l[0]), float(l[1])
    vals = [lx * v[0] + ly * v[1] for v in hull]
    m = max(vals)
    attaining = [v for v, val in zip(hull, vals) if m - val <= tie_tol]
    return m, attaining


def boundary_segments(vertices) -> list:
    """Edges of the convex hull as ``(p, q)`` pairs.

    A single point yields one degenerate segment; two points yield the
    connecting segment once.
    """
    hull = convex_hull(vertices)
    if len(hull) == 1:
        return [(hull[0], hull[0])]
    if len(hull) == 2:
        return [(hull[0], hull[1])]
    return [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]


def dist_point_segment(p, a, b) -> float:
    """Euclidean distance from point ``p`` to the segment ``[a, b]``."""
    px, py = float(p[0]), float(p[1])
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _sample_segment(a, b, samples: int):
    return [
        (a[0] + (b[0] - a[0]) * i / (samples - 1), a[1] + (b[1] - a[1]) * i / (samples - 1))
        for i in range(samples)
    ]


def segments_hausdorff(segs_a, segs_b, samples: int = 17) -> float:
    """Symmetric Hausdorff distance between two segment unions.

    Each segment is sampled with ``samples`` points and measured against the
    other union with exact point-to-segment distances, so the result is
    accurate to the sampling of the *source* side only.
    """
    def one_sided(src, dst):
        worst = 0.0
        for a, b in src:
            for p in _sample_segment(a, b, samples):
                best = min(dist_point_segment(p, c, d) for c, d in dst)
                if best > worst:
                    worst = best
        return worst

    segs_a = [(s[0], s[1]) for s in segs_a]
    segs_b = [(s[0], s[1]) for s in segs_b]
    if not segs_a or not segs_b:
        raise ValueError("segment unions must be nonempty")
    return max(one_sided(segs_a, segs_b), one_sided(segs_b, segs_a))
