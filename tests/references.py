"""Test references: the recursions the flat code of ``dirsubdiff`` must
reproduce bit for bit, and independent cross-checks that share no arithmetic
with it.

:func:`recursive_subdiff` shares the derivative transform with the engine
but not its sweep: it is the defining recursion over tangent slices that
:func:`dirsubdiff.engine.directed_subdiff` reads off one transform.
:func:`recursive_linear_combination`, :func:`recursive_sup`,
:func:`recursive_inf`, :func:`recursive_leq` and :func:`recursive_norm` are
the directed-set operations written as the recursion over ``supports``,
``lowers`` and ``interval`` that the flat operations of
:mod:`dirsubdiff.dirset` must reproduce, and
:func:`two_pass_active_members` is the listed form of the column-wise
active-set rule :func:`dirsubdiff.dirset.active_columns` at one direction;
the recursive sup and inf judge with it, so the flat ones are not judged by
their own rule.

The cross-checks are brute-force interval lattice operations in endpoint
form (:func:`interval_sup_bruteforce`, :func:`interval_inf_bruteforce`)
and polygon geometry from an explicit convex hull (:func:`convex_hull`,
:func:`polygon_support_oracle`, :func:`boundary_segments`), with
point-to-segment and sampled Hausdorff distances
(:func:`dist_point_segment`, :func:`segments_hausdorff`).  The
finite-difference derivative :func:`dirsubdiff.oracle.dini_fd` is public
and stays in the package.
"""

from __future__ import annotations

import math

from dirsubdiff.basis import orthobasis
from dirsubdiff.deriv import dirderiv_transform, restrict
from dirsubdiff.dirset import (
    ACTIVE_RTOL, ActiveSetInfo, DirectedInterval, DirectedSet, SphereGrid, check_grid,
)
from dirsubdiff.expr import DomainError, Expr, as_point, finite_float

# ---------------------------------------------------------------------------
# the defining recursion of the directed subdifferential


def recursive_subdiff(
    e: Expr,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    info: ActiveSetInfo | None = None,
) -> DirectedSet:
    """Directed subdifferential by the recursion over tangent slices.

    Transforms ``e`` into ``g = f'(x; .)``, reads the support ``g(l)`` per
    grid direction and recurses on ``g`` restricted to the slice through
    ``l``, at the origin one dimension down: a fresh transform and a fresh
    :func:`restrict` per direction.  In 1-D the leaf pair is the transform
    read at -1 and +1.  Same arguments and result as
    :func:`dirsubdiff.engine.directed_subdiff`, which reads the same levels
    off one transform; this slow form is its test reference.
    """
    xs = as_point(x)
    n = len(xs)
    check_grid(grid, n)
    g = dirderiv_transform(e, xs, active_rtol, info)
    if n == 1:
        return DirectedSet.leaf(*(
            finite_float(g._eval((t,)), "value overflows to {!r} at the base point",
                         DomainError)
            for t in (-1.0, 1.0)))
    origin = (0.0,) * (n - 1)
    supports = []
    lowers = []
    for l in grid.directions:
        supports.append(float(g._eval(l)))
        h = restrict(g, l, orthobasis(l))
        lowers.append(recursive_subdiff(h, origin, grid.subgrid, active_rtol, info))
    return DirectedSet.node(grid, supports, lowers)


# ---------------------------------------------------------------------------
# the directed-set operations as recursions over the lower sets


def recursive_linear_combination(alpha: float, a: DirectedSet, beta: float, b: DirectedSet) -> DirectedSet:
    """``alpha * a + beta * b``, support by support and lower set by lower set."""
    if a.dim == 1:
        return DirectedSet.leaf(
            alpha * a.interval.a_neg + beta * b.interval.a_neg,
            alpha * a.interval.a_pos + beta * b.interval.a_pos,
        )
    supports = [alpha * sa + beta * sb for sa, sb in zip(a.supports, b.supports)]
    lowers = [recursive_linear_combination(alpha, la, beta, lb) for la, lb in zip(a.lowers, b.lowers)]
    return DirectedSet.node(a.grid, supports, lowers)


def _recursive_extreme(family, rtol, info, maximize):
    pick = max if maximize else min
    first = family[0]
    if first.dim == 1:
        return DirectedSet.leaf(
            pick(s.interval.a_neg for s in family),
            pick(s.interval.a_pos for s in family),
        )
    supports = []
    lowers = []
    for k in range(len(first.grid.directions)):
        vals = [s.supports[k] for s in family]
        active = two_pass_active_members(vals, rtol, maximize, info)
        supports.append(pick(vals))
        if len(active) == 1:
            lowers.append(family[active[0]].lowers[k])
        else:
            lowers.append(_recursive_extreme([family[i].lowers[k] for i in active], rtol, info, maximize))
    return DirectedSet.node(first.grid, supports, lowers)


def recursive_sup(sets, active_rtol: float = ACTIVE_RTOL, info: ActiveSetInfo | None = None) -> DirectedSet:
    """Supremum: the maximal support per direction, recursing on the lower
    sets of the members :func:`two_pass_active_members` keeps there."""
    return _recursive_extreme(list(sets), active_rtol, info, True)


def recursive_inf(sets, active_rtol: float = ACTIVE_RTOL, info: ActiveSetInfo | None = None) -> DirectedSet:
    """Infimum; mirror image of :func:`recursive_sup`."""
    return _recursive_extreme(list(sets), active_rtol, info, False)


def recursive_leq(a: DirectedSet, b: DirectedSet, eps: float = 1e-9) -> bool:
    """``a <= b`` with slack ``eps``, recursing where supports agree within ``eps``."""
    if a.dim == 1:
        return (
            a.interval.a_neg <= b.interval.a_neg + eps
            and a.interval.a_pos <= b.interval.a_pos + eps
        )
    for av, bv, la, lb in zip(a.supports, b.supports, a.lowers, b.lowers):
        if av > bv + eps:
            return False
        if abs(av - bv) <= eps and not recursive_leq(la, lb, eps):
            return False
    return True


def recursive_norm(a: DirectedSet) -> float:
    """Sup norm: the largest support or leaf entry in magnitude, lower set by lower set."""
    if a.dim == 1:
        return max(abs(a.interval.a_neg), abs(a.interval.a_pos))
    best = 0.0
    for s, low in zip(a.supports, a.lowers):
        v = abs(s)
        if v > best:
            best = v
        v = recursive_norm(low)
        if v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# the active-set rule with its gaps listed


def two_pass_active_members(values, rtol: float, maximize: bool, info: ActiveSetInfo | None) -> list:
    """The active-set rule at one direction, written as it reads: list every
    gap to the extreme, keep the gaps within ``eps``, and flag a borderline
    member when any gap lies in ``(eps, 10 eps]``.  Same indices and flags
    as :func:`dirsubdiff.dirset.active_columns` at each direction, which
    classifies whole columns of gaps at once."""
    m = max(values) if maximize else min(values)
    eps = rtol * (1.0 + abs(m))
    gaps = [m - v for v in values] if maximize else [v - m for v in values]
    active = [i for i, gap in enumerate(gaps) if gap <= eps]
    if info is not None:
        if len(active) > 1:
            info.ties = True
        if any(eps < gap <= 10.0 * eps for gap in gaps):
            info.borderline = True
    return active


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
    accurate to the sampling of the *source* side only.  Exact duplicate
    segments are measured once: a max or min over the same distinct values
    is the same double.
    """
    def one_sided(src, dst):
        worst = 0.0
        for a, b in src:
            for p in _sample_segment(a, b, samples):
                best = min(dist_point_segment(p, c, d) for c, d in dst)
                if best > worst:
                    worst = best
        return worst

    segs_a = list(dict.fromkeys((tuple(s[0]), tuple(s[1])) for s in segs_a))
    segs_b = list(dict.fromkeys((tuple(s[0]), tuple(s[1])) for s in segs_b))
    if not segs_a or not segs_b:
        raise ValueError("segment unions must be nonempty")
    return max(one_sided(segs_a, segs_b), one_sided(segs_b, segs_a))
