"""Test references: the recursions the flat code of ``dirsubdiff`` must
reproduce bit for bit.

:func:`recursive_subdiff` shares the derivative transform with the engine
but not its sweep: it is the defining recursion over tangent slices that
:func:`dirsubdiff.engine.directed_subdiff` reads off one transform.
:func:`recursive_linear_combination`, :func:`recursive_sup`,
:func:`recursive_inf`, :func:`recursive_leq` and :func:`recursive_norm` are
the directed-set operations written as the recursion over ``supports``,
``lowers`` and ``interval`` that the flat operations of
:mod:`dirsubdiff.dirset` must reproduce, and
:func:`two_pass_active_members` is the listed form of the one-pass
active-set rule :func:`dirsubdiff.dirset.active_members`.
"""

from __future__ import annotations

from dirsubdiff.basis import orthobasis
from dirsubdiff.deriv import dirderiv_transform, restrict
from dirsubdiff.dirset import ACTIVE_RTOL, ActiveSetInfo, DirectedSet, SphereGrid, active_members
from dirsubdiff.engine import directed_subdiff
from dirsubdiff.expr import Expr, as_point

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
    :func:`restrict` per direction.  Same arguments and result as
    :func:`dirsubdiff.engine.directed_subdiff`, which reads the same levels
    off one transform; this slow form is its test reference.
    """
    xs = as_point(x)
    n = len(xs)
    if n == 1:  # one transform read at -1 and +1: no sweep to check
        return directed_subdiff(e, xs, grid, active_rtol, info)
    if grid is None or grid.dim != n:
        raise ValueError(f"point of dimension {n} needs a grid of dimension {n}")
    g = dirderiv_transform(e, xs, active_rtol, info)
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
        active = active_members(vals, rtol, maximize, info)
        supports.append(pick(vals))
        if len(active) == 1:
            lowers.append(family[active[0]].lowers[k])
        else:
            lowers.append(_recursive_extreme([family[i].lowers[k] for i in active], rtol, info, maximize))
    return DirectedSet.node(first.grid, supports, lowers)


def recursive_sup(sets, active_rtol: float = ACTIVE_RTOL, info: ActiveSetInfo | None = None) -> DirectedSet:
    """Supremum: the maximal support per direction, recursing on the lower
    sets of the members :func:`active_members` keeps there."""
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
    """:func:`dirsubdiff.dirset.active_members` written as the rule reads:
    list every gap to the extreme, keep the gaps within ``eps``, and flag a
    borderline member when any gap lies in ``(eps, 10 eps]``.  Same indices
    and flags as the one-pass rule, which classifies each gap once."""
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
