"""The directed subdifferential engine.

For a 1-D function the directed subdifferential at ``x`` is the stored pair
``(f'(x; -1), f'(x; +1))``.  In dimension n >= 2 the engine transforms the
function into its exact directional derivative ``g = f'(x; .)``, reads the
support values ``g(l)`` off the grid, and recurses: the lower component for
``l`` is the directed subdifferential of ``g`` restricted to the tangent
slice through ``l``, taken at the origin one dimension down.

For differentiable functions this reproduces the embedded gradient; at kinks
the lower components record the (possibly inverted) face data that make the
calculus rules exact.
"""

from __future__ import annotations

from .basis import orthobasis
from .dirset import ACTIVE_RTOL, ActiveSetInfo, DirectedSet, SphereGrid, embed_point
from .deriv import dirderiv_transform, restrict
from .expr import Expr, as_point


class KinkError(ValueError):
    """Gradient embedding was asked for at a point with an active kink."""


def default_grid(dim: int) -> SphereGrid | None:
    """Default grids: none for 1-D, 360 directions for 2-D, a cost-controlled
    16 x 32 lattice with a 64-direction inner circle for 3-D."""
    if dim == 1:
        return None
    if dim == 2:
        return SphereGrid.circle(360)
    if dim == 3:
        return SphereGrid.sphere(16, 32, 64)
    raise ValueError(f"no default grid for dimension {dim}")


def directed_subdiff(
    e: Expr,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    info: ActiveSetInfo | None = None,
) -> DirectedSet:
    """Directed subdifferential of ``e`` at ``x`` over ``grid``.

    ``grid`` must match the point dimension for n >= 2 and must be omitted
    for n = 1.  ``info`` collects active-set tie/borderline flags from every
    transform in the recursion.
    """
    xs = as_point(x)
    n = len(xs)
    if n == 1:
        if grid is not None:
            raise ValueError("1-D subdifferentials take no grid")
        g = dirderiv_transform(e, xs, active_rtol, info)
        return DirectedSet.leaf(g._eval((-1.0,)), g._eval((1.0,)))
    if grid is None or grid.dim != n:
        raise ValueError(f"point of dimension {n} needs a grid of dimension {n}")
    g = dirderiv_transform(e, xs, active_rtol, info)
    origin = (0.0,) * (n - 1)
    supports = []
    lowers = []
    for l in grid.directions:
        supports.append(float(g._eval(l)))
        h = restrict(g, l, orthobasis(l))
        lowers.append(directed_subdiff(h, origin, grid.subgrid, active_rtol, info))
    return DirectedSet.node(grid, supports, lowers)


def smooth_gradient(e: Expr, x, active_rtol: float = ACTIVE_RTOL) -> tuple:
    """Gradient of ``e`` at ``x``; raises :class:`KinkError` at active kinks.

    A kink is detected when any max/min active set along the transform has
    more than one member within the tolerance, in which case no single
    gradient represents the local behavior.
    """
    xs = as_point(x)
    info = ActiveSetInfo()
    g = dirderiv_transform(e, xs, active_rtol, info)
    if info.ties:
        raise KinkError(f"kink detected at {xs}: ambiguous gradient")
    n = len(xs)
    grad = []
    for j in range(n):
        unit = tuple(1.0 if i == j else 0.0 for i in range(n))
        grad.append(float(g._eval(unit)))
    return tuple(grad)


def embed_gradient(e: Expr, x, grid: SphereGrid | None = None) -> DirectedSet:
    """Embed the singleton gradient of a smooth point as a directed set.

    This is the reference object the subdifferential must reproduce on
    differentiable functions.
    """
    xs = as_point(x)
    if len(xs) >= 2 and (grid is None or grid.dim != len(xs)):
        raise ValueError(f"point of dimension {len(xs)} needs a grid of dimension {len(xs)}")
    grad = smooth_gradient(e, xs)
    return embed_point(grad, grid if len(xs) >= 2 else None)
