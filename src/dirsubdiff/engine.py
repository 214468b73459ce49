"""The directed subdifferential engine.

For a 1-D function the directed subdifferential at ``x`` is the stored pair
``(f'(x; -1), f'(x; +1))``.  In dimension n >= 2 the engine builds the exact
directional derivative ``g = f'(x; .)`` once, with :func:`dirderiv_transform`,
and reads every level of the set off ``g`` by forward sweeps:

* the support at a grid direction ``l`` is ``g(l)``;
* near ``l``, ``g`` equals ``g`` with every max/min narrowed to the members
  active at ``l``, so the lower support at a sub-direction ``r`` is that
  narrowed ``g`` at ``B_l r``, where ``B_l`` is the fixed basis of the tangent
  hyperplane of ``l`` (:func:`orthobasis`);
* narrowing again at ``B_l r``, the next level reads ``g`` at ``B_l B_r s``,
  and so on; the 1-D leaf pair is the last narrowed ``g`` at ``s = -1, +1``.

These are the lexicographic directional derivatives of ``f`` at ``x`` along
the frames ``[l, B_l r, B_l B_r s]`` (Nesterov, Math. Program. 104, 2005).
Each sweep narrows with :func:`active_members`, the rule and tolerance of
the transform, and adds and picks in the order of ``Expr._eval``, so the set
is bitwise the one of the defining recursion: restrict ``g`` to the slice
through ``l``, transform it again and recurse one dimension down
(:func:`dirsubdiff.oracle.recursive_subdiff`).  No expression is built per
direction.

For differentiable functions this reproduces the embedded gradient; at kinks
the lower components record the (possibly inverted) face data that make the
calculus rules exact.
"""

from __future__ import annotations

import math

from .dirset import ACTIVE_RTOL, ActiveSetInfo, DirectedSet, SphereGrid, active_members, embed_point
from .deriv import dirderiv_transform
from .expr import Affine, Const, DomainError, Expr, LinComb, Max, Min, Var, as_point


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
    for n = 1.  ``info`` collects active-set tie/borderline flags from the
    transform and from every narrowing of the sweep.
    """
    xs = as_point(x)
    n = len(xs)
    if n == 1:
        if grid is not None:
            raise ValueError("1-D subdifferentials take no grid")
        g = dirderiv_transform(e, xs, active_rtol, info)
        return DirectedSet.leaf(_finite_leaf(g._eval((-1.0,))), _finite_leaf(g._eval((1.0,))))
    if grid is None or grid.dim != n:
        raise ValueError(f"point of dimension {n} needs a grid of dimension {n}")
    g = dirderiv_transform(e, xs, active_rtol, info)
    sweep = _Sweep(g, active_rtol, info, n)
    sweep.level(grid, (), None)
    return DirectedSet(grid, sweep.levels, sweep.a_neg, sweep.a_pos)


# ---------------------------------------------------------------------------
# the lexicographic sweep

# slot records: (_VAR, context, index), (_CONST, value),
# (_LIN, alpha, left, beta, right), (_MAX | _MIN, children), (_ALIAS, child)
_VAR, _CONST, _LIN, _ALIAS, _MAX, _MIN = range(6)


def _inner(rows, y) -> tuple:
    """``rows @ y`` accumulated from 0.0 in the order of ``Affine._inner_point``."""
    out = []
    for row in rows:
        acc = 0.0
        for w, yv in zip(row, y):
            acc += w * yv
        out.append(acc)
    return tuple(out)


def _lift(y, frames) -> tuple:
    """Map ``y`` up through the bases in ``frames`` (outermost first)."""
    for rows in reversed(frames):
        y = _inner(rows, y)
    return y


def _overflow(v):
    return DomainError(f"value overflows to {v!r} at the base point")


def _finite_leaf(v: float) -> float:
    """``v``, or :class:`DomainError` when a leaf value overflowed."""
    if not math.isfinite(v):
        raise _overflow(v)
    return v


class _Sweep:
    """Reads the levels of a directed subdifferential off one transform ``g``.

    ``g`` is flattened into slots, one per node and affine context: a node
    under an ``Affine`` sees its own point, so the same node reached through
    two different substitutions gets two slots.  Context 0 sees the sweep
    point; ``contexts[c] = (parent, matrix)`` maps the parent's point to
    context ``c``'s.  Node values of one sweep live in ``val`` by slot.

    A level's narrowing state ``act`` maps each reachable max/min slot to
    the child slots still active (``None`` at the top: all children).  The
    set's flat arrays (see :mod:`dirsubdiff.dirset`) accumulate in
    ``levels``, ``a_neg`` and ``a_pos`` in walk order.
    """

    def __init__(self, g: Expr, rtol: float, info: ActiveSetInfo | None, dim: int):
        self.rtol = rtol
        self.info = info
        self.slots, self.root, self.contexts = self._flatten(g)
        size = len(self.slots)
        self.val = [0.0] * size
        self.lo = [0.0] * size
        self.hi = [0.0] * size
        self.directions: dict = {}
        self.levels = [[] for _ in range(dim - 1)]
        self.a_neg: list = []
        self.a_pos: list = []

    @staticmethod
    def _flatten(g):
        slots = []
        index: dict = {}
        contexts = [None]
        context_ids: dict = {}
        stack = [(g, 0, False)]
        while stack:
            node, ctx, ready = stack.pop()
            if (id(node), ctx) in index:
                continue
            if isinstance(node, Affine):
                key = (ctx, id(node))
                if key not in context_ids:
                    context_ids[key] = len(contexts)
                    contexts.append((ctx, node.matrix))
                kids = ((node.child, context_ids[key]),)
            else:
                kids = tuple((c, ctx) for c in node.children)
            if not ready:
                stack.append((node, ctx, True))
                stack.extend((c, cc, False) for c, cc in reversed(kids))
                continue
            ks = [index[(id(c), cc)] for c, cc in kids]
            if isinstance(node, Var):
                rec = (_VAR, ctx, node.index)
            elif isinstance(node, Const):
                rec = (_CONST, node.value)
            elif isinstance(node, LinComb):
                rec = (_LIN, node.alpha, ks[0], node.beta, ks[1])
            elif isinstance(node, (Max, Min)):
                rec = (_MAX if isinstance(node, Max) else _MIN, tuple(ks))
            elif isinstance(node, Affine):
                rec = (_ALIAS, ks[0])
            else:  # pragma: no cover - the transform emits no other kinds
                raise TypeError(f"unexpected {type(node).__name__} node in a transform")
            index[(id(node), ctx)] = len(slots)
            slots.append(rec)
        return slots, index[(id(g), 0)], contexts

    def _program(self, act):
        """Instructions evaluating the root under ``act``, in ``_eval`` order.

        Returns ``(program, root slot, singles)``.  A max/min left with one
        active child, and an affine node, emit nothing: their slot resolves to
        the child's, as the transform returns the child's derivative there.
        ``singles`` keeps those one-child max/min slots for the next level.
        """
        slots = self.slots
        resolved: dict = {}
        singles: dict = {}
        program = []
        stack = [(self.root, False)]
        while stack:
            s, ready = stack.pop()
            if s in resolved:
                continue
            rec = slots[s]
            op = rec[0]
            if op == _LIN:
                kids = (rec[2], rec[4])
            elif op == _ALIAS:
                kids = (rec[1],)
            elif op >= _MAX:
                kids = rec[1] if act is None else act[s]
            else:
                kids = ()
            if not ready:
                stack.append((s, True))
                stack.extend((c, False) for c in reversed(kids))
                continue
            if op == _ALIAS:
                resolved[s] = resolved[kids[0]]
                continue
            resolved[s] = s
            if op == _LIN:
                program.append((_LIN, s, rec[1], resolved[kids[0]], rec[3], resolved[kids[1]]))
            elif op >= _MAX:
                members = tuple(resolved[c] for c in kids)
                if len(members) == 1:
                    resolved[s] = members[0]
                    singles[s] = members
                else:
                    program.append((op, s, members))
            else:
                program.append((op, s) + rec[1:])
        return program, resolved[self.root], singles

    def _points(self, p) -> list:
        """The point every affine context sees when the root sees ``p``."""
        pts = [p]
        for parent, rows in self.contexts[1:]:
            pts.append(_inner(rows, pts[parent]))
        return pts

    def _directions(self, grid: SphereGrid) -> list:
        """Per direction ``d`` of ``grid``: ``(d, B_d rows, B_d (-1), B_d (+1))``.

        The basis rows come from ``grid.tangent_rows``; the last two entries
        are the leaf directions when ``grid`` is a circle.
        """
        out = self.directions.get(grid.id)
        if out is None:
            out = []
            for d, rows in zip(grid.directions, grid.tangent_rows):
                if grid.dim == 2:
                    out.append((d, rows, _inner(rows, (-1.0,)), _inner(rows, (1.0,))))
                else:
                    out.append((d, rows, None, None))
            self.directions[grid.id] = out
        return out

    def level(self, grid: SphereGrid, frames: tuple, act, depth: int = 0) -> None:
        """Append the supports over ``grid`` below the directions whose bases
        are ``frames`` to ``levels[depth]``, then (depth first) everything
        below them; on a circle, the leaf pairs go to ``a_neg`` and ``a_pos``."""
        program, root, singles = self._program(act)
        supports = self.levels[depth]
        for d, rows, down, up in self._directions(grid):
            p = _lift(d, frames)
            if grid.dim == 2:
                self._evaluate(program, p, _lift(down, frames), _lift(up, frames))
                supports.append(self.val[root])
                self.a_neg.append(_finite_leaf(self.lo[root]))
                self.a_pos.append(_finite_leaf(self.hi[root]))
            else:
                narrowed = self._evaluate(program, p)
                supports.append(self.val[root])
                self.level(grid.subgrid, frames + (rows,), {**singles, **narrowed}, depth + 1)

    def _evaluate(self, program, p, down=None, up=None) -> dict:
        """One forward sweep: node values at ``p`` into ``val``, checked finite;
        with leaf points ``down`` and ``up``, the narrowed node values there
        into ``lo`` and ``hi``.  Returns the max/min members active at ``p``."""
        val, lo, hi, rtol, info = self.val, self.lo, self.hi, self.rtol, self.info
        leaf = down is not None
        pts = self._points(p)
        if leaf:
            pdown, pup = self._points(down), self._points(up)
        act = {}
        for ins in program:
            op = ins[0]
            s = ins[1]
            if op == _LIN:
                _, _, a, l, b, r = ins
                v = a * val[l] + b * val[r]
                if leaf:
                    lo[s] = a * lo[l] + b * lo[r]
                    hi[s] = a * hi[l] + b * hi[r]
            elif op == _VAR:
                ctx, k = ins[2], ins[3]
                v = pts[ctx][k]
                if leaf:
                    lo[s] = pdown[ctx][k]
                    hi[s] = pup[ctx][k]
            elif op == _CONST:
                v = lo[s] = hi[s] = ins[2]
            else:
                members = ins[2]
                vals = [val[c] for c in members]
                pick = max if op == _MAX else min
                v = pick(vals)
                active = tuple(members[i] for i in active_members(vals, rtol, op == _MAX, info))
                act[s] = active
                if leaf:
                    lo[s] = pick([lo[c] for c in active])
                    hi[s] = pick([hi[c] for c in active])
            if not math.isfinite(v):
                raise _overflow(v)
            val[s] = v
        return act


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
