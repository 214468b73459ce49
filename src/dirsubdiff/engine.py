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
The sweep is column-wise: ``g`` is flattened once into a program of linear
combinations and max/min picks, and a level runs the program of its
narrowing once over all directions of its grid below one parent direction,
every node holding a list of values over those directions.  The leaf level
runs over the leaf points ``B_l B_r (-1)`` and ``B_l B_r (+1)`` in the same
pass.  Each max/min narrows with one :func:`active_columns` call over its
member columns at all directions of the level, which applies the rule and
tolerance of the transform to each direction, and the sweep adds, lifts
and picks in the order of ``Expr._eval``, so the set is bitwise the one of
the defining recursion: restrict ``g`` to the slice through ``l``,
transform it again and recurse one dimension down (``recursive_subdiff``
in ``tests/references.py``).  No expression is built per direction, and
the program of a narrowing is built once per call.

Several expressions at one point take one pass (:func:`directed_subdiffs`):
their transforms share the walk, so the operands inside a combination are
one subtree of the combination's transform, and the sweep runs the program
of the union of their slots, filling each root's levels.  A max/min
narrows on its own member values only, so every root's set is the one a
separate call reads.

For differentiable functions this reproduces the embedded gradient; at kinks
the lower components record the (possibly inverted) face data that make the
calculus rules exact.
"""

from __future__ import annotations

import math
from functools import cache

from .dirset import (
    ACTIVE_RTOL, ActiveSetInfo, DirectedSet, SphereGrid, active_columns, check_grid, embed_point,
)
from .deriv import dirderiv_transform
from .expr import (
    Affine, Const, DomainError, Expr, ExprError, LinComb, Max, Min, Var, _finite, as_point,
    finite_float, int_at_least, walk,
)


class KinkError(ValueError):
    """Gradient embedding was asked for at a point with an active kink."""


def default_grid(dim: int) -> SphereGrid | None:
    """Default grids: none for 1-D, 360 directions for 2-D, a cost-controlled
    16 x 32 lattice with a 64-direction inner circle for 3-D.

    Built once per dimension and process: grids are frozen, so every caller
    shares one grid and the tangent bases it caches.  ``dim`` passes the
    integer door before the cache, whose key would equate ``True`` and
    ``2.0`` with 1 and 2."""
    return _default_grid(int_at_least(dim, 1, "dimension"))


@cache
def _default_grid(dim: int) -> SphereGrid | None:
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
    return directed_subdiffs((e,), x, grid, active_rtol, info)[0]


def directed_subdiffs(
    exprs,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    info: ActiveSetInfo | None = None,
) -> list:
    """:func:`directed_subdiff` of every expression of ``exprs`` at one point.

    The transforms of all roots are built on one walk, so a subtree they
    share (the operands inside a combination) is transformed once, and one
    sweep reads every root's levels.  A max/min narrows on its own member
    values only, so each set is bitwise the set a separate call returns,
    and ``info`` gets the union of the separate calls' flags.  On a
    :class:`DomainError` or :class:`ArityError` the roots are redone one by
    one, so the error is the one separate calls raise first, in root order.
    """
    xs = as_point(x)
    n = len(xs)
    check_grid(grid, n)
    joint = info if len(exprs) == 1 else ActiveSetInfo()
    shared: dict = {}
    try:
        gs = [dirderiv_transform(e, xs, active_rtol, joint, shared) for e in exprs]
        if n == 1:
            sets = [DirectedSet.leaf(*(finite_float(g._eval((t,)), _OVERFLOW, DomainError)
                                       for t in (-1.0, 1.0))) for g in gs]
        else:
            sweep = _Sweep(gs, active_rtol, joint, n)
            sweep.level(grid, (), None)
            parts = zip(sweep.levels, sweep.a_neg, sweep.a_pos)
            sets = [DirectedSet._built(grid, levels, neg, pos) for levels, neg, pos in parts]
    except ExprError:
        if joint is info:
            raise
        return [directed_subdiffs((e,), xs, grid, active_rtol, info)[0] for e in exprs]
    if joint is not info and info is not None:
        info.ties |= joint.ties
        info.borderline |= joint.borderline
    return sets


# ---------------------------------------------------------------------------
# the lexicographic sweep

# slot records: (_VAR, context, index), (_CONST, value),
# (_LIN, alpha, left, beta, right), (_MAX | _MIN, children), (_ALIAS, child);
# programs add (_SHIFT, slot, a, x, k) for ``a * x + k`` with a constant ``k``
_VAR, _CONST, _LIN, _SHIFT, _ALIAS, _MAX, _MIN = range(7)


def _apply(rows, cols) -> list:
    """``rows @ y`` for every point ``y`` of ``cols`` (one list per
    coordinate), accumulated from 0.0 in the order of ``Affine._inner_point``.
    Rows of two entries, through which a default 3-D grid lifts its circle's
    points, take one comprehension per row, which adds in the same order."""
    if len(rows[0]) == 2:
        c0, c1 = cols[0], cols[1]
        return [[0.0 + w0 * y0 + w1 * y1 for y0, y1 in zip(c0, c1)] for w0, w1 in rows]
    out = []
    for row in rows:
        acc = [0.0 + row[0] * y for y in cols[0]]
        for w, col in zip(row[1:], cols[1:]):
            acc = [a + w * y for a, y in zip(acc, col)]
        out.append(acc)
    return out


def _column(v, n: int):
    """Slot value ``v`` over ``n`` directions: constants are one float."""
    return [v] * n if type(v) is float else v


def _first_bad(col, stop: int) -> int:
    """Index of the first non-finite entry of ``col`` before ``stop``, else
    ``stop``; a finite column is cleared without a scan (see
    :func:`dirsubdiff.expr._finite`)."""
    if not _finite(col):
        for j in range(stop):
            if not math.isfinite(col[j]):
                return j
    return stop


_OVERFLOW = "value overflows to {!r} at the base point"


class _Sweep:
    """Reads the levels of the directed subdifferentials of several
    transforms ``gs`` at one point off one sweep.

    The roots are flattened into one table of slots, one per ``(node,
    context)`` pair of :func:`dirsubdiff.expr.walk`: a node under an
    ``Affine`` sees its own point, so the same node reached through two
    different substitutions gets two slots, and a node two roots share gets
    one.  Context 0 sees the sweep point; ``contexts[c] =
    (parent, matrix)`` maps the parent's point to context ``c``'s.

    A level's narrowing state ``act`` maps each reachable max/min slot to
    the child slots still active (``None`` at the top: all children).  A
    level runs the program of its narrowing once over the points of its
    grid below one parent direction, lifted through the parents' bases:
    every slot holds a column, the slot's value per point (a constant slot
    holds one float).  The points are the grid's
    :attr:`~dirsubdiff.dirset.SphereGrid.sweep_columns`, built once per
    grid: the directions and, on a circle, their ``-1`` and ``+1`` leaf
    points.  Their lifts depend on the parent direction and are not kept.
    The level then recurses, depth first, into each direction with the
    members active there.  Root
    ``k``'s flat arrays (see :mod:`dirsubdiff.dirset`) accumulate in
    ``levels[k]``, ``a_neg[k]`` and ``a_pos[k]`` in walk order: direction
    by direction, each followed by everything below it.  After a
    :class:`DomainError`, ``info`` may also hold flags of narrowings at
    directions past the failing one.
    """

    def __init__(self, gs, rtol: float, info: ActiveSetInfo | None, dim: int):
        self.rtol = rtol
        self.info = info
        self.slots, self.roots, self.contexts = self._flatten(gs)
        self.programs: dict = {}
        self.levels = [[[] for _ in range(dim - 1)] for _ in gs]
        self.a_neg = [[] for _ in gs]
        self.a_pos = [[] for _ in gs]

    @staticmethod
    def _flatten(gs):
        """One slot per pair of :func:`walk` over the roots in turn, numbered
        in its order; returns the slots, the root slots and the contexts."""
        slots: list = []
        index: list = [{}]
        contexts: list = [None]
        for node, ctx, sub in (step for g in gs for step in walk(g, index, contexts)):
            slot = index[ctx]
            t = type(node)
            if t is Var:
                rec = (_VAR, ctx, node.index)
            elif t is Const:
                rec = (_CONST, node.value)
            elif t is LinComb:
                rec = (_LIN, node.alpha, slot[node.left], node.beta, slot[node.right])
            elif t is Max or t is Min:
                rec = (_MAX if t is Max else _MIN, tuple([slot[c] for c in node.children]))
            elif t is Affine:
                rec = (_ALIAS, index[sub][node.child])
            else:  # pragma: no cover - the transform emits no other kinds
                raise TypeError(f"unexpected {t.__name__} node in a transform")
            slot[node] = len(slots)
            slots.append(rec)
        roots = tuple([index[0][g] for g in gs])
        return slots, roots, [None] + [(c, node.matrix) for c, node in contexts[1:]]

    def _program(self, act):
        """Instructions evaluating the roots under ``act``, each in ``_eval``
        order after the slots of the roots before it.

        Returns ``(program, root slots, singles)``, built once per distinct
        narrowing.  A max/min left with one active child, and an affine
        node, emit nothing: their slot resolves to the child's, as the
        transform returns the child's derivative there.  ``singles`` keeps
        those one-child max/min slots for the next level.  A linear
        combination of two constants is a constant; with one constant
        operand it is a ``_SHIFT``, whose constant term is the same product
        the sweep would form per direction.
        """
        key = None if act is None else tuple(sorted(act.items()))
        hit = self.programs.get(key)
        if hit is not None:
            return hit
        slots = self.slots
        resolved: dict = {}
        singles: dict = {}
        consts: dict = {}
        program = []
        stack = [(r, False) for r in reversed(self.roots)]
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
                a, l, b, r = rec[1], resolved[kids[0]], rec[3], resolved[kids[1]]
                if l in consts and r in consts:
                    consts[s] = a * consts[l] + b * consts[r]
                    program.append((_CONST, s, consts[s]))
                elif r in consts:
                    program.append((_SHIFT, s, a, l, b * consts[r]))
                elif l in consts:  # a * c + b * y == b * y + a * c bit for bit
                    program.append((_SHIFT, s, b, r, a * consts[l]))
                else:
                    program.append((_LIN, s, a, l, b, r))
            elif op >= _MAX:
                members = tuple(resolved[c] for c in kids)
                if len(members) == 1:
                    resolved[s] = members[0]
                    singles[s] = members
                else:
                    program.append((op, s, members))
            else:
                if op == _CONST:
                    consts[s] = rec[1]
                program.append((op, s) + rec[1:])
        out = self.programs[key] = (program, [resolved[r] for r in self.roots], singles)
        return out

    def _points(self, cols, frames) -> list:
        """Per affine context, the columns of the points it sees when the
        points ``cols`` are lifted through the bases ``frames`` (outermost
        first) to the root's space."""
        for rows in reversed(frames):
            cols = _apply(rows, cols)
        pts = [cols]
        for parent, rows in self.contexts[1:]:
            pts.append(_apply(rows, pts[parent]))
        return pts

    def level(self, grid: SphereGrid, frames: tuple, act, depth: int = 0) -> None:
        """Append each root's supports over ``grid`` below the directions
        whose bases are ``frames`` to its ``levels[depth]``, then (depth
        first) everything below them; on a circle, the leaf pairs go to
        ``a_neg`` and ``a_pos``.

        Raises the :class:`DomainError` of the first non-finite value in
        walk order: per direction the node values in program order, then
        the leaf pairs or the levels below.
        """
        program, roots, singles = self._program(act)
        n = len(grid)
        leaf = grid.dim == 2
        pts = self._points(grid.sweep_columns, frames)
        val, acts, bad, bad_value = self._run(program, n, pts, leaf)
        for k, root in enumerate(roots):
            out = _column(val[root], 3 * n if leaf else n)
            self.levels[k][depth].extend(out[:n])
            if leaf:
                neg, pos = out[n:2 * n], out[2 * n:]
                j = min(_first_bad(neg, bad), _first_bad(pos, bad))
                if j < bad:
                    raise DomainError(_OVERFLOW.format(pos[j] if math.isfinite(neg[j]) else neg[j]))
                self.a_neg[k].extend(neg)
                self.a_pos[k].extend(pos)
        if not leaf:
            for j in range(bad):
                narrowed = dict(singles)
                for s, col in acts.items():
                    narrowed[s] = col[j]
                self.level(grid.subgrid, frames + (grid.tangent_rows[j],), narrowed, depth + 1)
        if bad < n:
            raise DomainError(_OVERFLOW.format(bad_value))

    def _run(self, program, n: int, pts, leaf: bool) -> tuple:
        """Run ``program`` once over the points ``pts`` (per affine context)
        of a level with ``n`` directions.

        On a circle the points are the ``n`` directions and then their
        ``2 n`` leaf points, where each max/min picks among the members
        active at the direction.  Returns the node values by slot, the
        active members per direction of every max/min slot, and the first
        direction ``bad`` with a non-finite node value (``n`` if none) with
        that value.  Each max/min calls :func:`active_columns` once, on its
        member columns over the ``n`` directions: direction ``j`` gets the
        extreme and active members of the value list a one-direction sweep
        would form.
        """
        rtol, info = self.rtol, self.info
        width = 3 * n if leaf else n
        val = [None] * len(self.slots)
        acts: dict = {}
        bad, bad_value = n, None
        for ins in program:
            op, s = ins[0], ins[1]
            if op == _SHIFT:
                _, _, a, x, k = ins
                col = [a * v + k for v in val[x]]
            elif op == _LIN:
                _, _, a, l, b, r = ins
                col = [a * u + b * v for u, v in zip(val[l], val[r])]
            elif op == _VAR:
                col = pts[ins[2]][ins[3]]
            elif op == _CONST:
                val[s] = ins[2]
                continue
            else:
                # the first non-finite value of a direction is never a
                # max/min's: its members come earlier in the program
                members = [_column(val[c], width) for c in ins[2]]
                maximize = op == _MAX
                col, picked = active_columns(
                    [m[:n] for m in members] if leaf else members, rtol, maximize, info
                )
                if leaf:
                    # no member is active where the direction's values are
                    # not finite; that direction is past ``bad``, so its
                    # filler leaf value is never stored; ``max([v])`` is
                    # ``v``, so one active member is read directly
                    pick = max if maximize else min
                    for start in (n, 2 * n):
                        col += [members[idx[0]][start + j] if len(idx) == 1
                                else pick([members[i][start + j] for i in idx]) if idx else math.nan
                                for j, idx in enumerate(picked)]
                else:
                    acts[s] = [tuple([ins[2][i] for i in idx]) for idx in picked]
                val[s] = col
                continue
            j = _first_bad(col, bad)
            if j < bad:
                bad, bad_value = j, col[j]
            val[s] = col
        return val, acts, bad, bad_value


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
    return tuple(g._gradient(len(xs)))


def embed_gradient(e: Expr, x, grid: SphereGrid | None = None) -> DirectedSet:
    """Embed the singleton gradient of a smooth point as a directed set.

    This is the reference object the subdifferential must reproduce on
    differentiable functions.
    """
    xs = as_point(x)
    check_grid(grid, len(xs))
    return embed_point(smooth_gradient(e, xs), grid)
