"""Exact propagation of one-sided directional derivatives through expressions.

:func:`dirderiv_transform` turns a function ``f`` and a base point ``x`` into
a new expression ``g`` over a direction variable ``u`` with
``g(u) = f'(x; u)`` exactly, in one pass over :func:`dirsubdiff.expr.walk`:

* variables become the matching direction coordinate, constants vanish;
* smooth primitives contribute their derivative value at the point as a
  coefficient;
* products and quotients freeze the factor values at ``x`` into linear
  combinations of the child transforms;
* max/min keep only the children active at ``x`` (pointwise maximal or
  minimal within a relative tolerance) and stay max/min over those, so the
  result is positively homogeneous but in general nonlinear in ``u``;
* affine substitutions and smooth compositions shift the base point and
  chain through the (frozen) inner Jacobian.

The output uses only homogeneous node kinds, so transforming ``g`` again at
the origin reproduces ``g`` value for value; that fixpoint is one of the
identities the verification layer checks.
"""

from __future__ import annotations

from collections import defaultdict

from .basis import Basis
from .dirset import ACTIVE_RTOL, ActiveSetInfo, active_columns, check_tolerance, flags
from .expr import (
    Affine,
    Const,
    DomainError,
    Expr,
    LinComb,
    Max,
    Min,
    Product,
    Quotient,
    SmoothUnary,
    Var,
    _ZERO,
    checked_point,
    context_point,
    evaluate,
    finite_float,
    finite_floats,
    instance,
    primitive,
    walk,
)

#: the error text of a value that overflows; the engine's sweep raises it too
_OVERFLOW = "value overflows to {!r} at the base point"

# the tape's slot records: (_VAR, context, index), (_CONST, value, context),
# (_LIN, alpha, left, beta, right) and (_MAX | _MIN, children)
_VAR, _CONST, _LIN, _MAX, _MIN = range(5)


class _Walk:
    """The walk state of :func:`dirderiv_transform`: per context the node
    values, derivatives and slots built so far, the contexts with their base
    points and frames, and the tape, a slot record per ``(node, context)``
    pair in walk order.  :mod:`dirsubdiff.engine` creates one to share
    across the transforms of several roots at one point and sweeps its tape;
    the first transform sets the point.  An affine node or a composition
    takes its child's slot in the context it opens, whose frame ``(parent,
    matrix)`` maps the parent's point to its own, and a max/min with one
    active member that member's slot.  Only leaves share a slot, per context
    and coordinate or zero constant: sharing by value would merge linear
    records whose coefficients differ only in the sign of a zero."""

    __slots__ = ("vals", "ders", "slots", "contexts", "points", "frames", "tape", "leaves")

    def __init__(self):
        self.vals, self.ders, self.slots = [{}], defaultdict(dict), defaultdict(dict)
        self.contexts, self.points, self.frames, self.tape, self.leaves = [None], {}, {}, [], {}

    def record(self, rec: tuple) -> int:
        """The slot of a new record ``rec``."""
        self.tape.append(rec)
        return len(self.tape) - 1

    def leaf(self, rec: tuple) -> int:
        """The one slot of the leaf record ``rec``, which names its context."""
        if rec not in self.leaves:
            self.leaves[rec] = self.record(rec)
        return self.leaves[rec]


def dirderiv_transform(
    e: Expr,
    x,
    active_rtol: float = ACTIVE_RTOL,
    info: ActiveSetInfo | None = None,
    *,
    _shared: _Walk | None = None,
) -> Expr:
    """Build ``g`` with ``g(u) = f'(x; u)`` for all directions ``u``.

    ``info``, when given, collects whether any max/min active set had a tie
    (a kink sits exactly at ``x``) or a borderline member that a tenfold
    larger tolerance would classify differently.  Raises ``ValueError``
    unless ``active_rtol`` is finite and >= 0, :class:`ArityError` on a point
    with fewer coordinates than ``e`` reads, and :class:`DomainError` on a
    non-finite base point or when a node value or a derivative coefficient
    overflows there.  Node by node in the order of :func:`walk`, each value
    and derivative is formed from those of the children and the value is
    checked finite, and the derivative's slot record goes on the tape.

    ``_shared``, a :class:`_Walk` only :mod:`dirsubdiff.engine` passes,
    keeps the walk state across the transforms of several roots at one
    point: a subtree they share is transformed once and is one node of
    their results and one slot of the tape.
    """
    active_rtol = check_tolerance("active_rtol", active_rtol)
    xs, info = checked_point(e, x), flags(info)
    state = instance(_shared, (_Walk, type(None)), "a shared walk state") or _Walk()
    vals, ders, slots = state.vals, state.ders, state.slots
    contexts, points, record, leaf = state.contexts, state.points, state.record, state.leaf
    points.setdefault(0, xs)
    for node, ctx, sub in walk(e, vals, contexts):
        memo, dmemo, smemo = vals[ctx], ders[ctx], slots[ctx]
        t = type(node)
        if t is Var:
            v = (xs if ctx == 0 else context_point(ctx, points, contexts, vals))[node.index]
            d, s = node, leaf((_VAR, ctx, node.index))
        elif t is Const:
            v, d, s = node.value, _ZERO, leaf((_CONST, 0.0, ctx))
        elif t is LinComb:
            v = node.alpha * memo[node.left] + node.beta * memo[node.right]
            d = LinComb(node.alpha, dmemo[node.left], node.beta, dmemo[node.right])
            s = record((_LIN, d.alpha, smemo[node.left], d.beta, smemo[node.right]))
        elif t is Product:
            lv, rv = memo[node.left], memo[node.right]
            v = lv * rv
            d = LinComb(lv, dmemo[node.right], rv, dmemo[node.left])
            s = record((_LIN, d.alpha, smemo[node.right], d.beta, smemo[node.left]))
        elif t is Quotient:
            nv, dv = memo[node.num], memo[node.den]
            if dv == 0.0:
                raise DomainError("division by zero at the base point")
            square = dv * dv
            if square == 0.0:
                raise DomainError(f"quotient derivative overflows: {dv!r} squared underflows to 0")
            v = nv / dv
            d = LinComb(_coefficient(1.0 / dv), dmemo[node.num],
                        _coefficient(-nv / square), dmemo[node.den])
            s = record((_LIN, d.alpha, smemo[node.num], d.beta, smemo[node.den]))
        elif t is SmoothUnary:
            cv = memo[node.child]
            value, slope, _ = primitive(node.kind, cv)
            v = value(cv, node.exponent)
            d = LinComb(_coefficient(slope(cv, node.exponent)), dmemo[node.child], 0.0, _ZERO)
            zero = leaf((_CONST, 0.0, ctx))
            s = record((_LIN, d.alpha, smemo[node.child], d.beta, zero))
        elif t is Max or t is Min:
            (v,), (active,) = active_columns(
                [(memo[c],) for c in node.children], active_rtol, t is Max, info)
            if len(active) == 1:
                d, s = dmemo[node.children[active[0]]], smemo[node.children[active[0]]]
            else:
                d = t(tuple([dmemo[node.children[i]] for i in active]))
                s = record((_MAX if t is Max else _MIN,
                            tuple([smemo[node.children[i]] for i in active])))
        elif t is Affine:
            v = vals[sub][node.child]
            d = Affine(ders[sub][node.child], node.matrix, (0.0,) * len(node.offset))
            s, state.frames[sub] = slots[sub][node.child], (ctx, d.matrix)
        else:
            # the inner components are smooth, so their transforms are
            # linear in u: the Jacobian rows are their gradients
            n = len(context_point(ctx, points, contexts, vals))
            rows = tuple(tuple([_coefficient(w) for w in dmemo[h]._gradient(n)])
                         for h in node.inner)
            v = vals[sub][node.outer]
            d = Affine(ders[sub][node.outer], rows, (0.0,) * len(node.inner))
            s, state.frames[sub] = slots[sub][node.outer], (ctx, d.matrix)
        memo[node] = finite_float(v, _OVERFLOW, DomainError)
        dmemo[node] = d
        smemo[node] = s
    return ders[0][e]


def _pair(g: Expr, d: tuple) -> tuple:
    """``(g(-d), g(d))``, the 1-D pair the engine and the verifiers read off a
    transform ``g`` in direction ``d``; an overflow raises :data:`_OVERFLOW`."""
    return tuple([finite_float(g._eval(u), _OVERFLOW, DomainError)
                  for u in (tuple([-v for v in d]), d)])


def _coefficient(c: float) -> float:
    """A derivative coefficient of the transform, which must be finite."""
    return finite_float(c, "derivative coefficient overflows to {!r} at the base point", DomainError)


def dirderiv(e: Expr, x, l, active_rtol: float = ACTIVE_RTOL) -> float:
    """One-sided directional derivative ``f'(x; l)``.

    Evaluates the exact transform at ``l``; the direction need not be a unit
    vector and the value scales positively homogeneously with it.
    """
    g = dirderiv_transform(e, x, active_rtol)
    return evaluate(g, l)


def restrict(g: Expr, l, basis: Basis) -> Expr:
    """Restrict ``g`` to the affine tangent slice ``y -> g(l + B y)``.

    ``basis`` must be a :class:`Basis` belonging to ``l``; the result
    reads ``n - 1`` coordinates.
    """
    basis = instance(basis, Basis, "a basis")
    l = finite_floats(l, "basis does not belong to the given direction")
    if len(l) != len(basis.direction) or any(
        abs(a - b) > 1e-12 for a, b in zip(l, basis.direction)
    ):
        raise ValueError("basis does not belong to the given direction")
    return Affine(g, basis.matrix_rows, l)
