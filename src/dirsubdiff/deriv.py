"""Exact propagation of one-sided directional derivatives through expressions.

:func:`dirderiv_transform` turns a function ``f`` and a base point ``x`` into
a new expression ``g`` over a direction variable ``u`` with
``g(u) = f'(x; u)`` exactly, by a single recursive pass:

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

import math

from .basis import Basis
from .dirset import ACTIVE_RTOL, ActiveSetInfo, active_members
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
    SmoothCompose,
    SmoothUnary,
    Var,
    as_point,
    evaluate,
    primitive,
)

_ZERO = Const(0.0)


def dirderiv_transform(
    e: Expr,
    x,
    active_rtol: float = ACTIVE_RTOL,
    info: ActiveSetInfo | None = None,
) -> Expr:
    """Build ``g`` with ``g(u) = f'(x; u)`` for all directions ``u``.

    ``info``, when given, collects whether any max/min active set had a tie
    (a kink sits exactly at ``x``) or a borderline member that a tenfold
    larger tolerance would classify differently.  Raises
    :class:`DomainError` on a non-finite base point or when a node value
    overflows there, or when a derivative coefficient does.
    """
    xs = as_point(x)
    if len(xs) < e.arity:
        raise ValueError(
            f"expression reads {e.arity} coordinates, base point has {len(xs)}"
        )
    memo: dict = {}
    _, dexpr = _value_and_deriv(e, xs, active_rtol, info, memo)
    return dexpr


def _value_and_deriv(e, xs, rtol, info, memo):
    key = (id(e), xs)
    hit = memo.get(key)
    if hit is not None:
        return hit

    if isinstance(e, Var):
        out = (xs[e.index], e)
    elif isinstance(e, Const):
        out = (e.value, _ZERO)
    elif isinstance(e, LinComb):
        lv, ld = _value_and_deriv(e.left, xs, rtol, info, memo)
        rv, rd = _value_and_deriv(e.right, xs, rtol, info, memo)
        out = (e.alpha * lv + e.beta * rv, LinComb(e.alpha, ld, e.beta, rd))
    elif isinstance(e, Product):
        lv, ld = _value_and_deriv(e.left, xs, rtol, info, memo)
        rv, rd = _value_and_deriv(e.right, xs, rtol, info, memo)
        out = (lv * rv, LinComb(lv, rd, rv, ld))
    elif isinstance(e, Quotient):
        nv, nd = _value_and_deriv(e.num, xs, rtol, info, memo)
        dv, dd = _value_and_deriv(e.den, xs, rtol, info, memo)
        if dv == 0.0:
            raise DomainError("division by zero at the base point")
        square = dv * dv
        if square == 0.0:
            raise DomainError(f"quotient derivative overflows: {dv!r} squared underflows to 0")
        out = (nv / dv, LinComb(_coefficient(1.0 / dv), nd, _coefficient(-nv / square), dd))
    elif isinstance(e, SmoothUnary):
        cv, cd = _value_and_deriv(e.child, xs, rtol, info, memo)
        value, slope, _ = primitive(e.kind, cv)
        out = (value(cv, e.exponent), LinComb(_coefficient(slope(cv, e.exponent)), cd, 0.0, _ZERO))
    elif isinstance(e, (Max, Min)):
        pairs = [_value_and_deriv(c, xs, rtol, info, memo) for c in e.children]
        vals = [p[0] for p in pairs]
        is_max = isinstance(e, Max)
        active = active_members(vals, rtol, is_max, info)
        if len(active) == 1:
            dexpr = pairs[active[0]][1]
        else:
            dexpr = type(e)(tuple(pairs[i][1] for i in active))
        out = (max(vals) if is_max else min(vals), dexpr)
    elif isinstance(e, Affine):
        ys = e._inner_point(xs)
        cv, cd = _value_and_deriv(e.child, ys, rtol, info, memo)
        zeros = (0.0,) * len(e.offset)
        out = (cv, Affine(cd, e.matrix, zeros))
    elif isinstance(e, SmoothCompose):
        n = len(xs)
        inner_vals = []
        jac_rows = []
        for h in e.inner:
            hv, hd = _value_and_deriv(h, xs, rtol, info, memo)
            inner_vals.append(hv)
            # h is smooth, so its transform is linear in u; read the gradient
            # off the unit directions.
            row = []
            for j in range(n):
                unit = tuple(1.0 if i == j else 0.0 for i in range(n))
                row.append(hd._eval(unit))
            jac_rows.append(tuple(_coefficient(w) for w in row))
        ys = tuple(inner_vals)
        ov, od = _value_and_deriv(e.outer, ys, rtol, info, memo)
        zeros = (0.0,) * len(e.inner)
        out = (ov, Affine(od, tuple(jac_rows), zeros))
    else:  # pragma: no cover
        raise TypeError(f"unknown node type {type(e).__name__}")

    if not math.isfinite(out[0]):
        raise DomainError(f"value overflows to {out[0]!r} at the base point")
    memo[key] = out
    return out


def _coefficient(c: float) -> float:
    """A derivative coefficient of the transform, which must be finite."""
    if not math.isfinite(c):
        raise DomainError(f"derivative coefficient overflows to {c!r} at the base point")
    return c


def dirderiv(e: Expr, x, l, active_rtol: float = ACTIVE_RTOL) -> float:
    """One-sided directional derivative ``f'(x; l)``.

    Evaluates the exact transform at ``l``; the direction need not be a unit
    vector and the value scales positively homogeneously with it.
    """
    g = dirderiv_transform(e, x, active_rtol)
    return evaluate(g, l)


def restrict(g: Expr, l, basis: Basis) -> Expr:
    """Restrict ``g`` to the affine tangent slice ``y -> g(l + B y)``.

    ``basis`` must belong to ``l``; the result reads ``n - 1`` coordinates.
    """
    l = tuple(float(v) for v in l)
    if len(l) != len(basis.direction) or any(
        abs(a - b) > 1e-12 for a, b in zip(l, basis.direction)
    ):
        raise ValueError("basis does not belong to the given direction")
    return Affine(g, basis.matrix_rows, l)
