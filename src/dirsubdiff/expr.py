"""Expression trees for nonsmooth functions.

An :class:`Expr` denotes a function from R^n to R built from variables,
constants, smooth primitives, affine substitutions, linear combinations,
products, quotients and pointwise max/min.  Every such function has one-sided
(Dini) directional derivatives wherever it is defined, and the derivative can
be propagated exactly through the tree (see :mod:`dirsubdiff.deriv`).

Trees are immutable and safe to share between expressions.  Arithmetic
operators are overloaded, so expressions compose naturally:

    >>> f = vabs(var(0)) / (1.0 + sqr(var(0)))
    >>> evaluate(f, (0.0,))
    0.0

``abs`` is sugar: ``vabs(e)`` builds ``max(e, -e)`` and there is no separate
absolute-value node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class ExprError(Exception):
    """Base class for expression construction and evaluation errors."""


class DomainError(ExprError):
    """Evaluation or differentiation left the domain of a primitive.

    Raised for log/sqrt domain violations, division by zero, non-finite
    points and floating overflow.
    """


class ArityError(ExprError):
    """The evaluation point has fewer coordinates than the expression uses."""


def _exp(v, k):
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError(f"exp overflow at argument {v!r}") from None


def _pow(v, k):
    try:
        return float(v ** k)
    except OverflowError:
        raise DomainError(f"pow overflow at argument {v!r}") from None


def _sqrt_slope(v, k):
    if v == 0.0:
        raise DomainError("sqrt has an unbounded one-sided derivative at 0")
    return 0.5 / math.sqrt(v)


#: smooth primitives: kind -> (value, derivative, domain).  ``value`` and
#: ``derivative`` take the inner value ``v`` and the pow exponent ``k``;
#: ``domain`` is None or a test ``v`` must pass before either is applied.
_PRIMITIVES = {
    "sin": (lambda v, k: math.sin(v), lambda v, k: math.cos(v), None),
    "cos": (lambda v, k: math.cos(v), lambda v, k: -math.sin(v), None),
    "exp": (_exp, _exp, None),
    "log": (lambda v, k: math.log(v), lambda v, k: 1.0 / v, lambda v: v > 0.0),
    "sqr": (lambda v, k: v * v, lambda v, k: 2.0 * v, None),
    "sqrt": (lambda v, k: math.sqrt(v), _sqrt_slope, lambda v: v >= 0.0),
    "pow": (_pow, lambda v, k: float(k) * _pow(v, k - 1), None),
}

#: smooth primitive names accepted by :class:`SmoothUnary`
SMOOTH_KINDS = tuple(_PRIMITIVES)


def primitive(kind: str, v: float) -> tuple:
    """The table row ``(value, derivative, domain)`` of ``kind``, once ``v`` is in its domain."""
    row = _PRIMITIVES[kind]
    if row[2] is not None and not row[2](v):
        raise DomainError(f"{kind} undefined at {v!r}")
    return row


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


class Expr:
    """Base class of all AST nodes.

    Subclasses are frozen dataclasses; identity, not structure, is used for
    equality so shared subtrees behave as plain DAG nodes.  ``arity`` is the
    number of leading input coordinates the node can read (1 + the largest
    variable index used).  ``children`` is the tuple of direct subexpressions,
    empty for variables and constants.
    """

    __slots__ = ()

    arity: int

    def __add__(self, other):
        return LinComb(1.0, self, 1.0, _coerce(other))

    def __radd__(self, other):
        return LinComb(1.0, _coerce(other), 1.0, self)

    def __sub__(self, other):
        return LinComb(1.0, self, -1.0, _coerce(other))

    def __rsub__(self, other):
        return LinComb(1.0, _coerce(other), -1.0, self)

    def __neg__(self):
        return LinComb(-1.0, self, 0.0, _ZERO)

    def __mul__(self, other):
        return Product(self, _coerce(other))

    def __rmul__(self, other):
        return Product(_coerce(other), self)

    def __truediv__(self, other):
        return Quotient(self, _coerce(other))

    def __rtruediv__(self, other):
        return Quotient(_coerce(other), self)

    def __call__(self, *point: float) -> float:
        return evaluate(self, point)

    def _eval(self, xs) -> float:
        """Value at the float tuple ``xs``, unchecked.

        Each node's ``_value(xs, memo)`` evaluates it at ``xs``.  ``memo``
        maps the compound nodes already evaluated at ``xs`` to their values
        (nodes hash by identity), so a shared subtree (``abs(e)`` is
        ``max(e, -e)``) is evaluated once per point instead of once per path.
        A node under an affine substitution or a composition sees a new point
        and starts a new memo.  Leaves are cheaper to evaluate than to look
        up and skip the memo.  The memo check is written into each compound
        ``_value`` so that evaluation takes one stack frame per node.
        """
        return self._value(xs, {})


@dataclass(frozen=True, eq=False, slots=True)
class Var(Expr):
    """Input coordinate ``x_{index+1}`` (indices start at 0)."""

    index: int
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise ValueError(f"variable index must be a nonnegative int, got {self.index!r}")
        object.__setattr__(self, "arity", self.index + 1)

    children = ()

    def _value(self, xs, memo):
        return xs[self.index]


@dataclass(frozen=True, eq=False, slots=True)
class Const(Expr):
    value: float
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError(f"constant must be finite, got {v!r}")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "arity", 0)

    children = ()

    def _value(self, xs, memo):
        return self.value


_ZERO = Const(0.0)


@dataclass(frozen=True, eq=False, slots=True)
class SmoothUnary(Expr):
    """Smooth primitive applied to a subexpression.

    ``kind`` is one of :data:`SMOOTH_KINDS`.  ``exponent`` is only meaningful
    for ``kind == "pow"`` (integer power, at least 2).
    """

    kind: str
    child: Expr
    exponent: int = 0
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in SMOOTH_KINDS:
            raise ValueError(f"unknown smooth primitive {self.kind!r}")
        if self.kind == "pow":
            if not isinstance(self.exponent, int) or self.exponent < 2:
                raise ValueError("pow exponent must be an integer >= 2")
        object.__setattr__(self, "arity", self.child.arity)

    @property
    def children(self):
        return (self.child,)

    def _value(self, xs, memo):
        out = memo.get(self)
        if out is None:
            v = self.child._value(xs, memo)
            out = memo[self] = primitive(self.kind, v)[0](v, self.exponent)
        return out


@dataclass(frozen=True, eq=False, slots=True)
class Affine(Expr):
    """Affine substitution: ``y -> child(offset + matrix @ y)``.

    ``matrix`` is stored as a tuple of row tuples with ``len(offset)`` rows;
    the node's arity is the number of columns.
    """

    child: Expr
    matrix: tuple
    offset: tuple
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        rows = tuple(tuple(float(w) for w in row) for row in self.matrix)
        off = tuple(float(c) for c in self.offset)
        if len(rows) != len(off):
            raise ValueError("matrix row count must match offset length")
        if not rows:
            raise ValueError("affine substitution needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix rows must have equal length")
        for row in rows:
            for w in row:
                if not math.isfinite(w):
                    raise ValueError("affine matrix entries must be finite")
        for c in off:
            if not math.isfinite(c):
                raise ValueError("affine offsets must be finite")
        if self.child.arity > len(off):
            raise ValueError(
                f"child reads {self.child.arity} coordinates but the substitution "
                f"produces only {len(off)}"
            )
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "arity", ncols)

    @property
    def children(self):
        return (self.child,)

    def _inner_point(self, xs):
        out = []
        for ci, row in zip(self.offset, self.matrix):
            acc = ci
            for w, xv in zip(row, xs):
                acc += w * xv
            out.append(acc)
        return tuple(out)

    def _value(self, xs, memo):
        v = memo.get(self)
        if v is None:
            v = memo[self] = self.child._value(self._inner_point(xs), {})
        return v


@dataclass(frozen=True, eq=False, slots=True)
class LinComb(Expr):
    """``alpha * left + beta * right`` with real coefficients."""

    alpha: float
    left: Expr
    beta: float
    right: Expr
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("linear combination coefficients must be finite")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "arity", max(self.left.arity, self.right.arity))

    @property
    def children(self):
        return (self.left, self.right)

    def _value(self, xs, memo):
        v = memo.get(self)
        if v is None:
            v = memo[self] = (
                self.alpha * self.left._value(xs, memo) + self.beta * self.right._value(xs, memo)
            )
        return v


@dataclass(frozen=True, eq=False, slots=True)
class Product(Expr):
    left: Expr
    right: Expr
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", max(self.left.arity, self.right.arity))

    @property
    def children(self):
        return (self.left, self.right)

    def _value(self, xs, memo):
        v = memo.get(self)
        if v is None:
            v = memo[self] = self.left._value(xs, memo) * self.right._value(xs, memo)
        return v


@dataclass(frozen=True, eq=False, slots=True)
class Quotient(Expr):
    num: Expr
    den: Expr
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", max(self.num.arity, self.den.arity))

    @property
    def children(self):
        return (self.num, self.den)

    def _value(self, xs, memo):
        v = memo.get(self)
        if v is None:
            d = self.den._value(xs, memo)
            if d == 0.0:
                raise DomainError("division by zero")
            v = memo[self] = self.num._value(xs, memo) / d
        return v


@dataclass(frozen=True, eq=False, slots=True)
class Max(Expr):
    """Pointwise maximum of two or more subexpressions."""

    children: tuple
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        kids = tuple(self.children)
        if len(kids) < 2:
            raise ValueError("max needs at least two children")
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "arity", max(c.arity for c in kids))

    def _value(self, xs, memo):
        best = memo.get(self)
        if best is None:
            best = self.children[0]._value(xs, memo)
            for c in self.children[1:]:
                v = c._value(xs, memo)
                if v > best:
                    best = v
            memo[self] = best
        return best


@dataclass(frozen=True, eq=False, slots=True)
class Min(Expr):
    """Pointwise minimum of two or more subexpressions."""

    children: tuple
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        kids = tuple(self.children)
        if len(kids) < 2:
            raise ValueError("min needs at least two children")
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "arity", max(c.arity for c in kids))

    def _value(self, xs, memo):
        best = memo.get(self)
        if best is None:
            best = self.children[0]._value(xs, memo)
            for c in self.children[1:]:
                v = c._value(xs, memo)
                if v < best:
                    best = v
            memo[self] = best
        return best


@dataclass(frozen=True, eq=False, slots=True)
class SmoothCompose(Expr):
    """``outer(inner_1(x), ..., inner_m(x))`` with smooth inner components.

    The inner list must be kink-free (no max/min anywhere); the outer
    expression may be arbitrary.  This keeps the composite directionally
    differentiable with an exact chain rule through the inner Jacobian.
    """

    outer: Expr
    inner: tuple
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        inner = tuple(self.inner)
        if not inner:
            raise ValueError("composition needs at least one inner component")
        for i, h in enumerate(inner):
            if has_kinks(h):
                raise ValueError(
                    f"inner component {i} contains max/min and is not smooth"
                )
        if self.outer.arity > len(inner):
            raise ValueError(
                f"outer reads {self.outer.arity} coordinates but only "
                f"{len(inner)} inner components were given"
            )
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "arity", max(h.arity for h in inner))

    @property
    def children(self):
        return (self.outer, *self.inner)

    def _value(self, xs, memo):
        v = memo.get(self)
        if v is None:
            ys = tuple(h._value(xs, memo) for h in self.inner)
            v = memo[self] = self.outer._value(ys, {})
        return v


# ---------------------------------------------------------------------------
# construction helpers


def var(index: int) -> Var:
    return Var(index)


def const(value: float) -> Const:
    return Const(value)


def neg(e: Expr) -> Expr:
    return LinComb(-1.0, _coerce(e), 0.0, _ZERO)


def vmax(*children) -> Max:
    return Max(tuple(_coerce(c) for c in children))


def vmin(*children) -> Min:
    return Min(tuple(_coerce(c) for c in children))


def vabs(e) -> Max:
    """Absolute value, desugared to ``max(e, -e)``."""
    e = _coerce(e)
    return Max((e, neg(e)))


def sin(e) -> SmoothUnary:
    return SmoothUnary("sin", _coerce(e))


def cos(e) -> SmoothUnary:
    return SmoothUnary("cos", _coerce(e))


def exp(e) -> SmoothUnary:
    return SmoothUnary("exp", _coerce(e))


def log(e) -> SmoothUnary:
    return SmoothUnary("log", _coerce(e))


def sqr(e) -> SmoothUnary:
    return SmoothUnary("sqr", _coerce(e))


def sqrt(e) -> SmoothUnary:
    return SmoothUnary("sqrt", _coerce(e))


def powk(e, k: int) -> SmoothUnary:
    """Integer power ``e**k`` with ``k >= 2``."""
    return SmoothUnary("pow", _coerce(e), k)


def compose(outer, inner) -> SmoothCompose:
    return SmoothCompose(_coerce(outer), tuple(_coerce(h) for h in inner))


# ---------------------------------------------------------------------------
# queries and evaluation


def has_kinks(e: Expr) -> bool:
    """True when the tree contains a max/min node anywhere.

    Kink-free expressions are smooth by construction wherever they are
    defined, which is what the composition and gradient-embedding paths
    require.
    """
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Max, Min)):
            return True
        stack.extend(node.children)
    return False


def as_point(x) -> tuple:
    """Normalize a scalar or a float sequence to a tuple of finite floats.

    Raises :class:`DomainError` on a NaN or infinite coordinate.
    """
    xs = (float(x),) if isinstance(x, (int, float)) else tuple(map(float, x))
    for v in xs:
        if not math.isfinite(v):
            raise DomainError(f"point coordinates must be finite, got {xs!r}")
    return xs


def evaluate(e: Expr, point) -> float:
    """Evaluate ``e`` at ``point``.

    The point may have more coordinates than the expression uses (extra ones
    are ignored), but never fewer.  Raises :class:`DomainError` when a
    primitive is evaluated outside its domain or the value is not finite.
    """
    xs = as_point(point)
    if len(xs) < e.arity:
        raise ArityError(
            f"expression reads {e.arity} coordinates, point has {len(xs)}"
        )
    v = float(e._eval(xs))
    if not math.isfinite(v):
        raise DomainError(f"value overflows to {v!r} at {xs!r}")
    return v


def expr_to_json(e: Expr) -> dict:
    """Tagged JSON-friendly dict of the tree (debugging aid)."""
    if isinstance(e, Var):
        return {"kind": "var", "index": e.index}
    if isinstance(e, Const):
        return {"kind": "const", "value": e.value}
    if isinstance(e, SmoothUnary):
        out = {"kind": e.kind, "child": expr_to_json(e.child)}
        if e.kind == "pow":
            out["exponent"] = e.exponent
        return out
    if isinstance(e, Affine):
        return {
            "kind": "affine",
            "matrix": [list(row) for row in e.matrix],
            "offset": list(e.offset),
            "child": expr_to_json(e.child),
        }
    if isinstance(e, LinComb):
        return {
            "kind": "lincomb",
            "alpha": e.alpha,
            "left": expr_to_json(e.left),
            "beta": e.beta,
            "right": expr_to_json(e.right),
        }
    if isinstance(e, Product):
        return {"kind": "product", "left": expr_to_json(e.left), "right": expr_to_json(e.right)}
    if isinstance(e, Quotient):
        return {"kind": "quotient", "num": expr_to_json(e.num), "den": expr_to_json(e.den)}
    if isinstance(e, Max):
        return {"kind": "max", "children": [expr_to_json(c) for c in e.children]}
    if isinstance(e, Min):
        return {"kind": "min", "children": [expr_to_json(c) for c in e.children]}
    if isinstance(e, SmoothCompose):
        return {
            "kind": "compose",
            "outer": expr_to_json(e.outer),
            "inner": [expr_to_json(h) for h in e.inner],
        }
    raise TypeError(f"unknown node type {type(e).__name__}")
