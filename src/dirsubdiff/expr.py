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

Evaluation, the derivative transform and the engine's flattening all run on
:func:`walk`, one iterative post-order over the ``(node, context)`` pairs of
a tree, so neither a long chain nor a deep nesting takes Python frames.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields


class ExprError(Exception):
    """Base class for expression construction and evaluation errors."""


class DomainError(ExprError):
    """Evaluation or differentiation left the domain of a primitive.

    Raised for log/sqrt domain violations, division by zero, non-finite
    points and floating overflow.
    """


class ArityError(ExprError, ValueError):
    """The evaluation point has fewer coordinates than the expression uses."""


def _finite(values) -> bool:
    """True when all entries are finite; a finite sum (fast, in C) clears them without a scan."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


_TEXT = (str, bytes, bytearray)
#: what ``float`` reads that is not a number: text, and ``bool``
_NON_NUMERIC = (*_TEXT, bool)
_FLOAT = frozenset((float,))


def _number(v, error) -> float:
    """``float(v)``, an int too large for a float reading as +-inf; text, a
    ``bool`` and anything ``float`` cannot read (``None``, a list) raise
    ``error``, outside any ``except`` so the error has no context."""
    if not isinstance(v, _NON_NUMERIC):
        try:
            return float(v)
        except OverflowError:
            return math.inf if v > 0 else -math.inf
        except (TypeError, ValueError):
            pass
    raise error(f"expected a number, got a {type(v).__name__}")


def finite_float(v, message: str, error=ValueError) -> float:
    """``float(v)`` when finite, else ``error(message)`` with ``{!r}`` in it
    standing for that float, an int too large for a float reading as +-inf.
    With :func:`finite_floats` this is the one door for numbers: every value
    that enters the package, from a caller or a document, passes it, so a
    NaN, an infinity, an int too large for a float, text, a ``bool`` or a
    non-number ends in the entry point's ``ValueError`` or
    :class:`DomainError`, never in ``OverflowError`` or ``TypeError``."""
    f = v if type(v) is float else _number(v, error)
    if math.isfinite(f):
        return f
    raise error(message.format(f))


def number_sequence(values, error=ValueError) -> list:
    """The entries of ``values`` as a list; ``error`` when ``values`` is not
    iterable or is text, which iterates as characters, not numbers."""
    try:
        entries = None if isinstance(values, _TEXT) else iter(values)
    except TypeError:
        entries = None
    if entries is None:
        raise error(f"expected a sequence of numbers, got a {type(values).__name__}")
    return list(entries)


def finite_floats(values, message: str, error=ValueError) -> tuple:
    """:func:`finite_float` of every entry of a sequence (see
    :func:`number_sequence`), as a tuple, from one scan of the entries'
    types: a sequence of exact floats is taken as it is, with no ``float``
    call per entry; any other is read entry by entry through
    :func:`_number`, which names the first non-number."""
    if type(values) is not list and type(values) is not tuple:
        values = number_sequence(values, error)
    if set(map(type, values)) <= _FLOAT:
        xs = tuple(values)
    else:
        xs = tuple([_number(v, error) for v in values])
    if _finite(xs):
        return xs
    raise error(message.format(xs))


def int_at_least(v, least: int, what: str) -> int:
    """The door for counts, sizes, indices and exponents: ``v`` as an ``int``
    when it is an ``int`` or has ``__index__``, is not a ``bool`` and lies in
    ``[least, 2**63)``, the range a grid's content hash packs; else a
    ``ValueError`` that names ``what`` and that range."""
    if type(v) is not int:
        try:
            v = None if isinstance(v, bool) else operator.index(v)
        except TypeError:
            v = None
    if v is None or not least <= v < 2**63:
        raise ValueError(f"{what} must be >= {least}, an integer below 2**63")
    return v


def as_point(x) -> tuple:
    """A scalar or a number sequence as a tuple of finite floats, else :class:`DomainError`."""
    return finite_floats((x,) if isinstance(x, (int, float)) else x,
                         "point coordinates must be finite, got {!r}", DomainError)


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
        return Const(value)
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

    def __repr__(self) -> str:
        """The dataclass text of the tree, built on its own stack.

        Leaves print inline.  A composite node prints in full where it is
        first reached and as ``<Kind #k>`` after that, ``k`` counting the
        composite nodes from 0 in the order they print in full.  So the text
        grows with the number of distinct nodes, and a tree in which no
        composite node is reached twice prints as the recursive dataclass
        repr would.
        """
        out, numbers = [], {}
        stack = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            kind = type(item).__qualname__
            if item in numbers:
                out.append(f"<{kind} #{numbers[item]}>")
                continue
            if item.children:
                numbers[item] = len(numbers)
            parts = [kind + "("]
            for i, f in enumerate(fld for fld in fields(item) if fld.repr):
                value = getattr(item, f.name)
                parts.append(f"{', ' if i else ''}{f.name}=")
                if isinstance(value, Expr):
                    parts.append(value)
                elif type(value) is tuple and value and isinstance(value[0], Expr):
                    parts.append("(")
                    for c in value:
                        parts += (c, ", ")
                    parts[-1] = ",)" if len(value) == 1 else ")"
                else:
                    parts.append(repr(value))
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)

    def _eval(self, xs, memos: list | None = None) -> float:
        """Value at the float tuple ``xs``, unchecked: the one evaluator of
        expressions, run on :func:`walk` (which stores the leaves' values).

        A primitive outside its domain and a division by zero raise
        :class:`DomainError`; non-finite values pass through.  ``memos``,
        when given as ``[{}]``, keeps the value of every pair by context and
        node.
        """
        if memos is None:
            memos = [{}]
        for node, ctx, sub in walk(self, memos, [None], xs):
            memo = memos[ctx]
            t = type(node)
            if t is LinComb:
                memo[node] = node.alpha * memo[node.left] + node.beta * memo[node.right]
            elif t is Max:
                memo[node] = max(map(memo.__getitem__, node.children))
            elif t is Min:
                memo[node] = min(map(memo.__getitem__, node.children))
            elif t is SmoothUnary:
                v = memo[node.child]
                memo[node] = primitive(node.kind, v)[0](v, node.exponent)
            elif t is Product:
                memo[node] = memo[node.left] * memo[node.right]
            elif t is Quotient:
                d = memo[node.den]
                if d == 0.0:
                    raise DomainError("division by zero")
                memo[node] = memo[node.num] / d
            elif t is Affine:
                memo[node] = memos[sub][node.child]
            else:
                memo[node] = memos[sub][node.outer]
        return memos[0][self]

    def _gradient(self, n: int) -> list:
        """Values at the ``n`` unit vectors of R^n: the gradient of a linear
        expression, such as the transform of a smooth one."""
        return [self._eval(tuple([float(i == j) for i in range(n)])) for j in range(n)]


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class Var(Expr):
    """Input coordinate ``x_{index+1}`` (indices start at 0)."""

    index: int
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        index = int_at_least(self.index, 0, "variable index")
        if index is not self.index:  # an __index__ object, stored as its int
            object.__setattr__(self, "index", index)
        object.__setattr__(self, "arity", index + 1)

    children = ()


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class Const(Expr):
    value: float
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        value = finite_float(self.value, "constant must be finite, got {!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "arity", 0)

    children = ()


_ZERO = Const(0.0)


@dataclass(frozen=True, eq=False, slots=True, repr=False)
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
            object.__setattr__(self, "exponent", int_at_least(self.exponent, 2, "pow exponent"))
        object.__setattr__(self, "arity", self.child.arity)

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True, eq=False, slots=True, repr=False)
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
        rows = tuple(finite_floats(r, "affine matrix entries must be finite") for r in self.matrix)
        off = finite_floats(self.offset, "affine offsets must be finite")
        if len(rows) != len(off):
            raise ValueError("matrix row count must match offset length")
        if not rows:
            raise ValueError("affine substitution needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix rows must have equal length")
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


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class LinComb(Expr):
    """``alpha * left + beta * right`` with real coefficients."""

    alpha: float
    left: Expr
    beta: float
    right: Expr
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        message = "linear combination coefficients must be finite"
        object.__setattr__(self, "alpha", finite_float(self.alpha, message))
        object.__setattr__(self, "beta", finite_float(self.beta, message))
        object.__setattr__(self, "arity", max(self.left.arity, self.right.arity))

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class Product(Expr):
    left: Expr
    right: Expr
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", max(self.left.arity, self.right.arity))

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class Quotient(Expr):
    num: Expr
    den: Expr
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", max(self.num.arity, self.den.arity))

    @property
    def children(self):
        return (self.num, self.den)


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class _Extremum(Expr):
    """Pointwise maximum or minimum of two or more subexpressions."""

    children: tuple
    arity: int = field(init=False, repr=False)

    def __post_init__(self):
        kids = tuple(self.children)
        if len(kids) < 2:
            raise ValueError(f"{type(self).__name__.lower()} needs at least two children")
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "arity", max(c.arity for c in kids))


class Max(_Extremum):
    """Pointwise maximum of two or more subexpressions."""
    __slots__ = ()


class Min(_Extremum):
    """Pointwise minimum of two or more subexpressions."""
    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True, repr=False)
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


def sqr(e) -> SmoothUnary:
    return SmoothUnary("sqr", _coerce(e))


def powk(e, k: int) -> SmoothUnary:
    """Integer power ``e**k`` with ``k >= 2``."""
    return SmoothUnary("pow", _coerce(e), k)


def compose(outer, inner) -> SmoothCompose:
    return SmoothCompose(_coerce(outer), tuple(_coerce(h) for h in inner))


# ---------------------------------------------------------------------------
# queries and evaluation


def walk(root: Expr, memos: list, contexts: list, point: tuple | None = None):
    """One post-order over the ``(node, context)`` pairs of ``root``.

    A context is the point a node sees.  Context 0 is the root's point; an
    :class:`Affine` node opens a context for its child, and a
    :class:`SmoothCompose` node one for its outer expression, whose point is
    the values of its inner components (they stay in the node's context).
    ``memos`` and ``contexts`` start as ``[{}]`` and ``[None]``; for each
    node that opens a context the walk appends an empty dict to ``memos``
    and ``(parent, node)`` to ``contexts``.  A node reached under two
    contexts is two pairs; reached twice under one (``abs(e)`` is
    ``max(e, -e)``), it is one.

    Yields every pair once as ``(node, ctx, sub)``, children before parents
    and in evaluation order: in the order of ``node.children``, except that
    a composition's inner components come before its outer.  ``sub`` is the
    context ``node`` opened, else ``ctx``.  The root comes last.  The
    consumer stores its result for each pair in ``memos[ctx][node]`` before
    it takes the next pair, and reads the results of the node's children
    there (of an opened context's child in ``memos[sub]``); the walk skips
    the pairs already stored.  Given the float tuple ``point`` (the
    evaluator's use), the walk stores the value of every leaf itself, a
    variable's coordinate in its context's point or a constant's value, and
    yields only the other pairs.  It keeps its own stack, so deep
    expressions take no Python frames.
    """
    points = {0: point}
    stack = [(root, 0, -1)]  # (node, ctx, -1) to visit, (node, ctx, sub) to yield
    pop = stack.pop
    push = stack.append
    while stack:
        node, ctx, sub = pop()
        if sub >= 0:  # the children are done
            yield node, ctx, sub
            continue
        memo = memos[ctx]
        if node in memo:
            continue
        while True:  # visit (node, ctx), then its first child not yet stored
            t = type(node)
            if t is LinComb or t is Product:
                kids = (node.left, node.right)
            elif t is Affine or t is SmoothCompose:
                sub = len(contexts)
                contexts.append((ctx, node))
                memos.append({})
                push((node, ctx, sub))
                if t is SmoothCompose:
                    push((node.outer, sub, -1))
                    for h in reversed(node.inner):
                        push((h, ctx, -1))
                    break
                node, ctx, memo = node.child, sub, memos[sub]
                continue
            else:
                kids = node.children
            for k in kids:  # leading children that are leaves or stored skip the stack
                if k not in memo:
                    if k.children:
                        break
                    if point is None:
                        yield k, ctx, ctx
                    elif type(k) is Var:
                        pt = point if ctx == 0 else context_point(ctx, points, contexts, memos)
                        memo[k] = pt[k.index]
                    else:
                        memo[k] = k.value
            else:
                if kids or point is None:
                    yield node, ctx, ctx
                elif t is Var:
                    pt = point if ctx == 0 else context_point(ctx, points, contexts, memos)
                    memo[node] = pt[node.index]
                else:
                    memo[node] = node.value
                break
            push((node, ctx, ctx))
            for c in kids[:kids.index(k):-1]:  # the later siblings, last first
                push((c, ctx, -1))
            node = k


def context_point(c: int, points: dict, contexts: list, memos: list) -> tuple:
    """The point of context ``c`` of a :func:`walk`, given the ``points``
    computed so far by context and the values so far in ``memos``; computed
    on first use, with the points of its parents."""
    chain = []
    while c not in points:
        chain.append(c)
        c = contexts[c][0]
    for c in reversed(chain):
        parent, node = contexts[c]
        if type(node) is Affine:
            points[c] = node._inner_point(points[parent])
        else:
            memo = memos[parent]
            points[c] = tuple([memo[h] for h in node.inner])
    return points[c]


def has_kinks(e: Expr) -> bool:
    """True when the tree contains a max/min node anywhere.

    Kink-free expressions are smooth by construction wherever they are
    defined, which is what the composition and gradient-embedding paths
    require.  A kink is a property of a node, not of the point it sees, so
    each node is visited once however many contexts reach it.
    """
    seen = {e}
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, _Extremum):
            return True
        fresh = [c for c in node.children if c not in seen]
        seen.update(fresh)
        stack += fresh
    return False


def checked_point(e: Expr, point) -> tuple:
    """:func:`as_point` of ``point``, which must have at least the
    coordinates ``e`` reads; raises :class:`ArityError` otherwise."""
    xs = as_point(point)
    if len(xs) < e.arity:
        raise ArityError(f"expression reads {e.arity} coordinates, point has {len(xs)}")
    return xs


def evaluate(e: Expr, point) -> float:
    """Evaluate ``e`` at ``point``.

    The point may have more coordinates than the expression uses (extra ones
    are ignored), but never fewer.  Raises :class:`DomainError` when a
    primitive is evaluated outside its domain or the value is not finite.
    """
    xs = checked_point(e, point)
    v = float(e._eval(xs))
    if not math.isfinite(v):
        raise DomainError(f"value overflows to {v!r} at {xs!r}")
    return v
