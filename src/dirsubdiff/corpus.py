"""Seeded random instance generators backing the verification suites.

Every generator takes a :class:`random.Random` (or a seed) and draws
instances that are safe for the checks they feed: evaluable at the chosen
points, bounded in magnitude, and restricted to the function classes the
corresponding theorems cover.  Rejection sampling keeps the draws honest
instead of post-hoc clamping.
"""

from __future__ import annotations

import math
import random

from .dirset import DirectedInterval, DirectedSet, SphereGrid
from .expr import (
    Const,
    DomainError,
    Expr,
    LinComb,
    Max,
    Min,
    Product,
    SmoothUnary,
    Var,
    checked_point,
    const,
    evaluate,
    powk,
    vabs,
)

_SMOOTH_POOL = ("sin", "cos", "exp", "sqr")


def get_rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _coef(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> float:
    # three decimals keep magnitudes tame and reprs short
    return round(rng.uniform(lo, hi), 3)


def random_point(rng, n: int, scale: float = 2.0) -> tuple[float, ...]:
    rng = get_rng(rng)
    return tuple(round(rng.uniform(-scale, scale), 6) for _ in range(n))


def random_unit(rng, n: int) -> tuple[float, ...]:
    rng = get_rng(rng)
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        r = math.sqrt(sum(c * c for c in v))
        if r > 1e-6:
            return tuple(c / r for c in v)


# ---------------------------------------------------------------------------
# random expressions


def _leaf(rng: random.Random, arity: int) -> Expr:
    if arity > 0 and rng.random() < 0.6:
        return Var(rng.randrange(arity))
    return Const(_coef(rng))


def _build(rng: random.Random, arity: int, depth: int, allow_kinks: bool) -> Expr:
    if depth <= 0:
        return _leaf(rng, arity)
    kinds = ["lincomb", "lincomb", "product", "smooth", "leaf"]
    if allow_kinks:
        kinds += ["maxmin", "maxmin", "abs"]
    kind = rng.choice(kinds)
    if kind == "leaf":
        return _leaf(rng, arity)
    if kind == "lincomb":
        return LinComb(
            _coef(rng),
            _build(rng, arity, depth - 1, allow_kinks),
            _coef(rng),
            _build(rng, arity, depth - 1, allow_kinks),
        )
    if kind == "product":
        return Product(
            _build(rng, arity, depth - 1, allow_kinks),
            _build(rng, arity, depth - 1, allow_kinks),
        )
    if kind == "smooth":
        prim = rng.choice(_SMOOTH_POOL + ("pow",))
        child = _build(rng, arity, depth - 1, allow_kinks)
        if prim == "pow":
            return powk(child, rng.choice((2, 3)))
        return SmoothUnary(prim, child)
    if kind == "abs":
        return vabs(_build(rng, arity, depth - 1, allow_kinks))
    children = tuple(
        _build(rng, arity, depth - 1, allow_kinks) for _ in range(rng.choice((2, 2, 3)))
    )
    return Max(children) if rng.random() < 0.5 else Min(children)


def random_expr(
    rng,
    arity: int,
    depth: int,
    allow_kinks: bool = True,
    require_full_arity: bool = False,
) -> Expr:
    """Random expression over ``x1..x{arity}`` with nesting depth ``<= depth``."""
    rng = get_rng(rng)
    e = _build(rng, arity, depth, allow_kinks)
    if require_full_arity:
        for _ in range(50):
            if e.arity == arity:
                return e
            e = _build(rng, arity, depth, allow_kinks)
        # give the stragglers an explicit dependence on the last variable
        e = LinComb(1.0, e, _coef(rng), Var(arity - 1))
    return e


def _finite_at(e: Expr, x, cap: float) -> bool:
    try:
        v = evaluate(e, x)
    except DomainError:
        return False
    return math.isfinite(v) and abs(v) <= cap


def random_rule_pair(
    rng, arity: int = 2, depth: int = 4
) -> tuple[Expr, Expr, tuple[float, ...]]:
    """Pair of expressions plus a point where both evaluate to sane values.

    Feeds the calculus-rule and fixpoint suites; quotient denominators are
    not constrained here, callers skip the quotient rule when f2 vanishes.
    """
    rng = get_rng(rng)
    while True:
        f1 = random_expr(rng, arity, rng.randint(2, depth), require_full_arity=True)
        f2 = random_expr(rng, arity, rng.randint(2, depth), require_full_arity=True)
        x = random_point(rng, arity)
        if _finite_at(f1, x, 1e6) and _finite_at(f2, x, 1e6):
            return f1, f2, x


def _exp_arguments_bounded(e: Expr, x, bound: float) -> bool:
    """False when some exp node's argument is not finite or exceeds
    ``bound`` in magnitude, or when ``e`` leaves a primitive's domain at ``x``.

    One evaluation keeps every pair's value, so each argument is read at
    the point its node sees: substitutions and compositions hand their
    children the transformed point.
    """
    memos: list = [{}]
    try:
        e._eval(checked_point(e, x), memos)
    except DomainError:
        return False
    return all(
        abs(memo[node.child]) <= bound
        for memo in memos
        for node in memo
        if type(node) is SmoothUnary and node.kind == "exp"
    )


def random_probe(
    rng, max_arity: int = 3, depth: int = 5
) -> tuple[Expr, tuple[float, ...], tuple[float, ...]]:
    """(expr, point, unit direction) suitable for finite-difference probing.

    Rejects draws whose value at the point exceeds 100 or that stack exp
    beyond argument magnitude 3; difference quotients lose too many digits
    to cancellation there for a fair comparison.
    """
    rng = get_rng(rng)
    while True:
        n = rng.randint(1, max_arity)
        e = random_expr(rng, n, rng.randint(2, depth))
        x = random_point(rng, n)
        l = random_unit(rng, n)
        if _finite_at(e, x, 100.0) and _exp_arguments_bounded(e, x, 3.0):
            return e, x, l


# ---------------------------------------------------------------------------
# structured instances


def random_smooth_poly(rng, n: int = 2, max_terms: int = 4) -> Expr:
    """Random polynomial, the smooth corpus for gradient-embedding checks."""
    rng = get_rng(rng)
    terms = []
    for _ in range(rng.randint(2, max_terms)):
        term: Expr = Const(_coef(rng, -1.0, 1.0))
        for i in range(n):
            p = rng.choice((0, 1, 1, 2, 3))
            if p == 1:
                term = Product(term, Var(i))
            elif p >= 2:
                term = Product(term, powk(Var(i), p))
        terms.append(term)
    e = terms[0]
    for t in terms[1:]:
        e = e + t
    return e


def random_max_affine(
    rng, n: int = 2, max_pieces: int = 5, zero_offsets: bool = False
):
    """Max of random affine pieces; returns (expr, gradients, offsets).

    With ``zero_offsets`` every piece is active at the origin, so the
    subdifferential there is the embedded hull of all gradients.
    """
    rng = get_rng(rng)
    k = rng.randint(3, max_pieces)
    gradients = []
    offsets = []
    pieces = []
    for _ in range(k):
        a = tuple(_coef(rng) for _ in range(n))
        b = 0.0 if zero_offsets else _coef(rng)
        gradients.append(a)
        offsets.append(b)
        lin: Expr = Product(Const(a[0]), Var(0))
        for i in range(1, n):
            lin = lin + Product(Const(a[i]), Var(i))
        pieces.append(lin + const(b) if b != 0.0 else lin)
    return Max(tuple(pieces)), gradients, offsets


def random_minimum_instance(rng, n: int | None = None):
    """(expr, xstar, smooth): a sum of wells centered at xstar.

    Each coordinate contributes absolute-value or even-power terms with
    positive weights, so xstar is the unique minimizer; ``smooth`` reports
    whether every term is an even power.
    """
    rng = get_rng(rng)
    if n is None:
        n = rng.randint(1, 2)
    xstar = tuple(round(rng.uniform(-1.5, 1.5), 3) for _ in range(n))
    smooth = True
    terms = []
    for i in range(n):
        for _ in range(rng.randint(1, 2)):
            c = round(rng.uniform(0.2, 2.0), 3)
            shifted = Var(i) + const(-xstar[i])
            if rng.random() < 0.5:
                terms.append(Product(Const(c), vabs(shifted)))
                smooth = False
            else:
                terms.append(Product(Const(c), powk(shifted, rng.choice((2, 2, 4, 6)))))
    e = terms[0]
    for t in terms[1:]:
        e = e + t
    return e, xstar, smooth


def random_segment_instance(rng):
    """(expr, x0, x1): convex piecewise-affine function and a segment."""
    rng = get_rng(rng)
    n = rng.randint(1, 2)
    parts = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.7:
            e, _, _ = random_max_affine(rng, n)
            parts.append(e)
        else:
            lin: Expr = Product(Const(_coef(rng)), Var(0))
            for i in range(1, n):
                lin = lin + Product(Const(_coef(rng)), Var(i))
            parts.append(vabs(lin + const(_coef(rng))))
    e = parts[0]
    for p in parts[1:]:
        e = e + p
    x0 = random_point(rng, n, 3.0)
    x1 = random_point(rng, n, 3.0)
    while x1 == x0:
        x1 = random_point(rng, n, 3.0)
    return e, x0, x1


def _bounded_inner(rng: random.Random, arity: int, depth: int, x) -> Expr:
    while True:
        p = random_expr(rng, arity, depth, allow_kinks=False)
        if _finite_at(p, x, 10.0):
            return p


def random_chain_instance(rng):
    """(g, phi, t0): outer expression and smooth curve components."""
    rng = get_rng(rng)
    while True:
        m = rng.randint(1, 2)
        t0 = round(rng.uniform(-1.0, 1.0), 3)
        phi = tuple(_bounded_inner(rng, 1, rng.randint(1, 2), (t0,)) for _ in range(m))
        g = random_expr(rng, m, rng.randint(2, 3))
        values = tuple(evaluate(p, (t0,)) for p in phi)
        if _finite_at(g, values, 1e6):
            return g, phi, t0


def random_taylor_instance(rng):
    """(g, phi, x0): outer expression and a smooth inner map on the plane."""
    rng = get_rng(rng)
    while True:
        m = rng.randint(1, 2)
        x0 = random_point(rng, 2)
        phi = tuple(_bounded_inner(rng, 2, rng.randint(1, 2), x0) for _ in range(m))
        g = random_expr(rng, m, rng.randint(2, 3))
        values = tuple(evaluate(p, x0) for p in phi)
        if _finite_at(g, values, 1e6):
            return g, phi, x0


# ---------------------------------------------------------------------------
# random directed sets


def random_interval(rng, scale: float = 5.0) -> DirectedInterval:
    rng = get_rng(rng)
    return DirectedInterval(
        round(rng.uniform(-scale, scale), 6), round(rng.uniform(-scale, scale), 6)
    )


def random_directed_set(rng, dim: int, grid: SphereGrid | None = None, scale: float = 5.0) -> DirectedSet:
    """Raw random directed set; fields are independent, inversions included.

    Values are drawn in walk order: a set's supports, then each lower set in
    turn (a leaf pair draws ``a_neg`` before ``a_pos``).
    """
    rng = get_rng(rng)
    if dim == 1:
        iv = random_interval(rng, scale)
        return DirectedSet.leaf(iv.a_neg, iv.a_pos)
    if grid is None or grid.dim != dim:
        raise ValueError("dim >= 2 needs a grid of matching dim")
    levels = [[] for _ in range(dim - 1)]
    a_neg, a_pos = [], []

    def draw():
        return round(rng.uniform(-scale, scale), 6)

    def fill(g, depth):
        levels[depth].extend(draw() for _ in g.directions)
        for _ in g.directions:
            if g.subgrid is None:
                a_neg.append(draw())
                a_pos.append(draw())
            else:
                fill(g.subgrid, depth + 1)

    fill(grid, 0)
    return DirectedSet(grid, levels, a_neg, a_pos)


def random_polygon(rng, max_vertices: int = 7, scale: float = 3.0):
    """Random point cloud in the plane; embeddings take the hull themselves."""
    rng = get_rng(rng)
    k = rng.randint(3, max_vertices)
    return [
        (round(rng.uniform(-scale, scale), 6), round(rng.uniform(-scale, scale), 6))
        for _ in range(k)
    ]
