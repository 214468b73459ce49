"""Seeded random generators that only the tests draw from.

The package's own generators, those behind ``dirsubdiff verify --random``
and the benchmark, stay in :mod:`dirsubdiff.corpus`; these build on its
helpers and keep its conventions: every generator takes a
:class:`random.Random` (or a seed), and rejection sampling keeps the draws
honest instead of post-hoc clamping.
"""

from __future__ import annotations

import math

from dirsubdiff.corpus import _coef, _finite_at, get_rng, random_expr, random_point
from dirsubdiff.dirset import DirectedInterval
from dirsubdiff.expr import (
    Const,
    DomainError,
    Expr,
    Max,
    Product,
    SmoothUnary,
    Var,
    checked_point,
    const,
    dot,
    powk,
    vabs,
)


def random_unit(rng, n: int) -> tuple[float, ...]:
    rng = get_rng(rng)
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        r = math.sqrt(dot(v, v))
        if r > 1e-6:
            return tuple(c / r for c in v)


def random_interval(rng, scale: float = 5.0) -> DirectedInterval:
    rng = get_rng(rng)
    return DirectedInterval(
        round(rng.uniform(-scale, scale), 6), round(rng.uniform(-scale, scale), 6)
    )


def random_polygon(rng, max_vertices: int = 7, scale: float = 3.0):
    """Random point cloud in the plane; embeddings take the hull themselves."""
    rng = get_rng(rng)
    k = rng.randint(3, max_vertices)
    return [
        (round(rng.uniform(-scale, scale), 6), round(rng.uniform(-scale, scale), 6))
        for _ in range(k)
    ]


# ---------------------------------------------------------------------------
# probes for finite differences


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
