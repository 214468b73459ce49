"""Seeded random instances for ``dirsubdiff verify --random`` and the benchmark.

The CLI draws rule pairs, chain-rule instances and Taylor instances here;
the benchmark draws rule pairs and raw directed sets.  Every generator
takes a :class:`random.Random` (or a seed) and draws instances that are
safe for the checks they feed: evaluable at the chosen points, bounded in
magnitude, and restricted to the function classes the corresponding
theorems cover.  Rejection sampling keeps the draws honest instead of
post-hoc clamping.
"""

from __future__ import annotations

import math
import random

from .dirset import DirectedSet, SphereGrid
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


def random_rule_pair(rng, arity: int = 2) -> tuple[Expr, Expr, tuple[float, ...]]:
    """Pair of expressions of nesting depth 2 to 4 plus a point where both
    evaluate to sane values.

    Feeds the calculus-rule and fixpoint suites; quotient denominators are
    not constrained here, callers skip the quotient rule when f2 vanishes.
    """
    rng = get_rng(rng)
    while True:
        f1 = random_expr(rng, arity, rng.randint(2, 4), require_full_arity=True)
        f2 = random_expr(rng, arity, rng.randint(2, 4), require_full_arity=True)
        x = random_point(rng, arity)
        if _finite_at(f1, x, 1e6) and _finite_at(f2, x, 1e6):
            return f1, f2, x


# ---------------------------------------------------------------------------
# structured instances


def _bounded_inner(rng: random.Random, arity: int, depth: int, x) -> Expr:
    while True:
        p = random_expr(rng, arity, depth, allow_kinks=False)
        if _finite_at(p, x, 10.0):
            return p


def _composition_instance(rng, draw_point):
    """(g, phi, x) with ``x = draw_point(rng)``, drawn until ``g`` is sane at
    ``phi(x)``: the component count, the point, the components, then ``g``."""
    rng = get_rng(rng)
    while True:
        m = rng.randint(1, 2)
        x = draw_point(rng)
        phi = tuple(_bounded_inner(rng, len(x), rng.randint(1, 2), x) for _ in range(m))
        g = random_expr(rng, m, rng.randint(2, 3))
        if _finite_at(g, tuple(evaluate(p, x) for p in phi), 1e6):
            return g, phi, x


def random_chain_instance(rng):
    """(g, phi, t0): outer expression and smooth curve components."""
    g, phi, (t0,) = _composition_instance(rng, lambda r: (round(r.uniform(-1.0, 1.0), 3),))
    return g, phi, t0


def random_taylor_instance(rng):
    """(g, phi, x0): outer expression and a smooth inner map on the plane."""
    return _composition_instance(rng, lambda r: random_point(r, 2))


# ---------------------------------------------------------------------------
# random directed sets


def random_directed_set(rng, dim: int, grid: SphereGrid | None = None) -> DirectedSet:
    """Raw random directed set; fields are independent, inversions included,
    each drawn from ``[-5, 5]`` and rounded to six decimals.

    Values are drawn in walk order: a set's supports, then each lower set in
    turn (a leaf pair draws ``a_neg`` before ``a_pos``).
    """
    rng = get_rng(rng)

    def draw():
        return round(rng.uniform(-5.0, 5.0), 6)

    if dim == 1:
        return DirectedSet.leaf(draw(), draw())
    if grid is None or grid.dim != dim:
        raise ValueError("dim >= 2 needs a grid of matching dim")
    arrays = [[] for _ in range(dim + 1)]  # the levels, then a_neg and a_pos

    def fill(g, depth):
        arrays[depth].extend(draw() for _ in g.directions)
        for _ in g.directions:
            if g.subgrid is None:
                arrays[-2].append(draw())
                arrays[-1].append(draw())
            else:
                fill(g.subgrid, depth + 1)

    fill(grid, 0)
    return DirectedSet(grid, arrays[:-2], arrays[-2], arrays[-1])
