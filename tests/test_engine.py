import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirsubdiff
from dirsubdiff.basis import orthobasis
from dirsubdiff.corpus import get_rng
from generators import random_smooth_poly
from dirsubdiff.deriv import dirderiv, dirderiv_transform, restrict
from dirsubdiff.dirset import (
    DirectedInterval,
    SphereGrid,
    distance,
    embed_point,
    norm,
)
from dirsubdiff.engine import (
    KinkError,
    as_point,
    default_grid,
    directed_subdiff,
    embed_gradient,
    smooth_gradient,
)
from dirsubdiff.parser import parse
from dirsubdiff.expr import DomainError, LinComb, SmoothUnary, Var, evaluate, has_kinks


def test_as_point():
    assert as_point(2) == (2.0,)
    assert as_point(2.5) == (2.5,)
    assert as_point([1, 2]) == (1.0, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_points_are_domain_errors(bad):
    f = parse("max(x1, x2)")
    with pytest.raises(DomainError):
        as_point((bad, 0.0))
    with pytest.raises(DomainError):
        evaluate(f, (bad, 0.0))
    with pytest.raises(DomainError):
        dirderiv_transform(f, (bad, 0.0))
    with pytest.raises(DomainError):
        directed_subdiff(f, (bad, 0.0), SphereGrid.circle(8))


def test_overflow_is_a_domain_error():
    f = parse("exp(x1) * exp(x1)")
    with pytest.raises(DomainError):
        evaluate(f, (400.0,))
    with pytest.raises(DomainError):
        directed_subdiff(f, (400.0,))
    with pytest.raises(DomainError):
        directed_subdiff(parse("pow(x1, 2)"), (1e200,))


def test_default_grid():
    assert default_grid(1) is None
    assert default_grid(2).resolution == (360,)
    g3 = default_grid(3)
    assert g3.dim == 3 and g3.subgrid.dim == 2
    with pytest.raises(ValueError):
        default_grid(4)


# ---------------------------------------------------------------------------
# one dimension


def test_abs_at_zero():
    s = directed_subdiff(parse("abs(x1)"), 0.0)
    assert s.interval == DirectedInterval(1.0, 1.0)  # the embedded [-1, 1]


def test_negated_abs_is_inverted():
    s = directed_subdiff(parse("-abs(x1)"), 0.0)
    assert s.interval == DirectedInterval(-1.0, -1.0)
    assert s.interval.is_inverted


def test_smooth_1d_is_point():
    s = directed_subdiff(parse("pow(x1, 2)"), 3.0)
    assert s.interval == DirectedInterval(-6.0, 6.0)  # the embedded {6}


def test_1d_rejects_grid():
    with pytest.raises(ValueError):
        directed_subdiff(parse("abs(x1)"), 0.0, SphereGrid.circle(8))


# ---------------------------------------------------------------------------
# the plane


def test_abs_x1_canonical_entries():
    g = SphereGrid.circle(4)
    s = directed_subdiff(parse("abs(x1)"), (0.0, 0.0), g)
    # l = (1, 0): support 1, degenerate lower at the vertex (1, 0)
    assert s.supports[0] == 1.0
    assert s.lowers[0].interval == DirectedInterval(0.0, 0.0)
    # l ~ (0, 1): the face is the whole segment [-1, 1] x {0}
    assert abs(s.supports[1]) < 1e-12
    assert s.lowers[1].interval == DirectedInterval(1.0, 1.0)
    # l ~ (-1, 0): support 1 again, lower degenerate up to direction noise
    assert s.supports[2] == 1.0
    low = s.lowers[2].interval
    assert abs(low.a_neg) < 1e-12 and abs(low.a_pos) < 1e-12


def test_grid_dimension_checked():
    with pytest.raises(ValueError):
        directed_subdiff(parse("abs(x1)"), (0.0, 0.0))
    with pytest.raises(ValueError):
        directed_subdiff(parse("abs(x1)"), (0.0, 0.0), SphereGrid.sphere(2, 4, 8))


def test_supports_are_directional_derivatives():
    g = SphereGrid.circle(16)
    e = parse("max(x1 + x2, x1 - x2, -2*x1)")
    x = (0.0, 0.0)
    s = directed_subdiff(e, x, g)
    for l, support in zip(g.directions, s.supports):
        assert support == dirderiv(e, x, l)


def test_lowers_match_independent_restriction():
    g = SphereGrid.circle(8)
    e = parse("abs(x1) + abs(x2)")
    x = (0.0, 0.0)
    s = directed_subdiff(e, x, g)
    t = dirderiv_transform(e, x)
    for l, low in zip(g.directions, s.lowers):
        h = restrict(t, l, orthobasis(l))
        again = directed_subdiff(h, (0.0,))
        assert low == again


def test_smooth_function_embeds_gradient():
    g = SphereGrid.circle(90)
    e = parse("x1*x1 + x2*x2")
    x = (1.0, 0.0)
    s = directed_subdiff(e, x, g)
    assert distance(s, embed_point((2.0, 0.0), g)) <= 1e-10
    assert norm(s - embed_gradient(e, x, g)) <= 1e-10


def test_random_smooth_matches_gradient():
    rng = get_rng(59)
    g = SphereGrid.circle(32)
    for _ in range(10):
        e = random_smooth_poly(rng, n=2)
        x = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        d = norm(directed_subdiff(e, x, g) - embed_gradient(e, x, g))
        assert d <= 1e-9


# ---------------------------------------------------------------------------
# gradients


def test_smooth_gradient_values():
    assert smooth_gradient(parse("x1 + 2*x2"), (0.0, 0.0)) == (1.0, 2.0)
    assert smooth_gradient(parse("pow(x1, 2)"), (3.0,)) == (6.0,)
    gx, gy = smooth_gradient(parse("sin(x1) * x2"), (0.5, 2.0))
    assert abs(gx - 2.0 * math.cos(0.5)) < 1e-15
    assert abs(gy - math.sin(0.5)) < 1e-15


def test_smooth_gradient_raises_at_kink():
    with pytest.raises(KinkError):
        smooth_gradient(parse("abs(x1)"), (0.0,))
    assert smooth_gradient(parse("abs(x1)"), (1.0,)) == (1.0,)
    with pytest.raises(KinkError):
        smooth_gradient(parse("max(x1, x2)"), (0.5, 0.5))


def test_embed_gradient_needs_matching_grid():
    with pytest.raises(ValueError):
        embed_gradient(parse("x1 + x2"), (0.0, 0.0))


# ---------------------------------------------------------------------------
# three dimensions


def test_three_dim_recursion_shape():
    g = SphereGrid.sphere(2, 4, 8)
    e = parse("abs(x1) + abs(x2) + abs(x3)")
    s = directed_subdiff(e, (0.0, 0.0, 0.0), g)
    assert s.dim == 3
    assert len(s.supports) == len(g)
    first = s.lowers[0]
    assert first.dim == 2
    assert first.grid.id == g.subgrid.id
    assert first.lowers[0].dim == 1
    # every support is the direction's coordinate-wise absolute sum
    for l, support in zip(g.directions, s.supports):
        want = abs(l[0]) + abs(l[1]) + abs(l[2])
        assert abs(support - want) <= 1e-12


def test_three_dim_smooth_point():
    g = SphereGrid.sphere(2, 4, 8)
    e = parse("x1 + 2*x2 + 3*x3")
    s = directed_subdiff(e, (0.5, 0.5, 0.5), g)
    assert distance(s, embed_point((1.0, 2.0, 3.0), g)) <= 1e-10


@pytest.mark.parametrize("f, x", [("1/x1", 1e-200), ("log(x1)", 1e-320), ("x1/(x1*x1)", 1e-160)])
def test_overflowing_derivative_coefficients_are_domain_errors(f, x):
    with pytest.raises(DomainError):
        dirderiv_transform(parse(f), (x,))
    with pytest.raises(DomainError):
        directed_subdiff(parse(f), (x,))
    with pytest.raises(DomainError):
        directed_subdiff(parse(f), (x, 0.0), SphereGrid.circle(8))


@pytest.mark.parametrize("f, x, grid", [
    ("1e300*(1e10*x1)", (0.0,), None),
    ("1e300*(1e10*x2)", (0.0, 0.0), SphereGrid.circle(8)),
    ("1e300*(1e10*x3)", (0.0, 0.0, 0.0), SphereGrid.sphere(2, 4, 8)),
])
def test_overflowing_leaf_values_are_domain_errors(f, x, grid):
    with pytest.raises(DomainError, match="overflows to"):
        directed_subdiff(parse(f), x, grid)


def test_long_sums_evaluate_one_frame_per_node():
    # a parsed `+` chain is not nesting-capped; evaluation of the expression
    # and of its transform must stay within one stack frame per node
    e = parse("+".join(["x1"] * 600))
    assert evaluate(e, (0.5,)) == 300.0
    s = directed_subdiff(e, (0.5,))
    assert (s.interval.a_neg, s.interval.a_pos) == (-600.0, 600.0)
    assert smooth_gradient(e, (0.5,)) == (600.0,)


def test_engine_imports_no_numpy():
    # the engine is pure Python: importing numpy alone would add about
    # 14 MB to the peak memory of a process that computes a 3-D
    # subdifferential in about 41 MB
    code = (
        "import sys\n"
        "from dirsubdiff import SphereGrid, directed_subdiff, parse\n"
        "s = directed_subdiff(parse('max(x1, x2, x3, -x1 - x2 - x3) + abs(x1)'), (0.0, 0.0, 0.0),\n"
        "                     SphereGrid.sphere(4, 8, 16))\n"
        "s.to_json()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dirsubdiff.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def _deep(shape: str, n: int, depth: int):
    if shape == "sum":
        return parse("+".join(f"x{1 + i % n}" for i in range(depth)))
    e = Var(0)
    for i in range(depth):
        e = LinComb(1.0, e, 0.5, Var(i % n)) if shape == "lincomb" else SmoothUnary("sin", e + Var(i % n))
    return e


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", ["sum", "lincomb", "sin"])
def test_deep_expressions_need_no_recursion(shape, n):
    # three times the default recursion limit: every entry point walks
    # expressions on its own stack
    e = _deep(shape, n, 3000)
    x = tuple(0.3 + 0.1 * i for i in range(n))
    grid = {1: None, 2: SphereGrid.circle(8), 3: SphereGrid.sphere(2, 4, 8)}[n]
    assert math.isfinite(evaluate(e, x))
    g = dirderiv_transform(e, x)
    grad = smooth_gradient(e, x)
    assert not has_kinks(e)
    s = directed_subdiff(e, x, grid)
    if n == 1:
        assert (s.interval.a_neg, s.interval.a_pos) == (-grad[0], grad[0])
    else:
        assert s.levels[0][0] == evaluate(g, grid.directions[0])
