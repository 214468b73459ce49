import math

import pytest

import dirsubdiff
from dirsubdiff.basis import orthobasis
from dirsubdiff.corpus import get_rng
from generators import random_probe, random_smooth_poly
from dirsubdiff.deriv import dirderiv, dirderiv_transform, restrict
from dirsubdiff.dirset import ActiveSetInfo
from dirsubdiff.expr import ArityError, DomainError, Max, evaluate, neg, var
from dirsubdiff.parser import parse


# ---------------------------------------------------------------------------
# the directional-derivative transform


def test_transform_abs_at_kink():
    g = dirderiv_transform(parse("abs(x1)"), (0.0,))
    assert isinstance(g, Max)
    for u in (-1.0, 1.0, 0.5, -3.0):
        assert evaluate(g, (u,)) == abs(u)


def test_transform_abs_off_kink():
    # x = 2 is smooth: the derivative is linear in the direction
    g = dirderiv_transform(parse("abs(x1)"), (2.0,))
    assert evaluate(g, (1.0,)) == 1.0
    assert evaluate(g, (-1.0,)) == -1.0


def test_transform_x_times_abs_x():
    # f(x) = x|x| is differentiable at 0 with zero derivative even though
    # the factors are not
    g = dirderiv_transform(parse("x1 * abs(x1)"), (0.0,))
    for u in (-2.0, 0.7, 1.0):
        assert evaluate(g, (u,)) == 0.0


def test_transform_abs_difference():
    g = dirderiv_transform(parse("abs(x1) - abs(x2)"), (0.0, 0.0))
    assert abs(evaluate(g, (0.6, 0.8)) - (-0.2)) < 1e-15
    assert evaluate(g, (1.0, 0.0)) == 1.0
    assert evaluate(g, (0.0, 1.0)) == -1.0


def test_transform_base_point_arity():
    with pytest.raises(ValueError):
        dirderiv_transform(parse("x1 + x2"), (1.0,))


@pytest.mark.parametrize("entry", ["evaluate", "dirderiv_transform", "dirderiv",
                                   "smooth_gradient", "directed_subdiff"])
def test_short_point_is_arity_error(entry):
    e = parse("x1 + x2")
    call = {"dirderiv": lambda: dirderiv(e, (1.0,), (1.0,))}.get(
        entry, lambda: getattr(dirsubdiff, entry)(e, (1.0,)))
    with pytest.raises(ArityError, match="point has 1$"):
        call()


def test_dirderiv_values():
    assert dirderiv(parse("max(x1, x2)"), (0.0, 0.0), (1.0, 2.0)) == 2.0
    assert dirderiv(parse("abs(x1)"), (0.0,), (-3.0,)) == 3.0
    assert abs(dirderiv(parse("abs(x1) - abs(x2)"), (0.0, 0.0), (0.6, 0.8)) + 0.2) < 1e-15


def test_dirderiv_smooth_matches_calculus():
    assert abs(dirderiv(parse("sin(x1)"), (0.3,), (1.0,)) - math.cos(0.3)) < 1e-15
    # d/dt (x+t)^2 at x=3 in direction 1 is 2*3
    assert dirderiv(parse("pow(x1, 2)"), (3.0,), (1.0,)) == 6.0


def test_quotient_derivative():
    # f(x) = |x| / (1 + x^2) has f'(0; u) = |u|
    g = dirderiv_transform(parse("abs(x1) / (1 + x1*x1)"), (0.0,))
    assert evaluate(g, (1.0,)) == 1.0
    assert evaluate(g, (-1.0,)) == 1.0


def test_composition_derivative():
    # t -> |t^2| at t = 1: chain rule through the smooth inner square
    from dirsubdiff.expr import compose, powk

    e = compose(parse("abs(x1)"), (powk(var(0), 2),))
    assert dirderiv(e, (1.0,), (1.0,)) == 2.0
    assert dirderiv(e, (1.0,), (-1.0,)) == -2.0


def test_unbounded_one_sided_derivative():
    with pytest.raises(DomainError):
        dirderiv(parse("sqrt(x1)"), (0.0,), (1.0,))
    with pytest.raises(DomainError):
        dirderiv(parse("log(x1)"), (0.0,), (1.0,))


# ---------------------------------------------------------------------------
# structural properties


def _valid_probe(rng):
    while True:
        e, x, l = random_probe(rng)
        try:
            dirderiv(e, x, l)
        except DomainError:
            continue
        return e, x, l


def test_positive_homogeneity():
    rng = get_rng(43)
    for _ in range(20):
        e, x, l = _valid_probe(rng)
        g = dirderiv_transform(e, x)
        base = evaluate(g, l)
        assert evaluate(g, tuple(0.0 * v for v in l)) == 0.0
        # powers of two scale each linear piece without rounding
        for t in (0.5, 2.0):
            assert evaluate(g, tuple(t * v for v in l)) == t * base
        got = evaluate(g, tuple(0.3 * v for v in l))
        assert abs(got - 0.3 * base) <= 1e-10 * (1.0 + abs(base))


def test_transform_idempotent():
    rng = get_rng(47)
    for _ in range(20):
        e, x, l = _valid_probe(rng)
        g = dirderiv_transform(e, x)
        g2 = dirderiv_transform(g, tuple(0.0 for _ in range(max(g.arity, 1))))
        for scale in (1.0, -0.7, 2.5):
            u = tuple(scale * v for v in l)
            assert abs(evaluate(g, u) - evaluate(g2, u)) <= 1e-12 * (1.0 + abs(evaluate(g, u)))


def test_smooth_points_give_linear_derivative():
    rng = get_rng(53)
    for _ in range(20):
        e = random_smooth_poly(rng, n=2)
        x = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        g = dirderiv_transform(e, x)
        l1 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        l2 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        both = (l1[0] + l2[0], l1[1] + l2[1])
        lhs = evaluate(g, both)
        rhs = evaluate(g, l1) + evaluate(g, l2)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


def test_active_set_flags():
    info = ActiveSetInfo()
    dirderiv_transform(parse("max(x1, x1 + 5e-10)"), (0.0,), info=info)
    assert info.ties

    info = ActiveSetInfo()
    dirderiv_transform(parse("max(x1, x1 + 5e-9)"), (0.0,), info=info)
    assert info.borderline
    assert not info.ties

    # a clear gap raises no flag
    info = ActiveSetInfo()
    dirderiv_transform(parse("max(x1, x1 + 1)"), (0.0,), info=info)
    assert not info.ties and not info.borderline


def test_tie_tolerance_scales_with_magnitude():
    # at value magnitude 1e6 an absolute gap of 1e-4 still ties
    info = ActiveSetInfo()
    dirderiv_transform(parse("max(x1 + 1000000, x1 + 1000000.0001)"), (0.0,), info=info)
    assert info.ties


# ---------------------------------------------------------------------------
# restriction to a tangent slice


def test_restrict_abs_of_second_coordinate():
    g = dirderiv_transform(parse("abs(x2)"), (0.0, 0.0))
    l = (1.0, 0.0)
    h = restrict(g, l, orthobasis(l))
    assert h.arity <= 1
    for s in (-2.0, 0.0, 2.0):
        assert evaluate(h, (s,)) == abs(s)


def test_restrict_constant_slice():
    g = dirderiv_transform(parse("x2"), (0.0, 0.0))
    l = (0.0, 1.0)
    h = restrict(g, l, orthobasis(l))
    for s in (-1.0, 0.5):
        assert evaluate(h, (s,)) == 1.0


def test_restrict_abs_difference():
    g = dirderiv_transform(parse("abs(x1) - abs(x2)"), (0.0, 0.0))
    l = (1.0, 0.0)
    h = restrict(g, l, orthobasis(l))
    for s in (-2.0, -0.5, 0.0, 1.0):
        assert evaluate(h, (s,)) == 1.0 - abs(s)


def test_restrict_checks_direction():
    g = dirderiv_transform(parse("abs(x1)"), (0.0, 0.0))
    with pytest.raises(ValueError):
        restrict(g, (0.0, 1.0), orthobasis((1.0, 0.0)))


def test_restrict_three_dims():
    g = dirderiv_transform(parse("abs(x3)"), (0.0, 0.0, 0.0))
    l = (1.0, 0.0, 0.0)
    h = restrict(g, l, orthobasis(l))
    assert h.arity <= 2
    # slice coordinates span the x2/x3 plane
    assert evaluate(h, (0.0, 2.0)) == 2.0 or evaluate(h, (2.0, 0.0)) == 2.0
