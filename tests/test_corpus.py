import math
import random

from dirsubdiff.corpus import (
    _finite_at,
    get_rng,
    random_chain_instance,
    random_directed_set,
    random_expr,
    random_rule_pair,
)
from generators import (
    _exp_arguments_bounded,
    random_max_affine,
    random_minimum_instance,
    random_polygon,
    random_probe,
    random_segment_instance,
    random_unit,
)
from dirsubdiff.expr import LinComb, Max, Var, evaluate, has_kinks
from dirsubdiff.expr import Affine, Quotient, SmoothUnary, compose, const, var
from dirsubdiff.parser import parse


def test_get_rng():
    assert get_rng(7).random() == get_rng(7).random()
    r = random.Random(1)
    assert get_rng(r) is r


def test_generators_deterministic():
    a1, a2, ax = random_rule_pair(get_rng(5))
    b1, b2, bx = random_rule_pair(get_rng(5))
    assert repr(a1) == repr(b1)
    assert repr(a2) == repr(b2)
    assert ax == bx


def test_rule_pair_shape():
    rng = get_rng(9)
    for _ in range(20):
        f1, f2, x = random_rule_pair(rng)
        assert f1.arity == 2 and f2.arity == 2
        assert len(x) == 2
        assert abs(evaluate(f1, x)) <= 1e6
        assert abs(evaluate(f2, x)) <= 1e6


def test_probe_bounds():
    rng = get_rng(13)
    for _ in range(20):
        e, x, l = random_probe(rng)
        assert abs(evaluate(e, x)) <= 100.0
        assert abs(math.hypot(*l) - 1.0) < 1e-9 or len(l) != 2
        assert abs(sum(c * c for c in l) - 1.0) < 1e-9


def test_max_affine_pieces_match_metadata():
    rng = get_rng(17)
    for _ in range(10):
        e, gradients, offsets = random_max_affine(rng, n=2)
        assert isinstance(e, Max)
        assert len(e.children) == len(gradients) == len(offsets)
        x = (0.7, -0.3)
        for piece, a, b in zip(e.children, gradients, offsets):
            want = a[0] * x[0] + a[1] * x[1] + b
            assert abs(evaluate(piece, x) - want) < 1e-12


def test_max_affine_zero_offsets():
    _, _, offsets = random_max_affine(get_rng(19), zero_offsets=True)
    assert set(offsets) == {0.0}


def test_minimum_instance_is_minimal():
    rng = get_rng(23)
    for _ in range(10):
        e, xstar, smooth = random_minimum_instance(rng)
        assert smooth == (not has_kinks(e))
        base = evaluate(e, xstar)
        for i in range(len(xstar)):
            for delta in (0.25, -0.25):
                probe = tuple(
                    v + (delta if j == i else 0.0) for j, v in enumerate(xstar)
                )
                assert evaluate(e, probe) > base


def test_segment_instance_convex():
    rng = get_rng(29)
    for _ in range(10):
        e, x0, x1 = random_segment_instance(rng)
        assert len(x0) == len(x1) and x0 != x1
        # midpoint convexity along the segment
        mid = tuple(0.5 * (a + b) for a, b in zip(x0, x1))
        lhs = evaluate(e, mid)
        rhs = 0.5 * (evaluate(e, x0) + evaluate(e, x1))
        assert lhs <= rhs + 1e-9


def test_chain_instance_smooth_inner():
    rng = get_rng(31)
    for _ in range(10):
        g, phi, t0 = random_chain_instance(rng)
        assert g.arity <= len(phi)
        assert all(not has_kinks(p) for p in phi)
        assert all(p.arity <= 1 for p in phi)


def test_random_expr_arity_control():
    rng = get_rng(37)
    for _ in range(20):
        e = random_expr(rng, 2, 3, require_full_arity=True)
        assert e.arity == 2
    smooth = random_expr(get_rng(41), 2, 4, allow_kinks=False)
    assert not has_kinks(smooth)


def test_random_expr_falls_back_to_the_last_variable():
    # a depth-0 draw is one leaf, and with this seed none of the 50 is x40,
    # the only leaf of arity 40
    e = random_expr(get_rng(1), 40, 0, require_full_arity=True)
    assert type(e) is LinComb and type(e.right) is Var and e.right.index == 39
    assert e.arity == 40


def test_a_domain_error_is_not_finite():
    assert _finite_at(parse("log(x1)"), (-1.0,), 1e6) is False
    assert _finite_at(parse("log(x1)"), (1.0,), 1e6) is True


def test_random_unit_normalized():
    for n in (1, 2, 3):
        l = random_unit(get_rng(43), n)
        assert abs(sum(c * c for c in l) - 1.0) < 1e-12


def test_random_polygon_and_sets():
    rng = get_rng(47)
    pts = random_polygon(rng)
    assert len(pts) >= 3
    from dirsubdiff.dirset import SphereGrid

    g = SphereGrid.circle(8)
    s = random_directed_set(rng, 2, g)
    assert s.dim == 2 and len(s.supports) == 8
    leaf = random_directed_set(rng, 1)
    assert leaf.dim == 1


def exp(e):
    return SmoothUnary("exp", e)


def test_exp_bound_sees_through_every_node_kind():
    x1 = var(0)
    assert _exp_arguments_bounded(exp(x1), (1.0,), 3.0)
    assert not _exp_arguments_bounded(Quotient(exp(5.0 * x1), const(1.0)), (1.0,), 3.0)
    # substitutions evaluate the exp argument at the point their child sees
    assert not _exp_arguments_bounded(Affine(exp(x1), ((5.0,),), (0.0,)), (1.0,), 3.0)
    assert _exp_arguments_bounded(Affine(exp(x1), ((5.0,),), (-4.5,)), (1.0,), 3.0)
    assert not _exp_arguments_bounded(compose(exp(x1), [5.0 * x1]), (1.0,), 3.0)
    assert not _exp_arguments_bounded(compose(x1, [exp(5.0 * x1)]), (1.0,), 3.0)
