import math
import time

import pytest

from generators import _exp_arguments_bounded
from dirsubdiff.deriv import dirderiv, dirderiv_transform
from dirsubdiff.dirset import SphereGrid
from dirsubdiff.engine import directed_subdiff, smooth_gradient
from dirsubdiff.expr import (
    Affine,
    ArityError,
    Const,
    DomainError,
    LinComb,
    Max,
    Min,
    Product,
    Quotient,
    SMOOTH_KINDS,
    SmoothCompose,
    SmoothUnary,
    Var,
    compose,
    const,
    evaluate,
    has_kinks,
    neg,
    powk,
    sqr,
    vabs,
    var,
    vmax,
    vmin,
)
from dirsubdiff.oracle import dini_fd
from dirsubdiff.parser import parse
from dirsubdiff.theorems import (
    chain_rule_1d, verify_chain_rule_1d, verify_max_rule, verify_min_rule, verify_sum_rule,
    verify_taylor_invariance,
)


def test_eval_abs_difference():
    e = parse("abs(x1) - abs(x2)")
    assert evaluate(e, (3.0, 1.0)) == 2.0
    assert e.arity == 2


def test_eval_max_of_scalings():
    e = vmax(var(0), 2.0 * var(0))
    assert evaluate(e, (-1.0,)) == -1.0
    assert evaluate(e, (1.0,)) == 2.0


def test_eval_quotient():
    e = parse("abs(x1)/(1.0 + sqr(x1))")
    assert evaluate(e, (0.0,)) == 0.0
    assert evaluate(e, (1.0,)) == 0.5


def test_arity_tracks_highest_variable():
    assert Var(0).arity == 1
    assert Var(3).arity == 4
    assert Const(2.0).arity == 0
    assert (var(0) + var(2)).arity == 3
    assert Product(var(1), Const(1.0)).arity == 2


def test_extra_coordinates_are_ignored():
    e = vabs(var(0))
    assert evaluate(e, (-2.0, 99.0)) == 2.0


def test_short_point_rejected():
    with pytest.raises(ArityError):
        evaluate(var(1), (1.0,))


def test_operator_sugar():
    x = var(0)
    assert evaluate(x + 1.0, (2.0,)) == 3.0
    assert evaluate(1 + x, (2.0,)) == 3.0
    assert evaluate(1.0 - x, (2.0,)) == -1.0
    assert evaluate(-x, (2.0,)) == -2.0
    assert evaluate(x * x, (3.0,)) == 9.0
    assert evaluate(x / 2.0, (3.0,)) == 1.5
    assert evaluate(2.0 / x, (4.0,)) == 0.5
    assert x(5.0) == 5.0


def test_smooth_primitives():
    x = var(0)
    assert evaluate(SmoothUnary("sin", x), (0.0,)) == 0.0
    assert evaluate(SmoothUnary("cos", x), (0.0,)) == 1.0
    assert evaluate(SmoothUnary("exp", x), (1.0,)) == math.exp(1.0)
    assert evaluate(SmoothUnary("log", x), (math.e,)) == 1.0
    assert evaluate(sqr(x), (3.0,)) == 9.0
    assert evaluate(SmoothUnary("sqrt", x), (4.0,)) == 2.0
    assert evaluate(powk(x, 5), (2.0,)) == 32.0


#: kind -> (pow exponent, interior point, reference value); every kind of
#: SMOOTH_KINDS needs a row
SMOOTH_CASES = {
    "sin": (0, 0.7, math.sin),
    "cos": (0, 0.7, math.cos),
    "exp": (0, 0.7, math.exp),
    "log": (0, 2.5, math.log),
    "sqr": (0, -1.3, lambda v: v * v),
    "sqrt": (0, 2.5, math.sqrt),
    "pow": (3, -1.3, lambda v: v**3),
}


@pytest.mark.parametrize("kind", SMOOTH_KINDS)
def test_smooth_primitive_value_and_slope(kind):
    k, v, reference = SMOOTH_CASES[kind]
    e = SmoothUnary(kind, var(0), k)
    assert evaluate(e, (v,)) == reference(v)
    for l in (1.0, -1.0):
        assert dirderiv(e, (v,), (l,)) == pytest.approx(dini_fd(e, (v,), (l,)), rel=1e-7)


def test_domain_errors():
    x = var(0)
    with pytest.raises(DomainError):
        evaluate(SmoothUnary("log", x), (0.0,))
    with pytest.raises(DomainError):
        evaluate(SmoothUnary("sqrt", x), (-1.0,))
    with pytest.raises(DomainError):
        evaluate(Quotient(Const(1.0), x), (0.0,))
    with pytest.raises(DomainError):
        evaluate(SmoothUnary("exp", x), (1e6,))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Const(float("nan"))
    with pytest.raises(ValueError):
        Const(float("inf"))
    with pytest.raises(ValueError):
        SmoothUnary("tan", var(0))
    with pytest.raises(ValueError):
        powk(var(0), 1)
    with pytest.raises(ValueError):
        Max((var(0),))
    with pytest.raises(ValueError):
        Min(())
    with pytest.raises(ValueError):
        Var(-1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Affine(var(0), ((1.0,), (2.0,)), (0.0,)), ValueError,
     "matrix row count must match offset length"),
    (lambda: Affine(Const(1.0), (), ()), ValueError, "affine substitution needs at least one row"),
    (lambda: Affine(var(0), ((math.inf,),), (0.0,)), ValueError,
     "affine matrix entries must be finite"),
    (lambda: Affine(var(0), ((1.0,),), (math.nan,)), ValueError, "affine offsets must be finite"),
    (lambda: LinComb(math.inf, var(0), 1.0, var(0)), ValueError,
     "linear combination coefficients must be finite"),
    (lambda: SmoothCompose(var(0), ()), ValueError,
     "composition needs at least one inner component"),
    (lambda: compose(var(1), [var(0)]), ValueError,
     "outer reads 2 coordinates but only 1 inner components were given"),
    (lambda: var(0) + "x2", TypeError, "cannot use str as an expression"),
    # an int too large for a float is a non-finite number, not an OverflowError
    (lambda: Const(10**400), ValueError, "constant must be finite, got inf"),
    (lambda: var(0) - 10**400, ValueError, "constant must be finite, got inf"),
    (lambda: LinComb(1.0, var(0), -10**400, var(0)), ValueError,
     "linear combination coefficients must be finite"),
    (lambda: Affine(var(0), ((10**400,),), (0.0,)), ValueError,
     "affine matrix entries must be finite"),
    (lambda: Affine(var(0), ((1.0,),), (10**400,)), ValueError, "affine offsets must be finite"),
    (lambda: Max((var(0),)), ValueError, "^max needs at least two children$"),
    (lambda: Min(iter([var(0)])), ValueError, "^min needs at least two children$"),
    # an outer sequence that is not one
    (lambda: Affine(var(0), None, (0.0,)), ValueError,
     "^expected a sequence of matrix rows, got a NoneType$"),
    (lambda: compose(var(0), None), ValueError,
     "^expected a sequence of expressions, got a NoneType$"),
    (lambda: verify_max_rule(None, (0.0, 0.0), _CIRCLE), ValueError,
     "^expected a sequence of expressions, got a NoneType$"),
    (lambda: verify_min_rule(True, (0.0, 0.0), _CIRCLE), ValueError,
     "^expected a sequence of expressions, got a bool$"),
    # a child that is not an expression, in every node and helper
    (lambda: LinComb(1.0, None, 1.0, var(0)), ValueError,
     "^expected an expression, got a NoneType$"),
    (lambda: Product(var(0), "x1"), ValueError, "^expected an expression, got a str$"),
    (lambda: Quotient(b"x", var(0)), ValueError, "^expected an expression, got a bytes$"),
    (lambda: SmoothUnary("sin", True), ValueError, "^expected an expression, got a bool$"),
    (lambda: Max((var(0), 10**400)), ValueError, "^expected an expression, got a int$"),
    (lambda: Min((var(0), math.nan)), ValueError, "^expected an expression, got a float$"),
    (lambda: Affine([], ((1.0,),), (0.0,)), ValueError, "^expected an expression, got a list$"),
    (lambda: SmoothCompose(object(), (var(0),)), ValueError,
     "^expected an expression, got a object$"),
    (lambda: Max(None), ValueError, "^expected a sequence of expressions, got a NoneType$"),
    (lambda: Min(5), ValueError, "^expected a sequence of expressions, got a int$"),
    (lambda: SmoothCompose(var(0), None), ValueError,
     "^expected a sequence of expressions, got a NoneType$"),
    (lambda: vmax("a", var(0)), ValueError, "^expected an expression, got a str$"),
    (lambda: vmin(var(0), None), ValueError, "^expected an expression, got a NoneType$"),
    (lambda: vabs(b"x"), ValueError, "^expected an expression, got a bytes$"),
    (lambda: sqr(None), ValueError, "^expected an expression, got a NoneType$"),
    (lambda: powk([], 2), ValueError, "^expected an expression, got a list$"),
    (lambda: neg(object()), ValueError, "^expected an expression, got a object$"),
], ids=["affine-rows", "affine-empty", "affine-matrix-inf", "affine-offset-nan", "lincomb-inf",
        "compose-empty", "compose-outer-arity", "coerce-str", "const-huge", "coerce-huge",
        "lincomb-huge", "affine-matrix-huge", "affine-offset-huge", "max-one-child",
        "min-one-child", "affine-matrix-none", "compose-inner-none", "max-rule-none",
        "min-rule-bool", "lincomb-child-none", "product-child-str", "quotient-child-bytes",
        "unary-child-bool", "max-child-huge", "min-child-nan", "affine-child-list",
        "compose-outer-object", "max-none", "min-int", "compose-node-inner-none", "vmax-str",
        "vmin-none", "vabs-bytes", "sqr-none", "powk-list", "neg-object"])
def test_constructor_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()


_CIRCLE = SphereGrid.circle(8)


@pytest.mark.parametrize("call", [
    lambda: evaluate("x1", (0.0, 0.0)),
    lambda: dirderiv("x1", (0.0, 0.0), (1.0, 0.0)),
    lambda: dirderiv_transform("x1", (0.0, 0.0)),
    lambda: directed_subdiff("x1", (0.0, 0.0), _CIRCLE),
    lambda: smooth_gradient("x1", (0.0, 0.0)),
    lambda: dini_fd("x1", (0.0, 0.0), (1.0, 0.0)),
    lambda: verify_max_rule((var(0), "x1"), (0.0, 0.0), _CIRCLE),
    lambda: has_kinks("x1"),
    lambda: verify_sum_rule(var(0), "x1", 1.0, 1.0, (0.0, 0.0), _CIRCLE),
    lambda: compose("x1", [var(0)]),
    lambda: compose(var(0), [var(0), "x1"]),
    lambda: verify_chain_rule_1d("x1", [var(0)], 0.0),
    lambda: chain_rule_1d("x1", [var(0)], 0.0),
    lambda: verify_taylor_invariance("x1", [var(0), var(1)], (0.0, 0.0), _CIRCLE),
], ids=["evaluate", "dirderiv", "transform", "subdiff", "gradient", "dini", "max-rule", "has-kinks",
        "sum-rule", "compose-outer", "compose-inner", "chain-rule-1d", "chain-rule-1d-check",
        "taylor"])
def test_text_is_not_an_expression(call):
    # text is parsed first; given as the expression it is refused at the door
    with pytest.raises(ValueError, match="^expected an expression, got a str$"):
        call()


def test_affine_inner_point_and_shapes():
    # y -> child(offset + matrix y), here child(1 + 2s, 3s)
    child = var(0) + var(1)
    aff = Affine(child, ((2.0,), (3.0,)), (1.0, 0.0))
    assert aff.arity == 1
    assert evaluate(aff, (2.0,)) == (1.0 + 4.0) + 6.0
    with pytest.raises(ValueError):
        Affine(child, ((2.0,),), (1.0,))  # child needs two inputs
    with pytest.raises(ValueError):
        Affine(var(0), ((1.0,), (2.0, 3.0)), (0.0, 0.0))  # ragged rows


def test_compose_requires_smooth_inner():
    outer = vabs(var(0))
    smooth_inner = sqr(var(0))
    c = compose(outer, (smooth_inner,))
    assert isinstance(c, SmoothCompose)
    assert evaluate(c, (2.0,)) == 4.0
    with pytest.raises(ValueError):
        compose(outer, (vabs(var(0)),))


def test_has_kinks():
    assert has_kinks(vabs(var(0)))
    assert has_kinks(vmin(var(0), Const(0.0)))
    assert not has_kinks(sqr(var(0)) + SmoothUnary("sin", var(0)))


def test_abs_desugars_to_max():
    e = vabs(var(0))
    assert isinstance(e, Max)
    assert len(e.children) == 2


@pytest.mark.parametrize("node", [Max, Min])
def test_max_and_min_take_any_iterable_of_children(node):
    kids = (var(0), var(2))
    e = node(c for c in kids)
    assert type(e) is node and e.children == kids and e.arity == 3
    assert repr(e) == f"{node.__name__}(children=(Var(index=0), Var(index=2)))"


def test_const_coercion_in_helpers():
    e = vmax(var(0), 0.0)
    assert isinstance(e.children[1], Const)
    assert evaluate(const(2) + 3, ()) == 5.0


def test_shared_subtrees_evaluate_once_per_point():
    # abs(e) is max(e, -e) sharing e: 100 levels would take 2^100 paths
    e = parse("abs(" * 100 + "x1" + ")" * 100)
    t0 = time.perf_counter()
    assert evaluate(e, (0.3,)) == 0.3
    assert time.perf_counter() - t0 < 0.1
    # one node under two different substitutions still sees both points
    h = vabs(var(0) - 1.0)
    two = Affine(h, ((2.0,),), (0.0,)) + Affine(h, ((-1.0,),), (0.0,))
    assert evaluate(two, (3.0,)) == 5.0 + 4.0


def test_shared_subtrees_walk_once_per_node():
    # 41 distinct nodes, 2^40 paths: each query visits every node once
    e = var(0)
    for _ in range(40):
        e = e + e
    t0 = time.perf_counter()
    assert not has_kinks(e)
    assert compose(var(0), [e]).arity == 1
    assert _exp_arguments_bounded(SmoothUnary("exp", 0.0 * e) + 0.0 * e, (0.1,), 3.0)
    assert time.perf_counter() - t0 < 0.5
    # a non-finite or out-of-domain exp argument still fails the check
    assert not _exp_arguments_bounded(SmoothUnary("exp", 1e300 * e), (0.1,), 3.0)
    assert not _exp_arguments_bounded(SmoothUnary("exp", SmoothUnary("log", e)), (-0.1,), 3.0)


def test_has_kinks_visits_each_node_once():
    # 81 distinct nodes under 2^40 distinct substitution contexts
    e = var(0)
    for _ in range(40):
        e = Affine(e, ((1.0,),), (0.0,)) + Affine(e, ((2.0,),), (0.0,))
    t0 = time.perf_counter()
    assert not has_kinks(e)
    assert compose(var(0), [e]).arity == 1
    assert has_kinks(Affine(e, ((1.0,),), (0.0,)) * vabs(e))
    assert time.perf_counter() - t0 < 0.5


def test_quotient_reads_numerator_first():
    # the numerator's domain error comes before the zero denominator, in
    # evaluation as in the derivative transform
    e = parse("log(x1-2)/(x1-1)")
    with pytest.raises(DomainError, match=r"^log undefined at -1\.0$"):
        evaluate(e, (1.0,))
    with pytest.raises(DomainError, match=r"^log undefined at -1\.0$"):
        dirderiv_transform(e, (1.0,))
    with pytest.raises(DomainError, match="^division by zero$"):
        evaluate(parse("log(x1)/(x1-1)"), (1.0,))


def test_repr_prints_shared_nodes_once():
    # a tree in which no composite node is reached twice keeps the dataclass text
    assert repr(parse("max(x1, 2*x2) - sin(x1)/x2")) == (
        "LinComb(alpha=1.0, left=Max(children=(Var(index=0), Product(left=Const(value=2.0), "
        "right=Var(index=1)))), beta=-1.0, right=Quotient(num=SmoothUnary(kind='sin', "
        "child=Var(index=0), exponent=0), den=Var(index=1)))"
    )
    # a composite node reached again is a back-reference; leaves stay inline
    e = parse("abs(x1 + x2)")
    assert repr(e) == (
        "Max(children=(LinComb(alpha=1.0, left=Var(index=0), beta=1.0, right=Var(index=1)), "
        "LinComb(alpha=-1.0, left=<LinComb #1>, beta=0.0, right=Const(value=0.0))))"
    )
    # 17 distinct nodes, 2^16 paths: the text grows with the nodes
    e = var(0)
    for _ in range(16):
        e = e + e
    assert len(repr(e)) < 2000 and repr(e).count("<LinComb #") == 15
    # a 5,000-deep chain takes no Python frames
    e = var(0)
    for _ in range(5000):
        e = SmoothUnary("sin", e)
    assert repr(e).count("SmoothUnary(kind='sin'") == 5000
