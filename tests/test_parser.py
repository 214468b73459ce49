import pytest

from dirsubdiff.expr import (
    Const,
    LinComb,
    Max,
    Min,
    Product,
    Quotient,
    SmoothUnary,
    Var,
    evaluate,
)
from dirsubdiff.dirset import SphereGrid
from dirsubdiff.engine import directed_subdiff
from dirsubdiff.parser import MAX_NESTING, ParseError, parse


def test_abs_difference_shape():
    e = parse("abs(x1) - abs(x2)")
    assert isinstance(e, LinComb)
    assert isinstance(e.left, Max)
    assert isinstance(e.right, Max)
    assert e.arity == 2


def test_max_three_children():
    e = parse("max(x1, x2, 0.0)")
    assert isinstance(e, Max)
    assert len(e.children) == 3


def test_quotient_node():
    e = parse("abs(x1)/(1.0 + sqr(x1))")
    assert isinstance(e, Quotient)


def test_variables_are_one_based():
    e = parse("x1")
    assert isinstance(e, Var)
    assert e.index == 0
    assert parse("x3").arity == 3
    with pytest.raises(ParseError):
        parse("x0")


def test_precedence_and_associativity():
    assert evaluate(parse("1.0 + 2.0 * 3.0"), ()) == 7.0
    assert evaluate(parse("(1.0 + 2.0) * 3.0"), ()) == 9.0
    assert evaluate(parse("8.0 / 4.0 / 2.0"), ()) == 1.0
    assert evaluate(parse("8.0 - 4.0 - 2.0"), ()) == 2.0
    assert evaluate(parse("-x1 + 2.0"), (3.0,)) == -1.0
    assert evaluate(parse("2.0*-x1"), (1.5,)) == -3.0


def test_scientific_notation():
    assert evaluate(parse("1e-3 + 2.5E2"), ()) == 0.001 + 250.0


def test_unary_calls():
    for name in ("sin", "cos", "exp", "log", "sqr", "sqrt"):
        e = parse(f"{name}(x1)")
        assert isinstance(e, SmoothUnary)
        assert e.kind == name


def test_pow_call():
    e = parse("pow(x1, 4)")
    assert isinstance(e, SmoothUnary)
    assert e.kind == "pow"
    assert e.exponent == 4
    assert evaluate(e, (2.0,)) == 16.0
    with pytest.raises(ParseError):
        parse("pow(x1, 1)")
    with pytest.raises(ParseError):
        parse("pow(x1, x2)")
    with pytest.raises(ParseError):
        parse("pow(x1, 2.5)")


def test_min_call():
    e = parse("min(x1, -x1)")
    assert isinstance(e, Min)


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse("abs(x1")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("max(x1)")
    with pytest.raises(ParseError):
        parse("foo(x1)")
    with pytest.raises(ParseError):
        parse("x1 +")
    with pytest.raises(ParseError):
        parse("x1 x2")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("1.0 @ 2.0")


def test_nested_expression():
    e = parse("max(abs(x1) - 0.5, min(x1*x2, sqr(x2)), 0.0)")
    assert evaluate(e, (2.0, 1.0)) == 1.5


def test_whitespace_insensitive():
    assert evaluate(parse("  abs( x1 )+ 1.0 "), (-1.0,)) == 2.0


@pytest.mark.parametrize("text, position", [
    ("(" * 3000 + "x1" + ")" * 3000, MAX_NESTING),
    ("-" * 3000 + "x1", MAX_NESTING),
    ("sin(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1), 4 * MAX_NESTING),
])
def test_nesting_past_the_cap_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_nesting_up_to_the_cap_parses():
    assert evaluate(parse("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING), (2.0,)) == 2.0
    assert evaluate(parse("-" * MAX_NESTING + "x1"), (2.0,)) == 2.0
    calls = parse("sin(" * MAX_NESTING + "x1 + x2" + ")" * MAX_NESTING)
    assert len(directed_subdiff(calls, (0.3, 0.1), SphereGrid.circle(8)).supports) == 8


@pytest.mark.parametrize("text, message, position", [
    # only ASCII is read: a Unicode letter or digit is not a name or a number
    ("é", "unexpected character 'é'", 0),
    ("x1 + ١", "unexpected character '١'", 5),
    ("1١", "unexpected character '١'", 1),
    ("y", "unknown identifier 'y'", 0),
    (".", "bad number starting with '.'", 0),
    ("pow(x1)", "pow takes exactly two arguments", 0),
    ("pow(x1, 2, 3)", "pow takes exactly two arguments", 0),
    ("1 + sin(x1, x2)", "sin takes exactly one argument", 4),
    # a value its node refuses is named at its token
    ("1e400*x1", "constant must be finite, got inf", 0),
    ("x1 + x99999999999999999999", "variable index must be >= 0, an integer below 2**63", 5),
    ("pow(x1, 1e20)", "pow exponent must be >= 2, an integer below 2**63", 8),
    # only text is parsed
    (b"x1", "expected expression text, got a bytes", 0),
    (None, "expected expression text, got a NoneType", 0),
    (1.0, "expected expression text, got a float", 0),
])
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert message in str(err.value)
    assert err.value.position == position


def test_unary_plus():
    e = parse("+x1")
    assert isinstance(e, Var) and e.index == 0
    assert evaluate(parse("2 * +x1"), (1.5,)) == 3.0
