"""Parser for the small infix function language.

Grammar (whitespace insensitive)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := ("-" | "+") unary | atom
    atom   := NUMBER | VARIABLE | call | "(" expr ")"
    call   := NAME "(" expr ("," expr)* ")"

Variables are ``x1 .. xn`` (1-based).  Calls: ``max`` and ``min`` with two or
more arguments, the unary ``abs``, ``sin``, ``cos``, ``exp``, ``log``,
``sqr``, ``sqrt``, and ``pow(e, k)`` with a literal integer exponent ``k >= 2``.
``abs(e)`` desugars to ``max(e, -e)`` during parsing.

Parentheses, calls and unary signs may nest at most :data:`MAX_NESTING`
deep; deeper input is a :class:`ParseError`, raised before the parser's own
recursion could run out of stack.  Long binary chains such as ``x1+x1+...``
are read iteratively and are not capped.
"""

from __future__ import annotations

import re

from .expr import (
    Const,
    Expr,
    LinComb,
    Max,
    Min,
    Product,
    Quotient,
    SMOOTH_KINDS,
    SmoothUnary,
    Var,
    neg,
    vabs,
)


class ParseError(ValueError):
    """Syntax or name error, carrying the character offset in ``position``."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VARIABLE = re.compile(r"x(\d+)\Z")

#: one-argument calls: ``abs`` and the smooth primitives (``pow`` is matched first)
_UNARY_CALLS = ("abs", *SMOOTH_KINDS)

#: deepest nesting of parentheses, calls and unary signs the parser accepts.
#: The parser reads nesting by recursion: under the default recursion limit
#: of 1000, called from a shallow stack, it runs out of stack at 165 nested
#: calls (six frames per call), 198 parentheses and 495 unary signs.  A cap
#: of 100 leaves about 400 frames for the caller.  ``+``/``*`` chains are
#: read iteratively and not capped.  Evaluation and the derivative
#: transform walk expressions on their own stack (:func:`dirsubdiff.expr.walk`),
#: and the engine runs the transform's tape, so no expression, parsed or
#: built in Python, takes a frame per node there.
MAX_NESTING = 100


def _tokenize(text: str):
    """Split ``text`` into tokens.  Only ASCII is read: any other character,
    a Unicode digit or letter included, is a :class:`ParseError`."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if not ch.isascii():
            raise ParseError(f"unexpected character {ch!r}", i)
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(text, i)
            if not m:
                raise ParseError(f"bad number starting with {ch!r}", i)
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _NAME.match(text, i)
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/(),":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _node(at: int, kind, *args) -> Expr:
    """``kind(*args)``, whose refusal of a token's value is a :class:`ParseError` at ``at``."""
    try:
        return kind(*args)
    except ValueError as exc:
        raise ParseError(str(exc), at) from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, at: int, parse_inner, *args) -> Expr:
        """Run ``parse_inner`` one nesting level deeper than the caller."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} levels deep", at)
        self.depth += 1
        node = parse_inner(*args)
        self.depth -= 1
        return node

    def expect_op(self, op: str):
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            shown = text if text else "end of input"
            raise ParseError(f"expected {op!r}, found {shown!r}", at)
        return self.take()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {text!r}", at)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                node = LinComb(1.0, node, 1.0 if text == "+" else -1.0, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.unary()
                node = Product(node, rhs) if text == "*" else Quotient(node, rhs)
            else:
                return node

    def unary(self) -> Expr:
        kind, text, at = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return neg(self.nest(at, self.unary))
        if kind == "op" and text == "+":
            self.take()
            return self.nest(at, self.unary)
        return self.atom()

    def atom(self) -> Expr:
        kind, text, at = self.take()
        if kind == "num":
            return _node(at, Const, float(text))
        if kind == "name":
            var_match = _VARIABLE.match(text)
            if var_match:
                index = int(var_match.group(1))
                if index < 1:
                    raise ParseError("variables are numbered from x1", at)
                return _node(at, Var, index - 1)
            next_kind, next_text, _ = self.peek()
            if not (next_kind == "op" and next_text == "("):
                raise ParseError(f"unknown identifier {text!r}", at)
            return self.nest(at, self.call, text, at)
        if kind == "op" and text == "(":
            node = self.nest(at, self.expr)
            self.expect_op(")")
            return node
        shown = text if text else "end of input"
        raise ParseError(f"unexpected {shown!r}", at)

    def call(self, name: str, at: int) -> Expr:
        self.expect_op("(")
        starts, args = [], []
        while True:
            starts.append(self.peek()[2])
            args.append(self.expr())
            kind, text, _ = self.peek()
            if not (kind == "op" and text == ","):
                break
            self.take()
        self.expect_op(")")

        if name in ("max", "min"):
            if len(args) < 2:
                raise ParseError(f"{name} needs at least two arguments", at)
            return Max(tuple(args)) if name == "max" else Min(tuple(args))
        if name == "pow":
            if len(args) != 2:
                raise ParseError("pow takes exactly two arguments", at)
            base, expo = args
            if not isinstance(expo, Const) or expo.value != int(expo.value) or expo.value < 2:
                raise ParseError("pow exponent must be an integer literal >= 2", at)
            return _node(starts[1], SmoothUnary, "pow", base, int(expo.value))
        if name in _UNARY_CALLS:
            if len(args) != 1:
                raise ParseError(f"{name} takes exactly one argument", at)
            if name == "abs":
                return vabs(args[0])
            return SmoothUnary(name, args[0])
        raise ParseError(f"unknown function {name!r}", at)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` with a character position on syntax errors,
    unknown identifiers and malformed calls, and at position 0 when
    ``text`` is not a ``str``.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected expression text, got a {type(text).__name__}", 0)
    return _Parser(text).parse()
