"""The engine's lexicographic sweep against the defining recursion.

``references.recursive_subdiff`` restricts the transform to every tangent slice
and transforms it again; ``engine.directed_subdiff`` reads the same levels
off one transform.  They must agree bit for bit: the same JSON text, the
same active-set flags and the same errors.
"""

import math
import random
import struct

import pytest

import dirsubdiff.deriv as deriv
import dirsubdiff.dirset as dirset
import dirsubdiff.engine as engine
from dirsubdiff.corpus import get_rng, random_rule_pair
from generators import random_max_affine
from dirsubdiff.dirset import ActiveSetInfo, SphereGrid
from dirsubdiff.engine import default_grid, directed_subdiff
from dirsubdiff.expr import (
    Affine, Const, DomainError, LinComb, Max, Min, Product, Quotient, Var, compose, dot,
    evaluate, vabs,
)
from references import recursive_subdiff
from dirsubdiff.parser import parse

SPHERE = SphereGrid.sphere(4, 8, 16)


def _unit(*v):
    r = math.sqrt(dot(v, v))
    return tuple(c / r for c in v)


# a few directions over the 3-D lattice: covers the levels below 3-D
GRID_4D = SphereGrid(
    4, (5,),
    [_unit(1.0, 2.0, -1.0, 0.5), (0.0, 0.0, 0.0, 1.0), _unit(-0.5, 0.5, 0.5, 0.5),
     _unit(0.3, -0.1, 0.0, -0.9), (1.0, 0.0, 0.0, 0.0)],
    SphereGrid.sphere(2, 3, 6),
)


def assert_agree(e, x, grid):
    want_info, got_info = ActiveSetInfo(), ActiveSetInfo()
    try:
        want = recursive_subdiff(e, x, grid, info=want_info)
    except (DomainError, ValueError) as exc:
        with pytest.raises(type(exc)) as caught:
            directed_subdiff(e, x, grid, info=got_info)
        assert str(caught.value) == str(exc)
        return
    got = directed_subdiff(e, x, grid, info=got_info)
    assert got.to_json(indent=None) == want.to_json(indent=None)
    assert got_info == want_info


def test_criterion_1_corpus():
    grid = SphereGrid.circle(180)
    rng = get_rng(1001)
    for _ in range(100):
        f1, f2, x = random_rule_pair(rng)
        alpha = round(rng.uniform(-2.0, 2.0), 3)
        beta = round(rng.uniform(-2.0, 2.0), 3)
        composites = [f1, f2, LinComb(alpha, f1, beta, f2), Product(f1, f2),
                      Max((f1, f2)), Min((f1, f2))]
        if evaluate(f2, x) != 0.0:
            composites.append(Quotient(f1, f2))
        for e in composites:
            assert_agree(e, x, grid)


def test_criterion_5_corpus():
    grid = SphereGrid.circle(90)
    rng = get_rng(1005)
    for _ in range(30):
        e, _, _ = random_max_affine(rng, n=2, zero_offsets=True)
        assert_agree(e, (0.0, 0.0), grid)
        x = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        assert_agree(e, x, grid)


@pytest.mark.parametrize("f, x", [
    ("max(x1, x2, x3, -x1 - x2 - x3) + abs(x1)", (0.0, 0.0, 0.0)),
    ("max(0.5 + x1 - 2*x2, 1.5 - x1 + x3, 0.5 + x2 + x3) + abs(x1 - x2 + x3 - 0.25)",
     (0.25, -0.5, 0.5)),
    ("sin(x1) * x2 + exp(x3) * x1 - 0.3 * x2 * x3", (0.4, -0.2, 0.7)),
])
def test_three_dimensions(f, x):
    assert_agree(parse(f), x, SPHERE)


def test_affine_contexts():
    # one subtree under two different substitutions, and a smooth composition
    h = parse("max(x1, -x1, 0.5 * x1)")
    e = Affine(h, ((1.0, 2.0, 0.0),), (0.0,)) + Affine(h, ((0.5, -1.0, 1.0),), (0.0,))
    assert_agree(e, (0.0, 0.0, 0.0), SPHERE)
    assert_agree(e, (1.0, -0.5, 0.0), SPHERE)
    c = compose(parse("max(x1, x2) + abs(x1 - x2)"), [parse("x1 + x2 * x3"), parse("x2 - x3")])
    assert_agree(c, (0.0, 0.0, 0.0), SPHERE)
    assert_agree(c, (0.0, 0.0), SphereGrid.circle(32))


@pytest.mark.parametrize("x, grid", [((1.0, 0.0), SphereGrid.circle(16)),
                                     ((1.0, 0.0, 0.0), SphereGrid.sphere(2, 4, 8))],
                         ids=["2-D", "3-D"])
def test_affine_with_an_empty_row(x, grid):
    # an empty matrix row is a constant substitution: its point is the offset
    e = Affine(parse("x1"), ((),), (0.5,)) + Var(0)
    assert evaluate(e, x) == 1.5
    assert_agree(e, x, grid)


@pytest.mark.parametrize("x", [(0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, -0.25)])
def test_four_dimensions(x):
    e = parse("max(x1 + x2, x3 - x4, -x1, x1 - x3) + abs(x2 - x3) - min(x4, 0.5 * x1)")
    assert_agree(e, x, GRID_4D)


def test_overflow_stays_a_domain_error():
    e = parse("1e300*max(1e300*x1, x2)")
    with pytest.raises(DomainError):
        recursive_subdiff(e, (0.0, 0.0), SphereGrid.circle(8))
    with pytest.raises(DomainError):
        directed_subdiff(e, (0.0, 0.0), SphereGrid.circle(8))
    assert_agree(e, (0.0, 0.0), SphereGrid.circle(8))
    assert_agree(parse("1e300*max(1e300*x1, x2, x3)"), (0.0, 0.0, 0.0), SPHERE)


def test_one_transform_per_subdifferential(monkeypatch):
    counts = {"transform": 0, "orthobasis": 0, "affine": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def no_restrict(*args, **kwargs):
        raise AssertionError("the sweep restricts nothing")

    monkeypatch.setattr(engine, "dirderiv_transform", counting("transform", engine.dirderiv_transform))
    monkeypatch.setattr(dirset, "orthobasis", counting("orthobasis", dirset.orthobasis))
    monkeypatch.setattr("dirsubdiff.deriv.restrict", no_restrict)
    monkeypatch.setattr(engine, "restrict", no_restrict, raising=False)
    monkeypatch.setattr(Affine, "__post_init__", counting("affine", Affine.__post_init__))
    grid = SphereGrid.sphere(4, 8, 16)  # a fresh grid: no bases computed yet
    e = parse("max(x1, x2, x3, -x1 - x2 - x3) + abs(x1)")
    directed_subdiff(e, (0.0, 0.0, 0.0), grid)
    assert counts == {"transform": 1, "orthobasis": len(grid) + len(grid.subgrid), "affine": 0}
    # the grid keeps its bases: a second call computes none
    directed_subdiff(e, (0.5, 0.0, 0.0), grid)
    assert counts == {"transform": 2, "orthobasis": len(grid) + len(grid.subgrid), "affine": 0}


def test_borderline_members_below_the_top_level():
    # directions 3.5e-9 off the tie of two members: the transform at x sees
    # an exact tie, only the narrowing at the direction sees the borderline gap
    near = _unit(1.0 + 5e-9, 1.0)
    circle = SphereGrid(2, (3,), [near, (0.0, 1.0), (-1.0, 0.0)], None)
    sphere = SphereGrid(3, (2,), [_unit(1.0 + 5e-9, 1.0, 0.5), (0.0, 0.0, 1.0)],
                        SphereGrid.circle(8))
    for e, x, grid in ((parse("max(x1, x2)"), (0.0, 0.0), circle),
                       (parse("max(x1, x2) + abs(x3)"), (0.0, 0.0, 0.0), sphere)):
        top = ActiveSetInfo()
        engine.dirderiv_transform(e, x, info=top)
        assert not top.borderline
        info = ActiveSetInfo()
        directed_subdiff(e, x, grid, info=info)
        assert info.borderline
        assert_agree(e, x, grid)


def test_overflowing_leaves_agree_with_the_recursion():
    # the supports stay finite at the first direction; its leaf pair overflows
    e = parse("1e300*(1e10*x2)")
    with pytest.raises(DomainError):
        recursive_subdiff(e, (0.0, 0.0), SphereGrid.circle(8))
    assert_agree(e, (0.0, 0.0), SphereGrid.circle(8))
    assert_agree(parse("1e300*(1e10*x3)"), (0.0, 0.0, 0.0), SPHERE)


# Errors follow walk order: direction by direction, each direction's node
# values in program order, then its leaf pair or the levels below it.


@pytest.mark.parametrize("x, grid", [((0.0, 0.0), SphereGrid.circle(8)), ((0.0, 0.0, 0.0), SPHERE)])
def test_first_overflow_in_walk_order(x, grid):
    # the first term comes first in program order but overflows (to +inf)
    # only from the second direction on: at the first direction x2 = 0, the
    # max narrows to x1, and the second term overflows to -inf
    e = parse("1e300*max(x1, 1e300*x2) + (-1e300)*(1e300*x1)")
    assert grid.directions[0][1] == 0.0
    with pytest.raises(DomainError, match="to -inf"):
        directed_subdiff(e, x, grid)
    assert_agree(e, x, grid)


def test_overflow_before_a_direction_where_every_member_overflows():
    # the first circle direction overflows in the first member only; from
    # the second on, both members are inf and no member is active there
    e = parse("max(1e300*(1e300*x1), 1e300*(1e300*x2))")
    assert_agree(e, (0.0, 0.0), SphereGrid.circle(8))
    assert_agree(parse("min(-1e300*(1e300*x1), -1e300*(1e300*x2))"), (0.0, 0.0),
                 SphereGrid.circle(8))
    # the same on the circle below a sphere direction: at (0, 0, 1) the
    # supports are finite, and its tangent circle lies in the x1-x2 plane
    sphere = SphereGrid(3, (2,), [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)], SphereGrid.circle(8))
    e3 = parse("max(1e300*(1e300*x1), 1e300*(1e300*x2)) + x3")
    with pytest.raises(DomainError):
        directed_subdiff(e3, (0.0, 0.0, 0.0), sphere)
    assert_agree(e3, (0.0, 0.0, 0.0), sphere)


def test_overflow_below_an_early_direction_wins():
    # at the first sphere direction (x2 = 0) the max narrows to x1 and both
    # terms are finite; below it the second term overflows to +inf, which
    # comes before the first term's -inf at the second sphere direction
    e = parse("(-1e300)*max(1e300*x2, x1) - 1e300*(1e300*x2)")
    g = engine.dirderiv_transform(e, (0.0, 0.0, 0.0))
    assert math.isfinite(g._eval(SPHERE.directions[0]))
    assert g._eval(SPHERE.directions[1]) == -math.inf
    with pytest.raises(DomainError, match="to inf"):
        directed_subdiff(e, (0.0, 0.0, 0.0), SPHERE)
    assert_agree(e, (0.0, 0.0, 0.0), SPHERE)


@pytest.mark.parametrize("e, sphere", [
    # the chain's end overflows first at the leaf pair of the first circle
    # direction (pure x2), where the end is the value walk order names
    (parse("(-1e300)*(1e300*(1e10*x2)) + x1"),
     SphereGrid(3, (2,), [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)], SphereGrid.circle(8))),
    # the first circle direction itself is x1: its inner product overflows
    # to inf before the chain's end, -inf, so the fused level's error text
    # comes from its rerun with one kernel per operation
    (parse("(-1e300)*(1e300*(1e10*x1)) + x2"),
     SphereGrid(3, (2,), [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)], SphereGrid.circle(8))),
], ids=["leaf-pair", "direction"])
def test_first_overflow_inside_a_kernel(e, sphere):
    # below the top level each expression is one kernel, and the top level
    # is finite: the overflow happens only in a fused level
    g = engine.dirderiv_transform(e, (0.0, 0.0, 0.0))
    assert all(math.isfinite(g._eval(l)) for l in sphere.directions)
    with pytest.raises(DomainError, match="overflows to inf "):
        directed_subdiff(e, (0.0, 0.0, 0.0), sphere)
    assert_agree(e, (0.0, 0.0, 0.0), sphere)


_EXTREME_CONSTANTS = (1e300, -1e300, 1e10, -1e10, 2.0, -0.5, 1e-300, -0.0, 5e-324)
_SMALL_CONSTANTS = (2.0, -0.5, 1e-300, -0.0, 5e-324)


def _random_kinked(rng, depth, variables=(0, 1, 2), constants=_EXTREME_CONSTANTS):
    """A 3-D expression over ``variables`` of linear combinations, constant
    factors and shifts, max, min and abs, its constants drawn from
    ``constants``."""
    if depth == 0 or rng.random() < 0.15:
        return Var(rng.choice(variables))
    c = rng.choice(constants)
    pick = rng.randrange(6)
    if pick == 0:
        return LinComb(c, _random_kinked(rng, depth - 1, variables, constants),
                       rng.choice(constants), _random_kinked(rng, depth - 1, variables, constants))
    if pick == 1:
        return Product(Const(c), _random_kinked(rng, depth - 1, variables, constants))
    if pick == 2:
        return _random_kinked(rng, depth - 1, variables, constants) + Const(c)
    if pick == 3:
        return vabs(_random_kinked(rng, depth - 1, variables, constants))
    kind = Max if pick == 4 else Min
    return kind(tuple(_random_kinked(rng, depth - 1, variables, constants)
                      for _ in range(rng.randrange(2, 4))))


@pytest.mark.parametrize("seed", range(4))
def test_extreme_constants_agree_with_the_recursion(seed):
    # chains of products and sums that overflow, underflow and carry signed
    # zeros, below kinks that narrow differently per direction; in the
    # second form only x2 meets the extreme constants, and x2 is 0 at the
    # first sphere direction, so the first overflow is often below it
    rng = random.Random(seed)
    for _ in range(4):
        x = tuple(rng.choice((0.0, 0.0, 0.5, -1.0)) for _ in range(3))
        assert_agree(_random_kinked(rng, 4), x, SPHERE)
        e = _random_kinked(rng, 4, (1,)) + _random_kinked(rng, 3, constants=_SMALL_CONSTANTS)
        assert_agree(e, (0.0, 0.0, 0.0), SPHERE)


def test_first_overflow_inside_a_top_level_kernel():
    # in 2-D the top level is the only level and runs fused: at the first
    # circle direction, x1, the inner product overflows to inf before the
    # chain's end, -inf, so the error text comes from the level's rerun
    e = parse("(-1e300)*(1e300*(1e10*x1)) + x2")
    circle = SphereGrid.circle(8)
    with pytest.raises(DomainError, match="overflows to inf at the base point"):
        directed_subdiff(e, (0.0, 0.0), circle)
    assert_agree(e, (0.0, 0.0), circle)


def test_every_level_runs_kernels(monkeypatch):
    # no linear form reaches the interpreter at any level, in 2-D or 3-D,
    # and a repeated call compiles no kernel again
    ran, run = set(), engine._Sweep._run

    def recording(self, program, *args):
        ran.update(ins[0] for ins in program)
        return run(self, program, *args)

    monkeypatch.setattr(engine._Sweep, "_run", recording)
    runs = [
        lambda: directed_subdiff(parse("max(x1, 2*x2 - 1) + abs(x1 - x2)"), (0.5, 0.5),
                                 default_grid(2)),
        lambda: directed_subdiff(parse("max(x1, x2, x3, -x1 - x2 - x3) + abs(x1)"),
                                 (0.0, 0.0, 0.0), SPHERE),
    ]
    for call in runs:
        ran.clear()
        call()
        assert engine._KERNEL in ran and deriv._LIN not in ran
        assert ran <= {engine._KERNEL, deriv._VAR, deriv._CONST, deriv._MAX, deriv._MIN}
        misses = engine._compile.cache_info().misses
        call()
        assert engine._compile.cache_info().misses == misses


def _bits(col):
    return [struct.pack("<d", v) for v in col]


def test_kernels_share_one_compile_per_shape():
    # chains of one shape differ in coefficients alone, which are closure
    # values: both take one factory, and each column is bitwise the one of
    # the per-operation comprehensions
    u = [0.0, -0.0, 1.5, -3.25, 1e-300, 5e-324, 1e300, -2.0]
    v = [-0.0, 0.0, -1.0, 7.0, -1e-300, 1.0, 1e10, 0.5]
    coefficients = [(2.0, -0.5, -0.0, 3.0), (-1e-300, 1e10, 0.0, 0.0)]
    engine._compile.cache_clear()
    for a, b, c, k in coefficients:
        # slot 2 = a * u + b * v, slot 3 = c * slot 2 + k, read by the root alone
        program = [(deriv._VAR, 0, 0, 0), (deriv._VAR, 1, 0, 1),
                   (deriv._LIN, 2, ((a, 0), (b, 1)), None), (deriv._LIN, 3, ((c, 2),), k)]
        fused = engine._fuse(program, [3])
        assert [ins[0] for ins in fused] == [deriv._VAR, deriv._VAR, engine._KERNEL]
        _, _, kernel, inputs = fused[2]
        assert inputs == (0, 1)
        inner = [a * x + b * y for x, y in zip(u, v)]
        assert _bits(kernel(u, v)) == _bits([c * w + k for w in inner])
    assert engine._compile.cache_info().misses == 1
    assert 0 < engine._compile.cache_info().maxsize < math.inf
    # at depth 1, as a failed level reruns, every operation is its own kernel
    rerun = engine._fuse(program, [3], 1)
    assert [ins[3] for ins in rerun if ins[0] == engine._KERNEL] == [(0, 1), (2,)]


def test_repeated_default_grid_call_compiles_no_kernel():
    e, x = parse("max(x1, x2, x3, -x1 - x2 - x3) + abs(x1)"), (0.0, 0.0, 0.0)
    first = directed_subdiff(e, x, default_grid(3))
    misses = engine._compile.cache_info().misses
    assert directed_subdiff(e, x, default_grid(3)).to_json() == first.to_json()
    assert engine._compile.cache_info().misses == misses


def _premise_values():
    # special doubles, then seeded random bit patterns: any exponent, and
    # subnormals (exponent field 0) on their own
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1e-300, -1e-300, 1.0, -1.0, 1.5, 1e300, -1e300, 1.7976931348623157e308,
              -1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan]
    rng = random.Random(20251)
    for _ in range(2000):
        values.append(struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0])
        subnormal = rng.getrandbits(52) | rng.getrandbits(1) << 63
        values.append(struct.unpack("<d", struct.pack("<Q", subnormal))[0])
    return values


def test_kernel_identities_keep_every_bit():
    # kernels leave out ``1.0 *`` and ``+ -0.0``: both are the operand bit
    # for bit on every double, and NaN stays NaN
    for x in _premise_values():
        for got in (1.0 * x, x + -0.0):
            if math.isnan(x):
                assert math.isnan(got)
            else:
                assert struct.pack("<d", got) == struct.pack("<d", x), x


def test_identity_coefficients_select_their_own_shapes():
    # chains that differ only in a 1.0 coefficient or a -0.0 constant
    # compile separate shapes; any other value is a closure value
    engine._compile.cache_clear()
    sources = []
    for a, k in [(2.0, 3.0), (1.0, 3.0), (2.0, -0.0), (1.0, -0.0),
                 (-1.0, 0.0), (0.0, -3.0), (-0.0, 1e-300)]:
        engine._fuse([(deriv._VAR, 0, 0, 0), (deriv._LIN, 1, ((a, 0),), k)], [1])
        sources.append(engine._render(((a, 0),), k, {}, []))
    assert sources[:4] == ["k0 * v0 + k1", "v0 + k0", "k0 * v0", "v0"]
    assert set(sources[4:]) == {sources[0]}
    assert engine._compile.cache_info().misses == 4


_SPECIALS = [0.0, -0.0, math.inf, -math.inf, 5e-324, 1e-300, 1e300]


@pytest.mark.parametrize("a", [1.0, -1.0, 0.0, -0.0, 2.5])
@pytest.mark.parametrize("k", [None, 0.0, -0.0, 3.0])
def test_kernels_without_identities_keep_the_bits(a, k):
    # slot 2 = a * u + k, slot 3 = a * slot 2 + k (with ``+ a * v`` for
    # k None): fused and at depth 1, each column is bitwise the one of the
    # per-operation comprehensions, which multiply by 1.0 and add -0.0
    u, v = zip(*[(x, y) for x in _SPECIALS for y in _SPECIALS])
    if k is None:
        forms = [(((a, 0), (a, 1)), None), (((a, 2), (a, 1)), None)]
        inner = [a * x + a * y for x, y in zip(u, v)]
        want = [a * w + a * y for w, y in zip(inner, v)]
    else:
        forms = [(((a, 0),), k), (((a, 2),), k)]
        inner = [a * x + k for x in u]
        want = [a * w + k for w in inner]
    program = [(deriv._VAR, 0, 0, 0), (deriv._VAR, 1, 0, 1)]
    program += [(deriv._LIN, s, pairs, c) for s, (pairs, c) in zip((2, 3), forms)]
    fused = engine._fuse(program, [3])
    _, _, kernel, inputs = fused[-1]
    assert _bits(kernel(*[(u, v)[i] for i in inputs])) == _bits(want)
    rerun = engine._fuse(program, [3], 1)
    cols = {0: u, 1: v}
    for _, s, kernel, inputs in rerun[2:]:
        cols[s] = kernel(*[cols[i] for i in inputs])
    assert _bits(cols[2]) == _bits(inner) and _bits(cols[3]) == _bits(want)


# Linear combinations with a constant operand: the transform of c * x2 is
# c * u2 + x2 * 0.0 (constant right operand), of x2 * c it is
# x2 * 0.0 + c * u2 (constant left operand), and of (-2) * (-3) it is
# -2 * 0.0 + -3 * 0.0 = -0.0 (both constant).  The zero term is -0.0 for
# x2 < 0 and +0.0 for x2 > 0, where it turns a -0.0 product into +0.0.

_CONSTANT_OPERANDS = {
    "right": Product(Const(-1.0), Var(1)),
    "left": Product(Var(1), Const(-1.0)),
    "both": Product(Const(-2.0), Const(-3.0)) + Product(Const(-1.0), Var(1)),
}


@pytest.mark.parametrize("case", sorted(_CONSTANT_OPERANDS))
@pytest.mark.parametrize("x2", [-0.5, 0.5])
@pytest.mark.parametrize("dim", [2, 3])
def test_constant_operands_keep_signed_zeros(case, x2, dim):
    e = _CONSTANT_OPERANDS[case]
    x, grid = ((0.0, x2), SphereGrid.circle(8)) if dim == 2 else ((0.0, x2, 0.0), SPHERE)
    assert_agree(e, x, grid)
    # the first direction has u2 = 0, where -1 * u2 is -0.0
    s = directed_subdiff(e, x, grid)
    assert math.copysign(1.0, s.levels[0][0]) == math.copysign(1.0, x2)
    if x2 < 0.0:
        assert "-0.0" in s.to_json()


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_records_equal_but_for_a_signed_zero_keep_their_slots(dim):
    # the two inner sums have records that differ only in -0.0 against 0.0
    # coefficients, which compare equal: a tape that shared them by value
    # would read -0.0 where their sum is 0.0
    def terms(c):
        e = LinComb(c, Var(0), c, Var(1))
        return LinComb(1.0, e, c, Var(2)) if dim == 3 else e

    e = LinComb(1.0, terms(-0.0), 1.0, terms(0.0))
    grid = SphereGrid.circle(8) if dim == 2 else SphereGrid.sphere(2, 4, 8)
    x = (0.3, 0.5, 0.7)[:dim]
    want = recursive_subdiff(e, x, grid)
    assert "-0.0" not in want.to_json()
    assert_agree(e, x, grid)


# The lifted leaf points a grid keeps (``SphereGrid.lifted_columns``): they
# belong to the grid whose bases lift them, and the sweep reads them only.

def _fresh_lift(grid):
    return tuple(tuple(dirset._apply(rows, grid.subgrid.sweep_columns)) for rows in grid.tangent_rows)


def _as_lists(lifted):
    return tuple(tuple(list(col) for col in cols) for cols in lifted)


def test_spheres_on_one_circle_keep_their_own_lifts():
    circle = SphereGrid.circle(8)
    first = SphereGrid(3, (2,), [_unit(1.0, 2.0, -1.0), (0.0, 0.0, 1.0)], circle)
    second = SphereGrid(3, (2,), [(1.0, 0.0, 0.0), _unit(-0.5, 0.5, 2.0)], circle)
    e = parse("max(x1 + x2, x3 - x1, -x2) + abs(x1 - x3)")
    for grid in (first, second, first):  # each call after the other grid's lift
        assert_agree(e, (0.0, 0.0, 0.0), grid)
    assert first.lifted_columns is not second.lifted_columns
    for grid in (first, second):
        assert repr(_as_lists(grid.lifted_columns)) == repr(_fresh_lift(grid))
    assert repr(_fresh_lift(first)) != repr(_fresh_lift(second))


def _count_lifts(monkeypatch) -> list:
    """The row count of every lift the engine makes from now on."""
    lifts = []

    def counting(rows, cols):
        lifts.append(len(rows))
        return dirset._apply(rows, cols)

    monkeypatch.setattr(engine, "_apply", counting)
    return lifts


def test_repeated_call_lifts_no_root_context(monkeypatch):
    e, x = parse("x1"), (0.0, 0.0, 0.0)
    first = directed_subdiff(e, x, default_grid(3))
    lifts = _count_lifts(monkeypatch)
    assert directed_subdiff(e, x, default_grid(3)).to_json() == first.to_json()
    assert lifts == []  # x1 has no affine context, and the grid keeps its lift


def test_kept_lifts_are_not_written_by_the_sweep():
    # a bare Var root's column is the kept one, and a leaf max/min picks
    # from such columns below the directions where its members tie (every
    # 45 degrees of azimuth here): neither may change them in place
    grid = SphereGrid.sphere(4, 8, 16)
    x = (0.0, 0.0, 0.0)
    for text in ("x1", "x3", "max(x1, x2)", "max(x2, x1)", "min(x1, x2)", "min(x2, x1)",
                 "max(x1, -x2)", "min(-x2, x1)", "max(x1, x2, x3) + x3"):
        directed_subdiff(parse(text), x, grid)
    engine.directed_subdiffs([parse("x2"), parse("min(x1, x3)")], x, grid)
    assert repr(_as_lists(grid.lifted_columns)) == repr(_fresh_lift(grid))


def test_a_grid_over_the_lift_budget_lifts_per_call(monkeypatch):
    e, x = parse("max(x1, x2, x3, -x1 - x2 - x3) + abs(x1)"), (0.0, 0.0, 0.0)
    want = directed_subdiff(e, x, SphereGrid.sphere(4, 8, 16)).to_json()
    monkeypatch.setattr(dirset, "_LIFT_BUDGET", 0)
    grid = SphereGrid.sphere(4, 8, 16)  # a fresh grid: its lift is not yet decided
    lifts = _count_lifts(monkeypatch)
    assert directed_subdiff(e, x, grid).to_json() == want
    assert grid.lifted_columns is None
    assert lifts == [3] * len(grid)  # one lift per top direction, as before the cache
