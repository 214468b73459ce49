import json
import math
import re

import pytest

from dirsubdiff.corpus import get_rng, random_directed_set
from generators import random_interval
from dirsubdiff.dirset import (
    ActiveSetInfo,
    DirectedInterval,
    DirectedSet,
    GridMismatchError,
    SphereGrid,
    _content_id,
    directed_zero,
    distance,
    embed_interval,
    embed_point,
    embed_polygon,
    inf,
    leq,
    linear_combination,
    norm,
    scale,
    sup,
)
from dirsubdiff.engine import directed_subdiff, embed_gradient
from dirsubdiff.expr import vmax, vmin
from dirsubdiff.parser import parse

SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


def leaf(a, b):
    return DirectedSet.leaf(a, b)


# ---------------------------------------------------------------------------
# intervals and embeddings


def test_interval_endpoints_and_inversion():
    iv = DirectedInterval(1.0, 1.0)  # embed of [-1, 1]
    assert iv.lower_endpoint == -1.0
    assert iv.upper_endpoint == 1.0
    assert not iv.is_inverted
    assert DirectedInterval(-1.0, -1.0).is_inverted
    assert not DirectedInterval(0.0, 0.0).is_inverted


def test_embed_interval():
    assert embed_interval(-1.0, 1.0) == DirectedInterval(1.0, 1.0)
    assert embed_interval(0.0, 0.0) == DirectedInterval(0.0, 0.0)
    assert embed_interval(2.0, 5.0) == DirectedInterval(-2.0, 5.0)
    with pytest.raises(ValueError):
        embed_interval(1.0, 0.0)


def test_embed_point_plane():
    g = SphereGrid.circle(4)
    s = embed_point((3.0, 4.0), g)
    for l, support, lower in zip(g.directions, s.supports, s.lowers):
        assert support == 3.0 * l[0] + 4.0 * l[1]
        r = (-l[1], l[0])
        proj = 3.0 * r[0] + 4.0 * r[1]
        assert lower.interval == DirectedInterval(-proj, proj)


def test_embed_point_1d():
    assert embed_point((2.5,)).interval == DirectedInterval(-2.5, 2.5)


def test_embed_polygon_square_faces():
    g = SphereGrid.circle(4)
    s = embed_polygon(SQUARE, g)
    # l = (1, 0): support 1, face {1} x [-1, 1] projected through R = (0, 1)
    assert s.supports[0] == 1.0
    assert s.lowers[0].interval == embed_interval(-1.0, 1.0)


def test_embed_polygon_singleton_matches_point():
    g = SphereGrid.circle(8)
    assert embed_polygon([(3.0, 4.0)], g) == embed_point((3.0, 4.0), g)


def test_embed_polygon_diagonal_segment():
    g = SphereGrid.circle(8)
    s = embed_polygon([(1.0, 0.0), (0.0, 1.0)], g)
    # the grid direction at 45 degrees supports the whole segment
    l = g.directions[1]
    assert abs(s.supports[1] - 1.0 / math.sqrt(2.0)) < 1e-15
    low = s.lowers[1].interval
    assert low.upper_endpoint - low.lower_endpoint > 1.0  # spans both endpoints
    # a generic direction supports a single vertex
    assert s.lowers[0].interval.upper_endpoint == s.lowers[0].interval.lower_endpoint


def test_embed_polygon_interior_points_ignored():
    g = SphereGrid.circle(8)
    assert embed_polygon(SQUARE + [(0.0, 0.0), (0.5, 0.5)], g) == embed_polygon(SQUARE, g)


def test_polygon_faces_use_the_active_set_rule():
    # the vertex supports differ by 5e-10 at l = (1, 0): inside the relative
    # active-set tolerance, so the face there is the whole edge, as in the
    # transform of the max of the two linear pieces
    g = SphereGrid.circle(4)
    hull = embed_polygon([(1.0, -1.0), (1.0 + 5e-10, 1.0)], g)
    f = parse("max(x1 - x2, 1.0000000005*x1 + x2)")
    assert distance(hull, directed_subdiff(f, (0.0, 0.0), g)) == 0.0


_PLANE = SphereGrid.circle(4)
_NOT_A_GRID = "a directed set's grid must be a SphereGrid or None"


@pytest.mark.parametrize("call, message", [
    (lambda: embed_polygon([], _PLANE), "polygon needs at least one vertex"),
    (lambda: embed_polygon([(0.0, 0.0), (1.0, 0.0, 0.0)], _PLANE), "polygon vertices must be 2-D"),
    (lambda: embed_polygon([(0.0, math.nan)], _PLANE), "polygon vertices must be finite"),
    (lambda: embed_polygon([(0.0, 0.0)], SphereGrid.sphere(2, 4, 8)),
     "polygon embedding needs a 2-D grid"),
    (lambda: embed_point((), _PLANE), "point must have at least one coordinate"),
    (lambda: embed_point((1.0, 2.0, 3.0), _PLANE),
     "a 3-D point needs a grid of dimension 3"),
    (lambda: linear_combination(math.inf, leaf(0.0, 0.0), 1.0, leaf(0.0, 0.0)),
     "coefficients must be finite"),
    (lambda: directed_zero(0), "dimension must be >= 1"),
    (lambda: distance(leaf(1e308, 0.0), leaf(-1e308, 0.0)), "support values must be finite"),
    # an int too large for a float is a non-finite number, not an OverflowError
    (lambda: DirectedSet.leaf(0.0, 10**400), "directed interval entries must be finite"),
    (lambda: embed_interval(-10**400, 0.0), "interval endpoints must be finite"),
    (lambda: embed_point((10**400,)), "interval endpoints must be finite"),
    (lambda: embed_point((0.0, 10**400), _PLANE), "support values must be finite"),
    (lambda: embed_polygon([(0.0, 0.0), (10**400, 0.0)], _PLANE), "polygon vertices must be finite"),
    (lambda: linear_combination(1.0, leaf(0.0, 0.0), 10**400, leaf(0.0, 0.0)),
     "coefficients must be finite"),
    # a combination of finite sets can overflow to inf
    (lambda: linear_combination(1e308, embed_point((1.0, 0.0), _PLANE), 1e308,
                                embed_point((1.0, 0.0), _PLANE)),
     "support values must be finite"),
    (lambda: linear_combination(1e308, DirectedSet(_PLANE, ((0.0,) * 4,), (0.0,) * 4, (1.0,) * 4),
                                1e308, DirectedSet(_PLANE, ((0.0,) * 4,), (0.0,) * 4, (1.0,) * 4)),
     "directed interval entries must be finite"),
    (lambda: DirectedSet("circle", (), (0.0,), (0.0,)), _NOT_A_GRID),
    (lambda: DirectedSet.node(_PLANE, [0.0] * 4, [leaf(0.0, 0.0)] * 3),
     "supports/lowers length must match the grid"),
    (lambda: random_directed_set(get_rng(0), 3, _PLANE), "dim >= 2 needs a grid of matching dim"),
    # a grid that is not a grid, on every path
    (lambda: directed_subdiff(parse("abs(x1)"), (0.0, 0.0), "ab"), _NOT_A_GRID),
    (lambda: embed_point((1.0, 2.0), "ab"), _NOT_A_GRID),
    (lambda: directed_zero(2, "ab"), _NOT_A_GRID),
    (lambda: embed_polygon(SQUARE, None), "polygon embedding needs a 2-D grid"),
    (lambda: DirectedSet.node("ab", [0.0] * 4, [leaf(0.0, 0.0)] * 4), _NOT_A_GRID),
    (lambda: DirectedSet.node(None, [], []), "a directed set node needs a grid"),
    (lambda: SphereGrid(3, (1, 1), [(0.0, 0.0, 1.0)], "x"), _NOT_A_GRID),
    # a 1-D point takes no grid, on every path
    (lambda: directed_subdiff(parse("abs(x1)"), (0.0,), _PLANE), "a 1-D point takes no grid"),
    (lambda: embed_point((1.0,), _PLANE), "a 1-D point takes no grid"),
    (lambda: embed_gradient(parse("x1*x1"), (1.0,), _PLANE), "a 1-D point takes no grid"),
    (lambda: directed_zero(1, _PLANE), "a 1-D directed zero takes no grid"),
], ids=["polygon-empty", "polygon-3d-vertex", "polygon-nan", "polygon-3d-grid", "point-empty",
        "point-grid-dim", "lincomb-inf", "zero-dim-0", "distance-overflow", "leaf-huge",
        "interval-huge", "point-1d-huge", "point-2d-huge", "polygon-huge", "lincomb-huge",
        "lincomb-overflow-supports", "lincomb-overflow-leaves",
        "set-grid-type", "node-lowers", "random-set-grid-dim",
        "subdiff-grid-str", "point-grid-str", "zero-grid-str", "polygon-grid-none",
        "node-grid-str", "node-grid-none", "subgrid-str", "subdiff-1d-grid", "point-1d-grid",
        "gradient-1d-grid", "zero-1d-grid"])
def test_bad_arguments_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()



# ---------------------------------------------------------------------------
# linear structure


def test_linear_combination_1d():
    a = leaf(1.0, 1.0)     # embed [-1, 1]
    b = leaf(-1.0, 1.0)    # embed {1}
    assert linear_combination(1.0, a, 1.0, b).interval == DirectedInterval(0.0, 2.0)


def test_scalar_negation_inverts():
    a = DirectedSet.from_interval(embed_interval(-1.0, 1.0))
    assert scale(-1.0, a).interval == DirectedInterval(-1.0, -1.0)


def test_zero_is_neutral():
    g = SphereGrid.circle(8)
    rng = get_rng(11)
    a = random_directed_set(rng, 2, g)
    z = directed_zero(2, g)
    assert linear_combination(1.0, a, 1.0, z) == a
    assert a + z == a


def test_operator_sugar_on_sets():
    a = leaf(1.0, 2.0)
    b = leaf(0.5, -1.0)
    assert (a + b).interval == DirectedInterval(1.5, 1.0)
    assert (a - b).interval == DirectedInterval(0.5, 3.0)
    assert (-a).interval == DirectedInterval(-1.0, -2.0)
    assert (2.0 * a).interval == DirectedInterval(2.0, 4.0)
    assert (a * 2.0) == 2.0 * a


def test_set_value_semantics():
    a = leaf(1.0, 2.0)
    assert repr(a) == "DirectedSet.leaf(1.0, 2.0)" and a.lowers is None
    s = embed_point((3.0, -4.0), _PLANE)
    assert repr(s) == f"<DirectedSet dim=2 grid={_PLANE.id} norm={norm(s)!r}>"
    assert hash(s) == hash(embed_point((3.0, -4.0), _PLANE)) and len({a, leaf(1.0, 2.0)}) == 1
    with pytest.raises(AttributeError, match="DirectedSet is immutable"):
        del a.dim
    # operators against a non-set return NotImplemented, so Python decides
    assert a != (1.0, 2.0) and not a == 1.0
    for op in (lambda: a + 1.0, lambda: a - 1.0, lambda: a * "2", lambda: "2" * a):
        with pytest.raises(TypeError):
            op()


def test_dim_mismatch_rejected():
    g = SphereGrid.circle(8)
    a = random_directed_set(get_rng(1), 2, g)
    with pytest.raises(ValueError):
        linear_combination(1.0, a, 1.0, leaf(0.0, 0.0))


def test_grid_mismatch_rejected():
    a = random_directed_set(get_rng(1), 2, SphereGrid.circle(8))
    b = random_directed_set(get_rng(2), 2, SphereGrid.circle(16))
    with pytest.raises(GridMismatchError):
        linear_combination(1.0, a, 1.0, b)


def test_norm():
    assert norm(leaf(3.0, -2.0)) == 3.0
    assert norm(directed_zero(1)) == 0.0
    g = SphereGrid.circle(8)
    assert norm(directed_zero(2, g)) == 0.0
    s = embed_polygon(SQUARE, g)
    assert abs(norm(s) - math.sqrt(2.0)) < 1e-15


# ---------------------------------------------------------------------------
# lattice operations


def test_sup_1d_examples():
    # sup of embedded {1} and {-1} is the embedded interval [-1, 1]
    assert sup([leaf(-1.0, 1.0), leaf(1.0, -1.0)]).interval == DirectedInterval(1.0, 1.0)
    a = DirectedSet.from_interval(embed_interval(0.0, 2.0))
    b = DirectedSet.from_interval(embed_interval(1.0, 3.0))
    assert sup([a, b]).interval == embed_interval(0.0, 3.0)


def test_inf_1d_examples():
    a = DirectedSet.from_interval(embed_interval(-1.0, 1.0))
    b = DirectedSet.from_interval(embed_interval(0.0, 2.0))
    assert inf([a, b]).interval == embed_interval(0.0, 1.0)
    # inf of two points crosses over into an inverted interval
    got = inf([leaf(0.0, 0.0), leaf(-1.0, 1.0)]).interval
    assert got == DirectedInterval(-1.0, 0.0)
    assert got.is_inverted


def test_sup_inf_singleton_identity():
    a = leaf(0.3, -0.7)
    assert sup([a]) == a
    assert inf([a]) == a
    with pytest.raises(ValueError):
        sup([])


def test_sup_of_embedded_points_is_polygon():
    g = SphereGrid.circle(8)
    e1 = embed_point((1.0, 0.0), g)
    e2 = embed_point((0.0, 1.0), g)
    hull = embed_polygon([(1.0, 0.0), (0.0, 1.0)], g)
    assert distance(sup([e1, e2]), hull) == 0.0


def test_active_set_flags():
    # the second point is displaced along x only near l = (1, 0); the 0.3
    # offset keeps every other direction decisively resolved
    g = SphereGrid.circle(4)
    base = embed_point((1.0, 0.0), g)
    # support gap below the activity tolerance: a tie
    info = ActiveSetInfo()
    sup([base, embed_point((1.0 + 1e-10, 0.3), g)], info=info)
    assert info.ties
    # gap just above it: borderline, not a tie
    info = ActiveSetInfo()
    sup([base, embed_point((1.0 + 8e-9, 0.3), g)], info=info)
    assert info.borderline
    assert not info.ties


@pytest.mark.parametrize(
    "combine, members",
    [(sup, ("x1", "0.9999999985*x1 + 0.5*x2")), (inf, ("-x1", "-0.9999999985*x1 - 0.5*x2"))],
)
def test_sup_inf_share_the_transform_active_set(combine, members):
    # support gaps of 1.5e-9 * |l1| lie between rtol * max(1, |m|) and
    # rtol * (1 + |m|); sup/inf must keep the same members as the transform
    g = SphereGrid.circle(360)
    fs = [parse(t) for t in members]
    node = vmax if combine is sup else vmin
    got = combine([directed_subdiff(f, (0.0, 0.0), g) for f in fs])
    assert distance(got, directed_subdiff(node(*fs), (0.0, 0.0), g)) == 0.0


def test_leq_examples():
    point = leaf(-1.0, 1.0)          # embed {1}
    wide = leaf(3.0, 3.0)            # embed [-3, 3]
    assert leq(point, wide, 1e-9)
    assert not leq(wide, point, 1e-9)
    assert leq(directed_zero(1), DirectedSet.from_interval(embed_interval(0.0, 2.0)), 1e-9)


def test_leq_validation():
    with pytest.raises(ValueError):
        leq(leaf(0.0, 0.0), leaf(0.0, 0.0), -1.0)


def test_leq_recursion_on_support_ties():
    g = SphereGrid.circle(4)
    z = directed_zero(2, g)
    a = embed_polygon(SQUARE, g)
    assert leq(z, a, 1e-9)
    assert not leq(a, z, 1e-9)


def test_directed_zero():
    z = directed_zero(1)
    assert z.interval == DirectedInterval(0.0, 0.0)
    g = SphereGrid.circle(4)
    z2 = directed_zero(2, g)
    assert all(s == 0.0 for s in z2.supports)
    assert all(low.interval == DirectedInterval(0.0, 0.0) for low in z2.lowers)
    with pytest.raises(ValueError):
        directed_zero(2)


# ---------------------------------------------------------------------------
# grids and serialization


def test_circle_grid_directions():
    g = SphereGrid.circle(4)
    assert g.dim == 2
    assert len(g) == 4
    assert g.directions[0] == (1.0, 0.0)
    assert abs(g.directions[1][0]) < 1e-15 and g.directions[1][1] == 1.0


def test_grid_ids_content_addressed():
    assert SphereGrid.circle(8).id == SphereGrid.circle(8).id
    assert SphereGrid.circle(8).id != SphereGrid.circle(16).id
    assert SphereGrid.sphere(4, 8, 8).id != SphereGrid.circle(8).id


def test_grid_validation():
    with pytest.raises(ValueError):
        SphereGrid.circle(0)
    with pytest.raises(ValueError):
        SphereGrid.sphere(0, 8, 8)
    with pytest.raises(ValueError, match="at least one direction"):
        SphereGrid(3, (1, 1), [], SphereGrid.circle(4))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be unit vectors"):
            SphereGrid(2, (2,), [(bad, 0.0), (1.0, 0.0)], None)
    with pytest.raises(ValueError, match="grid dimension must be >= 2, an integer below"):
        SphereGrid(1, (2,), [(1.0,), (-1.0,)], None)
    with pytest.raises(ValueError, match="a circle grid has no sub-grid"):
        SphereGrid(2, (4,), SphereGrid.circle(4).directions, SphereGrid.circle(4))
    with pytest.raises(ValueError, match="direction length does not match grid dimension"):
        SphereGrid(2, (1,), [(1.0, 0.0, 0.0)], None)


def _sweep_columns(grid):
    """The sweep's points as the engine built them per sweep before the grid
    kept them: the directions and, on a circle, the leaf points at -1, +1."""
    cols = [list(c) for c in zip(*grid.directions)]
    if grid.dim == 2:
        for t in (-1.0, 1.0):
            for i, col in enumerate(cols):
                col += [0.0 + rows[i][0] * t for rows in grid.tangent_rows]
    return cols


@pytest.mark.parametrize("grid", [
    SphereGrid.circle(1), SphereGrid.circle(360), SphereGrid.sphere(4, 8, 16),
], ids=["circle-1", "circle-360", "sphere"])
def test_sweep_columns_are_built_once_per_grid(grid):
    directed_subdiff(parse("max(x1, x2) + abs(x1 - x2)" + " + x3" * (grid.dim - 2)),
                     (0.0,) * grid.dim, grid)
    for g in (grid, grid.subgrid) if grid.subgrid else (grid,):
        assert "sweep_columns" in vars(g)  # the engine read the grid's columns
        cols = g.sweep_columns
        assert g.sweep_columns is cols
        assert type(cols) is tuple and all(type(c) is tuple for c in cols)
        assert repr(cols) == repr(tuple(map(tuple, _sweep_columns(g))))  # signed zeros too


def test_json_roundtrip_leaf():
    a = leaf(1.5, -0.25)
    assert DirectedSet.from_json(a.to_json()) == a


def test_json_roundtrip_plane():
    g = SphereGrid.circle(8)
    a = random_directed_set(get_rng(5), 2, g)
    b = DirectedSet.from_json(a.to_json())
    assert b == a
    assert b.grid.id == g.id


def test_json_roundtrip_three_dims():
    g = SphereGrid.sphere(2, 4, 8)
    a = random_directed_set(get_rng(6), 3, g)
    assert DirectedSet.from_json(a.to_json()) == a


def _with_ints(doc):
    """``doc`` with every integral float but -0.0 written as an ``int``, as
    a JSON writer other than this package's may write it."""
    if isinstance(doc, dict):
        return {k: _with_ints(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_with_ints(v) for v in doc]
    return int(doc) if type(doc) is float and doc.is_integer() and repr(doc) != "-0.0" else doc


def _integral(s):
    """``s`` with every other value rounded to an integer."""
    def half(values):
        return [round(v) if k % 2 else v for k, v in enumerate(values)]
    return DirectedSet(s.grid, [half(lv) for lv in s.levels], half(s.a_neg), half(s.a_pos))


def _exact_floats(s) -> bool:
    arrays = s.levels + (s.a_neg, s.a_pos)
    return type(s.levels) is tuple and all(type(a) is tuple and set(map(type, a)) <= {float}
                                           for a in arrays)


_SPACE = SphereGrid.sphere(2, 3, 5)


@pytest.mark.parametrize("grid", [_PLANE, _SPACE], ids=["2-D", "3-D"])
def test_json_int_entries_decode_to_floats(grid):
    s = _integral(random_directed_set(get_rng(8), grid.dim, grid))
    floats = s.to_json_dict()
    ints = _with_ints(floats)
    assert json.dumps(ints) != json.dumps(floats)  # some entries are written as ints
    for t in (DirectedSet.from_json_dict(ints), DirectedSet.from_json(json.dumps(ints))):
        assert _exact_floats(t)
        assert t == s
        assert t.to_json() == s.to_json()


_INT_PLANE = _integral(random_directed_set(get_rng(9), 2, _PLANE))
_INT_SPACE = _integral(random_directed_set(get_rng(10), 3, _SPACE))

#: every way the package builds a set from arrays of its own, on inputs with ints
_BUILT_SETS = {
    "linear_combination-2d": lambda: [linear_combination(2, _INT_PLANE, -1, _INT_PLANE)],
    "linear_combination-3d": lambda: [linear_combination(1, _INT_SPACE, 3, _INT_SPACE)],
    "sup": lambda: [sup([_INT_PLANE, -_INT_PLANE]), sup([_INT_SPACE, -_INT_SPACE, _INT_SPACE])],
    "inf": lambda: [inf([_INT_PLANE, -_INT_PLANE]), inf([_INT_SPACE, -_INT_SPACE, _INT_SPACE])],
    "from_json_dict": lambda: [DirectedSet.from_json_dict(_with_ints(s.to_json_dict()))
                               for s in (_INT_PLANE, _INT_SPACE)],
    "directed_subdiff-2d": lambda: [
        directed_subdiff(parse("max(x1, 2*x2) + 3 + abs(x1)"), (0, 0), _PLANE)],
    "directed_subdiff-3d": lambda: [
        directed_subdiff(parse("max(x1, x2, 2) + x3 - abs(x1)"), (2, 2, 0), _SPACE)],
    "embed_point": lambda: [embed_point((1, -2), _PLANE), embed_point((1, 0, 3), _SPACE)],
    "directed_zero": lambda: [directed_zero(2, _PLANE), directed_zero(3, _SPACE)],
    "lowers": lambda: list(_INT_SPACE.lowers) + list(sup([_INT_SPACE, -_INT_SPACE]).lowers),
}


@pytest.mark.parametrize("name", _BUILT_SETS)
def test_built_sets_hold_tuples_of_floats(name):
    # what the private constructor relies on: the package's own arrays skip
    # the float conversion of the public one
    for s in _BUILT_SETS[name]():
        assert _exact_floats(s)


def test_json_schema_keys():
    g = SphereGrid.circle(4)
    d = embed_point((1.0, 0.0), g).to_json_dict()
    assert set(d) == {"dim", "grid", "entries"}
    assert set(d["grid"]) == {"id", "dim", "resolution", "directions"}
    assert set(d["entries"][0]) == {"support", "lower"}
    assert d["entries"][0]["lower"] == {"dim": 1, "a_neg": 0.0, "a_pos": 0.0}
    assert d["entries"][3]["lower"] == {"dim": 1, "a_neg": -1.0, "a_pos": 1.0}


def test_json_tamper_detected():
    g = SphereGrid.circle(4)
    d = embed_point((1.0, 0.0), g).to_json_dict()
    # replace a direction with a different unit vector: the content hash in
    # the stored id no longer matches
    d["grid"]["directions"][0] = [0.6, 0.8]
    with pytest.raises(GridMismatchError):
        DirectedSet.from_json_dict(d)
    d = embed_point((1.0, 0.0), g).to_json_dict()
    d["grid"]["id"] = "0" * 16
    with pytest.raises(GridMismatchError):
        DirectedSet.from_json_dict(d)


def test_grid_constructor_checks_the_id():
    # the negated directions of circle(8) under circle(8)'s id: a set on such a
    # grid must not combine with sets on the real circle
    g = SphereGrid.circle(8)
    flipped = tuple((-a, -b) for a, b in g.directions)
    message = (f"grid content hash mismatch: stored {g.id!r}, "
               f"recomputed {_content_id(2, (8,), flipped, None)!r}")
    with pytest.raises(GridMismatchError, match=re.escape(message)):
        SphereGrid(2, (8,), flipped, None, g.id)
    assert SphereGrid(2, [8], [list(d) for d in g.directions], None, g.id) == g


# ---------------------------------------------------------------------------
# space axioms, small randomized editions


def test_norm_axioms_random():
    rng = get_rng(23)
    g = SphereGrid.circle(16)
    z = directed_zero(2, g)
    for _ in range(50):
        a = random_directed_set(rng, 2, g)
        b = random_directed_set(rng, 2, g)
        lam = rng.uniform(-3.0, 3.0)
        assert norm(a) > 0.0
        assert norm(scale(lam, a)) == abs(lam) * norm(a)
        assert norm(a + b) <= norm(a) + norm(b) + 1e-12
    assert norm(z) == 0.0


def test_vector_space_laws_random():
    rng = get_rng(29)
    g = SphereGrid.circle(16)
    z = directed_zero(2, g)
    for _ in range(50):
        a = random_directed_set(rng, 2, g)
        b = random_directed_set(rng, 2, g)
        c = random_directed_set(rng, 2, g)
        assert a + b == b + a
        assert distance((a + b) + c, a + (b + c)) <= 1e-12
        assert distance(a - a, z) == 0.0
        assert scale(1.0, a) == a


def test_order_consistency_random():
    rng = get_rng(31)
    g = SphereGrid.circle(16)
    for _ in range(50):
        a = random_directed_set(rng, 2, g)
        b = random_directed_set(rng, 2, g)
        s = sup([a, b])
        i = inf([a, b])
        assert leq(a, s, 1e-9) and leq(b, s, 1e-9)
        assert leq(i, a, 1e-9) and leq(i, b, 1e-9)


def test_1d_order_matches_sup():
    rng = get_rng(37)
    for _ in range(200):
        a = DirectedSet.from_interval(random_interval(rng))
        b = DirectedSet.from_interval(random_interval(rng))
        assert leq(a, b, 0.0) == (sup([a, b]) == b)


def test_embedding_monotone_under_inclusion():
    rng = get_rng(41)
    g = SphereGrid.circle(16)
    from generators import random_polygon
    from references import convex_hull

    for _ in range(20):
        p = convex_hull(random_polygon(rng))
        far = (max(x for x, _ in p) * 2.0 + 1.0, 0.0)
        q = list(p) + [far]
        assert leq(embed_polygon(p, g), embed_polygon(q, g), 1e-9)


def test_json_decoder_shape_errors():
    plane = directed_zero(2, SphereGrid.circle(4)).to_json_dict()
    sphere = SphereGrid.sphere(2, 4, 8).to_json_dict()
    with pytest.raises(ValueError, match="dimension 2 carries a 3-D grid"):
        DirectedSet.from_json_dict({**plane, "grid": sphere})
    plane["entries"][1]["lower"]["dim"] = 2
    with pytest.raises(ValueError, match="lower components of a 2-D set must be 1-D"):
        DirectedSet.from_json_dict(plane)
    for bad in ({k: v for k, v in sphere.items() if k != "id"}, {**sphere, "directions": 5}):
        with pytest.raises(ValueError, match="malformed grid document"):
            SphereGrid.from_json_dict(bad)


def _chain(depth, step):
    """A grid document nesting ``depth`` sub-grids, each ``step`` dimensions
    below its parent, with wrong ids."""
    doc = {"id": "0", "dim": 2, "resolution": [1], "directions": [[1.0, 0.0]]}
    for _ in range(depth):
        doc = {"id": "0", "dim": doc["dim"] + step, "resolution": [1], "directions": [],
               "subgrid": doc}
    return doc


def _loop():
    doc = SphereGrid.circle(4).to_json_dict()
    doc["subgrid"] = doc
    return doc


@pytest.mark.parametrize("grid, message", [
    (_chain(5000, 1), "grid content hash mismatch"),
    (_chain(5000, 0), "malformed grid document: a 2-D grid with a 2-D sub-grid"),
    (_loop(), "malformed grid document: a 2-D grid with a 2-D sub-grid"),
], ids=["5000-deep", "5000-deep-same-dim", "loop"])
def test_long_subgrid_chains_are_value_errors(grid, message):
    with pytest.raises(ValueError, match=message):
        SphereGrid.from_json_dict(grid)
    with pytest.raises(ValueError, match=message):
        DirectedSet.from_json_dict({"format": 1 if grid["dim"] == 2 else 2, "dim": grid["dim"],
                                    "grid": grid, "entries": []})


def test_grid_documents_decode_to_equal_sets():
    for grid in (SphereGrid.circle(6), SphereGrid.sphere(2, 3, 5)):
        s = directed_subdiff(parse("max(x1, x2) + abs(x1 - x2)" + " + x3" * (grid.dim - 2)),
                             (0.0,) * grid.dim, grid)
        assert SphereGrid.from_json_dict(grid.to_json_dict()) == grid
        assert DirectedSet.from_json_dict(s.to_json_dict()) == s
        assert DirectedSet.from_json(s.to_json()) == s
