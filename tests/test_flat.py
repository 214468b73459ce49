"""The flat directed-set layout against the recursive reference operations.

``dirsubdiff.dirset`` stores a set as its grid plus one float tuple per
level; ``tests/references.py`` keeps the operations as recursions over
``supports``, ``lowers`` and ``interval``.  They must agree exactly: equal
sets, equal ``ActiveSetInfo`` flags and equal verdicts.  The second half
covers the JSON layout (``"format": 2`` for dimension >= 3).
"""

import json
import math

import pytest

from dirsubdiff.basis import orthobasis
from dirsubdiff.corpus import get_rng, random_directed_set
from dirsubdiff.dirset import (
    ActiveSetInfo,
    DirectedSet,
    GridMismatchError,
    SphereGrid,
    directed_zero,
    distance,
    embed_point,
    inf,
    leq,
    linear_combination,
    norm,
    scale,
    sup,
)
from dirsubdiff.expr import dot
from references import (
    recursive_inf,
    recursive_leq,
    recursive_linear_combination,
    recursive_norm,
    recursive_sup,
)


def _unit(*v):
    r = math.sqrt(dot(v, v))
    return tuple(c / r for c in v)


GRID_4D = SphereGrid(
    4, (4,),
    [_unit(1.0, 2.0, -1.0, 0.5), (0.0, 0.0, 0.0, 1.0), _unit(-0.5, 0.5, 0.5, 0.5), (1.0, 0.0, 0.0, 0.0)],
    SphereGrid.sphere(2, 3, 5),
)

GRIDS = {1: None, 2: SphereGrid.circle(8), 3: SphereGrid.sphere(2, 4, 8), 4: GRID_4D}


def planted(rng, base, share=0.5):
    """A random set that copies ``share`` of ``base``'s entries on every level.

    A copied support is exact, shifted inside the activity band (a tie) or
    shifted into the borderline band; copies below copies give ties at two
    and more levels.
    """
    fresh = random_directed_set(rng, base.dim, base.grid)
    levels = []
    for lb, lf in zip(base.levels, fresh.levels):
        out = list(lf)
        for i in range(len(out)):
            if rng.random() < share:
                shift = rng.choice((0.0, 2e-10, 5e-9, -5e-9))
                out[i] = lb[i] + shift * (1.0 + abs(lb[i]))
        levels.append(out)
    leaves = []
    for lb, lf in ((base.a_neg, fresh.a_neg), (base.a_pos, fresh.a_pos)):
        leaves.append([b if rng.random() < share else f for b, f in zip(lb, lf)])
    return DirectedSet(base.grid, levels, *leaves)


def families(dim, count=12, seed=0):
    rng = get_rng(seed + dim)
    grid = GRIDS[dim]
    for _ in range(count):
        base = random_directed_set(rng, dim, grid)
        yield [base] + [planted(rng, base) for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_linear_structure_agrees(dim):
    rng = get_rng(100 + dim)
    for fam in families(dim):
        a, b = fam[0], fam[-1]
        alpha, beta = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        got = linear_combination(alpha, a, beta, b)
        want = recursive_linear_combination(alpha, a, beta, b)
        assert got == want
        assert got.to_json(indent=None) == want.to_json(indent=None)
        assert scale(alpha, a) == recursive_linear_combination(alpha, a, 0.0, a)
        assert norm(got) == recursive_norm(got)
        assert distance(a, b) == recursive_norm(recursive_linear_combination(1.0, a, -1.0, b))
        assert norm(directed_zero(dim, GRIDS[dim])) == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("flat, reference", [(sup, recursive_sup), (inf, recursive_inf)])
def test_lattice_agrees(dim, flat, reference):
    flags = set()
    for fam in families(dim):
        for rtol in (1e-9, 1e-8):
            got_info, want_info = ActiveSetInfo(), ActiveSetInfo()
            got = flat(fam, rtol, got_info)
            want = reference(fam, rtol, want_info)
            assert got == want
            assert got.to_json(indent=None) == want.to_json(indent=None)
            assert got_info == want_info
            flags.add((got_info.ties, got_info.borderline))
    if dim >= 2:  # the planted entries reach both flags
        assert (True, True) in flags


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_order_agrees(dim):
    verdicts = set()
    for fam in families(dim):
        upper, lower = sup(fam), inf(fam)
        for a in fam:
            for b in fam + [upper, lower]:
                for eps in (0.0, 1e-9, 1e-8):
                    assert leq(a, b, eps) == recursive_leq(a, b, eps)
                    verdicts.add(leq(a, b, eps))
        assert all(leq(a, upper) and leq(lower, a) for a in fam)
    assert verdicts == {True, False}


def test_lowers_view_matches_flat_arrays():
    a = random_directed_set(get_rng(3), 4, GRID_4D)
    assert DirectedSet.node(a.grid, a.supports, a.lowers) == a
    k = 2
    low = a.lowers[k]
    assert low.dim == 3 and low.grid.id == GRID_4D.subgrid.id
    assert low.supports == a.levels[1][k * len(low.grid):(k + 1) * len(low.grid)]
    assert a.lowers is a.lowers  # built once
    with pytest.raises(AttributeError):
        a.grid = None


def test_flat_constructor_validates():
    g = SphereGrid.sphere(2, 4, 8)
    a = random_directed_set(get_rng(4), 3, g)
    with pytest.raises(ValueError):
        DirectedSet(g, a.levels[:1], a.a_neg, a.a_pos)
    with pytest.raises(ValueError):
        DirectedSet(g, (a.levels[0], a.levels[1][:-1]), a.a_neg, a.a_pos)
    with pytest.raises(ValueError):
        DirectedSet(g, a.levels, a.a_neg + (0.0,), a.a_pos)
    with pytest.raises(ValueError, match="support values must be finite"):
        DirectedSet(g, (a.levels[0], (math.inf,) + a.levels[1][1:]), a.a_neg, a.a_pos)
    with pytest.raises(ValueError, match="directed interval entries must be finite"):
        DirectedSet(g, a.levels, (math.nan,) + a.a_neg[1:], a.a_pos)
    with pytest.raises(ValueError):
        linear_combination(1e308, a, 1e308, a)  # overflows to inf
    low = a.lowers[0]
    other = random_directed_set(get_rng(5), 2, SphereGrid.circle(16))
    with pytest.raises(GridMismatchError):
        DirectedSet.node(g, a.supports, (other,) + a.lowers[1:])
    with pytest.raises(ValueError):
        DirectedSet.node(g, a.supports, (DirectedSet.leaf(0.0, 0.0),) + a.lowers[1:])
    assert DirectedSet.node(g, a.supports, (low,) + a.lowers[1:]) == a


def test_tangent_rows_are_the_fixed_bases():
    for grid in (SphereGrid.circle(12), SphereGrid.sphere(2, 4, 8), GRID_4D):
        assert grid.tangent_rows == tuple(orthobasis(d).matrix_rows for d in grid.directions)
        assert grid.tangent_rows is grid.tangent_rows


def test_embed_point_four_dimensions():
    p = (0.5, -1.0, 2.0, 0.25)
    s = embed_point(p, GRID_4D)
    for l, support, low in zip(GRID_4D.directions, s.supports, s.lowers):
        assert support == dot(l, p)
        proj = tuple(dot(col, p) for col in orthobasis(l).columns)
        assert low == embed_point(proj, GRID_4D.subgrid)


# ---------------------------------------------------------------------------
# JSON


def test_json_roundtrip_three_and_four_dims():
    for dim in (3, 4):
        a = random_directed_set(get_rng(7), dim, GRIDS[dim])
        text = a.to_json()
        b = DirectedSet.from_json(text)
        assert b == a and b.grid == a.grid
        assert b.to_json() == text


def test_json_stores_each_grid_once():
    a = random_directed_set(get_rng(8), 4, GRID_4D)
    d = a.to_json_dict()
    assert d["format"] == 2
    assert set(d) == {"format", "dim", "grid", "entries"}
    assert d["grid"]["subgrid"]["id"] == GRID_4D.subgrid.id
    assert d["grid"]["subgrid"]["subgrid"]["id"] == GRID_4D.subgrid.subgrid.id
    text = json.dumps(d)
    assert text.count('"directions"') == 3  # the 4-D grid, its sphere, its circle
    m3, m2 = len(GRID_4D.subgrid), len(GRID_4D.subgrid.subgrid)
    for e in d["entries"]:
        assert set(e) == {"support", "lower"}
        assert len(e["lower"]) == m3 + m3 * m2 + 2 * m3 * m2
        assert all(isinstance(v, float) for v in e["lower"])


def _doc3():
    return random_directed_set(get_rng(9), 3, SphereGrid.sphere(2, 4, 8)).to_json_dict()


def test_json_tampered_subgrid_detected():
    d = _doc3()
    d["grid"]["subgrid"]["id"] = "0" * 16
    with pytest.raises(GridMismatchError):
        DirectedSet.from_json_dict(d)
    d = _doc3()
    d["grid"]["subgrid"]["directions"][1] = [0.6, 0.8]
    with pytest.raises(GridMismatchError):
        DirectedSet.from_json_dict(d)
    d = _doc3()
    del d["grid"]["subgrid"]
    with pytest.raises(ValueError):
        DirectedSet.from_json_dict(d)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_non_finite_values_rejected(bad):
    d = _doc3()
    d["entries"][3]["lower"][5] = bad
    with pytest.raises(ValueError):
        DirectedSet.from_json_dict(d)
    d = _doc3()
    d["entries"][0]["support"] = bad
    with pytest.raises(ValueError):
        DirectedSet.from_json(json.dumps(d))


def test_json_wrong_lengths_rejected():
    d = _doc3()
    d["entries"][2]["lower"].pop()
    with pytest.raises(ValueError):
        DirectedSet.from_json_dict(d)
    d = _doc3()
    d["entries"][2]["lower"].append(0.0)
    with pytest.raises(ValueError):
        DirectedSet.from_json_dict(d)
    d = _doc3()
    d["entries"].pop()
    with pytest.raises(ValueError):
        DirectedSet.from_json_dict(d)


def test_json_old_tree_layout_rejected():
    grid = SphereGrid.sphere(2, 4, 8)
    a = random_directed_set(get_rng(10), 3, grid)
    grid_dict = grid.to_json_dict()
    del grid_dict["subgrid"]
    old = {
        "dim": 3,
        "grid": grid_dict,
        "entries": [{"support": s, "lower": low.to_json_dict()}
                    for s, low in zip(a.supports, a.lowers)],
    }
    with pytest.raises(ValueError, match="format 2"):
        DirectedSet.from_json_dict(old)
    plane = a.lowers[0].to_json_dict()
    plane["format"] = 2
    with pytest.raises(ValueError, match="format 1"):
        DirectedSet.from_json_dict(plane)
