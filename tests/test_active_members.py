"""The column-wise active-set rule against its listed form.

``dirset.active_columns`` classifies whole columns of gaps to the extremes
at once, and :func:`active_members` below is its one-direction case;
``references.two_pass_active_members`` lists the gaps of one direction
first and scans them twice.  They must return the same indices and
extremes and set the same flags, direction by direction.  The leaf pick
``dirset.active_extremes`` must be ``max``/``min`` of the listed values of
the active members, bit for bit.
"""

import math

import pytest

from dirsubdiff.corpus import get_rng
from dirsubdiff.dirset import ActiveSetInfo, active_columns, active_extremes
from references import two_pass_active_members


def active_members(values, rtol, maximize, info):
    """The indices of the members of ``values`` active at the extreme:
    ``active_columns`` on the one direction whose member values are
    ``values``, as the derivative transform and the max/min verifiers call
    it."""
    return list(active_columns([(v,) for v in values], rtol, maximize, info)[1][0])


def _planted_values(rng, rtol, maximize, count=None):
    """``count`` values (1-6 when omitted) around an extreme with planted
    ties, gaps at and inside the tolerance band, signed zeros and far
    members."""
    m = rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-3.0, 3.0), 1e300, -1e-300])
    eps = rtol * (1.0 + abs(m))
    sign = -1.0 if maximize else 1.0  # members sit below a max, above a min
    values = []
    for _ in range(rng.randint(1, 6) if count is None else count):
        kind = rng.randrange(7)
        if kind == 0:
            v = m
        elif kind == 1:
            v = m + sign * eps * rng.choice([0.5, 1.0, 1.0 + 1e-6])
        elif kind == 2:
            v = m + sign * eps * rng.choice([2.0, 5.0, 10.0, 10.0 + 1e-6, 11.0])
        elif kind == 3:
            v = rng.choice([0.0, -0.0])
        elif kind == 4:
            v = m + sign * rng.uniform(0.0, 2.0)
        elif kind == 5:
            v = -m
        else:
            v = rng.uniform(-3.0, 3.0)
        values.append(v)
    return values


@pytest.mark.parametrize("rtol", [1e-9, 1e-3, 0.25])
@pytest.mark.parametrize("maximize", [True, False])
def test_one_pass_rule_matches_the_listed_rule(rtol, maximize):
    rng = get_rng(2024)
    for _ in range(600):
        values = _planted_values(rng, rtol, maximize)
        got_info, want_info = ActiveSetInfo(), ActiveSetInfo()
        got = active_members(values, rtol, maximize, got_info)
        want = two_pass_active_members(values, rtol, maximize, want_info)
        assert got == want, values
        assert got_info == want_info, values
        assert active_members(tuple(values), rtol, maximize, None) == want


def test_planted_cases_reach_every_flag():
    # the generator above must produce ties, borderline members and both
    # zero signs at the extreme, or the property test checks too little
    rng = get_rng(2024)
    seen = {"ties": False, "borderline": False, "plain": False, "-0.0": False}
    for _ in range(600):
        values = _planted_values(rng, 1e-9, True)
        info = ActiveSetInfo()
        active_members(values, 1e-9, True, info)
        seen["ties"] |= info.ties
        seen["borderline"] |= info.borderline
        seen["plain"] |= not (info.ties or info.borderline)
        seen["-0.0"] |= any(str(v) == "-0.0" for v in values)
    assert all(seen.values()), seen


@pytest.mark.parametrize("values, maximize, active, ties, borderline", [
    ([0.0, -0.0], True, [0, 1], True, False),
    ([-0.0, 0.0], False, [0, 1], True, False),
    ([2.0, 2.0, 1.0], True, [0, 1], True, False),
    ([1.0, 1.0 - 5e-9], True, [0], False, True),
    ([1.0, 1.0 + 5e-9], False, [0], False, True),
    ([3.0], True, [0], False, False),
])
def test_examples(values, maximize, active, ties, borderline):
    info = ActiveSetInfo()
    assert active_members(values, 1e-9, maximize, info) == active
    assert (info.ties, info.borderline) == (ties, borderline)


def _planted_columns(rng, rtol, maximize):
    """``k`` members' columns over ``n`` directions, ``cols[i][j]`` member
    ``i`` at direction ``j``: each direction's values are planted as above,
    and about a third of the directions get +-inf or NaN entries."""
    k, n = rng.randint(1, 6), rng.randint(1, 8)
    directions = []
    for _ in range(n):
        values = _planted_values(rng, rtol, maximize, k)
        if rng.random() < 1 / 3:
            for i in rng.sample(range(k), rng.randint(1, k)):
                values[i] = rng.choice([math.inf, -math.inf, math.nan])
        directions.append(values)
    return [list(col) for col in zip(*directions)], directions


@pytest.mark.parametrize("rtol", [0.0, 1e-9, 1e-3, 0.25])
@pytest.mark.parametrize("maximize", [True, False])
def test_column_rule_matches_the_listed_rule_per_direction(rtol, maximize):
    rng = get_rng(2025)
    seen = {"non-finite": False, "k=1": False, "ties": False, "borderline": False}
    for _ in range(400):
        cols, directions = _planted_columns(rng, rtol, maximize)
        # the flags are ORed into what ``info`` already holds
        start = {"ties": rng.random() < 0.2, "borderline": rng.random() < 0.2}
        got_info, want_info = ActiveSetInfo(**start), ActiveSetInfo(**start)
        extremes, active = active_columns(cols, rtol, maximize, got_info)
        assert len(extremes) == len(active) == len(directions)
        for j, values in enumerate(directions):
            want = two_pass_active_members(values, rtol, maximize, want_info)
            assert active[j] == tuple(want), values
            # bitwise, so a NaN equals a NaN and -0.0 differs from 0.0
            assert repr(extremes[j]) == repr(max(values) if maximize else min(values)), values
        assert got_info == want_info, directions
        assert active_columns(cols, rtol, maximize, None)[1] == active
        seen["non-finite"] |= not all(map(math.isfinite, sum(directions, [])))
        seen["k=1"] |= len(cols) == 1
        flags = ActiveSetInfo()
        active_columns(cols, rtol, maximize, flags)
        seen["ties"] |= flags.ties
        seen["borderline"] |= flags.borderline
    # the draws must reach the non-finite and one-member cases, or the
    # test checks too little
    assert seen["non-finite"] and seen["k=1"], seen
    if rtol > 0.0:
        assert seen["ties"] and seen["borderline"], seen


@pytest.mark.parametrize("cols, maximize, extremes, active", [
    ([[1.0, math.inf, math.nan]], True, [1.0, math.inf, math.nan], [(0,), (), ()]),
    ([[math.inf, 1.0], [1.0, math.inf]], True, [math.inf, math.inf], [(1,), (0,)]),
    ([[math.nan, 2.0], [1.0, math.nan]], False, [math.nan, 2.0], [(), (0,)]),
    ([[-0.0], [0.0]], True, [-0.0], [(0, 1)]),
])
def test_column_examples_with_non_finite_entries(cols, maximize, extremes, active):
    # the extreme keeps the first of incomparable values, as max and min do;
    # a NaN gap (inf - inf, or any gap to or from NaN) keeps no member,
    # while a finite member's gap to inf is within eps = inf
    got = active_columns(cols, 1e-9, maximize, None)
    assert list(map(repr, got[0])) == list(map(repr, extremes))
    assert got[1] == active


_LEAF_VALUES = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0, 5e-324)


def _bits(v):
    # repr tells -0.0 from 0.0; copysign tells the sign of a NaN
    return repr(v), math.copysign(1.0, v)


def _listed_pick(cols, keep, maximize):
    pick = max if maximize else min
    return [pick([cols[i][j] for i in idx]) if idx else math.nan for j, idx in enumerate(keep)]


def _leaf_columns(rng, k, n):
    return [[rng.choice(_LEAF_VALUES) if rng.random() < 0.7 else rng.uniform(-2.0, 2.0)
             for _ in range(n)] for _ in range(k)]


@pytest.mark.parametrize("maximize", [True, False])
def test_leaf_pick_is_the_listed_extreme_per_entry(maximize):
    rng = get_rng(2026)
    sizes = set()
    for _ in range(400):
        k, n = rng.randint(1, 5), rng.randint(1, 8)
        cols = _leaf_columns(rng, k, n)
        keep = [tuple(i for i in range(k) if rng.random() < 0.6) for _ in range(n)]
        got = active_extremes(cols, keep, maximize)
        want = _listed_pick(cols, keep, maximize)
        assert list(map(_bits, got)) == list(map(_bits, want)), (cols, keep)
        sizes.update(min(len(idx), 2) for idx in keep)
    # empty, lone and shared entries all occur
    assert sizes == {0, 1, 2}


@pytest.mark.parametrize("cols, keep, maximize, want", [
    ([[0.0], [-0.0]], [(0, 1)], True, [0.0]),
    ([[-0.0], [0.0]], [(0, 1)], False, [-0.0]),
    ([[math.nan, 1.0], [2.0, 1.0]], [(0, 1), (1,)], True, [math.nan, 1.0]),
    ([[2.0, 3.0], [2.0, -math.inf]], [(1,), ()], False, [2.0, math.nan]),
])
def test_leaf_pick_examples(cols, keep, maximize, want):
    # the first of equal or incomparable values is kept, as max and min do
    assert list(map(_bits, active_extremes(cols, keep, maximize))) == list(map(_bits, want))


@pytest.mark.parametrize("maximize", [True, False])
def test_equal_selections_share_one_tuple_object(maximize):
    # the leaf pick's whole-column path tests ``keep[0] is keep[-1]``: if
    # equal selections stopped sharing one object, it would silently stop
    # firing
    rng = get_rng(2027)
    pool = (0.0, -0.0, math.nan, 1.0, -1.0, 2.0, 1.0 - 5e-10)
    repeated = 0
    for _ in range(200):
        k, n = rng.randint(1, 4), rng.randint(1, 60)
        cols = [[rng.choice(pool) for _ in range(n)] for _ in range(k)]
        active = active_columns(cols, 1e-9, maximize, None)[1]
        assert len({id(sel) for sel in active}) == len(set(active)), cols
        repeated += any(len(sel) > 1 and active.count(sel) > 1 for sel in active)
    # tied selections must repeat across directions, or this checks too little
    assert repeated > 50, repeated


@pytest.mark.parametrize("maximize", [True, False])
@pytest.mark.parametrize("sel", [(0,), (2,), (0, 1), (1, 2), (0, 1, 2), (2, 0), ()])
def test_uniform_leaf_block_is_the_listed_extreme(sel, maximize):
    # one selection object over the whole block, the shape ``active_columns``
    # gives the 2-D sweep's tied leaves, and its near misses
    rng = get_rng(2028)
    other = (1,) if sel != (1,) else (0, 2)
    for n in (1, 2, 3, 17, 360, 400):
        cols = _leaf_columns(rng, 3, n)
        blocks = [[sel] * n, [tuple(sel)] + [sel] * (n - 1)]  # equal, not one object
        if n > 1:
            blocks.append([sel] * (n - 1) + [other])  # differs only at the last entry
        if n > 2:
            j = rng.randrange(1, n - 1)
            blocks.append([sel] * j + [other] + [sel] * (n - j - 1))  # only inside
        for keep in blocks:
            got = active_extremes(cols, keep, maximize)
            want = _listed_pick(cols, keep, maximize)
            assert list(map(_bits, got)) == list(map(_bits, want)), (sel, n, keep)


class _Stream:
    """A column that can be iterated but not indexed."""

    def __init__(self, values):
        self.values = values

    def __iter__(self):
        return iter(self.values)


@pytest.mark.parametrize("sel", [(0,), (0, 1), (1, 0, 2), ()])
def test_uniform_leaf_block_is_picked_as_whole_columns(sel):
    # the columns of a uniform block are only iterated, never indexed entry
    # by entry
    cols = _leaf_columns(get_rng(2029), 3, 40)
    keep = [sel] * 40
    for maximize in (True, False):
        got = active_extremes([_Stream(c) for c in cols], keep, maximize)
        want = _listed_pick(cols, keep, maximize)
        assert list(map(_bits, got)) == list(map(_bits, want))
