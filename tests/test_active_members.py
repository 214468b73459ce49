"""The one-pass active-set rule against its listed form.

``dirset.active_members`` classifies each gap to the extreme once;
``references.two_pass_active_members`` lists the gaps first and scans them
twice.  They must return the same indices and set the same flags.
"""

import pytest

from dirsubdiff.corpus import get_rng
from dirsubdiff.dirset import ActiveSetInfo, active_members
from references import two_pass_active_members


def _planted_values(rng, rtol, maximize):
    """1-6 values around an extreme with planted ties, gaps at and inside
    the tolerance band, signed zeros and far members."""
    m = rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-3.0, 3.0), 1e300, -1e-300])
    eps = rtol * (1.0 + abs(m))
    sign = -1.0 if maximize else 1.0  # members sit below a max, above a min
    values = []
    for _ in range(rng.randint(1, 6)):
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
