"""Several roots in one pass against separate calls.

``engine.directed_subdiffs`` builds the transforms of all roots on one walk
and reads every root's set off one sweep; ``engine.directed_subdiff`` reads
one root.  Each joint set must be the separate call's set bit for bit, the
``ActiveSetInfo`` flags must be the union of the separate calls' flags, and
an error must be the one the separate calls raise first, in root order.
"""

import sys

import pytest

import dirsubdiff.engine as engine
from dirsubdiff.corpus import get_rng, random_rule_pair
from generators import random_max_affine
from dirsubdiff.deriv import _Walk
from dirsubdiff.dirset import ActiveSetInfo, SphereGrid
from dirsubdiff.engine import directed_subdiff, directed_subdiffs
from dirsubdiff.expr import (
    Affine, ArityError, DomainError, LinComb, Max, Min, Product, Quotient, compose, evaluate,
    walk,
)
from dirsubdiff.parser import parse
from dirsubdiff.theorems import verify_sum_rule

SPHERE = SphereGrid.sphere(2, 4, 8)


def _outcome(run):
    info = ActiveSetInfo()
    try:
        out = [s.to_json(indent=None) for s in run(info)]
    except (DomainError, ArityError) as exc:
        out = (type(exc), str(exc))
    return out, info


def assert_joint(exprs, x, grid, rtol=1e-9):
    want = _outcome(lambda info: [directed_subdiff(e, x, grid, rtol, info) for e in exprs])
    got = _outcome(lambda info: directed_subdiffs(exprs, x, grid, rtol, info))
    assert got == want


def _rule_roots(f1, f2, quotient=True):
    """The roots the sum, product, quotient, max and min verifiers pass."""
    yield f1, f2, LinComb(0.7, f1, -1.3, f2)
    yield f1, f2, Product(f1, f2)
    if quotient:
        yield f1, f2, Quotient(f1, f2)
    yield f1, f2, Max((f1, f2))
    yield f1, Min((f1, f2))


@pytest.mark.parametrize("arity, grid, draws", [
    (1, None, 40), (2, SphereGrid.circle(90), 20), (3, SPHERE, 8),
])
@pytest.mark.parametrize("rtol", [1e-9, 1e-8])
def test_criterion_1_corpus(arity, grid, draws, rtol):
    rng = get_rng(1001)
    for _ in range(draws):
        f1, f2, x = random_rule_pair(rng, arity=arity)
        for roots in _rule_roots(f1, f2, evaluate(f2, x) != 0.0):
            assert_joint(roots, x, grid, rtol)


@pytest.mark.parametrize("n, grid", [(2, SphereGrid.circle(90)), (3, SPHERE)])
def test_criterion_5_corpus(n, grid):
    rng = get_rng(1005)
    for _ in range(10):
        e1, _, _ = random_max_affine(rng, n=n, zero_offsets=True)
        e2, _, _ = random_max_affine(rng, n=n, zero_offsets=True)
        for x in ((0.0,) * n, tuple(rng.uniform(-2.0, 2.0) for _ in range(n))):
            for roots in _rule_roots(e1, e2, evaluate(e2, x) != 0.0):
                assert_joint(roots, x, grid)


def test_affine_contexts():
    h = parse("max(x1, -x1, 0.5 * x1)")
    f1 = Affine(h, ((1.0, 2.0, 0.0),), (0.0,)) + Affine(h, ((0.5, -1.0, 1.0),), (0.0,))
    f2 = compose(parse("max(x1, x2) + abs(x1 - x2)"), [parse("x1 + x2 * x3"), parse("x2 - x3")])
    for x in ((0.0, 0.0, 0.0), (1.0, -0.5, 0.0)):
        for roots in _rule_roots(f1, f2, evaluate(f2, x) != 0.0):
            assert_joint(roots, x, SPHERE)
    # the same subtree as a root and under a substitution of another root
    assert_joint((h, Affine(h, ((1.0, 1.0),), (0.0,)), h), (0.0, 0.0), SphereGrid.circle(16))


def test_errors_come_in_root_order():
    # f1 overflows in its sweep, f2 in its transform: separate calls raise
    # f1's error, although the joint pass builds f2's transform first
    f1 = parse("-1.5e308*x2 - 1.5e308*(x1 - 710)")
    f2 = parse("exp(x1)")
    x, grid = (710.0, 0.0), SphereGrid.circle(8)
    with pytest.raises(DomainError, match="^value overflows to -inf at the base point$"):
        directed_subdiffs((f1, f2, LinComb(1.0, f1, 1.0, f2)), x, grid)
    with pytest.raises(DomainError, match="^value overflows to -inf at the base point$"):
        verify_sum_rule(f1, f2, 1.0, 1.0, x, grid)
    with pytest.raises(DomainError, match="^exp overflow at argument 710.0$"):
        directed_subdiffs((f2, f1), x, grid)
    for roots in _rule_roots(f1, f2):
        assert_joint(roots, x, grid)
    # a leaf overflow of the first root before an arity error of the second
    assert_joint((parse("1e300*(1e10*x2)"), parse("x3")), (0.0, 0.0), grid)
    assert_joint((parse("1e300*max(1e300*x1, x2, x3)"), parse("max(x1, x2)")), (0.0,) * 3, SPHERE)
    assert_joint((parse("abs(x1)"), parse("1e300*(1e300*x1)")), (0.0,), None)


def test_one_transform_per_root_and_one_sweep(monkeypatch):
    calls = {"transform": 0, "sweep": 0, "walk": 0}
    transform, sweep = engine.dirderiv_transform, engine._Sweep

    def counting_transform(*args, **kwargs):
        calls["transform"] += 1
        return transform(*args, **kwargs)

    class CountingSweep(sweep):
        def __init__(self, *args):
            calls["sweep"] += 1
            super().__init__(*args)

    def counting_walk(*args, **kwargs):
        calls["walk"] += 1
        return walk(*args, **kwargs)

    monkeypatch.setattr(engine, "dirderiv_transform", counting_transform)
    monkeypatch.setattr(engine, "_Sweep", CountingSweep)
    # the transform's walk is the only walk over a root: the sweep runs the
    # tape it writes
    for module in [m for name, m in sys.modules.items() if name.startswith("dirsubdiff")]:
        if getattr(module, "walk", None) is walk:
            monkeypatch.setattr(module, "walk", counting_walk)
    f1, f2 = parse("max(x1, x2)"), parse("abs(x1 - x2)")
    grid = SphereGrid.circle(16)
    directed_subdiffs((f1, f2, LinComb(1.0, f1, 2.0, f2)), (0.0, 0.0), grid)
    assert calls == {"transform": 3, "sweep": 1, "walk": 3}
    calls.update(transform=0, sweep=0, walk=0)
    directed_subdiffs((parse("max(x1, x2, x3)"), parse("abs(x1 - x3) + x2")), (0.0,) * 3, SPHERE)
    assert calls == {"transform": 2, "sweep": 1, "walk": 2}
    # the operands' transforms are the combination's subtrees
    shared = _Walk()
    roots = (f1, f2, LinComb(1.0, f1, 2.0, f2))
    g1, g2, g = (transform(e, (0.0, 0.0), _shared=shared) for e in roots)
    assert g.left is g1 and g.right is g2
