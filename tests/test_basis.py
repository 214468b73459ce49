import builtins
import math
import random
import struct

import pytest

from dirsubdiff import SphereGrid, embed_point, parse, verify_taylor_invariance
from dirsubdiff.basis import orthobasis


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_plane_perpendicular_rule():
    b = orthobasis((0.0, 1.0))
    assert b.columns == ((-1.0, 0.0),)
    assert b.method == "rotation"
    b = orthobasis((1.0, 0.0))
    assert b.columns == ((0.0, 1.0),)


def test_plane_general_direction():
    l = (0.6, 0.8)
    b = orthobasis(l)
    assert b.columns == ((-0.8, 0.6),)
    assert abs(_dot(b.columns[0], l)) < 1e-15


def test_degenerate_householder_is_identity():
    b = orthobasis((0.0, 0.0, 1.0))
    assert b.columns == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert b.method == "axis"


def test_antipodal_axis_direction():
    # the reflection formula handles -e3 without a special case
    b = orthobasis((0.0, 0.0, -1.0))
    for col in b.columns:
        assert abs(_dot(col, (0.0, 0.0, -1.0))) < 1e-10
        assert abs(_dot(col, col) - 1.0) < 1e-10


def test_householder_columns_orthonormal():
    rng = random.Random(3)
    for _ in range(50):
        v = [rng.gauss(0, 1) for _ in range(3)]
        r = math.sqrt(sum(c * c for c in v))
        l = tuple(c / r for c in v)
        b = orthobasis(l)
        cols = b.columns
        assert len(cols) == 2
        for i, ci in enumerate(cols):
            assert abs(_dot(ci, l)) < 1e-10
            for j, cj in enumerate(cols):
                want = 1.0 if i == j else 0.0
                assert abs(_dot(ci, cj) - want) < 1e-10


def test_matrix_rows_transpose_columns():
    b = orthobasis((0.0, 1.0, 0.0))
    rows = b.matrix_rows
    assert len(rows) == 3
    assert all(len(r) == 2 for r in rows)
    for i in range(3):
        for j in range(2):
            assert rows[i][j] == b.columns[j][i]


def test_rejects_non_unit():
    with pytest.raises(ValueError):
        orthobasis((1.0, 1.0))
    with pytest.raises(ValueError):
        orthobasis((0.5,) * 4 + (0.1,))
    with pytest.raises(ValueError):
        orthobasis((1.0,))


_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 and later add floats: Neumaier's
    compensated summation; a call with any item that is not a float goes to
    the original ``sum``."""
    items = list(iterable)
    if type(start) not in (int, float) or any(type(x) is not float for x in items):
        return _SUM(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def _three_d_results():
    """A fresh grid's bases, an embedded point and both sides of a Taylor
    report, each as one flat list of floats."""
    grid = SphereGrid.sphere(16, 32, 64)  # fresh: default_grid(3) is cached
    report = verify_taylor_invariance(
        parse("max(x1, x2) + x3 * x1"),
        [parse("x1 * x2 + 0.1 * x3"), parse("sin(x2) + x3"), parse("x3 * x1 - x2")],
        (0.3, -1.7, 2.9), SphereGrid.sphere(4, 8, 16))
    return {
        "tangent_rows": [v for rows in grid.tangent_rows for row in rows for v in row],
        "embed_point": [v for xs in embed_point((0.3, -1.7, 2.9), grid)._arrays for v in xs],
        "taylor lhs": [v for xs in report.lhs._arrays for v in xs],
        "taylor rhs": [v for xs in report.rhs._arrays for v in xs],
    }


def test_3d_results_do_not_follow_the_builtin_sum(monkeypatch):
    # products are summed only by ``expr.dot`` and ``dirset._apply``, so a
    # builtin ``sum`` that adds floats otherwise (compensated, as from
    # Python 3.12 on) leaves every bit of the 3-D bases and sets as it is
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    got = _three_d_results()
    monkeypatch.undo()
    want = _three_d_results()
    bits = struct.Struct("d").pack
    differing = {name: sum(bits(x) != bits(y) for x, y in zip(got[name], want[name]))
                 for name in want}
    assert differing == dict.fromkeys(want, 0)
    assert {name: len(xs) for name, xs in got.items()} == {name: len(xs) for name, xs in want.items()}
