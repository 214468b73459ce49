"""Deterministic orthonormal bases of the hyperplane orthogonal to a direction.

Every recursion step of the directed subdifferential identifies the hyperplane
``l^perp`` with ``R^(n-1)`` through a fixed basis.  The choice must be
deterministic so that repeated runs and serialized results agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import dot, finite_floats, sequence

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of ``direction``'s orthogonal complement.

    ``columns`` holds n-1 unit vectors of length n, pairwise orthogonal and
    orthogonal to ``direction``.  ``method`` records how the basis was built
    ("rotation", "householder" or "axis").
    """

    direction: tuple
    columns: tuple
    method: str

    def __post_init__(self):
        l = finite_floats(self.direction, "basis direction must be finite, got {!r}")
        cols = tuple([finite_floats(c, "basis columns must be finite")
                      for c in sequence(self.columns, "basis columns")])
        if len(cols) != len(l) - 1 or any(len(c) != len(l) for c in cols):
            raise ValueError("a basis needs n - 1 columns of the direction's length n")
        object.__setattr__(self, "direction", l)
        object.__setattr__(self, "columns", cols)

    @property
    def matrix_rows(self) -> tuple:
        """The n x (n-1) matrix with the basis vectors as columns, by rows."""
        n = len(self.direction)
        return tuple(
            tuple(col[i] for col in self.columns) for i in range(n)
        )


def orthobasis(direction) -> Basis:
    """Return the fixed basis of ``direction``'s orthogonal complement.

    For n = 2 the single column is the quarter-turn ``(-l2, l1)``.  For
    n >= 3 the columns are the images of ``e_1 .. e_(n-1)`` under the
    Householder reflection that maps ``e_n`` to ``l``; when ``l`` is
    (numerically) ``e_n`` or ``-e_n`` the reflection degenerates to the
    identity up to sign and the plain axis vectors are returned.
    """
    l = finite_floats(direction, "direction must be a unit vector, got {!r}")
    n = len(l)
    if n < 2:
        raise ValueError("orthobasis needs a direction in dimension >= 2")
    nrm = math.sqrt(dot(l, l))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |l| = {nrm!r}")

    if n == 2:
        return Basis(l, ((-l[1], l[0]),), "rotation")

    # v = l - e_n; the reflection I - 2 v v^T / <v, v> swaps e_n and l.
    v = list(l)
    v[n - 1] -= 1.0
    vv = dot(v, v)
    if vv < _UNIT_TOL:
        cols = tuple(
            tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n - 1)
        )
        return Basis(l, cols, "axis")

    cols = []
    for j in range(n - 1):
        scale = 2.0 * v[j] / vv
        col = tuple(
            (1.0 if i == j else 0.0) - scale * v[i] for i in range(n)
        )
        cols.append(col)
    return Basis(l, tuple(cols), "householder")
