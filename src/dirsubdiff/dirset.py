"""Directed sets: a Banach space of oriented, possibly inverted convex shapes.

A directed set of dimension 1 is an ordered pair ``(a_neg, a_pos)`` holding
the two support values ``a(-1)`` and ``a(+1)`` of an interval.  The pair is
"inverted" when ``-a_neg > a_pos``; inverted intervals are first-class values,
which is what makes differences of embedded convex sets well defined.

A directed set of dimension n >= 2 maps every direction of a fixed unit
sphere grid to a support value together with a directed set of dimension
n - 1 describing the supporting face inside the tangent hyperplane.  All
operations (linear combinations, supremum, infimum, partial order, norm) act
componentwise and recursively on this data, so they are exact up to floating
point rounding; no geometric reconstruction is ever involved.

Flat layout.  On a grid chain ``G_n, G_(n-1), ..., G_2`` (each grid's
``subgrid`` is the next) with ``m_n, ..., m_2`` directions, the recursion has
a fixed shape, so a set's data is one tuple of flat float tuples, one per
level and then the two leaf arrays, in this layout order:

* ``levels[0]`` holds the ``m_n`` supports (:attr:`DirectedSet.supports`);
* ``levels[j]`` holds the supports of the level-``j`` lower sets,
  ``m_n * ... * m_(n-j)`` values in walk order: the set below entry ``i`` of
  ``levels[j - 1]`` owns entries ``i * m_(n-j)`` to ``(i + 1) * m_(n-j) - 1``;
* ``a_neg`` and ``a_pos`` hold the leaf pairs, one per entry of the last
  level (a single entry in dimension 1).

At the default 3-D grid that is 512 supports, 512 x 64 lower supports and
32,768 leaf pairs.  A set keeps this tuple whole; ``levels``, ``a_neg`` and
``a_pos`` are views of its entries.  A set is validated once, on these
arrays.  Numbers given from outside, by a caller or a decoded document,
pass the number door of :mod:`dirsubdiff.expr` (the public constructor);
arrays the package built itself (combinations, sup/inf, the engine's sets)
reach the set as one sequence in layout order and are checked for
finiteness only.
Linear combinations, norms and distances are one pass over the arrays, and
sup/inf/leq walk them level by level.  :attr:`DirectedSet.lowers` rebuilds
the tuple of lower sets on first use.

Two grids interoperate only when their content ids are equal; mixing
resolutions raises :class:`GridMismatchError` instead of resampling silently.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import operator
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat

from .basis import orthobasis
from .expr import _TEXT, _finite, dot, finite_float, finite_floats, instance, int_at_least, sequence

#: relative scale of the active-set tolerance: eps = ACTIVE_RTOL * (1 + |extreme|)
ACTIVE_RTOL = 1e-9
_SUPPORTS = "support values must be finite"
_LEAF_ENTRIES = "directed interval entries must be finite"
#: the most doubles :attr:`SphereGrid.lifted_columns` keeps for one grid
#: (4 MB); a grid whose lift is larger keeps none
_LIFT_BUDGET = 1 << 19


class GridMismatchError(ValueError):
    """Operands carry sphere grids with different content ids."""


@dataclass
class ActiveSetInfo:
    """Mutable flags collected while forming active sets.

    ``ties`` records that some active set had more than one member (a kink
    was hit exactly).  ``borderline`` records that some member sat in the
    band ``(eps, 10 * eps]`` below the extreme value, meaning a tenfold
    larger tolerance would have classified it differently.  Verifiers use
    ``borderline`` as the trigger for their perturbation re-run.
    """

    ties: bool = False
    borderline: bool = False


def flags(info) -> ActiveSetInfo | None:
    """The door for ``info``, None or an :class:`ActiveSetInfo`, where a
    computation that hands it to :func:`active_columns` starts."""
    return instance(info, (ActiveSetInfo, type(None)), "active-set flags")


def check_tolerance(name: str, value: float) -> float:
    """``value`` as a float, which must be finite and >= 0 (else ``ValueError``)."""
    message = name + " must be finite and >= 0, got {!r}"
    if (v := finite_float(value, message)) < 0.0:
        raise ValueError(message.format(value))
    return v


def _extremes(cols, maximize: bool) -> list:
    """Per direction, ``max`` (``maximize``) or ``min`` of the members'
    values in member order; ``cols[i][j]`` is member ``i`` at direction
    ``j``."""
    if len(cols) == 1:
        return list(cols[0])
    return list(map(max if maximize else min, *cols))


def active_columns(cols, rtol: float, maximize: bool, info: ActiveSetInfo | None) -> tuple:
    """The active-set rule over many directions at once.

    ``cols[i][j]`` is member ``i``'s value at direction ``j``.  Returns
    ``(extremes, active)``: per direction ``j`` the extreme ``m_j``, the
    maximum (``maximize``) or the minimum of the members' values in member
    order, and the tuple of the members active there, those whose gap to
    ``m_j`` is at most ``eps_j = rtol * (1 + |m_j|)``.  ``info`` collects
    the tie flag (some direction has more than one active member) and the
    borderline flag (some gap lies in ``(eps_j, 10 eps_j]``).  A gap that
    is NaN, as at a non-finite extreme, makes its member inactive and not
    borderline.

    This one rule serves the derivative transform and the max/min rule
    verifiers (on one direction), :func:`sup`/:func:`inf`
    (once per parent block, and through :func:`sup` the faces of
    :func:`embed_polygon`) and the engine's sweep (once per max/min and
    level; these two pick leaves with :func:`active_extremes`), so both
    sides of the max/min rules agree on which members count.  The work
    runs column by column, with no Python call per direction: the
    extremes, the tolerances, and per member its gaps and their ``<= eps``
    and ``<= 10 eps`` columns, with the scalar rule's operations in its
    order, so the result and the flags are those of
    ``two_pass_active_members`` in ``tests/references.py`` applied to each
    direction.  It takes values checked where its caller's computation
    starts: at least one member, ``rtol`` from :func:`check_tolerance` and
    ``info`` from :func:`flags`.  This is where every flag is written.
    """
    extremes = _extremes(cols, maximize)
    eps = [rtol * (1.0 + abs(m)) for m in extremes]
    check_band = info is not None and not info.borderline
    band = [10.0 * e for e in eps] if check_band else None
    inside = []
    for col in cols:
        gaps = list(map(operator.sub, extremes, col) if maximize else map(operator.sub, col, extremes))
        within = list(map(operator.le, gaps, eps))
        # within eps implies within 10 eps, so the columns differ exactly
        # where a gap lies in (eps, 10 eps]
        if check_band and list(map(operator.le, gaps, band)) != within:
            info.borderline = True
            check_band = False
        inside.append(within)
    # one tuple per distinct selection: most directions share a few
    selections = list(zip(*inside))
    members = range(len(cols))
    tuples = {sel: tuple(compress(members, sel)) for sel in set(selections)}
    if info is not None and any(len(t) > 1 for t in tuples.values()):
        info.ties = True
    return extremes, list(map(tuples.__getitem__, selections))


def active_extremes(cols, keep, maximize: bool) -> list:
    """The leaf pick: per entry ``j``, ``max`` (``maximize``) or ``min`` of
    ``cols[i][j]`` over the members ``i`` in ``keep[j]``, in member order;
    a lone member's value is read directly (``max([v])`` is ``v``), and an
    entry with no active member gets NaN.

    ``keep`` is a non-empty block from :func:`active_columns`, which gives
    equal selections one tuple object.  A block that one selection covers
    is picked as whole columns by :func:`_extremes`, which compares in the
    same order; any other block is picked entry by entry."""
    sel = keep[0]
    if sel is keep[-1] and keep.count(sel) == len(keep):
        return _extremes([cols[i] for i in sel], maximize) if sel else [math.nan] * len(keep)
    pick = max if maximize else min
    return [cols[idx[0]][j] if len(idx) == 1 else pick([cols[i][j] for i in idx]) if idx else math.nan
            for j, idx in enumerate(keep)]


# ---------------------------------------------------------------------------
# sphere grids


def _content_id(dim, resolution, directions, subgrid) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<q", dim))
    h.update(struct.pack(f"<{len(resolution)}q", *resolution))
    flat = [v for d in directions for v in d]
    h.update(struct.pack(f"<{len(flat)}d", *flat))
    if subgrid is not None:
        h.update(subgrid.id.encode("ascii"))
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class SphereGrid:
    """Deterministic unit-direction grid on the sphere of dimension ``dim``.

    ``id`` is a content hash over the directions, the resolution and the
    nested sub-grid, so equal ids mean bitwise-identical grids; it is
    computed when omitted, and a given ``id`` that is not the hash raises
    :class:`GridMismatchError`.  Dimension 2 uses
    ``resolution[0]`` equally spaced angles starting at ``(1, 0)``;
    dimension 3 uses a polar-azimuth lattice with midpoint polar angles (no
    poles, no duplicate directions) and carries the circle grid used by the
    recursion one level down.
    """

    dim: int
    resolution: tuple
    directions: tuple
    subgrid: "SphereGrid | None"
    id: str | None = None

    def __post_init__(self):
        check_grid(self.subgrid)
        object.__setattr__(self, "dim", int_at_least(self.dim, 2, "grid dimension"))
        object.__setattr__(self, "resolution", tuple(
            [int_at_least(r, 1, "a grid resolution entry")
             for r in sequence(self.resolution, "resolution entries")]))
        message = "grid directions must be unit vectors, got {!r}"
        object.__setattr__(self, "directions", tuple(
            [finite_floats(d, message) for d in sequence(self.directions, "directions")]))
        gid = _content_id(self.dim, self.resolution, self.directions, self.subgrid)
        if not self.directions:
            raise ValueError("a sphere grid needs at least one direction")
        if self.dim == 2 and self.subgrid is not None:
            raise ValueError("a circle grid has no sub-grid")
        if self.dim >= 3:
            if self.subgrid is None or self.subgrid.dim != self.dim - 1:
                raise ValueError("grid of dimension n >= 3 needs a sub-grid of dimension n - 1")
        for l in self.directions:
            if len(l) != self.dim:
                raise ValueError("direction length does not match grid dimension")
            nrm = math.sqrt(dot(l, l))
            if abs(nrm - 1.0) > 1e-12:
                raise ValueError(f"grid directions must be unit vectors, got |l| = {nrm!r}")
        if self.id is None:
            object.__setattr__(self, "id", gid)
        elif self.id != gid:
            raise GridMismatchError(f"grid content hash mismatch: stored {self.id!r}, recomputed {gid!r}")

    def __len__(self) -> int:
        return len(self.directions)

    @cached_property
    def tangent_rows(self) -> tuple:
        """Per direction, the rows of its fixed tangent basis.

        Entry ``k`` is ``orthobasis(directions[k]).matrix_rows``: ``dim`` rows
        of ``dim - 1`` entries each.  Computed once, on first use.
        """
        return tuple(orthobasis(d).matrix_rows for d in self.directions)

    @cached_property
    def sweep_columns(self) -> tuple:
        """The points the engine's sweep runs a level over this grid at, one
        tuple per coordinate: the directions and, on a circle, then the leaf
        points ``B_d (-1)`` of every direction ``d``, then the leaf points
        ``B_d (+1)``, ``B_d`` the tangent basis of :attr:`tangent_rows`.
        Computed once, on first use."""
        cols = [list(c) for c in zip(*self.directions)]
        if self.dim == 2:
            for t in (-1.0, 1.0):
                for i, col in enumerate(cols):
                    col += [0.0 + rows[i][0] * t for rows in self.tangent_rows]
        return tuple(map(tuple, cols))

    @cached_property
    def lifted_columns(self) -> tuple | None:
        """Per direction ``k``, the sub-grid's :attr:`sweep_columns` lifted
        through the tangent basis ``tangent_rows[k]`` by :func:`_apply`: the
        points, in this grid's space, that the engine's sweep runs the level
        below direction ``k`` at, ``dim`` ``array('d')`` columns.

        They depend on the grid alone, so they are computed once, on first
        use, and kept, within ``_LIFT_BUDGET`` doubles: the default 3-D grid
        keeps 512 x 3 x 192 = 294,912 doubles (2.4 MB).  None on a circle,
        which has no sub-grid, and on a grid whose lift is larger than the
        budget; the sweep then lifts each direction's points per call, with
        the same :func:`_apply`."""
        sub = self.subgrid
        if sub is None or self.dim * len(sub.sweep_columns[0]) * len(self) > _LIFT_BUDGET:
            return None
        # packed doubles become an array about 3x faster than a list of
        # floats; the slice copies them into an array of exact size, since a
        # bytes initializer leaves room to grow (8 % more memory here)
        pack = struct.Struct(f"{len(sub.sweep_columns[0])}d").pack
        return tuple(tuple([array("d", pack(*col))[:] for col in _apply(rows, sub.sweep_columns)])
                     for rows in self.tangent_rows)

    @classmethod
    def circle(cls, resolution: int = 360) -> "SphereGrid":
        """Equally spaced directions ``(cos(2 pi k / M), sin(2 pi k / M))``."""
        m = int_at_least(resolution, 1, "circle resolution")
        dirs = []
        for k in range(m):
            a = 2.0 * math.pi * k / m
            dirs.append((math.cos(a), math.sin(a)))
        return cls(2, (m,), dirs, None)

    @classmethod
    def sphere(
        cls,
        n_polar: int = 32,
        n_azimuth: int = 64,
        circle_resolution: int = 64,
    ) -> "SphereGrid":
        """Polar-azimuth lattice on the 2-sphere with a nested circle grid."""
        np_, na = (int_at_least(k, 1, "a sphere lattice size") for k in (n_polar, n_azimuth))
        dirs = []
        for i in range(np_):
            theta = math.pi * (i + 0.5) / np_
            st, ct = math.sin(theta), math.cos(theta)
            for j in range(na):
                phi = 2.0 * math.pi * j / na
                dirs.append((st * math.cos(phi), st * math.sin(phi), ct))
        return cls(3, (np_, na), dirs, cls.circle(circle_resolution))

    def to_json_dict(self) -> dict:
        """The grid as a dict; a sub-grid nests under ``"subgrid"``."""
        d = {
            "id": self.id,
            "dim": self.dim,
            "resolution": list(self.resolution),
            "directions": [list(d) for d in self.directions],
        }
        if self.subgrid is not None:
            d["subgrid"] = self.subgrid.to_json_dict()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SphereGrid":
        """Rebuild a grid (and its nested sub-grids), re-hashing each one.

        Raises :class:`GridMismatchError` when a stored id does not match the
        recomputed content hash, and ``ValueError`` on a document of the
        wrong shape or content: the constructor takes the dimension and
        resolution through :func:`dirsubdiff.expr.int_at_least` and the
        directions through :func:`dirsubdiff.expr.finite_floats`.  The
        ``"subgrid"`` chain is walked in a loop, one dimension down per
        step, so a chain of any length ends in ``ValueError``.
        """
        try:
            chain = [d]  # grid documents, outermost first
            while "subgrid" in chain[-1]:
                sub, dim = chain[-1]["subgrid"], chain[-1]["dim"]
                if sub["dim"] != dim - 1:  # also ends a chain that loops back
                    raise ValueError(
                        f"malformed grid document: a {dim!r}-D grid with a {sub['dim']!r}-D sub-grid"
                    )
                chain.append(sub)
            grid = None
            for g in reversed(chain):
                # a field that is no sequence makes the document malformed
                grid = cls(g["dim"], sequence(g["resolution"], "resolution entries", TypeError),
                           sequence(g["directions"], "directions", TypeError), grid, g["id"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed grid document: {exc!r}") from exc
        return grid


def _apply(rows, cols) -> list:
    """``rows @ y`` for every point ``y`` of ``cols`` (one sequence per
    coordinate), one list per row, accumulated from 0.0 in the order of
    :func:`dirsubdiff.expr.dot`; an empty row (a constant substitution) gives a
    column of zeros.  Rows of two entries, through which a 3-D grid lifts
    its circle's points, take one comprehension per row, which adds in the
    same order.  The engine's sweep and :attr:`SphereGrid.lifted_columns`
    both lift through this one function, so their points have the same
    bits."""
    if len(rows[0]) == 2:
        c0, c1 = cols[0], cols[1]
        return [[0.0 + w0 * y0 + w1 * y1 for y0, y1 in zip(c0, c1)] for w0, w1 in rows]
    out = []
    for row in rows:
        acc = [0.0] * len(cols[0])
        for w, col in zip(row, cols):
            acc = [a + w * y for a, y in zip(acc, col)]
        out.append(acc)
    return out


def check_grid(grid, dim: int | None = None, what: str = "point") -> SphereGrid | None:
    """``grid`` when it is a :class:`SphereGrid` or ``None`` and, given
    ``dim``, fits a ``what`` of that dimension: no grid in 1-D, a grid of
    dimension ``dim`` above; else ``ValueError``."""
    if grid is not None and not isinstance(grid, SphereGrid):
        raise ValueError("a directed set's grid must be a SphereGrid or None")
    if dim is not None and (1 if grid is None else grid.dim) != dim:
        if dim == 1:
            raise ValueError(f"a 1-D {what} takes no grid")
        raise ValueError(f"a {dim}-D {what} needs a grid of dimension {dim}")
    return grid


def _sizes(grid: SphereGrid | None) -> list:
    """Direction counts along the grid chain, outermost first."""
    sizes = []
    while grid is not None:
        sizes.append(len(grid.directions))
        grid = grid.subgrid
    return sizes


def _lengths(grid: SphereGrid | None) -> list:
    """Lengths of the arrays ``levels + (a_neg, a_pos)`` of a set on ``grid``."""
    out = []
    n = 1
    for m in _sizes(grid):
        n *= m
        out.append(n)
    return out + [n, n]


def _widths(lengths, j: int = 0) -> list:
    """The layout rule: one entry of array ``j`` owns ``lengths[i] // lengths[j]``
    consecutive entries of every deeper array ``i``, the arrays of the set
    below it (entry ``k`` owns ``a[k * w:(k + 1) * w]``)."""
    return [n // lengths[j] for n in lengths[j + 1:]]


def _blocks(s: "DirectedSet") -> list:
    """Per top-level direction, the arrays of its lower set, by :func:`_widths`."""
    arrays = s._arrays
    widths = _widths([len(a) for a in arrays])
    return [
        [a[k * w:(k + 1) * w] for a, w in zip(arrays[1:], widths)]
        for k in range(len(arrays[0]))
    ]


# ---------------------------------------------------------------------------
# directed intervals and directed sets


@dataclass(frozen=True)
class DirectedInterval:
    """Ordered pair of the two 1-D support values ``(a(-1), a(+1))``."""

    a_neg: float
    a_pos: float

    def __post_init__(self):
        object.__setattr__(self, "a_neg", finite_float(self.a_neg, _LEAF_ENTRIES))
        object.__setattr__(self, "a_pos", finite_float(self.a_pos, _LEAF_ENTRIES))

    @property
    def lower_endpoint(self) -> float:
        """Left endpoint ``-a_neg`` of the visualized interval."""
        return -self.a_neg

    @property
    def upper_endpoint(self) -> float:
        return self.a_pos

    @property
    def is_inverted(self) -> bool:
        """True when the visualized endpoints come in reversed order."""
        return -self.a_neg > self.a_pos


def embed_interval(lo: float, hi: float) -> DirectedInterval:
    """Embed the proper interval ``[lo, hi]`` as the pair ``(-lo, hi)``."""
    lo, hi = (finite_float(v, "interval endpoints must be finite") for v in (lo, hi))
    if lo > hi:
        raise ValueError(f"embed_interval needs lo <= hi, got [{lo!r}, {hi!r}]")
    return DirectedInterval(-lo, hi)


class DirectedSet:
    """Directed set value in the flat layout of the module docstring.

    ``DirectedSet(grid, levels, a_neg, a_pos)`` checks the array lengths
    against ``grid`` (``None`` for a 1-D set, which has no levels and one
    leaf pair) and passes every value through the number door
    (:func:`dirsubdiff.expr.finite_floats`): numbers given from outside, by
    a caller or by :meth:`from_json_dict`, take it.  Arrays the package
    built itself go, as one sequence in layout order, through
    :meth:`_built`, which checks their finiteness only.  Either way the set
    keeps one tuple of arrays; ``levels`` (all but the last two),
    ``a_neg`` and ``a_pos`` (the last two) are views of it.  :meth:`leaf`,
    :meth:`from_interval` and :meth:`node` build sets from the recursive
    view.  Instances are immutable; arithmetic goes through
    :func:`linear_combination` (also exposed as ``+``, ``-`` and scalar
    ``*``).
    """

    __slots__ = ("dim", "grid", "_arrays", "levels", "a_neg", "a_pos", "_lowers")

    def __init__(self, grid: SphereGrid | None, levels, a_neg, a_pos):
        lengths = _lengths(check_grid(grid))
        levels = tuple([finite_floats(lv, _SUPPORTS) for lv in sequence(levels, "levels")])
        if len(levels) != len(lengths) - 2:
            raise ValueError(f"expected {len(lengths) - 2} support levels, got {len(levels)}")
        a_neg, a_pos = finite_floats(a_neg, _LEAF_ENTRIES), finite_floats(a_pos, _LEAF_ENTRIES)
        for lv, n in zip(levels, lengths):
            if len(lv) != n:
                raise ValueError(f"support level of length {len(lv)} does not match the grid ({n})")
        n = lengths[-1]
        if len(a_neg) != n or len(a_pos) != n:
            raise ValueError(f"leaf arrays must hold {n} pairs, got {len(a_neg)} and {len(a_pos)}")
        self._store(grid, levels + (a_neg, a_pos))

    @classmethod
    def _built(cls, grid: SphereGrid | None, arrays) -> "DirectedSet":
        """The set on arrays the package built itself: sequences of floats
        in layout order whose lengths fit ``grid`` by construction.  They
        are kept as tuples with no conversion and no length check; only
        their finiteness is checked, with the public constructor's
        messages, since a linear combination can overflow to inf."""
        arrays = tuple(map(tuple, arrays))
        for part, message in ((arrays[:-2], _SUPPORTS), (arrays[-2:], _LEAF_ENTRIES)):
            if not all(map(_finite, part)):
                raise ValueError(message)
        self = object.__new__(cls)
        self._store(grid, arrays)
        return self

    def _store(self, grid, arrays: tuple) -> None:
        set_ = object.__setattr__
        set_(self, "dim", grid.dim if grid is not None else 1)
        set_(self, "grid", grid)
        set_(self, "_arrays", arrays)
        set_(self, "levels", arrays[:-2])
        set_(self, "a_neg", arrays[-2])
        set_(self, "a_pos", arrays[-1])
        set_(self, "_lowers", None)

    def __setattr__(self, name, value):
        raise AttributeError("DirectedSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("DirectedSet is immutable")

    @classmethod
    def leaf(cls, a_neg: float, a_pos: float) -> "DirectedSet":
        return cls(None, (), (a_neg,), (a_pos,))

    @classmethod
    def from_interval(cls, interval: DirectedInterval) -> "DirectedSet":
        interval = instance(interval, DirectedInterval, "a directed interval")
        return cls.leaf(interval.a_neg, interval.a_pos)

    @classmethod
    def node(cls, grid: SphereGrid, supports, lowers) -> "DirectedSet":
        """The set with ``supports`` and lower sets ``lowers`` over ``grid``."""
        lowers = sequence(lowers, "directed sets")
        if check_grid(grid) is None:
            raise ValueError("a directed set node needs a grid")
        if len(lowers) != len(grid.directions):
            raise ValueError("supports/lowers length must match the grid")
        for low in lowers:
            if not isinstance(low, DirectedSet) or low.dim != grid.dim - 1:
                raise ValueError("lower components must be directed sets of dimension n - 1")
            if low.grid is not None and low.grid.id != grid.subgrid.id:
                raise GridMismatchError("lower component grid differs from the declared sub-grid")
        glued = [[v for a in arrays for v in a] for arrays in zip(*[low._arrays for low in lowers])]
        return cls(grid, [supports] + glued[:-2], glued[-2], glued[-1])

    # the recursive view ----------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.dim == 1

    @property
    def supports(self) -> tuple | None:
        """Top-level support values, one per grid direction (``None`` in 1-D)."""
        return self.levels[0] if self.levels else None

    @property
    def interval(self) -> DirectedInterval | None:
        """The pair of a 1-D set (``None`` in higher dimensions)."""
        return DirectedInterval(self.a_neg[0], self.a_pos[0]) if self.dim == 1 else None

    @property
    def lowers(self) -> tuple | None:
        """Lower sets of dimension n - 1, one per grid direction (``None`` in 1-D).

        Built from slices of the flat arrays on first use and kept.
        """
        if self.dim == 1:
            return None
        if self._lowers is None:
            sub = self.grid.subgrid
            lowers = tuple(DirectedSet._built(sub, b) for b in _blocks(self))
            object.__setattr__(self, "_lowers", lowers)
        return self._lowers

    # value semantics --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DirectedSet):
            return NotImplemented
        return (self.dim, self.grid, self._arrays) == (other.dim, other.grid, other._arrays)

    def __hash__(self):
        return hash((self.dim, self.grid, self._arrays))

    def __repr__(self):
        if self.dim == 1:
            return f"DirectedSet.leaf({self.a_neg[0]!r}, {self.a_pos[0]!r})"
        return f"<DirectedSet dim={self.dim} grid={self.grid.id} norm={norm(self)!r}>"

    # arithmetic sugar -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DirectedSet):
            return NotImplemented
        return linear_combination(1.0, self, 1.0, other)

    def __sub__(self, other):
        if not isinstance(other, DirectedSet):
            return NotImplemented
        return linear_combination(1.0, self, -1.0, other)

    def __neg__(self):
        return scale(-1.0, self)

    def __mul__(self, alpha):
        if not isinstance(alpha, (int, float)):
            return NotImplemented
        return scale(alpha, self)

    __rmul__ = __mul__

    # serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready dict.

        1-D: ``{"dim": 1, "a_neg", "a_pos"}``.  2-D: the grid and one entry
        per direction, ``{"support", "lower": <1-D dict>}``.  Dimension
        n >= 3 (``"format": 2``): the grid once, with its sub-grids nested
        under ``"subgrid"``, and per direction ``{"support", "lower"}`` where
        ``lower`` is one flat float list: the lower set's support levels in
        order, then its ``a_neg``, then its ``a_pos`` entries.
        """
        if self.dim == 1:
            return {"dim": 1, "a_neg": self.a_neg[0], "a_pos": self.a_pos[0]}
        if self.dim == 2:
            return {
                "dim": 2,
                "grid": self.grid.to_json_dict(),
                "entries": [
                    {"support": s, "lower": {"dim": 1, "a_neg": an, "a_pos": ap}}
                    for s, an, ap in zip(self.levels[0], self.a_neg, self.a_pos)
                ],
            }
        entries = [
            {"support": s, "lower": [v for a in block for v in a]}
            for s, block in zip(self.levels[0], _blocks(self))
        ]
        return {"format": 2, "dim": self.dim, "grid": self.grid.to_json_dict(), "entries": entries}

    def to_json(self, indent: int | None = 2) -> str:
        """``json.dumps(self.to_json_dict(), indent=indent)``.  With an
        indent this is the text :func:`write_json` writes of the set itself,
        straight from its arrays, with no dict built."""
        if indent is None:
            return json.dumps(self.to_json_dict())
        buf = io.StringIO()
        write_json(self, buf, indent)
        return buf.getvalue()

    @classmethod
    def from_json_dict(cls, d: dict) -> "DirectedSet":
        """Inverse of :meth:`to_json_dict`.

        The document's numbers enter through the package's doors: its
        dimension and format through :func:`dirsubdiff.expr.int_at_least`,
        its grid through :meth:`SphereGrid.from_json_dict` and its values
        through the public constructor.  So a ``bool``, a string, ``null``
        or an integer too large for a float is refused as it would be from
        a caller, with that door's ``ValueError``.  Raises
        :class:`GridMismatchError` when a stored grid id does not match its
        content, and ``ValueError`` on a wrong format tag (a dimension
        n >= 3 document must carry ``"format": 2``), a wrong array length,
        a non-finite value, or a document of the wrong shape or with a
        missing key.
        """
        try:
            return cls._decode(d)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed directed set document: {exc!r}") from exc

    @classmethod
    def _decode(cls, d) -> "DirectedSet":
        dim = int_at_least(d["dim"], 1, "a directed set document's dim")
        fmt, want = int_at_least(d.get("format", 1), 1, "a document format"), (2 if dim >= 3 else 1)
        if fmt != want:
            raise ValueError(f"a {dim}-D directed set document must be format {want}, got {fmt!r}")
        if dim == 1:
            return cls.leaf(d["a_neg"], d["a_pos"])
        grid = SphereGrid.from_json_dict(d["grid"])
        if grid.dim != dim:
            raise ValueError(f"document of dimension {dim} carries a {grid.dim}-D grid")
        entries = d["entries"]
        if len(entries) != len(grid):
            raise ValueError(f"{len(entries)} entries for a grid of {len(grid)} directions")
        supports = [e["support"] for e in entries]
        if dim == 2:
            lowers = [e["lower"] for e in entries]
            if {int_at_least(low["dim"], 1, "a lower set's dim") for low in lowers} != {1}:
                raise ValueError("lower components of a 2-D set must be 1-D")
            a_neg = [low["a_neg"] for low in lowers]
            a_pos = [low["a_pos"] for low in lowers]
            return cls(grid, (supports,), a_neg, a_pos)
        widths = _widths(_lengths(grid))
        total = sum(widths)
        arrays = [[] for _ in widths]
        for k, e in enumerate(entries):
            lower = e["lower"]
            if not isinstance(lower, list) or len(lower) != total:
                raise ValueError(f"entry {k}: lower must be a list of {total} floats")
            start = 0
            for a, w in zip(arrays, widths):
                a += lower[start:start + w]
                start += w
        return cls(grid, [supports] + arrays[:-2], arrays[-2], arrays[-1])

    @classmethod
    def from_json(cls, text: str) -> "DirectedSet":
        """:meth:`from_json_dict` of the decoded ``text`` (``str``, ``bytes``
        or ``bytearray``); other types, and a document nested too deeply to
        decode, raise ``ValueError``."""
        if not isinstance(text, _TEXT):
            raise ValueError(f"malformed directed set document: expected text, got a {type(text).__name__}")
        try:
            return cls.from_json_dict(json.loads(text))
        except RecursionError:
            raise ValueError("directed set document nested too deeply to decode") from None


# ---------------------------------------------------------------------------
# JSON output

_CONTAINERS = (list, tuple, dict)
#: the values :func:`write_json` walks into when they are not empty
_NESTED = (*_CONTAINERS, DirectedSet)


def write_json(obj, fp, indent: int = 2) -> None:
    """Write exactly the text of ``json.dumps(obj, indent=indent,
    default=DirectedSet.to_json_dict)`` to ``fp``.

    ``json.dumps`` runs CPython's C encoder only without an indent.  Here a
    container whose values are scalars or empty containers is one compact
    ``json.dumps`` call whose item separator carries the newline and the
    indent, and only containers holding non-empty containers or directed
    sets are walked in Python.  Floats, strings, ints,
    ``true``/``false``/``null``, ``NaN`` and ``Infinity`` and non-string
    keys thus come out as ``json.dumps`` writes them.

    A :class:`DirectedSet` may stand wherever a value may.  It is written
    straight from its arrays, with the text of its
    :meth:`~DirectedSet.to_json_dict` at the depth where it stands, and
    none of its dicts is built (:func:`_write_set`).

    The text goes to ``fp.write`` in pieces, each at most the text of one
    container of scalars with the separator, key or set entry head before
    it, so no whole-document string is built.
    """
    _write(obj, fp.write, " " * indent, 0)


def _flat(values) -> bool:
    """True when no value is a non-empty container or a set (a type check
    first, since the values are mostly floats)."""
    if not any(issubclass(t, _NESTED) for t in set(map(type, values))):
        return True
    return not any(isinstance(v, _NESTED) and v for v in values)


def _write(obj, write, pad: str, depth: int) -> None:
    if isinstance(obj, DirectedSet):
        _write_set(obj, write, pad, depth)
        return
    if not (isinstance(obj, _CONTAINERS) and obj):
        write(json.dumps(obj))
        return
    inner, close = "\n" + pad * (depth + 1), "\n" + pad * depth
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    if _flat(values):
        text = json.dumps(obj, separators=("," + inner, ": "))
        write(text[0] + inner + text[1:-1] + close + text[-1])
        return
    # the C encoder coerces a non-string key (float, int, bool, None) as json.dumps does
    keys = [json.dumps({k: 0})[1:-4] + ": " for k in obj] if is_dict else [""] * len(obj)
    sep = inner
    write("{" if is_dict else "[")
    for key, value in zip(keys, values):
        write(sep + key)
        _write(value, write, pad, depth + 1)
        sep = "," + inner
    write(close + ("}" if is_dict else "]"))


def _write_set(s: DirectedSet, write, pad: str, depth: int) -> None:
    """The text of ``s.to_json_dict()`` at ``depth``, from ``s._arrays``.

    A set's entries are finite floats by construction: the public
    constructor takes them through the number door, which refuses a
    ``bool``, text and non-finite values and converts the rest to
    ``float``, and :meth:`DirectedSet._built` refuses non-finite ones.  For
    a finite float, ``repr`` (and ``%r``) is the text ``json.dumps``
    writes.  So a 2-D entry is two pieces, a support head and a lower-dict
    template, each one ``%`` operation; an n >= 3 entry is three, a support
    head, the ``repr`` of its lower list joined by one ``str.join`` and its
    close.  Each entry's close is written with the next entry's head.  The
    grid goes through :func:`_write_grid`, and a 1-D set, two values,
    through its dict.
    """
    if s.dim == 1:
        _write(s.to_json_dict(), write, pad, depth)
        return
    p0, p1, p2, p3, p4 = ("\n" + pad * (depth + k) for k in range(5))
    if s.dim == 2:
        write(f'{{{p1}"dim": 2,{p1}"grid": ')
    else:
        write(f'{{{p1}"format": 2,{p1}"dim": {s.dim},{p1}"grid": ')
    _write_grid(s.grid, write, pad, depth + 1)
    write(f',{p1}"entries": [')
    entry = f'{{{p3}"support": %r,{p3}"lower": ' + ("" if s.dim == 2 else "[" + p4)
    heads = chain([p2 + entry], repeat(f"{p2}}},{p2}{entry}"))
    if s.dim == 2:
        lower = f'{{{p4}"dim": 1,{p4}"a_neg": %r,{p4}"a_pos": %r{p3}}}'
        for head, v, an, ap in zip(heads, s.levels[0], s.a_neg, s.a_pos):
            write(head % v)
            write(lower % (an, ap))
    else:
        sep, end = "," + p4, p3 + "]"
        for head, v, block in zip(heads, s.levels[0], _blocks(s)):
            write(head % v)
            write(sep.join(map(repr, chain.from_iterable(block))))
            write(end)
    write(f"{p2}}}{p1}]{p0}}}")


def _write_grid(grid: SphereGrid, write, pad: str, depth: int) -> None:
    """The text of ``grid.to_json_dict()`` at ``depth``: its id and
    resolution through :func:`_write`, and each direction, finite floats
    by the grid's number door, as one ``%r`` template."""
    p0, p1, p2, p3 = ("\n" + pad * (depth + k) for k in range(4))
    write(f'{{{p1}"id": ')
    _write(grid.id, write, pad, depth + 1)
    write(f',{p1}"dim": {grid.dim},{p1}"resolution": ')
    _write(list(grid.resolution), write, pad, depth + 1)
    write(f',{p1}"directions": [')
    direction = f"[{p3}" + f",{p3}".join(["%r"] * grid.dim) + f"{p2}]"
    for head, d in zip(chain([p2 + direction], repeat(f",{p2}{direction}")), grid.directions):
        write(head % d)
    write(p1 + "]")
    if grid.subgrid is not None:
        write(f',{p1}"subgrid": ')
        _write_grid(grid.subgrid, write, pad, depth + 1)
    write(p0 + "}")


# ---------------------------------------------------------------------------
# embeddings


def embed_point(point, grid: SphereGrid | None = None) -> DirectedSet:
    """Embed the singleton ``{point}`` as a directed set.

    In dimension 1 this is the degenerate interval; in higher dimensions
    every supporting face is the point itself, projected into the tangent
    hyperplane through the fixed basis.
    """
    p = sequence(point)  # converted below: by the interval or as level 0's point
    n = len(p)
    if n == 0:
        raise ValueError("point must have at least one coordinate")
    if check_grid(grid, n) is None:
        return DirectedSet.from_interval(embed_interval(p[0], p[0]))
    # per coordinate, the point as each set of a level sees it, in walk order
    cols = [(v,) for v in finite_floats(p, _SUPPORTS)]
    levels = []
    g = grid
    while g is not None:
        levels.append(list(chain.from_iterable(zip(*_apply(g.directions, cols)))))
        projections = [_apply(tuple(zip(*rows)), cols) for rows in g.tangent_rows]
        cols = [list(chain.from_iterable(zip(*[proj[j] for proj in projections])))
                for j in range(g.dim - 1)]
        g = g.subgrid
    return DirectedSet._built(grid, levels + [[-v for v in cols[0]], cols[0]])


def embed_polygon(vertices, grid: SphereGrid) -> DirectedSet:
    """Embed the convex hull of 2-D ``vertices`` as a directed set.

    The hull is implicit: it is the :func:`sup` of the embedded vertices, so
    for each grid direction the support is the maximum of ``<l, v>`` over all
    vertices and the lower component is the embedded projection of the
    supporting face (the vertices that :func:`active_columns` finds active)
    onto the fixed tangent axis.  Degenerate inputs (single point, two
    points, collinear points) are fine.
    """
    verts = [sequence(v) for v in sequence(vertices, "vertices")]
    if not verts:
        raise ValueError("polygon needs at least one vertex")
    if any(len(v) != 2 for v in verts):
        raise ValueError("polygon vertices must be 2-D")
    if check_grid(grid) is None or grid.dim != 2:
        raise ValueError("polygon embedding needs a 2-D grid")
    return sup([embed_point(finite_floats(v, "polygon vertices must be finite"), grid) for v in verts])


# ---------------------------------------------------------------------------
# linear structure


def _directed(value) -> DirectedSet:
    """The door for directed sets: :func:`dirsubdiff.expr.instance`."""
    return instance(value, DirectedSet, "a directed set")


def _check_compatible(a: DirectedSet, b: DirectedSet):
    a, b = _directed(a), _directed(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim >= 2 and a.grid.id != b.grid.id:
        raise GridMismatchError(
            f"grids do not interoperate: {a.grid.id!r} vs {b.grid.id!r}"
        )


def linear_combination(alpha: float, a: DirectedSet, beta: float, b: DirectedSet) -> DirectedSet:
    """Componentwise ``alpha * a + beta * b``; negative coefficients allowed.

    Both stored support values of the 1-D pair combine with the plain
    coefficients (no endpoint swapping), which is exactly what makes the
    space linear and inversion representable.
    """
    alpha, beta = (finite_float(c, "coefficients must be finite") for c in (alpha, beta))
    _check_compatible(a, b)
    arrays = [
        [alpha * x + beta * y for x, y in zip(xs, ys)]
        for xs, ys in zip(a._arrays, b._arrays)
    ]
    return DirectedSet._built(a.grid, arrays)


def scale(alpha: float, a: DirectedSet) -> DirectedSet:
    return linear_combination(alpha, a, 0.0, a)


def directed_zero(dim: int, grid: SphereGrid | None = None) -> DirectedSet:
    """The neutral element: all support values and lower components zero."""
    if check_grid(grid, int_at_least(dim, 1, "dimension"), "directed zero") is None:
        return DirectedSet.leaf(0.0, 0.0)
    return DirectedSet._built(grid, [(0.0,) * n for n in _lengths(grid)])


def norm(a: DirectedSet) -> float:
    """Recursive sup norm: the largest support value or leaf entry in magnitude.

    Per array the larger of its maximum and its negated minimum; the final
    ``abs`` turns the ``-0.0`` of an all-zero set into ``0.0``."""
    return abs(max([max(max(xs), -min(xs)) for xs in _directed(a)._arrays]))


def distance(a: DirectedSet, b: DirectedSet) -> float:
    """Metric induced by the norm, ``norm(a - b)``, in one pass."""
    _check_compatible(a, b)
    d = max(max(map(abs, map(operator.sub, xs, ys))) for xs, ys in zip(a._arrays, b._arrays))
    return finite_float(d, _SUPPORTS)


# ---------------------------------------------------------------------------
# lattice structure and order


def _extreme(sets, rtol, info, maximize):
    """sup (``maximize``) or inf of a family, level by level.

    Below every entry of a level reached so far, the members still active
    at that entry are compared over the whole block of entries below it by
    one :func:`active_columns` call.  An entry with one active member
    copies that member's whole block below it; one with several passes them
    on to the entries below it.  At the last level the leaf pairs below a
    block are :func:`active_extremes` over the members active at each
    entry.  A 1-D family takes the componentwise extreme of its pairs.
    """
    rtol = check_tolerance("active_rtol", rtol)
    family = [_directed(s) for s in sequence(sets, "directed sets")]
    if not family:
        raise ValueError("sup/inf of an empty family")
    first = family[0]
    for s in family[1:]:
        _check_compatible(first, s)
    info = flags(info)
    members = [s._arrays for s in family]
    if first.grid is None:  # 1-D: the componentwise extreme of the pairs
        return DirectedSet._built(None, [_extremes(cols, maximize) for cols in zip(*members)])
    out = [list(xs) for xs in members[0]]  # blocks with member 0 active stay as they are
    depth = len(first.levels)
    lengths = _lengths(first.grid)
    pending = {tuple(range(len(family))): [0]}  # active members -> entries to resolve
    for j, m in enumerate(_sizes(first.grid)):
        below = _widths(lengths, j)
        row = out[j]
        carried: dict = {}
        for active, parents in pending.items():
            stay = (0,) if active[0] == 0 else None  # member 0 alone: its copy stays
            for parent in parents:
                lo = parent * m
                row[lo:lo + m], keep = active_columns(
                    [members[i][j][lo:lo + m] for i in active], rtol, maximize, info
                )
                if j + 1 == depth:  # only the leaf pairs lie below, one per entry
                    for jj in (depth, depth + 1):
                        leaves = [members[i][jj][lo:lo + m] for i in active]
                        out[jj][lo:lo + m] = active_extremes(leaves, keep, maximize)
                    continue
                for idx, kept in compress(enumerate(keep, lo), map(operator.ne, keep, repeat(stay))):
                    if len(kept) > 1:
                        carried.setdefault(tuple([active[k] for k in kept]), []).append(idx)
                    else:
                        source = members[active[kept[0]]]
                        for jj, w in enumerate(below, j + 1):
                            out[jj][idx * w:(idx + 1) * w] = source[jj][idx * w:(idx + 1) * w]
        pending = carried
    return DirectedSet._built(first.grid, out)


def sup(sets, active_rtol: float = ACTIVE_RTOL, info: ActiveSetInfo | None = None) -> DirectedSet:
    """Supremum of a family of directed sets over a shared grid.

    1-D: componentwise maximum of the stored pairs.  Higher dimensions take
    the pointwise maximal support and recurse on the lower components of the
    members that :func:`active_columns` finds active there.
    """
    return _extreme(sets, active_rtol, info, True)


def inf(sets, active_rtol: float = ACTIVE_RTOL, info: ActiveSetInfo | None = None) -> DirectedSet:
    """Infimum of a family of directed sets; mirror image of :func:`sup`."""
    return _extreme(sets, active_rtol, info, False)


def leq(a: DirectedSet, b: DirectedSet, eps: float = 1e-9) -> bool:
    """Partial order check ``a <= b`` with additive slack ``eps``.

    Every support of ``a`` must stay below the matching support of ``b``
    plus ``eps``; where the two supports agree within ``eps`` (and dimension
    permits) the comparison recurses into the lower components.
    """
    eps = check_tolerance("eps", eps)
    _check_compatible(a, b)
    tied = [0]  # entries of the current level whose supports agree within eps
    for j, m in enumerate(_sizes(a.grid)):
        av, bv = a.levels[j], b.levels[j]
        below = []
        for parent in tied:
            for idx in range(parent * m, (parent + 1) * m):
                if av[idx] > bv[idx] + eps:
                    return False
                if abs(av[idx] - bv[idx]) <= eps:
                    below.append(idx)
        tied = below
    return all(
        a.a_neg[idx] <= b.a_neg[idx] + eps and a.a_pos[idx] <= b.a_pos[idx] + eps
        for idx in tied
    )
