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

Two grids interoperate only when their content ids are equal; mixing
resolutions raises :class:`GridMismatchError` instead of resampling silently.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

from .basis import orthobasis

#: relative scale of the active-set tolerance: eps = ACTIVE_RTOL * (1 + |extreme|)
ACTIVE_RTOL = 1e-9

#: absolute tie tolerance when grouping supporting-face vertices
FACE_TIE_TOL = 1e-12


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


def active_members(values, rtol: float, maximize: bool, info: ActiveSetInfo | None) -> list:
    """Indices of the members of ``values`` that are active at the extreme.

    The extreme ``m`` is the maximum (``maximize``) or the minimum; a member
    is active when its gap to ``m`` is at most ``eps = rtol * (1 + |m|)``.
    This one rule serves the derivative transform, :func:`sup`/:func:`inf`
    and the max/min rule verifiers, so both sides of the max/min rules agree
    on which members count.  ``info`` collects the tie and borderline flags.
    """
    m = max(values) if maximize else min(values)
    eps = rtol * (1.0 + abs(m))
    gaps = [m - v for v in values] if maximize else [v - m for v in values]
    active = [i for i, gap in enumerate(gaps) if gap <= eps]
    if info is not None:
        if len(active) > 1:
            info.ties = True
        if any(eps < gap <= 10.0 * eps for gap in gaps):
            info.borderline = True
    return active


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
    nested sub-grid, so equal ids mean bitwise-identical grids.  Dimension 2
    uses ``resolution[0]`` equally spaced angles starting at ``(1, 0)``;
    dimension 3 uses a polar-azimuth lattice with midpoint polar angles (no
    poles, no duplicate directions) and carries the circle grid used by the
    recursion one level down.
    """

    dim: int
    resolution: tuple
    directions: tuple
    subgrid: "SphereGrid | None"
    id: str

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("sphere grids exist for dimension >= 2")
        if self.dim == 2 and self.subgrid is not None:
            raise ValueError("a circle grid has no sub-grid")
        if self.dim >= 3:
            if self.subgrid is None or self.subgrid.dim != self.dim - 1:
                raise ValueError("grid of dimension n >= 3 needs a sub-grid of dimension n - 1")
        for l in self.directions:
            if len(l) != self.dim:
                raise ValueError("direction length does not match grid dimension")
            nrm = math.sqrt(sum(v * v for v in l))
            if abs(nrm - 1.0) > 1e-12:
                raise ValueError(f"grid directions must be unit vectors, got |l| = {nrm!r}")

    def __len__(self) -> int:
        return len(self.directions)

    @classmethod
    def _from_parts(cls, dim, resolution, directions, subgrid) -> "SphereGrid":
        resolution = tuple(int(r) for r in resolution)
        directions = tuple(tuple(float(v) for v in d) for d in directions)
        gid = _content_id(dim, resolution, directions, subgrid)
        return cls(dim, resolution, directions, subgrid, gid)

    @classmethod
    def circle(cls, resolution: int = 360) -> "SphereGrid":
        """Equally spaced directions ``(cos(2 pi k / M), sin(2 pi k / M))``."""
        m = int(resolution)
        if m < 1:
            raise ValueError("circle resolution must be >= 1")
        dirs = []
        for k in range(m):
            a = 2.0 * math.pi * k / m
            dirs.append((math.cos(a), math.sin(a)))
        return cls._from_parts(2, (m,), dirs, None)

    @classmethod
    def sphere(
        cls,
        n_polar: int = 32,
        n_azimuth: int = 64,
        circle_resolution: int = 64,
    ) -> "SphereGrid":
        """Polar-azimuth lattice on the 2-sphere with a nested circle grid."""
        np_, na = int(n_polar), int(n_azimuth)
        if np_ < 1 or na < 1:
            raise ValueError("sphere lattice sizes must be >= 1")
        dirs = []
        for i in range(np_):
            theta = math.pi * (i + 0.5) / np_
            st, ct = math.sin(theta), math.cos(theta)
            for j in range(na):
                phi = 2.0 * math.pi * j / na
                dirs.append((st * math.cos(phi), st * math.sin(phi), ct))
        return cls._from_parts(3, (np_, na), dirs, cls.circle(circle_resolution))

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "dim": self.dim,
            "resolution": list(self.resolution),
            "directions": [list(d) for d in self.directions],
        }

    @classmethod
    def from_json_dict(cls, d: dict, subgrid: "SphereGrid | None" = None) -> "SphereGrid":
        rebuilt = cls._from_parts(d["dim"], d["resolution"], d["directions"], subgrid)
        if rebuilt.id != d["id"]:
            raise GridMismatchError(
                f"grid content hash mismatch: stored {d['id']!r}, recomputed {rebuilt.id!r}"
            )
        return rebuilt


# ---------------------------------------------------------------------------
# directed intervals and directed sets


@dataclass(frozen=True)
class DirectedInterval:
    """Ordered pair of the two 1-D support values ``(a(-1), a(+1))``."""

    a_neg: float
    a_pos: float

    def __post_init__(self):
        an, ap = float(self.a_neg), float(self.a_pos)
        if not (math.isfinite(an) and math.isfinite(ap)):
            raise ValueError("directed interval entries must be finite")
        object.__setattr__(self, "a_neg", an)
        object.__setattr__(self, "a_pos", ap)

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
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval endpoints must be finite")
    if lo > hi:
        raise ValueError(f"embed_interval needs lo <= hi, got [{lo!r}, {hi!r}]")
    return DirectedInterval(-lo, hi)


@dataclass(frozen=True)
class DirectedSet:
    """Recursive directed set value.

    Dimension 1 stores a :class:`DirectedInterval`; dimension n >= 2 stores,
    per grid direction, a support value and a lower directed set of dimension
    n - 1.  Instances are immutable; arithmetic goes through
    :func:`linear_combination` (also exposed as ``+``, ``-`` and scalar
    ``*``).
    """

    dim: int
    interval: DirectedInterval | None = None
    grid: SphereGrid | None = None
    supports: tuple | None = None
    lowers: tuple | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.dim == 1:
            if not isinstance(self.interval, DirectedInterval):
                raise ValueError("1-D directed set needs a directed interval")
            if self.grid is not None or self.supports is not None or self.lowers is not None:
                raise ValueError("1-D directed set carries only an interval")
            return
        if self.interval is not None:
            raise ValueError("only 1-D directed sets carry an interval")
        if not isinstance(self.grid, SphereGrid) or self.grid.dim != self.dim:
            raise ValueError("grid dimension must match the set dimension")
        if self.supports is None or self.lowers is None:
            raise ValueError("directed set of dimension >= 2 needs supports and lowers")
        m = len(self.grid.directions)
        if len(self.supports) != m or len(self.lowers) != m:
            raise ValueError("supports/lowers length must match the grid")
        for s in self.supports:
            if not math.isfinite(s):
                raise ValueError("support values must be finite")
        for low in self.lowers:
            if not isinstance(low, DirectedSet) or low.dim != self.dim - 1:
                raise ValueError("lower components must be directed sets of dimension n - 1")
            if self.dim - 1 >= 2 and low.grid.id != self.grid.subgrid.id:
                raise GridMismatchError("lower component grid differs from the declared sub-grid")

    @classmethod
    def leaf(cls, a_neg: float, a_pos: float) -> "DirectedSet":
        return cls(1, interval=DirectedInterval(a_neg, a_pos))

    @classmethod
    def from_interval(cls, interval: DirectedInterval) -> "DirectedSet":
        return cls(1, interval=interval)

    @classmethod
    def node(cls, grid: SphereGrid, supports, lowers) -> "DirectedSet":
        return cls(
            grid.dim,
            grid=grid,
            supports=tuple(float(s) for s in supports),
            lowers=tuple(lowers),
        )

    @property
    def is_leaf(self) -> bool:
        return self.dim == 1

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
        if self.dim == 1:
            return {"dim": 1, "a_neg": self.interval.a_neg, "a_pos": self.interval.a_pos}
        return {
            "dim": self.dim,
            "grid": self.grid.to_json_dict(),
            "entries": [
                {"support": s, "lower": low.to_json_dict()}
                for s, low in zip(self.supports, self.lowers)
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, d: dict) -> "DirectedSet":
        if d["dim"] == 1:
            return cls.leaf(d["a_neg"], d["a_pos"])
        lowers = tuple(cls.from_json_dict(entry["lower"]) for entry in d["entries"])
        supports = tuple(entry["support"] for entry in d["entries"])
        subgrid = lowers[0].grid if d["dim"] - 1 >= 2 else None
        grid = SphereGrid.from_json_dict(d["grid"], subgrid=subgrid)
        return cls.node(grid, supports, lowers)

    @classmethod
    def from_json(cls, text: str) -> "DirectedSet":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# embeddings


def embed_point(point, grid: SphereGrid | None = None) -> DirectedSet:
    """Embed the singleton ``{point}`` as a directed set.

    In dimension 1 this is the degenerate interval; in higher dimensions
    every supporting face is the point itself, projected into the tangent
    hyperplane through the fixed basis.
    """
    p = tuple(float(v) for v in point)
    n = len(p)
    if n == 0:
        raise ValueError("point must have at least one coordinate")
    if n == 1:
        return DirectedSet.from_interval(embed_interval(p[0], p[0]))
    if grid is None or grid.dim != n:
        raise ValueError(f"embedding a {n}-D point needs a grid of dimension {n}")
    supports = []
    lowers = []
    for l in grid.directions:
        supports.append(sum(lv * pv for lv, pv in zip(l, p)))
        cols = orthobasis(l).columns
        proj = tuple(sum(cv * pv for cv, pv in zip(col, p)) for col in cols)
        lowers.append(embed_point(proj, grid.subgrid))
    return DirectedSet.node(grid, supports, lowers)


def embed_polygon(vertices, grid: SphereGrid) -> DirectedSet:
    """Embed the convex hull of 2-D ``vertices`` as a directed set.

    The hull is implicit: for each grid direction the support is the maximum
    of ``<l, v>`` over all vertices and the lower component is the embedded
    projection of the supporting face (all vertices tying for the maximum
    within :data:`FACE_TIE_TOL`) onto the fixed tangent axis.  Degenerate
    inputs (single point, two points, collinear points) are fine.
    """
    verts = [tuple(float(c) for c in v) for v in vertices]
    if not verts:
        raise ValueError("polygon needs at least one vertex")
    for v in verts:
        if len(v) != 2:
            raise ValueError("polygon vertices must be 2-D")
        if not all(math.isfinite(c) for c in v):
            raise ValueError("polygon vertices must be finite")
    if grid.dim != 2:
        raise ValueError("polygon embedding needs a 2-D grid")
    supports = []
    lowers = []
    for l in grid.directions:
        vals = [l[0] * v[0] + l[1] * v[1] for v in verts]
        m = max(vals)
        r = orthobasis(l).columns[0]
        projs = [
            r[0] * v[0] + r[1] * v[1]
            for v, val in zip(verts, vals)
            if m - val <= FACE_TIE_TOL
        ]
        supports.append(m)
        lowers.append(DirectedSet.from_interval(embed_interval(min(projs), max(projs))))
    return DirectedSet.node(grid, supports, lowers)


# ---------------------------------------------------------------------------
# linear structure


def _check_compatible(a: DirectedSet, b: DirectedSet):
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
    alpha, beta = float(alpha), float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("coefficients must be finite")
    _check_compatible(a, b)
    if a.dim == 1:
        return DirectedSet.leaf(
            alpha * a.interval.a_neg + beta * b.interval.a_neg,
            alpha * a.interval.a_pos + beta * b.interval.a_pos,
        )
    supports = tuple(
        alpha * sa + beta * sb for sa, sb in zip(a.supports, b.supports)
    )
    lowers = tuple(
        linear_combination(alpha, la, beta, lb) for la, lb in zip(a.lowers, b.lowers)
    )
    return DirectedSet.node(a.grid, supports, lowers)


def scale(alpha: float, a: DirectedSet) -> DirectedSet:
    return linear_combination(alpha, a, 0.0, a)


def directed_zero(dim: int, grid: SphereGrid | None = None) -> DirectedSet:
    """The neutral element: all support values and lower components zero."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim == 1:
        return DirectedSet.leaf(0.0, 0.0)
    if grid is None or grid.dim != dim:
        raise ValueError(f"directed zero of dimension {dim} needs a grid of dimension {dim}")
    lower = directed_zero(dim - 1, grid.subgrid)
    m = len(grid.directions)
    return DirectedSet.node(grid, (0.0,) * m, (lower,) * m)


def norm(a: DirectedSet) -> float:
    """Recursive sup norm: the largest support value or leaf entry in magnitude."""
    if a.dim == 1:
        return max(abs(a.interval.a_neg), abs(a.interval.a_pos))
    best = 0.0
    for s, low in zip(a.supports, a.lowers):
        v = abs(s)
        if v > best:
            best = v
        v = norm(low)
        if v > best:
            best = v
    return best


def distance(a: DirectedSet, b: DirectedSet) -> float:
    """Metric induced by the norm, ``norm(a - b)``."""
    return norm(linear_combination(1.0, a, -1.0, b))


# ---------------------------------------------------------------------------
# lattice structure and order


def _extreme(sets, rtol, info, maximize):
    family = list(sets)
    if not family:
        raise ValueError("sup/inf of an empty family")
    first = family[0]
    for s in family[1:]:
        _check_compatible(first, s)
    pick = max if maximize else min
    if first.dim == 1:
        return DirectedSet.leaf(
            pick(s.interval.a_neg for s in family),
            pick(s.interval.a_pos for s in family),
        )
    supports = []
    lowers = []
    for k in range(len(first.grid.directions)):
        vals = [s.supports[k] for s in family]
        active = active_members(vals, rtol, maximize, info)
        supports.append(pick(vals))
        if len(active) == 1:
            lowers.append(family[active[0]].lowers[k])
        else:
            lowers.append(_extreme([family[i].lowers[k] for i in active], rtol, info, maximize))
    return DirectedSet.node(first.grid, supports, lowers)


def sup(sets, active_rtol: float = ACTIVE_RTOL, info: ActiveSetInfo | None = None) -> DirectedSet:
    """Supremum of a family of directed sets over a shared grid.

    1-D: componentwise maximum of the stored pairs.  Higher dimensions take
    the pointwise maximal support and recurse on the lower components of the
    members that :func:`active_members` finds active there.
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
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    _check_compatible(a, b)
    if a.dim == 1:
        return (
            a.interval.a_neg <= b.interval.a_neg + eps
            and a.interval.a_pos <= b.interval.a_pos + eps
        )
    for av, bv, la, lb in zip(a.supports, b.supports, a.lowers, b.lowers):
        if av > bv + eps:
            return False
        if abs(av - bv) <= eps and not leq(la, lb, eps):
            return False
    return True
