"""The directed subdifferential engine.

For a 1-D function the directed subdifferential at ``x`` is the stored pair
``(f'(x; -1), f'(x; +1))``.  In dimension n >= 2 the engine builds the exact
directional derivative ``g = f'(x; .)`` once, with :func:`dirderiv_transform`,
and reads every level of the set off ``g`` by forward sweeps:

* the support at a grid direction ``l`` is ``g(l)``;
* near ``l``, ``g`` equals ``g`` with every max/min narrowed to the members
  active at ``l``, so the lower support at a sub-direction ``r`` is that
  narrowed ``g`` at ``B_l r``, where ``B_l`` is the fixed basis of the tangent
  hyperplane of ``l`` (:func:`orthobasis`);
* narrowing again at ``B_l r``, the next level reads ``g`` at ``B_l B_r s``,
  and so on; the 1-D leaf pair is the last narrowed ``g`` at ``s = -1, +1``.

These are the lexicographic directional derivatives of ``f`` at ``x`` along
the frames ``[l, B_l r, B_l B_r s]`` (Nesterov, Math. Program. 104, 2005).
The sweep is column-wise: the walk that builds ``g`` also writes it as a
tape of linear combinations and max/min picks, and a level runs the
program of its narrowing once over all directions of its grid below one
parent direction, every slot holding a list of values over those
directions; the variables of one coordinate and affine context are one
slot, so a level reads each coordinate's column once.  The leaf level
runs over the leaf points ``B_l B_r (-1)`` and ``B_l B_r (+1)`` in the same
pass.  The points below a direction ``l`` lifted through ``B_l`` depend on
the grid alone: a grid keeps them
(:attr:`~dirsubdiff.dirset.SphereGrid.lifted_columns`, within a bound), so a
call lifts only through the frames above ``l`` and into the affine
substitutions of ``g``, and in 3-D the root's points are not lifted at all.
Each max/min narrows with one :func:`active_columns` call over its
member columns at all directions of the level, which applies the rule and
tolerance of the transform to each direction, and the sweep adds, lifts
and picks in the order of ``Expr._eval``, so the set is bitwise the one of
the defining recursion: restrict ``g`` to the slice through ``l``,
transform it again and recurse one dimension down (``recursive_subdiff``
in ``tests/references.py``).  No expression is built per direction, and
the program of a narrowing is built once per call.

Every program is fused before it runs: each chain of linear combinations
whose intermediate values nothing else reads becomes one column kernel, a
comprehension that computes the chain per point with the same products and
sums nested in program order, so every value keeps its bits.  A kernel
leaves out two exact identities, ``1.0 * x`` and ``x + -0.0``, which are
``x`` bit for bit for every double.  It keeps ``+ 0.0``, ``* 0.0`` and
``* -0.0``, which can change a signed zero or an infinity, and ``* -1.0``,
whose exact unary form ``-x`` gave no faster kernels.  A kernel is
compiled once per chain shape and process.  Its column shows the first
direction where the chain goes non-finite, but not which intermediate did
so first; a level that fails reruns with one kernel per operation for the
exact error.

Several expressions at one point take one pass (:func:`directed_subdiffs`):
their transforms share the walk, so the operands inside a combination are
one subtree of the combination's transform and one slot of their tape, and
the sweep runs one program over it, filling each root's levels.  A max/min
narrows on its own member values only, so every root's set is the one a
separate call reads.

For differentiable functions this reproduces the embedded gradient; at kinks
the lower components record the (possibly inverted) face data that make the
calculus rules exact.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

from .dirset import (
    ACTIVE_RTOL, ActiveSetInfo, DirectedSet, SphereGrid, _apply, active_columns, active_extremes,
    check_grid, check_tolerance, embed_point, flags,
)
from .deriv import _CONST, _LIN, _MAX, _MIN, _OVERFLOW, _VAR, _Walk, _pair, dirderiv_transform
from .expr import DomainError, Expr, ExprError, _finite, as_point, int_at_least, sequence


class KinkError(ValueError):
    """Gradient embedding was asked for at a point with an active kink."""


def default_grid(dim: int) -> SphereGrid | None:
    """Default grids: none for 1-D, 360 directions for 2-D, a cost-controlled
    16 x 32 lattice with a 64-direction inner circle for 3-D.

    Built once per dimension and process: grids are frozen, so every caller
    shares one grid and the tangent bases it caches.  ``dim`` passes the
    integer door before the cache, whose key would equate ``True`` and
    ``2.0`` with 1 and 2."""
    return _default_grid(int_at_least(dim, 1, "dimension"))


@cache
def _default_grid(dim: int) -> SphereGrid | None:
    if dim == 1:
        return None
    if dim == 2:
        return SphereGrid.circle(360)
    if dim == 3:
        return SphereGrid.sphere(16, 32, 64)
    raise ValueError(f"no default grid for dimension {dim}")


def directed_subdiff(
    e: Expr,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    info: ActiveSetInfo | None = None,
) -> DirectedSet:
    """Directed subdifferential of ``e`` at ``x`` over ``grid``.

    ``grid`` must match the point dimension for n >= 2 and must be omitted
    for n = 1.  ``info`` collects active-set tie/borderline flags from the
    transform and from every narrowing of the sweep.
    """
    return directed_subdiffs((e,), x, grid, active_rtol, info)[0]


def directed_subdiffs(
    exprs,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    info: ActiveSetInfo | None = None,
) -> list:
    """:func:`directed_subdiff` of every expression of ``exprs``, a
    sequence or any iterable of expressions (not a lone one), at one point.

    The transforms of all roots are built on one walk, so a subtree they
    share (the operands inside a combination) is transformed once, and one
    sweep reads every root's levels.  A max/min narrows on its own member
    values only, so each set is bitwise the set a separate call returns,
    and ``info`` gets the union of the separate calls' flags.  On a
    :class:`DomainError` or :class:`ArityError` the roots are redone one by
    one, so the error is the one separate calls raise first, in root order.
    """
    exprs = sequence(exprs, "expressions")
    xs = as_point(x)
    n = len(xs)
    check_grid(grid, n)
    info = flags(info)
    active_rtol = check_tolerance("active_rtol", active_rtol)
    joint = info if len(exprs) == 1 else ActiveSetInfo()
    shared = _Walk()
    try:
        gs = [dirderiv_transform(e, xs, active_rtol, joint, _shared=shared) for e in exprs]
        if n == 1:
            sets = [DirectedSet.leaf(*_pair(g, (1.0,))) for g in gs]
        else:
            roots = [shared.slots[0][e] for e in exprs]
            sweep = _Sweep(shared.tape, roots, shared.frames, active_rtol, joint, n)
            sweep.level(grid, grid.sweep_columns, (), {})
            sets = [DirectedSet._built(grid, arrays) for arrays in sweep.arrays]
    except ExprError:
        if joint is info:
            raise
        return [directed_subdiffs((e,), xs, grid, active_rtol, info)[0] for e in exprs]
    if joint is not info and info is not None:
        info.ties |= joint.ties
        info.borderline |= joint.borderline
    return sets


# ---------------------------------------------------------------------------
# the lexicographic sweep

# a program is the tape's records with their slots second, its linear ones
# emitted as (_LIN, slot, pairs, k) for ``a * x + k`` (one pair) or
# ``a * x + b * y`` (two pairs, ``k`` None) and run fused, as (_KERNEL,
# slot, kernel, inputs) (see :func:`_fuse`)
_KERNEL = _MIN + 1

#: the deepest nesting of linear operations one kernel evaluates; a deeper
#: chain is cut into kernels that read each other's columns, which keeps
#: the compiler's recursion short on deeply nested expressions
_KERNEL_DEPTH = 32

#: how many kernel shapes stay compiled (see :func:`_compile`)
_KERNEL_SHAPES = 1024


def _first_bad(col, stop: int) -> int:
    """Index of the first non-finite entry of ``col`` before ``stop``, else
    ``stop``; a finite column is cleared without a scan (see
    :func:`dirsubdiff.expr._finite`)."""
    if not _finite(col):
        for j in range(stop):
            if not math.isfinite(col[j]):
                return j
    return stop


def _fuse(program, roots, depth: int = _KERNEL_DEPTH) -> list:
    """``program`` with its linear forms fused into column kernels.

    A ``_LIN`` slot that only one other ``_LIN`` reads goes inline into its
    reader.  Every other ``_LIN`` slot becomes a ``(_KERNEL, slot, kernel,
    inputs)`` instruction: ``kernel`` takes the columns of the ``inputs``
    slots (variables, max/min members, slots read twice) and evaluates the
    slot's whole chain per point in one comprehension, with the products
    and sums of the per-operation ``a * v + k`` and ``a * u + b * v``
    nested in program order, so its column keeps their bits; of these it
    leaves out only ``1.0 *`` and ``+ -0.0``, which keep every bit
    (:func:`_render`).  A chain nests at most ``depth`` operations: at
    depth 1 each operation is one kernel.
    """
    kept = set(roots)  # roots and max/min members keep their columns
    reads: dict = {}  # linear reads per slot
    for ins in program:
        if ins[0] >= _MAX:
            kept.update(ins[2])
        elif ins[0] == _LIN:
            for _, x in ins[2]:
                reads[x] = reads.get(x, 0) + 1
    chains: dict = {}  # inlined slot -> its form (pairs over slots and forms, k, depth)
    fused = []
    for ins in program:
        if ins[0] != _LIN:
            fused.append(ins)
            continue
        _, s, pairs, k = ins
        pairs = [(a, chains.pop(x, x)) for a, x in pairs]
        d = 1 + max([x[2] for _, x in pairs if type(x) is not int], default=0)
        if reads.get(s) == 1 and s not in kept and d < depth:
            chains[s] = (pairs, k, d)
            continue
        inputs: dict = {}
        consts: list = []
        src = _render(pairs, k, inputs, consts)
        fused.append((_KERNEL, s, _compile(src, len(inputs), len(consts))(*consts), tuple(inputs)))
    return fused


def _render(pairs, k, inputs: dict, consts: list) -> str:
    """Source of the linear form ``(pairs, k)`` in positional names:
    input slots ``x`` become ``v0, v1, ...`` and coefficients ``k0, k1,
    ...`` in the order they occur, recorded in ``inputs`` and ``consts``;
    an ``x`` that is a chain's form is nested in parentheses.

    Two exact identities are left out: a product by the coefficient
    ``1.0`` renders as its operand, and a constant ``k`` of ``-0.0`` is
    not added, since ``1.0 * x`` and ``x + -0.0`` are ``x`` bit for bit
    for every double.  ``+ 0.0`` stays (it turns ``-0.0`` into ``0.0``),
    as do ``* 0.0`` and ``* -0.0`` (``inf`` gives NaN, and the sign of a
    zero follows the operand) and ``* -1.0``, whose exact unary form made
    more shapes and no faster kernels."""
    terms = []
    for a, x in pairs:
        term = ""
        if a != 1.0:
            term = f"k{len(consts)} * "
            consts.append(a)
        x = (inputs.setdefault(x, f"v{len(inputs)}") if type(x) is int
             else f"({_render(x[0], x[1], inputs, consts)})")
        terms.append(term + x)
    if k is not None and (k != 0.0 or math.copysign(1.0, k) > 0.0):
        terms.append(f"k{len(consts)}")
        consts.append(k)
    return " + ".join(terms)


@lru_cache(maxsize=_KERNEL_SHAPES)
def _compile(src: str, n_inputs: int, n_consts: int):
    """The kernel factory of one chain shape: ``make(k0, k1, ...)`` returns
    the function of the input columns ``c0, c1, ...`` that evaluates
    ``src`` at every point.  Chains that differ only in coefficients share
    ``src`` and so one ``exec``: the coefficients are closure values, never
    text."""
    cols = ", ".join(f"c{i}" for i in range(n_inputs))
    loop = "v0 in c0" if n_inputs == 1 else f"{cols.replace('c', 'v')} in zip({cols})"
    scope: dict = {}
    exec(f"def make({', '.join(f'k{i}' for i in range(n_consts))}):\n"
         f" def kernel({cols}):\n  return [{src} for {loop}]\n return kernel", scope)
    return scope["make"]


class _Sweep:
    """Reads the levels of the directed subdifferentials of several
    transforms at one point off one sweep.

    The transforms wrote one tape (:class:`dirsubdiff.deriv._Walk`): a
    slot record per ``(node, context)`` pair of their shared walk, so the
    same node reached through two different substitutions has two slots,
    and a node two roots share has one.  ``roots`` are the roots' slots.
    Context 0 sees the sweep point; ``contexts[c] = (parent, matrix)`` maps
    the parent's point to context ``c``'s.  Contexts opened under members
    inactive at the base point are on the tape too: their points are
    lifted and never read.

    A level's narrowing ``act`` maps max/min slots to the child slots still
    active; a slot it does not map keeps all its children (the top level's
    narrowing is empty).  A level runs the program of its narrowing once
    over the points of its grid below one parent direction, lifted through
    the parents' bases: every slot holds a column, the slot's value per
    point.  The points are the grid's
    :attr:`~dirsubdiff.dirset.SphereGrid.sweep_columns`, built once per
    grid: the directions and, on a circle, their ``-1`` and ``+1`` leaf
    points.  Their lifts through the parent direction's basis are kept by
    the parent grid (:attr:`~dirsubdiff.dirset.SphereGrid.lifted_columns`)
    and only read here, never written; the lifts through the frames above
    it and into the affine contexts are made per call.  The level then
    recurses, depth first, into each direction with its own narrowing
    updated by the members active there.  Root ``k``'s arrays, in
    the layout order of :mod:`dirsubdiff.dirset` (its levels, then
    ``a_neg`` and ``a_pos``), accumulate in the one list ``arrays[k]`` in
    walk order: direction by direction, each followed by everything below
    it.  After a :class:`DomainError`, ``info`` may also hold flags of
    narrowings at directions past the failing one.
    """

    def __init__(self, tape, roots, contexts, rtol: float, info: ActiveSetInfo | None, dim: int):
        self.tape, self.roots, self.contexts = tape, roots, sorted(contexts.items())
        self.rtol, self.info = rtol, info
        self.programs: dict = {}
        self.arrays = [[[] for _ in range(dim + 1)] for _ in roots]

    def _program(self, act):
        """Instructions evaluating the roots under ``act``, each in ``_eval``
        order after the slots of the roots before it.

        Returns ``(program, plain, root slots)``, built once per distinct
        narrowing: ``plain`` as emitted, ``program`` with its linear forms
        fused into kernels (:func:`_fuse`).  A max/min left with one active
        child emits nothing: its slot resolves to the child's, as the
        transform returns the child's derivative there.  A linear
        combination of two constants is a constant; with one constant
        operand its form's ``k`` is the same product the sweep would form
        per direction.
        """
        key = tuple(sorted(act.items()))
        hit = self.programs.get(key)
        if hit is not None:
            return hit
        resolved: dict = {}
        consts: dict = {}
        program = []
        stack = [(r, False) for r in reversed(self.roots)]
        while stack:
            s, ready = stack.pop()
            if s in resolved:
                continue
            rec = self.tape[s]
            op = rec[0]
            if op == _LIN:
                kids = (rec[2], rec[4])
            elif op >= _MAX:
                kids = act.get(s, rec[1])
            else:
                kids = ()
            if not ready:
                stack.append((s, True))
                stack.extend((c, False) for c in reversed(kids))
                continue
            resolved[s] = s
            if op == _LIN:
                a, l, b, r = rec[1], resolved[kids[0]], rec[3], resolved[kids[1]]
                if l in consts and r in consts:
                    consts[s] = a * consts[l] + b * consts[r]
                    program.append((_CONST, s, consts[s]))
                elif r in consts:
                    program.append((_LIN, s, ((a, l),), b * consts[r]))
                elif l in consts:  # a * c + b * y == b * y + a * c bit for bit
                    program.append((_LIN, s, ((b, r),), a * consts[l]))
                else:
                    program.append((_LIN, s, ((a, l), (b, r)), None))
            elif op >= _MAX:
                members = tuple(resolved[c] for c in kids)
                if len(members) == 1:
                    resolved[s] = members[0]
                else:
                    program.append((op, s, members))
            else:
                if op == _CONST:
                    consts[s] = rec[1]
                program.append((op, s) + rec[1:])
        roots = [resolved[r] for r in self.roots]
        out = self.programs[key] = (_fuse(program, roots), program, roots)
        return out

    def _points(self, cols, frames) -> list:
        """Per affine context, the columns of the points it sees when the
        points ``cols``, already lifted through the innermost of the bases
        ``frames`` (outermost first), are lifted through the others to the
        root's space; with one frame or none, the root context sees
        ``cols`` as they are."""
        for rows in reversed(frames[:-1]):
            cols = _apply(rows, cols)
        pts = {0: cols}
        for c, (parent, rows) in self.contexts:
            pts[c] = _apply(rows, pts[parent])
        return pts

    def level(self, grid: SphereGrid, cols, frames: tuple, act, depth: int = 0) -> None:
        """Append each root's supports over ``grid`` below the directions
        whose bases are ``frames`` to its array ``depth``, then (depth
        first) everything below them; on a circle, the leaf pairs go to
        its last two arrays, ``a_neg`` and ``a_pos``.

        ``cols`` are the grid's :attr:`~dirsubdiff.dirset.SphereGrid.sweep_columns`
        lifted through the innermost frame (as they are at the top level).
        The level below direction ``j`` takes its points from the grid's
        :attr:`~dirsubdiff.dirset.SphereGrid.lifted_columns`, kept per
        grid, or, on a grid that keeps none, lifts them through
        ``tangent_rows[j]`` here with the same :func:`_apply`.

        Raises the :class:`DomainError` of the first non-finite value in
        walk order: per direction the node values in program order, then
        the leaf pairs or the levels below.  A non-finite operand of ``+``
        or ``*`` gives a non-finite result, so a kernel's column shows where
        its chain first goes non-finite, but not which of its values did so
        first: a level that fails names the value from a rerun of its
        program fused at depth 1, one kernel per operation.
        """
        program, plain, roots = self._program(act)
        n = len(grid)
        leaf = grid.dim == 2
        pts = self._points(cols, frames)
        val, acts, bad, bad_value = self._run(program, n, pts, leaf)
        for arrays, out in zip(self.arrays, [val[r] for r in roots]):
            arrays[depth].extend(out[:n])
            if leaf:
                neg, pos = out[n:2 * n], out[2 * n:]
                j = min(_first_bad(neg, bad), _first_bad(pos, bad))
                if j < bad:
                    raise DomainError(_OVERFLOW.format(pos[j] if math.isfinite(neg[j]) else neg[j]))
                arrays[-2].extend(neg)
                arrays[-1].extend(pos)
        if not leaf:
            sub, lifted = grid.subgrid, grid.lifted_columns
            for j in range(bad):
                narrowed = dict(act)
                for s, col in acts.items():
                    narrowed[s] = col[j]
                rows = grid.tangent_rows[j]
                sub_cols = _apply(rows, sub.sweep_columns) if lifted is None else lifted[j]
                self.level(sub, sub_cols, frames + (rows,), narrowed, depth + 1)
        if bad < n:
            bad_value = self._run(_fuse(plain, roots, 1), n, pts, leaf)[3]
            raise DomainError(_OVERFLOW.format(bad_value))

    def _run(self, program, n: int, pts, leaf: bool) -> tuple:
        """Run ``program`` once over the points ``pts`` (per affine context)
        of a level with ``n`` directions.

        On a circle the points are the ``n`` directions and then their
        ``2 n`` leaf points.  Returns the node values by slot, the active
        members per direction of every max/min slot, and the first
        direction ``bad`` with a non-finite node value (``n`` if none) with
        that value; of a kernel only the chain's end is scanned.  Each
        max/min calls :func:`active_columns` once, on its member columns
        over the ``n`` directions: direction ``j`` gets the extreme and
        active members of the value list a one-direction sweep would form,
        and on a circle its leaf values from :func:`active_extremes`.
        """
        rtol, info = self.rtol, self.info
        width = 3 * n if leaf else n
        val = [None] * len(self.tape)
        acts: dict = {}
        bad, bad_value = n, None
        for ins in program:
            op, s = ins[0], ins[1]
            if op == _KERNEL:
                col = ins[2](*[val[x] for x in ins[3]])
            elif op == _VAR:
                col = pts[ins[2]][ins[3]]
            elif op == _CONST:
                val[s] = [ins[2]] * width
                continue
            else:
                # the first non-finite value of a direction is never a
                # max/min's: its members come earlier in the program
                members = [val[c] for c in ins[2]]
                maximize = op == _MAX
                col, picked = active_columns(
                    [m[:n] for m in members] if leaf else members, rtol, maximize, info
                )
                if leaf:
                    # no member is active where a direction's values are not
                    # finite: past ``bad``, so its NaN leaves are never stored
                    for start in (n, 2 * n):
                        col += active_extremes([m[start:start + n] for m in members], picked, maximize)
                else:
                    acts[s] = [tuple([ins[2][i] for i in idx]) for idx in picked]
                val[s] = col
                continue
            j = _first_bad(col, bad)
            if j < bad:
                bad, bad_value = j, col[j]
            val[s] = col
        return val, acts, bad, bad_value


def smooth_gradient(e: Expr, x, active_rtol: float = ACTIVE_RTOL) -> tuple:
    """Gradient of ``e`` at ``x``; raises :class:`KinkError` at active kinks.

    A kink is detected when any max/min active set along the transform has
    more than one member within the tolerance, in which case no single
    gradient represents the local behavior.
    """
    xs = as_point(x)
    info = ActiveSetInfo()
    g = dirderiv_transform(e, xs, active_rtol, info)
    if info.ties:
        raise KinkError(f"kink detected at {xs}: ambiguous gradient")
    return tuple(g._gradient(len(xs)))


def embed_gradient(e: Expr, x, grid: SphereGrid | None = None) -> DirectedSet:
    """Embed the singleton gradient of a smooth point as a directed set.

    This is the reference object the subdifferential must reproduce on
    differentiable functions.
    """
    xs = as_point(x)
    check_grid(grid, len(xs))
    return embed_point(smooth_gradient(e, xs), grid)
