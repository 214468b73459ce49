"""Mechanical verification of the subdifferential calculus.

Every rule is checked on concrete instances by computing both sides with
separate recipes and measuring their distance in the directed-set norm:
the left side always goes through the engine applied to the combined
expression, the right side through directed-set arithmetic on the operand
subdifferentials.  The sum, product, quotient, max and min rules read the
operand sets and the combined set off one transform walk and one sweep
(:func:`dirsubdiff.engine.directed_subdiffs`), each set bitwise the one a
separate engine call returns.  Reports carry the distance, the tolerance
and both sides.

Verifiers guard against razor-edge active-set classifications: whenever some
max/min or sup/inf member sat within the borderline band, the computation is
repeated with a tenfold tolerance and a verdict flip is logged and recorded
in the report metadata.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .deriv import _pair, dirderiv_transform
from .dirset import (
    ACTIVE_RTOL,
    ActiveSetInfo,
    DirectedInterval,
    DirectedSet,
    SphereGrid,
    active_columns,
    check_tolerance,
    directed_zero,
    distance,
    inf,
    leq,
    linear_combination,
    norm,
    scale,
    sup,
)
from .engine import directed_subdiff, directed_subdiffs, smooth_gradient
from .expr import (
    Affine,
    DomainError,
    Expr,
    LinComb,
    Max,
    Min,
    Product,
    Quotient,
    as_point,
    compose,
    dot,
    evaluate,
    expression,
    finite_float,
    finite_floats,
    int_at_least,
    sequence,
)

logger = logging.getLogger(__name__)

#: relative scale of rule tolerances: tol = RULE_RTOL * (1 + |lhs| + |rhs|)
RULE_RTOL = 1e-9
#: absolute tolerance of the transform fixpoint identity
FIXPOINT_TOL = 1e-12
#: absolute tolerance of chain-rule and linearization-invariance checks
COMPOSITION_TOL = 1e-10


class VerificationError(RuntimeError):
    """An identity that must hold exactly failed beyond tolerance."""


class WitnessNotFoundError(RuntimeError):
    """Scan plus bisection found no admissible mean-value point.

    Existence is guaranteed for the supported instances, so this signals
    insufficient scan resolution, not a falsified theorem.
    """


@dataclass
class VerificationReport:
    """Outcome of one rule check with both sides attached."""

    rule: str
    passed: bool
    distance: float
    tolerance: float
    point: tuple
    lhs: DirectedSet
    rhs: DirectedSet
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return self._document(self.lhs.to_json_dict(), self.rhs.to_json_dict())

    def _document(self, lhs, rhs) -> dict:
        """The report's document with ``lhs`` and ``rhs`` as its two sides:
        their dicts for :meth:`to_json_dict`, the sets themselves for
        :func:`dirsubdiff.dirset.write_json`, which writes a set as its
        dict's text."""
        out = {
            "rule": self.rule,
            "pass": self.passed,
            "distance": self.distance,
            "tolerance": self.tolerance,
            "point": list(self.point),
            "lhs": lhs,
            "rhs": rhs,
        }
        if self.metadata:
            out["metadata"] = {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.metadata.items()
            }
        return out


def rule_tolerance(lhs: DirectedSet, rhs: DirectedSet) -> float:
    return RULE_RTOL * (1.0 + norm(lhs) + norm(rhs))


def _guarded_report(
    rule: str,
    compute,
    point,
    tolerance: float | None = None,
    metadata: dict | None = None,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """Run ``compute(active_rtol, info) -> (lhs, rhs)`` with the borderline guard.

    Every verifier's computation starts here, so ``active_rtol`` is checked
    here, once: both runs of ``compute`` take the checked float."""
    active_rtol = check_tolerance("active_rtol", active_rtol)
    info = ActiveSetInfo()
    lhs, rhs = compute(active_rtol, info)
    dist = distance(lhs, rhs)
    tol = rule_tolerance(lhs, rhs) if tolerance is None else tolerance
    passed = dist <= tol
    meta = dict(metadata or {})
    if info.ties:
        meta["active_set_ties"] = True
    if guard and info.borderline:
        meta["borderline_active_set"] = True
        lhs2, rhs2 = compute(active_rtol * 10.0, ActiveSetInfo())
        dist2 = distance(lhs2, rhs2)
        tol2 = rule_tolerance(lhs2, rhs2) if tolerance is None else tolerance
        if (dist2 <= tol2) != passed:
            meta["active_guard_flip"] = True
            logger.warning(
                "verdict of %s at %s flips under a tenfold active-set tolerance", rule, point
            )
    return VerificationReport(rule, passed, dist, tol, tuple(point), lhs, rhs, meta)


# ---------------------------------------------------------------------------
# exact calculus rules


def verify_sum_rule(
    f1: Expr,
    f2: Expr,
    alpha: float,
    beta: float,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """``D(alpha f1 + beta f2) = alpha D(f1) + beta D(f2)`` at ``x``."""
    xs = as_point(x)
    combined = LinComb(alpha, expression(f1), beta, expression(f2))  # alpha and beta as finite floats

    def compute(rtol, info):
        s1, s2, lhs = directed_subdiffs((f1, f2, combined), xs, grid, rtol, info)
        return lhs, linear_combination(combined.alpha, s1, combined.beta, s2)

    return _guarded_report(
        "sum", compute, xs, metadata={"alpha": combined.alpha, "beta": combined.beta},
        active_rtol=active_rtol, guard=guard,
    )


def verify_product_rule(
    f1: Expr,
    f2: Expr,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """``D(f1 f2) = f1(x) D(f2) + f2(x) D(f1)`` at ``x``."""
    xs = as_point(x)
    v1, v2 = evaluate(f1, xs), evaluate(f2, xs)

    def compute(rtol, info):
        s1, s2, lhs = directed_subdiffs((f1, f2, Product(f1, f2)), xs, grid, rtol, info)
        return lhs, linear_combination(v1, s2, v2, s1)

    return _guarded_report("product", compute, xs, active_rtol=active_rtol, guard=guard)


def verify_quotient_rule(
    f1: Expr,
    f2: Expr,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """``D(f1/f2) = -(f1(x) D(f2) - f2(x) D(f1)) / f2(x)^2`` at ``x``."""
    xs = as_point(x)
    v1, v2 = evaluate(f1, xs), evaluate(f2, xs)
    if v2 == 0.0:
        raise DomainError("quotient rule needs f2(x) != 0")

    def compute(rtol, info):
        s1, s2, lhs = directed_subdiffs((f1, f2, Quotient(f1, f2)), xs, grid, rtol, info)
        rhs = scale(-1.0 / (v2 * v2), linear_combination(v1, s2, -v2, s1))
        return lhs, rhs

    return _guarded_report("quotient", compute, xs, active_rtol=active_rtol, guard=guard)


def _verify_extreme_rule(fs, x, grid, active_rtol, guard, maximize):
    fs = sequence(fs, "expressions")
    xs = as_point(x)
    values = [evaluate(f, xs) for f in fs]
    combined, combine = (Max(fs), sup) if maximize else (Min(fs), inf)  # two members or more

    def compute(rtol, info):
        _, (idx,) = active_columns([(v,) for v in values], rtol, maximize, info)
        *subs, lhs = directed_subdiffs([fs[i] for i in idx] + [combined], xs, grid, rtol, info)
        rhs = subs[0] if len(subs) == 1 else combine(subs, rtol, info)
        return lhs, rhs

    meta = {"values": tuple(values)}
    return _guarded_report(
        "max" if maximize else "min", compute, xs, metadata=meta,
        active_rtol=active_rtol, guard=guard,
    )


def verify_max_rule(
    fs,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """``D(max fs) = sup of D(f_i)`` over the members active at ``x``."""
    return _verify_extreme_rule(fs, x, grid, active_rtol, guard, True)


def verify_min_rule(
    fs,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """``D(min fs) = inf of D(f_i)`` over the members active at ``x``."""
    return _verify_extreme_rule(fs, x, grid, active_rtol, guard, False)


def verify_dirderiv_fixpoint(
    f: Expr,
    x,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """The transform is a fixpoint: ``D[f'(x; .)](0) = D[f](x)``.

    The derivative transform is positively homogeneous, so its own
    subdifferential at the origin must reproduce the original one to
    :data:`FIXPOINT_TOL`.
    """
    xs = as_point(x)
    origin = (0.0,) * len(xs)

    def compute(rtol, info):
        g = dirderiv_transform(f, xs, rtol, info)
        lhs = directed_subdiff(g, origin, grid, rtol, info)
        rhs = directed_subdiff(f, xs, grid, rtol, info)
        return lhs, rhs

    return _guarded_report(
        "fixpoint", compute, xs, tolerance=FIXPOINT_TOL,
        active_rtol=active_rtol, guard=guard,
    )


# ---------------------------------------------------------------------------
# optimality conditions


def order_condition(s: DirectedSet, eps: float, maximize: bool) -> bool:
    """The minimum condition ``0 <= s`` on ``s = D(f)(x)``, or with ``maximize`` ``0 <= -s``."""
    return leq(directed_zero(s.dim, s.grid), scale(-1.0, s) if maximize else s, eps)


def check_min_condition(
    f: Expr,
    x,
    grid: SphereGrid | None = None,
    eps: float = 1e-9,
    active_rtol: float = ACTIVE_RTOL,
) -> bool:
    """Necessary minimum condition: the directed zero lies below ``D(f)(x)``."""
    return order_condition(directed_subdiff(f, x, grid, active_rtol), eps, False)


def check_max_condition(
    f: Expr,
    x,
    grid: SphereGrid | None = None,
    eps: float = 1e-9,
    active_rtol: float = ACTIVE_RTOL,
) -> bool:
    """Necessary maximum condition: the directed zero lies below ``-D(f)(x)``."""
    return order_condition(directed_subdiff(f, x, grid, active_rtol), eps, True)


# ---------------------------------------------------------------------------
# compositions along curves and segments


def chain_rule_1d(
    g: Expr,
    phi,
    t0: float,
    active_rtol: float = ACTIVE_RTOL,
    check: bool = True,
) -> DirectedInterval:
    """Directed subdifferential of ``t -> g(phi(t))`` at ``t0`` by the chain rule.

    Returns the stored pair ``(g'(phi(t0); -phi'(t0)), g'(phi(t0); phi'(t0)))``.
    With ``check`` enabled the value is compared against the engine applied
    to the composite expression and a mismatch beyond
    :data:`COMPOSITION_TOL` raises :class:`VerificationError`.
    """
    report = verify_chain_rule_1d(g, phi, t0, active_rtol=active_rtol)
    if check and not report.passed:
        raise VerificationError(
            f"chain rule mismatch at t0={t0!r}: distance {report.distance!r} "
            f"exceeds {report.tolerance!r}"
        )
    return report.rhs.interval


def verify_chain_rule_1d(
    g: Expr,
    phi,
    t0: float,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """Chain-rule formula against the engine on the composite expression."""
    composite = compose(g, phi)
    phi = composite.inner
    t0 = as_point((t0,))[0]
    values = tuple(evaluate(p, (t0,)) for p in phi)
    rates = tuple(smooth_gradient(p, (t0,))[0] for p in phi)

    def compute(rtol, info):
        formula = DirectedSet.leaf(*_pair(dirderiv_transform(g, values, rtol, info), rates))
        direct = directed_subdiff(composite, (t0,), None, rtol, info)
        return direct, formula

    meta = {"inner_values": values, "inner_rates": rates}
    return _guarded_report(
        "chain1d", compute, (t0,), tolerance=COMPOSITION_TOL,
        metadata=meta, active_rtol=active_rtol, guard=guard,
    )


def _segment(x0, x1) -> tuple:
    """A segment's endpoints ``a``, ``b`` and its direction ``b - a``, all finite."""
    a, b = as_point(x0), as_point(x1)
    if len(a) != len(b):
        raise ValueError("segment endpoints must share a dimension")
    d = tuple([bv - av for av, bv in zip(a, b)])
    message = f"the segment from {a!r} to {b!r} is too long: x1 - x0 overflows to {{!r}}"
    return a, b, finite_floats(d, message, DomainError)


def segment_subdiff(
    g: Expr,
    x0,
    x1,
    t: float,
    active_rtol: float = ACTIVE_RTOL,
) -> DirectedInterval:
    """Subdifferential pair of ``t -> g(x0 + t (x1 - x0))`` at parameter ``t``."""
    a, b, d = _segment(x0, x1)
    t = finite_float(t, "segment parameter must be finite, got {!r}", DomainError)
    message = f"the point at t = {t!r} on the segment from {a!r} to {b!r} overflows to {{!r}}"
    xt = finite_floats([av + t * dv for av, dv in zip(a, d)], message, DomainError)
    return DirectedInterval(*_pair(dirderiv_transform(g, xt, active_rtol), d))


def verify_taylor_invariance(
    g: Expr,
    phi,
    x0,
    grid: SphereGrid | None = None,
    active_rtol: float = ACTIVE_RTOL,
    guard: bool = True,
) -> VerificationReport:
    """Replacing smooth inner maps by their linearization leaves the result.

    Compares the subdifferential of ``g(phi(.))`` at ``x0`` with that of
    ``g(phi(x0) + J(x0) (. - x0))``; first-order data at the point is all
    that can matter.
    """
    composite = compose(g, phi)
    phi = composite.inner
    xs = as_point(x0)
    values = [evaluate(p, xs) for p in phi]
    jac = [smooth_gradient(p, xs) for p in phi]
    offsets = tuple(v - dot(jrow, xs) for v, jrow in zip(values, jac))
    linearized = Affine(g, tuple(tuple(jrow) for jrow in jac), offsets)

    def compute(rtol, info):
        return directed_subdiffs((composite, linearized), xs, grid, rtol, info)

    meta = {"inner_values": tuple(values)}
    return _guarded_report(
        "taylor", compute, xs, tolerance=COMPOSITION_TOL,
        metadata=meta, active_rtol=active_rtol, guard=guard,
    )


# ---------------------------------------------------------------------------
# mean-value witness


@dataclass(frozen=True)
class MvtWitness:
    """Admissible mean-value point on the open segment.

    ``residual`` is the largest violation of the two one-sided conditions at
    ``t_hat`` (zero when both hold outright);  ``interval`` is the segment
    subdifferential pair at ``t_hat``.
    """

    t_hat: float
    residual: float
    interval: DirectedInterval


def mvt_witness(
    g: Expr,
    x0,
    x1,
    scan_points: int = 99,
    eps: float = 1e-8,
    active_rtol: float = ACTIVE_RTOL,
    refine_width: float = 1e-12,
) -> MvtWitness:
    """Find ``t_hat`` in (0, 1) with ``u(t_hat) >= -eps`` and ``v(t_hat) >= -eps``.

    Here ``u(t) = g'(x(t); d) - c`` and ``v(t) = g'(x(t); -d) + c`` with
    ``c = g(x1) - g(x0)`` and ``d = x1 - x0``; the two conditions say the
    embedded increment lies below the segment subdifferential at ``t_hat``.
    A uniform interior scan is tried first, then bisection refines every
    sign change of ``u`` down to ``refine_width`` or to adjacent floats,
    inside the active-set snap window of a kink.  Each parameter is probed
    once, with u and v read off its :func:`segment_subdiff` pair.  Raises
    :class:`ValueError` unless ``eps`` and ``refine_width`` are finite and
    >= 0, and :class:`WitnessNotFoundError` when both stages fail.
    """
    eps = check_tolerance("eps", eps)
    refine_width = check_tolerance("refine_width", refine_width)
    scan_points = int_at_least(scan_points, 1, "scan_points")
    a, b, _ = _segment(x0, x1)
    if all(av == bv for av, bv in zip(a, b)):
        raise ValueError("segment endpoints coincide")
    c = evaluate(g, b) - evaluate(g, a)

    def probe(t: float):
        """``(t, u, v, pair)``: u and v read off the segment pair at ``t``."""
        pair = segment_subdiff(g, a, b, t, active_rtol)
        return t, pair.a_pos - c, pair.a_neg + c, pair

    def witness(t, u, v, pair):
        return MvtWitness(t, max(0.0, -u, -v), pair)

    ts = sorted({1e-6, 1.0 - 1e-6} | {(i + 1) / (scan_points + 1) for i in range(scan_points)})
    scan = [probe(t) for t in ts]
    admissible = [p for p in scan if min(p[1], p[2]) >= -eps]
    if admissible:
        return witness(*max(admissible, key=lambda p: min(p[1], p[2])))

    for lo, hi in zip(scan, scan[1:]):
        if (lo[1] < 0.0) == (hi[1] < 0.0):
            continue
        # stop where the midpoint is an endpoint: between adjacent floats
        while hi[0] - lo[0] > refine_width and lo[0] < (t := 0.5 * (lo[0] + hi[0])) < hi[0]:
            mid = probe(t)
            if (mid[1] < 0.0) == (lo[1] < 0.0):
                lo = mid
            else:
                hi = mid
        for p in (hi, lo):
            if min(p[1], p[2]) >= -eps:
                return witness(*p)

    raise WitnessNotFoundError(
        f"no admissible point after scanning {len(ts)} interior points and "
        "refining all sign changes; increase scan_points"
    )
