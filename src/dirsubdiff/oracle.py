"""Finite-difference directional derivatives, an independent cross-check of
the exact machinery.

:func:`dini_fd` estimates ``f'(x; l)`` from one-sided difference quotients
of :func:`dirsubdiff.expr.evaluate`; it shares no arithmetic with the
derivative transform, so agreement between the two is evidence for it.
The other oracles the tests compare against (brute-force interval
operations, convex hulls, Hausdorff distances) are test code, in
``tests/references.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Expr, as_point, evaluate, finite_float, instance, int_at_least


@dataclass(frozen=True)
class FdSchedule:
    """Geometric step schedule for one-sided difference quotients.

    The smallest step is ``t0 * factor ** (steps - 1)``; with the defaults
    that is about 1.9e-8, safely above the 1e-14 floor where rounding noise
    would dominate.
    """

    t0: float = 1e-2
    factor: float = 0.5
    steps: int = 20
    extrapolate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "t0", finite_float(self.t0, "t0 must be finite, got {!r}"))
        object.__setattr__(self, "factor", finite_float(self.factor, "factor must lie in (0, 1)"))
        object.__setattr__(self, "steps", int_at_least(self.steps, 2, "schedule steps"))
        if not (0.0 < self.factor < 1.0):
            raise ValueError("factor must lie in (0, 1)")
        if self.t0 * self.factor ** self.steps <= 1e-14:
            raise ValueError("schedule descends below the 1e-14 noise floor")


def dini_fd(e: Expr, x, l, schedule: FdSchedule = FdSchedule()) -> float:
    """One-sided difference-quotient estimate of ``f'(x; l)``.

    Walks the schedule from ``t0`` down and applies one Richardson pass to
    the smallest pair of quotients, which cancels the leading linear error
    term on the smooth piece eventually selected by small steps.  Accuracy
    is of the order of the squared smallest step plus rounding noise.
    """
    schedule = instance(schedule, FdSchedule, "a step schedule")
    xs, ls = as_point(x), as_point(l)
    f0 = evaluate(e, xs)
    quotients = []
    t = schedule.t0
    for _ in range(schedule.steps):
        xt = tuple(xv + t * lv for xv, lv in zip(xs, ls))
        quotients.append((evaluate(e, xt) - f0) / t)
        t *= schedule.factor
    if not schedule.extrapolate:
        return quotients[-1]
    # q(t) = d + C t + O(t^2) and t_{k+1} = factor * t_k, so the combination
    # (q_{k+1} - factor * q_k) / (1 - factor) removes the linear term.
    f = schedule.factor
    return (quotients[-1] - f * quotients[-2]) / (1.0 - f)
