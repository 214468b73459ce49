import io
import logging
import math
import re
from functools import partial

import pytest

from dirsubdiff import theorems
from dirsubdiff.basis import orthobasis
from dirsubdiff.dirset import (
    ACTIVE_RTOL,
    DirectedInterval,
    DirectedSet,
    SphereGrid,
    directed_zero,
    distance,
    embed_point,
    embed_polygon,
    inf,
    leq,
    linear_combination,
    sup,
)
from dirsubdiff.deriv import restrict
from dirsubdiff.engine import default_grid, directed_subdiff, smooth_gradient
from dirsubdiff.expr import (
    Const, DomainError, LinComb, Var, as_point, evaluate, int_at_least, powk, var,
)
from dirsubdiff.oracle import FdSchedule, dini_fd
from dirsubdiff.parser import parse
from dirsubdiff.theorems import (
    MvtWitness,
    WitnessNotFoundError,
    chain_rule_1d,
    check_max_condition,
    check_min_condition,
    mvt_witness,
    segment_subdiff,
    verify_chain_rule_1d,
    verify_dirderiv_fixpoint,
    verify_max_rule,
    verify_min_rule,
    verify_product_rule,
    verify_quotient_rule,
    verify_sum_rule,
    verify_taylor_invariance,
)
from dirsubdiff.viz import write_segments_svg

G16 = SphereGrid.circle(16)


# ---------------------------------------------------------------------------
# sum rule


def test_sum_rule_cancellation():
    r = verify_sum_rule(parse("abs(x1)"), parse("abs(x1)"), 1.0, -1.0, (0.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(0.0, 0.0)
    assert r.rhs.interval == DirectedInterval(0.0, 0.0)


def test_sum_rule_two_kinks_plane():
    r = verify_sum_rule(parse("abs(x1)"), parse("abs(x2)"), 1.0, 1.0, (0.0, 0.0), G16)
    assert r.passed and r.distance <= 1e-12


def test_sum_rule_hand_values():
    # 2t + 3 max(t, 0) has one-sided derivatives -2 and 5 at the kink
    r = verify_sum_rule(parse("x1"), parse("max(x1, 0)"), 2.0, 3.0, (0.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(-2.0, 5.0)
    assert r.rhs.interval == DirectedInterval(-2.0, 5.0)
    assert r.metadata["alpha"] == 2.0 and r.metadata["beta"] == 3.0


# ---------------------------------------------------------------------------
# product and quotient rules


def test_product_rule_smooth_point():
    r = verify_product_rule(parse("x1"), parse("abs(x1)"), (1.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(-2.0, 2.0)  # embedded {2}


def test_product_rule_vanishing_factors():
    r = verify_product_rule(parse("x1"), parse("abs(x1)"), (0.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(0.0, 0.0)
    assert r.rhs.interval == DirectedInterval(0.0, 0.0)


def test_product_rule_plane():
    r = verify_product_rule(parse("abs(x1)"), parse("1 + x2*x2"), (0.0, 1.0), G16)
    assert r.passed and r.distance <= 1e-10


def test_quotient_rule_kink_over_smooth():
    r = verify_quotient_rule(parse("abs(x1)"), parse("1 + x1*x1"), (0.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(1.0, 1.0)  # embedded [-1, 1]


def test_quotient_rule_reciprocal():
    r = verify_quotient_rule(parse("1"), parse("1 + abs(x1)"), (0.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(-1.0, -1.0)
    assert r.rhs.interval == DirectedInterval(-1.0, -1.0)


def test_quotient_rule_zero_denominator():
    with pytest.raises(DomainError):
        verify_quotient_rule(parse("1"), parse("x1"), (0.0,))


# ---------------------------------------------------------------------------
# max and min rules


def test_max_rule_abs():
    r = verify_max_rule([parse("x1"), parse("-x1")], (0.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(1.0, 1.0)
    assert r.rhs.interval == DirectedInterval(1.0, 1.0)
    assert r.metadata["values"] == (0.0, 0.0)


def test_max_rule_hull_of_coordinates():
    r = verify_max_rule([parse("x1"), parse("x2")], (0.0, 0.0), G16)
    assert r.passed
    hull = embed_polygon([(1.0, 0.0), (0.0, 1.0)], G16)
    assert distance(r.rhs, hull) <= 1e-10


def test_max_rule_single_active():
    r = verify_max_rule([parse("x1"), parse("5 + x1")], (0.0,))
    assert r.passed
    assert r.rhs.interval == DirectedInterval(-1.0, 1.0)
    assert r.lhs.interval == DirectedInterval(-1.0, 1.0)


def test_min_rule_neg_abs():
    r = verify_min_rule([parse("x1"), parse("-x1")], (0.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(-1.0, -1.0)
    assert r.lhs.interval.is_inverted
    assert r.rhs.interval == DirectedInterval(-1.0, -1.0)


def test_min_rule_plane():
    r = verify_min_rule([parse("abs(x1)"), parse("abs(x2)")], (0.0, 0.0), G16)
    assert r.passed and r.distance <= 1e-10


def test_min_rule_single_active():
    r = verify_min_rule([parse("x1"), parse("5 - x1")], (0.0,))
    assert r.passed
    assert r.rhs.interval == DirectedInterval(-1.0, 1.0)


# Near-tied members whose support gaps fall between rtol * max(1, |m|) and
# rtol * (1 + |m|): both sides of the rules must classify them the same way.
NEAR_TIED_MAX = ("x1", "0.9999999985*x1 + 0.5*x2")
NEAR_TIED_MIN = ("-x1", "-0.9999999985*x1 - 0.5*x2")


def test_max_rule_near_tied_members():
    r = verify_max_rule([parse(t) for t in NEAR_TIED_MAX], (0.0, 0.0), SphereGrid.circle(360))
    assert r.passed and r.distance == 0.0
    assert "active_guard_flip" not in r.metadata


def test_min_rule_near_tied_members():
    r = verify_min_rule([parse(t) for t in NEAR_TIED_MIN], (0.0, 0.0), SphereGrid.circle(360))
    assert r.passed and r.distance == 0.0
    assert "active_guard_flip" not in r.metadata


# ---------------------------------------------------------------------------
# derivative fixpoint


def test_fixpoint_1d():
    r = verify_dirderiv_fixpoint(parse("abs(x1)"), (0.0,))
    assert r.passed
    assert r.distance == 0.0
    assert r.lhs.interval == DirectedInterval(1.0, 1.0)


def test_fixpoint_abs_difference():
    r = verify_dirderiv_fixpoint(parse("abs(x1) - abs(x2)"), (0.0, 0.0), G16)
    assert r.passed and r.distance <= 1e-12


def test_fixpoint_smooth_quadratic():
    r = verify_dirderiv_fixpoint(parse("x1*x1 + x2*x2"), (1.0, 1.0), G16)
    assert r.passed and r.distance <= 1e-12


# ---------------------------------------------------------------------------
# optimality conditions


def test_min_condition():
    assert check_min_condition(parse("abs(x1) + abs(x2)"), (0.0, 0.0), G16)
    assert not check_min_condition(parse("abs(x1) + abs(x2)"), (1.0, 0.0), G16)
    assert check_min_condition(parse("x1*x1 + x2*x2"), (0.0, 0.0), G16)


def test_max_condition():
    assert check_max_condition(parse("-(abs(x1) + abs(x2))"), (0.0, 0.0), G16)
    assert not check_max_condition(parse("abs(x1)"), (0.0,))
    assert check_max_condition(parse("-pow(x1, 2)"), (0.0,))


def test_conditions_cross():
    # at a strict minimum the maximum condition must fail
    assert not check_max_condition(parse("abs(x1) + abs(x2)"), (0.0, 0.0), G16)
    assert not check_min_condition(parse("-(abs(x1) + abs(x2))"), (0.0, 0.0), G16)


# ---------------------------------------------------------------------------
# one-dimensional chain rule


def test_chain_rule_max_of_lines():
    got = chain_rule_1d(parse("max(x1, x2)"), [parse("x1"), parse("2*x1")], 0.0)
    assert got == DirectedInterval(-1.0, 2.0)


def test_chain_rule_zero_inner_rate():
    got = chain_rule_1d(parse("abs(x1)"), [parse("x1*x1")], 0.0)
    assert got == DirectedInterval(0.0, 0.0)


def test_chain_rule_raises_on_a_failed_check(monkeypatch):
    report = verify_chain_rule_1d(parse("abs(x1)"), [parse("x1")], 0.0)
    failed = theorems.VerificationReport("chain1d", False, 1.0, 0.5, (0.0,), report.lhs, report.rhs)
    monkeypatch.setattr(theorems, "verify_chain_rule_1d", lambda *args, **kwargs: failed)
    with pytest.raises(theorems.VerificationError, match="chain rule mismatch at t0=0.0"):
        chain_rule_1d(parse("abs(x1)"), [parse("x1")], 0.0)
    assert chain_rule_1d(parse("abs(x1)"), [parse("x1")], 0.0, check=False) == report.rhs.interval


def test_chain_rule_smooth_matches_calculus():
    got = chain_rule_1d(parse("sin(x1)"), [parse("x1*x1")], 0.7)
    rate = math.cos(0.49) * 1.4
    assert abs(got.a_pos - rate) <= 1e-12
    assert abs(got.a_neg + rate) <= 1e-12


def test_chain_rule_report():
    r = verify_chain_rule_1d(parse("max(x1, x2)"), [parse("x1"), parse("2*x1")], 0.0)
    assert r.passed and r.distance <= 1e-10
    assert r.metadata["inner_rates"] == (1.0, 2.0)


def test_chain_rule_rejects_kinked_inner():
    with pytest.raises(ValueError):
        chain_rule_1d(parse("x1"), [parse("abs(x1)")], 0.0)


# ---------------------------------------------------------------------------
# segments


def test_segment_subdiff_at_kink():
    got = segment_subdiff(parse("abs(x1)"), (-1.0,), (2.0,), 1.0 / 3.0)
    assert got == DirectedInterval(3.0, 3.0)  # the embedded [-3, 3]


def test_segment_subdiff_smooth_point():
    got = segment_subdiff(parse("abs(x1)"), (-1.0,), (2.0,), 2.0 / 3.0)
    assert got == DirectedInterval(-3.0, 3.0)  # the embedded {3}


def test_segment_subdiff_plane():
    got = segment_subdiff(parse("abs(x1) + abs(x2)"), (0.0, 0.0), (1.0, 1.0), 0.5)
    assert got == DirectedInterval(-2.0, 2.0)


def test_segment_dimension_mismatch():
    with pytest.raises(ValueError):
        segment_subdiff(parse("abs(x1)"), (0.0,), (1.0, 1.0), 0.5)


# ---------------------------------------------------------------------------
# Taylor invariance


def test_taylor_abs_of_sine():
    r = verify_taylor_invariance(parse("abs(x1)"), [parse("sin(x1)")], (0.0,))
    assert r.passed
    assert r.lhs.interval == DirectedInterval(1.0, 1.0)
    assert r.rhs.interval == DirectedInterval(1.0, 1.0)


def test_taylor_plane():
    r = verify_taylor_invariance(
        parse("abs(x1) + abs(x2)"),
        [parse("sin(x1)"), parse("x2 + x1*x1")],
        (0.0, 0.0),
        G16,
    )
    assert r.passed and r.distance <= 1e-10


def test_taylor_affine_inner_is_exact():
    r = verify_taylor_invariance(parse("abs(x1)"), [parse("2*x1 + 1")], (0.0,))
    assert r.passed
    assert r.distance == 0.0


def test_taylor_rejects_kinked_inner():
    with pytest.raises(ValueError):
        verify_taylor_invariance(parse("x1"), [parse("abs(x1)")], (0.0,))


# ---------------------------------------------------------------------------
# mean-value witness


def test_mvt_abs_kink():
    w = mvt_witness(parse("abs(x1)"), (-1.0,), (2.0,))
    assert isinstance(w, MvtWitness)
    assert abs(w.t_hat - 1.0 / 3.0) <= 1e-6
    assert w.residual == 0.0
    assert w.interval == DirectedInterval(3.0, 3.0)


def test_mvt_square_classical_point():
    w = mvt_witness(parse("pow(x1, 2)"), (0.0,), (1.0,))
    assert w.t_hat == 0.5
    assert w.residual <= 1e-10
    assert w.interval == DirectedInterval(-1.0, 1.0)


def test_mvt_plane_diagonal():
    w = mvt_witness(parse("abs(x1) + abs(x2)"), (-1.0, -1.0), (1.0, 1.0))
    assert w.t_hat == 0.5
    assert w.residual == 0.0


def test_mvt_validation():
    with pytest.raises(ValueError):
        mvt_witness(parse("abs(x1)"), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        mvt_witness(parse("abs(x1)"), (0.0,), (1.0,), scan_points=0)


def test_mvt_bisection_ends_at_adjacent_floats(monkeypatch):
    # with refine_width 0 the bisection narrows the sign change of u, at the
    # edge of the active-set window around the kink of |x1| at t = 1/3, to two
    # adjacent floats, whose midpoint is one of them; a budget on the probes
    # makes a bisection that never ends fail here instead of hanging
    probes = []
    segment = theorems.segment_subdiff

    def counted(*args):
        probes.append(args[3])
        if len(probes) > 400:
            pytest.fail("the bisection did not end")
        return segment(*args)

    monkeypatch.setattr(theorems, "segment_subdiff", counted)
    w = mvt_witness(parse("abs(x1)"), (-1.0,), (2.0,), refine_width=0.0)
    assert abs(w.t_hat - 1.0 / 3.0) <= 1e-9
    assert w.residual == 0.0
    assert max(t for t in probes if t < w.t_hat) == math.nextafter(w.t_hat, 0.0)
    assert len(probes) == len(set(probes))  # no parameter is probed twice


def test_mvt_no_witness_for_concave_kink():
    # -|x| on [-1, 2]: the increment can never sit below the
    # subdifferential, the theorem needs the opposite containment here
    with pytest.raises(WitnessNotFoundError):
        mvt_witness(parse("-abs(x1)"), (-1.0,), (2.0,))


# ---------------------------------------------------------------------------
# report plumbing


def test_report_json_dict():
    r = verify_sum_rule(parse("x1"), parse("max(x1, 0)"), 2.0, 3.0, (0.0,))
    d = r.to_json_dict()
    assert d["rule"] == "sum"
    assert d["pass"] is True
    assert d["distance"] == 0.0
    assert {"tolerance", "point", "lhs", "rhs"} <= set(d)


def test_borderline_guard_metadata():
    r = verify_max_rule([parse("x1"), parse("x1 + 4e-9")], (0.0,))
    assert r.passed
    assert r.metadata.get("borderline_active_set") is True
    assert "active_guard_flip" not in r.metadata

    r = verify_max_rule([parse("x1"), parse("x1 + 1e-10")], (0.0,))
    assert r.passed
    assert r.metadata.get("active_set_ties") is True


def test_guard_can_be_disabled():
    r = verify_max_rule([parse("x1"), parse("x1 + 4e-9")], (0.0,), guard=False)
    assert r.passed
    assert "borderline_active_set" not in r.metadata


def test_guard_records_and_logs_a_verdict_flip(caplog):
    # a stub rule: borderline at every tolerance, failing at the requested
    # one and passing at the tenfold rerun
    def compute(rtol, info):
        info.borderline = True
        gap = 1.0 if rtol == ACTIVE_RTOL else 0.0
        return DirectedSet.leaf(0.0, 0.0), DirectedSet.leaf(gap, gap)

    with caplog.at_level(logging.WARNING, logger="dirsubdiff.theorems"):
        r = theorems._guarded_report("stub", compute, (0.0,))
    assert not r.passed
    assert r.metadata == {"borderline_active_set": True, "active_guard_flip": True}
    assert "verdict of stub at (0.0,) flips under a tenfold" in caplog.text


# ---------------------------------------------------------------------------
# tolerances

BAD_TOLERANCES = [math.nan, -1.0, math.inf]
KINK = parse("max(x1, x2)")
ORIGIN = (0.0, 0.0)
G8 = SphereGrid.circle(8)

#: entry point -> call with a bad active-set tolerance
ACTIVE_RTOL_CALLS = {
    "sup": lambda bad: sup(
        [directed_subdiff(KINK, ORIGIN, G8), directed_subdiff(parse("x1"), ORIGIN, G8)], bad),
    "inf": lambda bad: inf(
        [directed_subdiff(KINK, ORIGIN, G8), directed_subdiff(parse("x1"), ORIGIN, G8)], bad),
    "directed_subdiff": lambda bad: directed_subdiff(KINK, ORIGIN, G8, bad),
    "verify_max_rule": lambda bad: verify_max_rule(
        [parse("x1"), parse("x2")], ORIGIN, G8, active_rtol=bad),
    "check_min_condition": lambda bad: check_min_condition(KINK, ORIGIN, G8, active_rtol=bad),
    "mvt_witness": lambda bad: mvt_witness(parse("abs(x1)"), (-1.0,), (2.0,), active_rtol=bad),
    # no max/min is reached on these: the computation checks the tolerance where it starts
    "directed_subdiff-smooth": lambda bad: directed_subdiff(parse("x1*x1"), (1.0,), None, bad),
    "smooth_gradient": lambda bad: smooth_gradient(parse("x1*x2"), ORIGIN, active_rtol=bad),
    "sup-1d": lambda bad: sup([DirectedSet.leaf(0.0, 1.0), DirectedSet.leaf(1.0, 0.0)], bad),
    "inf-1d": lambda bad: inf([DirectedSet.leaf(0.0, 1.0), DirectedSet.leaf(1.0, 0.0)], bad),
    "verify_sum_rule-smooth": lambda bad: verify_sum_rule(
        parse("x1"), parse("x2"), 1.0, 1.0, ORIGIN, G8, active_rtol=bad),
    "segment_subdiff-smooth": lambda bad: segment_subdiff(
        parse("x1*x1"), (-1.0,), (2.0,), 0.5, active_rtol=bad),
}

#: entry point -> call with a bad order or witness tolerance
EPS_CALLS = {
    "leq": lambda bad: leq(directed_zero(2, G8), directed_subdiff(KINK, ORIGIN, G8), bad),
    "check_min_condition": lambda bad: check_min_condition(parse("x1"), ORIGIN, G8, eps=bad),
    "check_max_condition": lambda bad: check_max_condition(parse("x1"), ORIGIN, G8, eps=bad),
    "mvt_witness": lambda bad: mvt_witness(parse("abs(x1)"), (-1.0,), (2.0,), eps=bad),
}


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
@pytest.mark.parametrize("entry", ACTIVE_RTOL_CALLS)
def test_bad_active_rtol_is_rejected(entry, bad):
    with pytest.raises(ValueError, match="active_rtol must be finite and >= 0"):
        ACTIVE_RTOL_CALLS[entry](bad)


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
@pytest.mark.parametrize("entry", EPS_CALLS)
def test_bad_eps_is_rejected(entry, bad):
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        EPS_CALLS[entry](bad)


#: entry point -> (call, error, message) for a number that is not a finite float
NUMBER_CALLS = {
    "as_point": (lambda: as_point((0.0, 10**400)), DomainError,
                 "point coordinates must be finite, got (0.0, inf)"),
    "evaluate": (lambda: evaluate(KINK, (-10**400, 0.0)), DomainError,
                 "point coordinates must be finite, got (-inf, 0.0)"),
    "directed_subdiff": (lambda: directed_subdiff(KINK, (10**400, 0.0), G8), DomainError,
                         "point coordinates must be finite, got (inf, 0.0)"),
    "orthobasis": (lambda: orthobasis((math.nan, 0.0)), ValueError,
                   "direction must be a unit vector, got (nan, 0.0)"),
    "leq": (lambda: leq(directed_zero(2, G8), directed_zero(2, G8), 10**400), ValueError,
            "eps must be finite and >= 0, got inf"),
    "verify_sum_rule": (lambda: verify_sum_rule(KINK, KINK, 10**400, 1.0, ORIGIN, G8),
                        ValueError, "linear combination coefficients must be finite"),
    "verify_chain_rule_1d": (lambda: verify_chain_rule_1d(KINK, [parse("x1"), parse("x1")], 10**400),
                             DomainError, "point coordinates must be finite, got (inf,)"),
    "restrict": (lambda: restrict(KINK, (10**400, 0.0), orthobasis((1.0, 0.0))), ValueError,
                 "basis does not belong to the given direction"),
    "segment_subdiff": (lambda: segment_subdiff(parse("abs(x1)"), (-1.0,), (2.0,), 10**400),
                        DomainError, "segment parameter must be finite, got inf"),
    "dini_fd": (lambda: dini_fd(KINK, ORIGIN, (0.0, 10**400)), DomainError,
                "point coordinates must be finite, got (0.0, inf)"),
    # text is not a sequence of numbers, though it iterates and each character converts
    "evaluate-str": (lambda: evaluate(parse("x1+x2"), "12"), DomainError,
                     "expected a sequence of numbers, got a str"),
    "evaluate-bytes": (lambda: evaluate(parse("x1"), b"1"), DomainError,
                       "expected a sequence of numbers, got a bytes"),
    "directed_subdiff-bytearray": (lambda: directed_subdiff(KINK, bytearray(b"12"), G8),
                                   DomainError, "expected a sequence of numbers, got a bytearray"),
    "embed_point-str": (lambda: embed_point("34", G8), ValueError,
                        "expected a sequence of numbers, got a str"),
    "embed_point-1d-bytes": (lambda: embed_point(b"1"), ValueError,
                             "expected a sequence of numbers, got a bytes"),
    "embed_polygon-str": (lambda: embed_polygon(["12", "34"], G8), ValueError,
                          "expected a sequence of numbers, got a str"),
    "FdSchedule-t0-huge": (lambda: FdSchedule(t0=10**400), ValueError,
                           "t0 must be finite, got inf"),
    "FdSchedule-t0-nan": (lambda: FdSchedule(t0=math.nan), ValueError,
                          "t0 must be finite, got nan"),
    "FdSchedule-factor-huge": (lambda: FdSchedule(factor=-10**400), ValueError,
                               "factor must lie in (0, 1)"),
    "SphereGrid-direction-huge": (
        lambda: SphereGrid(2, (1,), [(2**1100, 0.0)], None, "x"), ValueError,
        "grid directions must be unit vectors, got (inf, 0.0)"),
    # text is not a number, though float() reads it
    "Const-str": (lambda: Const("1.5"), ValueError, "expected a number, got a str"),
    "FdSchedule-t0-str": (lambda: FdSchedule(t0="0.01"), ValueError,
                          "expected a number, got a str"),
    "leq-eps-str": (lambda: leq(directed_zero(2, G8), directed_zero(2, G8), "1e-9"), ValueError,
                    "expected a number, got a str"),
    # nor is a text entry of a sequence of numbers
    "evaluate-str-entries": (lambda: evaluate(parse("x1+x2"), ["1", b"2"]), DomainError,
                             "expected a number, got a str"),
    "as_point-str-entries": (lambda: as_point(["1", "2"]), DomainError,
                             "expected a number, got a str"),
    "directed_subdiff-bytearray-entry": (
        lambda: directed_subdiff(KINK, (0.0, bytearray(b"1")), G8), DomainError,
        "expected a number, got a bytearray"),
    "embed_point-str-entry": (lambda: embed_point((0.0, "1"), G8), ValueError,
                              "expected a number, got a str"),
    "orthobasis-str-entry": (lambda: orthobasis(("1", 0.0)), ValueError,
                             "expected a number, got a str"),
    "DirectedSet-str-entry": (lambda: DirectedSet(G8, (("0",) * 8,), (0.0,) * 8, (0.0,) * 8),
                              ValueError, "expected a number, got a str"),
    # nor is a bool, though float() reads it as well
    "evaluate-bool": (lambda: evaluate(KINK, True), DomainError, "expected a number, got a bool"),
    "directed_subdiff-bools": (lambda: directed_subdiff(KINK, [True, False], G8), DomainError,
                               "expected a number, got a bool"),
}

#: values that are not numbers: float() reads the bool, and none of the others
NOT_NUMBERS = {"None": None, "list": [1.0], "bool": True, "object": object()}
_ZERO_2D = directed_zero(2, G8)

#: entry point -> (call with one number, error)
NUMBER_SITES = {
    "Const": (Const, ValueError),
    "LinComb": (lambda v: LinComb(v, KINK, 1.0, KINK), ValueError),
    "linear_combination": (lambda v: linear_combination(v, _ZERO_2D, 1.0, _ZERO_2D), ValueError),
    "DirectedSet.leaf": (lambda v: DirectedSet.leaf(v, 0.0), ValueError),
    "leq-eps": (lambda v: leq(_ZERO_2D, _ZERO_2D, v), ValueError),
    "FdSchedule-t0": (lambda v: FdSchedule(t0=v), ValueError),
}

#: entry point -> (call with a sequence of two numbers, error)
SEQUENCE_SITES = {
    "DirectedSet": (lambda seq: DirectedSet(G8, (seq,), (0.0,) * 8, (0.0,) * 8), ValueError),
    "embed_point": (lambda seq: embed_point(seq, G8), ValueError),
    "evaluate": (lambda seq: evaluate(KINK, seq), DomainError),
    "directed_subdiff": (lambda seq: directed_subdiff(KINK, seq, G8), DomainError),
    "SphereGrid-direction": (lambda seq: SphereGrid(2, (1,), [seq], None, "x"), ValueError),
}

for _site, (_call, _error) in NUMBER_SITES.items():
    for _name, _v in NOT_NUMBERS.items():
        NUMBER_CALLS[f"{_site}-{_name}"] = (
            partial(_call, _v), _error, f"expected a number, got a {type(_v).__name__}")
for _site, (_call, _error) in SEQUENCE_SITES.items():
    for _name, _v in NOT_NUMBERS.items():
        NUMBER_CALLS[f"{_site}-{_name}-entry"] = (
            partial(_call, (_v, 0.0)), _error, f"expected a number, got a {type(_v).__name__}")
    NUMBER_CALLS[f"{_site}-not-iterable"] = (
        partial(_call, object()), _error, "expected a sequence of numbers, got a object")


@pytest.mark.parametrize("entry", NUMBER_CALLS)
def test_numbers_enter_through_one_door(entry):
    call, error, message = NUMBER_CALLS[entry]
    with pytest.raises(error, match=re.escape(message)) as caught:
        call()
    # raised by the door itself, not while an OverflowError was being handled
    assert caught.value.__context__ is None


def _bound(what, least):
    return f"{what} must be >= {least}, an integer below 2**63"


#: entry point -> (call, message) for a count, size, index or exponent that
#: is not an integer in the entry point's range
INTEGER_CALLS = {
    "Var-bool": (lambda: Var(True), _bound("variable index", 0)),
    "Var-negative": (lambda: var(-1), _bound("variable index", 0)),
    "Var-float": (lambda: Var(2.0), _bound("variable index", 0)),
    "Var-past-64-bits": (lambda: Var(2**63), _bound("variable index", 0)),
    "pow-float": (lambda: powk(var(0), 2.5), _bound("pow exponent", 2)),
    "pow-one": (lambda: powk(var(0), 1), _bound("pow exponent", 2)),
    "circle-str": (lambda: SphereGrid.circle("8"), _bound("circle resolution", 1)),
    "circle-float": (lambda: SphereGrid.circle(8.7), _bound("circle resolution", 1)),
    "circle-bool": (lambda: SphereGrid.circle(True), _bound("circle resolution", 1)),
    "sphere-float": (lambda: SphereGrid.sphere(2.5, 3, 4), _bound("a sphere lattice size", 1)),
    "sphere-circle-zero": (lambda: SphereGrid.sphere(2, 3, 0), _bound("circle resolution", 1)),
    "SphereGrid-dim-float": (lambda: SphereGrid(2.0, (8,), G8.directions, None, G8.id),
                             _bound("grid dimension", 2)),
    "SphereGrid-dim-1": (lambda: SphereGrid(1, (8,), G8.directions, None, G8.id),
                         _bound("grid dimension", 2)),
    "SphereGrid-resolution-past-64-bits": (
        lambda: SphereGrid(2, (2**70,), G8.directions, None, G8.id),
        _bound("a grid resolution entry", 1)),
    "FdSchedule-steps-float": (lambda: FdSchedule(steps=2.5), _bound("schedule steps", 2)),
    "FdSchedule-steps-one": (lambda: FdSchedule(steps=1), _bound("schedule steps", 2)),
    "mvt_witness-float": (lambda: mvt_witness(parse("abs(x1)"), (-1.0,), (2.0,), scan_points=2.5),
                          _bound("scan_points", 1)),
    "directed_zero-bool": (lambda: directed_zero(True), _bound("dimension", 1)),
    "default_grid-bool": (lambda: default_grid(True), _bound("dimension", 1)),
    "default_grid-float": (lambda: default_grid(2.0), _bound("dimension", 1)),
    "write_segments_svg-bool": (lambda: write_segments_svg([], io.StringIO(), size=True),
                                _bound("svg size", 1)),
}


@pytest.mark.parametrize("entry", INTEGER_CALLS)
def test_integers_enter_through_one_door(entry):
    call, message = INTEGER_CALLS[entry]
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        call()
    assert type(caught.value) is ValueError
    # raised by the door itself, not while a TypeError was being handled
    assert caught.value.__context__ is None


class Size:
    """An integer that is not an ``int``, as numpy's integers are not."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_an_index_object_is_an_integer():
    assert type(int_at_least(Size(8), 1, "")) is int
    assert SphereGrid.circle(Size(8)).id == G8.id
    assert SphereGrid.sphere(Size(2), Size(3), Size(4)).id == SphereGrid.sphere(2, 3, 4).id
    v = Var(Size(2))
    assert (type(v.index), v.arity) == (int, 3)
    assert evaluate(powk(var(0), Size(3)), (2.0,)) == 8.0
    assert FdSchedule(steps=Size(4)) == FdSchedule(steps=4)
    assert mvt_witness(parse("abs(x1)"), (-1.0,), (2.0,), scan_points=Size(9)) == mvt_witness(
        parse("abs(x1)"), (-1.0,), (2.0,), scan_points=9)


def test_zero_tolerances_are_accepted():
    assert check_min_condition(KINK, ORIGIN, G8, eps=0.0, active_rtol=0.0) is False
    assert leq(directed_zero(2, G8), directed_zero(2, G8), 0.0)
