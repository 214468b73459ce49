"""End-to-end acceptance checks, one test per numbered criterion.

Each test records a single machine-readable PASS/FAIL line, echoed in the
terminal summary by the conftest hook so a log scan shows the verdicts at
a glance, and enforces its wall-clock budget.
"""

import math
import time

from dirsubdiff.corpus import (
    get_rng,
    random_chain_instance,
    random_rule_pair,
    random_taylor_instance,
)
from generators import (
    random_max_affine,
    random_minimum_instance,
    random_probe,
    random_segment_instance,
    random_smooth_poly,
)
from dirsubdiff.deriv import dirderiv
from dirsubdiff.dirset import (
    DirectedInterval,
    DirectedSet,
    SphereGrid,
    directed_zero,
    distance,
    embed_polygon,
    inf,
    leq,
    linear_combination,
    norm,
    scale,
    sup,
)
from dirsubdiff.engine import directed_subdiff, embed_gradient
from dirsubdiff.expr import DomainError, evaluate
from dirsubdiff.oracle import dini_fd
from dirsubdiff.parser import parse
from dirsubdiff.theorems import (
    check_min_condition,
    mvt_witness,
    verify_chain_rule_1d,
    verify_dirderiv_fixpoint,
    verify_max_rule,
    verify_min_rule,
    verify_product_rule,
    verify_quotient_rule,
    verify_sum_rule,
    verify_taylor_invariance,
)
from references import (
    boundary_segments,
    convex_hull,
    dist_point_segment,
    interval_inf_bruteforce,
    interval_sup_bruteforce,
    polygon_support_oracle,
    segments_hausdorff,
)

G180 = SphereGrid.circle(180)
G90 = SphereGrid.circle(90)

VERDICTS: list[str] = []


def conclude(number, name, failures, elapsed, limit):
    ok = not failures and elapsed <= limit
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d} {name}: {elapsed:5.1f}s / {limit:.0f}s"
    if failures:
        line += f" - {len(failures)} failing: {failures[0]}"
    elif elapsed > limit:
        line += " - over budget"
    VERDICTS.append(line)
    assert not failures, f"criterion {number}: {failures[:3]}"
    assert elapsed <= limit, f"criterion {number}: {elapsed:.1f}s over the {limit:.0f}s budget"


def test_criterion_01_calculus_rules():
    start = time.perf_counter()
    rng = get_rng(1001)
    failures = []
    for k in range(100):
        f1, f2, x = random_rule_pair(rng)
        alpha = round(rng.uniform(-2.0, 2.0), 3)
        beta = round(rng.uniform(-2.0, 2.0), 3)
        reports = [
            verify_sum_rule(f1, f2, alpha, beta, x, G180),
            verify_product_rule(f1, f2, x, G180),
            verify_max_rule((f1, f2), x, G180),
            verify_min_rule((f1, f2), x, G180),
        ]
        if evaluate(f2, x) != 0.0:
            reports.append(verify_quotient_rule(f1, f2, x, G180))
        for r in reports:
            if not r.passed:
                failures.append(f"pair {k} {r.rule}: {r.distance!r} > {r.tolerance!r}")
    conclude(1, "calculus rules", failures, time.perf_counter() - start, 60.0)


def test_criterion_02_fixpoint():
    start = time.perf_counter()
    rng = get_rng(1001)  # the criterion-1 corpus
    failures = []
    for k in range(100):
        f1, f2, x = random_rule_pair(rng)
        rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)  # keep draws aligned
        for tag, f in (("f1", f1), ("f2", f2)):
            r = verify_dirderiv_fixpoint(f, x, G180)
            if not (r.passed and r.distance <= 1e-12):
                failures.append(f"pair {k} {tag}: distance {r.distance!r}")
    conclude(2, "derivative fixpoint", failures, time.perf_counter() - start, 30.0)


def test_criterion_03_canonical_instances():
    start = time.perf_counter()
    failures = []

    def check(tag, got, want):
        if abs(got.a_neg - want[0]) > 1e-12 or abs(got.a_pos - want[1]) > 1e-12:
            failures.append(f"{tag}: got ({got.a_neg!r}, {got.a_pos!r}), want {want}")

    check("abs", directed_subdiff(parse("abs(x1)"), 0.0).interval, (1.0, 1.0))
    check("x*abs", directed_subdiff(parse("x1 * abs(x1)"), 0.0).interval, (0.0, 0.0))
    check(
        "quotient",
        directed_subdiff(parse("abs(x1) / (1 + x1*x1)"), 0.0).interval,
        (1.0, 1.0),
    )
    check("neg-abs", directed_subdiff(parse("-abs(x1)"), 0.0).interval, (-1.0, -1.0))

    s = directed_subdiff(parse("abs(x1)"), (0.0, 0.0), SphereGrid.circle(4))
    entries = dict(zip(((1, 0), (0, 1), (-1, 0), (0, -1)), zip(s.supports, s.lowers)))
    sup_e1, low_e1 = entries[(1, 0)]
    if abs(sup_e1 - 1.0) > 1e-12:
        failures.append(f"plane l=(1,0) support {sup_e1!r}")
    check("plane l=(1,0) lower", low_e1.interval, (0.0, 0.0))
    sup_e2, low_e2 = entries[(0, 1)]
    if abs(sup_e2) > 1e-12:
        failures.append(f"plane l=(0,1) support {sup_e2!r}")
    check("plane l=(0,1) lower", low_e2.interval, (1.0, 1.0))
    conclude(3, "canonical instances", failures, time.perf_counter() - start, 30.0)


def test_criterion_04_gradient_embedding():
    start = time.perf_counter()
    rng = get_rng(1004)
    failures = []
    for k in range(50):
        e = random_smooth_poly(rng, n=2)
        x = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        d = norm(directed_subdiff(e, x, G180) - embed_gradient(e, x, G180))
        if d > 1e-9:
            failures.append(f"poly {k}: norm gap {d!r}")
    conclude(4, "gradient embedding", failures, time.perf_counter() - start, 30.0)


def _face_segments(hull, grid):
    segs = []
    for l in grid.directions:
        _, attain = polygon_support_oracle(hull, l)
        segs.append((attain[0], attain[-1]))
    return segs


def test_criterion_05_convex_consistency():
    start = time.perf_counter()
    rng = get_rng(1005)
    failures = []
    bound = 1.0 - math.cos(math.pi / len(G90))
    for k in range(30):
        e, gradients, _ = random_max_affine(rng, n=2, zero_offsets=True)
        hull = convex_hull(gradients)
        s = directed_subdiff(e, (0.0, 0.0), G90)
        d = distance(s, embed_polygon(hull, G90))
        if d > 1e-9:
            failures.append(f"instance {k}: subdiff vs hull {d!r}")
            continue

        # what the resolution-M sampling can see of the boundary
        from dirsubdiff.viz import viz_segments

        segs = [(seg.p, seg.q) for seg in viz_segments(s)]
        faces = _face_segments(hull, G90)
        diam = max(math.hypot(p[0] - q[0], p[1] - q[1]) for p in hull for q in hull)
        h = segments_hausdorff(segs, faces)
        if h > diam * bound + 1e-9:
            failures.append(f"instance {k}: face Hausdorff {h!r}")
        boundary = boundary_segments(hull)
        off = max(  # most segments repeat: each distinct one is checked once
            min(dist_point_segment(pt, a, b) for a, b in boundary)
            for seg in dict.fromkeys(segs)
            for pt in seg
        )
        if off > 1e-9:
            failures.append(f"instance {k}: segment leaves the true boundary by {off!r}")

        # at a generic point exactly one piece is active
        x = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        vals = [evaluate(p, x) for p in _affine_pieces(e)]
        m = max(vals)
        actives = [gradients[i] for i, v in enumerate(vals) if m - v <= 1e-9 * (1.0 + abs(m))]
        d = distance(directed_subdiff(e, x, G90), embed_polygon(convex_hull(actives), G90))
        if d > 1e-9:
            failures.append(f"instance {k} at {x}: active-hull gap {d!r}")
    conclude(5, "convex consistency", failures, time.perf_counter() - start, 60.0)


def _affine_pieces(e):
    return e.children


def test_criterion_06_optimality_conditions():
    start = time.perf_counter()
    rng = get_rng(1006)
    failures = []
    for k in range(50):
        e, xstar, smooth = random_minimum_instance(rng)
        grid = G180 if len(xstar) == 2 else None
        if not check_min_condition(e, xstar, grid):
            failures.append(f"instance {k}: condition fails at the minimizer")
        shifted = (xstar[0] + 0.1,) + tuple(xstar[1:])
        if check_min_condition(e, shifted, grid):
            failures.append(f"instance {k}: condition holds off the minimizer")
        if smooth:
            s = directed_subdiff(e, xstar, grid)
            z = directed_zero(len(xstar), grid)
            if not (leq(z, s, 1e-9) and leq(s, z, 1e-9)):
                failures.append(f"instance {k}: smooth equality recursion fails")
    conclude(6, "optimality conditions", failures, time.perf_counter() - start, 30.0)


def test_criterion_07_mean_value():
    start = time.perf_counter()
    rng = get_rng(1007)
    failures = []
    w = mvt_witness(parse("abs(x1)"), (-1.0,), (2.0,))
    if not (abs(w.t_hat - 1.0 / 3.0) <= 1e-6 and w.residual <= 1e-8):
        failures.append(f"hand case: t_hat {w.t_hat!r}, residual {w.residual!r}")
    dims = set()
    for k in range(50):
        e, x0, x1 = random_segment_instance(rng)
        dims.add(len(x0))
        try:
            w = mvt_witness(e, x0, x1)
        except Exception as exc:  # any failure to produce a witness counts
            failures.append(f"instance {k}: {exc}")
            continue
        if w.residual > 1e-8 or not 0.0 < w.t_hat < 1.0:
            failures.append(f"instance {k}: t_hat {w.t_hat!r}, residual {w.residual!r}")
    if dims != {1, 2}:
        failures.append(f"corpus covered dimensions {sorted(dims)}, want both 1 and 2")
    conclude(7, "mean-value witnesses", failures, time.perf_counter() - start, 60.0)


def test_criterion_08_chain_and_taylor():
    start = time.perf_counter()
    rng = get_rng(1008)
    failures = []
    for k in range(50):
        g, phi, t0 = random_chain_instance(rng)
        r = verify_chain_rule_1d(g, phi, t0)
        if not (r.passed and r.distance <= 1e-10):
            failures.append(f"chain {k}: distance {r.distance!r}")
    for k in range(50):
        g, phi, x0 = random_taylor_instance(rng)
        r = verify_taylor_invariance(g, phi, x0, G90)
        if not (r.passed and r.distance <= 1e-10):
            failures.append(f"taylor {k}: distance {r.distance!r}")
    conclude(8, "chain rule and Taylor invariance", failures, time.perf_counter() - start, 60.0)


def test_criterion_09_oracle_independence():
    start = time.perf_counter()
    rng = get_rng(1009)
    failures = []
    checked = attempts = 0
    while checked < 200 and attempts < 4000:
        attempts += 1
        e, x, l = random_probe(rng)
        try:
            exact = dirderiv(e, x, l)
            approx = dini_fd(e, x, l)
        except DomainError:
            continue
        if abs(approx - exact) > 1e-5 * (1.0 + abs(exact)):
            failures.append(f"probe {checked}: fd {approx!r} vs exact {exact!r}")
        checked += 1
    if checked < 200:
        failures.append(f"only {checked} valid probes in {attempts} attempts")

    for k in range(1000):
        ivs = [
            DirectedInterval(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
            for _ in range(rng.randint(1, 6))
        ]
        sets = [DirectedSet.from_interval(iv) for iv in ivs]
        if sup(sets).interval != interval_sup_bruteforce(ivs):
            failures.append(f"family {k}: sup mismatch")
        if inf(sets).interval != interval_inf_bruteforce(ivs):
            failures.append(f"family {k}: inf mismatch")
    conclude(9, "oracle independence", failures, time.perf_counter() - start, 30.0)


def test_criterion_10_space_axioms():
    start = time.perf_counter()
    rng = get_rng(1010)
    failures = []
    from dirsubdiff.corpus import random_directed_set

    leafs = [random_directed_set(rng, 1) for _ in range(250)]
    planes = [random_directed_set(rng, 2, G90) for _ in range(250)]
    for dim, cohort, grid in ((1, leafs, None), (2, planes, G90)):
        zero = directed_zero(dim, grid)
        if norm(zero) != 0.0:
            failures.append(f"dim {dim}: zero norm {norm(zero)!r}")
        shift1 = cohort[1:] + cohort[:1]
        shift2 = cohort[2:] + cohort[:2]
        for k, (a, b, c) in enumerate(zip(cohort, shift1, shift2)):
            lam = rng.uniform(-3.0, 3.0)
            if not norm(a) > 0.0:
                failures.append(f"dim {dim} set {k}: nonpositive norm for nonzero set")
            if norm(scale(lam, a)) != abs(lam) * norm(a):
                failures.append(f"dim {dim} set {k}: homogeneity not exact")
            if norm(a + b) > norm(a) + norm(b) + 1e-12:
                failures.append(f"dim {dim} set {k}: triangle inequality")
            if a + b != b + a:
                failures.append(f"dim {dim} set {k}: commutativity")
            if distance(linear_combination(1.0, a + b, 1.0, c),
                        linear_combination(1.0, a, 1.0, b + c)) > 1e-12:
                failures.append(f"dim {dim} set {k}: associativity")
            if distance(a - a, zero) > 1e-12:
                failures.append(f"dim {dim} set {k}: self-difference")
            if scale(1.0, a) != a:
                failures.append(f"dim {dim} set {k}: unit scaling")
            s = sup([a, b])
            i = inf([a, b])
            if not (leq(a, s, 1e-9) and leq(b, s, 1e-9)):
                failures.append(f"dim {dim} set {k}: sup above members")
            if not (leq(i, a, 1e-9) and leq(i, b, 1e-9)):
                failures.append(f"dim {dim} set {k}: inf below members")
    for k, (a, b) in enumerate(zip(leafs, leafs[1:])):
        if leq(a, b, 0.0) != (sup([a, b]) == b):
            failures.append(f"leaf pair {k}: order vs sup characterization")
    conclude(10, "space axioms", failures, time.perf_counter() - start, 30.0)
