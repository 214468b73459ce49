"""Command-line front end.

Subcommands: ``subdiff`` computes and exports a directed subdifferential,
``verify`` runs rule checks on explicit or random instances, ``optcheck``
tests the two order-based optimality conditions, ``mvt`` searches a
mean-value witness, ``viz`` converts stored sets to segment CSV/SVG.

Exit codes: 0 success or all checks passed, 1 verification failure,
2 input error (including non-finite points, overflow and nesting past
:data:`dirsubdiff.parser.MAX_NESTING`), 3 witness not found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import (
    get_rng,
    random_chain_instance,
    random_rule_pair,
    random_taylor_instance,
)
from .dirset import ACTIVE_RTOL, DirectedSet, GridMismatchError, SphereGrid, norm
from .engine import KinkError, default_grid, directed_subdiff
from .expr import ArityError, DomainError, evaluate
from .parser import ParseError, parse
from .theorems import (
    WitnessNotFoundError,
    check_max_condition,
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
from .viz import viz_segments, write_segments_csv, write_segments_svg

RESOLUTION_ENV = "DIRSUBDIFF_RESOLUTION"
RULES = ("sum", "product", "quotient", "max", "min", "fixpoint", "taylor", "chain1d")


def _default_resolution() -> int:
    raw = os.environ.get(RESOLUTION_ENV)
    if raw is None:
        return 360
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{RESOLUTION_ENV} must be an integer, got {raw!r}") from exc


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: expected comma-separated decimals") from exc


def _grid_for(n: int, resolution: int) -> SphereGrid | None:
    if n == 1:
        return None
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    if n == 2:
        return SphereGrid.circle(resolution)
    if n == 3:
        return default_grid(3)
    raise ValueError("points beyond dimension 3 are not supported")


def _emit_json(payload, path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_viz(segments, args) -> None:
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fp:
            write_segments_csv(segments, fp)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fp:
            write_segments_svg(segments, fp)


def cmd_subdiff(args) -> int:
    e = parse(args.function)
    x = _parse_point(args.point)
    if e.arity > len(x):
        raise ArityError(f"function uses x{e.arity} but the point has {len(x)} coordinates")
    grid = _grid_for(len(x), args.resolution)
    s = directed_subdiff(e, x, grid, active_rtol=args.eps_active)
    _emit_json(s.to_json_dict(), args.json)
    if s.is_leaf:
        iv = s.interval
        print(
            f"interval: [{iv.lower_endpoint!r}, {iv.upper_endpoint!r}]"
            f"{' (inverted)' if iv.is_inverted else ''}",
            file=sys.stderr,
        )
    else:
        print(
            f"support range: [{min(s.supports)!r}, {max(s.supports)!r}]",
            file=sys.stderr,
        )
        if s.dim == 2 and (args.csv or args.svg):
            _write_viz(viz_segments(s), args)
    print(f"norm: {norm(s)!r}", file=sys.stderr)
    return 0


def _explicit_reports(args, rules):
    x = _parse_point(args.point) if args.point else None
    f1 = parse(args.f1) if args.f1 else None
    f2 = parse(args.f2) if args.f2 else None
    fs = [parse(t) for t in args.fs] if args.fs else None
    phi = [parse(t) for t in args.phi] if args.phi else None

    def point():
        if x is None:
            raise ValueError("this rule needs -x/--point")
        return _grid_for(len(x), args.resolution), x

    reports = []
    for rule in rules:
        if rule in ("sum", "product", "quotient"):
            a = f1 if f1 is not None else parse("x1")
            b = f2 if f2 is not None else parse("x1")
            grid, xs = point()
            if rule == "sum":
                reports.append(
                    verify_sum_rule(a, b, args.alpha, args.beta, xs, grid,
                                    active_rtol=args.eps_active)
                )
            elif rule == "product":
                reports.append(verify_product_rule(a, b, xs, grid, active_rtol=args.eps_active))
            else:
                reports.append(verify_quotient_rule(a, b, xs, grid, active_rtol=args.eps_active))
        elif rule in ("max", "min"):
            if not fs or len(fs) < 2:
                raise ValueError(f"rule {rule} needs at least two --fs expressions")
            grid, xs = point()
            verifier = verify_max_rule if rule == "max" else verify_min_rule
            reports.append(verifier(fs, xs, grid, active_rtol=args.eps_active))
        elif rule == "fixpoint":
            f = f1 or (fs[0] if fs else None)
            if f is None:
                raise ValueError("rule fixpoint needs -f1")
            grid, xs = point()
            reports.append(verify_dirderiv_fixpoint(f, xs, grid, active_rtol=args.eps_active))
        elif rule == "chain1d":
            if f1 is None or not phi:
                raise ValueError("rule chain1d needs -f1 (outer) and --phi (inner components)")
            reports.append(
                verify_chain_rule_1d(f1, phi, args.t0, active_rtol=args.eps_active)
            )
        elif rule == "taylor":
            if f1 is None or not phi:
                raise ValueError("rule taylor needs -f1 (outer) and --phi (inner components)")
            grid, xs = point()
            reports.append(
                verify_taylor_invariance(f1, phi, xs, grid, active_rtol=args.eps_active)
            )
    return reports


def _random_reports(args, rules):
    rng = get_rng(args.seed)
    grid = SphereGrid.circle(args.resolution)
    reports = []
    for rule in rules:
        for _ in range(args.random):
            if rule in ("sum", "product", "quotient", "max", "min", "fixpoint"):
                f1, f2, x = random_rule_pair(rng)
                if rule == "quotient":
                    while evaluate(f2, x) == 0.0:
                        f1, f2, x = random_rule_pair(rng)
                if rule == "sum":
                    rep = verify_sum_rule(
                        f1, f2, round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3),
                        x, grid, active_rtol=args.eps_active,
                    )
                elif rule == "product":
                    rep = verify_product_rule(f1, f2, x, grid, active_rtol=args.eps_active)
                elif rule == "quotient":
                    rep = verify_quotient_rule(f1, f2, x, grid, active_rtol=args.eps_active)
                elif rule == "max":
                    rep = verify_max_rule((f1, f2), x, grid, active_rtol=args.eps_active)
                elif rule == "min":
                    rep = verify_min_rule((f1, f2), x, grid, active_rtol=args.eps_active)
                else:
                    rep = verify_dirderiv_fixpoint(f1, x, grid, active_rtol=args.eps_active)
            elif rule == "chain1d":
                g, phi, t0 = random_chain_instance(rng)
                rep = verify_chain_rule_1d(g, phi, t0, active_rtol=args.eps_active)
            else:
                g, phi, x0 = random_taylor_instance(rng)
                rep = verify_taylor_invariance(g, phi, x0, grid, active_rtol=args.eps_active)
            reports.append(rep)
    return reports


def cmd_verify(args) -> int:
    rules = RULES if args.rule == "all" else (args.rule,)
    if args.random:
        reports = _random_reports(args, rules)
    else:
        reports = _explicit_reports(args, rules)
    _emit_json([r.to_json_dict() for r in reports], args.json)
    failed = [r for r in reports if not r.passed]
    print(
        f"{len(reports) - len(failed)}/{len(reports)} checks passed",
        file=sys.stderr,
    )
    for r in failed:
        print(
            f"FAIL {r.rule} at {r.point}: distance {r.distance!r} > {r.tolerance!r}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_optcheck(args) -> int:
    e = parse(args.function)
    x = _parse_point(args.point)
    if e.arity > len(x):
        raise ArityError(f"function uses x{e.arity} but the point has {len(x)} coordinates")
    grid = _grid_for(len(x), args.resolution)
    is_min = check_min_condition(e, x, grid, eps=args.eps_order, active_rtol=args.eps_active)
    is_max = check_max_condition(e, x, grid, eps=args.eps_order, active_rtol=args.eps_active)
    print(f"min-candidate: {'yes' if is_min else 'no'}")
    print(f"max-candidate: {'yes' if is_max else 'no'}")
    return 0


def cmd_mvt(args) -> int:
    e = parse(args.function)
    x0 = _parse_point(args.x0)
    x1 = _parse_point(args.x1)
    w = mvt_witness(
        e, x0, x1, scan_points=args.scan, eps=args.eps_order, active_rtol=args.eps_active
    )
    x_hat = tuple(a + w.t_hat * (b - a) for a, b in zip(x0, x1))
    print(f"t_hat: {w.t_hat!r}")
    print(f"x_hat: ({', '.join(repr(c) for c in x_hat)})")
    print(f"residual: {w.residual!r}")
    print(f"interval: stored ({w.interval.a_neg!r}, {w.interval.a_pos!r}), "
          f"visualized [{w.interval.lower_endpoint!r}, {w.interval.upper_endpoint!r}]"
          f"{' (inverted)' if w.interval.is_inverted else ''}")
    return 0


def cmd_viz(args) -> int:
    if args.function:
        e = parse(args.function)
        x = _parse_point(args.point) if args.point else (0.0, 0.0)
        if len(x) != 2:
            raise ValueError("viz needs a 2-D point")
        grid = _grid_for(2, args.resolution)
        s = directed_subdiff(e, x, grid, active_rtol=args.eps_active)
    elif args.input:
        with open(args.input, encoding="utf-8") as fp:
            s = DirectedSet.from_json(fp.read())
    else:
        raise ValueError("viz needs -f/--function or --in")
    if s.dim != 2:
        raise ValueError("viz only handles 2-D directed sets")
    if not args.csv and not args.svg:
        raise ValueError("viz needs --csv or --svg output paths")
    segments = viz_segments(s)
    _write_viz(segments, args)
    inverted = sum(1 for seg in segments if seg.inverted)
    print(f"{len(segments)} segments, {inverted} inverted", file=sys.stderr)
    return 0


def _add_common(sp, point_required=True):
    sp.add_argument("-M", "--resolution", type=int, default=_default_resolution(),
                    help="circle grid resolution for 2-D points (default 360, "
                         f"or ${RESOLUTION_ENV})")
    sp.add_argument("--eps-active", type=float, default=ACTIVE_RTOL,
                    help="relative active-set tolerance (default 1e-9)")
    sp.add_argument("--eps-order", type=float, default=1e-9,
                    help="order/witness tolerance (default 1e-9; mvt uses 1e-8)")
    sp.add_argument("--json", metavar="PATH", default=None,
                    help="write JSON here instead of stdout")
    sp.add_argument("--csv", metavar="PATH", default=None, help="write segment CSV here")
    sp.add_argument("--svg", metavar="PATH", default=None, help="write segment SVG here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirsubdiff",
        description="directed subdifferentials of max/min expressions, with "
                    "mechanical verification of their calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subdiff", help="compute a directed subdifferential")
    p.add_argument("-f", "--function", required=True)
    p.add_argument("-x", "--point", required=True, help="comma-separated coordinates")
    _add_common(p)
    p.set_defaults(func=cmd_subdiff)

    p = sub.add_parser("verify", help="check calculus rules on instances")
    p.add_argument("--rule", choices=RULES + ("all",), default="all")
    p.add_argument("-f1", "--f1", dest="f1", default=None, help="first operand / outer function")
    p.add_argument("-f2", "--f2", dest="f2", default=None, help="second operand")
    p.add_argument("--fs", action="append", default=None,
                   help="max/min member (repeat at least twice)")
    p.add_argument("--phi", action="append", default=None,
                   help="smooth inner component (repeatable)")
    p.add_argument("-a", "--alpha", type=float, default=1.0)
    p.add_argument("-b", "--beta", type=float, default=1.0)
    p.add_argument("-x", "--point", default=None)
    p.add_argument("--t0", type=float, default=0.0, help="base parameter for chain1d")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="run N seeded random instances per rule instead")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optcheck", help="order-based optimality conditions")
    p.add_argument("-f", "--function", required=True)
    p.add_argument("-x", "--point", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_optcheck)

    p = sub.add_parser("mvt", help="mean-value witness search")
    p.add_argument("-f", "--function", required=True)
    p.add_argument("--x0", required=True, help="segment start (comma-separated)")
    p.add_argument("--x1", required=True, help="segment end")
    p.add_argument("--scan", type=int, default=99, help="interior scan points (default 99)")
    _add_common(p)
    p.set_defaults(func=cmd_mvt)
    p.set_defaults(eps_order=1e-8)

    p = sub.add_parser("viz", help="export 2-D segments from a set or a function")
    p.add_argument("-f", "--function", default=None)
    p.add_argument("-x", "--point", default=None)
    p.add_argument("--in", dest="input", default=None, metavar="PATH",
                   help="read a DirectedSet JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_viz)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except WitnessNotFoundError as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 3
    except (ParseError, DomainError, ArityError, KinkError, GridMismatchError,
            ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
