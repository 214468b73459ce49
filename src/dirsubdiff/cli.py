"""Command-line front end.

Subcommands: ``subdiff`` computes and exports a directed subdifferential,
``verify`` runs rule checks on instances from the flags or from seeded random
draws through one dispatch, ``optcheck`` tests the two order-based optimality
conditions, ``mvt`` searches a mean-value witness, ``viz`` converts stored
sets to segment CSV/SVG.

Exit codes: 0 success or all checks passed, 1 verification failure,
2 input error (including non-finite points, overflow, nesting past
:data:`dirsubdiff.parser.MAX_NESTING`, a NaN, infinite or negative tolerance
and a negative ``--random``), 3 witness not found.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .corpus import (
    get_rng,
    random_chain_instance,
    random_rule_pair,
    random_taylor_instance,
)
from .dirset import ACTIVE_RTOL, DirectedSet, SphereGrid, norm, write_json
from .engine import default_grid, directed_subdiff
from .expr import DomainError, evaluate
from .parser import parse
from .theorems import (
    WitnessNotFoundError,
    mvt_witness,
    order_condition,
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

#: the verifier of each rule, in the order ``--rule all`` runs them
VERIFIERS = {
    "sum": verify_sum_rule, "product": verify_product_rule, "quotient": verify_quotient_rule,
    "max": verify_max_rule, "min": verify_min_rule, "fixpoint": verify_dirderiv_fixpoint,
    "taylor": verify_taylor_invariance, "chain1d": verify_chain_rule_1d,
}
RULES = tuple(VERIFIERS)

#: largest ``-M`` (a circle of this many directions holds about 7 MB of floats)
#: and ``mvt --scan`` (the scan keeps one probe record per point)
MAX_RESOLUTION = MAX_SCAN = 65536


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: expected comma-separated decimals") from exc


def _grid_for(n: int, resolution: int) -> SphereGrid | None:
    """The ``-M`` circle for a 2-D point, :func:`default_grid` for any other.

    Every path that reads ``-M`` comes here: for points of dimension >= 2
    it must lie in ``[8, MAX_RESOLUTION]``, checked before the circle's
    directions are allocated."""
    if n > 1 and not 8 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be at least 8 and at most {MAX_RESOLUTION}, "
                         f"got {resolution}")
    return SphereGrid.circle(resolution) if n == 2 else default_grid(n)


def _emit_json(payload, path: str | None) -> None:
    """Stream ``payload`` as indent-2 JSON and a newline to ``path`` or
    stdout; a directed set in it is written as its dict's text, straight
    from its arrays (:func:`dirsubdiff.dirset.write_json`)."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fp:
        write_json(payload, fp)
        fp.write("\n")


def _write_viz(segments, args) -> None:
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fp:
            write_segments_csv(segments, fp)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fp:
            write_segments_svg(segments, fp)


def cmd_subdiff(args) -> int:
    e, x = parse(args.function), _parse_point(args.point)
    s = directed_subdiff(e, x, _grid_for(len(x), args.resolution), active_rtol=args.eps_active)
    _emit_json(s, args.json)
    if s.is_leaf:
        iv = s.interval
        print(f"interval: [{iv.lower_endpoint!r}, {iv.upper_endpoint!r}]"
              f"{' (inverted)' if iv.is_inverted else ''}", file=sys.stderr)
    else:
        print(f"support range: [{min(s.supports)!r}, {max(s.supports)!r}]", file=sys.stderr)
        if s.dim == 2 and (args.csv or args.svg):
            _write_viz(viz_segments(s), args)
    print(f"norm: {norm(s)!r}", file=sys.stderr)
    return 0


def _explicit_instances(args, rules):
    """Yield ``(rule, verifier arguments)`` built from the flags, one rule at
    a time; every flag is parsed before the first instance."""
    x = _parse_point(args.point) if args.point else None
    f1 = parse(args.f1) if args.f1 else None
    f2 = parse(args.f2) if args.f2 else None
    fs = [parse(t) for t in args.fs] if args.fs else None
    phi = [parse(t) for t in args.phi] if args.phi else None
    for rule in rules:
        if rule in ("sum", "product", "quotient"):
            head = (f1 if f1 is not None else parse("x1"), f2 if f2 is not None else parse("x1"))
            if rule == "sum":
                head += (args.alpha, args.beta)
        elif rule in ("max", "min"):
            if not fs or len(fs) < 2:
                raise ValueError(f"rule {rule} needs at least two --fs expressions")
            head = (fs,)
        elif rule == "fixpoint":
            f = f1 or (fs[0] if fs else None)
            if f is None:
                raise ValueError("rule fixpoint needs -f1")
            head = (f,)
        else:
            if f1 is None or not phi:
                raise ValueError(f"rule {rule} needs -f1 (outer) and --phi (inner components)")
            head = (f1, phi)
        if rule == "chain1d":
            yield rule, head + (args.t0,)
        elif x is None:
            raise ValueError("this rule needs -x/--point")
        else:
            yield rule, head + (x, _grid_for(len(x), args.resolution))


def _random_instances(args, rules):
    """Yield ``args.random`` seeded instances per rule on one ``-M`` circle."""
    rng = get_rng(args.seed)
    grid = _grid_for(2, args.resolution)
    for rule in rules:
        for _ in range(args.random):
            if rule == "chain1d":
                yield rule, random_chain_instance(rng)
            elif rule == "taylor":
                yield rule, (*random_taylor_instance(rng), grid)
            else:
                f1, f2, x = random_rule_pair(rng)
                while rule == "quotient" and evaluate(f2, x) == 0.0:
                    f1, f2, x = random_rule_pair(rng)
                if rule == "sum":
                    head = (f1, f2, round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
                elif rule in ("max", "min"):
                    head = ((f1, f2),)
                else:
                    head = (f1,) if rule == "fixpoint" else (f1, f2)
                yield rule, (*head, x, grid)


def cmd_verify(args) -> int:
    if args.random < 0:
        raise ValueError(f"--random needs N >= 0, got {args.random}")
    flags = {"-f1": args.f1, "-f2": args.f2, "--fs": args.fs, "--phi": args.phi, "-x": args.point}
    given = [flag for flag, value in flags.items() if value is not None]
    if args.random and given:
        raise ValueError(f"--random draws its own instances; drop {', '.join(given)}")
    rules = RULES if args.rule == "all" else (args.rule,)
    instances = (_random_instances if args.random else _explicit_instances)(args, rules)
    reports = [VERIFIERS[rule](*inst, active_rtol=args.eps_active) for rule, inst in instances]
    _emit_json([r._document(r.lhs, r.rhs) for r in reports], args.json)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed", file=sys.stderr)
    for r in failed:
        print(f"FAIL {r.rule} at {r.point}: distance {r.distance!r} > {r.tolerance!r}",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_optcheck(args) -> int:
    e, x = parse(args.function), _parse_point(args.point)
    s = directed_subdiff(e, x, _grid_for(len(x), args.resolution), active_rtol=args.eps_active)
    is_min, is_max = (order_condition(s, args.eps_order, maximize) for maximize in (False, True))
    print(f"min-candidate: {'yes' if is_min else 'no'}")
    print(f"max-candidate: {'yes' if is_max else 'no'}")
    return 0


def cmd_mvt(args) -> int:
    if args.scan > MAX_SCAN:
        raise ValueError(f"--scan must be at most {MAX_SCAN}, got {args.scan}")
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


_OUTPUTS = {"--json": "write JSON here instead of stdout",
            "--csv": "write segment CSV here", "--svg": "write segment SVG here"}


def _add_common(sp, resolution=True, eps_order=None, outputs=()):
    """Add ``--eps-active`` and those other shared flags the subcommand reads."""
    if resolution:
        sp.add_argument("-M", "--resolution", type=int, default=360,
                        help="circle grid resolution for 2-D points (default 360)")
    sp.add_argument("--eps-active", type=float, default=ACTIVE_RTOL,
                    help="relative active-set tolerance (default 1e-9)")
    if eps_order is not None:
        sp.add_argument("--eps-order", type=float, default=eps_order,
                        help=f"order/witness tolerance (default {eps_order:g})")
    for flag in outputs:
        sp.add_argument(flag, metavar="PATH", default=None, help=_OUTPUTS[flag])


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
    _add_common(p, outputs=_OUTPUTS)
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
    _add_common(p, outputs=("--json",))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optcheck", help="order-based optimality conditions")
    p.add_argument("-f", "--function", required=True)
    p.add_argument("-x", "--point", required=True)
    _add_common(p, eps_order=1e-9)
    p.set_defaults(func=cmd_optcheck)

    p = sub.add_parser("mvt", help="mean-value witness search")
    p.add_argument("-f", "--function", required=True)
    p.add_argument("--x0", required=True, help="segment start (comma-separated)")
    p.add_argument("--x1", required=True, help="segment end")
    p.add_argument("--scan", type=int, default=99, help="interior scan points (default 99)")
    _add_common(p, resolution=False, eps_order=1e-8)
    p.set_defaults(func=cmd_mvt)

    p = sub.add_parser("viz", help="export 2-D segments from a set or a function")
    p.add_argument("-f", "--function", default=None)
    p.add_argument("-x", "--point", default=None)
    p.add_argument("--in", dest="input", default=None, metavar="PATH",
                   help="read a DirectedSet JSON file")
    _add_common(p, outputs=("--csv", "--svg"))
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
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
