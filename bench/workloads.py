"""The benchmark's three workloads.

Each workload makes its inputs from a seed (:meth:`setup`), runs one
operation on one input (:meth:`op`) and checks that operation's output
against an expectation the benchmark derives on its own (:meth:`check`).
``plant=True`` replaces every expected value by a wrong one, which must make
every check fail; the self-test uses it to show the checks can fail.

Why these three:

* ``subdiff3d`` is the CLI on a 3-D point at the default 16x32/64 grid:
  engine, derivative transform, basis and restriction recursion plus JSON
  encoding of a 10 MB set.  It bypasses the verifiers and set algebra.
* ``verify2d`` is many short random expressions through the rule
  verifiers at M=360: per-expression transform set-up and small 2-D
  directed-set arithmetic, with no JSON and no 3-D work.
* ``setalg3d`` decodes stored 3-D sets and combines them: the JSON read
  side and 3-D directed-set algebra, with no engine work.  Its members tie
  on a stated share of directions so that sup/inf take their recursive
  branch, which random independent sets never do.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
from json import loads as json_loads  # bound before tracing rebinds json.loads

import dirsubdiff as ds
from dirsubdiff import cli, corpus, theorems

from tracing import count_nodes

RESOLUTION = 360
SUPPORT_RTOL = 1e-9


def _c(rng, lo=-2.0, hi=2.0) -> float:
    return round(rng.uniform(lo, hi), 3)


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _linear_text(coeffs, const=None) -> str:
    """``0 + a1*x1 - a2*x2 ...`` with every sign written as an operator.

    A literal ``-a`` would parse to an extra negation node, so functions of
    one template would differ in size with the signs of their coefficients.
    """
    terms = [(a, f"*x{i + 1}") for i, a in enumerate(coeffs)]
    if const is not None:
        terms.append((const, ""))
    return "0" + "".join(f" {'-' if a < 0 else '+'} {abs(a)!r}{suffix}" for a, suffix in terms)


def _point_text(p) -> str:
    return ",".join(repr(v) for v in p)


# ---------------------------------------------------------------------------
# subdiff3d


class Subdiff3d:
    """``dirsubdiff subdiff`` on a 3-D point, run in-process through ``cli.main``.

    Inputs come in rounds of three: two max-of-affine-plus-abs functions at
    a point where every max member and both abs members are active, and one
    smooth-dominated function at a generic point where one of two max
    members is active.  The check compares the written support values with
    the closed-form support function of the active pieces' gradients.
    """

    name = "subdiff3d"
    kink_pieces = 4
    pool_rounds = 4

    def __init__(self, outdir):
        self.path = os.path.join(outdir, "subdiff3d.json")

    def setup(self, seed):
        rng = random.Random(seed)
        grid = ds.default_grid(3)
        self.grid_id = grid.id
        self.directions = grid.directions
        self.warmup = self._kink(rng)
        self.items = []
        for _ in range(self.pool_rounds):
            self.items += [self._kink(rng), self._smooth(rng), self._kink(rng)]
        for item in [self.warmup] + self.items:
            g = ds.dirderiv_transform(ds.parse(item["f"]), item["x"])
            item["transform_nodes"] = count_nodes(g)
            item["expected"] = [item["support"](l) for l in self.directions]

    def _kink(self, rng):
        x = tuple(_c(rng, -1.0, 1.0) for _ in range(3))
        level = _c(rng, -1.0, 1.0)
        pieces = [tuple(_c(rng) for _ in range(3)) for _ in range(self.kink_pieces)]
        c = tuple(_c(rng) for _ in range(3))
        # offsets put every piece at ``level`` and the abs argument at 0 in x
        terms = [_linear_text(a, level - _dot(a, x)) for a in pieces]
        f = f"max({', '.join(terms)}) + abs({_linear_text(c, -_dot(c, x))})"

        def support(l):
            return max(_dot(a, l) for a in pieces) + abs(_dot(c, l))

        return {"kind": "kink", "f": f, "x": x, "support": support,
                "active_members": self.kink_pieces + 2}

    def _smooth(self, rng):
        x = tuple(_c(rng, -1.0, 1.0) for _ in range(3))
        p, q = (tuple(_c(rng, -1.0, 1.0) for _ in range(3)) for _ in range(2))
        q0 = _c(rng, -1.0, 1.0)
        a1, a2 = (tuple(_c(rng) for _ in range(3)) for _ in range(2))
        b1 = _c(rng)
        b2 = _dot(a1, x) + b1 - _dot(a2, x) - 0.5 - rng.random()  # member 2 inactive
        f = (f"sin({_linear_text(p)}) + sqr({_linear_text(q, q0)})"
             f" + max({_linear_text(a1, b1)}, {_linear_text(a2, b2)})")
        grad = tuple(
            math.cos(_dot(p, x)) * p[i] + 2.0 * (_dot(q, x) + q0) * q[i] + a1[i]
            for i in range(3)
        )

        def support(l):
            return _dot(grad, l)

        return {"kind": "smooth", "f": f, "x": x, "support": support, "active_members": 1}

    def op(self, item):
        # "--point=" keeps argparse from reading a leading minus sign as an option
        argv = ["subdiff", "-f", item["f"], "--point=" + _point_text(item["x"]),
                "-M", str(RESOLUTION), "--json", self.path]
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(self, item, rc, plant=False):
        if rc != 0:
            return False
        with open(self.path, encoding="utf-8") as fp:
            d = json_loads(fp.read())
        if d["dim"] != 3 or d["grid"]["id"] != self.grid_id:
            return False
        got = [e["support"] for e in d["entries"]]
        shift = 1.0 if plant else 0.0
        expected = [v + shift for v in item["expected"]]
        return len(got) == len(expected) and all(
            abs(g - e) <= SUPPORT_RTOL * (1.0 + abs(e)) for g, e in zip(got, expected)
        )

    def bytes_moved(self, item):
        return os.path.getsize(self.path)

    def properties(self, used):
        return {
            "transform_nodes": [it["transform_nodes"] for it in used],
            "active_members": [it["active_members"] for it in used],
            "kinds": [it["kind"] for it in used],
        }


# ---------------------------------------------------------------------------
# verify2d


class Verify2d:
    """One rule verifier call on a 2-D instance from ``corpus.random_rule_pair``.

    The rules rotate through sum, product, quotient, max, min and the
    transform fixpoint.  Quotient instances are redrawn until f2(x) != 0,
    as ``dirsubdiff verify --random`` does.
    """

    name = "verify2d"
    rules = ("sum", "product", "quotient", "max", "min", "fixpoint")
    pool_size = 1200

    def __init__(self, outdir):
        self.flags = []

    def setup(self, seed):
        self.grid = ds.SphereGrid.circle(RESOLUTION)
        rng = corpus.get_rng(seed)
        t0 = time.perf_counter()
        pool = []
        for k in range(self.pool_size + 1):
            rule = self.rules[k % len(self.rules)]
            f1, f2, x = corpus.random_rule_pair(rng)
            if rule == "quotient":
                while ds.evaluate(f2, x) == 0.0:
                    f1, f2, x = corpus.random_rule_pair(rng)
            alpha, beta = _c(rng), _c(rng)
            pool.append({"rule": rule, "f1": f1, "f2": f2, "x": x, "alpha": alpha, "beta": beta})
        self.corpus_s = time.perf_counter() - t0
        self.warmup, self.items = pool[-1], pool[:-1]

    def op(self, item):
        rule, f1, f2, x, grid = item["rule"], item["f1"], item["f2"], item["x"], self.grid
        if rule == "sum":
            return theorems.verify_sum_rule(f1, f2, item["alpha"], item["beta"], x, grid)
        if rule == "product":
            return theorems.verify_product_rule(f1, f2, x, grid)
        if rule == "quotient":
            return theorems.verify_quotient_rule(f1, f2, x, grid)
        if rule == "max":
            return theorems.verify_max_rule((f1, f2), x, grid)
        if rule == "min":
            return theorems.verify_min_rule((f1, f2), x, grid)
        return theorems.verify_dirderiv_fixpoint(f1, x, grid)

    def check(self, item, report, plant=False):
        return report.passed is (not plant)

    def bytes_moved(self, item):
        return 0

    def record(self, report):
        """Keep the report's active-set flags; the report itself is dropped."""
        meta = report.metadata
        self.flags.append((bool(meta.get("active_set_ties")),
                           bool(meta.get("borderline_active_set"))))

    def report_shares(self):
        """Shares of checked reports with tied / borderline (guard re-run) active sets."""
        n = max(1, len(self.flags))
        return {"tie_ratio": sum(t for t, _ in self.flags) / n,
                "guard_rerun_ratio": sum(b for _, b in self.flags) / n}

    def properties(self, used):
        exprs = {repr(e) for it in used for e in (it["f1"], it["f2"])}
        rules = {r: sum(1 for it in used if it["rule"] == r) for r in self.rules}
        return {"distinct_expressions": len(exprs), "rule_counts": rules,
                **self.report_shares()}


# ---------------------------------------------------------------------------
# setalg3d


class Setalg3d:
    """Decode three stored 3-D sets from JSON and combine them.

    The sets live on the default 3-D grid and are written the way the CLI
    writes them (``DirectedSet.to_json``).  Members B and C copy member A's
    support, and a lower set that again shares ``tie_share`` of A's 2-D
    supports, on ``tie_share`` of the directions each, so ``sup``/``inf``
    recurse there.
    """

    name = "setalg3d"
    members = 3
    tie_share = 0.25

    def __init__(self, outdir):
        self.outdir = outdir

    def setup(self, seed):
        rng = corpus.get_rng(seed)
        grid = ds.default_grid(3)
        t0 = time.perf_counter()
        base = corpus.random_directed_set(rng, 3, grid)
        family = [base] + [self._tied(rng, base, grid) for _ in range(self.members - 1)]
        self.corpus_s = time.perf_counter() - t0
        self.paths = []
        for k, s in enumerate(family):
            path = os.path.join(self.outdir, f"setalg3d-{k}.json")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(s.to_json() + "\n")
            self.paths.append(path)
        self.family = family
        self.alpha, self.beta = _c(rng, 0.5, 2.0), _c(rng, 0.5, 2.0)
        self.warmup = {"paths": self.paths}
        self.items = [self.warmup]

    def _tied(self, rng, base, grid):
        m = len(grid.directions)
        tied = set(rng.sample(range(m), round(self.tie_share * m)))
        supports, lowers = [], []
        for k in range(m):
            if k in tied:
                supports.append(base.supports[k])
                lowers.append(self._tied_lower(rng, base.lowers[k], grid.subgrid))
            else:
                supports.append(round(rng.uniform(-5.0, 5.0), 6))
                lowers.append(corpus.random_directed_set(rng, 2, grid.subgrid))
        return ds.DirectedSet.node(grid, supports, lowers)

    def _tied_lower(self, rng, base, grid):
        fresh = corpus.random_directed_set(rng, 2, grid)
        m = len(grid.directions)
        tied = set(rng.sample(range(m), round(self.tie_share * m)))
        supports = [base.supports[k] if k in tied else fresh.supports[k] for k in range(m)]
        return ds.DirectedSet.node(grid, supports, fresh.lowers)

    def op(self, item):
        sets = []
        for path in item["paths"]:
            with open(path, encoding="utf-8") as fp:
                sets.append(ds.DirectedSet.from_json(fp.read()))
        a, b = sets[0], sets[1]
        combined = ds.linear_combination(self.alpha, a, self.beta, b)
        back = ds.linear_combination(1.0 / self.alpha, combined, -self.beta / self.alpha, b)
        upper = ds.sup(sets)
        lower = ds.inf(sets)
        return {
            "sets": sets,
            "a_below_sup": ds.leq(a, upper),
            "inf_below_a": ds.leq(lower, a),
            "combined_norm": ds.norm(combined),
            "back_distance": ds.distance(back, a),
            "back_tolerance": theorems.rule_tolerance(back, a),
        }

    def check(self, item, out, plant=False):
        expected_roundtrip = 1.0 if plant else 0.0
        return (
            all(ds.distance(got, want) == expected_roundtrip
                for got, want in zip(out["sets"], self.family))
            and out["a_below_sup"] is (not plant)
            and out["inf_below_a"] is (not plant)
            and out["back_distance"] <= out["back_tolerance"]
            and math.isfinite(out["combined_norm"])
        )

    def bytes_moved(self, item):
        return sum(os.path.getsize(p) for p in item["paths"])

    def properties(self, used):
        fam = self.family
        m = len(fam[0].supports)

        def tie_share(pick):
            ties = 0
            for k in range(m):
                vals = [s.supports[k] for s in fam]
                best = pick(vals)
                ties += sum(1 for v in vals if v == best) > 1
            return ties / m

        return {"members": len(fam), "stated_tie_share": self.tie_share,
                "sup_tie_share": tie_share(max), "inf_tie_share": tie_share(min)}


WORKLOADS = {cls.name: cls for cls in (Subdiff3d, Verify2d, Setalg3d)}
