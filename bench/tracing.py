"""Spans and counters recorded around the package's layer boundaries.

The wrappers are installed from here, by rebinding the functions that one
``dirsubdiff`` module imports from another, so no program file changes.
A span is ``(name, parent, start, end)``; spans stay in memory and
:meth:`Tracer.write` saves them when the run ends.  A layer's self time is
its span's duration minus the time covered by its child spans.

Tracing is expensive here (one 3-D subdifferential makes about 33k
recursive engine calls), so end-to-end numbers never come from a run with
wrappers installed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute, outermost only).  "Outermost only" records
# one span per top-level call of a recursive function instead of one per
# recursion step; the engine's recursion is recorded step by step on purpose.
FUNCTIONS = (
    ("engine.directed_subdiff", "engine", "directed_subdiff", False),
    ("deriv.dirderiv_transform", "deriv", "dirderiv_transform", False),
    ("deriv.restrict", "deriv", "restrict", False),
    ("basis.orthobasis", "basis", "orthobasis", False),
    ("dirset.linear_combination", "dirset", "linear_combination", True),
    ("dirset.sup", "dirset", "sup", True),
    ("dirset.inf", "dirset", "inf", True),
    ("dirset.leq", "dirset", "leq", True),
    ("dirset.norm", "dirset", "norm", True),
    ("dirset.distance", "dirset", "distance", True),
    ("theorems.verify_sum_rule", "theorems", "verify_sum_rule", False),
    ("theorems.verify_product_rule", "theorems", "verify_product_rule", False),
    ("theorems.verify_quotient_rule", "theorems", "verify_quotient_rule", False),
    ("theorems.verify_max_rule", "theorems", "verify_max_rule", False),
    ("theorems.verify_min_rule", "theorems", "verify_min_rule", False),
    ("theorems.verify_dirderiv_fixpoint", "theorems", "verify_dirderiv_fixpoint", False),
    ("cli.main", "cli", "main", False),
    ("parser.parse", "parser", "parse", False),
)


_FIELD_NAMES: dict = {}


def count_nodes(e) -> int:
    """Distinct nodes of an expression DAG, found through its dataclass fields."""
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        cls = type(node)
        fields = _FIELD_NAMES.get(cls)
        if fields is None:
            fields = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
        for name in fields:
            value = getattr(node, name)
            if dataclasses.is_dataclass(value):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(v for v in value if dataclasses.is_dataclass(v))
    return len(seen)


class Tracer:
    """In-memory span table plus plain counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._depth: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.directions: set = set()

    def wrap(self, name, fn, outermost=False, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(args)`` and ``after(args, result)`` run outside the span, so
        the bookkeeping they do is not charged to the layer.
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            depth[name] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[name] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _after_transform(self, args, result):
        self.counts["deriv.dirderiv_transform.nodes_out"] += count_nodes(result)

    def _after_orthobasis(self, args, result):
        self.directions.add(tuple(args[0]))

    def _after_dumps(self, args, result):
        self.counts["json.encode_bytes"] += len(result.encode("utf-8"))

    def _before_loads(self, args):
        text = args[0]
        self.counts["json.decode_bytes"] += len(text.encode("utf-8") if isinstance(text, str) else text)

    @contextmanager
    def installed(self):
        """Rebind the traced functions in every loaded ``dirsubdiff`` module.

        A target the installed package does not have is skipped, so the
        benchmark keeps running when a later version removes a layer; its
        counters then read 0.
        """
        pkg = sys.modules["dirsubdiff"]
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "dirsubdiff" or k.startswith("dirsubdiff."))]
        saved = []

        def rebind_everywhere(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, replacement)

        def rebind_attr(owner, attr, make):
            if attr not in vars(owner):
                return
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(make(original.__func__)))
            else:
                setattr(owner, attr, make(original))

        after = {"deriv.dirderiv_transform": self._after_transform,
                 "basis.orthobasis": self._after_orthobasis}
        for name, modname, attr, outermost in FUNCTIONS:
            mod = getattr(pkg, modname, None)
            original = getattr(mod, attr, None) if mod is not None else None
            if callable(original):
                rebind_everywhere(original, self.wrap(name, original, outermost, after=after.get(name)))

        dirset = pkg.dirset
        directed_set = getattr(dirset, "DirectedSet", None)
        grid = getattr(dirset, "SphereGrid", None)
        if directed_set is not None:
            rebind_attr(directed_set, "to_json_dict",
                        lambda f: self.wrap("dirset.to_json_dict", f, outermost=True))
            rebind_attr(directed_set, "from_json_dict",
                        lambda f: self.wrap("dirset.from_json_dict", f, outermost=True))
            rebind_attr(directed_set, "__post_init__",
                        lambda f: self.counting("dirset.node.calls", f))
        if grid is not None:
            rebind_attr(grid, "from_json_dict", lambda f: self.wrap("dirset.grid_from_json", f))
        rebind_attr(json, "dumps", lambda f: self.wrap("json.encode", f, after=self._after_dumps))
        rebind_attr(json, "loads", lambda f: self.wrap("json.decode", f, before=self._before_loads))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(n)]

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out: dict = {}
        for i, own in enumerate(self.self_times()):
            row = out.setdefault(self.names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.ends[i] - self.starts[i]
            row[2] += own
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated row."""
        selfs = self.self_times()
        t0 = self.starts[0] if self.names else 0.0
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("index\tparent\tname\tstart_s\tduration_s\tself_s\n")
            for i, name in enumerate(self.names):
                fp.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i] - t0:.9f}\t"
                         f"{self.ends[i] - self.starts[i]:.9f}\t{selfs[i]:.9f}\n")
