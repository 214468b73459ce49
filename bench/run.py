"""Seeded benchmark of dirsubdiff: one workload, one closed loop, one caller.

Run from the repository root::

    python3 bench/run.py --workload subdiff3d --seed 4242 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``subdiff3d``, ``verify2d``, ``setalg3d``.
The program is imported from ``src/`` next to this directory; the run fails
with exit code 2 when it is not there.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``SETUP_REPEATS`` set-ups), ``ops_per_s``, ``op_ms.p50`` and
``peak_rss_mb``.  On a shared 2-core x86_64 host with Python 3.11 the CPU
speed swung by up to 1.7x within seconds and drifted over minutes (a fixed
pure-Python loop took 34 to 65 ms), which moved the median operation time
of 30-second runs by 15 to 35 % and the set-up time by up to 50 % between
runs.  So every timed interval is also measured with a probe loop
(:func:`probe_work`) timed right before it and, through a timer signal,
every 20 ms during it, and the times above are *host-speed normalized*:
wall time x ``PROBE_NOMINAL_S`` / median probe time.  On a host where the
probe takes ``PROBE_NOMINAL_S`` they equal wall-clock times; the wall-clock
values are printed beside them (``*_wall``), with the probe's median time.

``--trace 1`` first runs operations without wrappers for half of
``--seconds``, then repeats exactly those operations with the layer
wrappers of ``tracing.py`` installed and reports per-layer counts and self
times per operation, plus the tracing overhead.

Every operation's output is checked in both modes; a failed check or an
exception counts as failed without stopping the run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give every
metric by name with its unit, and the input properties.  The full result,
and the span table of a traced run, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: the acceptance suite draws from seeds 1001..1010; this one is not among them
DEFAULT_SEED = 4242
SETUP_REPEATS = 3
PROBE_PERIOD_S = 0.02
PROBE_PRE_SAMPLES = 20
#: probe time at which normalized times equal wall-clock times; typical of
#: the 2-core x86_64 host above in its faster phases
PROBE_NOMINAL_S = 0.12e-3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MB",
}

_PER_OP_SPANS = (
    "engine.directed_subdiff", "deriv.dirderiv_transform", "deriv.restrict",
    "basis.orthobasis", "dirset.linear_combination", "dirset.sup", "dirset.inf",
    "dirset.leq", "dirset.norm", "dirset.distance",
    "theorems.verify_sum_rule", "theorems.verify_product_rule",
    "theorems.verify_quotient_rule", "theorems.verify_max_rule",
    "theorems.verify_min_rule", "theorems.verify_dirderiv_fixpoint",
)

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in _PER_OP_SPANS
       for kind, unit in (("calls", "count/op"), ("self_s", "s/op"))},
    "deriv.dirderiv_transform.nodes_out": "count/call",
    "basis.orthobasis.distinct_ratio": "ratio",
    "dirset.node.calls": "count/op",
    "dirset.to_json_dict.self_s": "s/op",
    "dirset.from_json_dict.self_s": "s/op",
    "dirset.grid_from_json.calls": "count/op",
    "json.encode_s": "s/op",
    "json.encode_bytes": "B/op",
    "json.decode_s": "s/op",
    "json.decode_bytes": "B/op",
    "theorems.guard_rerun_ratio": "ratio",
    "theorems.tie_ratio": "ratio",
    "cli.main.self_s": "s/op",
    "parser.parse.self_s": "s/op",
    "corpus.generate_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_program():
    """Import ``dirsubdiff`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import dirsubdiff

    where = Path(dirsubdiff.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"dirsubdiff was imported from {where}, not from {SRC}")
    return dirsubdiff


def probe_work() -> float:
    """Fixed pure-Python work of about 0.1 ms; its time tracks the host's speed.

    It allocates no container, so it never triggers a garbage collection of
    the program's heap, whose time would otherwise count as probe time.
    """
    acc = 0.0
    for i in range(600):
        x = i * 0.5
        acc += (x * x + i) ** 0.5
    return acc


class SpeedProbe:
    """Times :func:`probe_work` before and, on a timer signal, during an interval."""

    def __init__(self):
        self.samples: list[float] = []
        self.medians: list[float] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, during=True):
        """Call ``fn()``; return its result, wall time and normalized time.

        The probe's own time is taken out of the wall time.  ``during=False``
        samples only before the call, so that no probe time lands inside it.
        """
        self.samples.clear()
        for _ in range(PROBE_PRE_SAMPLES):
            self.sample()
        before = len(self.samples)
        with self.sampling() if during else nullcontext():
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0 - sum(self.samples[before:])
        unit = statistics.median(self.samples)
        self.medians.append(unit)
        return result, wall, wall * PROBE_NOMINAL_S / unit


class Loop:
    """Closed loop over a workload's inputs, checking every output."""

    def __init__(self, wl, probe, plant=False):
        self.wl = wl
        self.probe = probe
        self.plant = plant
        self.attempted = 0
        self.failed = 0
        self.bytes = 0

    def one(self, item, tracer=None):
        """Run and check one operation; return its wall and normalized seconds.

        A traced operation is not probed while it runs, so that no probe time
        lands in its spans.
        """
        wl = self.wl

        def call():
            try:
                return True, wl.op(item)
            except (Exception, SystemExit):  # argparse exits on a rejected argument
                traceback.print_exc(file=sys.stderr)
                return False, None

        gc.collect()  # outside the timed region: each op starts from a collected heap
        with tracer.installed() if tracer is not None else nullcontext():
            (ok, out), wall, norm = self.probe.timed(call, during=tracer is None)
        if ok:
            try:
                ok = bool(wl.check(item, out, self.plant))
                self.bytes += wl.bytes_moved(item)
                if hasattr(wl, "record"):
                    wl.record(out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        self.attempted += 1
        self.failed += not ok
        return wall, norm

    def run(self, items, seconds):
        """Operations on ``items`` in turn until ``seconds`` have passed (at least one)."""
        timed = []
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < seconds:
            timed.append(self.one(items[len(timed) % len(items)]))
        return timed


def setup_workload(cls, seed, repeats, probe):
    """Set up ``repeats`` times; keep the last workload.

    Returns it with the wall and normalized times of every set-up and the
    corpus generation time of each.
    """
    walls, norms, corpus_times = [], [], []
    wl = None
    for _ in range(repeats):
        wl = None  # free the previous set-up before building the next
        gc.collect()
        fresh = cls(str(OUT))
        _, wall, norm = probe.timed(lambda: fresh.setup(seed))
        walls.append(wall)
        norms.append(norm)
        corpus_times.append(getattr(fresh, "corpus_s", 0.0))
        wl = fresh
    return wl, walls, norms, corpus_times


def _p90(values):
    """p90 when at least ten samples lie beyond it, else None."""
    return statistics.quantiles(values, n=10)[8] if len(values) >= 100 else None


def per_layer_metrics(tracer, ops, corpus_s, overhead, wl):
    agg = tracer.aggregate()
    counts = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2] / ops

    m = {}
    for name in _PER_OP_SPANS:
        m[f"{name}.calls"] = calls(name) / ops
        m[f"{name}.self_s"] = self_s(name)
    transforms = calls("deriv.dirderiv_transform")
    m["deriv.dirderiv_transform.nodes_out"] = (
        counts["deriv.dirderiv_transform.nodes_out"] / transforms if transforms else 0.0)
    bases = calls("basis.orthobasis")
    m["basis.orthobasis.distinct_ratio"] = len(tracer.directions) / bases if bases else 0.0
    m["dirset.node.calls"] = counts["dirset.node.calls"] / ops
    m["dirset.to_json_dict.self_s"] = self_s("dirset.to_json_dict")
    m["dirset.from_json_dict.self_s"] = self_s("dirset.from_json_dict")
    m["dirset.grid_from_json.calls"] = calls("dirset.grid_from_json") / ops
    m["json.encode_s"] = self_s("json.encode")
    m["json.encode_bytes"] = counts["json.encode_bytes"] / ops
    m["json.decode_s"] = self_s("json.decode")
    m["json.decode_bytes"] = counts["json.decode_bytes"] / ops
    shares = wl.report_shares() if hasattr(wl, "report_shares") else {}
    m["theorems.guard_rerun_ratio"] = shares.get("guard_rerun_ratio", 0.0)
    m["theorems.tie_ratio"] = shares.get("tie_ratio", 0.0)
    m["cli.main.self_s"] = self_s("cli.main")
    m["parser.parse.self_s"] = self_s("parser.parse")
    m["corpus.generate_s"] = corpus_s
    m["trace.overhead_ratio"] = overhead
    return m


def run(workload, seed, seconds, trace, plant=False, setup_repeats=SETUP_REPEATS):
    """Run one workload; return ``(result, extras)``.

    ``plant`` makes every expected value in the checks wrong, so every
    operation must count as failed; the self-test uses it.
    """
    import_program()
    os.environ.pop("DIRSUBDIFF_RESOLUTION", None)  # a user's shell must not resize the grid
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    probe = SpeedProbe()
    wl, setup_walls, setup_norms, corpus_times = setup_workload(
        WORKLOADS[workload], seed, setup_repeats, probe)
    loop = Loop(wl, probe, plant)
    warmup_s, _ = loop.one(wl.warmup)  # untimed: first-call costs

    extras = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "setup_s.all": setup_norms, "setup_wall_s.all": setup_walls,
              "warmup_wall_s": warmup_s}
    timed = loop.run(wl.items, seconds if not trace else seconds / 2.0)
    used = [wl.items[i % len(wl.items)] for i in range(len(timed))]
    walls = [w for w, _ in timed]
    norms = [n for _, n in timed]
    if not trace:
        ms = [n * 1000.0 for n in norms]
        metrics = {
            "setup_s": statistics.median(setup_norms),
            "ops_per_s": len(norms) / sum(norms),
            "op_ms.p50": statistics.median(ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        wall_ms = [w * 1000.0 for w in walls]
        extras.update({
            "op_ms.n": len(ms), "op_ms.p90": _p90(ms),
            "setup_wall_s": statistics.median(setup_walls),
            "ops_wall_per_s": len(walls) / sum(walls),
            "op_wall_ms.p50": statistics.median(wall_ms),
            "probe_ms": 1000.0 * statistics.median(probe.medians),
            "op_ms.all": ms, "op_wall_ms.all": wall_ms,
        })
    else:
        tracer = Tracer()
        traced = [loop.one(item, tracer) for item in used]
        overhead = sum(n for _, n in traced) / sum(norms) - 1.0
        metrics = per_layer_metrics(tracer, len(traced), statistics.median(corpus_times),
                                    overhead, wl)
        units = PER_LAYER
        extras["op_wall_ms.untraced"] = [w * 1000.0 for w in walls]
        extras["op_wall_ms.traced"] = [w * 1000.0 for w, _ in traced]
        spans = OUT / f"{workload}-seed{seed}-spans.tsv"
        tracer.write(spans)
        extras["spans"] = str(spans.relative_to(HERE.parent))

    extras["failed_ratio"] = loop.failed / loop.attempted
    extras["json_mb"] = loop.bytes / loop.attempted / 1e6
    extras["inputs"] = wl.properties(used)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, extras


PRINTED_UNITS = {
    "op_ms.p90": "ms", "op_ms.n": "count", "setup_wall_s": "s", "ops_wall_per_s": "1/s",
    "op_wall_ms.p50": "ms", "probe_ms": "ms", "failed_ratio": "ratio", "json_mb": "MB/op",
    "warmup_wall_s": "s",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("subdiff3d", "verify2d", "setalg3d"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, extras = run(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for name, unit in PRINTED_UNITS.items():
        if extras.get(name) is not None:
            print(f"{args.workload} {name} = {extras[name]!r} {unit}")
    print(f"{args.workload} inputs = {json.dumps(extras['inputs'], sort_keys=True)}")
    print(f"{args.workload} seed = {args.seed}, python {extras['python']}, nproc {extras['nproc']}")
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, **extras}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
