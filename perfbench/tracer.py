"""Per-layer spans recorded from outside the hdts package.

`install` replaces the public functions of each hdts module with timing
wrappers in every hdts namespace that holds them (modules import these
functions by name, and the CLI keeps its subcommands in a dispatch dict),
plus the class attributes `InnovationLaw.sample`, `RngContract.derive` and
the two `RunManifest` methods.  Nothing under `src/` is edited; `uninstall`
puts the original objects back.

Each span records name, start, end, thread, parent id and op id.  Spans are
held in memory, written as JSON lines once at the end of a run, and self
time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# (span name, module, attribute).  A dotted attribute is a class attribute.
TARGETS = [
    ("model.simulate", "hdts.model", "simulate"),
    ("model.sample", "hdts.model", "InnovationLaw.sample"),
    ("rng.derive", "hdts.rng", "RngContract.derive"),
    ("longrun.sigma_tilde", "hdts.longrun", "sigma_tilde"),
    ("gboot.psd_sqrt", "hdts.gboot", "psd_sqrt"),
    ("gboot.bootstrap_quantile", "hdts.gboot", "bootstrap_quantile"),
    ("gboot.simultaneous_ci", "hdts.gboot", "simultaneous_ci"),
    ("covinf.build_cov_panel", "hdts.covinf", "build_cov_panel"),
    ("covinf.cov_simultaneous_test", "hdts.covinf", "cov_simultaneous_test"),
    ("experiments.ga_distance", "hdts.experiments", "ga_distance"),
    ("experiments.coverage_experiment", "hdts.experiments", "coverage_experiment"),
    ("experiments.two_sample_ks", "hdts.experiments", "two_sample_ks"),
    ("util.run_indexed", "hdts.util", "run_indexed"),
    ("io.read_panel_any", "hdts.io", "read_panel_any"),
    ("io.write_rows_csv", "hdts.io", "write_rows_csv"),
    ("io.write_json", "hdts.io", "write_json"),
    ("io.manifest", "hdts.io", "RunManifest.add_output"),
    ("io.manifest", "hdts.io", "RunManifest.write"),
    ("cli.cmd_covtest", "hdts.cli", "cmd_covtest"),
]
TASK = "util.run_indexed.task"


class Tracer:
    """In-memory span store with one span stack per thread."""

    def __init__(self):
        self.spans = []      # (id, name, start, end, thread, parent, op)
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.op = None       # op id of spans opened on the harness thread

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self) -> tuple[int, object]:
        """(id of the innermost open span on this thread, its op id)."""
        st = self._stack()
        return st[-1] if st else (0, self.op)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def call(self, name: str, fn, args, kwargs, parent=None):
        """Run fn(*args, **kwargs) inside a span; parent=(id, op) overrides the stack."""
        st = self._stack()
        pid, op = parent if parent is not None else self.current()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        st.append((sid, op))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            st.pop()
            self.spans.append((sid, name, start, end, threading.get_ident(), pid, op))

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "thread", "parent", "op")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# Installing wrappers
# ---------------------------------------------------------------------------

def _after_hooks(tracer: Tracer) -> dict:
    """Counters measured at the layer boundary, from arguments and results."""

    def simulate(args, kwargs, panel):
        tracer.add("model.rows_kept", panel.n)
        tracer.add("model.rows_drawn", panel.innovations.values.shape[0])

    def sigma_tilde(args, kwargs, est):
        tracer.add("longrun.obs_used", est.plan.used)
        tracer.add("longrun.obs_total", est.plan.n)

    def build_cov_panel(args, kwargs, cov):
        tracer.add("covinf.product_bytes", cov.data.nbytes)

    def written(args, kwargs, _):
        tracer.add("io.bytes_written", os.path.getsize(args[0]))

    return {"model.simulate": simulate, "longrun.sigma_tilde": sigma_tilde,
            "covinf.build_cov_panel": build_cov_panel,
            "io.write_rows_csv": written, "io.write_json": written}


def _make_wrapper(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, kwargs, out)
        return out
    return traced


def _make_run_indexed(tracer: Tracer, fn):
    """run_indexed wrapper: worker tasks take the run_indexed span as parent.

    Worker busy time is the tasks' thread CPU time, so time a worker spends
    waiting for the GIL does not count as busy.
    """

    @functools.wraps(fn)
    def traced(task_fn, count, threads=1):
        def body():
            parent = tracer.current()

            def task(i):
                c0 = time.thread_time()
                try:
                    return tracer.call(TASK, task_fn, (i,), {}, parent)
                finally:
                    tracer.add("util.run_indexed.worker_cpu_s", time.thread_time() - c0)

            t0 = time.perf_counter()
            try:
                return fn(task, count, threads)
            finally:
                tracer.add("util.run_indexed.thread_s",
                           max(1, min(threads, count)) * (time.perf_counter() - t0))
        return tracer.call("util.run_indexed", body, (), {})
    return traced


def install(tracer: Tracer):
    """Wrap every target in every hdts namespace; returns an undo callable."""
    hooks = _after_hooks(tracer)
    undo = []
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "hdts" or k.startswith("hdts."))]
    for name, modname, attr in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _make_wrapper(tracer, name, orig, hooks.get(name)))
            undo.append(functools.partial(setattr, cls, meth, orig))
            continue
        orig = getattr(owner, attr)
        if name == "util.run_indexed":
            wrapped = _make_run_indexed(tracer, orig)
        else:
            wrapped = _make_wrapper(tracer, name, orig, hooks.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append(functools.partial(setattr, mod, key, orig))
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is orig:
                            value[dkey] = wrapped
                            undo.append(functools.partial(value.__setitem__, dkey, orig))

    def uninstall():
        for fn in reversed(undo):
            fn()
    return uninstall


# ---------------------------------------------------------------------------
# Deriving per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_stats(spans) -> dict:
    """name -> {calls, busy_s, self_s}; self time excludes time covered by children."""
    children = defaultdict(list)
    for sid, _, start, end, _, parent, _ in spans:
        children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _, _, _ in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["busy_s"] += end - start
        rec["self_s"] += max(0.0, (end - start) - _covered(children[sid], start, end))
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metric values, keyed as listed in BENCHMARK.json.

    Counts, seconds and bytes are per op (ops = traced replications on the
    Monte Carlo workloads, traced CLI calls on covtest-cli), so that a faster
    layer reads lower however many ops fit in the run.  Layers a workload
    does not reach read 0.
    """
    stats = layer_stats(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for name in sorted({t[0] for t in TARGETS} - {"util.run_indexed"}):
        rec = stats.get(name, empty)
        values[f"{name}.calls"] = rec["calls"] / ops
        values[f"{name}.busy_s"] = rec["busy_s"] / ops
        values[f"{name}.self_s"] = rec["self_s"] / ops
    c = tracer.counters
    run = stats.get("util.run_indexed", empty)
    values["util.run_indexed.calls"] = run["calls"] / ops
    values["util.run_indexed.wall_s"] = run["busy_s"] / ops
    values["util.run_indexed.worker_busy_s"] = c["util.run_indexed.worker_cpu_s"] / ops
    values["util.run_indexed.parallel_eff"] = _ratio(c["util.run_indexed.worker_cpu_s"],
                                                     c["util.run_indexed.thread_s"])
    values["model.rows_kept_frac"] = _ratio(c["model.rows_kept"], c["model.rows_drawn"])
    values["longrun.obs_used_frac"] = _ratio(c["longrun.obs_used"], c["longrun.obs_total"])
    values["covinf.product_mb"] = c["covinf.product_bytes"] / 1e6 / ops
    values["io.bytes_written"] = c["io.bytes_written"] / ops
    return values


def unit_of(name: str) -> str:
    """Unit of a per-layer metric; all but the ratios are per op."""
    if name.endswith("_frac") or name.endswith("_eff"):
        return "ratio"
    if name.endswith(".calls"):
        return "count/op"
    if name.endswith("_mb"):
        return "MB/op"
    if name.endswith("bytes_written"):
        return "bytes/op"
    return "s/op"


def top_self(tracer: Tracer) -> tuple[str, str]:
    """(span name, module) with the largest self time."""
    stats = layer_stats(tracer.spans)
    if not stats:
        return "", ""
    by_span = max(stats, key=lambda k: stats[k]["self_s"])
    by_mod = defaultdict(float)
    for name, rec in stats.items():
        by_mod[name.split(".")[0]] += rec["self_s"]
    return by_span, max(by_mod, key=by_mod.get)
