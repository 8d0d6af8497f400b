"""Span tracing for the benchmark: wrappers around torusdirac's public functions.

Nothing here changes library code.  `Tracer.install` rebinds every public
function of every torusdirac module in each module namespace that binds it
(so `from .numerics import find_root_bracketed` in `analytic` is caught as
well), and replaces `cli.ThreadPoolExecutor` with a subclass that times how
long the sweep's main thread blocks on the pool.  Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("geometry", "grids", "fields", "operators", "pseudoherm",
          "analytic", "numerics", "cli")
WAIT_SPAN = "cli.cmd_sweep.wait"


def _eig_kind(m, *args, **kwargs):
    """Split eigensolves by path: a nonzero periodic corner means the dense solver."""
    return ("periodic" if m.corner != 0.0 else "dirichlet"), m.n


# spans of these functions carry a (kind, rows) tag computed from the arguments
CLASSIFIERS = {"numerics.eig_sym_tridiag": _eig_kind}


class Tracer:
    """Records (id, parent, name, start, end, op, failed, thread, tag) spans."""

    def __init__(self):
        self.spans = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []  # (module, name, original) to restore on uninstall

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name, t0, t1, failed, tag):
        self.spans.append((sid, parent, name, t0, t1, self.op_id, failed,
                           threading.get_ident(), tag))

    def wrap(self, fn, name):
        classify = CLASSIFIERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            tag = classify(*args, **kwargs) if classify else None
            stack.append(sid)
            failed = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                self._record(sid, parent, name, t0, t1, failed, tag)

        return traced

    def timed_wait(self, iterator):
        """Yield from `iterator`, recording each blocking `next` as a wait span."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        done = object()
        while True:
            t0 = perf_counter()
            item = next(iterator, done)
            self._record(next(self._ids), parent, WAIT_SPAN, t0, perf_counter(), False, None)
            if item is done:
                return
            yield item

    def install(self):
        import torusdirac

        modules = [torusdirac] + [importlib.import_module(f"torusdirac.{layer}")
                                  for layer in LAYERS]
        wrapped = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("torusdirac.") or layer not in LAYERS:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrapped[obj])

        tracer = self

        class TimedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                return tracer.timed_wait(super().map(fn, *iterables, **kwargs))

        cli = importlib.import_module("torusdirac.cli")
        self._saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = TimedPool

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,op,failed,thread,kind,rows\n")
            for sid, parent, name, t0, t1, op, failed, thread, tag in self.spans:
                kind, rows = tag if tag else ("", "")
                fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f},{op},"
                         f"{int(failed)},{thread},{kind},{rows}\n")


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name == "trace.overhead":
        return "ratio"
    if name.startswith("import."):
        return "s"
    if name.endswith(".rows"):
        return "rows/op"
    return "s/op" if name.endswith("_s") else "count/op"


def self_times(spans):
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread and nest inside it, so the part
    they cover is the sum of their durations.
    """
    child = defaultdict(float)
    for sid, parent, name, t0, t1, *_ in spans:
        if parent:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _, _, t0, t1, *_ in spans}


def layer_metrics(spans, n_ops):
    """Per-operation layer metrics: calls, self time and failures per layer and function."""
    own = self_times(spans)
    calls = defaultdict(int)
    failed = defaultdict(int)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    for sid, _, name, t0, t1, _, fail, _, tag in spans:
        wall_s[name] += t1 - t0
        if name == WAIT_SPAN:
            self_s["cli.cmd_sweep.wait_s"] += own[sid]
            continue
        layer = name.partition(".")[0]
        keys = [layer, name] + ([f"{name}.{tag[0]}"] if tag else [])
        for key in keys:
            calls[key] += 1
            failed[key] += fail
            self_s[key] += own[sid]
        if tag:
            calls[f"{name}.{tag[0]}.rows"] += tag[1]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.failed"] = failed[layer]
    for name in ("numerics.shoot_bound_state", "numerics.find_root_bracketed",
                 "analytic.case2_quantize", "analytic.gauss_2f1"):
        out[f"{name}.calls"] = calls[name]
    out["numerics.find_root_bracketed.failed"] = failed["numerics.find_root_bracketed"]
    for kind in ("periodic", "dirichlet"):
        base = f"numerics.eig_sym_tridiag.{kind}"
        out[f"{base}.calls"] = calls[base]
        out[f"{base}.rows"] = calls[f"{base}.rows"]
        out[f"{base}.self_s"] = self_s[base]
    for name in ("numerics.shoot_bound_state", "analytic.case2_quantize",
                 "analytic.gauss_2f1", "analytic.case2_wavefunction",
                 "analytic.fit_energy_display", "geometry.christoffel_fd_oracle",
                 "cli.write_csv", "operators.squaring_discrepancy",
                 "operators.hermiticity_defect", "pseudoherm.veff_case2"):
        out[f"{name}.self_s"] = self_s[name]
    out["cli.cmd_sweep.wait_s"] = self_s["cli.cmd_sweep.wait_s"]
    # inclusive time of each subcommand, to split an operation that runs several
    for command in ("verify", "spectrum", "geometry", "analytic", "sweep"):
        out[f"cli.cmd_{command}.wall_s"] = wall_s[f"cli.cmd_{command}"]
    return {key: value / n_ops for key, value in out.items()}
