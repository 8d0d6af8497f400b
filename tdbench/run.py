#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the torusdirac certification CLI.

    python3 tdbench/run.py --workload {certify,spectra_tables} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`./src`.  A single closed-loop client runs one operation at a time through
`torusdirac.cli.main` in this process, checks every operation's outputs,
and prints the metrics by name and unit.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of the
measuring time untraced and half with span wrappers around every public
torusdirac function, and reports the per-layer metrics.  See README.md.
"""

import os
import sys

# BLAS threads are fixed before numpy is first imported, here and in the
# set-up subprocesses, which inherit this environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(".bench_out")
SETUP_RUNS = 5
IMPORTS = ("numpy", "scipy.linalg", "scipy.optimize", "yaml", "torusdirac")
UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s",
         "peak_rss_mb": "MB"}
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

# time from a fresh interpreter until `import torusdirac` and `cli.load_config`
# finish; argv[1] is the parent's perf_counter (CLOCK_MONOTONIC, shared by all
# processes) taken just before the interpreter was started
SETUP_CODE = """\
import sys, time
import torusdirac
from torusdirac import cli
cli.load_config(sys.argv[2])
print(time.perf_counter() - float(sys.argv[1]))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GATES))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def import_program():
    """Import torusdirac from ./src, refusing any other copy."""
    if not (SRC / "torusdirac" / "__init__.py").is_file():
        sys.exit(f"tdbench: no torusdirac sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import torusdirac
    from torusdirac import cli

    if Path(torusdirac.__file__).resolve().parent != (SRC / "torusdirac").resolve():
        sys.exit(f"tdbench: imported torusdirac from {torusdirac.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of the IMPORTS modules from `-X importtime`."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        name = parts[-1].strip()
        if name in IMPORTS:
            found[name] = int(parts[1]) / 1e6
    return {name: found.get(name, 0.0) for name in IMPORTS}


def measure_setup(config: str, importtime: bool):
    """Median set-up seconds and import times over SETUP_RUNS fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    flags = ["-X", "importtime"] if importtime else []
    times, imports = [], []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE, repr(t0), config],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            sys.exit(f"tdbench: set-up subprocess failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        imports.append(parse_importtime(proc.stderr))
    import_medians = {name: statistics.median(d[name] for d in imports) for name in IMPORTS}
    return statistics.median(times), import_medians


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _blas_runtime():
    """Version string and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for affix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_config = getattr(lib, "openblas_get_config".join(affix), None)
            get_threads = getattr(lib, "openblas_get_num_threads".join(affix), None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info.update(config=get_config().decode(), threads=get_threads())
                break
        out.append(info)
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved ({ref})"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_runtime(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
        "machine": "CPU frequency and affinity are not pinned; no machine setting "
                   "was changed for the run",
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """One client running operations back to back and gating each one."""

    def __init__(self, cli, workload, inputs, opdir: Path):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.opdir = opdir
        self.gate = workloads.GATES[workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.drift = {}

    def once(self) -> float:
        if self.opdir.exists():
            shutil.rmtree(self.opdir)
        self.opdir.mkdir(parents=True)
        argvs = workloads.invocations(self.workload, self.inputs, self.opdir)
        t0 = perf_counter()
        problems = workloads.run_operation(self.cli.main, argvs)
        elapsed = perf_counter() - t0
        if not problems:
            try:
                problems = self.gate(self.opdir, self.inputs, self.drift)
            except Exception as exc:  # an unreadable output fails the operation
                problems = [f"gate: {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return elapsed

    def timed(self, seconds: float, on_op=None) -> list[float]:
        times = []
        deadline = perf_counter() + seconds
        while True:
            if on_op is not None:
                on_op(len(times) + 1)
            times.append(self.once())
            if perf_counter() >= deadline:
                return times


def tail(times):
    """(seconds, percentile) of the highest sample with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND samples that rank falls under the median, and the
    median is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    rank = n - TAIL_BEYOND  # 1-based
    return max(ordered[rank - 1], statistics.median(ordered)), 100.0 * rank / n


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    work = OUT / args.workload
    if work.exists():
        shutil.rmtree(work)
    inputs = workloads.make_inputs(args.workload, args.seed, work / "inputs")
    loop = Loop(cli, args.workload, inputs, work / "op")

    setup_s, imports = measure_setup(inputs["configs"]["scenario"], importtime=bool(args.trace))
    loop.once()  # warm-up: caches filled and lazy set-up done before timing

    if args.trace:
        plain = loop.timed(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = loop.timed(args.seconds / 2,
                                on_op=lambda i: setattr(tracer, "op_id", i))
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.csv")
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        for name in IMPORTS:
            metrics[f"import.{name}_s"] = imports[name]
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
        summary = {"op_count.untraced": len(plain), "op_count.traced": len(traced)}
        op_times = {"untraced": plain, "traced": traced}
    else:
        times = loop.timed(args.seconds)
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_s,
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary = {"op_count": len(times), "op_s.tail_percentile": tail_pct}
        op_times = {"untraced": times}
    summary["fail_frac"] = loop.failed / loop.attempted

    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": UNITS.get(k) or spans.unit(k)}
                          for k, v in metrics.items()}}
    prov = provenance(args.seed)
    (work / "result.json").write_text(json.dumps(
        {**result, "summary": summary, "drift": loop.drift, "inputs": inputs,
         "problems": loop.problems, "op_times_s": op_times,
         "provenance": prov}, indent=2, sort_keys=True) + "\n")

    for problem in loop.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"why: {workloads.WHY[args.workload]}")
    print(f"inputs {json.dumps(inputs, sort_keys=True)}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    for key, value in sorted(loop.drift.items()):
        print(f"info drift {key}: {value:.3e}")
    print(f"fail_frac {summary['fail_frac']:.6g} 1  ({loop.failed} of {loop.attempted} operations)")
    for key, value in summary.items():
        if key != "fail_frac":
            print(f"{key} {value:.6g}")
    for key in sorted(metrics):
        print(f"{key} {metrics[key]:.6g} {result['metrics'][key]['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
