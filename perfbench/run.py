#!/usr/bin/env python3
"""End-to-end benchmark of madkit: one workload, one process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0

Workloads (why each exists: perfbench/README.md):

    calibrate    `madkit factors` at threads=nproc and threads=1, then
                 `madkit efficiency`, 1e6 repetitions per cell
    sensitivity  `madkit sensitivity` over the 20 default distributions
    mad          `madkit mad --csv` on generated files, n = 2 .. 1e5

Every operation is an in-process call of ``madkit.cli.main`` with stdout
captured; its output is checked after the clock stops.  The workload
repeats its cycle of operations until ``--seconds`` have passed and
reports medians over cycles.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs an untraced, a traced and another untraced
cycle, prints the per-layer metrics and writes the spans to
``.perfbench/``.  The last stdout line is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))

CAL_REPS = 1_000_000
FACTOR_SIZES = "2,3,5,10"
EFFICIENCY_SIZES = "2,3,4,10"
# Two chunks of the default chunk size per cell, so the study can use two
# worker threads; n spans the kernel's narrow/wide width boundary.
SENS_REPS = 32_768
SENS_SIZES = "5,30,100"
SENS_ROWS = 20 * 3 * 3 * 3  # distributions x sizes x estimators x aggregators
# 17 log-spaced sizes from 2 to 1e5; cycle c adds c to each, so every
# cycle's sizes are new to the process: the first call per (estimator, n)
# is cold, the second warm.
MAD_BASE_SIZES = tuple(round(2 * 5e4 ** (k / 16)) for k in range(17))
MAD_ESTIMATORS = ("sm", "hd", "thd-sqrt")
SWEEP_WIDTHS = (2, 3, 5, 10, 30, 100, 1000)
SETUP_RUNS = 5

# The shipped C_n table (src/madkit/data/factor_tables.csv) at the sizes the
# calibrate workload re-derives; n = 2 is exact and not checked here.
SHIPPED_FACTORS = {
    "sm": {3: 2.2049, 5: 1.8040, 10: 1.6245},
    "hd": {3: 1.5682, 5: 1.5661, 10: 1.5529},
    "thd-sqrt": {3: 1.6455, 5: 1.6774, 10: 1.6137},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "cycle_s": "s",
    "cycle_cpu_s": "s",
}
DETAIL_UNITS = {
    "factors_s": "s",
    "factors_1t_s": "s",
    "efficiency_s": "s",
    "sensitivity_s": "s",
    "mad_s": "s",
    "mad_call_p50_ms": "ms",
    "mad_call_p90_ms": "ms",
    "error_rate": "ratio",
    "cycles": "count",
    "calls": "count",
}
PER_LAYER_UNITS = {
    "distributions.draw_s": "s",
    "distributions.values_drawn": "count",
    "_kernel.mad0_batch_s": "s",
    "_kernel.rows": "count",
    "_kernel.narrow_rows_per_s": "1/s",
    "_kernel.wide_rows_per_s": "1/s",
    "simulate.self_s": "s",
    "simulate.cpu_s": "s",
    "simulate.parallel_efficiency": "ratio",
    "quantiles.median_weights_s": "s",
    "quantiles.weight_builds": "count",
    "specfun.reg_inc_beta_calls": "count",
    "specfun.reg_inc_beta_s": "s",
    "mad.mad_corrected_s": "s",
    "cli.self_s": "s",
    "cli.output_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    **{f"_kernel.sweep_n{n}_rows_per_s": "1/s" for n in SWEEP_WIDTHS},
}


class Op:
    """One timed call of ``madkit.cli.main``."""

    def __init__(self, name, threads, wall, cpu, code, out):
        self.name, self.threads = name, threads
        self.wall, self.cpu = wall, cpu
        self.code, self.out = code, out

    def as_dict(self):
        return {"name": self.name, "threads": self.threads, "wall_s": self.wall,
                "cpu_s": self.cpu, "exit": self.code}


class Harness:
    """Times operations and tallies their output checks."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.tracer = None
        self.ops = []
        self.attempted = 0
        self.failed = 0

    def call(self, name, argv, threads=1):
        import madkit.cli

        out = io.StringIO()
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
            out.write = self.tracer.wrap(spans.OUTPUT, out.write)
        with contextlib.redirect_stdout(out):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = madkit.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        op = Op(name, threads, wall, cpu, code, out.getvalue())
        self.ops.append(op)
        return op

    def check(self, op, problems):
        self.attempted += 1
        if op.code != 0:
            problems = [f"exit code {op.code}"] + problems
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {op.name}: {problem}", file=sys.stderr)


def _csv_rows(text, header):
    lines = text.splitlines()
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _body(text):
    return "".join(text.splitlines(keepends=True)[1:])


def _close(a, b, rel=1e-9):
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)


# -- calibrate ---------------------------------------------------------------

def check_factors(op):
    try:
        rows = _csv_rows(op.out, "n,estimator,m_n,c_n,std_error,repetitions")
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if len(rows) != 12:
        problems.append(f"{len(rows)} rows, expected 12")
    for n, est, _m, c_n, se, _reps in rows:
        n, c_n, se = int(n), float(c_n), float(se)
        if not (math.isfinite(c_n) and c_n > 0):
            problems.append(f"C_{n} {est} = {c_n}")
        shipped = SHIPPED_FACTORS.get(est, {}).get(n)
        if shipped is not None and abs(c_n - shipped) > max(0.006, 5 * se):
            problems.append(f"C_{n} {est} = {c_n:.5f}, shipped {shipped}")
    return problems


def check_efficiency(op):
    try:
        rows = _csv_rows(op.out, "n,var_sm,var_hd,var_thd,e_hd,e_thd")
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if [row[0] for row in rows] != EFFICIENCY_SIZES.split(","):
        problems.append(f"sizes {[row[0] for row in rows]}")
    for row in rows:
        values = [float(v) for v in row[1:]]
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"degenerate row {row}")
        # Every estimator's median of two points is their midpoint.
        if row[0] == "2" and not (_close(values[3], 1.0) and _close(values[4], 1.0)):
            problems.append(f"n=2 efficiencies {values[3:]} are not 1")
    return problems


def calibrate_cycle(h, seed, cycle):
    master = str(seed * 1000 + cycle)
    factors = ["factors", "--n", FACTOR_SIZES, "--reps", str(CAL_REPS), "--seed", master]
    many = h.call("factors", factors + ["--threads", str(NPROC)], NPROC)
    one = h.call("factors_1t", factors + ["--threads", "1"], 1)
    eff = h.call("efficiency", ["efficiency", "--n", EFFICIENCY_SIZES, "--reps", str(CAL_REPS),
                                "--seed", master, "--threads", str(NPROC)], NPROC)
    h.check(many, check_factors(many))
    same = _body(one.out) == _body(many.out)
    h.check(one, check_factors(one) + ([] if same else ["CSV body differs from threads=nproc"]))
    h.check(eff, check_efficiency(eff))
    return [many, one, eff]


def calibrate_warmup(h):
    h.call("warmup", ["factors", "--n", FACTOR_SIZES, "--reps", "20000", "--threads", str(NPROC)])
    h.call("warmup", ["efficiency", "--n", EFFICIENCY_SIZES, "--reps", "20000",
                      "--threads", str(NPROC)])


# -- sensitivity -------------------------------------------------------------

def sensitivity_argv(seed, cycle, threads):
    return ["sensitivity", "--n", SENS_SIZES, "--reps", str(SENS_REPS),
            "--seed", str(seed * 1000 + cycle), "--threads", str(threads)]


def check_sensitivity(op):
    try:
        rows = _csv_rows(op.out, "distribution,n,estimator,aggregator,dispersion")
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if len(rows) != SENS_ROWS:
        problems.append(f"{len(rows)} rows, expected {SENS_ROWS}")
    bad = [row for row in rows if not (math.isfinite(float(row[-1])) and float(row[-1]) >= 0)]
    if bad:
        problems.append(f"{len(bad)} non-finite or negative dispersions, first {bad[0]}")
    return problems


def sensitivity_cycle(h, seed, cycle):
    op = h.call("sensitivity", sensitivity_argv(seed, cycle, NPROC), NPROC)
    h.check(op, check_sensitivity(op))
    return [op]


def sensitivity_warmup(h):
    # Full-size chunks at the largest n, with the draws that allocate most,
    # so the first timed cycle does not pay for growing the heap.
    h.call("warmup", ["sensitivity", "--n", "100", "--reps", str(SENS_REPS),
                      "--dist", "student(df=3),lognormal(mlog=0,sdlog=3)",
                      "--threads", str(NPROC)])


# -- mad ---------------------------------------------------------------------

def _mad_reference(x, est):
    """Raw MAD by an implementation independent of madkit, or None."""
    if est == "sm":
        return float(np.median(np.abs(x - np.median(x))))
    if est == "hd":
        from scipy.stats.mstats import hdquantiles

        center = float(hdquantiles(x, prob=[0.5])[0])
        return float(hdquantiles(np.abs(x - center), prob=[0.5])[0])
    return None


def check_mad(op, est, x):
    from madkit import correction_factor
    from madkit.quantiles import parse_estimator

    try:
        rows = _csv_rows(op.out, "n,estimator,mad0,factor,mad")
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    n, label, mad0, factor, mad = rows[0]
    mad0, factor, mad = float(mad0), float(factor), float(mad)
    problems = []
    if int(n) != x.size or label != est:
        problems.append(f"echoed n={n} estimator={label}")
    want_factor = correction_factor(x.size, parse_estimator(est))
    if not _close(factor, want_factor):
        problems.append(f"factor {factor} != {want_factor}")
    want = _mad_reference(x, est)
    if want is None:
        if not (math.isfinite(mad0) and mad0 > 0 and _close(mad, factor * mad0)):
            problems.append(f"mad0={mad0} mad={mad}")
    elif not (_close(mad0, want) and _close(mad, want_factor * want)):
        problems.append(f"mad0={mad0!r} mad={mad!r}, reference mad0={want!r}")
    return problems


def _write_numbers(path, x):
    path.write_text("\n".join(map(repr, x.tolist())) + "\n", encoding="utf-8")


def mad_cycle(h, seed, cycle):
    ops = []
    path = h.workdir / "input.txt"
    for e, est in enumerate(MAD_ESTIMATORS):
        for base in MAD_BASE_SIZES:
            n = base + cycle
            for call in range(2):
                rng = np.random.default_rng([seed, cycle, e, n, call])
                x = rng.normal(10.0, 2.0, n)
                _write_numbers(path, x)
                op = h.call(f"mad_{est}", ["mad", str(path), "--estimator", est, "--csv"])
                h.check(op, check_mad(op, est, x))
                ops.append(op)
    return ops


def mad_warmup(h):
    # No cycle a run can make reaches n = 1000, so no timed call finds it warm.
    path = h.workdir / "warmup.txt"
    x = np.random.default_rng(0).normal(10.0, 2.0, 1000)
    _write_numbers(path, x)
    for est in MAD_ESTIMATORS:
        h.call("warmup", ["mad", str(path), "--estimator", est, "--csv"])
        _mad_reference(x, est)


WORKLOADS = {
    "calibrate": (calibrate_warmup, calibrate_cycle),
    "sensitivity": (sensitivity_warmup, sensitivity_cycle),
    "mad": (mad_warmup, mad_cycle),
}


# -- environment and set-up ---------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "madkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _proc_field(path, key):
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment():
    import madkit
    import madkit._kernel

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = None
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MADKIT_THREADS", "MADKIT_BACKEND")},
        "kernel_backend": getattr(madkit._kernel, "BACKEND", None),
        "madkit_version": getattr(madkit, "__version__", None),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "os_threads": _proc_field("/proc/self/status", "Threads"),
    }


_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import madkit.cli\n"
    "print(repr(time.monotonic()))\n"
)


def measure_setup():
    """Median seconds from starting a fresh interpreter until madkit's CLI can run."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.monotonic()
        child = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)], cwd=ROOT,
                               capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.strip()}")
        if i:  # the first start only fills the file cache
            times.append(float(child.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


# -- metrics -------------------------------------------------------------------

def _slot_medians(cycles, attr, name=None):
    """Sum over a cycle's operation slots of each slot's median over cycles.

    Every cycle runs the same operations in the same order, so slot i of
    one cycle is comparable with slot i of another; a burst of outside load
    that slows one call is voted down by the same call in other cycles.
    """
    return sum(statistics.median(getattr(ops[i], attr) for ops in cycles)
               for i, op in enumerate(cycles[0]) if name in (None, op.name))


def end_to_end(workload, h, cycles, setup_s):
    ok = (h.attempted - h.failed) / h.attempted
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": ok,
        "cycle_s": _slot_medians(cycles, "wall"),
        "cycle_cpu_s": _slot_medians(cycles, "cpu"),
    }
    detail = {"error_rate": 1.0 - ok, "cycles": len(cycles),
              "calls": sum(len(ops) for ops in cycles)}
    if workload == "calibrate":
        for name in ("factors", "factors_1t", "efficiency"):
            detail[name + "_s"] = _slot_medians(cycles, "wall", name)
    elif workload == "sensitivity":
        detail["sensitivity_s"] = e2e["cycle_s"]
    else:
        calls = [op.wall * 1e3 for ops in cycles for op in ops]
        detail["mad_s"] = e2e["cycle_s"]
        detail["mad_call_p50_ms"] = statistics.median(calls)
        detail["mad_call_p90_ms"] = statistics.quantiles(calls, n=10, method="inclusive")[8]
    return e2e, detail


def kernel_sweep(seed):
    """Rows per second of madkit._kernel.mad0_batch, as dispatched, by sample width."""
    from madkit import _kernel
    from madkit.quantiles import HD, median_weights

    rng = np.random.default_rng([seed, 0x5EED])
    out = {}
    for n in SWEEP_WIDTHS:
        rows = max(1000, 200_000 // max(1, n // 10))
        x = rng.standard_normal((rows, n))
        w = median_weights(n, HD)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel.mad0_batch(x, w)
            best = min(best, time.perf_counter() - t0)
        out[f"_kernel.sweep_n{n}_rows_per_s"] = rows / best
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, untraced, traced, first, one_thread_s):
    totals = spans.layer_summary(tracer)
    calls_s, calls = tracer.leaf_totals()
    untraced_wall = statistics.mean(sum(op.wall for op in ops) for ops in untraced)
    traced_wall = sum(op.wall for op in traced)
    roots = {s.op: s for s in tracer.spans if s.layer == spans.CLI and s.parent is None}
    coverage = min(_ratio(roots[first + i].t1 - roots[first + i].t0, op.wall)
                   if first + i in roots else 0.0 for i, op in enumerate(traced))
    nproc_wall = statistics.mean(sum(op.wall for op in ops if op.name in ("factors", "sensitivity"))
                                 for ops in untraced)
    k = spans.KERNEL
    metrics = {
        "distributions.draw_s": totals[spans.DRAW + "_s"],
        "distributions.values_drawn": int(totals[spans.DRAW + "_values"]),
        "_kernel.mad0_batch_s": totals[k + "_s"],
        "_kernel.rows": int(totals[k + "_rows"]),
        "_kernel.narrow_rows_per_s": _ratio(totals[k + "_narrow_rows"], totals[k + "_narrow_s"]),
        "_kernel.wide_rows_per_s": _ratio(totals[k + "_wide_rows"], totals[k + "_wide_s"]),
        "simulate.self_s": totals[spans.SIMULATE + "_s"],
        "simulate.cpu_s": totals[f"{spans.SIMULATE}_cpu_s_{NPROC}t"],
        "simulate.parallel_efficiency": _ratio(one_thread_s, NPROC * nproc_wall),
        "quantiles.median_weights_s": totals[spans.WEIGHTS + "_s"],
        "quantiles.weight_builds": int(totals[spans.WEIGHTS + "_builds"]),
        "specfun.reg_inc_beta_calls": calls,
        "specfun.reg_inc_beta_s": calls_s,
        "mad.mad_corrected_s": totals[spans.MAD + "_s"],
        "cli.self_s": totals[spans.CLI + "_s"],
        "cli.output_s": totals[spans.OUTPUT + "_s"],
        "trace.overhead": _ratio(traced_wall, untraced_wall),
        "trace.coverage": coverage,
    }
    return metrics, coverage


def op_breakdown(tracer, ops, first):
    """Per command of the traced cycle: calls, wall, CPU and self seconds by layer."""
    spans_of = {}
    for s in tracer.spans:
        spans_of.setdefault(s.op, []).append(s)
    rows = {}
    for i, op in enumerate(ops):
        row = rows.setdefault(op.name, {"op": op.name, "threads": op.threads, "calls": 0,
                                        "wall_s": 0.0, "cpu_s": 0.0, "layers": []})
        row["calls"] += 1
        row["wall_s"] += op.wall
        row["cpu_s"] += op.cpu
        row["layers"] += spans_of.get(first + i, [])
    for row in rows.values():
        layers = spans.layer_summary(tracer, row.pop("layers"))
        row.update((key, value) for key, value in sorted(layers.items()) if key.endswith("_s"))
    return list(rows.values())


# -- driver --------------------------------------------------------------------

def _emit(metrics, units):
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")


def run(args, workdir):
    warmup, cycle = WORKLOADS[args.workload]
    h = Harness(workdir)
    setup_s = measure_setup() if not args.trace else None
    warmup(h)
    h.ops.clear()

    if not args.trace:
        cycles = []
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < args.seconds:
            gc.collect()
            cycles.append(cycle(h, args.seed, len(cycles)))
        e2e, detail = end_to_end(args.workload, h, cycles, setup_s)
        _emit(detail, DETAIL_UNITS)
        print("cycle_walls_s " + json.dumps([sum(op.wall for op in ops) for ops in cycles]))
        print("env " + json.dumps(environment(), sort_keys=True))
        return h, e2e, END_TO_END_UNITS

    # Untraced, traced, untraced: the overhead ratio compares the traced
    # cycle with the mean of the cycles on either side of it.
    gc.collect()
    untraced = [cycle(h, args.seed, 0)]
    gc.collect()
    tracer = spans.Tracer()
    tracer.install()
    h.tracer = tracer
    try:
        first = len(h.ops)
        traced = cycle(h, args.seed, 1)
    finally:
        h.tracer = None
        tracer.uninstall()
    gc.collect()
    untraced.append(cycle(h, args.seed, 2))
    if args.workload == "calibrate":
        one_thread_s = statistics.mean(sum(op.wall for op in ops if op.name == "factors_1t")
                                       for ops in untraced)
    elif args.workload == "sensitivity":
        op = h.call("sensitivity_1t", sensitivity_argv(args.seed, 0, 1), 1)
        h.check(op, check_sensitivity(op))
        one_thread_s = op.wall
    else:
        one_thread_s = 0.0
    metrics, coverage = per_layer(tracer, untraced, traced, first, one_thread_s)
    h.attempted += 1
    if coverage < 0.9:
        h.failed += 1
        print(f"check failed: trace covers {coverage:.3f} of an operation's wall", file=sys.stderr)
    metrics.update(kernel_sweep(args.seed))
    breakdown = op_breakdown(tracer, traced, first)
    for row in breakdown:
        print("op " + json.dumps(row))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "untraced_ops": [op.as_dict() for ops in untraced for op in ops],
                   "traced_ops": breakdown, "metrics": metrics,
                   "span_fields": list(spans.Span.__slots__),
                   "spans": [s.as_list() for s in tracer.spans]}, fh)
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    return h, metrics, PER_LAYER_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "madkit" / "__init__.py").is_file():
        print(f"perfbench: no madkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import madkit

    if Path(madkit.__file__).resolve().parent != (SRC / "madkit").resolve():
        print(f"perfbench: imported madkit from {madkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        h, metrics, units = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _emit(metrics, units)
    print(json.dumps({
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
