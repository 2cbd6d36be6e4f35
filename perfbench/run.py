"""ierk benchmark: one workload per run, closed loop, one process, one thread.

    python3 perfbench/run.py --workload decay_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. A run
sets up the workload several times (import plus system, tableau and
initial-field builds), makes one untimed warm-up pass, then repeats passes
of the workload for --seconds. Each pass runs the workload's operations back
to back; their checks run after the pass. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates plain and traced passes and
reports the per-layer metrics. The last line of stdout is the result as one
JSON object; the lines before it give every metric with its unit, the
per-pass work counts and the provenance of the run. See NOTES.md.
"""

import os

# Fix BLAS and OpenMP pools to one thread before numpy can be imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("tableau", "dissipation", "spectral", "integrator", "harness", "cli")
SETUP_REPEATS = 7
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "work_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "tableau.registry_us": "us", "tableau.registry_calls": "count",
    "tableau.order_check_ms": "ms",
    "dissipation.pair_us": "us", "dissipation.pair_calls": "count",
    "dissipation.certify_ms": "ms", "dissipation.scan_points": "count",
    "dissipation.scan_point_us": "us", "dissipation.scan_verdict_us": "us",
    "dissipation.scan_skipped_frac": "ratio",
    "integrator.step_us": "us", "integrator.stage_us": "us",
    "integrator.step_self_us": "us", "integrator.loop_self_ms": "ms",
    "integrator.step_calls": "count", "integrator.stage_solves": "count",
    "spectral.nonlinear_us": "us", "spectral.energy_us": "us", "spectral.source_us": "us",
    "spectral.fft_calls": "count", "spectral.state_bytes": "B",
    "harness.exact_us": "us", "harness.run_self_ms": "ms", "harness.write_ms": "ms",
    "cli.main_self_ms": "ms", "trace.overhead_s": "s",
}
WORK_KEYS = ("ops", "steps", "stage_solves", "fft_calls", "state_bytes",
             "scan_points", "scan_skipped")


def import_ierk():
    """Import the package afresh, so every set-up pays the full import."""
    for name in [n for n in sys.modules if n == "ierk" or n.startswith("ierk.")]:
        del sys.modules[name]
    importlib.import_module("ierk")
    return SimpleNamespace(**{m: importlib.import_module(f"ierk.{m}") for m in MODULES})


def execute(ops):
    """Run one pass back to back: (pass seconds, op seconds, results)."""
    times, results = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out = op.call()
        except Exception:  # a failing op is counted, the run goes on
            traceback.print_exc()
            out = None
        times.append(clock() - t0)
        results.append(out)
    return clock() - start, times, results


def verify(ops, times, results):
    """Check every result; return (failed ops, work counts, seconds of the
    ops that did the counted work)."""
    failed = 0
    counts = dict.fromkeys(WORK_KEYS, 0)
    counts["ops"] = len(ops)
    work_s = 0.0
    for op, dt, out in zip(ops, times, results):
        try:
            ok = out is not None and bool(op.check(out))
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            continue
        work = op.counts(out)
        for key, val in work.items():
            counts[key] = max(counts[key], val) if key == "state_bytes" else counts[key] + val
        if work:
            work_s += dt
    return failed, counts, work_s


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tot, counts):
    def calls(name):
        return tot.get(name, (0, 0.0, 0.0, 0.0))[0]

    def total(name):
        return tot.get(name, (0, 0.0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0, 0.0))[2]

    def per(x, n, scale):
        return x / n * scale if n else 0.0

    def mean(name, scale):
        return per(total(name), calls(name), scale)

    points = counts["scan_points"]
    scan = "dissipation.scan_parameter"
    step = "integrator.step"
    return {
        "tableau.registry_us": mean("tableau.registry", 1e6),
        "tableau.registry_calls": calls("tableau.registry"),
        "tableau.order_check_ms": mean("tableau.check_order_conditions", 1e3),
        "dissipation.pair_us": mean("dissipation.differentiation_pair", 1e6),
        "dissipation.pair_calls": calls("dissipation.differentiation_pair"),
        "dissipation.certify_ms": mean("dissipation.certify", 1e3),
        "dissipation.scan_points": points,
        "dissipation.scan_point_us": per(total(scan), points, 1e6),
        "dissipation.scan_verdict_us": per(self_s(scan), points, 1e6),
        "dissipation.scan_skipped_frac": per(counts["scan_skipped"], points, 1.0),
        "integrator.step_us": mean(step, 1e6),
        "integrator.stage_us": per(total(step), counts["stage_solves"], 1e6),
        "integrator.step_self_us": per(self_s(step), calls(step), 1e6),
        "integrator.loop_self_ms": self_s("integrator.evolve") * 1e3,
        "integrator.step_calls": calls(step),
        "integrator.stage_solves": counts["stage_solves"],
        "spectral.nonlinear_us": mean("spectral.nonlinearity", 1e6),
        "spectral.energy_us": mean("spectral.energy", 1e6),
        "spectral.source_us": mean("spectral.source_values", 1e6),
        "spectral.fft_calls": counts["fft_calls"],
        "spectral.state_bytes": counts["state_bytes"],
        "harness.exact_us": mean("spectral.decaying_sine", 1e6),
        "harness.run_self_ms": self_s("harness.run") * 1e3,
        "harness.write_ms": tot.get("harness.write", (0, 0.0, 0.0, 0.0))[3] * 1e3,
        "cli.main_self_ms": self_s("cli.main") * 1e3,
    }


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def provenance(args):
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    head = _read(ROOT / ".git" / "HEAD")
    commit = head
    if head and head.startswith("ref: "):
        commit = _read(ROOT / ".git" / head[5:])
    digest = hashlib.sha256()
    for path in sorted((SRC / "ierk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ierk" / "__init__.py").is_file():
        print(f"error: no ierk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (a dependency: imported before set-up is timed)

    workdir = Path(__file__).resolve().parent / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    build = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ierk = import_ierk()
        ops = build(ierk, random.Random(args.seed), workdir)
        setup_times.append(time.perf_counter() - t0)

    attempted = failed = 0
    work_ref = None
    work_stable = True

    def one_pass(tracer=None):
        nonlocal attempted, failed, work_ref, work_stable
        if tracer is not None:
            tracer.install()
        try:
            run_s, times, results = execute(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        bad, counts, work_s = verify(ops, times, results)
        attempted += len(ops)
        failed += bad
        if work_ref is None:
            work_ref = counts
        work_stable &= counts == work_ref
        return run_s, times, counts, work_s

    one_pass()  # warm-up: lets caches fill and lazy set-up finish
    deadline = time.perf_counter() + args.seconds
    passes, op_times, layers, traced_runs = [], [[] for _ in ops], [], []
    tracer = Tracer() if args.trace else None
    # start a pass only while it is expected to end before the deadline
    expected = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() + expected < deadline:
        started = time.perf_counter()
        run_s, times, counts, work_s = one_pass()
        passes.append((run_s, counts, work_s))
        for samples, t in zip(op_times, times):
            samples.append(t * 1e3)
        if tracer is not None:
            traced_s, _, counts, _ = one_pass(tracer)
            traced_runs.append(traced_s)
            layers.append(layer_metrics(tracer.totals(), counts))
            tracer.clear()
        expected = time.perf_counter() - started

    run_s = statistics.median(p[0] for p in passes)
    ops_ms = [t for samples in op_times for t in samples]
    tail_ms, tail_pct = tail(ops_ms)
    work_unit = "scan_points" if work_ref["scan_points"] else "stage_solves"
    # a pass whose counted ops all failed did no measurable work
    work_per_s = statistics.median([p[1][work_unit] / p[2] for p in passes if p[2] > 0] or [0.0])
    if args.trace:
        metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_runs) - run_s
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "op_p50_ms": statistics.median(ops_ms),
            "op_tail_ms": tail_ms,
            "work_per_s": work_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    report = {
        "provenance": provenance(args),
        "passes": len(passes),
        "pass_run_s": [p[0] for p in passes],
        "work_per_pass": work_ref,
        "work_repeats": work_stable,
        "ops": len(ops_ms),
        "op_tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        f"{work_unit}_per_s": work_per_s,
        "setup_s_samples": setup_times,
        "op_median_ms": [[op.label, statistics.median(samples)]
                         for op, samples in zip(ops, op_times)],
    }
    print(f"# ierk benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} passes of {len(ops)} ops, trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':32s} {failed / attempted:14.6g} ratio")
    print(f"{work_unit + '_per_s':32s} {work_per_s:14.6g} 1/s")
    print(f"{'op_tail_percentile':32s} {tail_pct:14.6g} % of {len(ops_ms)} ops")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and work_stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
