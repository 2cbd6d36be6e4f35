"""Per-point cost split of a parameter scan: family build, pair, verdicts, result.

    PYTHONPATH=src python3 tools/scan_split.py [--repeats 200] > split.json

For each scan job of the benchmark's certify_scan workload (perfbench/
workloads.py, SCANS at SCAN_STEP, from the job's nominal lower bound) it
times the layers of one `scan_parameter` call: `tableau.family_batch` on the
grid, `_pair_stack` on the valid stack, `_psd_verdicts` on D_E and on D_EI
(each on its own; a target reads one or both), and the rest (the valid-row
copies and the result building), which is `scan_parameter` itself with those
three layers replaced by their cached outputs. `scan_us` is the whole call.
Each figure is the median over --repeats timings of a loop of --number
calls, in microseconds per grid point (skipped points included). Run it on
an otherwise idle machine.
"""

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from ierk import dissipation
from ierk.tableau import family_batch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import SCAN_STEP, SCANS  # noqa: E402


def per_call_us(fn, repeats, number):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples) * 1e6


def split(job, repeats, number):
    family, symbol, lo, hi, fixed, target, _ = job
    fixed = fixed or {}
    n = int(math.floor((hi - lo) / SCAN_STEP + 1.5))
    grid = lo + np.arange(n) * SCAN_STEP
    batch = family_batch(family, symbol, grid, fixed)
    valid = batch[2]
    A, A_hat = batch[0][valid], batch[1][valid]
    d_e, d_ei = pair = dissipation._pair_stack(A, A_hat)
    verdicts = {id(M): dissipation._psd_verdicts(M, dissipation.DEFAULT_TOL) for M in pair}
    timed = {
        "scan_us": lambda: dissipation.scan_parameter(family, symbol, lo, hi, SCAN_STEP,
                                                      fixed=fixed, target=target),
        "family_batch_us": lambda: family_batch(family, symbol, grid, fixed),
        "pair_stack_us": lambda: dissipation._pair_stack(A, A_hat),
        "verdict_d_e_us": lambda: dissipation._psd_verdicts(d_e, dissipation.DEFAULT_TOL),
        "verdict_d_ei_us": lambda: dissipation._psd_verdicts(d_ei, dissipation.DEFAULT_TOL),
    }
    row = {"family": family, "symbol": symbol, "target": target, "points": n,
           "valid": int(valid.sum()), "k": d_e.shape[-1]}
    row.update({key: round(per_call_us(fn, repeats, number) / n, 4) for key, fn in timed.items()})
    cached = {"family_batch": lambda *a: batch,
              "_pair_stack": lambda *a: pair,
              "_psd_verdicts": lambda M, tol: verdicts[id(M)]}
    saved = {name: getattr(dissipation, name) for name in cached}
    try:
        for name, fn in cached.items():
            setattr(dissipation, name, fn)
        row["result_us"] = round(per_call_us(timed["scan_us"], repeats, number) / n, 4)
    finally:
        for name, fn in saved.items():
            setattr(dissipation, name, fn)
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=200)
    ap.add_argument("--number", type=int, default=5)
    args = ap.parse_args()
    rows = [split(job, args.repeats, args.number) for job in SCANS]
    print(json.dumps({"numpy": np.__version__, "python": platform.python_version(),
                      "machine": platform.processor() or platform.machine(),
                      "step": SCAN_STEP, "unit": "us per grid point",
                      "repeats": args.repeats, "number": args.number, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
