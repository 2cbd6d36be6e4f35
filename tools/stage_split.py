"""Per-stage cost split of the stage kernel: FFTs, weighted sum and energy.

    PYTHONPATH=src python3 tools/stage_split.py [--repeats 200] > split.json

Builds one `_StageKernel` (batch of one) on the benchmark scene of
criterion 8 (tanh-bumps on [-pi, pi), epsilon 0.1, kappa 2, tau 0.05) for
m in {64, 256, 1024, 4096} and s in {3, 5, 7}, and times, on the kernel's own
buffers, one stage's cube, its rfft and irfft (through np.fft and through the
pocketfft gufuncs that np.fft ends in), its einsum, and the energies of all
stages (allocating, and into the kernel's scratch buffers when the kernel has
them), plus one whole `step` with energies. Each figure is the median over
--repeats timings of a loop of --number calls, in microseconds per call.
Run it on an otherwise idle machine.
"""

import argparse
import json
import math
import platform
import statistics
import time

import numpy as np
from numpy.fft import _pocketfft_umath

from ierk.integrator import _StageKernel
from ierk.spectral import SpectralGrid, SpectralSystem, energy_from_spectrum, initial_field
from ierk.tableau import registry

#: one certified method per stage count
METHODS = {3: ("IERK2-1", {"c2": 1, "a33": 1}), 5: ("IERK3-1", {"a55": 0.8}), 7: ("IERK4-A2", {})}


def per_call_us(fn, repeats, number):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples) * 1e6


def split(m, s, repeats, number):
    sys = SpectralSystem(SpectralGrid(-math.pi, math.pi, m), epsilon=0.1, kappa=2.0)
    name, params = METHODS[s]
    tab = registry(name, params)
    kernel = _StageKernel(sys, tab, 0.05)
    u0 = initial_field(sys.grid, "tanh-bumps")
    u_hat, vals = u0.spectrum[None, : kernel.half].copy(), u0.values[None].copy()
    energies = np.empty((tab.s, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        kernel.step(u_hat, vals, 0.0, energies)  # fills every buffer once
        coef, x_row, rows, out, u_row, u_nodal = kernel.stages[-1]
        cube, inv_m = kernel.cube, 1.0 / m
        stage_values, nodal = kernel.z[2::2], kernel.nodal
        scratch = getattr(kernel, "energy_scratch", None)
        timed = {
            "step_us": lambda: kernel.step(u_hat, vals, 0.0, energies),
            "cube_us": lambda: sys.force_cubic(u_nodal, out=cube),
            "rfft_np_fft_us": lambda: np.fft.rfft(cube, out=x_row),
            "rfft_gufunc_us": lambda: _pocketfft_umath.rfft_n_even(cube, 1.0, out=x_row),
            "irfft_np_fft_us": lambda: np.fft.irfft(u_row, m, out=u_nodal),
            "irfft_gufunc_us": lambda: _pocketfft_umath.irfft(u_row, inv_m, out=u_nodal),
            "einsum_us": lambda: np.einsum("jk,jk->k", coef, rows, out=out),
            "energy_alloc_us": lambda: energy_from_spectrum(sys, stage_values, nodal),
        }
        if scratch is not None:
            timed["energy_scratch_us"] = lambda: energy_from_spectrum(sys, stage_values, nodal,
                                                                      *scratch)
        row = {"m": m, "s": s, "method": name}
        row.update({key: round(per_call_us(fn, repeats, number), 3) for key, fn in timed.items()})
    row["ffts_per_stage_np_fft_us"] = round(row["rfft_np_fft_us"] + row["irfft_np_fft_us"], 3)
    row["ffts_per_stage_gufunc_us"] = round(row["rfft_gufunc_us"] + row["irfft_gufunc_us"], 3)
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=200)
    ap.add_argument("--number", type=int, default=20)
    args = ap.parse_args()
    rows = [split(m, s, args.repeats, args.number) for m in (64, 256, 1024, 4096) for s in (3, 5, 7)]
    print(json.dumps({"numpy": np.__version__, "python": platform.python_version(),
                      "machine": platform.processor() or platform.machine(),
                      "repeats": args.repeats, "number": args.number, "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
