"""The four benchmark workloads: seeded inputs, operations and their checks.

Every parameter point a seed can pick comes from the known-good lists of
the acceptance suite (criteria 4, 5, 7 and 8), so every operation has a
checkable expected outcome. A workload function runs during set-up: it builds
the systems, tableaux and initial fields through the public API and returns
the list of operations that make up one pass. An operation is one call into
a public entry point; its check runs after the pass, outside the timing.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

SQRT2 = math.sqrt(2.0)
A33_BEST = (1 + SQRT2) / 4

# Known-good points of criteria 7 and 8, grouped by stage count s = 3, 5, 7.
ORDER2 = (
    [("IERK2-1", {"c2": 1, "a33": a33}) for a33 in (0.5, 1.0, 2.0)]
    + [("IERK2-2", {"a33": a33}) for a33 in (A33_BEST, 1.0, 2.0)]
    + [("IERK2-Radau", {"c2": c2}) for c2 in (1.5, 2.0)]
)
ORDER3 = (
    [("IERK3-1", {"a55": a55}) for a55 in (0.8, 1.7)]
    + [("IERK3-2", {"a43": a43}) for a43 in (-0.6, -0.5, -0.4)]
    + [("IERK3-Radau", {"ahat43": ah}) for ah in (0.6, 0.8, 1.0)]
)
ORDER4 = [("IERK4-A1", {}), ("IERK4-A2", {})]

#: The energy-decay scene of criteria 8 and 10 (tau = 0.05, kappa = 2).
SCENE = {"domain": (-math.pi, math.pi), "epsilon": 0.1, "kappa": 2.0, "tau": 0.05,
         "initial": "tanh-bumps"}

# decay_sweep: runs per stage count and the horizon of each run. The horizon
# is a slice of the T = 150 runs of criterion 8; every run of a group shares
# (s, tau, grid).
DECAY_RUNS_PER_S = 3
DECAY_T_FINAL = 10.0

# converge: one study per stage count. Each tau grid is the shortest window
# of the criterion-7 grids on which the observed order of every listed point
# of that order is within the criterion's tolerance.
GRID_10 = [0.1 * 2.0**-k for k in range(10)]
GRID_4TH = [0.05 * 2.0**-k for k in range(6)] + [1e-3]
STUDIES = (  # (points, kappa, tau grid, formal order, tolerance)
    (ORDER2, 0.0, GRID_10[3:6], 2.0, 0.1),
    (ORDER3, 0.0, GRID_10[5:8], 3.0, 0.15),
    (ORDER4, 1.0, GRID_4TH[3:6], 4.0, 0.2),
)

# certify_scan: the criterion-4 scan jobs, on a coarser grid whose origin the
# seed shifts by a fraction of a step.
SCAN_STEP = 2e-3
SCANS = (  # (family, symbol, lo, hi, fixed, target, published interval)
    ("IERK2-1", "c2", 0.2, 2.25, {"a33": 1.0}, "d_e", (0.228788, 2.18543)),
    ("IERK3-1", "a55", 0.5, 2.0, None, "certified", (0.717374, 1.74727)),
    ("IERK3-2", "a43", -1.0, 0.0, None, "certified", (-0.633312, -0.371114)),
    ("IERK3-Radau", "ahat43", 0.4, 1.2, None, "certified", (0.598442, 1.05134)),
)
# One point per registry family; the four-stage method's a22 comes from the
# criterion-5 list, every other point is certified.
REGISTRY_CASES = (
    ("IERK1", {"theta": F(1, 2)}),
    ("IERK2-1", {"c2": 1, "a33": 1}),
    ("IERK2-2", {"a33": F(3, 4)}),
    ("IERK2-Radau", {"c2": F(3, 2)}),
    ("IERK3-4stage", None),
    ("IERK3-1", {"a55": F(4, 5)}),
    ("IERK3-2", {"a43": F(-3, 5)}),
    ("IERK3-Radau", {"ahat43": 1}),
    ("IERK4-A1", {}),
    ("IERK4-A2", {}),
)
NPD_A22 = (1, 2, 3)
PUBLISHED_RATES = {  # criterion 6
    "IERK2-2": (SQRT2, SQRT2 / 4),
    "IERK3-2": (1.25, 0.4),
    "IERK2-Radau": (2.0, 3 + 2 * SQRT2),
    "IERK3-Radau": (3.74891, 2.49913),
    "IERK4-A1": (3.65382, 5.01594),
    "IERK4-A2": (2.78826, 1.83862),
}

# cli_fine_grid: one CLI evolve of the benchmark scene on the fine grid.
CLI_M = 4096
CLI_T_FINAL = 2.5
CLI_A43 = ("-0.6", "-0.5", "-0.4")  # criterion-8 points of IERK3-2


@dataclass
class Op:
    """One call into a public entry point.

    `check(result)` says whether the result is correct; `counts(result)`
    gives the stepping or scanning work the call did, as exact counts (empty
    for calls whose work is not counted).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    counts: Callable[[object], dict] = lambda result: {}


def _label(method, params):
    return method + "".join(f" {k}={float(v):g}" for k, v in params.items())


def _stepping_counts(tab, m, steps, ffts_per_step, extra_ffts=0):
    """Work of `steps` steps; transform counts follow integrator.step (NOTES.md)."""
    return {
        "steps": steps,
        "stage_solves": steps * tab.s_implicit,
        "fft_calls": steps * ffts_per_step + extra_ffts,
        "state_bytes": tab.s * m * 16,
    }


def _build(ierk, cfg):
    """The set-up a run needs: system, tableau and initial field."""
    sys = ierk.harness.build_system(cfg)
    tab = ierk.harness.resolve_method(cfg)
    ierk.spectral.initial_field(sys.grid, cfg["initial"])
    return sys, tab


def _evolve_op(ierk, method, params):
    cfg = {**SCENE, "method": method, "params": params, "m": 256, "t_final": DECAY_T_FINAL}
    sys, tab = _build(ierk, cfg)
    n_steps = round(cfg["t_final"] / cfg["tau"])

    def check(out):
        _, summary, final = out
        return (not summary["diverged"] and final is not None
                and summary["steps"] == n_steps
                and summary["max_relative_increase"] <= 1e-9)

    return Op(
        label="run_evolve " + _label(method, params),
        call=lambda: ierk.harness.run_evolve(cfg),
        check=check,
        counts=lambda out: _stepping_counts(tab, sys.grid.m, out[1]["steps"], 2 * tab.s - 1),
    )


def decay_sweep(ierk, rng, workdir):
    """Energy-decay runs of criterion-8 methods, grouped by stage count."""
    return [
        _evolve_op(ierk, *rng.choice(points))
        for points in (ORDER2, ORDER3, ORDER4)
        for _ in range(DECAY_RUNS_PER_S)
    ]


def _converge_op(ierk, method, params, kappa, grid, order, tol):
    cfg = {"method": method, "params": params, "kappa": kappa, "epsilon": 0.2, "m": 256,
           "t_final": 1.0, "tau_grid": grid, "source": "manufactured", "initial": "sine"}
    sys, tab = _build(ierk, cfg)
    steps = sum(round(cfg["t_final"] / tau) for tau in grid)

    def check(table):
        observed = table.observed_order()
        return observed is not None and abs(observed - order) <= tol

    # one more forward transform per run: the first step's initial spectrum
    return Op(
        label="run_converge " + _label(method, params),
        call=lambda: ierk.harness.run_converge(cfg),
        check=check,
        counts=lambda table: _stepping_counts(tab, sys.grid.m, steps, 3 * tab.s - 2, len(grid)),
    )


def converge(ierk, rng, workdir):
    """Manufactured-solution studies of criterion 7, one per stage count."""
    return [
        _converge_op(ierk, *rng.choice(points), kappa, grid, order, tol)
        for points, kappa, grid, order, tol in STUDIES
    ]


def _scan_op(ierk, rng, job):
    family, symbol, lo, hi, fixed, target, published = job
    lo += rng.random() * SCAN_STEP

    def check(res):
        if len(res.certified_intervals) != 1:
            return False
        got = res.certified_intervals[0]
        return all(abs(g - p) <= 2 * SCAN_STEP for g, p in zip(got, published))

    return Op(
        label=f"scan_parameter {family} {symbol}",
        call=lambda: ierk.dissipation.scan_parameter(
            family, symbol, lo, hi, SCAN_STEP, fixed=fixed, target=target),
        check=check,
        counts=lambda res: {"scan_points": len(res.values), "scan_skipped": len(res.skipped)},
    )


def _certify_check(tab):
    def check(cert):
        if tab.name != "IERK3-4stage":
            return cert.certified
        if cert.certified or not cert.refuted or not cert.witnesses:
            return False
        w = cert.witnesses[0]
        return w.matrix == "D_EI" and w.order == 2 and w.exact == F(-1, 16)

    return check


def _order_check(tab):
    def check(report):
        if tab.name.startswith("IERK4"):
            return report.attained_order == 3 and report.max_residual_by_order[4] <= 2e-6
        if report.attained_order != tab.formal_order:
            return False
        return not tab.exact or all(
            c.residual == 0.0 for c in report.conditions if c.order <= tab.formal_order)

    return check


def _rate_check(rows):
    by_name = {r["method"]: r for r in rows}
    return all(
        name in by_name
        and abs(by_name[name]["intercept"] - intercept) <= 1e-4
        and abs(by_name[name]["slope"] - slope) <= 1e-4
        and by_name[name]["certified"]
        for name, (intercept, slope) in PUBLISHED_RATES.items()
    )


def certify_scan(ierk, rng, workdir):
    """Criterion-4 scans, certify and order checks per family, rate table."""
    ops = [_scan_op(ierk, rng, job) for job in SCANS]
    tabs = [
        ierk.tableau.registry(name, {"a22": rng.choice(NPD_A22)} if params is None else params)
        for name, params in REGISTRY_CASES
    ]
    ops += [Op("certify " + _label(tab.name, tab.params),
               lambda tab=tab: ierk.dissipation.certify(tab), _certify_check(tab))
            for tab in tabs]
    ops += [Op("check_order_conditions " + _label(tab.name, tab.params),
               lambda tab=tab: ierk.tableau.check_order_conditions(tab, 1e-10), _order_check(tab))
            for tab in tabs]
    ops.append(Op("run_rate_table", lambda: ierk.harness.run_rate_table(), _rate_check))
    return ops


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def cli_fine_grid(ierk, rng, workdir):
    """One `ierk evolve` of the benchmark scene on the fine grid."""
    a43 = rng.choice(CLI_A43)
    cfg = {**SCENE, "method": "IERK3-2", "params": {"a43": a43}, "m": CLI_M,
           "t_final": CLI_T_FINAL}
    _, tab = _build(ierk, cfg)
    argv = ["evolve", "IERK3-2", "--a43", a43, "--tau", str(SCENE["tau"]),
            "--kappa", str(SCENE["kappa"]), "--epsilon", str(SCENE["epsilon"]),
            "--t-final", str(CLI_T_FINAL), "--m", str(CLI_M), "--record-stages"]
    n_steps = round(CLI_T_FINAL / SCENE["tau"])
    serial = itertools.count()

    def call():
        out = os.path.join(workdir, f"evolve-{next(serial)}")
        with contextlib.redirect_stdout(io.StringIO()):
            code = ierk.cli.main(argv + ["--out", out])
        return code, out

    def check(result):
        code, out = result
        try:
            return code == 0 and _strict_json(os.path.join(out, "report.json"))["steps"] == n_steps
        except (OSError, ValueError, KeyError):
            return False
        finally:
            shutil.rmtree(out, ignore_errors=True)

    # one more inverse transform: the snapshot writer needs the final nodal values
    return [Op("cli evolve " + _label("IERK3-2", {"a43": F(a43)}), call, check,
               lambda result: _stepping_counts(tab, CLI_M, n_steps, 2 * tab.s - 1, 1))]


WORKLOADS = {
    "decay_sweep": decay_sweep,
    "converge": converge,
    "certify_scan": certify_scan,
    "cli_fine_grid": cli_fine_grid,
}
