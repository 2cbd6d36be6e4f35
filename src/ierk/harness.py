"""Experiment drivers: verification, certification, scans, convergence and
energy-decay studies, with CSV/JSON/SVG emission.

An experiment is one frozen `Experiment`, read once from a flat config mapping
(usually a JSON file, with CLI flags overriding keys) by `Experiment.parse`; its
tableau is built once, on first use. `run_converge` and `run_evolve` take one
parsed for their command, or parse a mapping as `build_system` and
`resolve_method` do. Drivers return plain data; writers turn it into files.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property
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


def _number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _numbers(x) -> bool:
    return isinstance(x, (list, tuple)) and all(map(_number, x))


def _key(default, valid, expected):  # a config key's default, value check and what it expects
    return field(default=default, metadata={"check": (valid, expected)})


_NUMBER = (_number, "a number")
_TEXT = (lambda x: x is None or isinstance(x, str), "a string")


@dataclass(frozen=True)
class Experiment:
    """One experiment: each field is one config key, with its default and the check of
    its value. `parse` is the only reader of a config mapping: it checks the keys and
    values, applies the command's rules (`COMMANDS`) and converts the numbers once."""

    experiment: Optional[str] = _key(None, *_TEXT)  # only labels the config
    method: Optional[str] = _key(None, *_TEXT)
    params: Optional[Mapping] = _key(None, lambda x: x is None or isinstance(x, Mapping) and all(
        _number(v) or isinstance(v, str) for v in x.values()), "an object of numbers or strings")
    tableau_file: Optional[str] = _key(None, *_TEXT)
    domain: tuple = _key((0.0, TWO_PI), lambda x: _numbers(x) and len(x) == 2, "a pair of numbers")
    m: int = _key(256, lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool),
                  "an integer")
    epsilon: float = _key(0.2, *_NUMBER)
    kappa: float = _key(0.0, *_NUMBER)
    source: Optional[str] = _key("none", *_TEXT)
    initial: Optional[str] = _key("sine", *_TEXT)
    t_final: float = _key(1.0, *_NUMBER)
    tau: Optional[float] = _key(None, *_NUMBER)
    tau_grid: Optional[tuple] = _key(None, _numbers, "a list of numbers")
    record_stages: bool = _key(False, lambda x: isinstance(x, bool), "true or false")
    reference: Optional[Mapping] = _key(None, lambda x: x is None or isinstance(x, Mapping),
                                        "an object")

    @classmethod
    def parse(cls, cfg: Mapping, command: Optional[str] = None) -> "Experiment":
        """The experiment `cfg` describes for `command`; a one-line ValueError
        names the first key or value that is wrong."""
        _check_keys(cfg, CONFIG_SCHEMA, "config ")
        ref = cfg.get("reference")
        if ref:
            _check_keys(ref, REFERENCE_KEYS, "reference config ")
            if not ref.get("method"):
                raise ValueError("reference config needs a 'method'")
        defaults, forced, required, refused = COMMANDS[command]
        unused = [key for key in refused if key in cfg]
        if unused:
            raise ValueError(f"{command} does not use config key {', '.join(map(repr, unused))}")
        if required and required not in cfg:
            raise ValueError(f"config key {required!r} is missing")
        exp = cls(**{**defaults, **cfg})
        for k, v in forced.items():
            if getattr(exp, k) != v:
                raise ValueError(f"{command} forces config key {k!r} to {v!r}, got {cfg[k]!r}")
        if exp.tableau_file and exp.params:
            raise ValueError(f"a tableau file takes no parameters, got {', '.join(exp.params)}")
        if exp.source not in ("none", "manufactured"):
            raise ValueError(f"unknown source {exp.source!r} (use none | manufactured)")
        epsilon, kappa = float(exp.epsilon), float(exp.kappa)
        if not (math.isfinite(epsilon) and math.isfinite(kappa)):
            raise ValueError(f"epsilon and kappa must be finite, got epsilon={epsilon}, kappa={kappa}")
        if not math.isfinite(epsilon * epsilon):
            raise ValueError(f"epsilon**2 must be finite, got epsilon={epsilon}")
        return replace(
            exp, params=dict(exp.params or {}), domain=tuple(map(float, exp.domain)), m=int(exp.m),
            epsilon=epsilon, kappa=kappa, t_final=float(exp.t_final),
            tau=None if exp.tau is None else float(exp.tau),
            tau_grid=None if exp.tau_grid is None else tuple(map(float, exp.tau_grid)),
            reference={"method": ref["method"], "params": dict(ref.get("params") or {}),
                       "tau": float(ref.get("tau", REFERENCE_TAU))} if ref else None)

    def system(self) -> SpectralSystem:
        lo, hi = self.domain
        source = spectral.MANUFACTURED_SOURCE if self.source == "manufactured" else None
        return SpectralSystem(grid=SpectralGrid(lo, hi, self.m), epsilon=self.epsilon,
                              kappa=self.kappa, source=source)

    @cached_property
    def tableau(self) -> ImexTableau:
        if self.tableau_file:
            return load_tableau(self.tableau_file)
        if not self.method:
            raise ValueError("no method given (positional METHOD or config key 'method')")
        return registry(self.method, self.params)

    def reference_run(self) -> "Experiment":
        """The fine-step run of this scene with the reference's method, params and tau."""
        return replace(self, **self.reference, reference=None, tableau_file=None,
                       record_stages=False)


#: Every config key, with a check of its value and what the check expects.
CONFIG_SCHEMA = {f.name: f.metadata["check"] for f in fields(Experiment)}

#: Per command (None for verify, certify and scan): the defaults that differ
#: from the fields, the keys it forces, the key it requires and the keys it refuses.
COMMANDS = {
    None: ({}, {}, None, ()),
    "converge": ({"source": "manufactured"}, {"source": "manufactured", "initial": "sine"},
                 "tau_grid", ("tau", "record_stages", "reference")),
    "evolve": ({"domain": (-math.pi, math.pi), "epsilon": 0.1, "initial": "tanh-bumps",
                "t_final": 150.0}, {}, "tau", ("tau_grid",)),
}

#: The keys of the `reference` sub-config, and the reference step when it gives none.
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
        if any(isinstance(v, numbers.Integral) and abs(v) >= 2**1024 - 2**970  # float() overflows
               for v in (value if isinstance(value, (list, tuple)) else (value,))):
            raise ValueError(f"{where}key {key!r} holds a number too large for a float")


def build_system(cfg: Mapping) -> SpectralSystem:
    return Experiment.parse(cfg).system()


def resolve_method(cfg: Mapping) -> ImexTableau:
    return Experiment.parse(cfg).tableau


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


def run_certify(tab: ImexTableau, tol: float = dissipation.DEFAULT_TOL) -> dict:
    cert = dissipation.certify(tab, tol=tol)
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


def run_converge(cfg: Experiment | Mapping) -> ConvergenceTable:
    """Max-norm error against the manufactured solution over a tau grid.

    The error of one run is the maximum over all steps of the nodal max-norm
    difference from the closed-form solution. The runs step as one batch, and
    a run leaves it when it has taken its steps. A run whose error turns
    non-finite records an infinite error, leaves at once and touches no other.
    The solution starts from the sine, and a single run's keys are refused.
    """
    exp = cfg if isinstance(cfg, Experiment) else Experiment.parse(cfg, "converge")
    sys, tab = exp.system(), exp.tableau
    t_final, taus = exp.t_final, list(exp.tau_grid)
    if not taus:
        raise ValueError("tau_grid must hold at least one step size")
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("tau grid must be strictly decreasing")
    steps = [step_count(t_final, tau, "tau_grid entry") for tau in taus]
    for tau, n in zip(taus, steps):
        if abs(n * tau - t_final) > 1e-9 * t_final:
            raise ValueError(f"tau={tau} does not divide t_final={t_final}")
    # decaying_sine(sys, t) is exactly e^{-t} times its t = 0 values
    profile = spectral.decaying_sine(sys, 0.0)
    vals = np.tile(profile, (len(taus), 1))
    u_hat = np.fft.rfft(vals)
    # the live rows: their grid index, step size, step count and error so far
    live, tau, ends = np.arange(len(taus)), np.array(taus), np.array(steps)
    err, errors, stops = np.zeros(len(taus)), np.zeros(len(taus)), set(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _StageKernel(sys, tab, taus)
        for k in range(steps[-1]):
            # a row leaves when it has taken its steps or its error is no longer finite
            if k in stops or not math.isfinite(err.sum()):
                keep = (ends > k) & np.isfinite(err)
                errors[live] = err
                if not keep.any():
                    break
                if not keep.all():
                    live, tau, ends, err = live[keep], tau[keep], ends[keep], err[keep]
                    u_hat, vals = u_hat[keep], vals[keep]
                    kernel.keep(keep)
            spectra, vals = kernel.step(u_hat, vals, k * tau)
            u_hat = spectra[-1]
            dev = np.multiply.outer(np.exp(-(k + 1) * tau), profile)
            np.subtract(vals, dev, out=dev)
            np.maximum(err, np.abs(dev, out=dev).max(axis=1), out=err)
    errors[live] = err
    errors = [e if math.isfinite(e) else math.inf for e in errors.tolist()]
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
        kappa=exp.kappa,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# energy-decay study
# ---------------------------------------------------------------------------

def run_evolve(cfg: Experiment | Mapping) -> tuple:
    """Long-time energy run; returns (trace, summary, final_field).

    The summary records the worst per-stage energy rise relative to each
    step's starting energy, divergence information, and (when a reference
    run is configured) the trapezoidal deviation integral(|E - E_ref|) dt on
    the coarse time grid. final_field is None when the run diverged.
    """
    exp = cfg if isinstance(cfg, Experiment) else Experiment.parse(cfg, "evolve")
    sys, tab, tau = exp.system(), exp.tableau, exp.tau
    n_steps = step_count(exp.t_final, tau)
    ref = exp.reference and exp.reference_run()
    if ref:  # a reference step that cannot serve must not cost the main run first
        step_count(ref.t_final, ref.tau, "reference tau")
        _reference_stride(tau, ref.tau)
        ref.tableau  # built here, and kept for reference_trace
    u0 = spectral.initial_field(sys.grid, exp.initial)
    diverged = False
    final = None
    try:
        final, trace = evolve(sys, tab, u0, tau, n_steps, record_stages=exp.record_stages)
    except IntegrationDiverged as exc:
        trace = exc.trace
        diverged = True
    summary = {
        "method": tab.name,
        "params": {k: str(v) for k, v in tab.params.items()},
        "tau": tau,
        "kappa": exp.kappa,
        "domain": list(exp.domain),
        "m": exp.m,
        "steps": len(trace),
        "t_end": float(trace.times[-1]) if len(trace) else 0.0,
        "diverged": diverged,
        "initial_energy": trace.initial_energy,
        "final_energy": float(trace.energies[-1]) if len(trace) else trace.initial_energy,
        "max_increase": trace.max_increase,
        "max_relative_increase": trace.max_relative_increase,
    }
    if ref and not diverged:
        summary["energy_deviation"] = energy_deviation(trace, reference_trace(ref), tau)
    return trace, summary, final


_REFERENCE_CACHE: dict = {}


def reference_trace(ref: Experiment) -> EnergyTrace:
    """Energy trace of the reference run `ref` (see `Experiment.reference_run`),
    cached per run; the repr keeps 0.5 and "1/2" apart."""
    key = repr(ref)
    if key not in _REFERENCE_CACHE:
        sys = ref.system()
        n = step_count(ref.t_final, ref.tau, "reference tau")
        u0 = spectral.initial_field(sys.grid, ref.initial)
        _, trace = evolve(sys, ref.tableau, u0, ref.tau, n)
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
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_trace_csv(path, trace: EnergyTrace) -> None:
    rows = [(t, e, d) for t, e, d in zip(trace.times, trace.energies, trace.deltas)]
    write_csv(path, ("t", "E", "dE"), rows)


def write_field_csv(path, grid: SpectralGrid, u: Field) -> None:
    """Field snapshot as (x, u) rows, the bytes write_csv would give."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,u\n")
        fh.writelines(f"{x!r},{v!r}\n" for x, v in zip(grid.x.tolist(), u.values.tolist()))


def write_stage_csv(path, trace: EnergyTrace, tab: ImexTableau) -> None:
    if trace.stage_energies is None:
        raise ValueError("run was made without record_stages")
    c = [float(x) for x in tab.c]
    rows = [(n + 1, i + 1, c[i], e) for n, stages in enumerate(trace.stage_energies)
            for i, e in enumerate(stages)]
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
    # each series' plottable points, on the log scale where asked
    curves = [[(math.log10(x) if logx else float(x), math.log10(y) if logy else float(y))
               for x, y in zip(xs, ys) if not (logx and x <= 0 or logy and y <= 0)]
              for _, xs, ys in series]
    pts = [p for curve in curves for p in curve]
    if not pts:
        raise ValueError("nothing to plot")
    x0, x1 = min(p[0] for p in pts), max(p[0] for p in pts)
    y0, y1 = min(p[1] for p in pts), max(p[1] for p in pts)
    # a flat axis gets a span that x0 + span can resolve at any magnitude
    x1 = x1 if x1 > x0 else x0 + max(1.0, abs(x0))
    y1 = y1 if y1 > y0 else y0 + max(1.0, abs(y0))

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#444"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for idx, ((label, _, _), curve) in enumerate(zip(series, curves)):
        coords = [f"{margin + (x - x0) / (x1 - x0) * (width - 2 * margin):.2f},"
                  f"{height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin):.2f}"
                  for x, y in curve]
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
    return cfg


def ensure_outdir(out: Optional[str]) -> Optional[str]:
    if out:
        os.makedirs(out, exist_ok=True)
    return out
