"""Span tracing around calls into the public functions of the ierk package.

Spans are recorded from the benchmark's side only: `install` rebinds each
traced function to a wrapper in every ierk module (and class) that holds a
reference to it, so a name brought in with `from .x import y` is traced in
the importing module too. `uninstall` puts the original objects back. Spans
stay in memory for the duration of a pass and are reduced to per-name
totals by `Tracer.totals`.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute, span name). A dotted attribute names a method on a
#: class defined in that module.
TRACED = (
    ("ierk.tableau", "registry", "tableau.registry"),
    ("ierk.tableau", "check_order_conditions", "tableau.check_order_conditions"),
    ("ierk.dissipation", "differentiation_pair", "dissipation.differentiation_pair"),
    ("ierk.dissipation", "certify", "dissipation.certify"),
    ("ierk.dissipation", "scan_parameter", "dissipation.scan_parameter"),
    ("ierk.spectral", "SpectralSystem.nonlinearity", "spectral.nonlinearity"),
    ("ierk.spectral", "SpectralSystem.source_values", "spectral.source_values"),
    ("ierk.spectral", "energy", "spectral.energy"),
    ("ierk.spectral", "energy_from_spectrum", "spectral.energy"),
    ("ierk.spectral", "decaying_sine", "spectral.decaying_sine"),
    ("ierk.integrator", "step", "integrator.step"),
    ("ierk.integrator", "evolve", "integrator.evolve"),
    ("ierk.harness", "run_verify", "harness.run"),
    ("ierk.harness", "run_certify", "harness.run"),
    ("ierk.harness", "run_scan", "harness.run"),
    ("ierk.harness", "run_rate_table", "harness.run"),
    ("ierk.harness", "run_converge", "harness.run"),
    ("ierk.harness", "run_evolve", "harness.run"),
    ("ierk.harness", "write_csv", "harness.write"),
    ("ierk.harness", "write_json", "harness.write"),
    ("ierk.harness", "write_trace_csv", "harness.write"),
    ("ierk.harness", "write_field_csv", "harness.write"),
    ("ierk.harness", "write_stage_csv", "harness.write"),
    ("ierk.harness", "write_convergence_csv", "harness.write"),
    ("ierk.harness", "svg_line_plot", "harness.write"),
    ("ierk.cli", "main", "cli.main"),
)


class Tracer:
    """Records nested spans as [name, start, end, parent, child_seconds]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, clock(), 0.0, parent, 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent is not None:
                    parent[4] += rec[2] - rec[1]

        return traced

    def install(self):
        """Rebind every traced function wherever an ierk module refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "ierk" or n.startswith("ierk.")]
        for home, attr, name in TRACED:
            owner = sys.modules[home]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            orig = owner.__dict__[attr]
            wrapped = self.wrap(name, orig)
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._saved.append((holder, key, orig))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, orig in reversed(self._saved):
            setattr(holder, key, orig)
        self._saved.clear()

    def clear(self):
        self.spans.clear()

    def totals(self):
        """Per span name: calls, total seconds, self seconds, and seconds of
        spans whose parent has another name (time not nested in itself)."""
        out = {}
        for name, start, end, parent, child in self.spans:
            calls, total, self_s, outer = out.get(name, (0, 0.0, 0.0, 0.0))
            dur = end - start
            if parent is not None and parent[0] == name:
                dur_outer = 0.0
            else:
                dur_outer = dur
            out[name] = (calls + 1, total + dur, self_s + dur - child, outer + dur_outer)
        return out
