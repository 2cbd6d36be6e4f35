"""Sequential IMEX stage solves for the spectral gradient-flow system.

Each implicit stage solves (I - tau*a_ii*M*L_kappa) U_i = rhs, a scalar
division per Fourier mode because the mobility and the stabilized operator
share the Fourier eigenbasis. The stiff operator enters through the full
implicit tableau, the stabilized nonlinearity (and any forcing, evaluated at
the stage abscissa times) through the strictly-lower explicit tableau.

One kernel, built once per (system, tableau) and batch of B step sizes, does
all stepping on rfft half spectra (the fields are real). It checks the stage
denominators up front and reuses one (2s-1, B, half) buffer whose rows
interleave stages and explicit terms, U_0, X_0, U_1, X_1, ..., U_{s-1}, each
holding one run per batch row: stage i is one weighted sum of the first 2i
rows, with per-mode coefficients fixed at build time, and a step's stage
energies come from one evaluation. Runs that end retire as a prefix of the
batch. `evolve` and the reference run are batches of one, the harness's
convergence study one batch over its tau grid; `step` wraps a single kernel
step in a StepRecord with full spectra for callers that inspect the stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IntegrationDiverged, NonInvertibleStage
from .spectral import Field, SpectralSystem, energy_from_spectrum
from .tableau import ImexTableau


@dataclass(frozen=True)
class StepRecord:
    """All stage values and energies of one step.

    stage_spectra[i] holds the Fourier coefficients of U_i; stage 0 is the
    incoming solution and the last stage is the step result (stiffly
    accurate). stage_energies[i] is the discrete energy at stage i.
    """

    t_start: float
    tau: float
    stage_spectra: np.ndarray  # (s, m) complex
    stage_energies: np.ndarray  # (s,)

    @property
    def s(self) -> int:
        return self.stage_spectra.shape[0]

    @property
    def result(self) -> Field:
        return Field(spectrum=self.stage_spectra[-1])

    def stage_field(self, i: int) -> Field:
        return Field(spectrum=self.stage_spectra[i])

    def stage_differences(self) -> np.ndarray:
        """delta U_{l+1} = U_{l+1} - U_l for l = 0..s-2, in Fourier space."""
        return np.diff(self.stage_spectra, axis=0)


@dataclass
class EnergyTrace:
    """Per-step energy record of an integration run.

    times/energies/deltas hold one entry per completed step; the energy of
    the initial state is kept separately. stage_energies (optional) is an
    (n_steps, s) array. max_increase is the largest per-stage energy rise
    over the step's starting energy; max_relative_increase divides by its
    magnitude.
    """

    initial_energy: float
    times: np.ndarray
    energies: np.ndarray
    deltas: np.ndarray
    stage_energies: Optional[np.ndarray] = None
    max_increase: float = -np.inf
    max_relative_increase: float = -np.inf

    def __len__(self) -> int:
        return len(self.times)


class _StageKernel:
    """Stage recursion of one (system, tableau) at B step sizes tau, on rfft half spectra.

    Stage i solves (1 - tau a_ii ML_kappa) U_i = U_0 + tau sum_j a_ij ML_kappa U_j
    - tau sum_j ahat_ij X_j with X_j = M g_kappa(U_j) - f(t + c_j tau) in every
    batch row, reading rows z[:2i] of the (2s-1, B, half) buffer and writing row
    2i as one einsum: `flat` views z as (2s-1, B * 2 half) floats, coefs[i-1] is
    (2i, B * 2 half), pre-divided by the stage denominator (the U_0 coefficient
    carrying the identity). `nodal` holds the (s-1, B, m) values of U_1 .. U_{s-1}.
    Batch rows are independent runs; `retire` drops finished ones from the front.
    """

    def __init__(self, sys: SpectralSystem, tab: ImexTableau, tau):
        tau = np.array(tau, dtype=float, ndmin=1)
        if not np.all(tau > 0):
            raise ValueError("tau must be positive")
        c, A, Ah = tab.float_arrays()
        self.half = half = sys.grid.m // 2 + 1
        ml = sys.mobility_stiff_symbol[:half]
        self.sys, self.mob = sys, sys.mobility_symbol[:half]
        self.ctau = c[:-1, None] * tau  # the explicit terms' times from the step start
        self.coefs = []
        for i in range(1, tab.s):
            denom = 1.0 - (tau[:, None] * A[i, i]) * ml
            singular = np.any(denom == 0.0, axis=1)
            if singular.any():
                raise NonInvertibleStage(f"stage {i + 1} of {tab.name}: singular mode with "
                                         f"a_ii={A[i, i]}, tau={tau[singular][0]}")
            coef = np.empty((2 * i, len(tau), half))
            coef[0::2] = (tau[:, None] * A[i, :i, None, None]) * ml
            coef[0] += 1.0
            coef[1::2] = -tau[:, None] * Ah[i, :i, None, None]
            # one weight each for the real and the imaginary part of a mode
            self.coefs.append(np.repeat(coef / denom, 2, axis=2).reshape(2 * i, -1))
        self.z = np.empty((2 * tab.s - 1, len(tau), half), dtype=complex)
        self.flat = self.z.view(float).reshape(2 * tab.s - 1, -1)
        self.nodal = np.empty((tab.s - 1, len(tau), sys.grid.m))
        self.retire(0)

    def retire(self, n: int) -> None:
        """Drop the first n batch rows (the caller drops them from its state) and
        bind each stage's views of the rest, so that no step slices a view: its
        coefficients, X row, rows read, row written (floats, spectrum), values."""
        cols = 2 * self.half * n
        self.z, self.nodal, self.ctau = self.z[:, n:], self.nodal[:, n:], self.ctau[:, n:]
        self.flat, self.coefs = self.flat[:, cols:], [coef[:, cols:] for coef in self.coefs]
        z, flat = self.z, self.flat
        self.stages = [(coef, z[2 * i - 1], flat[: 2 * i], flat[2 * i], z[2 * i], self.nodal[i - 1])
                       for i, coef in enumerate(self.coefs, start=1)]

    def step(self, u_hat, u_vals, t, energies=None):
        """Advance every row from half spectra u_hat (B, half), nodal values
        u_vals (B, m), at time t (a float, or one per row).

        Returns (stage half spectra (s, B, half), last stage's nodal values
        (B, m)), both views of the kernel's buffers that the next step
        overwrites; when given, energies[1:] receives the (s-1, B) stage energies.
        """
        sys, z, mob, m = self.sys, self.z, self.mob, self.sys.grid.m
        src = None if sys.source is None else sys.source_spectrum(t + self.ctau)
        z[0] = u_hat
        vals = u_vals
        # blow-ups surface as non-finite energies; keep them quiet here
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (coef, x_row, rows, out, u_row, u_nodal) in enumerate(self.stages):
                x = np.fft.rfft(sys.nonlinearity(vals, stabilized=True), out=x_row)
                x *= mob
                if src is not None:
                    x -= src[i]
                np.einsum("jk,jk->k", coef, rows, out=out)
                vals = np.fft.irfft(u_row, m, out=u_nodal)
            if energies is not None:
                energies[1:] = energy_from_spectrum(sys, z[2::2], self.nodal)
        return z[::2], vals


def step(
    sys: SpectralSystem,
    tab: ImexTableau,
    u_prev: Field,
    t_prev: float,
    tau: float,
) -> StepRecord:
    """Advance one step of size tau > 0 from state u_prev at time t_prev.

    Raises NonInvertibleStage when 1 - tau*a_ii*(M L_kappa symbol) vanishes
    on some mode (possible only for negative diagonal entries).
    """
    kernel = _StageKernel(sys, tab, tau)
    m = sys.grid.m
    u_hat, u_vals = u_prev.spectrum[None, : kernel.half], u_prev.values[None]
    energies = np.empty((tab.s, 1))
    energies[0] = energy_from_spectrum(sys, u_hat, u_vals)
    half, _ = kernel.step(u_hat, u_vals, t_prev, energies)
    spectra = np.empty((tab.s, m), dtype=complex)
    spectra[:, : kernel.half] = half[:, 0]
    # real fields: the negative frequencies mirror the positive ones
    spectra[:, kernel.half:] = np.conj(spectra[:, m // 2 - 1 : 0 : -1])
    return StepRecord(t_start=t_prev, tau=tau, stage_spectra=spectra,
                      stage_energies=energies[:, 0])


def evolve(
    sys: SpectralSystem,
    tab: ImexTableau,
    u0: Field,
    tau: float,
    n_steps: int,
    record_stages: bool = False,
    t0: float = 0.0,
) -> tuple:
    """Run n_steps uniform steps, recording the energy after each one.

    Returns (final_field, trace). Raises IntegrationDiverged as soon as a
    step produces non-finite values; the exception carries the trace of the
    completed steps so callers can still inspect the recorded energies.
    """
    kernel = _StageKernel(sys, tab, tau)
    times = t0 + (np.arange(n_steps) + 1) * tau
    # every step's stage energies; _build_trace fills in stage 0
    record = np.empty((n_steps, tab.s, 1))
    u_hat, vals = u0.spectrum[None, : kernel.half], u0.values[None]
    e_init = energy_from_spectrum(sys, u_hat[0], vals[0])
    for n in range(n_steps):
        spectra, vals = kernel.step(u_hat, vals, t0 + n * tau, record[n])
        u_hat = spectra[-1]
        if not math.isfinite(record[n, -1, 0]):
            trace = _build_trace(e_init, times[: n + 1], record[: n + 1, :, 0], record_stages)
            raise IntegrationDiverged(
                f"{tab.name}: non-finite state after step {n + 1} (t={times[n]:.6g})",
                steps_completed=n + 1,
                trace=trace,
            )
    u = Field(values=vals[0].copy()) if n_steps else u0
    return u, _build_trace(e_init, times, record[:, :, 0], record_stages)


def _build_trace(e_init, times, stages, record_stages) -> EnergyTrace:
    """Trace of the (steps, s) stage energies, whose stage-0 column is set
    here; steps whose worst stage rise is NaN are left out of the maxima."""
    energies = stages[:, -1].copy()
    stages[1:, 0] = energies[:-1]
    stages[:1, 0] = e_init
    rise = (stages[:, 1:] - stages[:, :1]).max(axis=1)
    rel = rise / np.maximum(np.abs(stages[:, 0]), np.finfo(float).tiny)
    return EnergyTrace(
        initial_energy=float(e_init),
        times=times,
        energies=energies,
        deltas=energies - stages[:, 0],
        stage_energies=stages if record_stages else None,
        max_increase=float(np.max(rise, initial=-np.inf, where=~np.isnan(rise))),
        max_relative_increase=float(np.max(rel, initial=-np.inf, where=~np.isnan(rel))),
    )


def differential_form_residual(sys: SpectralSystem, tab: ImexTableau, rec: StepRecord) -> float:
    """Mismatch between the step's stage differences and their closed form.

    Rebuilds, for every implicit stage k, the combination
    sum_l [D_E]_{k,l} dU_{l+1} + [D_EI]_{k,l} (-tau M L_kappa) dU_{l+1}
    and compares it with tau * M (L_kappa (U_{k+1}+U_k)/2 - g_kappa(U_k)).
    Both sides agree to round-off for any tableau satisfying the structural
    invariants, provided the step was autonomous (no source term).
    """
    from .dissipation import differentiation_pair

    if sys.source is not None:
        raise ValueError("residual check requires an autonomous system (source=None)")
    pair = differentiation_pair(tab)
    d_e, d_ei = pair.d_e, pair.d_ei
    tau = rec.tau
    ml = sys.mobility_stiff_symbol
    mob = sys.mobility_symbol
    lk = sys.stabilized_symbol
    du = rec.stage_differences()
    worst = 0.0
    for k in range(tab.s_implicit):
        lhs = np.zeros(sys.grid.m, dtype=complex)
        for l in range(k + 1):
            lhs += d_e[k, l] * du[l] - d_ei[k, l] * tau * (ml * du[l])
        uk = np.fft.ifft(rec.stage_spectra[k]).real
        gk = np.fft.fft(sys.nonlinearity(uk, stabilized=True))
        rhs = tau * mob * (0.5 * lk * (rec.stage_spectra[k + 1] + rec.stage_spectra[k]) - gk)
        num = float(np.abs(np.fft.ifft(lhs - rhs)).max())
        den = max(float(np.abs(np.fft.ifft(rhs)).max()), np.finfo(float).tiny)
        worst = max(worst, num / den)
    return worst
