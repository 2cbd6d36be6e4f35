"""Sequential IMEX stage solves for the spectral gradient-flow system.

Each implicit stage solves (I - tau*a_ii*M*L_kappa) U_i = rhs, a scalar
division per Fourier mode because the mobility and the stabilized operator
share the Fourier eigenbasis. The stiff operator enters through the full
implicit tableau, the stabilized nonlinearity (and any forcing, evaluated at
the stage abscissa times) through the strictly-lower explicit tableau.

One kernel, built once per (system, tableau) and batch of B step sizes, does
all stepping on rfft half spectra, with per-mode stage coefficients that hold
the mobility and the linear part (1 + kappa) u of the stabilized force: a
stage cubes its values, makes one rfft, one weighted sum (plus any source
term) and one irfft. Both call the pocketfft gufuncs under np.fft.rfft/irfft
directly, which halves their cost at m = 256 with bit-identical results. Runs
that end or diverge leave the batch. `evolve` and the reference run are
batches of one, the convergence study one batch over its tau grid, and `step`
wraps one kernel step in a StepRecord; each builds its kernel and steps in one
np.errstate, so an overflowing coefficient diverges the run without a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.fft import _pocketfft_umath  # private; np.fft.rfft/irfft call it since numpy 2.0

from .errors import IntegrationDiverged, NonInvertibleStage
from .spectral import Field, SpectralSystem, energy_from_spectrum
from .tableau import ImexTableau


@dataclass(frozen=True)
class StepRecord:
    """All stage values and energies of one step.

    stage_spectra[i] holds the rfft half spectrum of U_i, as the stage kernel
    computes it (m is even, so irfft restores all m values); stage 0 is the
    incoming solution and the last stage is the step result (stiffly
    accurate). stage_energies[i] is the discrete energy at stage i.
    """

    t_start: float
    tau: float
    stage_spectra: np.ndarray  # (s, m//2 + 1) complex
    stage_energies: np.ndarray  # (s,)

    @property
    def result(self) -> Field:
        return Field(values=np.fft.irfft(self.stage_spectra[-1]))


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
    - tau sum_j ahat_ij (M g_kappa(U_j) - f(t + c_j tau)) in every batch row; with
    g_kappa(u) = (1 + kappa) u - u^3 the row X_j holds only rfft(U_j^3). Stage i
    reads rows z[:2i] of the (2s-1, B, half) buffer U_0, X_0, U_1, ..., U_{s-1} and
    writes row 2i as one einsum over `flat`, its (2s-1, B * 2 half) float view, with
    coefs[i-1] (2i, B * 2 half) pre-divided by the stage denominator; a forced step
    then adds src_term[i-1]. `nodal` holds the (s-1, B, m) values of U_1 .. U_{s-1}.
    """

    def __init__(self, sys: SpectralSystem, tab: ImexTableau, tau):
        tau = np.array(tau, dtype=float, ndmin=1)
        if not np.all(tau > 0):
            raise ValueError("tau must be positive")
        c, A, Ah = tab.float_arrays
        self.sys, self.half = sys, sys.grid.m // 2 + 1
        ml, mob = sys.mobility_stiff_symbol[: self.half], sys.mobility_symbol[: self.half]
        linear = sys.force_slope(stabilized=True) * mob  # M (1 + kappa), moved to the U rows
        self.ctau = c[:-1, None] * tau  # the explicit terms' times from the step start
        self.coefs = []
        for i in range(1, tab.s):
            denom = 1.0 - (tau[:, None] * A[i, i]) * ml
            singular = np.any(denom == 0.0, axis=1)
            if singular.any():
                raise NonInvertibleStage(f"stage {i + 1} of {tab.name}: singular mode with "
                                         f"a_ii={A[i, i]}, tau={tau[singular][0]}")
            ta = tau[:, None] * Ah[i, :i, None, None]
            coef = np.empty((2 * i, len(tau), self.half))
            coef[0::2] = (tau[:, None] * A[i, :i, None, None]) * ml - ta * linear
            coef[0] += 1.0
            coef[1::2] = ta * mob
            # one weight each for the real and the imaginary part of a mode
            self.coefs.append(np.repeat(coef / denom, 2, axis=2).reshape(2 * i, -1))
        self.src_term = self.src_coef = None
        if sys.source is not None:
            # weights tau ahat_ij / denom_i of the source term of stage j in stage i
            denoms = 1.0 - (tau[:, None] * A.diagonal()[1:, None, None]) * ml
            src = (tau[:, None] * Ah[1:, :-1, None, None]) / denoms[:, None]
            self.src_coef = np.repeat(src, 2, axis=3).reshape(tab.s - 1, tab.s - 1, -1)
        self.keep(slice(None))

    def keep(self, rows) -> None:
        """Keep the batch rows that `rows` (a mask) selects, as the caller does with
        its state: compact the per-row weights, allocate the buffers and bind each
        stage's views (coefficients, X row, rows read, row written as floats and as
        a spectrum, values), so that no step slices a view."""
        def compact(a):
            lead = a.shape[:-1]
            return a.reshape(*lead, -1, 2 * self.half)[..., rows, :].reshape(*lead, -1)

        self.ctau, self.coefs = self.ctau[:, rows], [compact(coef) for coef in self.coefs]
        s, b, m = len(self.coefs) + 1, self.ctau.shape[1], self.sys.grid.m
        self.z = z = np.empty((2 * s - 1, b, self.half), dtype=complex)
        flat = z.view(float).reshape(2 * s - 1, -1)
        self.nodal, self.cube = np.empty((s - 1, b, m)), np.empty((b, m))
        self.energy_scratch = np.empty_like(z[2::2]), np.empty_like(self.nodal)
        if self.src_coef is not None:
            self.src_coef, self.src_term = compact(self.src_coef), np.empty((s - 1, flat.shape[1]))
        self.stages = [(coef, z[2 * i - 1], flat[: 2 * i], flat[2 * i], z[2 * i], self.nodal[i - 1])
                       for i, coef in enumerate(self.coefs, start=1)]

    def step(self, u_hat, vals, t, energies=None):
        """Advance every row from half spectra u_hat (B, half), nodal values
        vals (B, m), at time t (a float, or one per row). The caller enters
        np.errstate: blow-ups surface as non-finite values, not as warnings.

        Returns (stage half spectra (s, B, half), last stage's nodal values
        (B, m)), both views of the kernel's buffers that the next step
        overwrites; when given, energies[1:] receives the (s-1, B) stage energies.
        """
        sys, z, cube, inv_m = self.sys, self.z, self.cube, 1.0 / self.sys.grid.m
        rfft, irfft, src = _pocketfft_umath.rfft_n_even, _pocketfft_umath.irfft, self.src_term
        if src is not None:
            f = sys.source_spectrum(t + self.ctau)
            np.einsum("ijk,jk->ik", self.src_coef, f.view(float).reshape(len(f), -1), out=src)
        z[0] = u_hat
        for i, (coef, x_row, rows, out, u_row, u_nodal) in enumerate(self.stages):
            rfft(sys.force_cubic(vals, out=cube), 1.0, out=x_row)
            np.einsum("jk,jk->k", coef, rows, out=out)
            if src is not None:
                out += src[i]
            vals = irfft(u_row, inv_m, out=u_nodal)  # 1/m: np.fft.irfft's default norm
        if energies is not None:
            energies[1:] = energy_from_spectrum(sys, z[2::2], self.nodal, *self.energy_scratch)
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
    energies = np.empty((tab.s, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _StageKernel(sys, tab, tau)
        u_hat, u_vals = u_prev.spectrum[None, : kernel.half], u_prev.values[None]
        energies[0] = energy_from_spectrum(sys, u_hat, u_vals)
        spectra, _ = kernel.step(u_hat, u_vals, t_prev, energies)
    return StepRecord(t_start=t_prev, tau=tau, stage_spectra=spectra[:, 0],
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
    with np.errstate(over="ignore", invalid="ignore"):
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
    and compares it with tau * M (L_kappa (U_{k+1}+U_k)/2 - g_kappa(U_k)) on
    rfft half spectra; returns the largest nodal max norm of the mismatch
    relative to that of the right side. Both sides agree to round-off for any
    tableau satisfying the structural invariants, provided the step was
    autonomous (no source term).
    """
    from .dissipation import differentiation_pair

    if sys.source is not None:
        raise ValueError("residual check requires an autonomous system (source=None)")
    pair = differentiation_pair(tab)
    m, tau, u = sys.grid.m, rec.tau, rec.stage_spectra
    half = m // 2 + 1
    mob, lk = sys.mobility_symbol[:half], sys.stabilized_symbol[:half]
    du = np.diff(u, axis=0)
    lhs = pair.d_e @ du - tau * sys.mobility_stiff_symbol[:half] * (pair.d_ei @ du)
    g = np.fft.rfft(sys.nonlinearity(np.fft.irfft(u[:-1], m), stabilized=True))
    rhs = tau * mob * (0.5 * lk * (u[1:] + u[:-1]) - g)
    num = np.abs(np.fft.irfft(lhs - rhs, m)).max(axis=1)
    den = np.maximum(np.abs(np.fft.irfft(rhs, m)).max(axis=1), np.finfo(float).tiny)
    return float((num / den).max())
