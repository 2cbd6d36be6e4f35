"""Sequential IMEX stage solves for the spectral gradient-flow system.

Each implicit stage solves (I - tau*a_ii*M*L_kappa) U_i = rhs, a scalar
division per Fourier mode because the mobility and the stabilized operator
share the Fourier eigenbasis. The stiff operator enters through the full
implicit tableau, the stabilized nonlinearity (and any forcing, evaluated at
the stage abscissa times) through the strictly-lower explicit tableau.

One kernel, built once per (system, tableau, tau), does all stepping: it
checks and inverts the stage denominators up front, keeps the nonzero
tableau entries as per-mode coefficients, and works on rfft half spectra
because the fields are real. `evolve` and the harness's convergence loop
drive it on plain arrays; `step` wraps a single kernel step in a StepRecord
with full spectra for callers that inspect the stages.
"""

from __future__ import annotations

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
    """Stage recursion of one (system, tableau, tau), on rfft half spectra.

    Stage i solves (1 - tau a_ii ML_kappa) U_i = U_0 + tau sum_j a_ij ML_kappa U_j
    - tau sum_j ahat_ij X_j with X_j = M g_kappa(U_j) - f(t + c_j tau). Every
    per-mode coefficient comes pre-divided by the stage denominator, the U_0
    one carrying the identity, and only nonzero tableau entries are kept.
    """

    def __init__(self, sys: SpectralSystem, tab: ImexTableau, tau: float):
        if not tau > 0:
            raise ValueError("tau must be positive")
        c, A, Ah = tab.float_arrays()
        self.half = sys.grid.m // 2 + 1
        ml = sys.mobility_stiff_symbol[: self.half]
        self.sys, self.tau, self.c = sys, tau, c
        self.mob = sys.mobility_symbol[: self.half]
        self.stages = []
        for i in range(1, tab.s):
            denom = 1.0 - (tau * A[i, i]) * ml
            if np.any(denom == 0.0):
                raise NonInvertibleStage(
                    f"stage {i + 1} of {tab.name}: singular mode with a_ii={A[i, i]}, tau={tau}"
                )
            inv = 1.0 / denom
            self.stages.append((
                (1.0 + (tau * A[i, 0]) * ml) * inv,
                [(j, (tau * A[i, j]) * ml * inv) for j in range(1, i) if A[i, j] != 0.0],
                [(j, (tau * Ah[i, j]) * inv) for j in range(i) if Ah[i, j] != 0.0],
            ))

    def step(self, u_hat, u_vals, t, energies=None):
        """Advance from half spectrum u_hat (nodal values u_vals) at time t.

        Returns (stage half spectra, last stage's nodal values); when given,
        energies[1:] receives the stage energies.
        """
        sys, m = self.sys, self.sys.grid.m
        forced = sys.source is not None
        spectra, forcing = [u_hat], []
        vals = u_vals
        # blow-ups surface as non-finite energies; keep them quiet here
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (own, implicit, explicit) in enumerate(self.stages, start=1):
                x = self.mob * np.fft.rfft(sys.nonlinearity(vals, stabilized=True))
                if forced:
                    x -= np.fft.rfft(sys.source_values(t + self.c[i - 1] * self.tau))
                forcing.append(x)
                rhs = own * u_hat
                for j, coef in implicit:
                    rhs += coef * spectra[j]
                for j, coef in explicit:
                    rhs -= coef * forcing[j]
                vals = np.fft.irfft(rhs, m)
                spectra.append(rhs)
                if energies is not None:
                    energies[i] = energy_from_spectrum(sys, rhs, vals)
        return spectra, vals


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
    u_hat = u_prev.spectrum[: kernel.half]
    energies = np.empty(tab.s)
    energies[0] = energy_from_spectrum(sys, u_hat, u_prev.values)
    half, _ = kernel.step(u_hat, u_prev.values, t_prev, energies)
    spectra = np.empty((tab.s, m), dtype=complex)
    spectra[:, : kernel.half] = half
    # real fields: the negative frequencies mirror the positive ones
    spectra[:, kernel.half:] = np.conj(spectra[:, m // 2 - 1 : 0 : -1])
    return StepRecord(t_start=t_prev, tau=tau, stage_spectra=spectra, stage_energies=energies)


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
    energies = np.empty(n_steps)
    stage_energies = np.empty((n_steps, tab.s)) if record_stages else None
    stage_e = np.empty(tab.s)
    u_hat, vals = u0.spectrum[: kernel.half], u0.values
    e_init = e_start = energy_from_spectrum(sys, u_hat, vals)
    max_inc = -np.inf
    max_rel = -np.inf
    tiny = np.finfo(float).tiny
    for n in range(n_steps):
        stage_e[0] = e_start
        spectra, vals = kernel.step(u_hat, vals, t0 + n * tau, stage_e)
        u_hat = spectra[-1]
        worst = float((stage_e[1:] - e_start).max())
        max_inc = max(max_inc, worst)
        max_rel = max(max_rel, worst / max(abs(e_start), tiny))
        e_start = energies[n] = stage_e[-1]
        if record_stages:
            stage_energies[n] = stage_e
        if not np.isfinite(e_start):
            trace = _build_trace(
                e_init, times[: n + 1], energies[: n + 1],
                stage_energies[: n + 1] if record_stages else None, max_inc, max_rel,
            )
            raise IntegrationDiverged(
                f"{tab.name}: non-finite state after step {n + 1} (t={times[n]:.6g})",
                steps_completed=n + 1,
                trace=trace,
            )
    u = Field(values=vals) if n_steps else u0
    trace = _build_trace(e_init, times, energies, stage_energies, max_inc, max_rel)
    return u, trace


def _build_trace(e_init, times, energies, stage_energies, max_inc, max_rel) -> EnergyTrace:
    prev = np.concatenate(([e_init], energies[:-1])) if len(energies) else energies
    return EnergyTrace(
        initial_energy=float(e_init),
        times=times,
        energies=energies,
        deltas=energies - prev,
        stage_energies=stage_energies,
        max_increase=max_inc,
        max_relative_increase=max_rel,
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
