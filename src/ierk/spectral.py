"""Periodic 1D Fourier pseudo-spectral discretization of a Cahn-Hilliard flow.

The semi-discrete system is u' = M (L_kappa u - g_kappa(u)) + f with
mobility M = Laplacian (symbol -k^2), stiff operator L = -eps^2 * Laplacian
(symbol eps^2 k^2), double-well nonlinearity g(u) = u - u^3, and an optional
stabilization shift kappa moving kappa*u between the implicit operator and
the explicit nonlinearity. Both operators diagonalize in the Fourier basis,
so stage solves reduce to per-mode divisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on [x_lo, x_hi) with m nodes (m a power of two)."""

    x_lo: float
    x_hi: float
    m: int

    def __post_init__(self):
        if self.m < 2 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two, got {self.m}")
        if not self.x_hi > self.x_lo:
            raise ValueError("empty domain")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / self.m

    @property
    def x(self) -> np.ndarray:
        return self.x_lo + self.h * np.arange(self.m)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Symmetric wavenumber set in radians per unit length."""
        return 2 * np.pi * np.fft.fftfreq(self.m, d=self.h)


class Field:
    """Real nodal values with lazily cached Fourier coefficients.

    The lazy caching makes instances single-threaded; share the underlying
    arrays, not the Field, across workers.
    """

    __slots__ = ("_values", "_spectrum")

    def __init__(self, values=None, spectrum=None):
        if values is None and spectrum is None:
            raise ValueError("need nodal values or a spectrum")
        self._values = None if values is None else np.asarray(values, dtype=float)
        self._spectrum = None if spectrum is None else np.asarray(spectrum, dtype=complex)

    @property
    def m(self) -> int:
        arr = self._values if self._values is not None else self._spectrum
        return arr.shape[0]

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.fft.ifft(self._spectrum).real
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = np.fft.fft(self._values)
        return self._spectrum

    def mean(self) -> float:
        return float(self.spectrum[0].real) / self.m


class ModalSource(NamedTuple):
    """Forcing sum_k a_k(t) phi_k(x): `amplitudes(system, t)` gives the a_k, `modes`
    the phi_k as functions of the nodes; a system transforms each mode once. For
    an array of times t, each a_k is an array of the shape of t."""

    amplitudes: Callable[["SpectralSystem", float], tuple]
    modes: tuple


@dataclass(frozen=True)
class SpectralSystem:
    """Grid plus physical parameters; operator symbols are precomputed.

    kappa >= 0 is the stabilization shift: the implicit operator becomes
    L + kappa*I and the explicit nonlinearity g(u) + kappa*u, leaving the
    continuous dynamics unchanged. `source` (optional, a ModalSource) is a
    forcing term added outside the mobility.
    """

    grid: SpectralGrid
    epsilon: float
    kappa: float = 0.0
    source: Optional[ModalSource] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        k = self.grid.wavenumbers
        object.__setattr__(self, "_mob", -(k**2))
        object.__setattr__(self, "_stiff", (self.epsilon**2) * k**2)
        # h-scaled Parseval weights on the rfft half spectrum: interior modes
        # stand for their conjugate twins as well
        half = self.grid.m // 2 + 1
        weights = np.full(half, 2.0)
        weights[[0, -1]] = 1.0
        weights *= self._stiff[:half] * (self.grid.h / (2 * self.grid.m))
        object.__setattr__(self, "_energy_weights", weights)
        if self.source is not None:
            modes = [np.fft.rfft(f(self.grid.x)) for f in self.source.modes]
            object.__setattr__(self, "_source_modes", np.array(modes).view(float))

    @property
    def mobility_symbol(self) -> np.ndarray:
        """Symbol of M (the Laplacian): -k^2."""
        return self._mob

    @property
    def stiff_symbol(self) -> np.ndarray:
        """Symbol of L: eps^2 k^2."""
        return self._stiff

    @property
    def stabilized_symbol(self) -> np.ndarray:
        """Symbol of L_kappa = L + kappa I."""
        return self._stiff + self.kappa

    @property
    def mobility_stiff_symbol(self) -> np.ndarray:
        """Symbol of M L_kappa: -k^2 (eps^2 k^2 + kappa), nonpositive."""
        return self._mob * (self._stiff + self.kappa)

    def nonlinearity(self, u: np.ndarray, stabilized: bool = False) -> np.ndarray:
        return u * ((1.0 + self.kappa if stabilized else 1.0) - u * u)

    def source_spectrum(self, t) -> Optional[np.ndarray]:
        """rfft half spectra of the forcing at the time(s) t, shape t.shape + (half,):
        amplitudes times mode spectra."""
        if self.source is None:
            return None
        amplitudes = self.source.amplitudes(self, t)
        weights = np.empty(np.shape(t) + (len(amplitudes),))
        for k, a in enumerate(amplitudes):
            weights[..., k] = a
        # real weights on the (re, im) pairs of each mode, viewed back as complex
        return (weights @ self._source_modes).view(complex)

    def source_values(self, t: float) -> Optional[np.ndarray]:
        spectrum = self.source_spectrum(t)
        return None if spectrum is None else np.fft.irfft(spectrum, self.grid.m)


_OPERATOR_SYMBOLS = {
    "M": lambda s: s.mobility_symbol,
    "L": lambda s: s.stiff_symbol,
    "L_kappa": lambda s: s.stabilized_symbol,
    "ML_kappa": lambda s: s.mobility_stiff_symbol,
}


def apply_operator(sys: SpectralSystem, which: str, u: Field) -> Field:
    """Multiply by an operator symbol in Fourier space (exact on the grid)."""
    try:
        symbol = _OPERATOR_SYMBOLS[which](sys)
    except KeyError:
        raise ValueError(f"unknown operator {which!r}; pick from {sorted(_OPERATOR_SYMBOLS)}")
    if u.m != sys.grid.m:
        raise ValueError(f"field has {u.m} nodes, grid has {sys.grid.m}")
    return Field(spectrum=symbol * u.spectrum)


def nonlinear(sys: SpectralSystem, u: Field, stabilized: bool = False) -> Field:
    """Pointwise double-well force u - u^3 (+ kappa*u when stabilized)."""
    return Field(values=sys.nonlinearity(u.values, stabilized))


def energy(sys: SpectralSystem, u: Field) -> float:
    """Discrete free energy, h-weighted so values track the integral.

    E = h * ( (1/2) sum u * (L u) + sum G(u) ); the stiff part is evaluated
    through the spectrum (Parseval), the well pointwise. Nonnegative since L
    is positive semi-definite and G(u) = (u^2 - 1)^2 / 4 >= 0.
    """
    return float(energy_from_spectrum(sys, np.fft.rfft(u.values), u.values))


def energy_from_spectrum(sys: SpectralSystem, half_spectrum: np.ndarray, values: np.ndarray):
    """Energies from rfft half spectra and nodal values, one field per row of
    any leading axes (a scalar for a single field)."""
    # real and imaginary views: a strided spectrum is read in place, not copied
    re, im, w = half_spectrum.real, half_spectrum.imag, sys._energy_weights
    q = values * values
    q -= 1.0
    return (np.einsum("...k,...k,k->...", re, re, w) + np.einsum("...k,...k,k->...", im, im, w)
            + (0.25 * sys.grid.h) * np.einsum("...k,...k->...", q, q))


def lambda_ml_bar(sys: SpectralSystem) -> float:
    """Average eigenvalue of -M L_kappa over the grid's wavenumber set."""
    return float(np.mean(-sys.mobility_stiff_symbol))


def variational_derivative(sys: SpectralSystem, u: Field) -> Field:
    """L u - g(u): the gradient of the energy density w.r.t. nodal values / h."""
    return Field(spectrum=sys.stiff_symbol * u.spectrum - np.fft.fft(sys.nonlinearity(u.values)))


# ---------------------------------------------------------------------------
# benchmark problem data
# ---------------------------------------------------------------------------

def decaying_sine(sys: SpectralSystem, t: float) -> np.ndarray:
    """Closed-form solution e^{-t} sin(x) used by the manufactured problem."""
    return math.exp(-t) * np.sin(sys.grid.x)


def _manufactured_amplitudes(sys: SpectralSystem, t) -> tuple:
    e1, e3 = np.exp(-t), np.exp(-3.0 * t)
    return ((sys.epsilon**2 - 2.0) * e1 + 0.75 * e3, -2.25 * e3)


#: Forcing that makes e^{-t} sin(x) solve the Cahn-Hilliard flow:
#: f = d_t u - d_xx(-eps^2 u_xx - u + u^3) at u = e^{-t} sin x, where the
#: cubic contributes modes one and three via sin^3 = (3 sin x - sin 3x)/4.
MANUFACTURED_SOURCE = ModalSource(_manufactured_amplitudes, (np.sin, lambda x: np.sin(3.0 * x)))


def manufactured_source(sys: SpectralSystem, t: float) -> Field:
    """Nodal values of MANUFACTURED_SOURCE on the grid of sys at time t."""
    amps = _manufactured_amplitudes(sys, t)
    return Field(values=sum(a * f(sys.grid.x) for a, f in zip(amps, MANUFACTURED_SOURCE.modes)))


def tanh_gaussian_bumps(x: np.ndarray) -> np.ndarray:
    """Benchmark initial profile: a tanh wave plus three Gaussian bumps.

    Evaluated pointwise exactly as specified, including the |x| arguments;
    two of the bumps are centred outside (-pi, pi) and contribute only
    tail values there.
    """
    ax = np.abs(x)
    return (
        np.tanh(2.0 * np.sin(x)) / 3.0
        - 0.1 * np.exp(-23.5 * (ax - 1.0) ** 2)
        + np.exp(-27.0 * (ax - 4.2) ** 2)
        + np.exp(-38.0 * (ax - 5.4) ** 2)
    )


INITIAL_PROFILES = {
    "sine": lambda grid: np.sin(grid.x),
    "tanh-bumps": lambda grid: tanh_gaussian_bumps(grid.x),
}


def initial_field(grid: SpectralGrid, name: str) -> Field:
    try:
        fn = INITIAL_PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown initial profile {name!r}; pick from {sorted(INITIAL_PROFILES)}")
    return Field(values=fn(grid))
