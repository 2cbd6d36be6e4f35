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
from typing import Callable, Optional

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


SourceFn = Callable[["SpectralSystem", float], np.ndarray]


@dataclass(frozen=True)
class SpectralSystem:
    """Grid plus physical parameters; operator symbols are precomputed.

    kappa >= 0 is the stabilization shift: the implicit operator becomes
    L + kappa*I and the explicit nonlinearity g(u) + kappa*u, leaving the
    continuous dynamics unchanged. `source` (optional) maps (system, t) to
    nodal values of a forcing term added outside the mobility.
    """

    grid: SpectralGrid
    epsilon: float
    kappa: float = 0.0
    source: Optional[SourceFn] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        k = self.grid.wavenumbers
        object.__setattr__(self, "_mob", -(k**2))
        object.__setattr__(self, "_stiff", (self.epsilon**2) * k**2)
        # Parseval weights on the rfft half spectrum: interior modes stand for
        # their conjugate twins as well
        half = self.grid.m // 2 + 1
        weights = np.full(half, 2.0)
        weights[[0, -1]] = 1.0
        object.__setattr__(self, "_energy_weights", weights * self._stiff[:half] / (2 * self.grid.m))

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
        g = u - u * u * u
        if stabilized:
            g = g + self.kappa * u
        return g

    def potential(self, u: np.ndarray) -> np.ndarray:
        """Double-well density G(u) = (u^2 - 1)^2 / 4, nonnegative."""
        return 0.25 * (u**2 - 1.0) ** 2

    def source_values(self, t: float) -> Optional[np.ndarray]:
        if self.source is None:
            return None
        return self.source(self, t)


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
    is positive semi-definite and G >= 0.
    """
    return energy_from_spectrum(sys, np.fft.rfft(u.values), u.values)


def energy_from_spectrum(sys: SpectralSystem, half_spectrum: np.ndarray, values: np.ndarray) -> float:
    """Energy from the rfft half spectrum and the nodal values of one field."""
    stiff = float(np.vdot(half_spectrum, sys._energy_weights * half_spectrum).real)
    bulk = float(sys.potential(values).sum())
    return sys.grid.h * (stiff + bulk)


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


def manufactured_source(sys: SpectralSystem, t: float) -> Field:
    """Forcing that makes e^{-t} sin(x) solve the Cahn-Hilliard flow.

    f = d_t u - d_xx(-eps^2 u_xx - u + u^3) evaluated at u = e^{-t} sin x;
    the cubic contributes modes one and three via sin^3 = (3 sin x - sin 3x)/4.
    """
    x = sys.grid.x
    e1 = math.exp(-t)
    e3 = math.exp(-3.0 * t)
    vals = (sys.epsilon**2 - 2.0) * e1 * np.sin(x) + 0.75 * e3 * (np.sin(x) - 3.0 * np.sin(3.0 * x))
    return Field(values=vals)


def manufactured_source_values(sys: SpectralSystem, t: float) -> np.ndarray:
    return manufactured_source(sys, t).values


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
