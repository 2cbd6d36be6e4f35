import math

import numpy as np
import pytest

from ierk.spectral import (
    MANUFACTURED_SOURCE,
    Field,
    MAX_M,
    SpectralGrid,
    SpectralSystem,
    decaying_sine,
    energy,
    energy_from_spectrum,
    initial_field,
    lambda_ml_bar,
    tanh_gaussian_bumps,
)

TWO_PI = 2 * math.pi


@pytest.fixture
def sys256():
    return SpectralSystem(SpectralGrid(0.0, TWO_PI, 256), epsilon=0.2, kappa=0.0)


def _apply(symbol, u):
    """Multiply by an operator symbol in Fourier space."""
    return Field(spectrum=symbol * u.spectrum)


def _variational_derivative(sys, u):
    """L u - g(u): the gradient of the energy density w.r.t. nodal values / h."""
    return Field(spectrum=sys.stiff_symbol * u.spectrum - np.fft.fft(sys.nonlinearity(u.values)))


def _manufactured_forcing(sys, t):
    """Closed form of MANUFACTURED_SOURCE at the nodes:
    ((eps^2 - 2) e^{-t} + (3/4) e^{-3t}) sin x - (9/4) e^{-3t} sin 3x."""
    x = sys.grid.x
    return (((sys.epsilon**2 - 2.0) * math.exp(-t) + 0.75 * math.exp(-3.0 * t)) * np.sin(x)
            - 2.25 * math.exp(-3.0 * t) * np.sin(3.0 * x))


def _random_smooth(rng, grid, modes=8, amp=0.5):
    u = np.zeros(grid.m)
    for k in range(1, modes + 1):
        u += rng.normal() / k * np.cos(k * grid.x + rng.uniform(0, TWO_PI))
    return Field(values=amp * u)


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        SpectralGrid(0.0, 1.0, 100)


def test_grid_size_is_bounded():
    assert SpectralGrid(0.0, 1.0, MAX_M).m == MAX_M
    with pytest.raises(ValueError, match=f"m must be at most {MAX_M}, got {2 * MAX_M}"):
        SpectralGrid(0.0, 1.0, 2 * MAX_M)


def test_wavenumbers_are_integers_on_two_pi_domain(sys256):
    k = sys256.grid.wavenumbers
    assert np.allclose(k, np.round(k), atol=1e-12)
    assert k.min() == -128 and k.max() == 127


def test_field_round_trip(rng):
    grid = SpectralGrid(-math.pi, math.pi, 256)
    u = _random_smooth(rng, grid)
    back = Field(spectrum=u.spectrum).values
    assert np.abs(back - u.values).max() <= 1e-13 * max(1.0, np.abs(u.values).max())


def test_apply_stiff_operator_on_eigenfunction(sys256):
    u = Field(values=np.sin(sys256.grid.x))
    out = _apply(sys256.stiff_symbol, u)
    assert np.allclose(out.values, 0.04 * np.sin(sys256.grid.x), atol=1e-13)


def test_mobility_kills_constants(sys256):
    out = _apply(sys256.mobility_symbol, Field(values=np.full(256, 2.5)))
    assert np.abs(out.values).max() <= 1e-13


def test_mobility_stiff_symbol_sign():
    # -k^2 (eps^2 k^2 + kappa) at k=2: -4 * 1.16; the tolerance allows the
    # round-off leakage into high modes that the quartic symbol amplifies
    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 256), epsilon=0.2, kappa=1.0)
    u = Field(values=np.sin(2 * sys.grid.x))
    out = _apply(sys.mobility_stiff_symbol, u)
    assert np.allclose(out.values, -4.64 * np.sin(2 * sys.grid.x), atol=1e-8)
    sys32 = SpectralSystem(SpectralGrid(0.0, TWO_PI, 32), epsilon=0.2, kappa=1.0)
    out32 = _apply(sys32.mobility_stiff_symbol, Field(values=np.sin(2 * sys32.grid.x)))
    assert np.allclose(out32.values, -4.64 * np.sin(2 * sys32.grid.x), atol=1e-12)


def test_mobility_output_has_zero_mean(sys256, rng):
    u = _random_smooth(rng, sys256.grid)
    out = _apply(sys256.mobility_symbol, u)
    assert abs(out.values.mean()) <= 1e-13


def test_operator_symmetry(sys256, rng):
    u = _random_smooth(rng, sys256.grid)
    v = _random_smooth(rng, sys256.grid)
    for symbol in (sys256.mobility_symbol, sys256.stiff_symbol):
        lhs = float(np.dot(_apply(symbol, u).values, v.values))
        rhs = float(np.dot(u.values, _apply(symbol, v).values))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_nonlinear_values():
    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 64), epsilon=0.1, kappa=2.0)
    ones = Field(values=np.ones(64))
    assert np.abs(sys.nonlinearity(ones.values)).max() == 0.0
    zeros = Field(values=np.zeros(64))
    assert np.abs(sys.nonlinearity(zeros.values, stabilized=True)).max() == 0.0
    half = Field(values=np.full(64, 0.5))
    assert sys.nonlinearity(half.values) == pytest.approx(np.full(64, 0.375))
    assert sys.nonlinearity(half.values, stabilized=True) == pytest.approx(np.full(64, 0.375 + 1.0))


def test_energy_reference_states(sys256):
    assert energy(sys256, Field(values=np.zeros(256))) == pytest.approx(TWO_PI / 4, abs=1e-13)
    assert energy(sys256, Field(values=np.ones(256))) == pytest.approx(0.0, abs=1e-13)


def test_energy_matches_quadrature_oracle(sys256):
    # dense trapezoid quadrature of the continuum integrand at u = sin x
    xs = np.linspace(0.0, TWO_PI, 1_000_001)
    integrand = 0.5 * 0.2**2 * np.cos(xs) ** 2 + 0.25 * (np.sin(xs) ** 2 - 1) ** 2
    oracle = np.trapezoid(integrand, xs)
    val = energy(sys256, Field(values=np.sin(sys256.grid.x)))
    assert val == pytest.approx(oracle, rel=1e-10)


def test_energy_from_spectrum_stacked_rows_and_strided_input(rng, sys256):
    vals = np.array([_random_smooth(rng, sys256.grid).values for _ in range(4)])
    half = np.fft.rfft(vals)
    rows = np.array([energy_from_spectrum(sys256, h, v) for h, v in zip(half, vals)])
    stacked = energy_from_spectrum(sys256, half, vals)
    assert stacked.shape == (4,)
    assert np.abs(stacked - rows).max() <= 1e-14 * np.abs(rows).max()
    # every other row of a buffer, and a spectrum strided along its modes
    buf = np.zeros((8, half.shape[1]), dtype=complex)
    buf[::2] = half
    assert np.abs(energy_from_spectrum(sys256, buf[::2], vals) - rows).max() <= 1e-14 * rows.max()
    spread = np.zeros(2 * half.shape[1], dtype=complex)
    spread[::2] = half[0]
    assert energy_from_spectrum(sys256, spread[::2], vals[0]) == pytest.approx(rows[0], rel=1e-14)
    e = energy(sys256, Field(values=vals[0]))
    assert type(e) is float and e == pytest.approx(rows[0], rel=1e-14)


def test_energy_nonnegative(rng, sys256):
    for _ in range(20):
        u = Field(values=rng.uniform(-2, 2, 256))
        assert energy(sys256, u) >= 0.0


def test_variational_derivative_matches_energy_gradient(rng):
    sys = SpectralSystem(SpectralGrid(-math.pi, math.pi, 64), epsilon=0.3, kappa=0.0)
    u = _random_smooth(rng, sys.grid, modes=5)
    grad = _variational_derivative(sys, u).values
    h = sys.grid.h
    eps = 1e-6
    for idx in (0, 7, 33, 63):
        up = u.values.copy()
        um = u.values.copy()
        up[idx] += eps
        um[idx] -= eps
        fd = (energy(sys, Field(values=up)) - energy(sys, Field(values=um))) / (2 * eps) / h
        assert fd == pytest.approx(grad[idx], rel=1e-6, abs=1e-8)


def test_lambda_ml_bar_two_modes():
    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 2), epsilon=1.0, kappa=0.0)
    assert lambda_ml_bar(sys) == pytest.approx(0.5)


def test_lambda_ml_bar_pure_kappa():
    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 8), epsilon=0.0, kappa=1.0)
    k = sys.grid.wavenumbers
    assert lambda_ml_bar(sys) == pytest.approx(float(np.mean(k**2)))


def test_lambda_ml_bar_loop_oracle():
    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 256), epsilon=0.1, kappa=2.0)
    acc = 0.0
    for k in sys.grid.wavenumbers:
        acc += k**2 * (0.1**2 * k**2 + 2.0)
    assert lambda_ml_bar(sys) == pytest.approx(acc / 256, rel=1e-14)


def test_manufactured_source_satisfies_pde(sys256):
    # residual of d_t u - d_xx(-eps^2 u_xx - u + u^3) - f under spectral
    # differentiation; m=32 resolves every active mode (1, 3 and 9) while
    # keeping the quartic round-off amplification below the tolerance
    sys32 = SpectralSystem(SpectralGrid(0.0, TWO_PI, 32), epsilon=0.2, kappa=0.0)
    for sys, tol in ((sys32, 1e-10), (sys256, 1e-8)):
        k = sys.grid.wavenumbers
        for t in (0.0, 0.4, 2.0):
            u = decaying_sine(sys, t)
            du_dt = -u
            flux = -(0.2**2) * np.fft.ifft(-(k**2) * np.fft.fft(u)).real - u + u**3
            lap_flux = np.fft.ifft(-(k**2) * np.fft.fft(flux)).real
            f = _manufactured_forcing(sys, t)
            assert np.abs(du_dt - lap_flux - f).max() <= tol


def test_manufactured_source_decays():
    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 256), epsilon=0.2, source=MANUFACTURED_SOURCE)
    assert np.abs(sys.source_values(40.0)).max() <= 1e-15


def test_manufactured_source_at_eps_zero():
    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 64), epsilon=0.0, kappa=0.0,
                         source=MANUFACTURED_SOURCE)
    x = sys.grid.x
    expected = -1.25 * np.sin(x) - 2.25 * np.sin(3 * x)
    assert np.allclose(sys.source_values(0.0), expected, atol=1e-14)


@pytest.mark.parametrize("m", [32, 256])
@pytest.mark.parametrize("domain", [(0.0, TWO_PI), (-math.pi, math.pi)])
def test_source_spectrum_matches_nodal_forcing(m, domain):
    sys = SpectralSystem(SpectralGrid(*domain, m), epsilon=0.2, kappa=1.0,
                         source=MANUFACTURED_SOURCE)
    for t in (0.0, 0.4, 2.0):
        nodal = _manufactured_forcing(sys, t)
        assert np.abs(sys.source_spectrum(t) - np.fft.rfft(nodal)).max() <= 1e-13
        assert np.abs(sys.source_values(t) - nodal).max() <= 1e-14
    # an (s-1, B) array of stage times, as a batched step asks for them
    times = np.array([[0.0, 0.4, 2.0], [0.1, 0.55, 2.3]])
    batch = sys.source_spectrum(times)
    assert batch.shape == times.shape + (m // 2 + 1,)
    for idx in np.ndindex(times.shape):
        assert np.abs(batch[idx] - sys.source_spectrum(times[idx])).max() <= 1e-13
    free = SpectralSystem(SpectralGrid(*domain, m), epsilon=0.2)
    assert free.source_spectrum(0.0) is None and free.source_values(0.0) is None


def test_steady_states_of_variational_derivative():
    sys = SpectralSystem(SpectralGrid(-math.pi, math.pi, 64), epsilon=0.1, kappa=0.0)
    for const in (-1.0, 0.0, 1.0):
        g = _variational_derivative(sys, Field(values=np.full(64, const))).values
        assert np.abs(g).max() <= 1e-14


def test_tanh_gaussian_bumps_transcription():
    x = np.array([0.0, 1.0, -1.0, 2.0])
    vals = tanh_gaussian_bumps(x)
    ref = [
        math.tanh(2 * math.sin(xx)) / 3
        - 0.1 * math.exp(-23.5 * (abs(xx) - 1) ** 2)
        + math.exp(-27 * (abs(xx) - 4.2) ** 2)
        + math.exp(-38 * (abs(xx) - 5.4) ** 2)
        for xx in x
    ]
    assert vals == pytest.approx(ref, abs=1e-15)
    # the profile is even in the Gaussian parts and odd in the tanh part
    assert vals[1] - vals[2] == pytest.approx(2 * math.tanh(2 * math.sin(1.0)) / 3, abs=1e-15)


def test_initial_field_names():
    grid = SpectralGrid(-math.pi, math.pi, 64)
    assert np.allclose(initial_field(grid, "sine").values, np.sin(grid.x))
    assert np.allclose(initial_field(grid, "tanh-bumps").values, tanh_gaussian_bumps(grid.x))
    with pytest.raises(ValueError):
        initial_field(grid, "nope")
