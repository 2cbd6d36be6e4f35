import math
from fractions import Fraction as F

import numpy as np
import pytest

from ierk.errors import IntegrationDiverged, NonInvertibleStage
from ierk.integrator import StepRecord, _StageKernel, differential_form_residual, evolve, step
from ierk.spectral import Field, SpectralGrid, SpectralSystem, initial_field
from ierk.tableau import registry, tableau_from_dict

from conftest import REGISTRY_CASES

TWO_PI = 2 * math.pi


@pytest.fixture
def bench_sys():
    return SpectralSystem(SpectralGrid(-math.pi, math.pi, 256), epsilon=0.1, kappa=2.0)


def _smooth_field(rng, grid, amp=0.4):
    u = np.zeros(grid.m)
    for k in range(1, 8):
        u += rng.normal() / k * np.cos(k * grid.x + rng.uniform(0, TWO_PI))
    return Field(values=amp * u)


@pytest.mark.parametrize("name,params", REGISTRY_CASES)
def test_equilibria_are_fixed_points(name, params, bench_sys):
    tab = registry(name, params)
    for const in (1.0, -1.0):
        u = Field(values=np.full(256, const))
        rec = step(bench_sys, tab, u, 0.0, 0.05)
        assert np.abs(rec.result.values - const).max() <= 1e-13
        # every stage sits at the equilibrium as well
        assert np.abs(np.fft.ifft(rec.stage_spectra).real - const).max() <= 1e-13


def test_mass_conservation(bench_sys, rng):
    tab = registry("IERK3-2", {"a43": F(-3, 5)})
    u = initial_field(bench_sys.grid, "tanh-bumps")
    m0 = u.mean()
    for k in range(100):
        u = step(bench_sys, tab, u, k * 0.05, 0.05).result
    assert abs(u.mean() - m0) <= 1e-12


class _LinearizedSystem(SpectralSystem):
    """Nonlinearity replaced by zero: only the kappa shift survives."""

    def nonlinearity(self, u, stabilized=False):
        return self.kappa * u if stabilized else 0.0 * u


def _scalar_stage_oracle(tab, tau, msym, lsym_kappa, kappa):
    """Per-mode amplification by direct stage recursion on scalars."""
    c, A, Ah = tab.float_arrays()
    s = tab.s
    u = [1.0 + 0.0j]
    for i in range(1, s):
        rhs = u[0]
        for j in range(i):
            rhs += tau * A[i, j] * msym * lsym_kappa * u[j]
            rhs -= tau * Ah[i, j] * msym * kappa * u[j]
        u.append(rhs / (1.0 - tau * A[i, i] * msym * lsym_kappa))
    return u[-1]


@pytest.mark.parametrize("name,params", [("IERK1", {"theta": 1}),
                                         ("IERK2-2", {"a33": 0.61}),
                                         ("IERK3-2", {"a43": -0.6}),
                                         ("IERK4-A2", {})])
def test_linear_single_mode_amplification(name, params):
    sys = _LinearizedSystem(SpectralGrid(0.0, TWO_PI, 64), epsilon=0.2, kappa=1.5)
    tab = registry(name, params)
    tau = 0.37
    u0 = Field(values=np.sin(3 * sys.grid.x) + 0.5 * np.cos(7 * sys.grid.x))
    out = step(sys, tab, u0, 0.0, tau).result
    # evolve must call the overridden nonlinearity too
    out3, _ = evolve(sys, tab, u0, tau, 3)
    for k in (3, 7):
        amp = out.spectrum[k] / u0.spectrum[k]
        msym = -float(k**2)
        lk = 0.2**2 * k**2 + 1.5
        pred = _scalar_stage_oracle(tab, tau, msym, lk, 1.5)
        assert amp == pytest.approx(pred, rel=1e-12)
        assert out3.spectrum[k] / u0.spectrum[k] == pytest.approx(pred**3, rel=1e-12)


def test_ierk1_linear_amplification_closed_form():
    # theta=1, g identically zero, kappa=0: mode k decays by 1/(1+tau k^2 l(k))
    sys = _LinearizedSystem(SpectralGrid(0.0, TWO_PI, 64), epsilon=0.2, kappa=0.0)
    tab = registry("IERK1", {"theta": 1})
    tau = 0.5
    u0 = Field(values=np.sin(sys.grid.x))
    out = step(sys, tab, u0, 0.0, tau).result
    assert out.values == pytest.approx(np.sin(sys.grid.x) / (1 + tau * 0.04), rel=1e-13)


@pytest.mark.parametrize("name,params", REGISTRY_CASES)
def test_differential_form_residual_small(name, params, bench_sys, rng):
    tab = registry(name, params)
    u0 = _smooth_field(rng, bench_sys.grid)
    rec = step(bench_sys, tab, u0, 0.0, 0.01)
    assert differential_form_residual(bench_sys, tab, rec) <= 1e-10


def test_differential_form_residual_negative_control(bench_sys, rng):
    tab = registry("IERK3-2", {"a43": F(-3, 5)})
    rec = step(bench_sys, tab, _smooth_field(rng, bench_sys.grid), 0.0, 0.01)
    bad = rec.stage_spectra.copy()
    bad[2] *= 1.0 + 1e-3
    corrupted = StepRecord(rec.t_start, rec.tau, bad, rec.stage_energies)
    assert differential_form_residual(bench_sys, tab, corrupted) > 1e-6


def test_differential_form_residual_at_equilibrium(bench_sys):
    tab = registry("IERK2-2", {"a33": 0.61})
    rec = step(bench_sys, tab, Field(values=np.ones(256)), 0.0, 0.05)
    assert differential_form_residual(bench_sys, tab, rec) == 0.0


def test_differential_form_requires_autonomous():
    from ierk.spectral import MANUFACTURED_SOURCE

    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 64), epsilon=0.2, kappa=0.0,
                         source=MANUFACTURED_SOURCE)
    tab = registry("IERK1", {"theta": 1})
    rec = step(sys, tab, Field(values=np.sin(sys.grid.x)), 0.0, 0.1)
    with pytest.raises(ValueError):
        differential_form_residual(sys, tab, rec)


def test_evolve_trace_contents(bench_sys):
    tab = registry("IERK2-2", {"a33": 0.61})
    u0 = initial_field(bench_sys.grid, "tanh-bumps")
    u, trace = evolve(bench_sys, tab, u0, 0.05, 40, record_stages=True)
    assert len(trace) == 40
    assert trace.times[0] == pytest.approx(0.05)
    assert np.all(np.diff(trace.times) > 0)
    assert trace.stage_energies.shape == (40, tab.s)
    # deltas telescope back to the initial energy
    assert trace.initial_energy + trace.deltas.sum() == pytest.approx(trace.energies[-1])
    # certified method on the benchmark: energies never rise
    assert trace.max_relative_increase <= 1e-9
    assert np.all(trace.deltas <= 1e-12)


def test_evolve_zero_steps(bench_sys):
    tab = registry("IERK1", {"theta": F(1, 2)})
    u0 = initial_field(bench_sys.grid, "tanh-bumps")
    u, trace = evolve(bench_sys, tab, u0, 0.05, 0)
    assert u is u0
    assert len(trace) == 0


def test_evolve_divergence_carries_trace():
    sys = SpectralSystem(SpectralGrid(-math.pi, math.pi, 256), epsilon=0.1, kappa=4.0)
    tab = registry("IERK3-4stage", {"a22": 1})
    u0 = initial_field(sys.grid, "tanh-bumps")
    with pytest.raises(IntegrationDiverged) as info:
        evolve(sys, tab, u0, 0.01, 3000)
    exc = info.value
    assert exc.steps_completed < 3000
    assert exc.trace is not None and len(exc.trace) == exc.steps_completed
    # the energy rose measurably before the blow-up
    assert exc.trace.max_increase > 1e-6


class _CountingSystem(SpectralSystem):
    """Counts nonlinearity evaluations, i.e. the stage work actually done."""

    calls = 0

    def nonlinearity(self, u, stabilized=False):
        type(self).calls += 1
        return super().nonlinearity(u, stabilized)


def test_non_invertible_stage(monkeypatch):
    # a negative implicit diagonal can zero the stage denominator:
    # 1 - tau * a22 * (-k^2 (eps^2 k^2)) = 0 at k=1 for a22=-1, tau=1, eps=1
    tab = tableau_from_dict({
        "name": "negdiag",
        "s": 2,
        "c": [0, 1],
        "A": [[0, 0], [2, -1]],
        "A_hat": [[0, 0], [1, 0]],
    })
    sys = _CountingSystem(SpectralGrid(0.0, TWO_PI, 16), epsilon=1.0, kappa=0.0)
    u0 = Field(values=np.sin(sys.grid.x))
    with pytest.raises(NonInvertibleStage):
        step(sys, tab, u0, 0.0, 1.0)
    # evolve refuses the tableau before it evaluates any stage
    monkeypatch.setattr(_CountingSystem, "calls", 0)
    with pytest.raises(NonInvertibleStage):
        evolve(sys, tab, u0, 1.0, 5)
    assert _CountingSystem.calls == 0


@pytest.mark.parametrize("name,params", [("IERK2-2", {"a33": 0.61}),
                                         ("IERK3-2", {"a43": F(-3, 5)}),
                                         ("IERK4-A1", {})])
def test_evolve_matches_step_loop(name, params, bench_sys):
    tab = registry(name, params)
    u0 = initial_field(bench_sys.grid, "tanh-bumps")
    u_end, trace = evolve(bench_sys, tab, u0, 0.05, 20, record_stages=True)
    u, stage_energies = u0, []
    for k in range(20):
        rec = step(bench_sys, tab, u, k * 0.05, 0.05)
        stage_energies.append(rec.stage_energies)
        u = rec.result
    stage_energies = np.array(stage_energies)
    assert trace.stage_energies == pytest.approx(stage_energies, rel=1e-12)
    assert trace.energies == pytest.approx(stage_energies[:, -1], rel=1e-12)
    assert trace.initial_energy == pytest.approx(stage_energies[0, 0], rel=1e-12)
    assert u_end.values == pytest.approx(u.values, rel=1e-12, abs=1e-12)


def test_step_rejects_bad_tau(bench_sys):
    tab = registry("IERK1", {"theta": 1})
    with pytest.raises(ValueError):
        step(bench_sys, tab, Field(values=np.zeros(256)), 0.0, 0.0)
    # a negative tau gives a negative step count; evolve checks tau first
    with pytest.raises(ValueError, match="tau must be positive"):
        evolve(bench_sys, tab, Field(values=np.zeros(256)), -0.05, -20)


def test_stage_energy_law_short_run():
    # certified methods keep every stage at or below the step's entry energy
    for kappa in (2.0, 3.0, 4.0):
        sys = SpectralSystem(SpectralGrid(-math.pi, math.pi, 256), epsilon=0.1, kappa=kappa)
        u0 = initial_field(sys.grid, "tanh-bumps")
        for name, params in [("IERK1", {"theta": F(1, 2)}),
                             ("IERK2-2", {"a33": 0.61}),
                             ("IERK3-1", {"a55": F(4, 5)}),
                             ("IERK4-A1", {})]:
            tab = registry(name, params)
            _, trace = evolve(sys, tab, u0, 0.05, 100, record_stages=True)
            assert trace.max_relative_increase <= 1e-9, (name, kappa)


def test_manufactured_convergence_order_two():
    # quick three-point order check on the forced problem
    from ierk.spectral import MANUFACTURED_SOURCE, decaying_sine

    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 256), epsilon=0.2, kappa=0.0,
                         source=MANUFACTURED_SOURCE)
    tab = registry("IERK2-2", {"a33": (1 + math.sqrt(2)) / 4})
    errs = []
    for tau in (0.05, 0.025, 0.0125):
        n = round(1.0 / tau)
        u = Field(values=decaying_sine(sys, 0.0))
        worst = 0.0
        for k in range(n):
            u = step(sys, tab, u, k * tau, tau).result
            worst = max(worst, float(np.abs(u.values - decaying_sine(sys, (k + 1) * tau)).max()))
        errs.append(worst)
    orders = [math.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
    assert orders[-1] == pytest.approx(2.0, abs=0.15)


FORCED_CASES = [("IERK2-2", {"a33": 0.61}), ("IERK3-2", {"a43": F(-3, 5)}), ("IERK4-A1", {})]


def _nodal_manufactured_forcing(sys, t):
    # the forcing of e^{-t} sin x, written out pointwise
    x = sys.grid.x
    e1, e3 = math.exp(-t), math.exp(-3.0 * t)
    return (sys.epsilon**2 - 2.0) * e1 * np.sin(x) + 0.75 * e3 * (np.sin(x) - 3.0 * np.sin(3.0 * x))


def _stage_loop_reference(sys, tab, u_vals, t, tau):
    """Stage half spectra of one step by a plain loop over the tableau terms;
    any forcing is evaluated on the nodes and transformed at every stage time."""
    c, A, Ah = tab.float_arrays()
    half = sys.grid.m // 2 + 1
    ml = sys.mobility_stiff_symbol[:half]
    mob = sys.mobility_symbol[:half]
    spectra, explicit, vals = [np.fft.rfft(u_vals)], [], u_vals
    for i in range(1, tab.s):
        # the stabilized double-well force, written out
        x = mob * np.fft.rfft(vals - vals**3 + sys.kappa * vals)
        if sys.source is not None:
            x -= np.fft.rfft(_nodal_manufactured_forcing(sys, t + c[i - 1] * tau))
        explicit.append(x)
        rhs = spectra[0].copy()
        for j in range(i):
            rhs += tau * A[i, j] * ml * spectra[j] - tau * Ah[i, j] * explicit[j]
        spectra.append(rhs / (1.0 - tau * A[i, i] * ml))
        vals = np.fft.irfft(spectra[-1], sys.grid.m)
    return np.array(spectra)


def _direct_energy(sys, half_spectrum):
    """Energy of one field: Hermitian product with the Parseval weights, in
    which interior modes count twice, plus the double-well sum on the nodes."""
    m = sys.grid.m
    weights = np.full(len(half_spectrum), 2.0)
    weights[[0, -1]] = 1.0
    weights *= sys.stiff_symbol[: len(half_spectrum)] / (2 * m)
    vals = np.fft.irfft(half_spectrum, m)
    stiff = np.vdot(half_spectrum, weights * half_spectrum).real
    return sys.grid.h * (stiff + np.sum(0.25 * (vals**2 - 1.0) ** 2))


@pytest.mark.parametrize("name,params", [("IERK2-2", {"a33": 0.61}),
                                         ("IERK3-2", {"a43": F(-3, 5)}),
                                         ("IERK4-A1", {})])
def test_evolve_matches_plain_stage_loop(name, params, bench_sys):
    tab = registry(name, params)
    u0 = initial_field(bench_sys.grid, "tanh-bumps")
    u_end, trace = evolve(bench_sys, tab, u0, 0.05, 20, record_stages=True)
    vals, stage_energies = u0.values, []
    for k in range(20):
        spectra = _stage_loop_reference(bench_sys, tab, vals, k * 0.05, 0.05)
        stage_energies.append([_direct_energy(bench_sys, h) for h in spectra])
        vals = np.fft.irfft(spectra[-1], bench_sys.grid.m)
    stage_energies = np.array(stage_energies)
    assert np.abs(trace.stage_energies - stage_energies).max() <= 1e-12 * np.abs(stage_energies).max()
    assert np.abs(u_end.values - vals).max() <= 1e-12 * np.abs(vals).max()


@pytest.mark.parametrize("name,params", FORCED_CASES)
def test_forced_step_matches_nodal_source_reference(name, params, rng):
    from ierk.spectral import MANUFACTURED_SOURCE

    sys = SpectralSystem(SpectralGrid(0.0, TWO_PI, 256), epsilon=0.2, kappa=1.0,
                         source=MANUFACTURED_SOURCE)
    tab = registry(name, params)
    u0 = Field(values=np.sin(sys.grid.x) + _smooth_field(rng, sys.grid).values)
    for t, tau in ((0.0, 0.05), (0.7, 0.2)):
        ref = _stage_loop_reference(sys, tab, u0.values, t, tau)
        got = step(sys, tab, u0, t, tau).stage_spectra[:, : ref.shape[1]]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("name,params", FORCED_CASES)
def test_forced_step_makes_no_source_transform(name, params, monkeypatch):
    from ierk import integrator
    from ierk.spectral import MANUFACTURED_SOURCE

    grid = SpectralGrid(0.0, TWO_PI, 64)
    free = SpectralSystem(grid, epsilon=0.2, kappa=0.0)
    forced = SpectralSystem(grid, epsilon=0.2, kappa=0.0, source=MANUFACTURED_SOURCE)
    tab = registry(name, params)
    u0 = Field(values=np.sin(grid.x))
    calls = {"rfft": 0, "source_values": 0}
    rfft = np.fft.rfft

    def counting_rfft(*args, **kwargs):
        calls["rfft"] += 1
        return rfft(*args, **kwargs)

    def counting_source_values(self, t):
        calls["source_values"] += 1

    monkeypatch.setattr(integrator.np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(SpectralSystem, "source_values", counting_source_values)
    counts = []
    for sys in (free, forced):
        calls.update(rfft=0, source_values=0)
        step(sys, tab, u0, 0.3, 0.1)
        counts.append(dict(calls))
    assert counts == [{"rfft": tab.s - 1, "source_values": 0}] * 2


def _kernel_run(sys, tab, u0, taus, n_steps):
    """Stage half spectra (n_steps, s, B, half) and stage energies
    (n_steps, s-1, B) of a kernel over the step sizes taus, every row from u0."""
    kernel = _StageKernel(sys, tab, taus)
    rows = len(taus)
    u_hat = np.tile(u0.spectrum[: kernel.half], (rows, 1))
    vals = np.tile(u0.values, (rows, 1))
    spectra, energies = [], []
    for n in range(n_steps):
        e = np.empty((tab.s, rows))
        stages, vals = kernel.step(u_hat, vals, n * np.array(taus), e)
        u_hat = stages[-1]
        spectra.append(stages.copy())
        energies.append(e[1:].copy())
    return np.array(spectra), np.array(energies)


@pytest.mark.parametrize("forced", [False, True])
def test_batch_kernel_matches_single_row_kernels(forced):
    from ierk.spectral import MANUFACTURED_SOURCE

    sys = SpectralSystem(SpectralGrid(-math.pi, math.pi, 256), epsilon=0.1, kappa=2.0,
                         source=MANUFACTURED_SOURCE if forced else None)
    tab = registry("IERK3-2", {"a43": F(-3, 5)})
    u0 = initial_field(sys.grid, "tanh-bumps")
    taus = [0.05, 0.03, 0.01]
    spectra, energies = _kernel_run(sys, tab, u0, taus, 20)
    for b, tau in enumerate(taus):
        one_spectra, one_energies = _kernel_run(sys, tab, u0, [tau], 20)
        ref = one_spectra[:, :, 0]
        assert np.abs(spectra[:, :, b] - ref).max() <= 1e-12 * np.abs(ref).max()
        ref = one_energies[:, :, 0]
        assert np.abs(energies[:, :, b] - ref).max() <= 1e-12 * np.abs(ref).max()


def _sequential_max_norm_error(sys, tab, tau, n_steps):
    """One run of the convergence study, stepped by the plain stage loop."""
    profile = np.sin(sys.grid.x)
    vals, worst = profile, 0.0
    for k in range(n_steps):
        vals = np.fft.irfft(_stage_loop_reference(sys, tab, vals, k * tau, tau)[-1], sys.grid.m)
        dev = float(np.abs(vals - math.exp(-(k + 1) * tau) * profile).max())
        if not math.isfinite(dev):
            return math.inf
        worst = max(worst, dev)
    return worst


def test_run_converge_matches_sequential_runs():
    from ierk.harness import build_system, run_converge
    from test_acceptance import GRID_4TH, GRID_10, SWEEPS_ORDER2, SWEEPS_ORDER3, SWEEPS_ORDER4

    # every criterion-7 point, on the three largest steps of its grid
    for kappa, grid, points in ((0.0, GRID_10[:3], SWEEPS_ORDER2 + SWEEPS_ORDER3),
                                (1.0, GRID_4TH[:3], SWEEPS_ORDER4)):
        for name, params in points:
            cfg = {"method": name, "params": params, "kappa": kappa, "epsilon": 0.2,
                   "t_final": 1.0, "tau_grid": grid}
            sys = build_system({**cfg, "source": "manufactured"})
            errs = [r.error for r in run_converge(cfg).rows]
            ref = [_sequential_max_norm_error(sys, registry(name, params), tau, round(1.0 / tau))
                   for tau in grid]
            assert np.abs(np.subtract(errs, ref)).max() <= 1e-13, (name, params)
