"""JSA assembly, anti-diagonal machinery, and export formats."""

import json
import struct

import numpy as np
import pytest
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

import oracles
from tfm_synth.errors import NumericalError
from tfm_synth.jsa import (
    AdpModel,
    Jsa,
    _centre_cut,
    _interp_plan,
    _sum_grid,
    compute_jsa,
    find_cut_minima,
    impose_pi_phase,
    load_jsa_binary,
    next_fast_len,
    normalize,
    save_jsa_binary,
    save_jsa_sidecar,
    sum_axis,
)
from tfm_synth.phase_matching import DispersionModel, pmf
from tfm_synth.spectral import Field1D, SpectralGrid, hg_mode

S0 = 1215.70e12
I0 = 1214.45e12
P0 = 1215.075e12


def gaussian_field(grid, center, sigma):
    d = grid.samples - center
    return Field1D(grid, np.exp(-(d * d) / (2.0 * sigma * sigma)))


def test_normalize_unit_l2():
    g = SpectralGrid(0.0, 10.0, 64)
    jsa = Jsa(g, g, np.random.default_rng(0).normal(size=(64, 64)))
    n = normalize(jsa)
    assert n.norm_squared() == pytest.approx(1.0, rel=1e-12)
    assert n.normalized
    with pytest.raises(NumericalError):
        normalize(Jsa(g, g, np.zeros((64, 64))))


def test_adp_fft_matches_direct():
    """FFT self-convolution against the O(n^2) direct sum, to 1e-10."""
    grid = SpectralGrid(P0, 250e9, 512)
    rng = np.random.default_rng(7)
    env = gaussian_field(grid, P0, 30e9).values
    noise = rng.normal(size=512) + 1j * rng.normal(size=512)
    f = Field1D(grid, env * noise)
    slow = oracles.convolve_direct(f)
    fast = AdpModel(grid, _sum_grid(grid).samples)(f.values)
    scale = np.max(np.abs(slow.values))
    np.testing.assert_allclose(fast, slow.values, atol=1e-10 * scale)


def test_next_fast_len_is_scipys():
    """The FFT lengths are the ones scipy.fft picks for complex input."""
    for target in range(1, 8193):
        assert next_fast_len(target) == scipy.fft.next_fast_len(target), target


@pytest.mark.parametrize("n", [101, 256, 513, 2048])
def test_adp_model_matches_fftconvolve_bitwise(n):
    """The model's explicit FFT, at fftconvolve's length for complex input,
    gives fftconvolve's self-convolution bit for bit, on odd and even pump
    sizes, from apl and from its spectrum."""
    grid = SpectralGrid(P0, 250e9, n)
    rng = np.random.default_rng(n)
    apl = gaussian_field(grid, P0, 30e9).values * (
        rng.normal(size=n) + 1j * rng.normal(size=n)
    )
    conv = fftconvolve(apl, apl, mode="full")
    sum_grid = _sum_grid(grid)
    span = sum_grid.half_span
    # the sum-grid nodes, and off-node points reaching past the sum grid
    for sums in (
        sum_grid.samples,
        2.0 * P0 + rng.uniform(-1.1 * span, 1.1 * span, (7, 9)),
    ):
        lo, hi, w_lo, w_hi = _interp_plan(grid, sums)
        want = conv[lo] * w_lo + conv[hi] * w_hi
        model = AdpModel(grid, sums)
        assert np.array_equal(model(apl), want)
        assert np.array_equal(model.from_spectrum(model.spectrum(apl)), want)


@pytest.mark.parametrize(
    "lo, hi", [(-0.2, 0.2), (-0.45, 0.45), (-0.9, -0.5), (-1.0, 1.0)]
)
def test_cyclic_adp_model_matches_the_linear_one(lo, hi):
    """The model, whose FFT only spans the part of the sum grid its sums
    read (centred or off to one side), gives fftconvolve's linear
    self-convolution sampled at the sums to round-off, for one apl and
    for a stack of them; it is shorter than fftconvolve's length when the
    sums cover part of the sum grid, and that length when they reach its
    ends."""
    grid = SpectralGrid(P0, 250e9, 512)
    rng = np.random.default_rng(5)
    # no envelope: every lag of the self-convolution carries weight, so
    # any wrap-around would show
    apl = rng.normal(size=(3, 512)) + 1j * rng.normal(size=(3, 512))
    half = _sum_grid(grid).half_span
    sums = 2.0 * P0 + np.linspace(lo * half, hi * half, 129)
    # the interpolation plan's own weights: positions on the sum grid carry
    # round-off of order 1e-9 of a cell at these absolute frequencies
    lo_idx, hi_idx, w_lo, w_hi = _interp_plan(grid, sums)
    conv = np.array([fftconvolve(row, row) for row in apl])
    want = conv[:, lo_idx] * w_lo + conv[:, hi_idx] * w_hi
    model = AdpModel(grid, sums)
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(model(apl[0]), want[0], rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(model(apl), want, rtol=0.0, atol=1e-12 * scale)
    linear_fft = scipy.fft.next_fast_len(2 * 512 - 1)
    if hi - lo < 2.0:
        assert model.n_fft < linear_fft
    else:
        assert model.n_fft == linear_fft


def test_adp_gaussian_closed_form():
    """Self-convolution of a Gaussian doubles the variance:
    conv has width sigma sqrt(2) and peak sigma sqrt(pi)."""
    sigma = 20e9
    grid = SpectralGrid(P0, 300e9, 4096)
    sums = _sum_grid(grid).samples
    adp = AdpModel(grid, sums)(gaussian_field(grid, P0, sigma).values)
    u = sums - 2.0 * P0
    expect = sigma * np.sqrt(np.pi) * np.exp(-(u * u) / (4.0 * sigma * sigma))
    np.testing.assert_allclose(adp.real, expect, rtol=1e-3, atol=1e-4 * expect.max())


def _unit_filters(pump_grid):
    """l_p = l_s = l_i = 1, so that alpha_p * l_p is the pump itself."""
    gs = SpectralGrid(S0, 10e9, 16)
    gi = SpectralGrid(I0, 10e9, 16)
    return (
        Field1D(pump_grid, np.ones(pump_grid.n_points)),
        Field1D(gs, np.ones(16)),
        Field1D(gi, np.ones(16)),
    )


def test_adp_warns_on_truncation():
    grid = SpectralGrid(P0, 30e9, 256)
    with pytest.warns(UserWarning, match="truncated"):
        compute_jsa(
            gaussian_field(grid, P0, 100e9), *_unit_filters(grid), DispersionModel()
        )


def test_adp_rejects_zero_input():
    grid = SpectralGrid(P0, 30e9, 64)
    with pytest.raises(NumericalError):
        compute_jsa(
            Field1D(grid, np.zeros(64)), *_unit_filters(grid), DispersionModel()
        )


def _spectra(c2=-1.0):
    """(pump, l_p, l_s, l_i, dispersion) of a small device.

    The grids are commensurate with the pump grid: output sum frequencies
    land on the self-convolution axis and the mirror points on pump
    nodes, so the ADP route and the pump quadrature evaluate the same
    discrete sum."""
    pump_grid = SpectralGrid(P0, 200e9, 1025)
    spacing = 2.0 * 200e9 / 1024
    half = 32.0 * spacing
    gs = SpectralGrid(S0, half, 65)
    gi = SpectralGrid(I0, half, 65)
    pump = gaussian_field(pump_grid, P0, 25e9)
    l_p = Field1D(
        pump_grid,
        1.0 / (1j * (pump_grid.samples - P0) + 8e9),
    )
    l_s = Field1D(gs, 1.0 / (1j * (gs.samples - S0) + 6e9))
    l_i = Field1D(gi, 1.0 / (1j * (gi.samples - I0) + 6e9))
    disp = DispersionModel(c1=1.0, c2=c2, slope=1e-9, length=7.2e-4)
    return pump, l_p, l_s, l_i, disp


def test_fast_and_slow_paths_agree():
    """ADP-interpolation path against row-wise pump quadrature, 1e-8."""
    fast = compute_jsa(*_spectra())
    slow = oracles.pump_quadrature_jsa(*_spectra())
    scale = np.max(np.abs(fast.amplitude))
    np.testing.assert_allclose(
        fast.amplitude, slow.amplitude, atol=1e-8 * scale
    )


@pytest.mark.parametrize("c2", [-0.5, -0.8, -1.3])
def test_fast_path_exact_for_asymmetric_linear_pmf(c2):
    """A linear PMF with c1 != -c2 is still independent of w_p, so the
    ADP route equals the pump quadrature."""
    fast = compute_jsa(*_spectra(c2))
    slow = oracles.pump_quadrature_jsa(*_spectra(c2))
    scale = np.max(np.abs(fast.amplitude))
    np.testing.assert_allclose(
        fast.amplitude, slow.amplitude, atol=1e-8 * scale
    )


def _two_d_product(n, disp, half=40e9):
    """(pump, l_p, l_s, l_i) of an n^2 device and the JSA computed as
    ADP * PMF * TDSI with the PMF on the full 2-D grid of detunings,
    normalized, the ADP taken on the sum index."""
    pump_grid = SpectralGrid(P0, 5.0 * half, 256)
    gs = SpectralGrid(S0, half, n)
    gi = SpectralGrid(I0, half, n)
    rng = np.random.default_rng(2)
    pump = Field1D(
        pump_grid,
        gaussian_field(pump_grid, P0, 0.625 * half).values
        * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 256)),
    )
    l_p = Field1D(pump_grid, 1.0 / (1j * (pump_grid.samples - P0) + 0.2 * half))
    l_s = Field1D(gs, 1.0 / (1j * (gs.samples - S0) + 0.15 * half))
    l_i = Field1D(gi, 1.0 / (1j * (gi.samples - I0) + 0.15 * half))
    d_s = (gs.samples - S0)[:, None]
    d_i = (gi.samples - I0)[None, :]
    adp = AdpModel(pump_grid, sum_axis(gs, gi)[0])(pump.values * l_p.values)
    want = normalize(
        Jsa(
            gs, gi,
            sliding_window_view(adp, n) * pmf(disp, d_s, d_i)
            * np.outer(l_s.values, l_i.values),
        )
    )
    return (pump, l_p, l_s, l_i), want.amplitude


def test_zero_slope_skips_the_unity_pmf_exactly():
    """With slope 0 the PMF is sinc(0) exp(i 0) = 1, so multiplying by it
    changes no value: the JSA equals ADP * PMF * TDSI, normalized, with the
    ADP taken on the sum index."""
    disp = DispersionModel(c1=1.0, c2=-0.8, slope=0.0, length=7.2e-4)
    spectra, want = _two_d_product(48, disp)
    assert np.array_equal(compute_jsa(*spectra, disp).amplitude, want)


def test_asymmetric_pmf_stays_on_the_two_d_grid():
    """With c1 != -c2 the PMF is not a function of w_s - w_i, and
    compute_jsa evaluates it on the 2-D grid: the JSA equals the 2-D
    product bit for bit."""
    disp = DispersionModel(c1=1.0, c2=-0.8, slope=1e-9, length=7.2e-4)
    spectra, want = _two_d_product(64, disp)
    assert np.array_equal(compute_jsa(*spectra, disp).amplitude, want)


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("c1", [1.0, 0.7])
def test_antisymmetric_pmf_read_on_the_differences(c1, n):
    """With c1 = -c2 compute_jsa takes the PMF at the 2n - 1 differences
    (j - k) dw and reads it through a Toeplitz view.  It agrees with the
    2-D product to 1e-12 of the peak, on even and odd grids.  The span is
    like the presets': the 2-D route's detunings carry the round-off of
    absolute frequencies near 1.2e15 rad/s, under 1e-12 of this span."""
    disp = DispersionModel(c1=c1, c2=-c1, slope=1e-9, length=7.2e-4)
    spectra, want = _two_d_product(n, disp, half=350e9)
    got = compute_jsa(*spectra, disp).amplitude
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n", [64, 65, 128])
def test_flat_filters_give_one_value_per_antidiagonal(n):
    """With l_s = l_i = 1 and slope 0 the JSA is the ADP of w_s + w_i
    alone: every anti-diagonal j + k holds exactly one value, on even and
    odd grid sizes whose sums fall between the sum grid's nodes."""
    pump_grid = SpectralGrid(P0, 200e9, 256)
    gs = SpectralGrid(S0, 40e9, n)
    gi = SpectralGrid(I0, 40e9, n)
    rng = np.random.default_rng(n)
    pump = Field1D(
        pump_grid,
        gaussian_field(pump_grid, P0, 25e9).values
        * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 256)),
    )
    l_p = Field1D(pump_grid, 1.0 / (1j * (pump_grid.samples - P0) + 8e9))
    flat = DispersionModel(c1=1.0, c2=-1.0, slope=0.0, length=7.2e-4)
    amp = compute_jsa(
        pump, l_p, Field1D(gs, np.ones(n)), Field1D(gi, np.ones(n)), flat
    ).amplitude
    # the value of anti-diagonal m, read along the first row and last column
    per_m = np.concatenate([amp[0], amp[1:, -1]])
    assert np.array_equal(amp, sliding_window_view(per_m, n))


def test_compute_jsa_rejects_unequal_signal_and_idler_grids():
    """The ADP is taken on the sum index, which needs signal and idler
    grids of one size and spacing."""
    pump_grid = SpectralGrid(P0, 200e9, 256)
    pump = gaussian_field(pump_grid, P0, 25e9)
    l_p = Field1D(pump_grid, np.ones(256))
    l_s = Field1D(SpectralGrid(S0, 40e9, 48), np.ones(48))
    l_i = Field1D(SpectralGrid(I0, 40e9, 49), np.ones(49))
    with pytest.raises(NumericalError):
        compute_jsa(pump, l_p, l_s, l_i, DispersionModel())


def test_jsa_grid_mismatch_rejected():
    pump_grid = SpectralGrid(P0, 200e9, 256)
    other = SpectralGrid(P0, 100e9, 256)
    pump = gaussian_field(pump_grid, P0, 25e9)
    l_p = gaussian_field(other, P0, 25e9)
    gs = SpectralGrid(S0, 40e9, 16)
    l_s = gaussian_field(gs, S0, 10e9)
    disp = DispersionModel()
    with pytest.raises(Exception, match="grid"):
        compute_jsa(pump, l_p, l_s, l_s, disp)


def centre_diagonals(amplitude):
    """_centre_cut's arguments for an n^2 amplitude: |F[h, h]| and
    |F[h, h + 1]| + |F[h + 1, h]|."""
    node = np.abs(np.diagonal(amplitude))
    cross = np.abs(np.diagonal(amplitude, 1)) + np.abs(np.diagonal(amplitude, -1))
    return node, cross


def full_grid_centre_cut(amplitude):
    """The centre cut read from the whole amplitude array, as _centre_cut
    read it before it took the diagonals."""
    node = np.abs(np.diagonal(amplitude))
    cross = np.abs(np.diagonal(amplitude, 1)) + np.abs(np.diagonal(amplitude, -1))
    cut = np.empty(2 * node.size - 1)
    cut[0::2] = node
    cut[1::2] = 0.25 * (node[:-1] + cross + node[1:])
    return cut


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("kind", [float, complex])
def test_centre_cut_of_the_diagonals_is_the_full_grid_reader(kind, n):
    """The cut from the three centre diagonals equals the full-grid
    reader's bit for bit, on seeded real and complex arrays."""
    rng = np.random.default_rng(n)
    amp = rng.standard_normal((n, n))
    if kind is complex:
        amp = amp + 1j * rng.standard_normal((n, n))
    got = _centre_cut(*centre_diagonals(amp))
    assert got.tobytes() == full_grid_centre_cut(amp).tobytes()


def test_antidiagonal_cut_of_sum_function():
    """For F depending only on w_s + w_i the cut reproduces it exactly."""
    gs = SpectralGrid(S0, 50e9, 129)
    gi = SpectralGrid(I0, 50e9, 129)
    sums = gs.samples[:, None] + gi.samples[None, :]
    sigma = 30e9
    amp = np.exp(-((sums - (S0 + I0)) ** 2) / (2.0 * sigma * sigma))
    jsa = normalize(Jsa(gs, gi, amp))
    _, _, u, _ = sum_axis(gs, gi)
    mag = _centre_cut(*centre_diagonals(jsa.amplitude))
    peak = np.max(np.abs(jsa.amplitude))
    expect = peak * np.exp(-(u * u) / (2.0 * sigma * sigma))
    # even cut samples coincide with grid nodes and are exact; odd
    # samples carry the bilinear interpolation error
    np.testing.assert_allclose(mag[::2], expect[::2], atol=1e-12 * peak)
    np.testing.assert_allclose(mag, expect, atol=2e-3 * peak)


def test_find_cut_minima_prominent_node():
    u = np.linspace(-1.0, 1.0, 2001)
    mag = np.abs(u)                     # sharp node at zero
    minima = find_cut_minima(u, mag)
    assert len(minima) == 1
    assert abs(minima[0]) < 2e-3


def test_find_cut_minima_rejects_shallow_ripple():
    u = np.linspace(-1.0, 1.0, 2001)
    mag = 1.0 + 0.05 * np.cos(8.0 * np.pi * u)
    assert find_cut_minima(u, mag) == []


def _find_cut_minima_loop(u, mag, prominence=0.5):
    """The per-index scan find_cut_minima replaced, kept as its oracle."""
    minima = []
    for i in range(1, len(mag) - 1):
        if mag[i] < mag[i - 1] and mag[i] <= mag[i + 1]:
            left_max = np.max(mag[: i + 1])
            right_max = np.max(mag[i:])
            if mag[i] < prominence * min(left_max, right_max):
                denom = mag[i + 1] - 2.0 * mag[i] + mag[i - 1]
                shift = 0.0
                if denom > 0:
                    shift = 0.5 * (mag[i - 1] - mag[i + 1]) / denom
                    shift = float(np.clip(shift, -0.5, 0.5))
                minima.append(u[i] + shift * (u[i] - u[i - 1]))
    return minima


def _impose_pi_phase_reference(jsa, prominence=0.5):
    """impose_pi_phase as it was: |F| over the whole grid before the cut,
    and a sign field grown from ones by a negated clipped ramp per node."""
    span = 2.0 * min(jsa.grid_s.half_span, jsa.grid_i.half_span)
    n_cut = 2 * max(jsa.grid_s.n_points, jsa.grid_i.n_points) - 1
    u = np.linspace(-span, span, n_cut)
    mag = oracles.bilinear(
        np.abs(jsa.amplitude), jsa.grid_s, jsa.grid_i,
        jsa.grid_s.center + u / 2.0, jsa.grid_i.center + u / 2.0,
    )
    minima = _find_cut_minima_loop(u, mag, prominence)
    if not minima:
        return jsa
    sums = (
        jsa.grid_s.samples[:, None] + jsa.grid_i.samples[None, :]
        - (jsa.grid_s.center + jsa.grid_i.center)
    )
    cell = jsa.grid_s.spacing + jsa.grid_i.spacing
    signs = np.ones_like(sums)
    for u_min in minima:
        signs *= -np.clip((sums - u_min) / cell, -1.0, 1.0)
    return Jsa(jsa.grid_s, jsa.grid_i, jsa.amplitude * signs, jsa.normalized)


def _seeded_cut_profiles():
    """Cut-like profiles with plateaus, equal neighbours and deep nodes."""
    rng = np.random.default_rng(11)
    u = np.linspace(-1.0, 1.0, 257)
    profiles = []
    for _ in range(20):
        # coarse integer levels: runs of equal values everywhere
        profiles.append(rng.integers(0, 6, 257).astype(float))
        # smooth nodes, quantized so flats and ties form around them
        nodes = rng.uniform(-0.8, 0.8, rng.integers(1, 5))
        smooth = np.abs(np.prod(u[:, None] - nodes[None, :], axis=1))
        smooth *= np.exp(-u * u / rng.uniform(0.1, 0.5))
        profiles.append(np.round(smooth / smooth.max(), rng.integers(1, 4)))
        # plateaus of repeated samples around random dips
        steps = np.repeat(rng.uniform(0.0, 1.0, 33), 8)[:257]
        profiles.append(np.concatenate([steps, np.full(257 - steps.size, steps[-1])]))
    return u, profiles


def test_find_cut_minima_matches_the_loop_on_ties_and_plateaus():
    u, profiles = _seeded_cut_profiles()
    found = 0
    for mag in profiles:
        want = _find_cut_minima_loop(u, mag)
        got = find_cut_minima(u, mag)
        assert got == want
        assert [type(m) for m in got] == [type(m) for m in want]
        found += len(want)
    assert found > 50


@pytest.mark.parametrize("n_nodes", [1, 2, 3])
def test_impose_pi_phase_matches_the_full_grid_version(n_nodes):
    """Same minima, same signs: the sign field over the sum index and the
    cut from the three centre diagonals move the reported state by
    round-off of the absolute sum frequencies only."""
    gs = SpectralGrid(S0, 50e9, 129)
    gi = SpectralGrid(I0, 50e9, 129)
    sums = gs.samples[:, None] + gi.samples[None, :] - (S0 + I0)
    d_s = (gs.samples - S0)[:, None]
    d_i = (gi.samples - I0)[None, :]
    rng = np.random.default_rng(n_nodes)
    nodes = rng.uniform(-40e9, 40e9, n_nodes)
    field = np.prod(sums[..., None] - nodes, axis=-1) * np.exp(
        -(sums**2) / (4.0 * (20e9) ** 2) - (d_s**2 + d_i**2) / (2.0 * (15e9) ** 2)
    )
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, field.shape))
    for jsa in (
        normalize(Jsa(gs, gi, np.abs(field))),
        normalize(Jsa(gs, gi, field * phase)),
    ):
        want = _impose_pi_phase_reference(jsa)
        got = impose_pi_phase(jsa)
        assert want is not jsa
        assert got.amplitude.dtype == want.amplitude.dtype
        peak = np.max(np.abs(want.amplitude))
        np.testing.assert_allclose(got.amplitude, want.amplitude, rtol=0, atol=1e-8 * peak)


@pytest.mark.parametrize(
    "gi", [SpectralGrid(I0, 50e9, 97), SpectralGrid(I0, 40e9, 129)],
    ids=["size", "spacing"],
)
def test_impose_pi_phase_rejects_unequal_grids(gi):
    """The sign field is a function of j + k only on grids of one size and
    spacing."""
    gs = SpectralGrid(S0, 50e9, 129)
    jsa = normalize(Jsa(gs, gi, np.ones((gs.n_points, gi.n_points))))
    with pytest.raises(NumericalError, match="size and spacing"):
        impose_pi_phase(jsa)


def test_impose_pi_phase_identity_without_minima():
    gs = SpectralGrid(S0, 50e9, 65)
    gi = SpectralGrid(I0, 50e9, 65)
    f0s = hg_mode(0, gs, 10e9).values
    f0i = hg_mode(0, gi, 10e9).values
    jsa = normalize(Jsa(gs, gi, np.outer(f0s, f0i)))
    out = impose_pi_phase(jsa)
    np.testing.assert_allclose(out.amplitude, jsa.amplitude, atol=1e-15)


def test_impose_pi_phase_recovers_sum_coordinate_node():
    """A field with a sign change across one anti-diagonal is recovered
    (up to global sign) from its magnitude."""
    sigma = 12e9
    gs = SpectralGrid(S0, 50e9, 257)
    gi = SpectralGrid(I0, 50e9, 257)
    sums = gs.samples[:, None] + gi.samples[None, :] - (S0 + I0)
    d_s = (gs.samples - S0)[:, None]
    d_i = (gi.samples - I0)[None, :]
    signed = (
        sums
        * np.exp(-(sums**2) / (4.0 * sigma * sigma))
        * np.exp(-(d_s**2 + d_i**2) / (2.0 * sigma * sigma))
    )
    reference = normalize(Jsa(gs, gi, signed))
    out = impose_pi_phase(normalize(Jsa(gs, gi, np.abs(signed))))
    cell = gs.spacing * gi.spacing
    overlap = np.sum(np.conj(reference.amplitude) * out.amplitude) * cell
    assert abs(overlap) > 0.999


def _save(jsa, bin_path, meta_path):
    """jsa.bin and its sidecar jsa.json, as simulate writes them."""
    with open(bin_path, "wb") as fh:
        save_jsa_binary(jsa, fh)
    with open(meta_path, "w") as fh:
        save_jsa_sidecar(jsa, fh)


def test_save_load_binary_round_trip(tmp_path):
    gs = SpectralGrid(S0, 40e9, 33)
    gi = SpectralGrid(I0, 40e9, 17)
    rng = np.random.default_rng(5)
    jsa = normalize(
        Jsa(gs, gi, rng.normal(size=(33, 17)) + 1j * rng.normal(size=(33, 17)))
    )
    bin_path = tmp_path / "jsa.bin"
    meta_path = tmp_path / "jsa.json"
    _save(jsa, bin_path, meta_path)
    back = load_jsa_binary(str(bin_path), str(meta_path))
    np.testing.assert_allclose(back.amplitude, jsa.amplitude, atol=0)
    assert back.grid_s == jsa.grid_s
    assert back.grid_i == jsa.grid_i
    assert back.normalized


@pytest.mark.parametrize("dtype", [float, complex])
def test_save_binary_bytes_follow_documented_layout(tmp_path, dtype):
    """jsa.bin holds little-endian float64 (re, im) pairs, row-major over
    (idler, signal), the signal index varying fastest."""
    gs = SpectralGrid(S0, 40e9, 5)
    gi = SpectralGrid(I0, 40e9, 3)
    rng = np.random.default_rng(8)
    amp = rng.normal(size=(5, 3)).astype(dtype)
    if dtype is complex:
        amp += 1j * rng.normal(size=(5, 3))
    jsa = Jsa(gs, gi, amp)
    bin_path = tmp_path / "jsa.bin"
    meta_path = tmp_path / "jsa.json"
    _save(jsa, bin_path, meta_path)
    want = b"".join(
        struct.pack("<dd", amp[k, j].real, amp[k, j].imag)
        for j in range(3)
        for k in range(5)
    )
    assert bin_path.read_bytes() == want
    meta = json.loads(meta_path.read_text())
    assert meta["dtype"] == "<f8"
    assert meta["shape"] == [3, 5, 2]


@pytest.mark.parametrize("kind", ["real", "complex", "negated real"])
def test_save_binary_matches_the_interleaved_staging_array(tmp_path, kind):
    """jsa.bin holds the bytes of an (idler, signal, 2) '<f8' array of
    (re, im) pairs, the signal index fastest, for real amplitudes (whose
    imaginary parts are written as +0.0), complex ones and negated real
    ones (whose zeros are -0.0)."""
    gs = SpectralGrid(S0, 40e9, 37)
    gi = SpectralGrid(I0, 40e9, 29)
    rng = np.random.default_rng(11)
    amp = rng.normal(size=(37, 29))
    amp[::5, ::3] = 0.0
    if kind == "complex":
        amp = amp + 1j * rng.normal(size=(37, 29))
    elif kind == "negated real":
        amp = -amp
    jsa = Jsa(gs, gi, amp)
    staged = np.empty((29, 37, 2))
    staged[:, :, 0] = jsa.amplitude.real.T
    staged[:, :, 1] = jsa.amplitude.imag.T
    bin_path = tmp_path / "jsa.bin"
    with open(bin_path, "wb") as fh:
        save_jsa_binary(jsa, fh)
    assert bin_path.read_bytes() == staged.astype("<f8").tobytes()
