"""JSA assembly, anti-diagonal machinery, and export formats."""

import json
import struct

import numpy as np
import pytest
from scipy.signal import fftconvolve

import oracles
from tfm_synth.jsa import (
    AdpModel,
    DegenerateFieldError,
    Jsa,
    _bilinear,
    _interp_plan,
    _sum_grid,
    antidiagonal_cut,
    compute_jsa,
    find_cut_minima,
    impose_pi_phase,
    load_jsa_binary,
    normalize,
    save_jsa_binary,
    save_jsa_sidecar,
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
    with pytest.raises(DegenerateFieldError):
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
    """A cyclic model, whose FFT only spans the part of the sum grid its
    sums read (centred or off to one side), gives the linear model's ADP
    to round-off, for one apl and for a stack of them; it is shorter when
    the sums cover part of the sum grid, and fftconvolve's length when
    they reach its ends."""
    grid = SpectralGrid(P0, 250e9, 512)
    rng = np.random.default_rng(5)
    # no envelope: every lag of the self-convolution carries weight, so
    # any wrap-around would show
    apl = rng.normal(size=(3, 512)) + 1j * rng.normal(size=(3, 512))
    half = _sum_grid(grid).half_span
    sums = 2.0 * P0 + np.linspace(lo * half, hi * half, 129)
    linear = AdpModel(grid, sums)
    cyclic = AdpModel(grid, sums, cyclic=True)
    want = np.array([linear(row) for row in apl])
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(
        cyclic(apl[0]), want[0], rtol=0.0, atol=1e-12 * scale
    )
    np.testing.assert_allclose(cyclic(apl), want, rtol=0.0, atol=1e-12 * scale)
    if hi - lo < 2.0:
        assert cyclic.n_fft < linear.n_fft
    else:
        assert cyclic.n_fft == linear.n_fft


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
    with pytest.raises(DegenerateFieldError):
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


def test_zero_slope_skips_the_unity_pmf_exactly():
    """With slope 0 the PMF is sinc(0) exp(i 0) = 1, so leaving it out
    changes no value: the JSA equals ADP * PMF * TDSI, normalized."""
    pump_grid = SpectralGrid(P0, 200e9, 256)
    gs = SpectralGrid(S0, 40e9, 48)
    gi = SpectralGrid(I0, 40e9, 48)
    rng = np.random.default_rng(2)
    pump = Field1D(
        pump_grid,
        gaussian_field(pump_grid, P0, 25e9).values
        * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 256)),
    )
    l_p = Field1D(pump_grid, 1.0 / (1j * (pump_grid.samples - P0) + 8e9))
    l_s = Field1D(gs, 1.0 / (1j * (gs.samples - S0) + 6e9))
    l_i = Field1D(gi, 1.0 / (1j * (gi.samples - I0) + 6e9))
    disp = DispersionModel(c1=1.0, c2=-0.8, slope=0.0, length=7.2e-4)
    d_s = (gs.samples - S0)[:, None]
    d_i = (gi.samples - I0)[None, :]
    sums = gs.samples[:, None] + gi.samples[None, :]
    adp = AdpModel(pump_grid, sums)(pump.values * l_p.values)
    want = normalize(
        Jsa(gs, gi, adp * pmf(disp, d_s, d_i) * np.outer(l_s.values, l_i.values))
    )
    got = compute_jsa(pump, l_p, l_s, l_i, disp)
    assert np.array_equal(got.amplitude, want.amplitude)


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


def test_antidiagonal_cut_of_sum_function():
    """For F depending only on w_s + w_i the cut reproduces it exactly."""
    gs = SpectralGrid(S0, 50e9, 129)
    gi = SpectralGrid(I0, 50e9, 129)
    sums = gs.samples[:, None] + gi.samples[None, :]
    sigma = 30e9
    amp = np.exp(-((sums - (S0 + I0)) ** 2) / (2.0 * sigma * sigma))
    jsa = normalize(Jsa(gs, gi, amp))
    u, mag = antidiagonal_cut(jsa)
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
    mag = _bilinear(
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
def test_impose_pi_phase_matches_the_full_grid_version_bitwise(n_nodes):
    """Same minima, same signs: the reported state is byte-identical."""
    gs = SpectralGrid(S0, 50e9, 129)
    gi = SpectralGrid(I0, 50e9, 97)
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
        assert np.array_equal(got.amplitude, want.amplitude)


def test_impose_pi_phase_identity_without_minima():
    gs = SpectralGrid(S0, 50e9, 65)
    gi = SpectralGrid(I0, 50e9, 65)
    f0s = hg_mode(0, gs, S0, 10e9).values
    f0i = hg_mode(0, gi, I0, 10e9).values
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
