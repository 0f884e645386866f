"""Joint spectral amplitude assembly.

The JSA of the ring-resonator SFWM source factorizes into three pieces:
an anti-diagonal pump function ADP(w_s + w_i) (self-convolution of the
resonance-filtered pump), a phase-matching function, and the rank-1
signal-idler filter TDSI(w_s, w_i) = l_s(w_s) l_i(w_i).  The linearized
PMF does not depend on the pump frequency, whatever c1 and c2, so the
pump integral reduces to ADP(w_s + w_i) times the PMF.  On equal signal
and idler grids the ADP is a function of the sum index m = j + k alone:
it is taken at the 2n - 1 sums and read on the 2-D grid through a
Hankel view.  With c1 = -c2 the PMF is a function of w_s - w_i, so of
the difference index j - k alone: it is taken at the 2n - 1 differences
and read through the mirror Toeplitz view; other (c1, c2) take it on the
2-D grid.  At 512^2 this cuts a traced forward compute_jsa from 8.3 to
1.7 ms (2-vCPU VM).  The per-row pump integral is kept in
tests/oracles.py as the reference for this route.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError
from .phase_matching import DispersionModel, pmf
from .spectral import Field1D, SpectralGrid


# alpha_p * l_p above this fraction of its peak at a grid edge truncates
# the self-convolution
_EDGE_THRESHOLD = 1e-4
# a cut minimum is a node when it lies below this fraction of the lower of
# its two flanking maxima
_PROMINENCE = 0.5


@dataclass(frozen=True)
class Jsa:
    """Joint spectral amplitude on a (signal, idler) grid pair.

    A real amplitude is stored as float64, anything else as complex.
    """

    grid_s: SpectralGrid
    grid_i: SpectralGrid
    amplitude: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.amplitude) else float
        amp = np.asarray(self.amplitude, dtype=dtype)
        if amp.shape != (self.grid_s.n_points, self.grid_i.n_points):
            raise NumericalError(
                f"amplitude shape {amp.shape} does not match grids "
                f"({self.grid_s.n_points}, {self.grid_i.n_points})"
            )
        if not np.all(np.isfinite(amp)):
            raise NumericalError("JSA contains non-finite entries")
        object.__setattr__(self, "amplitude", amp)

    @property
    def cell_area(self) -> float:
        return self.grid_s.spacing * self.grid_i.spacing

    def norm_squared(self) -> float:
        mag2 = np.abs(self.amplitude)
        mag2 *= mag2
        return float(np.sum(mag2) * self.cell_area)


def normalize(jsa: Jsa, in_place: bool = False) -> Jsa:
    """Scale so that sum |F|^2 dw_s dw_i = 1.

    in_place scales jsa's own amplitude array, for a Jsa just built
    around a fresh array that nothing else holds.
    """
    n2 = jsa.norm_squared()
    if n2 == 0.0:
        raise NumericalError("cannot normalize an all-zero JSA")
    # the reciprocal rounds a real amplitude exactly as numpy's complex
    # division rounds the same values held as complex
    scale = 1.0 / np.sqrt(n2)
    if in_place:
        amp = jsa.amplitude
        amp *= scale
    else:
        amp = jsa.amplitude * scale
    return Jsa(jsa.grid_s, jsa.grid_i, amp, normalized=True)


def _sum_grid(grid: SpectralGrid) -> SpectralGrid:
    """Grid of the self-convolution of samples on grid: 2n-1 points, same
    spacing, centered at twice the input center."""
    return SpectralGrid(2.0 * grid.center, 2.0 * grid.half_span, 2 * grid.n_points - 1)


def next_fast_len(target: int) -> int:
    """The smallest n >= target whose prime factors are all among 2, 3, 5,
    7 and 11: the lengths pocketfft transforms fastest, as
    scipy.fft.next_fast_len picks them for complex input (1 for 0)."""
    n = max(target, 1)
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _interp_plan(grid: SpectralGrid, sums: np.ndarray):
    """Linear interpolation on the sum-frequency grid of a self-convolution
    on grid, at the absolute sum frequencies sums, as (lo, hi, w_lo, w_hi):
    the sample at sums is conv[lo] w_lo + conv[hi] w_hi, zero beyond the
    sum-frequency grid.  The weights carry the quadrature weight dw."""
    sum_grid = _sum_grid(grid)
    axis = sum_grid.samples
    pos = (sums - axis[0]) / sum_grid.spacing
    # truncation is floor wherever the clip keeps it
    lo = np.clip(pos.astype(np.intp), 0, sum_grid.n_points - 2)
    w_hi = pos - lo
    w_lo = (1.0 - w_hi) * grid.spacing
    w_hi *= grid.spacing
    outside = (sums < axis[0]) | (sums > axis[-1])
    w_lo[outside] = 0.0
    w_hi[outside] = 0.0
    return lo, lo + 1, w_lo, w_hi


class AdpModel:
    """The anti-diagonal pump function as a map alpha_p * l_p -> ADP(sums).

    The model self-convolves alpha_p * l_p samples on grid (grid
    quadrature weight included, so the result approximates the
    continuous convolution) and samples it at the absolute sum
    frequencies sums, linearly interpolated and zero beyond the
    sum-frequency grid.  The FFT length and the interpolation's indices
    and weights are built once.  The length is the shortest whose cyclic
    self-convolution has no wrap-around at the samples it reads: where
    the sums reach an end of the sum grid that is fftconvolve's length
    for complex input, and a call equals fftconvolve(apl, apl) sampled
    at sums bit for bit; sums over part of the sum grid give the same
    ADP, to round-off, from shorter transforms.  Input already
    zero-padded to n_fft samples transforms without a copy.
    model(apl) is model.from_spectrum(model.spectrum(apl)); from_spectrum and
    derivative(spectrum, d_apl) can share one spectrum, as the inverse
    fit's residual and Jacobian do at one search point.  The model
    checks nothing, so the fit can call it in its residual; compute_jsa
    and the inverse loop's trial score check their input with
    _check_adp_input.
    """

    def __init__(self, grid: SpectralGrid, sums: np.ndarray):
        self._lo, self._hi, self._w_lo, self._w_hi = _interp_plan(grid, sums)
        # conv[k - L] and conv[k + L] fall outside the linear
        # self-convolution's 2n - 1 samples for each k read
        n_conv = 2 * grid.n_points - 1
        need = max(grid.n_points, self._hi.max() + 1, n_conv - self._lo.min())
        self.n_fft = next_fast_len(int(need))

    def spectrum(self, apl: np.ndarray) -> np.ndarray:
        """FFT of alpha_p * l_p, zero-padded to the self-convolution."""
        return fft(apl, self.n_fft)

    def __call__(self, apl: np.ndarray) -> np.ndarray:
        """ADP(sums) of alpha_p * l_p."""
        return self.from_spectrum(self.spectrum(apl))

    def from_spectrum(self, spectrum: np.ndarray) -> np.ndarray:
        """ADP(sums) of the alpha_p * l_p whose spectrum is given; a stack
        of spectra, one per row, gives one ADP per row."""
        return self._sample(ifft(spectrum * spectrum))

    def derivative(self, spectrum: np.ndarray, d_apl: np.ndarray) -> np.ndarray:
        """Directional derivatives dADP(sums) = interp(2 apl * d_apl) dw.

        spectrum is self.spectrum(apl) and d_apl a stack of directions,
        one per row; every row comes from one batched FFT of the
        directions and the model's interpolation plan.  Stacked spectra
        of several apl broadcast against stacked direction sets.
        """
        spec = fft(d_apl, self.n_fft, axis=-1)
        # the factor 2 is exact in binary floating point
        spec *= 2.0 * spectrum
        return self._sample(ifft(spec, axis=-1, out=spec))

    def _sample(self, conv: np.ndarray) -> np.ndarray:
        """The interpolation at sums along the last axis of conv, in C
        order (an index on the last axis alone would leave a stack with
        that axis outermost in memory)."""
        lower = np.take(conv, self._lo, axis=-1) * self._w_lo
        return lower + np.take(conv, self._hi, axis=-1) * self._w_hi


def _check_adp_input(values: np.ndarray) -> None:
    """Reject an all-zero alpha_p * l_p; warn when it is not negligible at
    the grid edges."""
    peak = np.max(np.abs(values))
    if peak == 0.0:
        raise NumericalError("alpha_p * l_p is identically zero")
    edge = max(abs(values[0]), abs(values[-1]))
    if edge > _EDGE_THRESHOLD * peak:
        warnings.warn(
            f"input not negligible at grid edges ({edge / peak:.3g} of peak); "
            "the self-convolution is truncated"
        )


def compute_jsa(
    pump: Field1D,
    l_p: Field1D,
    l_s: Field1D,
    l_i: Field1D,
    dispersion: DispersionModel,
) -> Jsa:
    """Assemble and normalize the JSA from its constituent spectra.

    pump and l_p must share one grid (the pump integration grid); l_s and
    l_i define the output grid, whose signal and idler halves must share
    size and spacing (sum_axis).  alpha_p * l_p = pump * l_p is rejected
    when all zero and warned about when it is not negligible at the grid
    edges.  The JSA is normalize(ADP(w_s + w_i) PMF(w_s, w_i) TDSI): the
    ADP at the 2n - 1 sum frequencies of sum_axis (AdpModel), read as
    ADP[j + k] on the grid, the PMF and the TDSI l_s(w_s) l_i(w_i).  With
    c1 = -c2 the PMF is taken at the 2n - 1 index differences
    d = (j - k) dw and read as P[j - k + n - 1] through a zero-copy
    Toeplitz view; other (c1, c2) evaluate it on the n^2 grid.
    """
    if pump.grid != l_p.grid:
        raise NumericalError("pump and l_p must share the same grid")
    grid_s, grid_i = l_s.grid, l_i.grid
    sums = sum_axis(grid_s, grid_i)[0]
    apl = pump.values * l_p.values
    _check_adp_input(apl)
    n = grid_s.n_points
    if dispersion.c1 == -dispersion.c2:
        # c1 dw_s + c2 dw_i = c1 (dw_s - dw_i) = c1 (j - k) dw on grids of
        # one spacing
        p = pmf(dispersion, np.arange(1 - n, n) * grid_s.spacing, 0.0)
        phase = sliding_window_view(p[::-1], n)[::-1]
    else:
        phase = pmf(
            dispersion,
            (grid_s.samples - grid_s.center)[:, None],
            (grid_i.samples - grid_i.center)[None, :],
        )
    # ADP * PMF * TDSI in that operand order (numpy's complex product is
    # not bitwise commutative); the ADP over m enters through a zero-copy
    # Hankel view
    amp = sliding_window_view(AdpModel(pump.grid, sums)(apl), n) * phase
    amp *= np.outer(l_s.values, l_i.values)
    return normalize(Jsa(grid_s, grid_i, amp), in_place=True)


def sum_axis(grid_s: SpectralGrid, grid_i: SpectralGrid):
    """The 2n - 1 sum indices m = j + k of an n^2 signal/idler grid pair,
    as (sums, offsets, u, cell).

    Equal sizes and spacings, which build_grids always gives, make
    w_s + w_i a function of m alone; other grids are a NumericalError.  sums
    is w_s + w_i at m's node nearest the diagonal, (m // 2, m - m // 2),
    and offsets its distance from w_s0 + w_i0.  u is the centre cut's
    axis, the same offsets evenly spaced, and cell = dw_s + dw_i the
    half-width of the pi flip's ramp.
    """
    n = grid_s.n_points
    if grid_i.n_points != n or grid_i.spacing != grid_s.spacing:
        raise NumericalError("signal and idler grids must share size and spacing")
    m = np.arange(2 * n - 1)
    sums = grid_s.samples[m // 2] + grid_i.samples[m - m // 2]
    offsets = sums - (grid_s.center + grid_i.center)
    u = np.linspace(-2.0 * grid_s.half_span, 2.0 * grid_s.half_span, 2 * n - 1)
    return sums, offsets, u, grid_s.spacing + grid_i.spacing


def find_cut_minima(u, mag):
    """Interior local minima of the cut profile that pass the prominence rule.

    A minimum qualifies if its magnitude is below _PROMINENCE times the
    smaller of the two neighboring local maxima (grid edges count as
    maxima), which rejects shallow numerical ripples.
    """
    mag = np.asarray(mag)
    # local minima: below the left neighbour, not above the right one
    inner = mag[1:-1]
    candidates = np.flatnonzero((inner < mag[:-2]) & (inner <= mag[2:])) + 1
    if candidates.size == 0:
        return []
    left_max = np.maximum.accumulate(mag)[candidates]
    right_max = np.maximum.accumulate(mag[::-1])[::-1][candidates]
    minima = []
    for i in candidates[mag[candidates] < _PROMINENCE * np.minimum(left_max, right_max)]:
        # parabolic refinement keeps the location stable under changes
        # of grid resolution
        denom = mag[i + 1] - 2.0 * mag[i] + mag[i - 1]
        shift = 0.0
        if denom > 0:
            shift = 0.5 * (mag[i - 1] - mag[i + 1]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
        minima.append(u[i] + shift * (u[i] - u[i - 1]))
    return minima


def flip_signs(values, u, cut, offsets, cell):
    """Multiply values, an array over the sum index m, in place by the pi
    flips of the centre cut (sum_axis gives u, offsets and cell); returns
    the nodes find_cut_minima found on the cut.

    Each node u_min contributes the clipped ramp (offset - u_min) / cell,
    negated; the ramps multiply in node order, the negation of their
    product last.
    """
    minima = find_cut_minima(u, cut)
    for u_min in minima:
        values *= np.clip((offsets - u_min) / cell, -1.0, 1.0)
    if len(minima) % 2:
        np.negative(values, out=values)
    return minima


def _centre_cut(node: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """|F| along the centre cut w_s - w_i = w_s0 - w_i0 of an n^2 grid, at
    sum_axis's u, from its three centre diagonals: node = |F[h, h]| and
    cross = |F[h, h + 1]| + |F[h + 1, h]|.  Node (h, h) is the even
    sample 2h, the mean of the four corners of cell (h, h) the odd
    sample 2h + 1.  impose_pi_phase and the inverse loop's trial score
    both read the cut here."""
    cut = np.empty(2 * node.size - 1)
    cut[0::2] = node
    cut[1::2] = 0.25 * (node[:-1] + cross + node[1:])
    return cut


def impose_pi_phase(jsa: Jsa) -> Jsa:
    """Impose a pi phase flip at each magnitude minimum along the anti-diagonal.

    The field is multiplied by a sign field of the sum index m = j + k
    alone, one factor per anti-diagonal: (-1)^(number of nodes below
    w_s + w_i), the nodes being the prominent minima of |F| along the
    centre cut, which _centre_cut reads from |F|'s three centre
    diagonals.  Within +-(dw_s + dw_i) of a node, four anti-diagonals,
    the sign crosses zero linearly (flip_signs), which reproduces the
    node of the field there and keeps the Schmidt spectrum stable under
    grid refinement.  The signal and idler grids must share size and
    spacing (sum_axis).  The flipped field is a new Jsa; with no
    detected minima jsa itself is returned.
    """
    _, offsets, u, cell = sum_axis(jsa.grid_s, jsa.grid_i)
    amp = jsa.amplitude
    cut = _centre_cut(
        np.abs(np.diagonal(amp)),
        np.abs(np.diagonal(amp, 1)) + np.abs(np.diagonal(amp, -1)),
    )
    signs = np.ones(u.size)
    if not flip_signs(signs, u, cut, offsets, cell):
        return jsa
    # a zero-copy Hankel view: signs over m read as signs[j + k] on the grid
    hankel = sliding_window_view(signs, jsa.grid_s.n_points)
    return Jsa(jsa.grid_s, jsa.grid_i, amp * hankel, jsa.normalized)


# ---------------------------------------------------------------------------
# export

def save_jsa_binary(jsa: Jsa, fh) -> None:
    """Raw dump to the binary file fh: little-endian float64 (re, im)
    pairs, row-major over (idler, signal) so the signal index varies
    fastest.  save_jsa_sidecar writes the grids and layout."""
    np.ascontiguousarray(jsa.amplitude.T, dtype="<c16").tofile(fh)


def save_jsa_sidecar(jsa: Jsa, fh) -> None:
    """The JSON sidecar of save_jsa_binary's dump, to the text file fh."""
    sidecar = {
        "dtype": "<f8",
        "layout": "row-major (idler, signal, re/im); signal index fastest",
        "shape": [jsa.grid_i.n_points, jsa.grid_s.n_points, 2],
        "normalized": jsa.normalized,
        "units": "rad/s",
        "grid_signal": {
            "center": jsa.grid_s.center,
            "half_span": jsa.grid_s.half_span,
            "n_points": jsa.grid_s.n_points,
        },
        "grid_idler": {
            "center": jsa.grid_i.center,
            "half_span": jsa.grid_i.half_span,
            "n_points": jsa.grid_i.n_points,
        },
    }
    json.dump(sidecar, fh, indent=2)


def load_jsa_binary(bin_path: str, sidecar_path: str) -> Jsa:
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    shape = tuple(meta["shape"])
    raw = np.fromfile(bin_path, dtype="<f8").reshape(shape)
    amp = (raw[:, :, 0] + 1j * raw[:, :, 1]).T
    gs = meta["grid_signal"]
    gi = meta["grid_idler"]
    return Jsa(
        SpectralGrid(gs["center"], gs["half_span"], gs["n_points"]),
        SpectralGrid(gi["center"], gi["half_span"], gi["n_points"]),
        amp,
        normalized=meta["normalized"],
    )
