"""Joint spectral amplitude assembly.

The JSA of the ring-resonator SFWM source factorizes into three pieces:
an anti-diagonal pump function ADP(w_s + w_i) (self-convolution of the
resonance-filtered pump), a phase-matching function, and the rank-1
signal-idler filter TDSI(w_s, w_i) = l_s(w_s) l_i(w_i).  The linearized
PMF does not depend on the pump frequency, whatever c1 and c2, so the
pump integral reduces to ADP(w_s + w_i) times the PMF and the JSA is
assembled directly on the 2-D grid.  The per-row pump integral is kept
in tests/oracles.py as the reference for this route.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .phase_matching import DispersionModel, pmf
from .spectral import Field1D, GridError, SpectralGrid


# alpha_p * l_p above this fraction of its peak at a grid edge truncates
# the self-convolution
_EDGE_THRESHOLD = 1e-4
# a cut minimum is a node when it lies below this fraction of the lower of
# its two flanking maxima
_PROMINENCE = 0.5


class DegenerateFieldError(ValueError):
    """All-zero amplitude where a nonzero field is required."""


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
            raise GridError(
                f"amplitude shape {amp.shape} does not match grids "
                f"({self.grid_s.n_points}, {self.grid_i.n_points})"
            )
        if not np.all(np.isfinite(amp)):
            raise GridError("JSA contains non-finite entries")
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
        raise DegenerateFieldError("cannot normalize an all-zero JSA")
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


def _interp_plan(grid: SpectralGrid, sums: np.ndarray):
    """Linear interpolation on the sum-frequency grid of a self-convolution
    on grid, at the absolute sum frequencies sums, as (lo, hi, w_lo, w_hi):
    the sample at sums is conv[lo] w_lo + conv[hi] w_hi, zero beyond the
    sum-frequency grid.  The weights carry the quadrature weight dw."""
    sum_grid = _sum_grid(grid)
    axis = sum_grid.samples
    # in place: this runs once per simulate on the full signal/idler grid
    pos = sums - axis[0]
    pos /= sum_grid.spacing
    # truncation is floor wherever the clip keeps it
    lo = pos.astype(np.intp)
    np.clip(lo, 0, sum_grid.n_points - 2, out=lo)
    w_hi = pos
    w_hi -= lo
    w_lo = 1.0 - w_hi
    w_lo *= grid.spacing
    w_hi *= grid.spacing
    if sums.min() < axis[0] or sums.max() > axis[-1]:
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
    and weights are built once, with one scratch buffer, so a model must
    not be called from two threads at once.  Input already zero-padded to
    n_fft samples transforms without a copy.  A cyclic model takes the
    shortest FFT whose cyclic self-convolution has no wrap-around at the
    samples it reads: its ADP is the same function, to round-off, from
    shorter transforms when the sums cover only part of the sum grid.
    model(apl) is model.from_spectrum(model.spectrum(apl)); from_spectrum and
    derivative(spectrum, d_apl) can share one spectrum, as the inverse
    fit's residual and Jacobian do at one search point.  The model
    checks nothing, so the fit can call it in its residual; compute_jsa
    and the inverse loop's trial score check their input with
    _check_adp_input.
    """

    def __init__(self, grid: SpectralGrid, sums: np.ndarray, cyclic: bool = False):
        n_conv = _sum_grid(grid).n_points
        self._lo, self._hi, self._w_lo, self._w_hi = _interp_plan(grid, sums)
        if cyclic:
            # the shortest length whose cyclic self-convolution equals the
            # linear one at every index read: conv[k - L] and conv[k + L]
            # fall outside the linear one's n_conv samples for each k read
            need = max(grid.n_points, self._hi.max() + 1, n_conv - self._lo.min())
            self.n_fft = next_fast_len(int(need))
        else:
            # fftconvolve's length for complex input, so that a model call
            # equals fftconvolve(apl, apl) sampled at sums bit for bit
            self.n_fft = next_fast_len(n_conv)
        # on a signal/idler grid every temporary is a full array: gather and
        # weigh in place, the upper neighbours in a buffer kept across calls
        self._upper = np.empty(np.shape(sums), dtype=complex)

    def spectrum(self, apl: np.ndarray) -> np.ndarray:
        """FFT of alpha_p * l_p, zero-padded to the self-convolution."""
        return fft(apl, self.n_fft)

    def __call__(self, apl: np.ndarray) -> np.ndarray:
        """ADP(sums) of alpha_p * l_p."""
        return self.from_spectrum(self.spectrum(apl))

    def from_spectrum(self, spectrum: np.ndarray) -> np.ndarray:
        """ADP(sums) of the alpha_p * l_p whose spectrum is given; a stack
        of spectra, one per row, gives one ADP per row."""
        conv = ifft(spectrum * spectrum)
        if conv.ndim > 1:
            return self._sample(conv)
        out = np.take(conv, self._lo)
        out *= self._w_lo
        upper = self._upper
        np.take(conv, self._hi, out=upper)
        out += np.multiply(upper, self._w_hi, out=upper)
        return out

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
        return self._sample(ifft(spec, axis=-1, overwrite_x=True))

    def _sample(self, conv: np.ndarray) -> np.ndarray:
        """The interpolation at sums along the last axis of conv, in C
        order (an index on the last axis alone would leave a stack with
        that axis outermost in memory)."""
        lower = np.take(conv, self._lo, axis=-1)
        lower *= self._w_lo
        upper = np.take(conv, self._hi, axis=-1)
        upper *= self._w_hi
        lower += upper
        return lower


def _check_adp_input(values: np.ndarray) -> None:
    """Reject an all-zero alpha_p * l_p; warn when it is not negligible at
    the grid edges."""
    peak = np.max(np.abs(values))
    if peak == 0.0:
        raise DegenerateFieldError("alpha_p * l_p is identically zero")
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
    l_i define the output grid.  alpha_p * l_p = pump * l_p is rejected
    when all zero and warned about when it is not negligible at the grid
    edges.  The JSA is normalize(ADP(w_s + w_i) PMF(w_s, w_i) TDSI): the
    ADP at the sum frequencies w_s + w_i (AdpModel), the PMF, left out
    when a zero slope makes it unity, and the TDSI l_s(w_s) l_i(w_i).
    """
    if pump.grid != l_p.grid:
        raise GridError("pump and l_p must share the same grid")
    apl = pump.values * l_p.values
    _check_adp_input(apl)
    grid_s, grid_i = l_s.grid, l_i.grid
    # ADP * PMF * TDSI in that operand order (numpy's complex product is
    # not bitwise commutative), in place; the PMF is left out when it is
    # sinc(0) exp(i 0) = 1 everywhere
    amp = AdpModel(pump.grid, grid_s.samples[:, None] + grid_i.samples[None, :])(apl)
    if dispersion.slope != 0.0:
        amp *= pmf(
            dispersion,
            (grid_s.samples - grid_s.center)[:, None],
            (grid_i.samples - grid_i.center)[None, :],
        )
    amp *= np.outer(l_s.values, l_i.values)
    return normalize(Jsa(grid_s, grid_i, amp), in_place=True)


def antidiagonal_cut(jsa: Jsa):
    """Magnitude profile u -> |F(c_s + u/2, c_i + u/2)| through the center.

    u is the sum-frequency offset (w_s + w_i) - (c_s + c_i), at 2n - 1
    points for the larger grid size n.  Bilinear interpolation between
    grid nodes.
    """
    span = 2.0 * min(jsa.grid_s.half_span, jsa.grid_i.half_span)
    n_points = 2 * max(jsa.grid_s.n_points, jsa.grid_i.n_points) - 1
    u = np.linspace(-span, span, n_points)
    ws = jsa.grid_s.center + u / 2.0
    wi = jsa.grid_i.center + u / 2.0
    mag = _bilinear(jsa.amplitude, jsa.grid_s, jsa.grid_i, ws, wi, np.abs)
    return u, mag


def _bilinear(values, grid_s, grid_i, ws, wi, corner=None):
    """Bilinear interpolation of values at (ws, wi); corner, if given, maps
    the gathered corner samples first."""
    fs = (ws - grid_s.samples[0]) / grid_s.spacing
    fi = (wi - grid_i.samples[0]) / grid_i.spacing
    j0 = np.clip(np.floor(fs).astype(int), 0, grid_s.n_points - 2)
    k0 = np.clip(np.floor(fi).astype(int), 0, grid_i.n_points - 2)
    ts = np.clip(fs - j0, 0.0, 1.0)
    ti = np.clip(fi - k0, 0.0, 1.0)
    v00 = values[j0, k0]
    v10 = values[j0 + 1, k0]
    v01 = values[j0, k0 + 1]
    v11 = values[j0 + 1, k0 + 1]
    if corner is not None:
        v00, v10, v01, v11 = corner(v00), corner(v10), corner(v01), corner(v11)
    return (
        v00 * (1 - ts) * (1 - ti)
        + v10 * ts * (1 - ti)
        + v01 * (1 - ts) * ti
        + v11 * ts * ti
    )


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


def impose_pi_phase(jsa: Jsa) -> Jsa:
    """Impose a pi phase flip at each magnitude minimum along the anti-diagonal.

    The flips are constant along anti-diagonals: the field is multiplied by
    (-1)^(number of detected minima below w_s + w_i).  Within the single
    grid cell containing a minimum the sign crosses zero linearly, which
    reproduces the node of the field there and keeps the Schmidt spectrum
    stable under grid refinement.  With no detected minima this is the
    identity.
    """
    u, mag = antidiagonal_cut(jsa)
    minima = find_cut_minima(u, mag)
    if not minima:
        return jsa
    sum0 = jsa.grid_s.center + jsa.grid_i.center
    cell = jsa.grid_s.spacing + jsa.grid_i.spacing
    # the product of the clipped ramps (w_s + w_i - sum0 - u_min) / cell,
    # negated once per minimum (rounding is symmetric in sign, so this is
    # the product of the negated ramps), built in place: every temporary
    # is a full grid
    signs = ramp = None
    for u_min in minima:
        ramp = np.add(
            jsa.grid_s.samples[:, None], jsa.grid_i.samples[None, :], out=ramp
        )
        ramp -= sum0
        ramp -= u_min
        ramp /= cell
        np.clip(ramp, -1.0, 1.0, out=ramp)
        if signs is None:
            signs, ramp = ramp, None
        else:
            signs *= ramp
    if len(minima) % 2:
        np.negative(signs, out=signs)
    if np.iscomplexobj(jsa.amplitude):
        return Jsa(jsa.grid_s, jsa.grid_i, jsa.amplitude * signs, jsa.normalized)
    signs *= jsa.amplitude
    return Jsa(jsa.grid_s, jsa.grid_i, signs, jsa.normalized)


# ---------------------------------------------------------------------------
# export

def save_jsa_binary(jsa: Jsa, fh) -> None:
    """Raw dump to the binary file fh: little-endian float64 (re, im)
    pairs, row-major over (idler, signal) so the signal index varies
    fastest.  save_jsa_sidecar writes the grids and layout."""
    interleaved = np.empty((jsa.grid_i.n_points, jsa.grid_s.n_points, 2))
    interleaved[:, :, 0] = jsa.amplitude.real.T
    interleaved[:, :, 1] = jsa.amplitude.imag.T
    interleaved.astype("<f8", copy=False).tofile(fh)


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
