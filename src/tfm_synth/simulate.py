"""End-to-end forward simulation: device configuration to state metrics.

The pipeline evaluates the shaped pump on a wide pump grid, the three
resonance filters, the joint spectral amplitude, and the reported state:
the magnitude of the JSA with the pi phase flips imposed at the
anti-diagonal magnitude minima.  All figures of merit (leading Schmidt
weights, practical Schmidt number, purity, fidelity, higher-order
weight, pair generation rate) are computed from that state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    TfmProjection,
    pair_fidelity,
    pair_generation_rate,
    project_to_tfm,
    schmidt_decompose,
)
from .config import DeviceConfig
from .errors import NumericalError
from .jsa import Jsa, _check_adp_input, compute_jsa, impose_pi_phase
from .pulse_shaper import shaped_pump, tap_phasors
from .resonator import field_enhancement_chain
from .spectral import Field1D, SpectralGrid


@dataclass(frozen=True)
class SimulationResult:
    """What the forward model reports for one configuration: the fields
    the CLI writes, the reported state and its figures of merit.  The
    shaped pump and the complex JSA stay inside simulate, and the Schmidt
    number K' = 1 / purity is taken where it is reported."""

    config: DeviceConfig
    fir: Field1D               # FIR transfer function on the pump grid
    l_p: Field1D               # pump field enhancement
    l_s: Field1D               # signal field enhancement
    l_i: Field1D               # idler field enhancement
    jsa: Jsa                   # reported state: |JSA| with pi flips imposed, real
    schmidt: np.ndarray        # leading Schmidt weights (<= 16), descending
    projection: TfmProjection
    fidelity: float
    purity: float
    pairs_per_pulse: float
    pgr_hz: float
    adp_edge: float            # alpha_p * l_p at the pump grid's edges / its peak


def build_grids(cfg: DeviceConfig, n_points: int | None = None):
    """(pump, signal, idler) grids for a configuration.

    n_points overrides the signal/idler grid size; the pump grid keeps
    its configured resolution, which already oversamples the envelope.
    """
    n = cfg.grid.n_points if n_points is None else int(n_points)
    pump_grid = SpectralGrid(
        cfg.pump.carrier, cfg.grid.pump_half_span, cfg.grid.pump_points
    )
    grid_s = SpectralGrid(cfg.signal.omega0, cfg.grid.half_span, n)
    grid_i = SpectralGrid(cfg.idler.omega0, cfg.grid.half_span, n)
    return pump_grid, grid_s, grid_i


def reported_state(jsa_raw: Jsa) -> Jsa:
    """Magnitude of the JSA with the pi phase flips imposed.

    The generated field carries residual spectral phase from the pump comb
    and the resonances; the physically meaningful sign structure is the
    sequence of pi flips at the anti-diagonal nodes, which is re-imposed
    on the magnitude.  |F| has the norm of F, so the magnitude of a
    normalized JSA (compute_jsa's) is normalized as it stands and is not
    scaled a second time.
    """
    mag = Jsa(
        jsa_raw.grid_s, jsa_raw.grid_i, np.abs(jsa_raw.amplitude), jsa_raw.normalized
    )
    return impose_pi_phase(mag)


def simulate(cfg: DeviceConfig, n_points: int | None = None) -> SimulationResult:
    """Run the forward model and compute all figures of merit."""
    pump_grid, grid_s, grid_i = build_grids(cfg, n_points)
    # the FIR response is an output of its own and a factor of the pump
    spec = cfg.pump
    amplitudes = np.array([tap.amplitude for tap in spec.taps])
    if not np.any(amplitudes):
        raise NumericalError("all tap amplitudes are zero")
    envelope, response = shaped_pump(
        (pump_grid.samples - spec.carrier) ** 2, spec.sigma_p, amplitudes,
        np.array([tap.phase for tap in spec.taps]), tap_phasors(spec, pump_grid),
    )
    fir = Field1D(pump_grid, response)
    pump = Field1D(pump_grid, envelope * response)
    l_p = field_enhancement_chain(cfg.pump_resonance, pump_grid)
    l_s = field_enhancement_chain(cfg.signal, grid_s)
    l_i = field_enhancement_chain(cfg.idler, grid_i)
    jsa_raw = compute_jsa(pump, l_p, l_s, l_i, cfg.dispersion)
    adp_edge = _check_adp_input(pump.values * l_p.values)
    state = reported_state(jsa_raw)

    schmidt, purity = schmidt_decompose(state)
    projection = project_to_tfm(state, cfg.target.sigma)
    fid = pair_fidelity(projection.coefficients, cfg.target.coefficients)

    rate = pair_generation_rate(cfg)

    return SimulationResult(
        config=cfg,
        fir=fir,
        l_p=l_p,
        l_s=l_s,
        l_i=l_i,
        jsa=state,
        schmidt=schmidt,
        projection=projection,
        fidelity=fid,
        purity=purity,
        pairs_per_pulse=rate["pairs_per_pulse"],
        pgr_hz=rate["pgr_hz"],
        adp_edge=adp_edge,
    )


def analysis_report(result: SimulationResult) -> dict:
    """JSON-serializable summary of a simulation result; its diagnostics
    flag a pump grid that truncates the ADP (adp_edge above about 1e-4)
    and grids too narrow or coarse for the HG basis (hg_norm_error above
    1e-3)."""
    c = result.projection.coefficients
    return {
        "name": result.config.name,
        "lambda": [float(w) for w in result.schmidt],
        "K_prime": 1.0 / result.purity,
        "purity": result.purity,
        "fidelity": result.fidelity,
        "higher_order_weight": result.projection.higher_order_weight,
        "subspace_weight": result.projection.subspace_weight,
        "c_kl_re": [[float(v.real) for v in row] for row in c],
        "c_kl_im": [[float(v.imag) for v in row] for row in c],
        "pairs_per_pulse": result.pairs_per_pulse,
        "pgr_hz": result.pgr_hz,
        "diagnostics": {
            "adp_edge": result.adp_edge,
            "hg_norm_error": result.projection.mode_norm_error,
        },
    }
