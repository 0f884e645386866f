"""End-to-end forward simulation: device configuration to state metrics.

The pipeline evaluates the shaped pump on a wide pump grid, the three
resonance filters, the joint spectral amplitude, and the reported state:
the magnitude of the JSA with the pi phase flips imposed at the
anti-diagonal magnitude minima.  All figures of merit (Schmidt spectrum,
practical Schmidt number, purity, fidelity, higher-order weight, pair
generation rate) are computed from that state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    PgrInput,
    SchmidtResult,
    TargetState,
    TfmProjection,
    pair_fidelity,
    pair_generation_rate,
    project_to_tfm,
    purity,
    schmidt_decompose,
    schmidt_number,
)
from .config import DeviceConfig
from .jsa import Jsa, compute_jsa, impose_pi_phase, normalize
from .pulse_shaper import fir_response, shaped_pump
from .resonator import field_enhancement_chain
from .spectral import Field1D, SpectralGrid


@dataclass(frozen=True)
class SimulationResult:
    """Everything the forward model produces for one configuration."""

    config: DeviceConfig
    pump: Field1D              # shaped pump spectrum on the pump grid
    fir: Field1D               # FIR transfer function on the pump grid
    l_p: Field1D               # pump field enhancement
    l_s: Field1D               # signal field enhancement
    l_i: Field1D               # idler field enhancement
    jsa_raw: Jsa               # complex normalized JSA as assembled
    jsa: Jsa                   # reported state: |JSA| with pi flips imposed, real
    schmidt: SchmidtResult
    projection: TfmProjection
    fidelity: float
    k_prime: float
    purity: float
    higher_order_weight: float
    pgr_input: PgrInput
    pairs_per_pulse: float
    pgr_hz: float


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
    """Magnitude of the JSA, renormalized, with the pi phase flips imposed.

    The generated field carries residual spectral phase from the pump comb
    and the resonances; the physically meaningful sign structure is the
    sequence of pi flips at the anti-diagonal nodes, which is re-imposed
    on the magnitude.
    """
    mag = Jsa(jsa_raw.grid_s, jsa_raw.grid_i, np.abs(jsa_raw.amplitude))
    return impose_pi_phase(normalize(mag))


def pgr_input(cfg: DeviceConfig) -> PgrInput:
    radius = cfg.pump_resonance.perimeter / (2.0 * np.pi)
    return PgrInput.from_raw(
        n2=cfg.pgr.n2,
        a_eff=cfg.pgr.a_eff,
        avg_power=cfg.pgr.avg_power,
        rep_rate=cfg.pgr.rep_rate,
        group_velocity=cfg.pump_resonance.group_velocity,
        radius=radius,
        omega_p0=cfg.pump_resonance.omega0,
        kappa=cfg.pump_resonance.kappa,
        pump_decay_rates=cfg.pump_resonance.decay_rates,
    )


def simulate(cfg: DeviceConfig, n_points: int | None = None) -> SimulationResult:
    """Run the forward model and compute all figures of merit."""
    pump_grid, grid_s, grid_i = build_grids(cfg, n_points)

    pump = shaped_pump(cfg.pump, pump_grid)
    fir = fir_response(cfg.pump, pump_grid)
    l_p = field_enhancement_chain(cfg.pump_resonance, pump_grid)
    l_s = field_enhancement_chain(cfg.signal, grid_s)
    l_i = field_enhancement_chain(cfg.idler, grid_i)

    jsa_raw = compute_jsa(pump, l_p, l_s, l_i, cfg.dispersion)
    state = reported_state(jsa_raw)

    schmidt = schmidt_decompose(state)
    projection = project_to_tfm(
        state, cfg.target.sigma, cfg.signal.omega0, cfg.idler.omega0, dim=4
    )
    target = TargetState(
        cfg.target.dimension, cfg.target.sigma, cfg.signal.omega0, cfg.idler.omega0
    )
    fid = pair_fidelity(projection.coefficients, target.coefficients)

    inp = pgr_input(cfg)
    n_pulse, rate = pair_generation_rate(inp)

    return SimulationResult(
        config=cfg,
        pump=pump,
        fir=fir,
        l_p=l_p,
        l_s=l_s,
        l_i=l_i,
        jsa_raw=jsa_raw,
        jsa=state,
        schmidt=schmidt,
        projection=projection,
        fidelity=fid,
        k_prime=schmidt_number(schmidt.weights),
        purity=purity(schmidt.weights),
        higher_order_weight=projection.higher_order_weight,
        pgr_input=inp,
        pairs_per_pulse=n_pulse,
        pgr_hz=rate,
    )


def analysis_report(result: SimulationResult) -> dict:
    """JSON-serializable summary of a simulation result."""
    c = result.projection.coefficients
    return {
        "name": result.config.name,
        "lambda": [float(w) for w in result.schmidt.weights[:16]],
        "K_prime": result.k_prime,
        "purity": result.purity,
        "fidelity": result.fidelity,
        "higher_order_weight": result.higher_order_weight,
        "subspace_weight": result.projection.subspace_weight,
        "c_kl_re": [[float(v.real) for v in row] for row in c],
        "c_kl_im": [[float(v.imag) for v in row] for row in c],
        "pairs_per_pulse": result.pairs_per_pulse,
        "pgr_hz": result.pgr_hz,
    }
