"""Command-line interface: simulate, optimize, pgr, sweep-mzi.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
All floating-point values in emitted files and stdout are written with
9 significant digits; file writes are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import yaml

from .analysis import PreconditionError, pair_generation_rate
from .config import (
    ConfigError,
    DeviceConfig,
    PRESET_NAMES,
    load_config,
    load_preset,
)
from .inversion import SearchConfig, optimize_state
from .jsa import DegenerateFieldError, save_jsa_binary
from .pulse_shaper import DegenerateInputError
from .resonator import bus_transmission, mzi_max_mu, mzi_phase_for_mu
from .simulate import analysis_report, pgr_input, simulate
from .spectral import GridError
from .units import UnitError, format_quantity, parse_quantity


_CONFIG_ERRORS = (ConfigError, UnitError)
_NUMERICAL_ERRORS = (
    GridError,
    DegenerateFieldError,
    DegenerateInputError,
    PreconditionError,
    FloatingPointError,
    np.linalg.LinAlgError,
    ValueError,
)


def _round9(obj):
    """Recursively round floats to 9 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _atomic_write(path: str, writer) -> None:
    """Write via a temp file in the destination directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    _atomic_write(path, lambda fh: json.dump(_round9(payload), fh, indent=2))


def _write_text(path: str, text: str) -> None:
    _atomic_write(path, lambda fh: fh.write(text))


def _load(config: str) -> DeviceConfig:
    if config in PRESET_NAMES:
        return load_preset(config)
    return load_config(config)


def _power_or_rate(raw: str, kind: str, field: str) -> float:
    """Parse a flag quantity, accepting both '4 mW' and '4mW' spellings."""
    try:
        return parse_quantity(raw, kind, field=field)
    except UnitError:
        m = re.fullmatch(r"\s*([0-9eE.+-]+)\s*([A-Za-z/^()0-9 ]+?)\s*", raw)
        if m:
            return parse_quantity(f"{m.group(1)} {m.group(2)}", kind, field=field)
        raise


def _magnitude_csv(field, header: str, squared: bool = False) -> str:
    lines = [f"omega_rad_per_s,{header}"]
    mag = np.abs(field.values)
    if squared:
        mag = mag * mag
    for w, v in zip(field.grid.samples, mag):
        lines.append(f"{w:.9g},{v:.9g}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    cfg = _load(args.config)
    out = args.out
    os.makedirs(out, exist_ok=True)
    result = simulate(cfg, n_points=args.grid)

    # binary JSA dump is already atomic enough for regression use, but we
    # follow the same temp+rename discipline through a staging pair
    tmp_bin = os.path.join(out, ".tmp-jsa.bin")
    tmp_json = os.path.join(out, ".tmp-jsa.json")
    save_jsa_binary(result.jsa, tmp_bin, tmp_json)
    os.replace(tmp_bin, os.path.join(out, "jsa.bin"))
    os.replace(tmp_json, os.path.join(out, "jsa.json"))

    _write_text(
        os.path.join(out, "pump_shaper.csv"),
        _magnitude_csv(result.fir, "abs_h"),
    )
    for name, field in (
        ("pump", result.l_p), ("signal", result.l_s), ("idler", result.l_i)
    ):
        _write_text(
            os.path.join(out, f"enhancement_{name}.csv"),
            _magnitude_csv(field, "abs_l"),
        )
    for name, chain, grid in (
        ("pump", cfg.pump_resonance, result.l_p.grid),
        ("signal", cfg.signal, result.l_s.grid),
        ("idler", cfg.idler, result.l_i.grid),
    ):
        _write_text(
            os.path.join(out, f"transmission_{name}.csv"),
            _magnitude_csv(
                bus_transmission(chain, grid), "abs_t_squared", squared=True
            ),
        )
    _write_json(os.path.join(out, "report.json"), analysis_report(result))
    print(json.dumps(_round9({
        "fidelity": result.fidelity,
        "K_prime": result.k_prime,
        "purity": result.purity,
        "higher_order_weight": result.higher_order_weight,
        "pgr_hz": result.pgr_hz,
    })))
    return 0


def _taps_fragment(taps) -> list:
    return [
        {"amplitude": float(f"{t.amplitude:.9g}"),
         "phase": float(f"{np.mod(t.phase, 2.0 * np.pi):.9g}")}
        for t in taps
    ]


def cmd_optimize(args) -> int:
    cfg = _load(args.config)
    out = args.out
    os.makedirs(out, exist_ok=True)
    search = SearchConfig(restarts=args.restarts, seed=args.seed)
    result = optimize_state(cfg, search)
    best = result.best_config

    fragment = {
        "pump": {
            "sigma_p": format_quantity(
                best.pump.sigma_p, "GHz", "angular_frequency"
            ),
            "taps": _taps_fragment(best.pump.taps),
        },
        "resonator": {},
    }
    mu_fragment = [
        format_quantity(m, "GHz", "angular_frequency") for m in result.best_mu
    ]
    if cfg.target.dimension >= 2:
        fragment["resonator"]["signal"] = {"couplings": mu_fragment}
        fragment["resonator"]["idler"] = {"couplings": mu_fragment}
    else:
        fragment["resonator"]["pump"] = {"couplings": mu_fragment}
    _write_text(
        os.path.join(out, "best_params.yaml"),
        yaml.safe_dump(fragment, sort_keys=False),
    )

    trace_path = os.path.join(out, "trace.jsonl")
    _atomic_write(
        trace_path,
        lambda fh: fh.writelines(
            json.dumps(_round9(rec)) + "\n" for rec in result.trace
        ),
    )

    verification = simulate(best, n_points=args.grid)
    report = analysis_report(verification)
    report["search"] = {
        "seed": search.seed,
        "restarts": search.restarts,
        "best_mu": [float(m) for m in result.best_mu],
        "trial_fidelity": result.fidelity,
        "fit_residual": result.residual,
    }
    _write_json(os.path.join(out, "report.json"), report)
    print(json.dumps(_round9({
        "best_fidelity": result.fidelity,
        "verified_fidelity": verification.fidelity,
        "verified_purity": verification.purity,
        "best_mu": [float(m) for m in result.best_mu],
    })))
    return 0


def cmd_pgr(args) -> int:
    cfg = _load(args.config)
    if args.avg_power is not None:
        avg_power = _power_or_rate(args.avg_power, "power", "--avg-power")
        cfg = replace(cfg, pgr=replace(cfg.pgr, avg_power=avg_power))
    if args.rep_rate is not None:
        rep_rate = _power_or_rate(args.rep_rate, "frequency_hz", "--rep-rate")
        cfg = replace(cfg, pgr=replace(cfg.pgr, rep_rate=rep_rate))
    inp = pgr_input(cfg)
    n_pulse, rate = pair_generation_rate(inp)
    print(json.dumps(_round9({
        "pairs_per_pulse": n_pulse,
        "pgr_hz": rate,
        "q_tot": inp.q_tot,
        "q_ext": inp.q_ext,
        "gamma": inp.gamma,
        "pulse_energy": inp.pulse_energy,
    })))
    return 0


def cmd_sweep_mzi(args) -> int:
    cfg = _load(args.config)
    if cfg.mzi is None:
        raise ConfigError("config has no 'mzi' section")
    spec = cfg.mzi
    mu_max_reachable = mzi_max_mu(spec)
    mu_hi = args.mu_max
    if mu_hi > mu_max_reachable:
        print(
            f"warning: requested mu range up to {mu_hi:.9g} exceeds the "
            f"achievable maximum {mu_max_reachable:.9g}; sweep truncated",
            file=sys.stderr,
        )
        mu_hi = mu_max_reachable
    n = int(np.floor((mu_hi - args.mu_min) / args.mu_step + 1e-9)) + 1
    if n < 1:
        raise ConfigError("empty mu sweep range")
    lines = ["mu_12_rad_per_s,phi_h1,phi_h2,phi_h3,finesse"]
    for k in range(n):
        mu = args.mu_min + k * args.mu_step
        phases = mzi_phase_for_mu(spec, mu)
        lines.append(
            f"{mu:.9g},{phases.phi_h1:.9g},{phases.phi_h2:.9g},"
            f"{phases.phi_h3:.9g},{phases.finesse:.9g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "mzi_sweep.csv"), text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfm-synth",
        description=(
            "Simulation and inverse design of time-frequency-mode "
            "biphoton sources"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--config",
            required=True,
            help="config file path or preset name "
            f"({', '.join(PRESET_NAMES)})",
        )

    p_sim = sub.add_parser("simulate", help="forward model and analysis report")
    add_common(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument(
        "--grid", type=int, default=None, help="override signal/idler grid size"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="inverse design of free parameters")
    add_common(p_opt)
    p_opt.add_argument("--out", required=True, help="output directory")
    p_opt.add_argument("--seed", type=int, default=0, help="search RNG seed")
    p_opt.add_argument(
        "--restarts", type=int, default=32, help="random restarts per mu point"
    )
    p_opt.add_argument(
        "--grid", type=int, default=None, help="verification grid size override"
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_pgr = sub.add_parser("pgr", help="pair generation rate estimate")
    add_common(p_pgr)
    p_pgr.add_argument(
        "--avg-power", default=None, help="average pump power, e.g. '1 mW'"
    )
    p_pgr.add_argument(
        "--rep-rate", default=None, help="pulse repetition rate, e.g. '500 MHz'"
    )
    p_pgr.set_defaults(func=cmd_pgr)

    p_mzi = sub.add_parser(
        "sweep-mzi", help="MZI coupler phase settings over a mu range"
    )
    add_common(p_mzi)
    p_mzi.add_argument("--out", default=None, help="output directory (default stdout)")
    p_mzi.add_argument(
        "--mu-min", type=float, default=0.0, help="sweep start, rad/s"
    )
    p_mzi.add_argument(
        "--mu-max", type=float, default=5.0e9, help="sweep end, rad/s"
    )
    p_mzi.add_argument(
        "--mu-step", type=float, default=0.25e9, help="sweep step, rad/s"
    )
    p_mzi.set_defaults(func=cmd_sweep_mzi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"tfm-synth: config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"tfm-synth: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
