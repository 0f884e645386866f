"""Command-line interface: simulate, optimize, pgr, sweep-mzi.

Exit codes: 0 success, 2 configuration error (errors.ConfigError), 3
numerical failure (errors.NumericalError or numpy's LinAlgError).
All floating-point values in emitted files and stdout are written with
9 significant digits.  File writes are atomic (temp file + rename), and
the files are created with mode 0666 less the umask.  `simulate` formats
each grid's frequency column once and shares it between the CSVs on that
grid; each CSV is then formatted in one pass.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import replace

import numpy as np
import yaml

from .analysis import pair_generation_rate
from .config import (
    DeviceConfig,
    PRESET_NAMES,
    _GRID_MAX_POINTS,
    load_config,
    load_preset,
)
from .errors import ConfigError, NumericalError
from .inversion import _MU_RANGE, SearchConfig, mu_grid, optimize_state, swept_chains
from .jsa import save_jsa_binary, save_jsa_sidecar
from .resonator import bus_transmission, mzi_max_mu, mzi_phase_for_mu
from .simulate import analysis_report, simulate
from .units import format_quantity, parse_quantity


def _round9(obj):
    """Recursively round floats to 9 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _atomic_write(path: str, writer, binary: bool = False) -> None:
    """Write via a temp file in the destination directory, then rename.

    The temp file is created 0666 less the umask, like a file that open()
    creates, under a name no other writer holds (O_EXCL), and opened in
    binary mode if binary is set.  An OSError from creating the temp file
    or renaming it to path (a directory, say) is a ConfigError naming
    path; one that writer raises propagates as it is.
    """

    def placed(call, *args):
        try:
            return call(*args)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc

    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = placed(os.open, tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            writer(fh)
        placed(os.replace, tmp, path)
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
    except ConfigError:
        m = re.fullmatch(r"\s*([0-9eE.+-]+)\s*([A-Za-z/^()0-9 ]+?)\s*", raw)
        if m:
            return parse_quantity(f"{m.group(1)} {m.group(2)}", kind, field=field)
        raise


def _make_out_dir(path: str) -> None:
    """os.makedirs(path, exist_ok=True), an OSError as a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {path}: {exc.strerror}"
        ) from exc


def _grid_override(n_points):
    """--grid, checked like the config's grid.n_points."""
    if n_points is not None and not 8 <= n_points <= _GRID_MAX_POINTS:
        raise ConfigError(f"--grid must be 8..{_GRID_MAX_POINTS}, got {n_points}")
    return n_points


def _omega_column(grid) -> list[str]:
    """The grid's frequencies as '%.9g' strings, formatted in one pass."""
    samples = grid.samples.tolist()
    return ("%.9g\n" * len(samples) % tuple(samples)).split("\n")[:-1]


def _magnitude_csv(
    omega: list[str], field, header: str, squared: bool = False
) -> str:
    """CSV of |field| (|field|^2 if squared) against its grid's frequencies.

    omega is _omega_column(field.grid).  The header line is
    'omega_rad_per_s,<header>', then one row per grid sample, both columns
    with 9 significant digits.  The rows are formatted in one '%' pass
    over the interleaved (omega, magnitude) values; Python floats format
    as numpy's do, without a numpy scalar per value.
    """
    mag = np.abs(field.values)
    if squared:
        mag = mag * mag
    rows = [None] * (2 * len(omega))
    rows[::2] = omega
    rows[1::2] = mag.tolist()
    return f"omega_rad_per_s,{header}\n" + ("%s,%.9g\n" * len(omega)) % tuple(rows)


def cmd_simulate(args) -> int:
    cfg = _load(args.config)
    grid = _grid_override(args.grid)
    result = simulate(cfg, n_points=grid)
    # made once simulate has succeeded: a run that fails leaves no directory
    out = args.out
    _make_out_dir(out)

    _atomic_write(
        os.path.join(out, "jsa.bin"),
        lambda fh: save_jsa_binary(result.jsa, fh),
        binary=True,
    )
    _atomic_write(
        os.path.join(out, "jsa.json"),
        lambda fh: save_jsa_sidecar(result.jsa, fh),
    )

    # each grid's frequency column is formatted once, for all its CSVs
    columns = {}

    def write_csv(name, field, header, squared=False):
        if field.grid not in columns:
            columns[field.grid] = _omega_column(field.grid)
        _write_text(
            os.path.join(out, name),
            _magnitude_csv(columns[field.grid], field, header, squared),
        )

    write_csv("pump_shaper.csv", result.fir, "abs_h")
    for name, field, chain in (
        ("pump", result.l_p, cfg.pump_resonance),
        ("signal", result.l_s, cfg.signal),
        ("idler", result.l_i, cfg.idler),
    ):
        write_csv(f"enhancement_{name}.csv", field, "abs_l")
        write_csv(
            f"transmission_{name}.csv",
            bus_transmission(chain, field.grid), "abs_t_squared", squared=True,
        )
    report = analysis_report(result)
    _write_json(os.path.join(out, "report.json"), report)
    print(json.dumps(_round9({
        key: report[key]
        for key in ("fidelity", "K_prime", "purity", "higher_order_weight", "pgr_hz")
    })))
    return 0


def cmd_optimize(args) -> int:
    cfg = _load(args.config)
    grid = _grid_override(args.grid)
    search = SearchConfig(restarts=args.restarts, seed=args.seed)
    out = args.out
    _make_out_dir(out)
    result = optimize_state(cfg, search)
    best = result.best_config

    # every swept chain gets its own list of couplings: a list shared
    # between two chains would be written as a YAML anchor and an alias
    fragment = {
        "pump": {
            "sigma_p": format_quantity(
                best.pump.sigma_p, "GHz", "angular_frequency"
            ),
            "taps": [
                {"amplitude": t.amplitude, "phase": np.mod(t.phase, 2.0 * np.pi)}
                for t in best.pump.taps
            ],
        },
        "resonator": {
            key: {"couplings": [
                format_quantity(m, "GHz", "angular_frequency") for m in result.best_mu
            ]}
            for key, _ in swept_chains(cfg)
        },
    }
    _write_text(
        os.path.join(out, "best_params.yaml"),
        yaml.safe_dump(_round9(fragment), sort_keys=False),
    )

    trace_path = os.path.join(out, "trace.jsonl")
    _atomic_write(
        trace_path,
        lambda fh: fh.writelines(
            json.dumps(_round9(rec)) + "\n" for rec in result.trace
        ),
    )

    verification = simulate(best, n_points=grid)
    report = analysis_report(verification)
    report["search"] = {
        "seed": search.seed,
        "restarts": search.restarts,
        "best_mu": [float(m) for m in result.best_mu],
        "trial_fidelity": result.fidelity,
        "fit_residual": result.residual,
        "fits": result.fits,
        # the search and polish run on the config's grid whatever --grid
        # says, so that the trace does not depend on --grid
        "grid_points": cfg.grid.n_points,
    }
    _write_json(os.path.join(out, "report.json"), report)
    print(json.dumps(_round9({
        "best_fidelity": result.fidelity,
        "verified_fidelity": verification.fidelity,
        "verified_purity": verification.purity,
        "best_mu": [float(m) for m in result.best_mu],
        "search_grid": cfg.grid.n_points,
        "verified_grid": verification.jsa.grid_s.n_points,
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
    print(json.dumps(_round9(pair_generation_rate(cfg))))
    return 0


def cmd_sweep_mzi(args) -> int:
    cfg = _load(args.config)
    if cfg.mzi is None:
        raise ConfigError("config has no 'mzi' section")
    spec = cfg.mzi
    for flag, value in (
        ("--mu-min", args.mu_min),
        ("--mu-max", args.mu_max),
        ("--mu-step", args.mu_step),
    ):
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.mu_min < 0:
        raise ConfigError(f"--mu-min must be >= 0, got {args.mu_min}")
    if args.mu_step <= 0:
        raise ConfigError(f"--mu-step must be > 0, got {args.mu_step}")
    mu_max_reachable = mzi_max_mu(spec)
    mu_hi = args.mu_max
    if mu_hi > mu_max_reachable:
        print(
            f"warning: requested mu range up to {mu_hi:.9g} exceeds the "
            f"achievable maximum {mu_max_reachable:.9g}; sweep truncated",
            file=sys.stderr,
        )
        mu_hi = mu_max_reachable
    lines = ["mu_12_rad_per_s,phi_h1,phi_h2,phi_h3,finesse"]
    for mu in mu_grid(args.mu_min, mu_hi, args.mu_step).tolist():
        phases = mzi_phase_for_mu(spec, mu)
        lines.append(
            f"{mu:.9g},{phases.phi_h1:.9g},{phases.phi_h2:.9g},"
            f"{phases.phi_h3:.9g},{phases.finesse:.9g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        _make_out_dir(args.out)
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
    # each func looks its cmd_* function up on this module when it runs:
    # main keeps one parser, and a cmd_* replaced after it was built is
    # the one called
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
    p_sim.set_defaults(func=lambda args: cmd_simulate(args))

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
    p_opt.set_defaults(func=lambda args: cmd_optimize(args))

    p_pgr = sub.add_parser("pgr", help="pair generation rate estimate")
    add_common(p_pgr)
    p_pgr.add_argument(
        "--avg-power", default=None, help="average pump power, e.g. '1 mW'"
    )
    p_pgr.add_argument(
        "--rep-rate", default=None, help="pulse repetition rate, e.g. '500 MHz'"
    )
    p_pgr.set_defaults(func=lambda args: cmd_pgr(args))

    p_mzi = sub.add_parser(
        "sweep-mzi", help="MZI coupler phase settings over a mu range"
    )
    add_common(p_mzi)
    p_mzi.add_argument("--out", default=None, help="output directory (default stdout)")
    # by default, the couplings optimize sweeps
    for flag, default, text in zip(
        ("--mu-min", "--mu-max", "--mu-step"), _MU_RANGE,
        ("sweep start, rad/s", "sweep end, rad/s", "sweep step, rad/s"),
    ):
        p_mzi.add_argument(flag, type=float, default=default, help=text)
    p_mzi.set_defaults(func=lambda args: cmd_sweep_mzi(args))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built on the first call and then kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"tfm-synth: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"tfm-synth: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
