"""Command-line interface: outputs, exit codes, determinism."""

import copy
import json
import os
import stat
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import oracles
from tfm_synth import cli, inversion
from tfm_synth.cli import main
from tfm_synth.config import PRESET_NAMES, load_preset, preset_path
from tfm_synth.errors import NumericalError
from tfm_synth.resonator import bus_transmission
from tfm_synth.simulate import analysis_report, simulate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_outputs_and_summary(tmp_path, capsys):
    out = tmp_path / "sim"
    code, stdout, _ = run(
        capsys, "simulate", "--config", "bell_phi_minus",
        "--out", str(out), "--grid", "128",
    )
    assert code == 0
    summary = json.loads(stdout)
    for key in (
        "fidelity", "K_prime", "purity", "higher_order_weight", "pgr_hz"
    ):
        assert key in summary
    assert 0.0 < summary["fidelity"] <= 1.0
    for name in (
        "jsa.bin", "jsa.json", "report.json", "pump_shaper.csv",
        "enhancement_pump.csv", "enhancement_signal.csv",
        "enhancement_idler.csv", "transmission_pump.csv",
        "transmission_signal.csv", "transmission_idler.csv",
    ):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["name"] == "bell_phi_minus"
    assert report["fidelity"] == summary["fidelity"]
    meta = json.loads((out / "jsa.json").read_text())
    assert meta["shape"] == [128, 128, 2]
    lines = (out / "pump_shaper.csv").read_text().strip().split("\n")
    assert lines[0] == "omega_rad_per_s,abs_h"


def _magnitude_csv_loop(field, header, squared=False):
    """The per-row formatting cli._magnitude_csv replaced, kept as its
    reference."""
    lines = [f"omega_rad_per_s,{header}"]
    mag = np.abs(field.values)
    if squared:
        mag = mag * mag
    for w, v in zip(field.grid.samples, mag):
        lines.append(f"{w:.9g},{v:.9g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("squared", [False, True])
def test_magnitude_csv_matches_the_row_loop(squared):
    """Same bytes as the loop over numpy scalars, on 10^5 magnitudes from
    1e-300 to 1e300 of either sign, signed zeros, the smallest subnormal
    and the largest float, in both columns."""
    rng = np.random.default_rng(0)
    n = 100_000
    values = 10.0 ** rng.uniform(-300.0, 300.0, n) * rng.choice([-1.0, 1.0], n)
    big = np.finfo(float).max
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, big, -big])
    samples = np.concatenate([edges, values])
    field = SimpleNamespace(
        grid=SimpleNamespace(samples=samples), values=samples[::-1] * 1j
    )
    with np.errstate(over="ignore", under="ignore"):
        want = _magnitude_csv_loop(field, "abs_l", squared)
        got = cli._magnitude_csv(
            cli._omega_column(field.grid), field, "abs_l", squared
        )
    assert got == want


def _simulate_config(tmp_path, config):
    """A preset name, or 'asymmetric': mes_d3 with c1 = 1, c2 = -0.8."""
    if config != "asymmetric":
        return config
    with open(preset_path("mes_d3")) as fh:
        tree = yaml.safe_load(fh)
    tree["dispersion"]["c1"] = 1.0
    tree["dispersion"]["c2"] = -0.8
    path = tmp_path / "asymmetric.yaml"
    path.write_text(yaml.safe_dump(tree))
    return str(path)


@pytest.mark.parametrize("config", [*PRESET_NAMES, "asymmetric"])
def test_simulate_csvs_match_the_row_loop(tmp_path, capsys, config):
    """Each CSV of a run is the row loop applied to its own field, so no
    column comes from another grid: signal and idler share size and
    spacing but not centre."""
    config = _simulate_config(tmp_path, config)
    out = tmp_path / "sim"
    code, _, _ = run(
        capsys, "simulate", "--config", config, "--out", str(out), "--grid", "64"
    )
    assert code == 0
    cfg = cli._load(config)
    result = simulate(cfg, n_points=64)
    assert result.l_s.grid.center != result.l_i.grid.center
    want = {
        "pump_shaper.csv": _magnitude_csv_loop(result.fir, "abs_h"),
    }
    for name, field, chain in (
        ("pump", result.l_p, cfg.pump_resonance),
        ("signal", result.l_s, cfg.signal),
        ("idler", result.l_i, cfg.idler),
    ):
        want[f"enhancement_{name}.csv"] = _magnitude_csv_loop(field, "abs_l")
        want[f"transmission_{name}.csv"] = _magnitude_csv_loop(
            bus_transmission(chain, field.grid), "abs_t_squared", squared=True
        )
    for name, text in want.items():
        assert (out / name).read_text() == text, name


def test_output_files_follow_the_umask(tmp_path, capsys):
    """Every file simulate and sweep-mzi write has mode 0666 less the
    umask, the mode of jsa.bin, which open() creates."""
    umask = 0o027
    previous = os.umask(umask)
    try:
        sim, mzi = tmp_path / "sim", tmp_path / "mzi"
        assert run(
            capsys, "simulate", "--config", "bell_phi_minus",
            "--out", str(sim), "--grid", "64",
        )[0] == 0
        assert run(
            capsys, "sweep-mzi", "--config", "bell_phi_minus", "--out", str(mzi)
        )[0] == 0
    finally:
        os.umask(previous)
    files = sorted(sim.iterdir()) + sorted(mzi.iterdir())
    assert len(files) == 11
    modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in files}
    assert modes["jsa.bin"] == 0o666 & ~umask
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)


def test_failed_write_leaves_no_temp_file(tmp_path):
    def broken(fh):
        fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(str(tmp_path / "report.json"), broken)
    assert list(tmp_path.iterdir()) == []


def test_failed_jsa_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """An export of the JSA that raises midway leaves no staged file in
    --out: jsa.bin and jsa.json are written like every other output."""

    def broken(obj, fh, **kwargs):
        fh.write("partial")
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken)
    out = tmp_path / "sim"
    with pytest.raises(OSError, match="disk full"):
        main([
            "simulate", "--config", "bell_phi_minus", "--out", str(out),
            "--grid", "64",
        ])
    assert [f.name for f in out.iterdir() if f.name.startswith(".tmp-")] == []


def test_main_builds_the_parser_once(monkeypatch, capsys):
    """Two main calls share one argparse tree, and each runs the cmd_*
    function the module holds at that moment."""
    build_parser = cli.build_parser
    builds = []

    def counting_build():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "pgr", "--config", "bell_phi_minus")[0] == 0
        cmd_pgr = cli.cmd_pgr
        calls = []

        def counting_pgr(args):
            calls.append(None)
            return cmd_pgr(args)

        monkeypatch.setattr(cli, "cmd_pgr", counting_pgr)
        assert run(capsys, "pgr", "--config", "bell_phi_minus")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert len(calls) == 1


def test_simulate_missing_kappa_exits_2(tmp_path, capsys):
    with open(preset_path("bell_phi_minus")) as fh:
        tree = yaml.safe_load(fh)
    bad = copy.deepcopy(tree)
    del bad["resonator"]["kappa"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    code, _, stderr = run(
        capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "kappa" in stderr


def test_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("grid:\n  n_points: [256\n  half_span: 1 THz\n")
    code, _, stderr = run(
        capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "not valid YAML" in stderr


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, stdout, stderr = run(
        capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "config error" in stderr
    assert str(path) in stderr
    assert stdout == ""


def test_unknown_preset_exits_2(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "simulate", "--config", "no_such_preset",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "no_such_preset" in stderr


# ---------------------------------------------------------------------------
# pgr

def test_pgr_summary_fields(capsys):
    code, stdout, _ = run(capsys, "pgr", "--config", "mes_d4")
    assert code == 0
    summary = json.loads(stdout)
    for key in (
        "pairs_per_pulse", "pgr_hz", "q_tot", "q_ext", "gamma", "pulse_energy"
    ):
        assert key in summary
    assert summary["pgr_hz"] > 0


def test_pgr_power_scaling_quadratic(capsys):
    _, base_out, _ = run(capsys, "pgr", "--config", "bell_phi_minus")
    base = json.loads(base_out)
    # compact unit spelling without a space must also parse
    _, four_out, _ = run(
        capsys, "pgr", "--config", "bell_phi_minus", "--avg-power", "4mW"
    )
    four = json.loads(four_out)
    assert four["pairs_per_pulse"] == pytest.approx(
        16.0 * base["pairs_per_pulse"], rel=1e-6
    )
    assert four["pgr_hz"] == pytest.approx(16.0 * base["pgr_hz"], rel=1e-6)


def test_pgr_bad_power_exits_2(capsys):
    code, _, stderr = run(
        capsys, "pgr", "--config", "bell_phi_minus", "--avg-power", "4 parsec"
    )
    assert code == 2
    assert "avg-power" in stderr or "unknown unit" in stderr


# ---------------------------------------------------------------------------
# exit codes

def _preset_with(tmp_path, section, key, value):
    with open(preset_path("bell_phi_minus")) as fh:
        tree = yaml.safe_load(fh)
    (tree[section] if section else tree)[key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(tree))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("pgr", "--config", "bell_phi_minus", "--avg-power", "-1 mW"),
        ("pgr", "--config", "bell_phi_minus", "--rep-rate", "0 MHz"),
        ("pgr", "--config", "bell_phi_minus", "--avg-power", "nan mW"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-min=-1e9"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-step", "0"),
        ("simulate", "--config", "bell_phi_minus", "--grid", "1", "--out", "{tmp}"),
        ("optimize", "--config", "bell_phi_minus", "--seed=-1", "--out", "{tmp}"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-step", "nan"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-min", "nan"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-max", "nan"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-min", "inf"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-max=-inf"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-max", "inf"),
        # a step so small that the point count overflows a float
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-step", "1e-300"),
        # a finite point count past the mu grid's cap, which no array holds
        ("sweep-mzi", "--config", "bell_phi_minus", "--mu-step", "1e-290"),
        # a grid or a restart count past its cap, rejected before any grid
        # or search task is built
        ("simulate", "--config", "bell_phi_minus", "--grid", "1" + "0" * 30,
         "--out", "{tmp}"),
        ("optimize", "--config", "bell_phi_minus", "--restarts", "1" + "0" * 30,
         "--out", "{tmp}"),
        # a restart count below its floor, and a negative repetition rate
        ("optimize", "--config", "bell_phi_minus", "--restarts", "0",
         "--out", "{tmp}"),
        ("pgr", "--config", "bell_phi_minus", "--rep-rate=-5 MHz"),
    ],
)
def test_bad_flags_exit_2(tmp_path, capsys, argv):
    """Flags a user can get wrong are config errors, not numerical ones."""
    argv = [a.format(tmp=tmp_path / "o") for a in argv]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert "config error" in stderr


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("target", "sigma", "-6 GHz"),
        ("pgr", "avg_power", "0 mW"),
        ("dispersion", "c1", float("nan")),
        ("grid", "n_points", float("inf")),
        ("target", "dimension", 2.7),
        ("grid", "n_points", 10**30),
        ("grid", "pump_points", 10**30),
        ("mzi", "k_prime", 0),
        (None, "name", ["x"]),
        (None, "name", 5),
        (None, "name", None),
        # finite as written, but inf in rad/s: the scaled value is checked
        ("grid", "half_span", "1e300 THz"),
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, section, key, value):
    config = _preset_with(tmp_path, section, key, value)
    code, _, stderr = run(
        capsys, "simulate", "--config", config, "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert key in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("pgr", "--config", "bell_phi_minus", "--avg-power", "1e300 W"),
        # the pulse energy, 1 mW / 1e-320 Hz, is already inf
        ("pgr", "--config", "bell_phi_minus", "--rep-rate", "1e-320 Hz"),
        ("simulate", "--config", "{avg_power_1e200}", "--grid", "64", "--out", "{tmp}"),
        # the pulse energy, 1e-320 W / 500 MHz, underflows to 0
        ("pgr", "--config", "bell_phi_minus", "--avg-power", "1e-320 W"),
        ("simulate", "--config", "{avg_power_1e-320}", "--grid", "64", "--out", "{tmp}"),
        # kappa^2 underflows to 0, under Q_ext = w_p0 / kappa^2
        ("pgr", "--config", "{kappa_1e-200}"),
    ],
)
def test_pair_rate_overflow_exits_3(tmp_path, capsys, argv):
    """A pair rate that overflows, or whose inputs leave the
    floating-point range, is a numerical failure: exit 3 and nothing on
    stdout."""
    edits = {
        "avg_power_1e200": ("pgr", "avg_power", "1e200 W"),
        "avg_power_1e-320": ("pgr", "avg_power", "1e-320 W"),
        "kappa_1e-200": ("resonator", "kappa", "1e-200 sqrtTHz"),
    }
    configs = {
        name: _preset_with(tmp_path, *edit)
        for name, edit in edits.items()
        if "{" + name + "}" in argv
    }
    argv = [a.format(tmp=tmp_path / "o", **configs) for a in argv]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 3
    assert "numerical error" in stderr
    assert stdout == ""


def test_failed_simulate_creates_no_out_directory(tmp_path, capsys):
    """simulate makes --out only once the simulation has succeeded: a pair
    rate that overflows exits 3 and leaves no directory behind."""
    config = _preset_with(tmp_path, "pgr", "avg_power", "1e200 W")
    out = tmp_path / "o"
    code, stdout, _ = run(
        capsys, "simulate", "--config", config, "--grid", "64", "--out", str(out)
    )
    assert code == 3
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--config", "bell_phi_minus", "--grid", "16", "--out", "{file}"),
        ("optimize", "--config", "bell_phi_minus", "--out", "{file}/x"),
        ("sweep-mzi", "--config", "bell_phi_minus", "--out", "{file}/x"),
    ],
)
def test_uncreatable_out_directory_exits_2(tmp_path, capsys, argv):
    """An --out that cannot be made a directory, an existing file or a
    path under one, is a config error that names it: exit 2, nothing on
    stdout and no traceback."""
    existing = tmp_path / "taken"
    existing.write_text("")
    argv = [a.format(file=existing) for a in argv]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert "config error" in stderr
    assert str(existing) in stderr
    assert stdout == ""


@pytest.mark.parametrize(
    "argv, name",
    [
        (("simulate", "--config", "bell_phi_minus", "--grid", "16"), "jsa.bin"),
        (("sweep-mzi", "--config", "bell_phi_minus"), "mzi_sweep.csv"),
        (
            ("optimize", "--config", "bell_phi_minus"),
            "best_params.yaml",
        ),
    ],
)
def test_output_file_taken_by_a_directory_exits_2(
    tmp_path, capsys, monkeypatch, argv, name
):
    """An output file that cannot be placed in --out, because a directory
    there has its name, is a config error that names the path: exit 2,
    nothing on stdout, no traceback and no temp file left in --out.
    optimize's search is replaced by the preset's own design."""
    _search_returns_the_preset(monkeypatch, "bell_phi_minus")
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "config error" in stderr
    assert str(out / name) in stderr
    assert stdout == ""
    assert [f.name for f in out.iterdir() if f.name.startswith(".tmp-")] == []


def test_numerical_failure_exits_3(capsys, monkeypatch):
    def degenerate(_):
        raise NumericalError("all-zero field")

    monkeypatch.setattr(cli, "pair_generation_rate", degenerate)
    code, _, stderr = run(capsys, "pgr", "--config", "bell_phi_minus")
    assert code == 3
    assert "numerical error" in stderr


def test_internal_value_error_is_a_traceback(monkeypatch):
    """A bare ValueError from inside the package is a bug: it propagates
    instead of exiting 3 as a numerical failure."""

    def bug(_):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "pair_generation_rate", bug)
    with pytest.raises(ValueError, match="internal bug"):
        main(["pgr", "--config", "bell_phi_minus"])


# ---------------------------------------------------------------------------
# sweep-mzi

def _mzi_spec():
    cfg = load_preset("bell_phi_minus")
    return cfg.mzi


def test_sweep_mzi_round_trip(capsys):
    code, stdout, stderr = run(
        capsys, "sweep-mzi", "--config", "bell_phi_minus",
        "--mu-min", "0", "--mu-max", "5e9", "--mu-step", "1e9",
    )
    assert code == 0
    assert stderr == ""
    lines = stdout.strip().split("\n")
    assert lines[0] == "mu_12_rad_per_s,phi_h1,phi_h2,phi_h3,finesse"
    assert len(lines) == 1 + 6
    spec = _mzi_spec()
    for line in lines[1:]:
        mu, h1, h2, h3, _ = (float(v) for v in line.split(","))
        realized = oracles.mzi_effective_mu(spec, h1, h2, h3)
        assert realized == pytest.approx(mu, abs=1e-6 * max(mu, 1e9))


def test_sweep_mzi_defaults_are_the_optimize_mu_grid(capsys):
    """With its default flags, sweep-mzi tabulates the couplings optimize
    sweeps: mu_grid over those flags is the search's grid, and so are the
    table's rows."""
    args = cli.build_parser().parse_args(["sweep-mzi", "--config", "bell_phi_minus"])
    grid = inversion.mu_grid(args.mu_min, args.mu_max, args.mu_step)
    assert np.array_equal(grid, inversion._MU_VALUES)
    code, stdout, _ = run(capsys, "sweep-mzi", "--config", "bell_phi_minus")
    assert code == 0
    rows = stdout.strip().split("\n")[1:]
    assert [float(row.split(",")[0]) for row in rows] == grid.tolist()


def test_sweep_mzi_zero_row_is_bar_state(capsys):
    _, stdout, _ = run(
        capsys, "sweep-mzi", "--config", "bell_phi_minus",
        "--mu-min", "0", "--mu-max", "0", "--mu-step", "1e9",
    )
    first = stdout.strip().split("\n")[1].split(",")
    # delta = pi split symmetrically across the arms
    assert float(first[1]) == pytest.approx(np.pi / 2.0)
    assert float(first[2]) == pytest.approx(-np.pi / 2.0)


def test_sweep_mzi_zero_k_prime_exits_2(tmp_path, capsys):
    """k' = 0 reaches no coupling: a config error, not a sweep of NaN rows."""
    config = _preset_with(tmp_path, "mzi", "k_prime", 0)
    code, stdout, stderr = run(capsys, "sweep-mzi", "--config", config)
    assert code == 2
    assert "config error" in stderr
    assert "k_prime" in stderr
    assert stdout == ""


def test_sweep_mzi_truncation_warning(tmp_path, capsys):
    out = tmp_path / "mzi"
    code, _, stderr = run(
        capsys, "sweep-mzi", "--config", "bell_phi_minus",
        "--out", str(out), "--mu-max", "1e12", "--mu-step", "5e9",
    )
    assert code == 0
    assert "truncated" in stderr
    rows = (out / "mzi_sweep.csv").read_text().strip().split("\n")[1:]
    last_mu = float(rows[-1].split(",")[0])
    from tfm_synth.resonator import mzi_max_mu

    assert last_mu <= mzi_max_mu(_mzi_spec())


def test_sweep_mzi_last_step_at_the_reach(capsys):
    """A step whose last multiple passes the MZI reach by round-off, with
    the range truncated to that reach: the last row is clipped to it
    instead of failing outside the achievable range."""
    code, stdout, stderr = run(
        capsys, "sweep-mzi", "--config", "bell_phi_minus",
        "--mu-max", "1e12", "--mu-step", "267281406.35757124",
    )
    assert code == 0
    assert "truncated" in stderr
    rows = stdout.strip().split("\n")[1:]
    assert len(rows) == 101
    from tfm_synth.resonator import mzi_max_mu

    assert float(rows[-1].split(",")[0]) <= mzi_max_mu(_mzi_spec())


# ---------------------------------------------------------------------------
# optimize

@pytest.mark.parametrize("threads", ["abc", "0", "1.5"])
def test_optimize_invalid_threads_exits_2(tmp_path, capsys, monkeypatch, threads):
    """The worker count is read before any fit runs, and the failed run
    leaves no --out behind."""
    monkeypatch.setenv("TFM_SYNTH_THREADS", threads)
    out = tmp_path / "o"
    code, _, stderr = run(
        capsys, "optimize", "--config", "bell_phi_minus", "--out", str(out),
    )
    assert code == 2
    assert "TFM_SYNTH_THREADS" in stderr
    assert not out.exists()


def _single_ring(chain):
    chain["decay_rates"] = chain["decay_rates"][:1]
    chain["couplings"] = []


def _three_stages(chain):
    chain["decay_rates"] = chain["decay_rates"] + chain["decay_rates"][-1:]
    chain["couplings"] = chain["couplings"] * 2


@pytest.mark.parametrize(
    "preset, edits",
    [
        # the swept chains are single rings: no coupling to sweep
        ("bell_phi_minus", {"signal": _single_ring, "idler": _single_ring}),
        ("separable", {"pump": _single_ring}),
        # signal and idler share one swept tuple but differ in length
        ("bell_phi_minus", {"idler": _three_stages}),
    ],
)
def test_optimize_unsweepable_config_exits_2(tmp_path, capsys, preset, edits):
    """A config whose swept chains optimize cannot sweep is a config
    error, raised before any fit runs; the failed run leaves no --out
    behind."""
    with open(preset_path(preset)) as fh:
        tree = yaml.safe_load(fh)
    tree["grid"]["n_points"] = 64
    for name, edit in edits.items():
        edit(tree["resonator"][name])
    config = tmp_path / "unsweepable.yaml"
    config.write_text(yaml.safe_dump(tree))
    out = tmp_path / "o"
    code, stdout, stderr = run(
        capsys, "optimize", "--config", str(config),
        "--restarts", "1", "--out", str(out),
    )
    assert code == 2
    assert "config error" in stderr
    assert stdout == ""
    assert not out.exists()


def _search_returns_the_preset(monkeypatch, preset):
    """Replace optimize's search by one that returns the verification of
    the config it was given, the preset's own design when that config is
    the preset.  Returns the preset's swept couplings and the list the
    searches' results go to."""
    cfg = load_preset(preset)
    mu = getattr(cfg, inversion.swept_chains(cfg)[0][1]).couplings
    results = []

    def search(cfg, restarts, seed):
        results.append(inversion.OptimizeResult(
            verification=simulate(cfg), trace=(),
            fits={"converged_frac": 1.0, "nfev_median": 1.0, "njev_median": 1.0},
        ))
        return results[-1]

    monkeypatch.setattr(cli, "optimize_state", search)
    return mu, results


@pytest.mark.parametrize(
    "preset, keys", [("bell_phi_minus", ["signal", "idler"]), ("separable", ["pump"])]
)
def test_best_params_yaml_has_no_aliases(tmp_path, capsys, monkeypatch, preset, keys):
    """best_params.yaml gives every swept chain its own couplings list:
    the file holds no YAML anchor or alias, so each chain's block reads
    alone, and the lists are equal.  The search is replaced by the
    preset's own design."""
    mu, _ = _search_returns_the_preset(monkeypatch, preset)
    code, _, _ = run(
        capsys, "optimize", "--config", preset, "--out", str(tmp_path / "o"),
    )
    assert code == 0
    text = (tmp_path / "o" / "best_params.yaml").read_text()
    assert "&" not in text and "*" not in text
    resonator = yaml.safe_load(text)["resonator"]
    assert list(resonator) == keys
    couplings = [resonator[key]["couplings"] for key in keys]
    assert couplings == [couplings[0]] * len(keys)
    assert len(couplings[0]) == len(mu)


def test_optimize_reports_the_verified_score(tmp_path, capsys):
    """The stdout summary and report.json's search block carry no score
    of their own: their keys are exactly these, and the summary's
    verified_fidelity is report.json's fidelity, the figure simulate
    reports for the written design (Bell at 64^2, one restart, no
    --grid)."""
    config = _preset_with(tmp_path, "grid", "n_points", 64)
    code, stdout, _ = run(
        capsys, "optimize", "--config", config, "--restarts", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert list(summary) == [
        "verified_fidelity", "verified_purity", "best_mu", "search_grid"
    ]
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert list(report["search"]) == [
        "seed", "restarts", "best_mu", "fits", "grid_points"
    ]
    assert summary["verified_fidelity"] == report["fidelity"]
    assert summary["verified_purity"] == report["purity"]
    assert summary["best_mu"] == report["search"]["best_mu"]


def test_optimize_takes_no_grid_flag(tmp_path, capsys):
    """optimize has no --grid: argparse rejects it, exit 2, before --out
    is made."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", "bell_phi_minus", "--grid", "64",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 64" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_verifies_on_the_config_grid(tmp_path, capsys, monkeypatch):
    """The CLI simulates nothing: report.json and the summary are the
    search's own verification of the design, on the config's grid, which
    the report and the summary name.  The search is replaced by the
    preset's own design."""
    mu, results = _search_returns_the_preset(monkeypatch, "bell_phi_minus")
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
    config = _preset_with(tmp_path, "grid", "n_points", 64)
    code, out, _ = run(
        capsys, "optimize", "--config", config, "--out", str(tmp_path / "o"),
    )
    assert code == 0
    assert calls == []
    [result] = results
    verification = result.verification
    assert verification.jsa.grid_s.n_points == 64
    summary = json.loads(out)
    assert summary["search_grid"] == 64
    assert "verified_grid" not in summary
    assert summary["verified_fidelity"] == cli._round9(verification.fidelity)
    assert summary["verified_purity"] == cli._round9(verification.purity)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["search"]["grid_points"] == 64
    # the design's couplings, read off the verification's config
    assert report.pop("search")["best_mu"] == cli._round9(list(mu))
    want = json.loads(json.dumps(cli._round9(analysis_report(verification))))
    assert report == want


@pytest.mark.slow
def test_optimize_bit_reproducible(tmp_path, capsys):
    """Two runs with the same seed emit byte-identical traces."""
    args = [
        "optimize", "--config", "bell_phi_minus", "--seed", "0", "--restarts", "1",
    ]
    code_a, out_a, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    code_b, out_b, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code_a == 0 and code_b == 0
    assert out_a == out_b
    trace_a = (tmp_path / "a" / "trace.jsonl").read_bytes()
    trace_b = (tmp_path / "b" / "trace.jsonl").read_bytes()
    assert trace_a == trace_b
    assert (
        (tmp_path / "a" / "best_params.yaml").read_bytes()
        == (tmp_path / "b" / "best_params.yaml").read_bytes()
    )
    best = yaml.safe_load((tmp_path / "a" / "best_params.yaml").read_text())
    assert "sigma_p" in best["pump"]
    assert len(best["pump"]["taps"]) == 6
    assert "signal" in best["resonator"]
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["search"]["seed"] == 0
    assert report["search"]["restarts"] == 1
    # fit diagnostics: the trace's converged fraction, and medians that
    # repeat with the seed
    fits = report["search"]["fits"]
    records = [json.loads(line) for line in trace_a.splitlines()]
    assert fits["converged_frac"] == pytest.approx(
        np.mean([r["converged"] for r in records]), abs=1e-9
    )
    assert (
        1 <= fits["njev_median"] <= fits["nfev_median"] <= inversion._FIT_MAX_NFEV
    )
    report_b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report_b["search"]["fits"] == fits


# ---------------------------------------------------------------------------
# diagnostics, not warnings

@pytest.mark.parametrize(
    "argv, sigma_p",
    [
        (("simulate", "--grid", "64"), None),
        # alpha_p * l_p at 1.35e-3 of its peak at the pump grid's edges
        (("simulate", "--grid", "64"), "101 GHz"),
        pytest.param(
            ("optimize", "--restarts", "1"), None,
            marks=pytest.mark.slow,
        ),
    ],
)
def test_success_writes_nothing_to_stderr(tmp_path, capfd, monkeypatch, argv, sigma_p):
    """A run that succeeds writes nothing to fd 2, from the main process
    or from the pool's two workers (a warning from package code is an
    error under the pytest configuration's filter, in the forked workers
    too).  A pump too wide for its grid shows in the report's
    diagnostics.adp_edge instead."""
    monkeypatch.setenv("TFM_SYNTH_THREADS", "2")
    config = (
        "bell_phi_minus" if sigma_p is None
        else _preset_with(tmp_path, "pump", "sigma_p", sigma_p)
    )
    out = tmp_path / "out"
    code = main([*argv, "--config", config, "--out", str(out)])
    captured = capfd.readouterr()
    assert code == 0
    assert captured.err == ""
    diagnostics = json.loads((out / "report.json").read_text())["diagnostics"]
    assert diagnostics["hg_norm_error"] < 1e-9
    assert (diagnostics["adp_edge"] > 1e-4) == (sigma_p is not None)


# ---------------------------------------------------------------------------
# run-time dependencies

# a fresh interpreter in which every scipy import fails; it runs simulate and
# optimize (polish on), then names any scipy module that got loaded anyway
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from tfm_synth.cli import main
out = sys.argv[1]
for argv in (
    ["simulate", "--config", "bell_phi_minus", "--grid", "64", "--out", out + "/sim"],
    ["optimize", "--config", "bell_phi_minus", "--restarts", "1", "--out", out + "/opt"],
):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod]
sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
"""


@pytest.mark.slow
def test_simulate_and_optimize_run_without_scipy(tmp_path):
    """scipy is a test dependency only: with every scipy import made to
    fail, simulate and optimize, the polish on, exit 0.  One worker keeps
    the whole search in the guarded process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + path if path else ""),
        TFM_SYNTH_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
