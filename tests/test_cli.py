"""Command-line interface: outputs, exit codes, determinism."""

import copy
import json

import numpy as np
import pytest
import yaml

from tfm_synth.cli import main
from tfm_synth.config import load_preset, preset_path
from tfm_synth.resonator import MziCouplerSpec, mzi_effective_mu


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
        realized = mzi_effective_mu(
            MziCouplerSpec(
                spec.k_prime, h1, h2, h3,
                spec.perimeter_main, spec.perimeter_aux, spec.group_velocity,
            )
        )
        assert realized == pytest.approx(mu, abs=1e-6 * max(mu, 1e9))


def test_sweep_mzi_zero_row_is_bar_state(capsys):
    _, stdout, _ = run(
        capsys, "sweep-mzi", "--config", "bell_phi_minus",
        "--mu-min", "0", "--mu-max", "0", "--mu-step", "1e9",
    )
    first = stdout.strip().split("\n")[1].split(",")
    # delta = pi split symmetrically across the arms
    assert float(first[1]) == pytest.approx(np.pi / 2.0)
    assert float(first[2]) == pytest.approx(-np.pi / 2.0)


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


# ---------------------------------------------------------------------------
# optimize

@pytest.mark.parametrize("threads", ["abc", "0", "1.5"])
def test_optimize_invalid_threads_exits_2(tmp_path, capsys, monkeypatch, threads):
    """The worker count is read before any fit runs."""
    monkeypatch.setenv("TFM_SYNTH_THREADS", threads)
    code, _, stderr = run(
        capsys, "optimize", "--config", "bell_phi_minus",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "TFM_SYNTH_THREADS" in stderr


@pytest.mark.slow
def test_optimize_bit_reproducible(tmp_path, capsys):
    """Two runs with the same seed emit byte-identical traces."""
    args = [
        "optimize", "--config", "bell_phi_minus",
        "--seed", "0", "--restarts", "1", "--grid", "128",
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
