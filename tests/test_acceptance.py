"""Acceptance suite: one printed PASS/FAIL line per criterion.

Each criterion is checked at its stated tolerance against the reference
values of the four shipped configurations.  Lines are printed to the
real stdout so they appear even under pytest capture.
"""

import json
import sys
import time

import numpy as np
import pytest

from tfm_synth import load_preset, simulate
from tfm_synth.cli import main as cli_main
from tfm_synth.simulate import pgr_input

ENTANGLED = ("bell_phi_minus", "mes_d3", "mes_d4")

REF_FIDELITY = {"bell_phi_minus": 0.950, "mes_d3": 0.954, "mes_d4": 0.971}
REF_K_PRIME = {"bell_phi_minus": 2.23, "mes_d3": 3.26, "mes_d4": 4.03}
REF_HIGHER_ORDER = {"bell_phi_minus": 0.028, "mes_d3": 0.045, "mes_d4": 0.055}
REF_PURITY_SEPARABLE = 0.968
REF_PGR_KHZ = {"bell_phi_minus": 354.3, "mes_d3": 157.4, "mes_d4": 88.3}
DERIVED_RADIUS = 1.1424e-4  # m, main perimeter / (2 pi)

_results = {}
_timings = {}


def announce(capsys, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {status} — {detail}")
        sys.stdout.flush()


@pytest.fixture(scope="module")
def sims():
    for name in ENTANGLED + ("separable",):
        if name not in _results:
            cfg = load_preset(name)
            t0 = time.monotonic()
            _results[name] = simulate(cfg, n_points=512)
            _timings[name] = time.monotonic() - t0
    return _results


def test_criterion_1_fidelities(sims, capsys):
    details = []
    ok = True
    for name in ENTANGLED:
        f = sims[name].fidelity
        dt = _timings[name]
        good = abs(f - REF_FIDELITY[name]) <= 0.02 and dt < 30.0
        ok = ok and good
        details.append(f"{name} F={f:.4f} (ref {REF_FIDELITY[name]}, {dt:.1f}s)")
    announce(capsys, "criterion 1 (fidelity, 512^2, <30 s)", ok, "; ".join(details))
    assert ok


def test_criterion_2_schmidt_numbers(sims, capsys):
    details = []
    ok = True
    for name in ENTANGLED:
        k = sims[name].k_prime
        good = abs(k - REF_K_PRIME[name]) <= 0.1
        ok = ok and good
        details.append(f"{name} K'={k:.4f} (ref {REF_K_PRIME[name]})")
    announce(capsys, "criterion 2 (Schmidt number +/-0.1)", ok, "; ".join(details))
    assert ok


def test_criterion_3_higher_order_weight(sims, capsys):
    details = []
    ok = True
    for name in ENTANGLED:
        hw = sims[name].higher_order_weight
        good = abs(hw - REF_HIGHER_ORDER[name]) <= 0.015
        ok = ok and good
        details.append(f"{name} hw={hw:.4f} (ref {REF_HIGHER_ORDER[name]})")
    announce(capsys, "criterion 3 (higher-order weight +/-0.015)", ok, "; ".join(details))
    assert ok


def test_criterion_4_separable_purity(sims, capsys):
    p = sims["separable"].purity
    ok = abs(p - REF_PURITY_SEPARABLE) <= 0.01
    announce(capsys, 
        "criterion 4 (separable purity +/-0.01)",
        ok,
        f"P={p:.4f} (ref {REF_PURITY_SEPARABLE})",
    )
    assert ok


def test_criterion_5_pair_rates(sims, capsys):
    # record the derived-radius oracle before checking the rates
    inp = pgr_input(load_preset("bell_phi_minus"))
    radius_ok = inp.radius == pytest.approx(DERIVED_RADIUS, rel=1e-4)
    announce(capsys, 
        "criterion 5 radius oracle",
        radius_ok,
        f"R = perimeter/(2 pi) = {inp.radius:.6g} m (ref {DERIVED_RADIUS:.6g})",
    )
    details = []
    ok = radius_ok
    for name in ENTANGLED:
        khz = sims[name].pgr_hz / 1e3
        good = abs(khz - REF_PGR_KHZ[name]) <= 0.05 * REF_PGR_KHZ[name]
        ok = ok and good
        details.append(f"{name} {khz:.1f} kHz (ref {REF_PGR_KHZ[name]})")
    announce(capsys, "criterion 5 (pair rate +/-5%)", ok, "; ".join(details))
    assert ok


@pytest.mark.slow
def test_criterion_6_optimize(tmp_path, capsys):
    """Seeded 32-restart inverse design of the two-dimensional target:
    verified fidelity >= 0.94 in under 10 minutes, reproducible trace."""
    out = tmp_path / "opt"
    t0 = time.monotonic()
    code = cli_main([
        "optimize", "--config", "bell_phi_minus",
        "--seed", "0", "--restarts", "32", "--out", str(out),
    ])
    dt = time.monotonic() - t0
    stdout = capsys.readouterr().out
    summary = json.loads(stdout)
    f = summary["verified_fidelity"]
    ok = code == 0 and f >= 0.94 and dt < 600.0
    announce(capsys, 
        "criterion 6 (optimize seed 0, 32 restarts)",
        ok,
        f"verified F={f:.4f} (>=0.94), {dt:.1f} s (<600)",
    )
    assert ok
    # reproducibility: a fresh single-restart run must reproduce the
    # restart-0 records of the full trace byte for byte (same seeding)
    out_b = tmp_path / "opt_b"
    code_b = cli_main([
        "optimize", "--config", "bell_phi_minus",
        "--seed", "0", "--restarts", "1", "--grid", "128",
        "--out", str(out_b),
    ])
    capsys.readouterr()
    assert code_b == 0
    full = [
        line for line in (out / "trace.jsonl").read_text().splitlines()
        if json.loads(line)["restart"] == 0
    ]
    single = (out_b / "trace.jsonl").read_text().splitlines()
    repro = full == single
    announce(capsys, 
        "criterion 6 reproducibility",
        repro,
        f"restart-0 subset of the full trace matches a fresh run "
        f"({len(single)} records)",
    )
    assert repro


def test_criterion_7_grid_doubling(capsys):
    """Doubling the grid changes the Schmidt number by < 1e-3 (the other
    property suites live in the per-module test files)."""
    cfg = load_preset("bell_phi_minus")
    k512 = simulate(cfg, n_points=512).k_prime
    k1024 = simulate(cfg, n_points=1024).k_prime
    delta = abs(k1024 - k512)
    ok = delta < 1e-3
    announce(capsys, 
        "criterion 7 (grid-doubling invariance)",
        ok,
        f"|K'(1024) - K'(512)| = {delta:.2e} (<1e-3); property suites: "
        f"test_spectral, test_pulse_shaper, test_resonator, test_jsa, "
        f"test_analysis, test_inversion",
    )
    assert ok
