"""Checks of tfm-synth outputs, made apart from the program.

Each check reads what a command wrote, recomputes the quantity with
model.py and numpy alone, and raises CheckFailed on a mismatch.  The
benchmark counts an operation whose check raises as failed.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np
import yaml

import model

# report.json keeps 9 significant digits; recomputation differs from the
# program's own arithmetic by round-off far below that
REPORT_DIGITS = 9
ROUNDOFF_RTOL = 1e-12
# tfm_synth.analysis.fidelity takes the Uhlmann form through two
# eigendecompositions of 16 x 16 density matrices; the square roots of
# their clipped round-off eigenvalues leave errors up to ~4e-8 against the
# exact pure-state overlap (measured on the four presets), so the
# fidelity is compared to this looser tolerance.
FIDELITY_RTOL = 1e-6
# the program assembles the JSA from a linearly interpolated ADP (fast
# path) or linearly interpolated mirror samples (quadrature); against
# the exact direct sum this leaves ratio errors of ~1.5e-3 at most
PUMP_INTEGRAL_RTOL = 5e-3
# paper values: fidelity for d = 2, 3, 4 and the separable purity
PAPER_FIDELITY = {2: 0.950, 3: 0.954, 4: 0.971}
PAPER_PURITY = 0.968
FIDELITY_TOL = 0.02
PURITY_TOL = 0.01
DESIGN_MIN_FIDELITY = 0.94


class CheckFailed(Exception):
    """An output differs from what the benchmark recomputed."""


def _grid(meta: dict):
    center, half, n = meta["center"], meta["half_span"], meta["n_points"]
    return np.linspace(center - half, center + half, n), 2.0 * half / (n - 1)


def read_state(out_dir: str) -> dict:
    """jsa.bin by its documented layout plus report.json.

    jsa.bin holds little-endian float64 (re, im) pairs, row-major over
    (idler, signal), signal index fastest; jsa.json gives the grids.
    """
    with open(os.path.join(out_dir, "jsa.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    ws, ds = _grid(meta["grid_signal"])
    wi, di = _grid(meta["grid_idler"])
    raw = np.fromfile(os.path.join(out_dir, "jsa.bin"), dtype="<f8")
    if raw.size != ws.size * wi.size * 2:
        raise CheckFailed(f"jsa.bin holds {raw.size} values, expected {ws.size * wi.size * 2}")
    raw = raw.reshape(wi.size, ws.size, 2)
    amp = (raw[:, :, 0] + 1j * raw[:, :, 1]).T
    if not amp.imag.any():
        amp = amp.real
    return {"amp": amp, "ws": ws, "wi": wi, "ds": ds, "di": di, "report": report}


def _close(name, mine, reported, rtol, atol=0.0):
    if not abs(mine - reported) <= rtol * abs(reported) + atol:
        raise CheckFailed(f"{name}: recomputed {mine!r}, reported {reported!r}")


def _same_digits(name, mine, reported, atol=0.0):
    """mine agrees with a value the report rounded to 9 significant digits."""
    unit = 10.0 ** (np.floor(np.log10(abs(reported))) - REPORT_DIGITS + 1) if reported else 0.0
    _close(name, mine, reported, ROUNDOFF_RTOL, 0.5 * unit + atol)


def antidiagonals(state: dict):
    """Weight per anti-diagonal s = j + k and the indices s where the
    state's sign flips between s and s + 1.

    The reported state carries its pi flips as a factor of w_s + w_i
    alone, so every anti-diagonal must have one sign.
    """
    amp = state["amp"]
    if np.iscomplexobj(amp):
        raise CheckFailed("reported state is not real")
    if abs(state["ds"] - state["di"]) > 1e-12 * state["ds"]:
        raise CheckFailed("signal and idler grids differ in spacing")
    n_s, n_i = amp.shape
    s = np.add.outer(np.arange(n_s), np.arange(n_i)).ravel()
    flat = amp.ravel()
    signed = np.bincount(s, weights=flat)
    absolute = np.bincount(s, weights=np.abs(flat))
    if np.any(np.abs(np.abs(signed) - absolute) > 1e-12 * absolute.max()):
        raise CheckFailed("sign of the state varies along an anti-diagonal")
    weight = np.bincount(s, weights=flat * flat) * state["ds"] * state["di"]
    sign = np.sign(signed)
    nonzero = np.nonzero(sign)[0]
    flips = [
        int(a) for a, b in zip(nonzero[:-1], nonzero[1:]) if sign[a] != sign[b]
    ]
    return weight, flips


def check_norm(state: dict) -> float:
    """The state has unit norm, less what the pi-flip ramps remove.

    tfm_synth scales the anti-diagonals within one cell of each flip by
    |w_s + w_i - u_min| / cell and does not renormalize afterwards, so
    the norm falls short of 1 by at most the weight those four
    anti-diagonals had; that weight is bounded by four times the larger
    of the two anti-diagonals just outside the ramp, since the flip sits
    at a minimum of |F|.
    """
    amp = state["amp"]
    norm = float(np.sum(np.abs(amp) ** 2) * state["ds"] * state["di"])
    weight, flips = antidiagonals(state)
    allowed = sum(
        4.0 * max(weight[max(f - 2, 0)], weight[min(f + 3, weight.size - 1)])
        for f in flips
    )
    if not (1.0 - allowed - 1e-9 <= norm <= 1.0 + 1e-9):
        raise CheckFailed(
            f"norm {norm!r} outside [1 - {allowed:.3g}, 1] for {len(flips)} pi flips"
        )
    return norm


def state_numbers(state: dict, dev: dict) -> dict:
    """Schmidt numbers and HG pair overlaps, recomputed from jsa.bin."""
    amp = state["amp"]
    ds, di = state["ds"], state["di"]
    singular = np.linalg.svd(amp * np.sqrt(ds * di), compute_uv=False)
    weights = singular * singular
    modes_s = model.hg_modes(4, state["ws"], dev["signal"]["omega0"], dev["hg_sigma"])
    modes_i = model.hg_modes(4, state["wi"], dev["idler"]["omega0"], dev["hg_sigma"])
    c = modes_s @ amp @ modes_i.T * (ds * di)
    ckk = np.diagonal(c)
    target = np.zeros(4)
    d = dev["dimension"]
    target[:d] = [(-1.0) ** k / np.sqrt(d) for k in range(d)]
    return {
        "lambda": weights,
        "K_prime": 1.0 / float(np.sum(weights * weights)),
        "purity": float(np.sum(weights * weights)),
        "higher_order_weight": 1.0 - float(np.sum(weights[:4])),
        "c_kl": c,
        "subspace_weight": float(np.sum(np.abs(c) ** 2)),
        "fidelity": float(abs(np.vdot(target, ckk)) ** 2 / np.sum(np.abs(ckk) ** 2)),
    }


def check_report(state: dict, dev: dict) -> dict:
    """report.json agrees with the benchmark's own SVD and HG overlaps."""
    check_norm(state)
    mine = state_numbers(state, dev)
    rep = state["report"]
    lam = rep["lambda"]
    for k, value in enumerate(lam):
        _same_digits(f"lambda[{k}]", mine["lambda"][k], value, 1e-15)
    for key in ("K_prime", "purity", "higher_order_weight", "subspace_weight"):
        _same_digits(key, mine[key], rep[key])
    scale = float(np.max(np.abs(mine["c_kl"])))
    c_rep = np.array(rep["c_kl_re"]) + 1j * np.array(rep["c_kl_im"])
    if c_rep.shape != mine["c_kl"].shape:
        raise CheckFailed(f"c_kl has shape {c_rep.shape}")
    for (k, l), value in np.ndenumerate(c_rep):
        _same_digits(f"c_kl[{k}][{l}].re", mine["c_kl"][k, l].real, value.real, 1e-12 * scale)
        _same_digits(f"c_kl[{k}][{l}].im", mine["c_kl"][k, l].imag, value.imag, 1e-12 * scale)
    _close("fidelity", mine["fidelity"], rep["fidelity"], FIDELITY_RTOL)
    return mine


def check_paper(numbers: dict, dev: dict) -> None:
    """An unperturbed preset reproduces the paper's headline figure."""
    d = dev["dimension"]
    if d == 1:
        if abs(numbers["purity"] - PAPER_PURITY) > PURITY_TOL:
            raise CheckFailed(f"separable purity {numbers['purity']:.4f} vs paper {PAPER_PURITY}")
    elif abs(numbers["fidelity"] - PAPER_FIDELITY[d]) > FIDELITY_TOL:
        raise CheckFailed(
            f"d={d} fidelity {numbers['fidelity']:.4f} vs paper {PAPER_FIDELITY[d]}"
        )


def sample_points(state: dict, rng: np.random.Generator, n: int = 64):
    """Seeded grid points to compare: where |F| is at least 5% of its peak
    (below that, the program's interpolation error is large against the
    value), away from the pi-flip ramps."""
    _, flips = antidiagonals(state)
    mag = np.abs(state["amp"])
    j, k = np.nonzero(mag >= 0.05 * mag.max())
    ramp = np.zeros(j.size, dtype=bool)
    for f in flips:
        ramp |= np.abs(j + k - f - 0.5) < 3.0
    free = np.flatnonzero(~ramp)
    pick = rng.choice(free, size=min(n, free.size), replace=False)
    return j[pick], k[pick]


def check_pump_integral(state: dict, dev: dict, rng: np.random.Generator) -> None:
    """|JSA| at seeded points, as ratios, matches the direct pump sum.

    Holds whichever path (ADP or quadrature) the program took.
    """
    j, k = sample_points(state, rng)
    if j.size < 8:
        raise CheckFailed(f"only {j.size} grid points to compare")
    mine = np.abs(model.jsa_at(dev, state["ws"][j], state["wi"][k]))
    ratio = np.abs(state["amp"][j, k]) / mine
    ratio = ratio / np.median(ratio)
    worst = float(np.max(np.abs(ratio - 1.0)))
    if worst > PUMP_INTEGRAL_RTOL:
        raise CheckFailed(f"|JSA| ratio off the direct pump sum by {worst:.3g}")


def check_trace(out_dir: str, restarts: int, mu_points: int) -> int:
    """trace.jsonl holds one record per mu point and restart."""
    seen = {}
    with open(os.path.join(out_dir, "trace.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            mu = tuple(sorted(rec["mu"].items()))
            seen.setdefault(mu, []).append(rec["restart"])
    if len(seen) != mu_points:
        raise CheckFailed(f"trace.jsonl holds {len(seen)} mu points, expected {mu_points}")
    for mu, runs in seen.items():
        if sorted(runs) != list(range(restarts)):
            raise CheckFailed(f"mu point {dict(mu)} has restarts {sorted(runs)}")
    return sum(len(r) for r in seen.values())


def design_tree(tree: dict, out_dir: str) -> dict:
    """The config tree with best_params.yaml applied on top."""
    with open(os.path.join(out_dir, "best_params.yaml")) as fh:
        best = yaml.safe_load(fh)
    merged = copy.deepcopy(tree)
    merged["pump"].update(best["pump"])
    for chain, values in best["resonator"].items():
        merged["resonator"][chain].update(values)
    return merged


def check_design(resim: dict, dev: dict, out_dir: str) -> float:
    """The re-simulated design verifies at the reported fidelity."""
    numbers = check_report(resim, dev)
    with open(os.path.join(out_dir, "report.json")) as fh:
        reported = json.load(fh)["fidelity"]
    _close("verified fidelity", numbers["fidelity"], reported, FIDELITY_RTOL)
    if numbers["fidelity"] < DESIGN_MIN_FIDELITY:
        raise CheckFailed(f"design fidelity {numbers['fidelity']:.4f} < {DESIGN_MIN_FIDELITY}")
    return numbers["fidelity"]
