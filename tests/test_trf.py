"""The batched trust-region-reflective loop against scipy's least_squares."""

import numpy as np
import pytest
from scipy.optimize import least_squares

from tfm_synth import trf
from tfm_synth.trf import least_squares_trf

T = np.linspace(0.0, 4.0, 40)
# y = a exp(-b t) + c with a noise-free truth; the bounds below keep a and
# b from reaching it, so steps run into them and get reflected
TRUTHS = [(3.0, 1.3, 0.2), (1.5, 0.4, -0.3), (2.5, 0.9, 0.0), (0.8, 2.0, 1.0)]
STARTS = [(1.0, 0.1, 0.0), (0.2, 0.45, 1.0), (1.9, 0.05, -1.0), (0.5, 0.3, 0.5)]
LOWER = np.array([0.0, 0.0, -np.inf])
UPPER = np.array([2.0, 0.5, np.inf])
SETTINGS = dict(gtol=1e-8, xtol=1e-10, max_nfev=60)


def data(truth):
    a, b, c = truth
    return a * np.exp(-b * T) + c


def model(x):
    """Residual-free pieces: the model values and their Jacobian, per row."""
    e = np.exp(-x[:, 1:2] * T)
    values = x[:, :1] * e + x[:, 2:3]
    jac = np.stack([e, -x[:, :1] * T * e, np.ones_like(e)], axis=-1)
    return values, jac


def batch_problem(ys):
    def fun(rows, x):
        values, jac = model(x)
        return values - ys[rows], (jac,)

    def jac(rows, x, point):
        return point[0]

    return fun, jac


def test_rows_follow_least_squares():
    """Each row of a batch ends where least_squares ends on it alone: the
    same status and evaluation counts, x to 1e-8; some rows hit a bound
    and take the reflective step."""
    ys = np.array([data(t) for t in TRUTHS])
    fun, jac = batch_problem(ys)
    calls = []
    reflective = trf._reflective_step

    def counting(*args):
        calls.append(len(args[0]))
        return reflective(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trf, "_reflective_step", counting)
        x, nfev, njev, status = least_squares_trf(
            fun, jac, np.array(STARTS), LOWER, UPPER, **SETTINGS
        )
    assert calls
    for r, (y, start) in enumerate(zip(ys, STARTS)):
        want = least_squares(
            lambda p: model(p[None, :])[0][0] - y,
            start,
            jac=lambda p: model(p[None, :])[1][0],
            bounds=(LOWER, UPPER), method="trf", tr_solver="exact",
            x_scale=1.0, ftol=None, **SETTINGS,
        )
        assert (status[r], nfev[r], njev[r]) == (want.status, want.nfev, want.njev)
        np.testing.assert_allclose(x[r], want.x, rtol=0.0, atol=1e-8)


def test_a_row_does_not_depend_on_its_batch():
    """A row gives the same x, counts and status bit for bit alone, in a
    batch, and at another position in a larger one."""
    ys = np.array([data(t) for t in TRUTHS])
    fun, jac = batch_problem(np.concatenate([ys, ys[::-1]]))
    starts = np.array(STARTS + STARTS[::-1])
    whole = least_squares_trf(fun, jac, starts, LOWER, UPPER, **SETTINGS)
    for r in range(len(TRUTHS)):
        alone = least_squares_trf(
            batch_problem(ys[r : r + 1])[0], jac, starts[r : r + 1],
            LOWER, UPPER, **SETTINGS,
        )
        for k in (r, 2 * len(TRUTHS) - 1 - r):
            assert np.array_equal(whole[0][k], alone[0][0])
            assert (whole[1][k], whole[2][k], whole[3][k]) == (
                alone[1][0], alone[2][0], alone[3][0]
            )


def test_non_finite_start_is_rejected():
    ys = np.array([data(TRUTHS[0])])
    fun, jac = batch_problem(ys)

    def bad(rows, x):
        f, point = fun(rows, x)
        f[:, 0] = np.nan
        return f, point

    with pytest.raises(ValueError):
        least_squares_trf(bad, jac, np.array(STARTS[:1]), LOWER, UPPER, **SETTINGS)
