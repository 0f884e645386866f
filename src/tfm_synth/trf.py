"""Trust-region-reflective least squares over a batch of independent problems.

A port of the bound-constrained loop that scipy.optimize.least_squares
runs for method="trf" with tr_solver="exact", x_scale 1, a linear loss
and ftol=None (Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1 (1999);
the trust-region subproblem after More, Lecture Notes in Math. 630, 105
(1978)), written for a stack of problems that share their sizes and
bounds.  Each row keeps its own iterate, trust radius, Levenberg-Marquardt
parameter, evaluation counts and status, takes the steps least_squares
would take on it alone, and leaves the batch when it terminates.

A row's result does not depend on the other rows, on its position or on
the batch size, bit for bit: every per-row quantity comes from
elementwise arithmetic, from sums along a contiguous last axis
(np.sum(axis=-1)), from np.linalg.svd over the stack and from the
caller's residual and Jacobian, never from a matrix product across rows.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps
# least_squares' settings of solve_lsq_trust_region
_TR_RTOL = 0.01
_TR_MAX_ITER = 10


def _dot(a, b):
    """Row-wise inner products over the last axis."""
    return np.sum(a * b, axis=-1)


def _norm(a):
    return np.sqrt(_dot(a, a))


def _matvec(m, v):
    """Row-wise m @ v for m of shape (k, p, q) and v of shape (k, q)."""
    return np.sum(m * v[:, None, :], axis=-1)


def _transposed(m):
    return np.ascontiguousarray(np.swapaxes(m, 1, 2))


def _strictly_feasible(x, lb, ub, rstep):
    """make_strictly_feasible: move points on or past a bound inside it,
    by rstep relative to the bound, or by one ulp when rstep is 0."""
    x_new = x.copy()
    lb = np.broadcast_to(lb, x.shape)
    ub = np.broadcast_to(ub, x.shape)
    if rstep == 0:
        lower = x <= lb
        upper = x >= ub
        # an upper bound overrides a lower one, as in find_active_constraints
        lower &= ~upper
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        lower_dist = x - lb
        upper_dist = ub - x
        lower_threshold = rstep * np.maximum(1, np.abs(lb))
        upper_threshold = rstep * np.maximum(1, np.abs(ub))
        lower = np.isfinite(lb) & (
            lower_dist <= np.minimum(upper_dist, lower_threshold)
        )
        upper = np.isfinite(ub) & (
            upper_dist <= np.minimum(lower_dist, upper_threshold)
        )
        lower &= ~upper
        x_new[lower] = lb[lower] + lower_threshold[lower]
        x_new[upper] = ub[upper] - upper_threshold[upper]
    tight = (x_new < lb) | (x_new > ub)
    x_new[tight] = 0.5 * (lb[tight] + ub[tight])
    return x_new


def _scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling vector v and its derivative dv (CL_scaling_vector)."""
    to_upper = (g < 0) & np.isfinite(ub)
    to_lower = (g > 0) & np.isfinite(lb)
    v = np.where(to_lower, x - lb, np.where(to_upper, ub - x, 1.0))
    dv = np.where(to_lower, 1.0, np.where(to_upper, -1.0, 0.0))
    return v, dv


def _step_to_bound(x, s, lb, ub):
    """Per row, the smallest t >= 0 at which x + t s meets a bound, and
    which bounds it meets (-1 lower, 1 upper, 0 none); t is inf for a
    direction that meets none (step_size_to_bound)."""
    moving = s != 0
    with np.errstate(over="ignore"):
        to_lb = np.divide(lb - x, s, out=np.full(x.shape, np.inf), where=moving)
        to_ub = np.divide(ub - x, s, out=np.full(x.shape, np.inf), where=moving)
    steps = np.maximum(to_lb, to_ub)
    min_step = np.min(steps, axis=-1)
    hits = (steps == min_step[:, None]) * np.sign(s).astype(int)
    return min_step, hits


def _to_trust_region(x, s, delta):
    """The positive t with |x + t s| = delta (intersect_trust_region)."""
    a = _dot(s, s)
    b = _dot(x, s)
    c = _dot(x, x) - delta * delta
    d = np.sqrt(b * b - a * c)
    q = -(b + np.copysign(d, b))
    return np.maximum(q / a, c / q)


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of t -> model(s0 + t s) (build_quadratic_1d)."""
    v = _matvec(J, s)
    a = _dot(v, v)
    a += _dot(s * diag, s)
    a *= 0.5
    b = _dot(g, s)
    if s0 is None:
        return a, b
    u = _matvec(J, s0)
    b += _dot(u, v)
    c = 0.5 * _dot(u, u) + _dot(g, s0)
    b += _dot(s0 * diag, s)
    c += 0.5 * _dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lo, hi, c=0.0):
    """Minimum of t (a t + b) + c over [lo, hi], at an end or the interior
    extremum, the first of them on a tie (minimize_quadratic_1d)."""
    extremum = np.divide(-0.5 * b, a, out=np.zeros_like(a), where=a != 0)
    inside = (a != 0) & (lo < extremum) & (extremum < hi)
    t = np.stack([lo, hi, np.where(inside, extremum, lo)], axis=-1)
    y = t * (a[:, None] * t + b[:, None]) + np.asarray(c)[..., None]
    y[:, 2] = np.where(inside, y[:, 2], np.inf)
    best = np.argmin(y, axis=-1)
    pick = np.arange(len(a))
    return t[pick, best], y[pick, best]


def _model_value(J, g, s, diag):
    """0.5 s.(J^T J + diag) s + g.s (evaluate_quadratic)."""
    Js = _matvec(J, s)
    q = _dot(Js, Js)
    q += _dot(s * diag, s)
    return 0.5 * q + _dot(s, g)


def _solve_trust_region(m, uf, s, V, delta, alpha):
    """Steps p_h with |p_h| = delta, or inside it when the Gauss-Newton step
    is, and the Levenberg-Marquardt parameter each took
    (solve_lsq_trust_region, warm-started from the rows' alpha)."""
    k, n = uf.shape
    p = np.empty((k, n))
    alpha = alpha.copy()
    suf = s * uf
    full_rank = s[:, -1] > _EPS * m * s[:, 0] if m >= n else np.zeros(k, bool)
    searched = np.ones(k, bool)
    fr = np.flatnonzero(full_rank)
    if fr.size:
        gauss_newton = -_matvec(V[fr], uf[fr] / s[fr])
        inside = _norm(gauss_newton) <= delta[fr]
        p[fr[inside]] = gauss_newton[inside]
        alpha[fr[inside]] = 0.0
        searched[fr[inside]] = False
    rows = np.flatnonzero(searched)
    if not rows.size:
        return p, alpha
    suf, s, V, delta = suf[rows], s[rows], V[rows], delta[rows]
    full_rank = full_rank[rows]
    alpha_k = alpha[rows]

    def phi_and_derivative(a, suf, s, delta):
        denom = s * s + a[:, None]
        p_norm = _norm(suf / denom)
        return p_norm - delta, -np.sum(suf * suf / denom**3, axis=-1) / p_norm

    upper = _norm(suf) / delta
    lower = np.zeros(len(rows))
    fr = np.flatnonzero(full_rank)
    if fr.size:
        phi, phi_prime = phi_and_derivative(
            np.zeros(fr.size), suf[fr], s[fr], delta[fr]
        )
        lower[fr] = -phi / phi_prime
    restart = ~full_rank & (alpha_k == 0)
    alpha_k = np.where(
        restart, np.maximum(0.001 * upper, np.sqrt(lower * upper)), alpha_k
    )
    running = np.arange(len(rows))
    for _ in range(_TR_MAX_ITER):
        a, lo, hi = alpha_k[running], lower[running], upper[running]
        a = np.where((a < lo) | (a > hi), np.maximum(0.001 * hi, np.sqrt(lo * hi)), a)
        dl = delta[running]
        phi, phi_prime = phi_and_derivative(a, suf[running], s[running], dl)
        upper[running] = np.where(phi < 0, a, hi)
        ratio = phi / phi_prime
        lower[running] = np.maximum(lo, a - ratio)
        alpha_k[running] = a - (phi + dl) * ratio / dl
        running = running[~(np.abs(phi) < _TR_RTOL * dl)]
        if not running.size:
            break
    step = -_matvec(V, suf / (s * s + alpha_k[:, None]))
    step *= (delta / _norm(step))[:, None]
    p[rows] = step
    alpha[rows] = alpha_k
    return p, alpha


def _reflective_step(x, J_h, diag_h, g_h, p, p_h, d, delta, lb, ub, theta):
    """select_step for rows whose trust-region step p leaves the bounds:
    the best of that step cut back at the bound, its reflection off the
    bound and the scaled gradient step, by the quadratic model."""
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.where(hits != 0, -p_h, p_h)
    r = d * r_h
    p = p * p_stride[:, None]
    p_h = p_h * p_stride[:, None]
    x_on_bound = x + p

    # the reflected direction leaves either the feasible region or the
    # trust region first
    to_tr = _to_trust_region(p_h, r_h, delta)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = np.minimum(to_bound, to_tr)
    positive = r_stride > 0
    r_lo = np.divide(
        (1 - theta) * p_stride, r_stride, out=np.zeros_like(r_stride), where=positive
    )
    r_hi = np.where(
        positive, np.where(r_stride == to_bound, theta * to_bound, to_tr), -1.0
    )
    r_value = np.full(len(x), np.inf)
    refl = np.flatnonzero(r_lo <= r_hi)
    if refl.size:
        a, b, c = _quadratic_1d(
            J_h[refl], g_h[refl], r_h[refl], diag_h[refl], s0=p_h[refl]
        )
        t, r_value[refl] = _minimize_quadratic_1d(a, b, r_lo[refl], r_hi[refl], c)
        r_h[refl] = r_h[refl] * t[:, None] + p_h[refl]
        r[refl] = r_h[refl] * d[refl]

    # the step cut back strictly inside the bounds
    p *= theta[:, None]
    p_h *= theta[:, None]
    p_value = _model_value(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = np.where(to_bound < to_tr, theta * to_bound, to_tr)
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, np.zeros_like(a), ag_stride)
    ag_h *= ag_stride[:, None]
    ag *= ag_stride[:, None]

    take_p = (p_value < r_value) & (p_value < ag_value)
    take_r = ~take_p & (r_value < p_value) & (r_value < ag_value)
    step = np.where(take_p[:, None], p, np.where(take_r[:, None], r, ag))
    step_h = np.where(take_p[:, None], p_h, np.where(take_r[:, None], r_h, ag_h))
    value = np.where(take_p, p_value, np.where(take_r, r_value, ag_value))
    return step, step_h, -value


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, delta, lb, ub, theta):
    """(step, step in hat space, predicted reduction) of each row."""
    step, step_h = p.copy(), p_h.copy()
    predicted = -_model_value(J_h, g_h, p_h, diag_h)
    out = np.flatnonzero(~np.all((x + p >= lb) & (x + p <= ub), axis=-1))
    if out.size:
        step[out], step_h[out], predicted[out] = _reflective_step(
            x[out], J_h[out], diag_h[out], g_h[out], p[out], p_h[out], d[out],
            delta[out], lb, ub, theta[out],
        )
    return step, step_h, predicted


def least_squares_trf(fun, jac, x0, lb, ub, gtol, xtol, max_nfev):
    """Minimize 0.5 |f(x)|^2 within lb <= x <= ub, one problem per row of x0.

    fun(rows, x) returns (f, point): the residuals f, of shape (k, m), of
    the problems numbered rows (an index array into x0's rows) at x, of
    shape (k, n), and a tuple of arrays with k leading rows that jac
    needs from that evaluation.  jac(rows, x, point) returns the
    Jacobians, of shape (k, m, n), from the point fun returned at the
    same rows and x; it is called only at accepted steps.  lb and ub
    bound every row alike.  Returns (x, nfev, njev, status) per row, with
    least_squares' status codes: 0 the evaluation budget max_nfev ran
    out, 1 the gtol test passed, 3 the xtol test passed.  A row whose
    initial residuals are not finite is a ValueError, as in least_squares.
    """
    x = _strictly_feasible(np.array(x0, dtype=float), lb, ub, 1e-10)
    n_rows, n = x.shape
    every = np.arange(n_rows)
    f, point = fun(every, x)
    f = np.ascontiguousarray(f)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    m = f.shape[1]
    J = np.ascontiguousarray(jac(every, x, point))
    nfev = np.ones(n_rows, dtype=int)
    njev = np.ones(n_rows, dtype=int)
    cost = 0.5 * _dot(f, f)
    g = _matvec(_transposed(J), f)
    v, _ = _scaling_vector(x, g, lb, ub)
    delta = _norm(x / v**0.5)
    delta[delta == 0] = 1.0
    alpha = np.zeros(n_rows)
    status = np.full(n_rows, -1)
    active = np.ones(n_rows, bool)
    # rows at the top of an outer iteration, whose scaled problem and its
    # SVD are (re)built before the next step
    fresh = np.ones(n_rows, bool)
    d = np.empty((n_rows, n))
    diag_h = np.empty((n_rows, n))
    g_h = np.empty((n_rows, n))
    J_h = np.empty((n_rows, m, n))
    uf = np.empty((n_rows, n))
    sv = np.empty((n_rows, n))
    V = np.empty((n_rows, n, n))
    theta = np.empty(n_rows)

    while True:
        top = np.flatnonzero(fresh & active)
        if top.size:
            fresh[top] = False
            v, dv = _scaling_vector(x[top], g[top], lb, ub)
            g_norm = np.max(np.abs(g[top] * v), axis=-1)
            status[top[g_norm < gtol]] = 1
            stop = (status[top] >= 0) | (nfev[top] == max_nfev)
            active[top[stop]] = False
            top, v, dv, g_norm = top[~stop], v[~stop], dv[~stop], g_norm[~stop]
        if top.size:
            d[top] = v**0.5
            diag_h[top] = g[top] * dv
            g_h[top] = d[top] * g[top]
            J_h[top] = J[top] * d[top][:, None, :]
            augmented = np.zeros((top.size, m + n, n))
            augmented[:, :m] = J_h[top]
            augmented[:, m + np.arange(n), np.arange(n)] = diag_h[top] ** 0.5
            U, sv[top], Vt = np.linalg.svd(augmented, full_matrices=False)
            f_augmented = np.zeros((top.size, m + n))
            f_augmented[:, :m] = f[top]
            uf[top] = _matvec(_transposed(U), f_augmented)
            V[top] = _transposed(Vt)
            theta[top] = np.maximum(0.995, 1 - g_norm)
        live = np.flatnonzero(active)
        if not live.size:
            break

        # one trial step of every live row
        dl = delta[live]
        p_h, alpha[live] = _solve_trust_region(
            m, uf[live], sv[live], V[live], dl, alpha[live]
        )
        p = d[live] * p_h
        x_live = x[live]
        step, step_h, predicted = _select_step(
            x_live, J_h[live], diag_h[live], g_h[live], p, p_h, d[live], dl,
            lb, ub, theta[live],
        )
        x_new = _strictly_feasible(x_live + step, lb, ub, 0)
        f_new, point = fun(live, x_new)
        f_new = np.ascontiguousarray(f_new)
        nfev[live] += 1
        step_h_norm = _norm(step_h)

        # a step to non-finite residuals shrinks the radius and tries again
        finite = np.all(np.isfinite(f_new), axis=-1)
        delta[live[~finite]] = 0.25 * step_h_norm[~finite]
        cost_new = np.full(live.size, np.inf)
        cost_new[finite] = 0.5 * _dot(f_new[finite], f_new[finite])
        reduction = np.where(finite, cost[live] - cost_new, -1.0)
        ratio = np.divide(
            reduction, predicted, out=np.zeros_like(reduction), where=predicted > 0
        )
        ratio[(predicted == 0) & (reduction == 0)] = 1.0
        delta_new = np.where(
            ratio < 0.25,
            0.25 * step_h_norm,
            np.where((ratio > 0.75) & (step_h_norm > 0.95 * dl), 2.0 * dl, dl),
        )
        # ftol=None leaves the xtol test
        converged = finite & (_norm(step) < xtol * (xtol + _norm(x_live)))
        status[live[converged]] = 3
        go_on = finite & ~converged
        alpha[live[go_on]] *= dl[go_on] / delta_new[go_on]
        delta[live[go_on]] = delta_new[go_on]

        accepted = finite & (reduction > 0)
        acc = live[accepted]
        if acc.size:
            x[acc] = x_new[accepted]
            f[acc] = f_new[accepted]
            cost[acc] = cost_new[accepted]
            J[acc] = jac(acc, x[acc], tuple(a[accepted] for a in point))
            njev[acc] += 1
            g[acc] = _matvec(_transposed(J[acc]), f[acc])
        fresh[live[accepted | converged | (nfev[live] == max_nfev)]] = True
    status[status < 0] = 0
    return x, nfev, njev, status
