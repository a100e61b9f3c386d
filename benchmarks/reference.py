"""Frozen oracle: the benchmark workloads' algorithms as they stand at the
commit that defined the benchmark, restated in plain NumPy.

The benchmark checks each run of the ``grouse`` package against these
functions, so a later change to ``grouse`` that alters results (rather than
only reordering floating-point operations) fails the benchmark.  Nothing
here imports ``grouse``.  The arithmetic mirrors the package operation for
operation, so at the defining commit the two agree bit for bit; the checks
allow ``RTOL`` for reorderings that move the last digits.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

# Relative tolerance for trajectories and fitted factors.  A reordering of
# floating-point operations moves a value by a few ulp (~1e-16 relative)
# per step; over the few thousand steps of a workload that stays far
# below this, while any change to the algorithm moves values by much more.
RTOL = 1e-8

_RANK_RTOL = 1e-13
_DRIFT_TOL = 1e-8
_RESIDUAL_FLOOR = 1e-14
_THETA_FLOOR = 1e-13
_THETA_CEIL = 1e-9
_EXACT_EPS_LIMIT = 2_000_000
_EPS_SWITCH = 1e-8


def _orth(a: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() <= _RANK_RTOL * max(diag.max(), np.finfo(float).tiny):
        raise ArithmeticError("rank deficient")
    return q


def _least_squares(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(c)
    diag = np.abs(np.diag(r))
    if diag.min() <= _RANK_RTOL * max(diag.max(), np.finfo(float).tiny):
        raise ArithmeticError("singular sample")
    return solve_triangular(r, q.T @ b)


def _eps(u: np.ndarray, ubar: np.ndarray) -> float:
    g = u - ubar @ (ubar.T @ u)
    return float(np.sum(g * g))


def _drift(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))


def _gate_passed(u: np.ndarray, omega: np.ndarray) -> bool:
    n, d = u.shape
    m = len(omega)
    if m == 0:
        return False
    sigma = np.linalg.svd(u[omega], compute_uv=False)
    eigen_max = float(sigma[0] ** 2)
    eigen_min = 0.0 if m < d else float(sigma[-1] ** 2)
    return m >= d and eigen_min >= 0.5 * m / n and eigen_max <= 1.5 * m / n


def problem(n: int, d: int, seed: int, init_noise_std: float = 0.5):
    """(ubar, u0) column arrays of the synthetic protocol."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    target = rng.standard_normal((n, d))
    noise = rng.standard_normal((n, d)) * init_noise_std
    return _orth(target), _orth(target + noise)


def observations(ubar: np.ndarray, q: int, iters: int, seed: int):
    """(omega, values, s) per step: the protocol's observation stream."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    n, d = ubar.shape
    out = []
    for _ in range(iters):
        s = rng.standard_normal(d)
        v = ubar @ s
        omega = np.sort(rng.choice(n, size=q, replace=False))
        out.append((omega, v[omega], s))
    return out


def run_full(u0: np.ndarray, ubar: np.ndarray, iters: int, seed: int, reortho_every: int = 100):
    """Full-data step loop; returns dict of epsilons, taken, norm_r, norm_p, theta."""
    rng = np.random.default_rng(seed)
    u = u0
    n, d = u0.shape
    exact = n * d * d <= _EXACT_EPS_LIMIT
    a = None if exact else u.T @ ubar

    def measure() -> float:
        if exact:
            return _eps(u, ubar)
        rough = float(d - np.sum(a * a))
        return rough if rough >= _EPS_SWITCH else _eps(u, ubar)

    eps = [measure()]
    taken, norm_r_arr, norm_p_arr, theta_arr = [], [], [], []
    for t in range(1, iters + 1):
        s = rng.standard_normal(d)
        v = ubar @ s
        w = u.T @ v
        p = u @ w
        r = v - p
        norm_w = float(np.linalg.norm(w))
        norm_p = float(np.linalg.norm(p))
        norm_r = float(np.linalg.norm(r))
        theta = float(np.arctan2(norm_r, norm_w))
        ok = _THETA_FLOOR < theta < np.pi / 2 - _THETA_CEIL
        if ok:
            gain = (np.cos(theta) - 1.0) * p / norm_p + np.sin(theta) * r / norm_r
            u = u + np.outer(gain, w / norm_w)
            if a is not None:
                a = a + np.outer(w / norm_w, ubar.T @ gain)
        taken.append(ok)
        norm_r_arr.append(norm_r)
        norm_p_arr.append(norm_p)
        theta_arr.append(theta)
        if t % reortho_every == 0 or (exact and _drift(u) > _DRIFT_TOL):
            u = _orth(u)
            if a is not None:
                a = u.T @ ubar
        eps.append(measure())
    return {
        "epsilons": np.array(eps),
        "gate_passed": np.ones(iters, dtype=bool),
        "taken": np.array(taken, dtype=bool),
        "norm_r": np.array(norm_r_arr),
        "norm_p": np.array(norm_p_arr),
        "theta": np.array(theta_arr),
    }


def run_stream(u0, stream, ubar=None, alpha: float = 1.0, bypass_gate: bool = False,
               reortho_every: int = 100):
    """Partial-data step loop over (omega, values) pairs; no revealed angle."""
    u = u0
    n, d = u0.shape
    eps = None if ubar is None else [_eps(u0, ubar)]
    gate_passed, taken, norm_r_arr, norm_p_arr = [], [], [], []
    for t, (omega, values, *_) in enumerate(stream, start=1):
        passed = _gate_passed(u, omega)
        gate_passed.append(passed)
        if passed or bypass_gate:
            sub = u[omega]
            w = _least_squares(sub, values)
            p = u @ w
            r = np.zeros(n)
            r[omega] = values - sub @ w
            norm_r = float(np.linalg.norm(r))
            norm_p = float(np.linalg.norm(p))
            scale = float(np.linalg.norm(values))
            sigma = norm_r * norm_p
            if not (norm_r <= _RESIDUAL_FLOOR * scale or norm_p <= _RESIDUAL_FLOOR * scale):
                eta = float(np.arcsin(min(1.0, alpha * norm_r / norm_p)) / sigma)
                angle = sigma * eta
                gain = (np.cos(angle) - 1.0) * p / norm_p + np.sin(angle) * r / norm_r
                u = u + np.outer(gain, w / float(np.linalg.norm(w)))
            taken.append(True)
            norm_r_arr.append(norm_r)
            norm_p_arr.append(norm_p)
        else:
            taken.append(False)
            norm_r_arr.append(0.0)
            norm_p_arr.append(0.0)
        if t % reortho_every == 0 or _drift(u) > _DRIFT_TOL:
            u = _orth(u)
        if eps is not None:
            eps.append(_eps(u, ubar))
    return {
        "epsilons": None if eps is None else np.array(eps),
        "gate_passed": np.array(gate_passed, dtype=bool),
        "taken": np.array(taken, dtype=bool),
        "norm_r": np.array(norm_r_arr),
        "norm_p": np.array(norm_p_arr),
    }


def sweep_cell_mean_x(n: int, d: int, q: int, trials: int, iters: int, seed: int) -> float:
    """Mean fitted X of one gate-bypassed sweep cell."""
    xs = []
    for trial in range(trials):
        trial_seed = int(np.random.SeedSequence([seed, n, d, q, trial]).generate_state(1)[0])
        ubar, u0 = problem(n, d, trial_seed)
        res = run_stream(u0, observations(ubar, q, iters, trial_seed), ubar, bypass_gate=True)
        eps0, eps_n = float(res["epsilons"][0]), float(res["epsilons"][-1])
        x = math.nan
        if eps0 > 0.0 and eps_n > 0.0:
            x = (1.0 - (eps_n / eps0) ** (1.0 / iters)) * n * d / q
        xs.append(x)
    return float(np.nanmean(np.array(xs)))


def skip_count(n: int, d: int, q: int, trials: int, eps: float, seed: int) -> int:
    """Gate failures of the ``skip-rate`` verb (Gaussian-frame pair)."""
    rng = np.random.default_rng(seed)
    cols = _orth(rng.standard_normal((n, 2 * d)))
    ubar_cols, comp = cols[:, :d], cols[:, d:]
    sin_sq = eps * rng.dirichlet(np.full(d, 2.0))
    if np.any(sin_sq > 1.0):
        raise ValueError("reference covers eps <= 1 only")
    sin_phi = np.sqrt(sin_sq)
    cos_phi = np.sqrt(1.0 - sin_phi**2)
    u = (ubar_cols * cos_phi + comp * sin_phi) @ _orth(rng.standard_normal((d, d)))
    rng = np.random.default_rng(seed)
    fails = 0
    for _ in range(trials):
        if not _gate_passed(u, np.sort(rng.choice(n, size=q, replace=False))):
            fails += 1
    return fails
