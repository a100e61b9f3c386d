"""Fully observed GROUSE with the exact per-step decrease identity.

With the whole vector v available the eigenvalue gate is unnecessary and
the step length eta = theta/sigma is exact: the error metric then drops by
exactly ``1 - ||ubar^T p||^2 / ||w||^2`` per step, which this module both
applies and exposes as a numerical oracle (:func:`predicted_decrease`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_vector, _count, _one_blas_thread, _real, _rng
from .metrics import Basis, _check_pair, _off_span, _rotated, epsilon_residual
from .results import TrialResult, _Trajectory

# theta below THETA_FLOOR (or within THETA_CEIL of pi/2) is an identity
# step: eta = theta/sigma is 0/0 at theta = 0 and the decrease is exactly
# zero at both endpoints.  The lower floor must sit well below the
# trajectory measurement floor (1e-24 in epsilon, ~3e-13 in angle), else
# convergence freezes at d*THETA_FLOOR^2 inside the usable range.
THETA_FLOOR = 1e-13
THETA_CEIL = 1e-9

# n*d^2 budget under which the driver measures epsilon from scratch every
# step; above it a rank-one-maintained U^T ubar product is used instead
# (refreshed at every re-orthonormalization).
_EXACT_EPS_LIMIT = 2_000_000


@dataclass(frozen=True, eq=False)
class FullStepRecord:
    """All quantities of one full-data iteration.

    cos(theta) = ||w||/||v|| and sigma = 0.5 ||v||^2 sin(2 theta); theta in
    [0, pi/2] is the angle the new vector reveals between the current span
    and the target.
    """

    w: np.ndarray
    p: np.ndarray
    r: np.ndarray
    sigma: float
    theta: float
    eta: float
    epsilon_before: float
    epsilon_after: float
    predicted_decrease: float
    taken: bool = True


def _split(cols, v):
    """(w, p, r, ||w||, ||p||, ||r||, theta) of v against the span of ``cols``."""
    w = cols.T @ v
    p = cols @ w
    r = v - p
    # sqrt(x.dot(x)) is np.linalg.norm's own formula for a 1-d vector
    norm_w = math.sqrt(w.dot(w))
    norm_p = math.sqrt(p.dot(p))
    norm_r = math.sqrt(r.dot(r))
    return w, p, r, norm_w, norm_p, norm_r, float(np.arctan2(norm_r, norm_w))


def _is_identity(theta: float) -> bool:
    """True when theta sits at an endpoint where the step is the identity."""
    return not THETA_FLOOR < theta < np.pi / 2 - THETA_CEIL


def predicted_decrease(u: Basis, ubar: Basis, v, eta: float) -> float:
    """Closed-form value of epsilon_t - epsilon_{t+1} for step length eta.

    Evaluates sin(sigma*eta) * sin(2*theta - sigma*eta) / sin^2(theta)
    times (1 - ||ubar^T p||^2 / ||w||^2); nonnegative whenever sigma*eta
    lies in (0, 2*theta).  Returns 0 at theta = 0 or pi/2 (limit cases, no
    decrease possible).  Runs on one BLAS thread, so its bits do not depend
    on the caller's thread count.
    """
    _check_pair(u, ubar)
    _real("eta", eta, -np.inf, message="eta must be finite")
    with _one_blas_thread():
        return _decrease(_split(u.columns, _as_vector("v", v, u.n)), ubar.columns, eta)


def _decrease(split, target: np.ndarray, eta: float) -> float:
    """:func:`predicted_decrease` from the ``_split`` of v and the target basis array."""
    _, p, _, norm_w, norm_p, norm_r, theta = split
    if _is_identity(theta):
        return 0.0
    sigma = norm_r * norm_p
    s_eta = sigma * eta
    # 1 - ||ubar^T p||^2/||w||^2 == ||(I - ubar ubar^T) p||^2/||w||^2 exactly
    # (||w|| = ||p||); the right-hand form is cancellation-free at small
    # errors, keeping the identity sharp down to the measurement floor.
    missed = _off_span(target, p)
    gap = float(missed @ missed) / norm_w**2
    return float(np.sin(s_eta) * np.sin(2 * theta - s_eta) / np.sin(theta) ** 2 * gap)


def full_step(u: Basis, v, ubar: Basis):
    """One full-data iteration with the exact step length eta = theta/sigma.

    Returns (new basis, FullStepRecord).  When v lies in the current span
    (theta = 0) or is orthogonal to it (theta = pi/2) the basis is returned
    unchanged; the decrease is exactly zero at those endpoints.  The step
    runs on one BLAS thread, so its bits do not depend on the caller's
    thread count.
    """
    v = _as_vector("v", v, u.n)
    with _one_blas_thread():
        if v.dot(v) == 0.0:
            raise ValueError("observation vector is zero")
        split = _split(u.columns, v)
        w, p, r, _, norm_p, norm_r, theta = split
        sigma = norm_r * norm_p
        taken = not _is_identity(theta)
        eta = theta / sigma if taken else 0.0
        # sigma*eta == theta for this step length
        u_next = _rotated(u, *split) if taken else u
        rec = FullStepRecord(
            w=w, p=p, r=r, sigma=sigma, theta=theta, eta=eta,
            epsilon_before=epsilon_residual(u, ubar), epsilon_after=epsilon_residual(u_next, ubar),
            predicted_decrease=_decrease(split, ubar.columns, eta), taken=taken,
        )
    return u_next, rec


def run_full(
    u0: Basis,
    ubar: Basis,
    iters: int,
    seed: int | np.random.SeedSequence,
) -> TrialResult:
    """Drive full-data steps on v_t = ubar @ s_t, s_t iid standard normal.

    Records the epsilon trajectory (length iters+1).  For small problems
    epsilon is measured from scratch each step; above ``_EXACT_EPS_LIMIT``
    the product U^T ubar is maintained by rank-one updates (refreshed at
    every re-orthonormalization) until epsilon nears the cancellation floor
    of d - ||U^T ubar||_F^2, and drift is not checked.

    Steps rotate the buffer of ``results._Trajectory``, a copy of
    ``u0.columns``, in place; a QR replaces it at the fixed
    re-orthonormalization cadence and on excess drift.  A step runs the
    exact drift check unless the trajectory's drift bound is within its
    limit, so the first step reads ``u0`` or its rotation; above
    ``_EXACT_EPS_LIMIT`` that limit is infinite and no step checks.  An
    identity step reuses the last bound and epsilon.  The run is pinned to
    one BLAS thread, so its bits do not depend on the caller's thread count.
    """
    _count("iters", iters, 0)
    _check_pair(u0, ubar)
    rng = _rng(seed)
    target = ubar.columns
    d = u0.d
    with _one_blas_thread():
        track = _Trajectory(u0, target, maintained=u0.n * d * d > _EXACT_EPS_LIMIT)
        for _ in range(iters):
            split = _split(track.cols, target @ rng.standard_normal(d))
            *_, norm_p, norm_r, theta = split
            taken = not _is_identity(theta)
            track.step((True, taken, norm_r, norm_p, theta), split if taken else None)
    return track.result()
