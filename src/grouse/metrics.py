"""Subspace geometry: principal angles, the error metric, coherences.

The central quantity is ``epsilon(u, ubar) = d - ||ubar^T u||_F^2``, the sum
of squared sines of the principal angles between the two column spans.  It
is zero exactly when the subspaces coincide and at most d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, _as_vector, _count, nearest_orthogonal, singular_values

# How far a Basis may drift from orthonormal, and the fixed number of steps
# between the stream drivers' re-orthonormalizations.
BASIS_DRIFT_TOL = 1e-8
REORTHO_EVERY = 100


class Basis:
    """An n x d matrix with orthonormal columns (a point on the Grassmannian).

    ``Basis(arr)`` copies ``arr``, checks that the copy is finite and
    orthonormal within ``BASIS_DRIFT_TOL``, and marks the copy read-only, so
    the caller's array stays its own and stays writable.
    """

    __slots__ = ("columns",)

    def __init__(self, columns):
        _hold(self, np.array(columns, dtype=float))

    def __setattr__(self, name, value):
        raise AttributeError("Basis is immutable")

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def d(self) -> int:
        return self.columns.shape[1]

    def __repr__(self) -> str:
        return f"Basis(n={self.n}, d={self.d})"


def _hold(basis: Basis, columns: np.ndarray) -> None:
    """Check a float array as :class:`Basis` checks its copy, then freeze it as ``basis.columns``."""
    if columns.ndim != 2:
        raise ValueError("basis must be a 2-d array")
    _dims(*columns.shape)
    if not np.all(np.isfinite(columns)):
        raise ValueError("basis entries must be finite")
    if orthonormality_drift(columns) > BASIS_DRIFT_TOL:
        raise ValueError("columns are not orthonormal within drift budget")
    columns.flags.writeable = False
    object.__setattr__(basis, "columns", columns)


def _dims(n, d, q=None) -> None:
    """The (n, d) rule: integer 0 < d < n, and with a sample size ``q``, integer d <= q <= n.

    Each of n, d and q obeys ``linalg._count``; ValueError otherwise.
    """
    _count("n", n)
    _count("d", d)
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    if q is not None:
        _count("q", q)
        if not d <= q <= n:
            raise ValueError("need d <= q <= n")


def _adopt(columns: np.ndarray) -> Basis:
    """A Basis of ``columns`` itself, not a copy, after the checks ``Basis`` runs.

    ``columns`` must be a fresh float array that no one else holds (the
    single-step functions' rotated copy); it becomes read-only.
    """
    basis = object.__new__(Basis)
    _hold(basis, columns)
    return basis


def orthonormality_drift(columns: np.ndarray) -> float:
    """||B^T B - I||_F, the distance from exact orthonormality."""
    d = columns.shape[1]
    g = columns.T @ columns
    g.flat[:: d + 1] -= 1.0
    # sqrt(x.dot(x)) of the raveled matrix is np.linalg.norm's own Frobenius formula
    x = g.ravel()
    return math.sqrt(x.dot(x))


@dataclass(frozen=True)
class SubspaceDiagnostics:
    """Progress and regularity measures for a (u, ubar[, v]) configuration."""

    principal_angles: np.ndarray
    epsilon: float
    coherence_current: float
    coherence_target: float
    cos_sq_theta: float | None = None


def _check_pair(u: Basis, ubar: Basis) -> None:
    if (u.n, u.d) != (ubar.n, ubar.d):
        raise ValueError("bases must share ambient and subspace dimensions")


def principal_angles(u: Basis, ubar: Basis) -> np.ndarray:
    """Principal angles (radians, ascending) between the two column spans.

    cos of the i-th angle is the i-th singular value of ubar^T u; values are
    clamped into [0, 1] before arccos since rounding can exceed 1 by ~1e-16.
    """
    _check_pair(u, ubar)
    sigma = singular_values(ubar.columns.T @ u.columns)
    return np.arccos(np.clip(sigma, 0.0, 1.0))


def epsilon(u: Basis, ubar: Basis) -> float:
    """d - ||ubar^T u||_F^2, the sum of squared sines of principal angles."""
    _check_pair(u, ubar)
    g = ubar.columns.T @ u.columns
    return float(u.d - np.sum(g * g))


def epsilon_residual(u: Basis, ubar: Basis) -> float:
    """Same quantity as :func:`epsilon`, computed as ||u - ubar(ubar^T u)||_F^2.

    Avoids the d - x cancellation, so it stays accurate down to ~1e-24 near
    convergence; preferred for recorded trajectories.  Agrees with
    :func:`epsilon` to ~1e-14 absolute.
    """
    _check_pair(u, ubar)
    return _residual_energy(u.columns, ubar.columns)


def _residual_energy(cols: np.ndarray, target: np.ndarray) -> float:
    """||cols - target target^T cols||_F^2 on bare arrays; see :func:`epsilon_residual`.

    Drivers that own a writable basis buffer measure it through this, since
    wrapping the buffer in a :class:`Basis` would freeze it.
    """
    g = cols - target @ (target.T @ cols)
    return float(np.sum(g * g))


def coherence_basis(u: Basis) -> float:
    """(n/d) times the largest squared row norm; in [1, n/d]."""
    row_sq = np.sum(u.columns * u.columns, axis=1)
    return float(u.n / u.d * row_sq.max())


def coherence_vector(x) -> float:
    """n ||x||_inf^2 / ||x||_2^2; in [1, n]."""
    x = _as_vector(x)
    nrm_sq = float(x @ x)
    if nrm_sq == 0.0:
        raise ValueError("undefined coherence: zero vector")
    return float(x.shape[0] * np.abs(x).max() ** 2 / nrm_sq)


def revealed_angle_sin_sq(u: Basis, v) -> float:
    """sin^2 of the angle between v and the span of u, in [0, 1]."""
    return _sin_sq(u.columns, _as_vector(v, u.n))


def _sin_sq(cols: np.ndarray, v: np.ndarray) -> float:
    """:func:`revealed_angle_sin_sq` against the span of a bare array."""
    nrm_sq = float(v @ v)
    if nrm_sq == 0.0:
        raise ValueError("undefined angle: zero vector")
    resid = v - cols @ (cols.T @ v)
    return float(min(1.0, max(0.0, (resid @ resid) / nrm_sq)))


def alignment(u: Basis, ubar: Basis) -> np.ndarray:
    """The orthogonal d x d matrix V closest to ubar^T u in Frobenius norm.

    V satisfies ||ubar^T u - V||_F^2 <= 2 eps, and (for n >= 2d)
    eps <= ||ubar V - u||_F^2 <= 2 eps.
    """
    _check_pair(u, ubar)
    try:
        return nearest_orthogonal(ubar.columns.T @ u.columns)
    except NumericalError:
        raise NumericalError("subspaces share no aligned frame") from None


def diagnostics(u: Basis, ubar: Basis, v=None) -> SubspaceDiagnostics:
    """Bundle angles, epsilon, coherences and (optionally) the revealed angle."""
    angles = principal_angles(u, ubar)
    cos_sq = None if v is None else 1.0 - revealed_angle_sin_sq(u, v)
    return SubspaceDiagnostics(
        principal_angles=angles,
        epsilon=epsilon(u, ubar),
        coherence_current=coherence_basis(u),
        coherence_target=coherence_basis(ubar),
        cos_sq_theta=cos_sq,
    )
