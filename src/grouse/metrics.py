"""Subspace geometry: bases, the rank-one rotation, principal angles, the error metric, coherences.

The central quantity is ``epsilon(u, ubar) = d - ||ubar^T u||_F^2``, the sum
of squared sines of the principal angles between the two column spans.  It
is zero exactly when the subspaces coincide and at most d.

Each step computation on a basis array is written once here: the GROUSE
rotation (:func:`_rotate`, in place; :func:`_rotated` on a copy adopted as a
new :class:`Basis`) and the off-span residual ``v - U (U^T v)``
(:func:`_off_span`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    NumericalError,
    _as_vector,
    _count,
    _one_blas_thread,
    dger,
    nearest_orthogonal,
    singular_values,
)

# How far a Basis may drift from orthonormal, and the fixed number of steps
# between the stream drivers' re-orthonormalizations.
BASIS_DRIFT_TOL = 1e-8
REORTHO_EVERY = 100


class Basis:
    """An n x d matrix with orthonormal columns (a point on the Grassmannian).

    ``Basis(arr)`` copies ``arr``, checks that the copy is finite and
    orthonormal within ``BASIS_DRIFT_TOL``, and marks the copy read-only, so
    the caller's array stays its own and stays writable.  ``copy``,
    ``deepcopy`` and ``pickle`` rebuild a basis the same way.
    """

    __slots__ = ("columns",)

    def __init__(self, columns):
        _hold(self, np.array(columns, dtype=float))

    def __setattr__(self, name, value):
        raise AttributeError("Basis is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the checked constructor, so a
        # pickle with non-orthonormal columns raises ValueError on load
        return Basis, (self.columns,)

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


# Elements per row block of the in-place rotation (256 KB of float64, sized
# to L2): a block and its outer-product term stay in cache while they add.
_BLOCK = 32768


def _rotate(cols: np.ndarray, w, p, r, norm_w, norm_p, norm_r, angle):
    """Apply the rank-one GROUSE rotation to ``cols`` in place; returns ``(y, gain)``.

    ``cols`` must be a writable, C-contiguous n x d array that no one else
    holds (never the columns of a :class:`Basis`).  It becomes
    ``cols + outer(gain, y)`` with ``y = w / norm_w``, added in row blocks of
    about ``_BLOCK`` elements; each entry is rounded exactly as in that
    expression, so the result is bitwise the same.

    Each block's term is formed by BLAS ``dger`` on a temporary filled with
    -0.0, then added to the block.  ``dger`` makes each entry
    ``gain_i * y_j + (-0.0)``: the product rounded once, whether or not the
    kernel fuses the multiply-add, and with its sign kept, since adding -0.0
    leaves every value, signed zeros included, as it is.  The add then
    rounds as ``+`` does.  A ``dger`` straight onto the block would round
    the product and the sum together, and a +0.0 start would turn a -0.0
    product into +0.0; either can change a bit.
    """
    gain = (np.cos(angle) - 1.0) * p / norm_p + np.sin(angle) * r / norm_r
    y = w / norm_w
    rows = max(1, _BLOCK // cols.shape[1])
    tmp = np.empty((min(rows, cols.shape[0]), cols.shape[1]))
    # dger runs on scipy's OpenBLAS; on more than one thread its pool fights
    # for the cores with numpy's, which the products around each step keep
    # spinning (run_full at 10000 x 200 ran twice as slow on two cores)
    with _one_blas_thread():
        for i in range(0, cols.shape[0], rows):
            blk = cols[i : i + rows]
            term = tmp[: len(blk)]
            term.fill(-0.0)
            # term.T is F-contiguous, so dger writes the products into it in place
            blk += dger(1.0, y, gain[i : i + rows], a=term.T, overwrite_a=1).T
    return y, gain


def _rotated(u: Basis, *args) -> Basis:
    """A new read-only Basis: a copy of ``u`` rotated in place by ``_rotate(copy, *args)``.

    The Basis adopts the rotated copy itself, after the finiteness and
    drift checks that guard chained single steps: one n x d copy per call.
    """
    cols = np.array(u.columns)
    _rotate(cols, *args)
    return _adopt(cols)


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


def _check_pair(u: Basis, ubar: Basis | None) -> None:
    """The pair rule: two bases share n and d; ValueError otherwise.  A missing ``ubar`` passes."""
    if ubar is not None and (u.n, u.d) != (ubar.n, ubar.d):
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
    g = _off_span(target, cols)
    return float(np.sum(g * g))


def _off_span(cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v - cols (cols^T v)``: the part of a vector ``v``, or of each column of ``v``, off span(cols).

    The one spelling of this residual, so each caller gets the same bits.
    """
    return v - cols @ (cols.T @ v)


# A vector whose largest |entry| lies in this range keeps its squares and
# their sum inside the normal double range, for any length below 2**60.
_SCALE_RANGE = (2.0**-480, 2.0**480)


def _rescaled(x: np.ndarray, what: str):
    """``(x, max|x|)``, with ``x`` first divided by ``max|x|`` where that lies outside ``_SCALE_RANGE``.

    The callers' ratios do not change when ``x`` is scaled, so this only
    keeps ``x @ x`` from overflowing or underflowing; inside the range ``x``
    is returned as it is, and its arithmetic keeps every bit.  ValueError
    ("undefined <what>: zero vector") when ``x`` is zero.
    """
    big = np.abs(x).max()
    if _SCALE_RANGE[0] <= big <= _SCALE_RANGE[1]:
        return x, big
    if big == 0.0:
        raise ValueError(f"undefined {what}: zero vector")
    return x / big, 1.0


def coherence_basis(u: Basis) -> float:
    """(n/d) times the largest squared row norm; in [1, n/d]."""
    row_sq = np.sum(u.columns * u.columns, axis=1)
    return float(u.n / u.d * row_sq.max())


def coherence_vector(x) -> float:
    """n ||x||_inf^2 / ||x||_2^2; in [1, n]."""
    x, big = _rescaled(_as_vector("x", x), "coherence")
    return float(x.shape[0] * big**2 / float(x @ x))


def revealed_angle_sin_sq(u: Basis, v) -> float:
    """sin^2 of the angle between v and the span of u, in [0, 1]."""
    return _sin_sq(u.columns, _as_vector("v", v, u.n))


def _sin_sq(cols: np.ndarray, v: np.ndarray) -> float:
    """:func:`revealed_angle_sin_sq` against the span of a bare array."""
    v, _ = _rescaled(v, "angle")
    nrm_sq = float(v @ v)
    resid = _off_span(cols, v)
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
