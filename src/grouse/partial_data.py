"""One gated GROUSE step from a partial observation, plus a stream driver.

Per observation the algorithm checks that the eigenvalues of the sampled
Gram matrix [U]_omega^T [U]_omega lie in [0.5|omega|/n, 1.5|omega|/n]; when
they do, it fits the observed entries by least squares, splits the
observation into the explained part p and the residual r (zero off the
sample), and rotates the basis by a rank-one update that moves p/||p||
toward r/||r|| while leaving the orthogonal complement of w untouched.

Indices are 0-based throughout the in-memory API; the observation CSV
format uses 1-based indices on the wire.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# least_squares is unused here but stays bound: partial_data.least_squares
# names the same public fit as linalg.least_squares.
from .linalg import NumericalError, _lstsq, _sv, least_squares  # noqa: F401
from .metrics import Basis, _adopt, _check_pair, _sin_sq, epsilon_residual
from .results import _FLOAT, _INT, TrialResult, _Trajectory, _write_cells

# Residuals this small (relative to the observed entries) are treated as an
# exact fit: the rotation is the identity.
RESIDUAL_FLOOR = 1e-14


@dataclass(frozen=True)
class Observation:
    """Observed entries of one subspace vector on an index sample.

    ``omega`` is strictly increasing, 0-based, inside [0, n).  ``latent_s``
    is the coefficient vector that generated the full vector; it is present
    only for synthetic data.
    """

    n: int
    omega: np.ndarray
    values: np.ndarray
    latent_s: np.ndarray | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or values.shape != omega.shape:
            raise ValueError("omega and values must be 1-d and equally long")
        if len(omega) > 0:
            if omega[0] < 0 or omega[-1] >= self.n:
                raise ValueError("omega indices out of range")
            if (omega[1:] <= omega[:-1]).any():
                raise ValueError("omega indices must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("observed values must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)
        if self.latent_s is not None:
            object.__setattr__(self, "latent_s", np.asarray(self.latent_s, dtype=float))


def _arrays(obs: Observation, n: int):
    """The arrays ``(omega, values, latent_s)`` of ``obs``; ValueError unless its n is ``n``."""
    if obs.n != n:
        raise ValueError("observation and basis ambient dimensions differ")
    return obs.omega, obs.values, obs.latent_s


@dataclass(frozen=True)
class GateVerdict:
    """Outcome of the sampled-Gram eigenvalue check."""

    passed: bool
    eigen_min: float
    eigen_max: float
    lower_bound: float
    upper_bound: float


@dataclass(frozen=True)
class StepRecord:
    """Every intermediate quantity of one partial-data iteration.

    For a skipped step (``taken`` False) the vector fields are None and the
    scalars zero.  ``clamped`` flags steps where alpha*||r||/||p|| exceeded
    one and the step-size rule was clamped; the analysis does not cover that
    regime.
    """

    gate: GateVerdict
    taken: bool
    alpha: float
    w: np.ndarray | None = None
    p: np.ndarray | None = None
    r: np.ndarray | None = None
    sigma: float = 0.0
    eta: float = 0.0
    clamped: bool = False
    theta: float | None = None
    epsilon_before: float | None = None
    epsilon_after: float | None = None


def gate_check(u: Basis, omega) -> GateVerdict:
    """Check the sampled-Gram eigenvalue window [0.5|omega|/n, 1.5|omega|/n].

    Samples with fewer than d rows fail automatically (singular Gram); a
    passing verdict certifies ||([U]_omega^T [U]_omega)^-1|| <= 2n/|omega|.
    The eigenvalues come from the singular values of the row submatrix.
    """
    return _gate(u.columns[np.asarray(omega, dtype=int)], u.n)


def _gate(sub: np.ndarray, n: int) -> GateVerdict:
    """:func:`gate_check` on the sampled rows of a bare n-row basis array (rows may repeat)."""
    m, d = sub.shape
    lower = 0.5 * m / n
    upper = 1.5 * m / n
    if m == 0:
        return GateVerdict(False, 0.0, 0.0, lower, upper)
    sigma = _sv(sub)
    # the Gram matrix of fewer than d rows is singular
    eigen_min = 0.0 if m < d else float(sigma[-1] ** 2)
    eigen_max = float(sigma[0] ** 2)
    passed = m >= d and eigen_min >= lower and eigen_max <= upper
    return GateVerdict(passed, eigen_min, eigen_max, lower, upper)


def partial_residual(u: Basis, obs: Observation):
    """Split an observation into fitted and residual parts.

    Returns (w, p, r): the least-squares coefficients on the sampled rows,
    the full predicted vector p = U w, and the residual r supported on the
    sample (zero elsewhere).  p^T r = 0 by construction.
    """
    omega, values, _ = _arrays(obs, u.n)
    return _fit(u.columns, u.columns[omega], omega, values)


def _fit(cols: np.ndarray, sub: np.ndarray, omega: np.ndarray, values: np.ndarray):
    """:func:`partial_residual` on a bare basis array, its rows ``cols[omega]`` and ``values``.

    All are finite already (an owned buffer and a checked observation's
    arrays), so the fit runs the bare QR kernel.
    """
    singular = "gate bypassed on singular sample"
    if len(sub) < cols.shape[1]:
        raise NumericalError(singular)
    try:
        w = _lstsq(sub, values)
    except NumericalError:
        raise NumericalError(singular) from None
    p = cols @ w
    r = np.zeros(cols.shape[0])
    r[omega] = values - sub @ w
    return w, p, r


def _check_alpha(alpha: float) -> None:
    """The step factor's range, (0, 2); NaN fails too."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")


def step_size(sigma: float, norm_r: float, norm_p: float, alpha: float) -> float:
    """Step length eta solving sin(sigma*eta) = alpha*||r||/||p||.

    The arcsin argument is clamped to 1; far from convergence the ratio can
    exceed one transiently and the rotation then goes the full quarter turn.
    """
    _check_alpha(alpha)
    if norm_p <= 0.0:
        raise NumericalError("degenerate projection")
    if norm_r == 0.0 or sigma == 0.0:
        return 0.0
    return float(np.arcsin(min(1.0, alpha * norm_r / norm_p)) / sigma)


# Elements per row block of the in-place rotation (256 KB of float64, sized
# to L2): a block and its outer-product term stay in cache while they add.
_BLOCK = 32768


def _rotate(cols: np.ndarray, w, p, r, norm_w, norm_p, norm_r, angle):
    """Apply the rank-one GROUSE rotation to ``cols`` in place; returns ``(y, gain)``.

    ``cols`` must be a writable, C-contiguous n x d array owned by the
    caller (never the columns of a :class:`Basis`).  It becomes
    ``cols + outer(gain, y)`` with ``y = w / norm_w``, added in row blocks of
    about ``_BLOCK`` elements; each entry is rounded exactly as in that
    expression, so the result is bitwise the same.
    """
    gain = (np.cos(angle) - 1.0) * p / norm_p + np.sin(angle) * r / norm_r
    y = w / norm_w
    rows = max(1, _BLOCK // cols.shape[1])
    # one block-sized temporary; multiply-then-add rounds as np.outer and + do
    tmp = np.empty((min(rows, cols.shape[0]), cols.shape[1]))
    for i in range(0, cols.shape[0], rows):
        blk = cols[i : i + rows]
        term = tmp[: len(blk)]
        np.multiply(gain[i : i + rows, None], y, out=term)
        blk += term
    return y, gain


def _rotated(u: Basis, *args) -> Basis:
    """A new read-only Basis: a copy of ``u`` rotated in place by ``_rotate(copy, *args)``.

    The Basis adopts the rotated copy itself, after the finiteness and
    drift checks that guard chained single steps: one n x d copy per call.
    """
    cols = np.array(u.columns)
    _rotate(cols, *args)
    return _adopt(cols)


def _revealed_theta(cols: np.ndarray, ubar: Basis | None, latent_s) -> float | None:
    """Angle between the observed vector and the span of ``cols``, when it is known."""
    if ubar is None or latent_s is None:
        return None
    v = ubar.columns @ latent_s
    if not np.any(v):
        return None
    return float(np.arcsin(np.sqrt(_sin_sq(cols, v))))


def _step(cols: np.ndarray, omega, values, alpha: float, bypass_gate: bool, record: bool = True):
    """Gate, fit and step-size rule of one step on a bare basis array, which it only reads.

    ``omega`` and ``values`` are a checked observation's arrays.  Returns
    ``(verdict, fit, rotation)``.  ``fit`` is None for a skipped step, else
    ``(norm_r, norm_p, sigma, eta, clamped, w, p, r)``.  ``rotation`` holds
    the arguments of :func:`_rotate` after the array, None for a skipped or
    identity step.  A bypassed gate whose verdict no one records (``record``
    False) is not evaluated, and the verdict is None.
    """
    sub = cols[omega]
    verdict = _gate(sub, cols.shape[0]) if record or not bypass_gate else None
    if not bypass_gate and not verdict.passed:
        return verdict, None, None
    w, p, r = _fit(cols, sub, omega, values)
    # sqrt(x.dot(x)) is np.linalg.norm's own formula for a 1-d vector
    norm_r = math.sqrt(r.dot(r))
    norm_p = math.sqrt(p.dot(p))
    scale = math.sqrt(values.dot(values))
    sigma = norm_r * norm_p
    # an exact fit, or nothing revealed along the current span, is the identity
    eta, clamped, rotation = 0.0, False, None
    if norm_r > RESIDUAL_FLOOR * scale and norm_p > RESIDUAL_FLOOR * scale:
        clamped = alpha * norm_r / norm_p > 1.0
        eta = step_size(sigma, norm_r, norm_p, alpha)
        rotation = (w, p, r, math.sqrt(w.dot(w)), norm_p, norm_r, sigma * eta)
    return verdict, (norm_r, norm_p, sigma, eta, clamped, w, p, r), rotation


def grouse_step(
    u: Basis,
    obs: Observation,
    alpha: float = 1.0,
    ubar: Basis | None = None,
    *,
    bypass_gate: bool = False,
):
    """One full Algorithm iteration: gate, fit, rotate.

    Returns (new basis, StepRecord).  A failed gate (unless bypassed) leaves
    the basis unchanged with ``taken`` False.  A residual below the floor,
    or an observation orthogonal to the sampled basis rows, is an identity
    update with ``taken`` True and eta = 0.  ``epsilon_before/after`` are
    filled when ``ubar`` is supplied.  ValueError if ``obs.n != u.n`` or
    alpha lies outside (0, 2), whether or not the step is taken.
    """
    _check_alpha(alpha)
    omega, values, latent_s = _arrays(obs, u.n)
    verdict, fit, rotation = _step(u.columns, omega, values, alpha, bypass_gate)
    sigma, eta, clamped, w, p, r = (0.0, 0.0, False, None, None, None) if fit is None else fit[2:]
    u_next = u if rotation is None else _rotated(u, *rotation)
    rec = StepRecord(
        gate=verdict,
        taken=fit is not None,
        alpha=alpha,
        w=w,
        p=p,
        r=r,
        sigma=sigma,
        eta=eta,
        clamped=clamped,
        theta=_revealed_theta(u.columns, ubar, latent_s),
        epsilon_before=None if ubar is None else epsilon_residual(u, ubar),
        epsilon_after=None if ubar is None else epsilon_residual(u_next, ubar),
    )
    return u_next, rec


def run_stream(
    u0: Basis,
    stream,
    alpha: float = 1.0,
    ubar: Basis | None = None,
    *,
    bypass_gate: bool = False,
) -> TrialResult:
    """Apply the steps of :func:`grouse_step` over a sequence of observations.

    Steps rotate one owned buffer, a copy of ``u0.columns``, in place; a QR
    replaces it at the fixed re-orthonormalization cadence and on excess
    drift.  A skipped or identity step reuses the drift check and epsilon of
    the unchanged buffer.  Epsilon is recorded when ``ubar`` is given.  A bad alpha or
    ``ubar`` raises ValueError before any observation is read; an
    observation of another n raises ValueError at its step.
    """
    arrays = (_arrays(obs, u0.n) for obs in stream)
    return _run_stream(u0, arrays, alpha, ubar, bypass_gate)[0]


def _run_stream(
    u0: Basis, stream, alpha: float, ubar: Basis | None, bypass_gate: bool, record: bool = True
):
    """:func:`run_stream` over checked observations' arrays ``(omega, values, latent_s)``.

    Returns ``(result, cols)``, ``cols`` the final owned buffer.  Without
    ``ubar`` no per-step epsilon or revealed angle is measured, so a caller
    that needs epsilon only at the ends measures ``u0`` and ``cols``.  With
    ``record`` False no per-step row is kept and the result is None, so a
    bypassed gate is not evaluated: no row would hold its verdict.
    """
    _check_alpha(alpha)
    if ubar is not None:
        _check_pair(u0, ubar)
    cols = np.array(u0.columns)
    track = _Trajectory(cols, None if ubar is None else ubar.columns, maintained=False)
    for omega, values, latent_s in stream:
        theta = _revealed_theta(cols, ubar, latent_s)  # against the basis the step starts from
        verdict, fit, rotation = _step(cols, omega, values, alpha, bypass_gate, record)
        row = None
        if record:
            norm_r, norm_p = (0.0, 0.0) if fit is None else fit[:2]
            theta = np.nan if theta is None else theta
            row = (verdict.passed, fit is not None, norm_r, norm_p, theta)
        cols = track.step(cols, row, None if rotation is None else _rotate(cols, *rotation))
    return (track.result() if record else None), cols


def write_observations(path, observations) -> None:
    """Write observations as CSV rows ``t, n, indices, values``.

    Indices are 1-based and semicolon-separated on the wire; values are
    semicolon-separated decimals (binary64 round-trip precision).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for t, obs in enumerate(observations):
            writer.writerow(
                [
                    *_write_cells(_INT, [t, obs.n]),
                    ";".join(_write_cells(_INT, obs.omega + 1)),
                    ";".join(_write_cells(_FLOAT, obs.values)),
                ]
            )


def _parse_field(field: str, dtype) -> np.ndarray:
    """A semicolon-separated wire field as a 1-d array; ValueError on malformed text.

    The one reader outside the cell rule of ``results._Kind``: observation
    files also come from other programs, so an element need not be spelled
    as the writer spells it (``.5`` reads as 0.5), and a canonical re-write
    check would cost about three times the parse.  The field holds no
    whitespace (the writer emits none).  ``np.fromstring``
    raises on most malformed text, but it reads a blank element, a bare sign
    or a sign followed by whitespace as a number, and it stops short at a
    trailing ";"; those are rejected here.
    """
    if not field:
        return np.zeros(0, dtype=dtype)
    padded = f";{field};"
    if field.split() != [field] or ";-;" in padded or ";+;" in padded:
        raise ValueError("malformed observation field")
    values = np.fromstring(field, dtype=dtype, sep=";")
    if len(values) != field.count(";") + 1:
        raise ValueError("malformed observation field")
    return values


def read_observations(path) -> list[Observation]:
    """Read an observation CSV written by :func:`write_observations`; t must not repeat.

    The t and n fields are plain ASCII decimal digits: a sign, padding or
    an underscore, which ``int()`` would read, raises ValueError.
    """
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"observation row has {len(row)} fields, not 4")
            t, n = row[0], row[1]
            if not (t.isascii() and t.isdigit() and n.isascii() and n.isdigit()):
                raise ValueError("observation t and n fields must be plain decimal digits")
            t, n = int(t), int(n)
            omega = _parse_field(row[2], int) - 1
            values = _parse_field(row[3], float)
            rows.append((t, Observation(n=n, omega=omega, values=values)))
    rows.sort(key=lambda pair: pair[0])
    if any(a[0] == b[0] for a, b in zip(rows, rows[1:])):
        raise ValueError("duplicate observation index t")
    return [obs for _, obs in rows]
