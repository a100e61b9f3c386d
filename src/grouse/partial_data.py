"""One gated GROUSE step from a partial observation, plus a stream driver.

Per observation the algorithm checks that the eigenvalues of the sampled
Gram matrix [U]_omega^T [U]_omega lie in [0.5|omega|/n, 1.5|omega|/n]; when
they do, it fits the observed entries by least squares, splits the
observation into the explained part p and the residual r (zero off the
sample), and rotates the basis by a rank-one update that moves p/||p||
toward r/||r|| while leaving the orthogonal complement of w untouched.

The gate has one source of eigenvalues, :func:`_gate`, which squares the
singular values of the sampled rows; :func:`gate_check`, ``grouse_step``'s
record and the concentration validators report them.  Callers that keep
only the pass/fail bit (the stream driver and ``estimate_skip_rate``) use
one decision rule, :func:`_passes`: per certificate, one BLAS ``dsyrk``
forms the d x d Gram matrix of one sample with a shift on its diagonal, and
one LAPACK ``dpotrf`` completes or stops on it, certifying a pass or a
failure; :func:`_gate` runs only for a sample whose extreme eigenvalue lies
within rounding distance of the window, so every bit is :func:`_gate`'s.  They
decide one sample at a time, as it is drawn or read, and try the fail
certificate first after a failed decision.

The step kernel :func:`_step` reads a bare basis array and returns the
rotation's arguments; the stream driver hands them to the trajectory
(``results._Trajectory``), which owns the buffer and rotates it with
``metrics._rotate``.  :func:`_sample` draws the algorithm's index sample
(distinct indices, without replacement) wherever one is needed.

Indices are 0-based throughout the in-memory API; the observation CSV
format uses 1-based indices on the wire.  :func:`read_observations` takes
the file's rows from the line codec in batches, reads each batch's index
and value fields with one ``np.fromstring`` per column, and checks the
batch once by the observation rule, :func:`_check_rows`, which every
``Observation`` constructor also runs on its one row.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# least_squares is unused here but stays bound: partial_data.least_squares
# names the same public fit as linalg.least_squares, and the benchmark's
# tracer test (benchmarks/test_bench_logic.py) checks that one wrapper
# serves both names.
from .linalg import (
    NumericalError,
    _as_vector,
    _count,
    _lstsq,
    _one_blas_thread,
    _real,
    _real_array,
    _sv,
    dpotrf,
    dsyrk,
)
from .linalg import least_squares  # noqa: F401
from .metrics import Basis, _check_pair, _rotated, _sin_sq, epsilon_residual
from .results import _FLOAT, _INT, TrialResult, _read_rows, _Trajectory, _write_cells, _write_rows

# Residuals this small (relative to the observed entries) are treated as an
# exact fit: the rotation is the identity.
RESIDUAL_FLOOR = 1e-14

# The decision rule's slack per unit of (m + d^2) * (||S||_F^2 + d * upper
# bound) for an m x d sample S, ||S||_F^2 read as the dot product of the
# raveled sample: 1e3 units of roundoff (2^-53), covering the Gram product,
# the shift that the same dsyrk call adds to each diagonal entry, and the
# Cholesky factorization.  See _passes.
_GATE_SLACK = 1e3 * 2.0**-53


@dataclass(frozen=True)
class Observation:
    """Observed entries of one subspace vector on an index sample.

    ``omega`` is strictly increasing, 0-based and inside [0, n), ``values``
    is as long and finite, and ``n`` is a positive integer.  The
    constructor takes 1-d arrays of integer indices and of real values and
    an integer n, and checks the rest by the observation rule,
    :func:`_check_rows`, on its one row; :func:`read_observations` checks
    each batch of rows once by the same rule and builds their
    Observations with :func:`_checked`.  ``latent_s`` is the finite
    coefficient vector that generated the full vector; it is present only
    for synthetic data.
    """

    n: int
    omega: np.ndarray
    values: np.ndarray
    latent_s: np.ndarray | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega)
        values = _real_array("observed values", self.values)
        if omega.ndim != 1 or values.ndim != 1:
            raise ValueError("omega and values must be 1-d and equally long")
        _count("n", self.n)
        omega = _integers(omega)
        _check_rows([self.n], omega, (0, len(omega)), values, (0, len(values)))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)
        if self.latent_s is not None:
            object.__setattr__(self, "latent_s", _as_vector("latent_s", self.latent_s))


def _checked(n: int, omega: np.ndarray, values: np.ndarray) -> Observation:
    """An :class:`Observation` of arrays that already passed :func:`_check_rows`, not checked again."""
    obs = object.__new__(Observation)
    # one field at a time, as the dataclass's __init__ sets them: updating
    # vars(obs) would give each instance a full dict, about twice the memory
    object.__setattr__(obs, "n", n)
    object.__setattr__(obs, "omega", omega)
    object.__setattr__(obs, "values", values)
    object.__setattr__(obs, "latent_s", None)
    return obs


def _check_rows(ns, omega: np.ndarray, bounds: np.ndarray, values: np.ndarray, value_bounds: np.ndarray):
    """The observation rule on a batch of rows; ValueError with the first failing row's first fault.

    Row i holds n = ``ns[i]``, the int indices ``omega[bounds[i]:bounds[i + 1]]``
    and the float values ``values[value_bounds[i]:value_bounds[i + 1]]``.
    :func:`_fault` checks the whole batch; when some row fails, each row
    is checked alone, in order, until one raises.
    """
    fault = _fault(ns, omega, bounds, values, value_bounds)
    if fault is None:
        return
    if len(ns) > 1:
        for n, a, b, c, e in zip(ns, bounds[:-1], bounds[1:], value_bounds[:-1], value_bounds[1:]):
            _check_rows([n], omega[a:b], (0, b - a), values[c:e], (0, e - c))
    raise ValueError(fault)


def _fault(ns, omega: np.ndarray, bounds: np.ndarray, values: np.ndarray, value_bounds: np.ndarray):
    """The message of the first check of the observation rule that some row fails, or None.

    The rows are :func:`_check_rows`'s, and ``ns`` are integers.  The
    checks, in order: as many values as indices, n at least 1, strictly
    increasing indices, the first index at least 0 and the last below n
    (only the two ends, given the increase), and finite values.  Each one
    reads the whole batch at once, so on a one-row batch the message is
    that row's first fault.  One row, as the constructor checks, takes the
    same checks on the row's own ends and arrays: the batch form's
    bookkeeping arrays would double the constructor's cost.
    """
    if len(ns) == 1:
        (n,) = ns
        if bounds[1] != value_bounds[1]:
            return "omega and values must be 1-d and equally long"
        if n < 1:
            return "n must be at least 1"
        if not (omega[1:] > omega[:-1]).all():
            return "omega indices must be strictly increasing"
        if len(omega) and (omega[0] < 0 or omega[-1] >= n):
            return "omega indices out of range"
        if not np.isfinite(values).all():
            return "observed values must be finite"
        return None
    if np.count_nonzero(bounds != value_bounds):
        return "omega and values must be 1-d and equally long"
    if min(ns) < 1:
        return "n must be at least 1"
    # rise[j] for 0 < j < len(omega): omega[j] > omega[j - 1], or j starts a row
    rise = np.empty(len(omega) + 1, dtype=bool)
    np.greater(omega[1:], omega[:-1], out=rise[1:-1])
    rise[bounds] = True
    if np.count_nonzero(rise) < len(rise):
        return "omega indices must be strictly increasing"
    # a row increases, so its first index is its least
    full = bounds[:-1] < bounds[1:]
    # every n past 2^64 - 1 exceeds every int64 index, as that one does
    n = np.array([min(k, 2**64 - 1) for k in ns], dtype=np.uint64)[full]
    if len(omega) and (omega.min() < 0 or np.count_nonzero(omega[bounds[1:][full] - 1] >= n)):
        return "omega indices out of range"
    if np.count_nonzero(np.isfinite(values)) < len(values):
        return "observed values must be finite"
    return None


def _integers(omega: np.ndarray) -> np.ndarray:
    """``omega`` as an int array if it is a 1-d integer array or empty; ValueError otherwise."""
    if omega.ndim != 1 or (len(omega) and omega.dtype.kind not in "iu"):
        raise ValueError("omega must be a 1-d array of integers")
    return omega.astype(int, copy=False)


def _indices(omega, n: int) -> np.ndarray:
    """The index rule: ``omega`` as a 1-d int array inside [0, n), in any order; ValueError otherwise.

    ``n`` obeys the count rule with floor 1.  An empty sample of any dtype
    becomes an empty int array.
    """
    _count("n", n, 1)
    omega = _integers(np.asarray(omega))
    if len(omega) and (omega.min() < 0 or omega.max() >= n):
        raise ValueError("omega indices out of range")
    return omega


def _sample(rng: np.random.Generator, n: int, q: int) -> np.ndarray:
    """The algorithm's index sample: q distinct indices of [0, n) drawn from ``rng``, sorted.

    The form a checked :class:`Observation`'s ``omega`` holds.
    """
    return np.sort(rng.choice(n, size=q, replace=False))


def _arrays(obs: Observation, u: Basis, ubar: Basis | None = None):
    """The arrays ``(omega, values, latent_s)`` of ``obs``; ValueError unless its n is ``u.n``.

    With a target ``ubar``, ``latent_s`` (if any) obeys the vector rule at
    length ``ubar.d``; without one no step reads it, and it comes back None.
    """
    if obs.n != u.n:
        raise ValueError("observation and basis ambient dimensions differ")
    s = None if ubar is None else obs.latent_s
    return obs.omega, obs.values, s if s is None else _as_vector("latent_s", s, ubar.d)


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
    ``omega`` obeys the index rule of :func:`_indices` in any order, with
    repeats allowed.
    """
    return _gate(u.columns[_indices(omega, u.n)], u.n)


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


@functools.cache
def _eye(d: int) -> np.ndarray:
    """The d x d identity, made once per d and read-only, since every caller shares it.

    ``np.eye`` costs about as much as one of the factorizations (1-2 us at
    d = 5 or 10), and the gated stream decides every step this way: on a
    gated stream at n=500, d=5, q=80 (11% skipped) an identity made per
    decision added 4-5% to the time per step.
    """
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _passes(sub: np.ndarray, n: int, fail_first: bool) -> bool:
    """``_gate(sub, n).passed`` for one m x d sample, decided by Cholesky certificates.

    The gate's one decision rule.  Fewer than d rows fail at once.  It
    takes a slack s = ``_GATE_SLACK * (m + d^2) * (||S||_F^2 + d b)`` for
    the window [a, b] of :func:`_gate`, reading ||S||_F^2 as the dot
    product of the raveled sample.  Each certificate is one BLAS ``dsyrk``,
    which forms the shifted Gram matrix cI - G or G - cI, G = S^T S, in one
    pass (each diagonal entry takes the shift with one more rounding), and
    one LAPACK ``dpotrf`` on it.  If ``dpotrf`` stops on (b + s)I - G or on
    G - (a - s)I, the sample fails; if it completes on G - (a + s)I and on
    (b - s)I - G, it passes; otherwise G lies too close to a window bound
    to tell, and ``_gate(sub, n).passed`` decides.

    The slack covers three roundings (Higham, *Accuracy and Stability of
    Numerical Algorithms*, chs. 3 and 10) besides the SVD's, which puts the
    squared singular value :func:`_gate` compares within a few (m + d)
    roundoffs times ||S||_F^2 of the exact eigenvalue.  First, forming G is
    backward stable, so each extreme eigenvalue of the formed G lies within
    m roundoffs times ||S||_F^2 of the exact one.  Second, the shift moves
    each diagonal entry of the formed A = cI - G or G - cI by at most one
    roundoff of |c| + ||S||_F^2.  Third, a ``dpotrf`` that completes on A
    is exact for A + E with ||E|| <= (d + 1) roundoffs times trace(|A|), so
    A's smallest eigenvalue is then at least -||E||; and one completes
    whenever that eigenvalue exceeds d (d + 1) roundoffs times A's largest
    diagonal entry.  trace(|A|) is at most ||S||_F^2 + d (b + s) for every
    shift used, and the dot product is within m d roundoffs of ||S||_F^2,
    so all of these together stay within a few (m + d^2) roundoffs times
    ||S||_F^2 + d b, far inside s: each certificate holds, and the verdict
    is :func:`_gate`'s in either order.

    The pass certificate goes first unless ``fail_first``, which the
    callers set after a failed decision: samples come in runs, and a
    failing one, mostly above the window, is then decided by one
    factorization.
    """
    m, d = sub.shape
    if m < d:
        return False
    lower, upper = 0.5 * m / n, 1.5 * m / n
    f = sub.ravel()
    s = _GATE_SLACK * (m + d * d) * (float(f.dot(f)) + d * upper)
    # dsyrk(alpha, a, beta, c) returns beta c + alpha a a^T in a fresh Fortran array,
    # the upper triangle set (its defaults trans=0, lower=0, overwrite_c=0), so the
    # shared identity is only read; dpotrf(lower=0, clean=0, overwrite_a=1) factors
    # that triangle in place.  Positional: keywords cost a third of a call.
    a, eye = sub.T, _eye(d)
    for certain in (not fail_first, fail_first):
        # failing takes one stop on the wider window, passing two completions on the narrower
        low, high = (lower + s, upper - s) if certain else (lower - s, upper + s)
        if (
            dpotrf(dsyrk(-1.0, a, high, eye), 0, 0, 1)[1] == 0
            and dpotrf(dsyrk(1.0, a, -low, eye), 0, 0, 1)[1] == 0
        ) == certain:
            return certain
    return _gate(sub, n).passed


def partial_residual(u: Basis, obs: Observation):
    """Split an observation into fitted and residual parts.

    Returns (w, p, r): the least-squares coefficients on the sampled rows,
    the full predicted vector p = U w, and the residual r supported on the
    sample (zero elsewhere).  p^T r = 0 by construction.
    """
    omega, values, _ = _arrays(obs, u)
    return _fit(u.columns, u.columns[omega], omega, values)


def _fit(cols: np.ndarray, sub: np.ndarray, omega: np.ndarray, values: np.ndarray):
    """:func:`partial_residual` on a bare basis array, its rows ``cols[omega]`` and ``values``.

    All are finite already (a basis array and a checked observation's
    arrays), so the fit runs the bare QR kernel.
    """
    w = _lstsq(sub, values, "gate bypassed on singular sample")
    p = cols @ w
    r = np.zeros(cols.shape[0])
    r[omega] = values - sub @ w
    return w, p, r


def _check_alpha(alpha: float) -> None:
    """The step factor's range, (0, 2), by the real rule."""
    _real("alpha", alpha, 0.0, 2.0, message="alpha must lie in (0, 2)")


def step_size(sigma: float, norm_r: float, norm_p: float, alpha: float) -> float:
    """Step length eta solving sin(sigma*eta) = alpha*||r||/||p||.

    The arcsin argument is clamped to 1; far from convergence the ratio can
    exceed one transiently and the rotation then goes the full quarter turn.
    ``sigma`` and the norms are finite and nonnegative, and ``norm_p`` is
    positive.
    """
    _check_alpha(alpha)
    for name, value in (("sigma", sigma), ("norm_r", norm_r), ("norm_p", norm_p)):
        _real(name, value, closed=True)
    if norm_p == 0.0:
        raise NumericalError("degenerate projection")
    if norm_r == 0.0 or sigma == 0.0:
        return 0.0
    return _eta(sigma, norm_r, norm_p, alpha)


def _eta(sigma: float, norm_r: float, norm_p: float, alpha: float) -> float:
    """:func:`step_size` without its checks, for positive sigma and norms and a checked alpha."""
    return float(np.arcsin(min(1.0, alpha * norm_r / norm_p)) / sigma)


def _revealed_theta(cols: np.ndarray, ubar: Basis | None, latent_s) -> float | None:
    """Angle between the observed vector and the span of ``cols``, when it is known."""
    if ubar is None or latent_s is None:
        return None
    v = ubar.columns @ latent_s
    if not np.any(v):
        return None
    return float(np.arcsin(np.sqrt(_sin_sq(cols, v))))


def _step(cols: np.ndarray, sub: np.ndarray, omega, values, alpha: float):
    """Fit and step-size rule of one taken step on a bare basis array, which it only reads.

    ``sub`` is ``cols[omega]``, and ``omega`` and ``values`` are a checked
    observation's arrays.  Returns ``(fit, rotation)``: ``fit`` is
    ``(norm_r, norm_p, sigma, eta, clamped, w, p, r)``, and ``rotation``
    holds the arguments of ``metrics._rotate`` after the array, None for an
    identity step.  The caller decides the gate.
    """
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
        eta = _eta(sigma, norm_r, norm_p, alpha)
        rotation = (w, p, r, math.sqrt(w.dot(w)), norm_p, norm_r, sigma * eta)
    return (norm_r, norm_p, sigma, eta, clamped, w, p, r), rotation


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
    filled when ``ubar`` is supplied.  ValueError if ``obs.n != u.n``,
    ``ubar`` has another n or d, or alpha lies outside (0, 2), whether or
    not the step is taken.  The step runs on one BLAS thread, so its bits
    do not depend on the caller's thread count.
    """
    _check_alpha(alpha)
    _check_pair(u, ubar)
    omega, values, latent_s = _arrays(obs, u, ubar)
    with _one_blas_thread():
        sub = u.columns[omega]
        verdict = _gate(sub, u.n)
        fit = rotation = None
        if bypass_gate or verdict.passed:
            fit, rotation = _step(u.columns, sub, omega, values, alpha)
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

    Steps rotate the buffer of ``results._Trajectory``, a copy of
    ``u0.columns``, in place; a QR replaces it at the fixed
    re-orthonormalization cadence and on excess drift.  A step runs the
    exact drift check unless the trajectory's drift bound is within its
    limit, so the first step reads ``u0`` or its rotation.  A skipped or
    identity step reuses the bound and epsilon of the unchanged buffer.
    The run is pinned to one BLAS thread, so its bits do not depend on the
    caller's thread count.  Epsilon is recorded when ``ubar`` is given.  A
    bad alpha or ``ubar`` raises ValueError before any observation is
    read, and an observation of another n when its step reads it.
    """
    arrays = (_arrays(obs, u0, ubar) for obs in stream)
    return _run_stream(u0, arrays, alpha, ubar, bypass_gate)[0]


def _run_stream(
    u0: Basis, stream, alpha: float, ubar: Basis | None, bypass_gate: bool, record: bool = True
):
    """:func:`run_stream` over checked observations' arrays ``(omega, values, latent_s)``.

    Returns ``(result, cols)``, ``cols`` the trajectory's final buffer.  Without
    ``ubar`` no per-step epsilon or revealed angle is measured, so a caller
    that needs epsilon only at the ends measures ``u0`` and ``cols``.  The
    gate is decided by :func:`_passes`, fail certificate first after a
    failed decision, since a row keeps only its bit.  With ``record``
    False no per-step row is kept and the result is None, so a bypassed
    gate is not evaluated: no row would hold its bit.
    """
    _check_alpha(alpha)
    _check_pair(u0, ubar)
    decide = record or not bypass_gate
    passed = None
    with _one_blas_thread():
        track = _Trajectory(u0, None if ubar is None else ubar.columns, maintained=False)
        for omega, values, latent_s in stream:
            # against the basis the step starts from
            theta = _revealed_theta(track.cols, ubar, latent_s)
            # the bits of cols[omega], without the fancy-indexing dispatch
            sub = track.cols.take(omega, axis=0)
            if decide:
                passed = _passes(sub, u0.n, passed is False)
            fit = rotation = None
            if bypass_gate or passed:
                fit, rotation = _step(track.cols, sub, omega, values, alpha)
            track.step(_row(passed, fit, theta) if record else None, rotation)
    return (track.result() if record else None), track.cols


def _row(passed: bool | None, fit: tuple | None, theta: float | None) -> tuple:
    """A trajectory row: the gate bit, taken, ``norm_r``, ``norm_p`` and the revealed angle (NaN if unknown)."""
    norm_r, norm_p = (0.0, 0.0) if fit is None else fit[:2]
    return (passed, fit is not None, norm_r, norm_p, np.nan if theta is None else theta)


def write_observations(path, observations) -> None:
    """Write observations as CSV rows ``t, n, indices, values``.

    Indices are 1-based and semicolon-separated on the wire; values are
    semicolon-separated decimals (binary64 round-trip precision).  Rows go
    through the line codec ``results._write_rows``, one at a time.
    """
    _write_rows(
        path,
        (
            [
                *_write_cells(_INT, [t, obs.n]),
                ";".join(_write_cells(_INT, obs.omega + 1)),
                ";".join(_write_cells(_FLOAT, obs.values)),
            ]
            for t, obs in enumerate(observations)
        ),
    )


# read_observations parses this many rows at once: one np.fromstring per column.
_BATCH = 128

# The bytes of a bare sign, an element np.fromstring would read as a number.
_SIGNS = np.frombuffer(b"+-", dtype=np.uint8)

# What np.fromstring reads an integer element at or above 2^63 as.
_INT_MAX = np.iinfo(int).max


def read_observations(path) -> list[Observation]:
    """Read an observation CSV written by :func:`write_observations`; t must not repeat.

    The t, n and index fields are plain ASCII decimal digits: a sign,
    padding or an underscore, which ``int()`` would read, raises
    ValueError, and so does an index at or above 2^63.  Lines
    come from the line codec ``results._read_rows``: a field has no length
    limit, and a quoted field (a ``"`` anywhere) raises ValueError.  Rows
    are parsed ``_BATCH`` at a time by :func:`_parse_rows`.
    """
    rows = filter(None, _read_rows(path))  # a blank line reads as []
    pairs = []
    for batch in iter(lambda: list(itertools.islice(rows, _BATCH)), []):
        pairs += _parse_rows(batch)
    pairs.sort(key=lambda pair: pair[0])
    if any(a[0] == b[0] for a, b in zip(pairs, pairs[1:])):
        raise ValueError("duplicate observation index t")
    return [obs for _, obs in pairs]


def _parse_rows(rows) -> list[tuple[int, Observation]]:
    """The ``(t, Observation)`` of each row ``[t, n, indices, values]``; ValueError on malformed text.

    :func:`_parse_fields` reads all the rows' index fields into one array
    and their value fields into another; :func:`_check_rows` checks the
    batch once, raising what the first failing row's ``Observation`` would,
    and each Observation holds slices of the two arrays.
    """
    for row in rows:
        if len(row) != 4:
            raise ValueError(f"observation row has {len(row)} fields, not 4")
    ts, ns, index_fields, value_fields = zip(*rows)
    # the codec passes only ASCII, where isdigit holds for 0-9 alone
    if not all(map(str.isdigit, ts + ns)):
        raise ValueError("observation t and n fields must be plain decimal digits")
    ns = list(map(int, ns))
    omega, bounds = _parse_fields(index_fields, int)
    omega -= 1
    values, value_bounds = _parse_fields(value_fields, float)
    _check_rows(ns, omega, bounds, values, value_bounds)
    # every row passed, so it has as many values as indices: one set of bounds serves both
    bounds = bounds.tolist()
    return [
        (int(t), _checked(n, omega[a:b], values[a:b]))
        for t, n, a, b in zip(ts, ns, bounds, bounds[1:])
    ]


def _parse_fields(fields, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The elements of semicolon-separated wire fields as one array, and the fields' bounds in it.

    Field i's elements are ``array[bounds[i]:bounds[i + 1]]``; ValueError
    on malformed text.  An index element (``dtype`` int) is plain ASCII
    digits, as the t and n fields are, and below 2^63.  A value element is
    the one cell outside the cell rule of ``results._Kind``, which says
    what it may be and why no write-back check runs.  The non-empty
    fields, joined by ";", are read by one ``np.fromstring``, which raises
    on text it cannot read to its end, but reads an element of whitespace, a bare
    sign or a sign followed by whitespace as a number, reads an integer
    at or above 2^63 as 2^63 - 1 and ends quietly at a trailing ";".  So
    no element, as the separators bound it, may be blank; index text must
    hold only digits and ";", and an index read as 2^63 - 1 is re-read
    exactly; value text must hold no byte at or below the space (no
    whitespace, which the writer never emits; ``np.fromstring`` raises on
    the other control bytes), and no value element may be a bare sign.
    Past one or three passes over the bytes, these checks and the bounds
    read the separator positions, not the text.
    """
    lengths = np.fromiter(map(len, fields), int, len(fields))
    text = ";".join(filter(None, fields)).encode()
    if not text:
        return np.zeros(0, dtype=dtype), np.zeros(len(fields) + 1, dtype=int)
    codes = np.frombuffer(text, dtype=np.uint8)
    # each element's end (a separator or the end of the text) and start
    ends = np.append(np.flatnonzero(codes == ord(";")), len(text))
    starts = np.append(0, ends[:-1] + 1)
    if dtype is int:
        # the bytes 0-9 and ";", with ":" between them
        malformed = codes.min() < ord("0") or codes.max() > ord(";") or (codes == ord(":")).any()
    else:
        short = starts[ends - starts == 1]
        malformed = codes.min() <= ord(" ") or np.isin(codes[short], _SIGNS).any()
    if malformed or (ends == starts).any():
        raise ValueError("malformed observation field")
    array = np.fromstring(text, dtype=dtype, sep=";")
    saturated = np.flatnonzero(array == _INT_MAX) if dtype is int else ()
    if any(int(text[starts[i] : ends[i]]) > _INT_MAX for i in saturated):
        raise ValueError("observation index at or above 2^63")
    # a field starts after the ones before it and their joining ";"; the
    # elements before that point are the ends before it
    offsets = np.append(0, np.cumsum(lengths + (lengths > 0)))
    return array, np.searchsorted(ends, offsets)
