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
one decision rule, the certificates of :func:`_verdicts`: Cholesky
factorizations of the shifted d x d Gram matrix of a sample, with
:func:`_gate` run only for a sample whose extreme eigenvalue lies within
rounding distance of the window, so every bit is :func:`_gate`'s.
:func:`_verdicts` and :func:`_bits` apply it to a stack, fail certificate
first, and :func:`_passes` to one sample, pass certificate first.  A
failed gate leaves the basis as it is, so after two skips in a row the
gated stream decides the coming observations against the unchanged buffer
in batches (:func:`_skip_run`) and records the leading failures together.

The step kernel :func:`_step` reads a bare basis array and returns the
rotation's arguments; the stream driver hands them to the trajectory
(``results._Trajectory``), which owns the buffer and rotates it with
``metrics._rotate``.  :func:`_sample` draws the algorithm's index sample
(distinct indices, without replacement) wherever one is needed.

Indices are 0-based throughout the in-memory API; the observation CSV
format uses 1-based indices on the wire.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# least_squares is unused here but stays bound: partial_data.least_squares
# names the same public fit as linalg.least_squares.
from .linalg import NumericalError, _as_vector, _count, _lstsq, _real, _sv, dpotrf, least_squares  # noqa: F401
from .metrics import Basis, _check_pair, _rotated, _sin_sq, epsilon_residual
from .results import _FLOAT, _INT, TrialResult, _read_rows, _Trajectory, _write_cells, _write_rows

# Residuals this small (relative to the observed entries) are treated as an
# exact fit: the rotation is the identity.
RESIDUAL_FLOOR = 1e-14

# The decision rule's slack per unit of (m + d^2) * (||S||_F^2 + d * upper
# bound) for an m x d sample S: 1e3 units of roundoff (2^-53).  See _verdicts.
_GATE_SLACK = 1e3 * 2.0**-53

# The largest batch of a run of skips (see _skip_run), which doubles from 2
# while every observation in it fails.  On the benchmark's gated stream
# (n=2000, d=10, q=80, about 95% skips) caps of 8, 16 and 32 gave run_stream
# the same speed within 3%.  estimate_skip_rate decides its draws in chunks
# of this length too.
_BATCH = 16


@dataclass(frozen=True)
class Observation:
    """Observed entries of one subspace vector on an index sample.

    ``omega`` is strictly increasing, 0-based, inside [0, n) (the index
    rule of :func:`_indices`), and ``n`` is a positive integer.
    ``latent_s`` is the finite coefficient vector that generated the full
    vector; it is present only for synthetic data.
    """

    n: int
    omega: np.ndarray
    values: np.ndarray
    latent_s: np.ndarray | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega)
        values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or values.shape != omega.shape:
            raise ValueError("omega and values must be 1-d and equally long")
        omega = _indices(omega, self.n, increasing=True)
        if not np.isfinite(values).all():
            raise ValueError("observed values must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)
        if self.latent_s is not None:
            object.__setattr__(self, "latent_s", _as_vector("latent_s", self.latent_s))


def _indices(omega, n: int, increasing: bool = False) -> np.ndarray:
    """The index rule: ``omega`` as a 1-d int array inside [0, n); ValueError otherwise.

    ``n`` obeys the count rule with floor 1.  An empty sample of any dtype
    becomes an empty int array.  With ``increasing`` the indices must also
    strictly increase, and then only the two ends are range-checked.
    """
    _count("n", n, 1)
    omega = np.asarray(omega)
    if omega.ndim != 1 or (len(omega) and omega.dtype.kind not in "iu"):
        raise ValueError("omega must be a 1-d array of integers")
    omega = omega.astype(int, copy=False)
    if len(omega) == 0:
        return omega
    if increasing and (omega[1:] <= omega[:-1]).any():
        raise ValueError("omega indices must be strictly increasing")
    low, high = (omega[0], omega[-1]) if increasing else (omega.min(), omega.max())
    if low < 0 or high >= n:
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


def _verdicts(subs: np.ndarray, n: int):
    """Yield the gate verdict of each sample of the k x m x d stack ``subs``, in order, as they are read.

    False when the sample certainly fails the window [a, b] of
    :func:`_gate`, True when it certainly passes, None when its formed
    Gram matrix G = S^T S lies too close to a window bound to tell, and
    ``_gate(subs[i], n).passed`` decides.  Fewer than d rows fail at once.

    The certificates are Cholesky factorizations (LAPACK ``dpotrf``) of
    shifted Gram matrices, with a slack s per sample of
    ``_GATE_SLACK * (m + d^2) * (trace(G) + d b)``.  If it stops on
    (b + s)I - G or on G - (a - s)I, the sample fails; if it completes on
    G - (a + s)I and on (b - s)I - G, it passes.  Each extreme eigenvalue
    of the formed G lies within a few (m + d) roundoffs times
    ||S||_F^2 = trace(G) of the squared singular value :func:`_gate`
    compares, since forming G and the SVD are backward stable.  A
    Cholesky factorization that completes on a shifted matrix A is exact
    for A + E, with ||E|| <= (d + 1) roundoffs times trace(A), so A's
    smallest eigenvalue is at least -||E||; and one completes whenever
    that eigenvalue exceeds d (d + 1) roundoffs times A's largest diagonal
    entry (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 10).  trace(A) is at most trace(G) + d (b + s) for every shift
    used, so each certificate holds with s to spare and the verdict, when
    given, is :func:`_gate`'s.

    A stack is decided where most samples fail, mostly above the window,
    so the fail certificate goes first, and its first shift is made for
    the whole stack at once.  A generator, so a caller that stops reading
    factors no further sample.
    """
    k, m, d = subs.shape
    if m < d:
        yield from itertools.repeat(False, k)
        return
    lower, upper = 0.5 * m / n, 1.5 * m / n
    grams = np.matmul(subs.transpose(0, 2, 1), subs)
    slack = _slack(grams.trace(axis1=1, axis2=2), m, d, upper)
    eye = _eye(d)
    above = (upper + slack)[:, None, None] * eye - grams
    for gram, s, shifted in zip(grams, slack.tolist(), above):
        if not (_factors(shifted) and _factors(gram - (lower - s) * eye)):
            yield False
        else:
            yield True if _within(gram, lower + s, upper - s, eye) else None


def _slack(trace, m: int, d: int, upper: float):
    """The certificates' slack for m x d samples whose Gram matrices have trace ``trace``; see :func:`_verdicts`."""
    return _GATE_SLACK * (m + d * d) * (trace + d * upper)


@functools.cache
def _eye(d: int) -> np.ndarray:
    """The d x d identity, made once per d and read-only, since every caller shares it.

    ``np.eye`` costs about as much as one of the factorizations (1-2 us at
    d = 5 or 10), and the stream driver decides every step outside a run
    of skips on its own: on a gated stream at n=500, d=5, q=80 (11%
    skipped) an identity made per decision added 4-5% to the time per
    step.
    """
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _within(gram: np.ndarray, low: float, high: float, eye: np.ndarray) -> bool:
    """Whether ``dpotrf`` factors both high I - ``gram`` and ``gram`` - low I.

    The upper side goes first: most failing samples fail above the window.
    """
    return _factors(high * eye - gram) and _factors(gram - low * eye)


def _factors(a: np.ndarray) -> bool:
    """Whether LAPACK ``dpotrf`` completes the Cholesky factorization of the C-ordered symmetric ``a``.

    It factors ``a`` in place: the transpose is the same matrix in Fortran
    order, so no copy is made.
    """
    # positional lower=0, clean=0, overwrite_a=1: keywords cost a third of the call
    return dpotrf(a.T, 0, 0, 1)[1] == 0


def _bits(subs: np.ndarray, n: int) -> list:
    """``[_gate(sub, n).passed for sub in subs]`` for a k x m x d stack, decided by :func:`_verdicts`."""
    return [_gate(sub, n).passed if v is None else v for sub, v in zip(subs, _verdicts(subs, n))]


def _passes(sub: np.ndarray, n: int) -> bool:
    """``_gate(sub, n).passed`` for one m x d sample, by the certificates of :func:`_verdicts`, pass certificate first.

    The stream driver decides every step outside a run of skips this way,
    and such a step is about as likely to pass as not.  Through
    ``_bits(sub[None], n)`` the stacked product and the generator would
    add about 2.5 us to each decision (n=500, d=5, q=80), and the
    fail-first order two more factorizations to each passing one.
    """
    m, d = sub.shape
    if m < d:
        return False
    lower, upper = 0.5 * m / n, 1.5 * m / n
    gram = sub.T @ sub
    s = _slack(gram.trace(), m, d, upper)
    eye = _eye(d)
    if _within(gram, lower + s, upper - s, eye):
        return True
    if not _within(gram, lower - s, upper + s, eye):
        return False
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
    not the step is taken.
    """
    _check_alpha(alpha)
    _check_pair(u, ubar)
    omega, values, latent_s = _arrays(obs, u, ubar)
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
    re-orthonormalization cadence and on excess drift.  A skipped or
    identity step reuses the drift check and epsilon of the unchanged
    buffer.  Epsilon is recorded when ``ubar`` is given.  A bad alpha or
    ``ubar`` raises ValueError before any observation is read.  In a run
    of skipped steps a gated stream reads up to ``_BATCH`` observations
    ahead (never past the next QR), so an observation of another n raises
    ValueError when it is read, up to one batch ahead of its step.
    """
    arrays = (_arrays(obs, u0, ubar) for obs in stream)
    return _run_stream(u0, arrays, alpha, ubar, bypass_gate)[0]


def _run_stream(
    u0: Basis, stream, alpha: float, ubar: Basis | None, bypass_gate: bool, record: bool = True
):
    """:func:`run_stream` over checked observations' arrays ``(omega, values, latent_s)``.

    Returns ``(result, cols)``, ``cols`` the trajectory's final buffer.  Without
    ``ubar`` no per-step epsilon or revealed angle is measured, so a caller
    that needs epsilon only at the ends measures ``u0`` and ``cols``.  A
    gated step is decided on its own (:func:`_passes`); after two skips in
    a row, the run of skips that may follow is decided in batches
    (:func:`_skip_run`), and every bit is :func:`_gate`'s.  With ``record``
    False no per-step row is kept and the result is None, so a bypassed
    gate is not evaluated: no row would hold its bit.
    """
    _check_alpha(alpha)
    _check_pair(u0, ubar)
    track = _Trajectory(u0, None if ubar is None else ubar.columns, maintained=False)
    decide = record or not bypass_gate
    stream = iter(stream)
    ahead = collections.deque()
    verdict, skipped = None, False
    for omega, values, latent_s in stream if bypass_gate else _queued(ahead, stream):
        # against the basis the step starts from
        theta = _revealed_theta(track.cols, ubar, latent_s)
        sub = track.cols[omega]
        passed = None
        if decide:
            passed = _passes(sub, u0.n) if verdict is None else verdict
        fit = rotation = None
        if bypass_gate or passed:
            fit, rotation = _step(track.cols, sub, omega, values, alpha)
        track.step(_row(passed, fit, theta) if record else None, rotation)
        # a skipped step leaves the buffer as it was (a bypassed one never
        # skips): after two in a row, the run that may follow goes in batches
        verdict = None
        if fit is None and skipped:
            verdict = _skip_run(track, stream, ahead, u0.n, ubar, record)
        skipped = fit is None
    return (track.result() if record else None), track.cols


def _row(passed: bool | None, fit: tuple | None, theta: float | None) -> tuple:
    """A trajectory row: the gate bit, taken, ``norm_r``, ``norm_p`` and the revealed angle (NaN if unknown)."""
    norm_r, norm_p = (0.0, 0.0) if fit is None else fit[:2]
    return (passed, fit is not None, norm_r, norm_p, np.nan if theta is None else theta)


def _queued(ahead: collections.deque, stream):
    """The observations of ``stream`` in order, each read-ahead one (``ahead``) before the next unread one."""
    for obs in stream:
        yield obs
        while ahead:
            yield ahead.popleft()


def _skip_run(track: _Trajectory, stream, ahead: collections.deque, n: int, ubar: Basis | None, record: bool):
    """Record the certain gate failures that follow a skipped step; return the verdict of the next observation.

    Reads the coming observations into ``ahead`` and decides them against
    the buffer as it stands, in batches: it keeps the leading ones of one
    sample size, gathers their rows and forms their Gram matrices at once,
    and records the leading certain failures (:func:`_verdicts`) through
    ``track.skip``.  The first batch holds two observations, and each
    batch that fails whole doubles the next, up to ``_BATCH``, so the
    read-ahead grows only while the run lasts.  No batch reaches past
    ``track.quiet()``, so none crosses a QR or a pending drift check.
    Returns at the first observation not certain to fail, left at
    ``ahead[0]``, with its verdict: True (a certain pass) or None (not
    decided, and None too when the stream has ended).  The verdicts of the
    batch behind it are dropped: its step may move the buffer.
    """
    size = 2
    while True:
        want = min(size, track.quiet())
        if len(ahead) < want:
            ahead.extend(itertools.islice(stream, want - len(ahead)))
        if not ahead:
            return None
        # the leading observations of the first one's sample size
        m = len(ahead[0][0])
        leading = itertools.takewhile(lambda obs: len(obs[0]) == m, itertools.islice(ahead, want))
        subs = np.take(track.cols, np.array([omega for omega, _, _ in leading]), axis=0)
        rows = []
        for (_, _, latent_s), verdict in zip(ahead, _verdicts(subs, n)):
            if verdict is not False:
                break
            rows.append(_row(False, None, _revealed_theta(track.cols, ubar, latent_s)) if record else None)
        if rows:
            track.skip(rows)
            for _ in rows:
                ahead.popleft()
        if len(rows) < len(subs):
            return verdict
        size = min(2 * size, _BATCH)


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
    an underscore, which ``int()`` would read, raises ValueError.  Lines
    come from the line codec ``results._read_rows``: a field has no length
    limit, and a quoted field (a ``"`` anywhere) raises ValueError.
    """
    rows = []
    for row in _read_rows(path):
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
