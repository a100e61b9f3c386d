"""Monte-Carlo validation of the probabilistic guarantees.

Two sampling models coexist on purpose: the eigenvalue-concentration and
residual-bound guarantees are stated for index multisets drawn uniformly
WITH replacement, while the algorithm itself draws subsets WITHOUT
replacement.  Validators here use the model their guarantee is stated in;
:func:`estimate_skip_rate` uses algorithm-mode sampling so the difference
between the two models stays measurable.

The residual-bound validator runs its trials in forked workers
(``linalg._fork_map``), one contiguous range each, and gives the bits of a
serial loop; the other validators run in-process.  The four validators
run their trials on one BLAS thread, so their bits do not depend on the
caller's thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _count, _fork_map, _lstsq, _one_blas_thread, _real, _rng, _workers
from .metrics import EPSILON_FLOOR, Basis, _check_pair, _dims, _off_span, coherence_basis
from .metrics import coherence_vector, epsilon_residual
from .partial_data import _gate, _passes, _sample
from .results import _FLAG, _FLOAT, _INT, _read_table, _write_table

_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)

# The analysis's sampling constant c1, against which mu_xt_diagnostics
# reports its two thresholds.
_C1 = 64.0 / 3.0

# Doubles in each of validate_sin_sq_expectation's two chunk buffers, so its
# memory does not grow with n or trials: a chunk is about _CHUNK_DOUBLES // n
# trials.  Both buffers (1 MB together) fit in one core's 2 MB L2.  Median of
# 7 runs (2-core Xeon, one BLAS thread) for 2**13 ... 2**18 doubles: 33, 25,
# 23, 22, 25, 36 ms at n=100, d=5, 50000 trials (8192-trial chunks: 62 ms);
# 116, 99, 71, 65, 82, 118 ms at n=1000, d=5, 20000 trials (282 ms).
_CHUNK_DOUBLES = 2**16

# The fewest trials a forked residual-bound worker runs (see _trial_ranges).
# The pool costs 16-30 ms on two cores.  Median of 7 runs at n=200, d=4,
# omega_size=80: 800 trials take 57 ms forked against 55 ms serial; 3200
# trials take 165 against 238 ms.  The fork stays: at the montecarlo
# benchmark's shape (n=400, d=5, omega_size=5000, 2000 trials) one call
# takes a median of 468 ms forked against 780 ms in one in-process loop (9
# interleaved calls, 2-core x86_64 VM, one BLAS thread), and with the loop
# the workload's trials_per_s fell from 75.9k to 52.0k (medians of 4
# alternating pairs).
_FORK_FLOOR = 500


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical eigenvalue-window failure rate for sampled Gram matrices."""

    trials: int
    delta: float
    gamma: float
    omega_size: int
    failure_rate: float
    eigen_min_quantiles: np.ndarray
    eigen_max_quantiles: np.ndarray
    hypothesis_met: bool
    eig_min: np.ndarray
    eig_max: np.ndarray
    in_window: np.ndarray


@dataclass(frozen=True)
class ResidualBoundReport:
    """Empirical violation rate of the sampled-residual lower bound.

    ``xi``, ``beta`` and ``bound_rhs`` are means over trials; the per-trial
    values are kept in the array fields.
    """

    trials: int
    xi: float
    beta: float
    bound_rhs: float
    violation_rate: float
    lhs: np.ndarray
    rhs: np.ndarray
    violated: np.ndarray


@dataclass(frozen=True)
class MuXtSummary:
    """Empirical distribution of the residual-direction coherence.

    Purely diagnostic: the probability with which the two thresholds hold
    is not observable from a single subspace pair, so nothing is asserted.
    """

    trials: int
    c1: float
    quantiles: np.ndarray
    mean: float
    threshold_narrow: float
    threshold_wide: float
    satisfied_rate: float


def gamma_bound(d: int, mu: float, omega_size: int, delta: float) -> float:
    """Half-width sqrt((8 d mu / (3 |omega|)) log(2d/delta)) of the window."""
    _count("d", d, 1)
    _count("omega_size", omega_size, 1)
    _real("mu", mu)
    _real("delta", delta, 0.0, 1.0, message="need delta in (0,1)")
    return math.sqrt(8.0 * d * mu / (3.0 * omega_size) * math.log(2.0 * d / delta))


def _trial_ranges(trials: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) ranges covering ``range(trials)``, one per forked worker.

    A worker gets at least ``_FORK_FLOOR`` trials; one range runs in-process.
    """
    k = _workers(trials // _FORK_FLOOR)
    edges = [trials * i // k for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _residual_trials(cols, target, omega_size, log_inv_delta, mu_u, gamma, seed, start, stop):
    """Trials ``start`` to ``stop`` of :func:`validate_residual_bound`: (lhs, rhs, violated, xi, beta).

    ``cols`` and ``target`` are the columns of u and ubar.  The generator is
    rebuilt from ``seed`` and the earlier trials' draws are replayed, so
    each trial draws the coefficients and sample the serial loop draws.
    """
    (n, d), trials = cols.shape, stop - start
    rng = _rng(seed)
    for _ in range(start):
        rng.standard_normal(d)
        rng.integers(0, n, size=omega_size)
    lhs = np.empty(trials)
    # a trial whose v lies in the span of u keeps rhs, xi and beta at zero
    rhs = np.zeros(trials)
    violated = np.zeros(trials, dtype=bool)
    xi_all = np.zeros(trials)
    beta_all = np.zeros(trials)
    # keep this allocation order: the ~200 KB per-trial temporaries sit at glibc's mmap threshold
    for t in range(trials):
        s = rng.standard_normal(d)
        v = target @ s
        idx = rng.integers(0, n, size=omega_size)
        sub = cols.take(idx, axis=0)
        v_sub = v[idx]
        res = v_sub - sub @ _lstsq(sub, v_sub)
        lhs[t] = res @ res
        x = _off_span(cols, v)
        x_sq = float(x @ x)
        if x_sq == 0.0:
            continue
        mu_x = coherence_vector(x)
        xi = math.sqrt(2.0 * mu_x**2 / omega_size * log_inv_delta)
        beta = math.sqrt(2.0 * mu_x * log_inv_delta)
        xi_all[t] = xi
        beta_all[t] = beta
        if gamma >= 1.0:
            rhs[t] = np.nan
            continue
        factor = (omega_size * (1.0 - xi) - d * mu_u * (1.0 + beta) ** 2 / (1.0 - gamma)) / n
        rhs[t] = factor * x_sq
        if factor > 0.0:
            violated[t] = lhs[t] < rhs[t]
    return lhs, rhs, violated, xi_all, beta_all


def validate_gram_concentration(
    u: Basis, omega_size: int, delta: float, trials: int, seed: int
) -> ConcentrationReport:
    """Check how often sampled-Gram eigenvalues leave the guaranteed window.

    Draws with replacement.  Under the sample-size hypothesis the failure
    rate is guaranteed at most delta; the report flags hypothesis_met=False
    (and is still produced) when omega_size is below the hypothesis.

    The trials run in-process, one sample drawn and decided at a time on
    one generator made from ``seed``, on one BLAS thread, so the report
    does not depend on the caller's thread count.
    """
    _count("trials", trials, 1)
    mu = coherence_basis(u)
    gamma = gamma_bound(u.d, mu, omega_size, delta)
    hypothesis_met = omega_size > 8.0 / 3.0 * u.d * mu * math.log(2.0 * u.d / delta)
    low = (1.0 - gamma) * omega_size / u.n
    high = (1.0 + gamma) * omega_size / u.n
    rng = _rng(seed)
    eig_min = np.empty(trials)
    eig_max = np.empty(trials)
    with _one_blas_thread():
        for t in range(trials):
            # the bits of u.columns[idx], without the fancy-indexing dispatch
            verdict = _gate(u.columns.take(rng.integers(0, u.n, size=omega_size), axis=0), u.n)
            eig_min[t], eig_max[t] = verdict.eigen_min, verdict.eigen_max
    in_window = (eig_min >= low) & (eig_max <= high)
    return ConcentrationReport(
        trials=trials,
        delta=delta,
        gamma=gamma,
        omega_size=omega_size,
        failure_rate=float(1.0 - in_window.mean()),
        eigen_min_quantiles=np.quantile(eig_min, _QUANTILES),
        eigen_max_quantiles=np.quantile(eig_max, _QUANTILES),
        hypothesis_met=hypothesis_met,
        eig_min=eig_min,
        eig_max=eig_max,
        in_window=in_window,
    )


def validate_residual_bound(
    u: Basis, ubar: Basis, omega_size: int, delta: float, trials: int, seed: int
) -> ResidualBoundReport:
    """Check the high-probability lower bound on the sampled residual.

    Each trial draws a fresh coefficient vector and a fresh with-replacement
    sample, fits the sampled entries, and compares the sampled residual
    energy against the bound.  The bound is only asserted when its
    right-hand-side factor is positive (it is vacuous otherwise).  Needs
    omega_size > d: fewer sampled rows can never determine the fit, and d
    rows fit exactly, leaving a zero residual and a vacuous bound.

    The trials run in forked workers, one contiguous range each, once every
    worker gets at least ``_FORK_FLOOR`` (500) trials; each range replays
    the earlier draws, so the report is the same bits as a serial loop's.
    There is no setting for the worker count (see ``_trial_ranges``).  A
    singular sample raises ``NumericalError`` from the first such trial.
    """
    _check_pair(u, ubar)
    _count("omega_size", omega_size, u.d + 1, "d + 1")
    _count("trials", trials, 1)
    _rng(seed)  # the seed rule, before any worker forks
    mu_u = coherence_basis(u)
    gamma = gamma_bound(u.d, mu_u, omega_size, delta)
    log_inv_delta = math.log(1.0 / delta)
    tasks = [
        (u.columns, ubar.columns, omega_size, log_inv_delta, mu_u, gamma, seed, start, stop)
        for start, stop in _trial_ranges(trials)
    ]
    lhs, rhs, violated, xi_all, beta_all = map(
        np.concatenate, zip(*_fork_map(_residual_trials, tasks))
    )
    finite = rhs[np.isfinite(rhs)]
    return ResidualBoundReport(
        trials=trials,
        xi=float(xi_all.mean()),
        beta=float(beta_all.mean()),
        bound_rhs=float(finite.mean()) if len(finite) else float("nan"),
        violation_rate=float(violated.mean()),
        lhs=lhs,
        rhs=rhs,
        violated=violated,
    )


def estimate_skip_rate(u: Basis, q: int, trials: int, seed: int) -> float:
    """Fraction of algorithm-mode samples (without replacement) failing the gate.

    Each sample is decided as it is drawn, by the gated stream's rule
    (``partial_data._passes``, fail certificate first after a failure), so
    every bit is ``_gate``'s.
    """
    _dims(u.n, u.d, q)
    _count("trials", trials, 1)
    rng = _rng(seed)
    fails, passed = 0, True
    for _ in range(trials):
        passed = _passes(u.columns.take(_sample(rng, u.n, q), axis=0), u.n, not passed)
        fails += not passed
    return fails / trials


def validate_sin_sq_expectation(u: Basis, ubar: Basis, trials: int, seed: int):
    """Sample mean and standard error of sin^2(theta) over v = ubar @ s.

    The mean should sit within a few standard errors of epsilon/d.  The
    products run on one BLAS thread, so the bits do not depend on the
    caller's thread count.
    """
    _check_pair(u, ubar)
    _count("trials", trials, 2)
    rng = _rng(seed)
    vals = np.empty(trials)
    # an even number of trials per chunk, at least two, as in 8192-trial
    # chunks: numpy runs a one-row product through the vector kernel, and
    # OpenBLAS's Haswell dgemm an odd last row through another kernel, each
    # with other bits.  A last chunk of one trial joins the chunk before it.
    # (SkylakeX's dgemm also picks a kernel by product size, so at many
    # shapes a trial's last bits differ from those of 8192-trial chunks.)
    rows = max(2, _CHUNK_DOUBLES // u.n // 2 * 2)
    v_buf = np.empty((min(trials, rows + 1), u.n))
    resid_buf = np.empty_like(v_buf)
    done = 0
    with _one_blas_thread():
        while done < trials:
            take = min(rows, trials - done)
            if trials - done - take == 1:
                take += 1
            s = rng.standard_normal((take, ubar.d))
            v = np.matmul(s, ubar.columns.T, out=v_buf[:take])
            # not metrics._off_span: its product order would change the bytes of validate-expectation
            resid = np.matmul(v @ u.columns, u.columns.T, out=resid_buf[:take])
            # the subtraction and both squares overwrite an operand, bitwise the
            # out-of-place forms
            np.subtract(v, resid, out=resid)
            np.multiply(resid, resid, out=resid)
            np.multiply(v, v, out=v)
            vals[done : done + take] = np.sum(resid, axis=1) / np.sum(v, axis=1)
            done += take
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return mean, stderr


def mu_xt_diagnostics(u: Basis, ubar: Basis, trials: int, seed: int) -> MuXtSummary:
    """Empirical quantiles of the unexplained-direction coherence mu(x_t).

    x_t is the part of v_t the current basis cannot explain; its coherence
    is observed to grow like log(n).  Reported against the two analysis
    thresholds for the sampling constant c1 = 64/3; no assertion is made.
    The trials run on one BLAS thread, so the bits do not depend on the
    caller's thread count.
    """
    _count("trials", trials, 1)
    if epsilon_residual(u, ubar) <= EPSILON_FLOOR:
        raise ValueError("bases coincide: residual direction undefined")
    rng = _rng(seed)
    n, d = u.n, u.d
    mu_ubar = coherence_basis(ubar)
    mus = np.empty(trials)
    with _one_blas_thread():
        for t in range(trials):
            s = rng.standard_normal(d)
            mus[t] = coherence_vector(_off_span(u.columns, ubar.columns @ s))
    log_n = math.log(n)
    log20d = math.log(20.0 * d)
    narrow = log_n * math.sqrt(0.045 / math.log(10.0) * _C1 * d * mu_ubar * log20d)
    wide = log_n**2 * (0.05 / (8.0 * math.log(10.0)) * _C1 * log20d)
    satisfied = float(np.mean((mus <= narrow) & (mus <= wide)))
    return MuXtSummary(
        trials=trials,
        c1=_C1,
        quantiles=np.quantile(mus, _QUANTILES),
        mean=float(mus.mean()),
        threshold_narrow=narrow,
        threshold_wide=wide,
        satisfied_rate=satisfied,
    )


# The per-trial report tables of the two validators that write one.
_CONCENTRATION = {"trial": _INT, "eig_min": _FLOAT, "eig_max": _FLOAT, "in_window": _FLAG}
_RESIDUAL = {"trial": _INT, "lhs": _FLOAT, "rhs": _FLOAT, "violated": _FLAG}


def write_concentration_csv(path, report: ConcentrationReport) -> None:
    """Per-trial rows: trial, eig_min, eig_max, in_window."""
    _write_table(
        path,
        _CONCENTRATION,
        [range(report.trials), report.eig_min, report.eig_max, report.in_window],
    )


def _read_report(path, schema: dict) -> tuple:
    """The columns after ``trial`` of a per-trial report; ValueError unless trial counts 0, 1, 2, ..."""
    trial, *columns = _read_table(path, schema)
    if not np.array_equal(trial, np.arange(len(trial))):
        raise ValueError("report rows must count trial = 0, 1, 2, ...")
    return tuple(columns)


def read_concentration_csv(path):
    """Arrays (eig_min, eig_max, in_window) from a concentration CSV; ValueError on a malformed file."""
    return _read_report(path, _CONCENTRATION)


def write_residual_csv(path, report: ResidualBoundReport) -> None:
    """Per-trial rows: trial, lhs, rhs, violated."""
    _write_table(path, _RESIDUAL, [range(report.trials), report.lhs, report.rhs, report.violated])


def read_residual_csv(path):
    """Arrays (lhs, rhs, violated) from a residual-bound CSV; ValueError on a malformed file."""
    return _read_report(path, _RESIDUAL)
