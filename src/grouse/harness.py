"""Problem generation, trial orchestration, rate fitting, phase sweeps.

The synthetic protocol: the target span is the range of an n x d matrix T
with iid standard normal entries; the starting basis comes from
orthonormalizing T plus iid N(0, init_noise_std^2) noise.  Convergence is
summarized by the factor X solving eps_N = eps_0 (1 - X q / (n d))^N,
which sits near 1 once the per-step sample size q crosses a modest
multiple of d.

All randomness is owned by integer seeds; derived streams (problem vs
observations, sweep cells, trials) use SeedSequence child keys so that
cells and trials can run in any order or in parallel.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .full_data import run_full
from .linalg import _count, _fork_map, _real, _rng, orthonormalize
from .metrics import Basis, _dims, _residual_energy
from .partial_data import _check_alpha, _run_stream, _sample
from .results import (
    _FLOAT,
    _INT,
    _INT_OR_FULL,
    TrialResult,
    _read_cells,
    _read_table,
    _write_cells,
    _write_table,
)

_PROBLEM_STREAM = 1
_OBSERVATION_STREAM = 2

# epsilon values below this are double-precision measurement noise and are
# excluded from tail-slope fits.
EPSILON_FLOOR = 1e-24


@dataclass(frozen=True)
class ProblemSpec:
    """Dimensions, sampling size, step factor and seed of one experiment.

    n, d, q (unless "full"), iters and seed are integers, never bools, so
    that the spec file reads back equal.
    """

    n: int
    d: int
    q: int | str
    iters: int
    seed: int
    alpha: float = 1.0
    init_noise_std: float = 0.5

    def __post_init__(self):
        _dims(self.n, self.d, None if self.q == "full" else self.q)
        _check_run(self.iters, self.seed, self.alpha, self.init_noise_std)


def _check_run(iters: int, seed: int, alpha: float, init_noise_std: float) -> None:
    """The rules a run's scalar settings obey, whatever its dimensions."""
    _check_alpha(alpha)
    _count("iters", iters, 1)
    _count("seed", seed, 0)
    _real("init_noise_std", init_noise_std, closed=True)


@dataclass(frozen=True)
class SweepCell:
    """One (n, d, q) cell of a phase sweep."""

    n: int
    d: int
    q: int
    trials: int
    mean_x: float
    std_x: float
    x_values: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)


def _child_rng(seed, stream: int) -> np.random.Generator:
    return _rng(np.random.SeedSequence([int(seed), stream]))


def _child_seed(*keys) -> int:
    return int(np.random.SeedSequence(list(map(int, keys))).generate_state(1)[0])


def random_basis(n: int, d: int, seed: int) -> Basis:
    """Orthonormalized iid standard normal n x d matrix."""
    _dims(n, d)
    rng = _rng(seed)
    return Basis(orthonormalize(rng.standard_normal((n, d))))


def _cosine_frame(rng, n: int, k: int) -> np.ndarray:
    """k distinct discrete-cosine harmonics of length n, drawn from ``rng``, as columns."""
    freqs = rng.choice(np.arange(1, n), size=k, replace=False)
    grid = np.pi * (2 * np.arange(n)[:, None] + 1) / (2 * n)
    return math.sqrt(2.0 / n) * np.cos(grid * freqs[None, :])


def incoherent_basis(n: int, d: int, seed: int) -> Basis:
    """A basis with nearly flat rows (coherence close to 1).

    Columns are d distinct discrete-cosine harmonics with random signs, so
    every row carries about d/n of the total energy.
    """
    _dims(n, d)
    rng = _rng(seed)
    # the frame's draws come first, then the signs
    return Basis(_cosine_frame(rng, n, d) * rng.choice([-1.0, 1.0], size=d))


def _split_epsilon(rng, d: int, eps: float, angles: str) -> np.ndarray:
    if angles == "equal":
        return np.full(d, eps / d)
    if angles != "spread":
        raise ValueError('angles must be "spread" or "equal"')
    sin_sq = eps * rng.dirichlet(np.full(d, 2.0))
    # redistribute any mass that would need sin^2 > 1 (only when eps > 1)
    while np.any(sin_sq > 1.0):
        excess = np.sum(sin_sq[sin_sq > 1.0] - 1.0)
        sin_sq = np.minimum(sin_sq, 1.0)
        room = sin_sq < 1.0
        sin_sq[room] += excess / room.sum()
    return sin_sq


def pair_with_epsilon(
    n: int,
    d: int,
    eps: float,
    seed: int,
    frame: str = "gaussian",
    angles: str = "spread",
) -> tuple[Basis, Basis]:
    """A seeded (u, ubar) pair whose error metric equals ``eps`` exactly.

    Requires n >= 2d: each target direction is tilted out of the span into
    the orthogonal complement, the squared sines of the tilt angles summing
    to eps (a random split by default, an even one with angles="equal"),
    and the tilted frame is then mixed by a random rotation so the alignment
    matrix is not trivially diagonal.  ``frame="incoherent"`` tilts within a
    flat cosine-harmonic frame instead, keeping both bases at low coherence;
    its 2d distinct harmonics come from the n - 1 nonconstant ones, so it
    requires n >= 2d + 1.
    """
    _count("n", n)
    _count("d", d)
    if d < 1 or n < 2 * d:
        raise ValueError("need d >= 1 and n >= 2d to tilt into the complement")
    _real("eps", eps, 0.0, d, closed=True, message="eps must lie in [0, d]")
    rng = _rng(seed)
    if frame == "gaussian":
        cols = orthonormalize(rng.standard_normal((n, 2 * d)))
    elif frame == "incoherent":
        if n < 2 * d + 1:
            raise ValueError("the incoherent frame needs n >= 2d + 1: 2d distinct nonconstant harmonics")
        cols = _cosine_frame(rng, n, 2 * d)
    else:
        raise ValueError('frame must be "gaussian" or "incoherent"')
    ubar_cols, comp = cols[:, :d], cols[:, d:]
    sin_phi = np.sqrt(_split_epsilon(rng, d, eps, angles))
    cos_phi = np.sqrt(1.0 - sin_phi**2)
    tilted = ubar_cols * cos_phi + comp * sin_phi
    rot = orthonormalize(rng.standard_normal((d, d)))
    return Basis(tilted @ rot), Basis(ubar_cols)


def generate_problem(spec: ProblemSpec) -> tuple[Basis, Basis]:
    """(target, start) bases per the synthetic protocol; seeded, bitwise stable."""
    rng = _child_rng(spec.seed, _PROBLEM_STREAM)
    target = rng.standard_normal((spec.n, spec.d))
    noise = rng.standard_normal((spec.n, spec.d)) * spec.init_noise_std
    ubar = Basis(orthonormalize(target))
    u0 = Basis(orthonormalize(target + noise))
    return ubar, u0


def fit_x(
    epsilon0: float, epsilonN: float, n: int, d: int, q: int, iters: int
) -> float:
    """Solve eps_N = eps_0 (1 - X q/(n d))^N for X.

    Negative X is legal and signals divergence (eps_N > eps_0); nonpositive
    epsilon values are an error.
    """
    for name, count in (("n", n), ("d", d), ("q", q), ("iters", iters)):
        _count(name, count, 1)
    for name, value in (("epsilon0", epsilon0), ("epsilonN", epsilonN)):
        _real(name, value)
    return (1.0 - (epsilonN / epsilon0) ** (1.0 / iters)) * n * d / q


def tail_slope(epsilons) -> float | None:
    """Least-squares slope of log(eps) over the last half of the iterations.

    Entries below ``EPSILON_FLOOR`` (and NaN entries) are measurement noise
    and are discarded; the asymptotic rate only emerges on later
    iterations, hence the half-window.  Returns None when fewer than two
    usable points remain, an empty trajectory included; ValueError unless
    ``epsilons`` is 1-d.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1:
        raise ValueError("epsilons must be a 1-d trajectory")
    t = np.arange(len(eps))
    half = len(eps) // 2
    keep = eps[half:] > EPSILON_FLOOR
    if keep.sum() < 2:
        return None
    return float(np.polyfit(t[half:][keep], np.log(eps[half:][keep]), 1)[0])


def _x_factor(eps0: float, eps_n: float, spec: ProblemSpec, q: int) -> float | None:
    """The fitted X at q observed entries per step; None unless both epsilons are positive."""
    if eps0 > 0.0 and eps_n > 0.0:
        return fit_x(eps0, eps_n, spec.n, spec.d, q, spec.iters)
    return None


def _attach_fit(result: TrialResult, spec: ProblemSpec, q: int) -> TrialResult:
    """Attach the fitted X (at q observed entries per step) and the tail slope."""
    result.x_factor = _x_factor(float(result.epsilons[0]), float(result.epsilons[-1]), spec, q)
    result.tail_slope = tail_slope(result.epsilons)
    return result


def _observation_stream(spec: ProblemSpec, ubar: Basis):
    """The seeded synthetic observations of a partial trial, as ``(omega, values, latent_s)``.

    Each draw is in the form a checked ``Observation`` of n holds: sorted
    distinct int64 indices inside [0, n), q >= d of them, and finite
    float64 values and coefficients.
    """
    rng = _child_rng(spec.seed, _OBSERVATION_STREAM)
    n, d, q = spec.n, spec.d, spec.q
    for _ in range(spec.iters):
        s = rng.standard_normal(d)
        v = ubar.columns @ s
        omega = _sample(rng, n, q)
        yield omega, v[omega], s


def run_partial_trial(
    spec: ProblemSpec,
    *,
    bypass_gate: bool = False,
) -> TrialResult:
    """Generate a problem, stream fresh observations, run the gated steps.

    ``bypass_gate`` reproduces the experimental mode in which every step is
    taken regardless of the eigenvalue check; the default checks the gate.
    The fitted convergence factor is attached as ``x_factor``.
    """
    if spec.q == "full":
        raise ValueError("partial trials need a finite q")
    ubar, u0 = generate_problem(spec)
    result, _ = _run_stream(u0, _observation_stream(spec, ubar), spec.alpha, ubar, bypass_gate)
    return _attach_fit(result, spec, spec.q)


def _sweep_trial_x(spec: ProblemSpec, bypass_gate: bool) -> float:
    """``run_partial_trial(spec, bypass_gate=...).x_factor``, NaN for None.

    X reads epsilon only at t=0 and t=N, so the stream runs without a target
    (no step measures epsilon or the revealed angle) and keeps no per-step
    rows (a bypassed gate is not evaluated), and the two ends are measured
    on ``u0`` and the final buffer, the bits a recording run measures there.
    """
    ubar, u0 = generate_problem(spec)
    stream = _observation_stream(spec, ubar)
    _, cols = _run_stream(u0, stream, spec.alpha, None, bypass_gate, record=False)
    eps0 = _residual_energy(u0.columns, ubar.columns)
    x = _x_factor(eps0, _residual_energy(cols, ubar.columns), spec, spec.q)
    return np.nan if x is None else x


def run_full_trial(spec: ProblemSpec) -> TrialResult:
    """Full-data trial (every entry observed, exact step length)."""
    ubar, u0 = generate_problem(spec)
    result = run_full(
        u0,
        ubar,
        spec.iters,
        seed=np.random.SeedSequence([int(spec.seed), _OBSERVATION_STREAM]),
    )
    return _attach_fit(result, spec, spec.n)


def sweep_phase(
    ns,
    ds,
    qs,
    trials_per_cell: int = 10,
    iters: int = 500,
    seed: int = 0,
    *,
    bypass_gate: bool = False,
    alpha: float = 1.0,
    init_noise_std: float = 0.5,
) -> list[SweepCell]:
    """Mean fitted X over seeded trials for every (n, d, q) grid cell.

    Every grid value is an integer.  Infeasible cells (d < 1 or d >= n or
    q < d or q > n) are emitted with zero trials and NaN statistics as the
    skip marker.  Trial seeds derive from (seed, n, d, q, trial), so any
    execution order gives identical output.  The trials of all cells run
    as one task list, one task per trial, in forked worker processes (as
    many as the process may use CPUs) or in-process (see
    ``linalg._fork_map``).  Every trial runs on one BLAS thread, and each
    cell's ``x_values`` hold its trials' X in trial order, the same bits
    either way.
    """
    _count("trials_per_cell", trials_per_cell, 1)
    _check_run(iters, seed, alpha, init_noise_std)
    for name, value in [("n", n) for n in ns] + [("d", d) for d in ds] + [("q", q) for q in qs]:
        _count(name, value)
    grid = [(n, d, q, 0 < d < n and d <= q <= n) for n in ns for d in ds for q in qs]
    specs = [
        ProblemSpec(
            n=n,
            d=d,
            q=q,
            iters=iters,
            seed=_child_seed(seed, n, d, q, trial),
            alpha=alpha,
            init_noise_std=init_noise_std,
        )
        for n, d, q, feasible in grid
        if feasible
        for trial in range(trials_per_cell)
    ]
    xs = iter(_fork_map(_sweep_trial_x, [(spec, bypass_gate) for spec in specs]))
    cells = []
    for n, d, q, feasible in grid:
        if not feasible:
            cells.append(SweepCell(n, d, q, 0, float("nan"), float("nan")))
            continue
        x_values = np.array(list(itertools.islice(xs, trials_per_cell)), dtype=float)
        cells.append(
            SweepCell(
                n,
                d,
                q,
                trials_per_cell,
                float(np.nanmean(x_values)),
                float(np.nanstd(x_values, ddof=1)) if trials_per_cell > 1 else 0.0,
                x_values=x_values,
            )
        )
    return cells


# The sweep table: one row per grid cell, in SweepCell field order.
_SWEEP = {"n": _INT, "d": _INT, "q": _INT, "trials": _INT, "mean_X": _FLOAT, "std_X": _FLOAT}


def write_sweep_csv(path, cells) -> None:
    """One row per grid cell: n, d, q, trials, mean and std of X."""
    stats = [(c.n, c.d, c.q, c.trials, c.mean_x, c.std_x) for c in cells]
    # zip of no cells yields no columns; an empty sweep writes six empty ones
    _write_table(path, _SWEEP, list(zip(*stats)) or [()] * len(_SWEEP))


def read_sweep_csv(path) -> list[SweepCell]:
    """Parse a sweep CSV back into its cells; ValueError on a malformed file."""
    return [SweepCell(*stats) for stats in zip(*(c.tolist() for c in _read_table(path, _SWEEP)))]


# The run-spec file's keys, in file order, each with the kind of its value.
_SPEC_KEYS = {
    "n": _INT,
    "d": _INT,
    "q": _INT_OR_FULL,
    "iters": _INT,
    "seed": _INT,
    "alpha": _FLOAT,
    "init_noise_std": _FLOAT,
}


def write_problem_spec(path, spec: ProblemSpec) -> None:
    """Flat ``key=value`` text file carrying exactly the ProblemSpec fields."""
    with open(path, "w") as fh:
        for key, kind in _SPEC_KEYS.items():
            (cell,) = _write_cells(kind, [getattr(spec, key)])
            fh.write(f"{key}={cell}\n")


def read_problem_spec(path) -> ProblemSpec:
    """Parse a run-spec file written by :func:`write_problem_spec`.

    Every line but a blank one is ``key=value`` exactly as the writer
    writes it: nothing is stripped around the key or the value, and each
    value obeys its kind's one cell rule (``results._Kind``), so
    ``n = 500``, ``n=5_00``, ``q=+30``, ``alpha=1``, ``alpha=1e0`` and
    ``init_noise_std=.5`` are rejected.  ValueError on a missing, unknown or
    repeated key or such a value.
    """
    fields: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            key, _, value = line.removesuffix("\n").partition("=")
            if key not in _SPEC_KEYS or key in fields:
                raise ValueError(f"problem spec file has an unknown or repeated key {key!r}")
            fields[key] = value
    missing = [key for key in _SPEC_KEYS if key not in fields]
    if missing:
        raise ValueError(f"problem spec file lacks the {missing[0]} field")
    values = {}
    for key, kind in _SPEC_KEYS.items():
        try:
            (values[key],) = _read_cells(kind, [fields[key]])
        except ValueError as exc:
            raise ValueError(f"malformed {key} value: {exc}") from None
    return ProblemSpec(**values)
