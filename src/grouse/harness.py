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
from dataclasses import dataclass, field, fields

import numpy as np

from .full_data import run_full
from .linalg import (
    _count,
    _fork_map,
    _one_blas_thread,
    _orthonormalize_in_place,
    _real,
    _real_array,
    _rng,
    orthonormalize,
)
from .metrics import EPSILON_FLOOR, Basis, _dims, _residual_energy
from .partial_data import _check_alpha, _run_stream, _sample
from .results import (
    _FLOAT,
    _INT,
    _INT_OR_FULL,
    TrialResult,
    _read_cells,
    _read_rows,
    _read_table,
    _write_cells,
    _write_table,
)

_PROBLEM_STREAM = 1
_OBSERVATION_STREAM = 2

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
    """Orthonormalized iid standard normal n x d matrix, factored on one BLAS thread."""
    _dims(n, d)
    rng = _rng(seed)
    with _one_blas_thread():
        return Basis(_orthonormalize_in_place(np.asfortranarray(rng.standard_normal((n, d)))))


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


def _split_epsilon(rng, d: int, eps: float) -> np.ndarray:
    sin_sq = eps * rng.dirichlet(np.full(d, 2.0))
    # redistribute any mass that would need sin^2 > 1 (only when eps > 1)
    # while some room is left; at eps = d every sine ends at 1
    while np.any(sin_sq > 1.0):
        excess = np.sum(sin_sq[sin_sq > 1.0] - 1.0)
        sin_sq = np.minimum(sin_sq, 1.0)
        room = sin_sq < 1.0
        if not room.any():
            break
        sin_sq[room] += excess / room.sum()
    return sin_sq


def pair_with_epsilon(
    n: int,
    d: int,
    eps: float,
    seed: int,
    frame: str = "gaussian",
) -> tuple[Basis, Basis]:
    """A seeded (u, ubar) pair whose error metric equals ``eps`` exactly.

    Requires n >= 2d: each target direction is tilted out of the span into
    the orthogonal complement, the squared sines of the tilt angles being a
    random split of eps, and the tilted frame is then mixed by a random
    rotation so the alignment matrix is not trivially diagonal.
    ``frame="incoherent"`` tilts within a flat cosine-harmonic frame
    instead, keeping both bases at low coherence; its 2d distinct harmonics
    come from the n - 1 nonconstant ones, so it requires n >= 2d + 1.
    The frame is factored, and the pair formed, on one BLAS thread, so the
    bits do not depend on the caller's thread count.
    """
    _count("n", n)
    _count("d", d)
    if d < 1 or n < 2 * d:
        raise ValueError("need d >= 1 and n >= 2d to tilt into the complement")
    _real("eps", eps, 0.0, d, closed=True, message="eps must lie in [0, d]")
    rng = _rng(seed)
    with _one_blas_thread():
        if frame == "gaussian":
            cols = _orthonormalize_in_place(np.asfortranarray(rng.standard_normal((n, 2 * d))))
        elif frame == "incoherent":
            if n < 2 * d + 1:
                raise ValueError("the incoherent frame needs n >= 2d + 1: 2d distinct nonconstant harmonics")
            cols = _cosine_frame(rng, n, 2 * d)
        else:
            raise ValueError('frame must be "gaussian" or "incoherent"')
        ubar_cols, comp = cols[:, :d], cols[:, d:]
        sin_phi = np.sqrt(_split_epsilon(rng, d, eps))
        cos_phi = np.sqrt(1.0 - sin_phi**2)
        # C-ordered whatever the frame's order, so the product below runs
        # through the kernel, and gives the bits, of a C-ordered frame
        tilted = np.add(ubar_cols * cos_phi, comp * sin_phi, order="C")
        rot = orthonormalize(rng.standard_normal((d, d)))
        return Basis(tilted @ rot), Basis(ubar_cols)


def generate_problem(spec: ProblemSpec) -> tuple[Basis, Basis]:
    """(target, start) bases per the synthetic protocol; seeded, bitwise stable at any BLAS thread count.

    The factorizations run pinned to one BLAS thread.
    """
    rng = _child_rng(spec.seed, _PROBLEM_STREAM)
    target = rng.standard_normal((spec.n, spec.d))
    # the start target + noise * init_noise_std, bit for bit, formed in the noise's array
    start = rng.standard_normal((spec.n, spec.d))
    start *= spec.init_noise_std
    start += target
    # each matrix is factored in a Fortran-ordered copy that replaces it, and
    # Basis makes the one C-ordered copy: at most three n x d arrays are alive
    with _one_blas_thread():
        target = np.asfortranarray(target)
        ubar = Basis(_orthonormalize_in_place(target))
        del target
        start = np.asfortranarray(start)
        return ubar, Basis(_orthonormalize_in_place(start))


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
    ``epsilons`` is a 1-d trajectory of real numbers with no infinite entry.
    """
    eps = _real_array("epsilons", epsilons)
    if eps.ndim != 1:
        raise ValueError("epsilons must be a 1-d trajectory")
    if np.isinf(eps).any():
        raise ValueError("epsilons must not be infinite")
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
    trials_per_cell: int,
    iters: int,
    seed: int,
    *,
    bypass_gate: bool = False,
    alpha: float = ProblemSpec.alpha,
    init_noise_std: float = ProblemSpec.init_noise_std,
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


# The run-spec file's keys, in file order: ProblemSpec's fields, each with
# the kind its annotation names (a KeyError at import for any other).
_KINDS = {"int": _INT, "int | str": _INT_OR_FULL, "float": _FLOAT}
_SPEC_KEYS = {f.name: _KINDS[f.type] for f in fields(ProblemSpec)}


def write_problem_spec(path, spec: ProblemSpec) -> None:
    """Flat ``key=value`` text file carrying exactly the ProblemSpec fields, ASCII, ``\\n`` line ends."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        for key, kind in _SPEC_KEYS.items():
            (cell,) = _write_cells(kind, [getattr(spec, key)])
            fh.write(f"{key}={cell}\n")


def read_problem_spec(path) -> ProblemSpec:
    """Parse a run-spec file written by :func:`write_problem_spec`.

    The lines come from the line codec ``results._read_rows``, as a table's
    do: the file is ASCII (a ``"`` or any byte past ASCII raises
    ValueError), ``\\r\\n``, ``\\r`` and ``\\n`` end a line, and only an empty
    line is blank and skipped.  Every other line is ``key=value`` exactly
    as the writer writes it: nothing is stripped around the key or the
    value, and each value obeys its kind's one cell rule (``results._Kind``),
    so ``n = 500``, ``n=5_00``, ``q=+30``, ``alpha=1``, ``alpha=1e0`` and
    ``init_noise_std=.5`` are rejected.  ValueError on a missing, unknown or
    repeated key or such a value.
    """
    text: dict[str, str] = {}
    for cells in filter(None, _read_rows(path)):
        # a "," splits the line into cells; joined back, the value holds it and fails its cell rule
        key, _, value = ",".join(cells).partition("=")
        if key not in _SPEC_KEYS or key in text:
            raise ValueError(f"problem spec file has an unknown or repeated key {key!r}")
        text[key] = value
    missing = [key for key in _SPEC_KEYS if key not in text]
    if missing:
        raise ValueError(f"problem spec file lacks the {missing[0]} field")
    values = {}
    for key, kind in _SPEC_KEYS.items():
        try:
            (values[key],) = _read_cells(kind, [text[key]])
        except ValueError as exc:
            raise ValueError(f"malformed {key} value: {exc}") from None
    return ProblemSpec(**values)
