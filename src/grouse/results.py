"""Trial results, the trajectory bookkeeping and CSV interface shared by both drivers."""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# orthonormalize and orthonormality_drift are called through these module
# bindings, so a tracer that rebinds public names sees them inside the step loops.
from .linalg import orthonormalize
from .metrics import BASIS_DRIFT_TOL, REORTHO_EVERY, _residual_energy, orthonormality_drift

# d - ||U^T ubar||_F^2 loses accuracy to cancellation near convergence; below
# this value a maintained trajectory measures epsilon from scratch instead.
_EPS_SWITCH = 1e-8

# The per-step columns of a trajectory, in row order, with their dtypes.
_STEP_DTYPE = np.dtype(
    [("gate_passed", bool), ("taken", bool), ("norm_r", float), ("norm_p", float), ("theta", float)]
)


@dataclass
class TrialResult:
    """Per-iteration trajectory of one run plus summary statistics.

    ``epsilons`` has length N+1 (entry 0 is the starting error) and is None
    when no target basis was supplied.  The per-step arrays have length N;
    ``theta`` entries are NaN where the revealed angle was unavailable.
    """

    epsilons: np.ndarray | None
    x_factor: float | None = None
    tail_slope: float | None = None
    gate_passed: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    taken: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    norm_r: np.ndarray = field(default_factory=lambda: np.zeros(0))
    norm_p: np.ndarray = field(default_factory=lambda: np.zeros(0))
    theta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def iterations(self) -> int:
        return len(self.gate_passed)

    @property
    def gate_skips(self) -> int:
        """Steps skipped because the gate failed (and was not bypassed)."""
        return int(np.sum(~self.gate_passed & ~self.taken))


def _from_rows(epsilons, rows) -> TrialResult:
    """A TrialResult from the epsilons (or None) and a list of ``_STEP_DTYPE`` row tuples."""
    table = np.array(rows, dtype=_STEP_DTYPE)
    return TrialResult(
        epsilons=None if epsilons is None else np.array(epsilons, dtype=float),
        **{name: table[name].copy() for name in _STEP_DTYPE.names},
    )


class _Trajectory:
    """The rows, re-orthonormalizations and epsilons of a driver stepping its owned buffer.

    ``cols`` copies a validated Basis; ``target`` is None to measure no
    epsilon.  ``maintained`` keeps U^T target by rank-one updates (epsilon
    from scratch only below ``_EPS_SWITCH``) and checks no drift, so no step
    costs O(n d^2).  A QR replaces the buffer every ``REORTHO_EVERY`` steps
    and on excess drift; a step that leaves the buffer as the last drift
    check or epsilon found it reuses that result.
    """

    def __init__(self, cols: np.ndarray, target: np.ndarray | None, maintained: bool):
        self._target = target
        self._product = cols.T @ target if maintained else None
        self._rows = []
        # the Basis the buffer copies passed the drift check
        self._checked = True
        self._epsilons = None if target is None else [self._measure(cols)]

    def _measure(self, cols: np.ndarray) -> float:
        if self._product is not None:
            rough = float(cols.shape[1] - np.sum(self._product * self._product))
            if rough >= _EPS_SWITCH:
                return rough
        return _residual_energy(cols, self._target)

    def step(self, cols: np.ndarray, row: tuple, rank_one) -> np.ndarray:
        """Record a step; ``rank_one`` is ``(y, gain)`` if it added outer(gain, y) to ``cols``.

        Returns the buffer to step next, a fresh QR factor or ``cols``.
        """
        self._rows.append(row)
        if rank_one is not None:
            self._checked = False
            if self._product is not None:
                y, gain = rank_one
                self._product = self._product + np.outer(y, self._target.T @ gain)
        qr = len(self._rows) % REORTHO_EVERY == 0
        if not (qr or self._checked or self._product is not None):
            qr = orthonormality_drift(cols) > BASIS_DRIFT_TOL
            self._checked = not qr
        if qr:
            cols = orthonormalize(cols)
            self._checked = False
            if self._product is not None:
                self._product = cols.T @ self._target
        if self._epsilons is not None:
            fresh = rank_one is not None or qr
            self._epsilons.append(self._measure(cols) if fresh else self._epsilons[-1])
        return cols

    def result(self) -> TrialResult:
        return _from_rows(self._epsilons, self._rows)


def _fmt(x: float) -> str:
    # repr round-trips binary64 exactly (shortest 17-significant-digit form)
    return repr(float(x))


def _write_table(path, header: list[str], rows) -> None:
    """Write a CSV file: the header line, then one line per row of cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path) -> list[dict]:
    """Rows of a CSV file written by :func:`_write_table`, keyed by header name."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_trajectory_csv(path, result: TrialResult) -> None:
    """Write rows ``t,epsilon,gate_passed,taken,norm_r,norm_p,theta``.

    Row t=0 carries only the starting epsilon; step statistics for step t
    live on row t alongside the epsilon measured after that step.  Missing
    values (no target basis, no revealed angle) are empty cells.
    """
    n_steps = result.iterations
    eps = result.epsilons
    eps = [""] * (n_steps + 1) if eps is None else list(map(_fmt, eps.tolist()))
    steps = zip(
        range(1, n_steps + 1),
        eps[1:],
        result.gate_passed.astype(int).tolist(),
        result.taken.astype(int).tolist(),
        map(_fmt, result.norm_r.tolist()),
        map(_fmt, result.norm_p.tolist()),
        ("" if math.isnan(theta) else _fmt(theta) for theta in result.theta.tolist()),
    )
    _write_table(
        path,
        ["t", "epsilon", "gate_passed", "taken", "norm_r", "norm_p", "theta"],
        itertools.chain([[0, eps[0], "", "", "", "", ""]], steps),
    )


def read_trajectory_csv(path) -> TrialResult:
    """Parse a trajectory CSV back into a TrialResult (losslessly)."""
    rows = _read_table(path)
    if not rows or rows[0]["t"] != "0":
        raise ValueError("trajectory file must start with the t=0 row")
    eps = None if rows[0]["epsilon"] == "" else [float(row["epsilon"]) for row in rows]
    steps = [
        (
            int(row["gate_passed"]),
            int(row["taken"]),
            float(row["norm_r"]),
            float(row["norm_p"]),
            float(row["theta"]) if row["theta"] else np.nan,
        )
        for row in rows[1:]
    ]
    return _from_rows(eps, steps)
