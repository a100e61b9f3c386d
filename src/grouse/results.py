"""Trial results and the trajectory CSV interface shared by both drivers."""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


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
    have_eps = rows[0]["epsilon"] != ""
    eps = [float(rows[0]["epsilon"])] if have_eps else None
    gate_passed, taken, norm_r, norm_p, theta = [], [], [], [], []
    for row in rows[1:]:
        if have_eps:
            eps.append(float(row["epsilon"]))
        gate_passed.append(bool(int(row["gate_passed"])))
        taken.append(bool(int(row["taken"])))
        norm_r.append(float(row["norm_r"]))
        norm_p.append(float(row["norm_p"]))
        theta.append(float(row["theta"]) if row["theta"] != "" else np.nan)
    return TrialResult(
        epsilons=None if eps is None else np.array(eps),
        gate_passed=np.array(gate_passed, dtype=bool),
        taken=np.array(taken, dtype=bool),
        norm_r=np.array(norm_r),
        norm_p=np.array(norm_p),
        theta=np.array(theta),
    )
