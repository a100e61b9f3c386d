"""Trial results, the drivers' basis buffer, and the cell and line codec of every file the library writes.

:class:`_Trajectory` owns the one n x d buffer a driver steps: it makes the
copy, rotates it in place, re-orthonormalizes it, measures epsilon and keeps
the per-step rows; the drivers only read it.  :func:`_write_rows` and
:func:`_read_rows` are the one line codec of every CSV file, the tables here
and the observation file of ``partial_data``: comma-separated cells, no
quoting, ``\r\n`` line ends written and any of ``\r\n``, ``\r``, ``\n``
read.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .metrics import BASIS_DRIFT_TOL, REORTHO_EVERY, Basis, _residual_energy, _rotate

# orthonormalize and orthonormality_drift are called through these module
# bindings, so a tracer that rebinds public names sees them inside the step loops.
from .linalg import orthonormalize
from .metrics import orthonormality_drift

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


class _Trajectory:
    """The basis buffer a driver steps, owned here, with the run's rows, QRs and epsilons.

    ``cols`` is the buffer, a copy of the validated Basis ``u0`` that only
    :meth:`step` writes; drivers read it.  ``target`` is None to measure no
    epsilon.  ``maintained`` keeps U^T target by rank-one updates (epsilon
    from scratch only below ``_EPS_SWITCH``) and checks no drift, so no step
    costs O(n d^2).  A QR replaces the buffer every ``REORTHO_EVERY`` steps
    and on excess drift; a step that leaves the buffer as the last drift
    check or epsilon found it reuses that result.  A step recorded with no
    row counts toward the cadence but keeps nothing for :meth:`result`.
    """

    def __init__(self, u0: Basis, target: np.ndarray | None, maintained: bool):
        self.cols = np.array(u0.columns)
        self._target = target
        self._product = self.cols.T @ target if maintained else None
        self._rows = []
        self._steps = 0
        # the Basis the buffer copies passed the drift check
        self._checked = True
        self._epsilons = None if target is None else [self._measure()]

    def _measure(self) -> float:
        if self._product is not None:
            rough = float(self.cols.shape[1] - np.sum(self._product * self._product))
            if rough >= _EPS_SWITCH:
                return rough
        return _residual_energy(self.cols, self._target)

    def step(self, row: tuple | None, rotation: tuple | None) -> None:
        """Record a step, rotating the buffer by ``_rotate(cols, *rotation)`` unless it is None.

        ``row`` is None for a step whose row no one reads.  After the step
        ``cols`` may be a fresh QR factor.
        """
        self._steps += 1
        if row is not None:
            self._rows.append(row)
        if rotation is not None:
            y, gain = _rotate(self.cols, *rotation)
            self._checked = False
            if self._product is not None:
                self._product = self._product + np.outer(y, self._target.T @ gain)
        qr = self._steps % REORTHO_EVERY == 0
        if not (qr or self._checked or self._product is not None):
            qr = orthonormality_drift(self.cols) > BASIS_DRIFT_TOL
            self._checked = not qr
        if qr:
            self.cols = orthonormalize(self.cols)
            self._checked = False
            if self._product is not None:
                self._product = self.cols.T @ self._target
        if self._epsilons is not None:
            fresh = rotation is not None or qr
            self._epsilons.append(self._measure() if fresh else self._epsilons[-1])

    def quiet(self) -> int:
        """How many coming steps, each skipped but the last, are decided against ``cols`` as it stands.

        A skipped step leaves the buffer alone unless it reaches the QR
        cadence or a pending drift check, which may QR: the run ends at the
        next cadence step, or is the one step that checks a fresh QR
        factor's drift (a rotating step checks its own).
        """
        if not (self._checked or self._product is not None):
            return 1
        return REORTHO_EVERY - self._steps % REORTHO_EVERY

    def skip(self, rows: list) -> None:
        """Record ``len(rows)`` skipped steps, as ``step(row, None)`` does for each row in turn.

        At most :meth:`quiet` of them, so only the last can reach a QR.
        """
        *head, last = rows
        self._steps += len(head)
        self._rows.extend(row for row in head if row is not None)
        if self._epsilons is not None:
            self._epsilons.extend(itertools.repeat(self._epsilons[-1], len(head)))
        self.step(last, None)

    def result(self) -> TrialResult:
        table = np.array(self._rows, dtype=_STEP_DTYPE)
        return TrialResult(
            epsilons=None if self._epsilons is None else np.array(self._epsilons, dtype=float),
            **{name: table[name].copy() for name in _STEP_DTYPE.names},
        )


class _Kind(NamedTuple):
    """How the cells of one column, or one run-spec value, are written and read back.

    The one cell rule: a cell is accepted only if the kind writes its value
    back as the same text, ``write(dtype(read(cell))) == cell``, so every
    value has exactly one cell and a reader accepts only what a writer
    writes (no sign, padding, leading zero, underscore, exponent or other
    spelling of the written text).  :func:`_write_cells` and
    :func:`_read_cells` apply it, for every file the library writes; only
    the observation reader (``partial_data._parse_field``) keeps a looser
    rule of its own.
    """

    dtype: Callable  # a value -> the Python scalar its cell holds; a table column's array dtype
    write: Callable  # a Python scalar of ``dtype`` -> its cell text
    read: Callable  # a cell -> its value; ValueError on text it cannot read


_FLAG = _Kind(bool, lambda flag: "1" if flag else "0", int)
_INT = _Kind(int, str, int)
# repr round-trips binary64 exactly (shortest 17-significant-digit form)
_FLOAT = _Kind(float, repr, float)
# an empty cell is a value that does not exist, NaN in memory
_OPT_FLOAT = _Kind(float, lambda x: "" if x != x else repr(x), lambda c: float(c) if c else math.nan)


def _int_or_full(value):
    return value if value == "full" else int(value)


# an integer or the word "full", as the run-spec file's q
_INT_OR_FULL = _Kind(_int_or_full, str, _int_or_full)


def _write_cells(kind: _Kind, values) -> list[str]:
    """The cells of a sequence of values, each passed through ``kind.dtype`` first."""
    return list(map(kind.write, map(kind.dtype, np.asarray(values).tolist())))


def _read_cells(kind: _Kind, cells: list[str]) -> list:
    """The Python values of a sequence of cells under the one cell rule of :class:`_Kind`.

    Raises ValueError on a cell ``kind`` cannot read or would write as
    other text.
    """
    values = list(map(kind.dtype, map(kind.read, cells)))
    written = list(map(kind.write, values))
    if written != cells:
        cell, text = next((c, w) for c, w in zip(cells, written) if c != w)
        raise ValueError(f"{cell!r} is not the written form of its value, {text!r}")
    return values


def _write_rows(path, rows) -> None:
    """Write each row, a sequence of cells, as one line: the cells joined by "," and ``\r\n``.

    These are the bytes ``csv.writer`` writes for rows of two or more
    cells that need no quoting: every file the library writes has at least
    two columns, and no cell it writes holds a ``,``, ``"``, ``\r`` or
    ``\n``.  Rows stream to the file one at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _read_rows(path):
    """Yield the cells of each line of a file, ``[]`` for a blank line; ValueError on a ``"``.

    ``\r\n``, ``\r`` and ``\n`` each end a line, and a line splits at
    every ",": on text without ``"`` these are ``csv.reader``'s rows.  A
    quoted cell is not a cell the library writes, so a ``"`` anywhere raises
    ValueError.  Lines stream from the file one at a time, and a field has
    no length limit.
    """
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if '"' in line:
                raise ValueError("quoted cells are not read: a line holds '\"'")
            yield line.split(",") if line else []


def _write_table(path, schema: dict, columns, lagged=()) -> None:
    """Write the header of ``schema``, then ``columns`` as rows.

    ``schema`` maps each column name, in file order, to its kind;
    ``columns`` holds one sequence of values per schema column.  A column
    named in ``lagged`` holds one value fewer than the table has rows and
    leaves the first row's cell empty.
    """
    cells = []
    for (name, kind), values in zip(schema.items(), columns, strict=True):
        text = _write_cells(kind, values)
        cells.append(itertools.chain([""], text) if name in lagged else text)
    _write_rows(path, itertools.chain([list(schema)], zip(*cells, strict=True)))


def _read_table(path, schema: dict, lagged=()) -> list[np.ndarray]:
    """The columns of a table written by :func:`_write_table`, as arrays of their kinds' dtypes.

    Raises ValueError unless the header names exactly ``schema``'s columns in
    order, every row has one cell per column, every cell obeys its column
    kind's one cell rule (:class:`_Kind`) and fits the column's array dtype,
    and every ``lagged`` column's first cell is empty.
    """
    rows = list(_read_rows(path))
    if not rows or rows[0] != list(schema):
        raise ValueError(f"table header must be {','.join(schema)}")
    for line, row in enumerate(rows, 1):
        if len(row) != len(schema):
            raise ValueError(f"table line {line} has {len(row)} cells, not {len(schema)}")
    columns = []
    for (name, kind), (_, *cells) in zip(schema.items(), zip(*rows)):
        if name in lagged:
            if cells[:1] != [""]:
                raise ValueError(f"the first {name} cell must be empty")
            cells = cells[1:]
        try:
            # an int past int64 reads, then overflows the column array
            columns.append(np.array(_read_cells(kind, cells), dtype=kind.dtype))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"malformed {name} cell: {exc}") from None
    return columns


# The trajectory table: the step number, the epsilon measured after that step,
# then the step's own columns, whose row t=0 is empty.
_TRAJECTORY = {
    "t": _INT,
    "epsilon": _OPT_FLOAT,
    **{name: _FLAG if _STEP_DTYPE[name] == bool else _OPT_FLOAT for name in _STEP_DTYPE.names},
}


def write_trajectory_csv(path, result: TrialResult) -> None:
    """Write one row per t = 0..N: t, epsilon, then one column per step field.

    Row t=0 carries only the starting epsilon; the statistics of step t live
    on row t alongside the epsilon measured after that step.  Missing values
    (no target basis, no revealed angle) are empty cells.
    """
    rows = result.iterations + 1
    eps = np.full(rows, np.nan) if result.epsilons is None else result.epsilons
    steps = [getattr(result, name) for name in _STEP_DTYPE.names]
    _write_table(path, _TRAJECTORY, [range(rows), eps, *steps], lagged=_STEP_DTYPE.names)


def read_trajectory_csv(path) -> TrialResult:
    """Parse a trajectory CSV back into a TrialResult (losslessly); ValueError on a malformed file."""
    t, eps, *steps = _read_table(path, _TRAJECTORY, lagged=_STEP_DTYPE.names)
    if not len(t) or not np.array_equal(t, np.arange(len(t))):
        raise ValueError("trajectory rows must count t = 0, 1, 2, ...")
    return TrialResult(
        epsilons=None if np.isnan(eps).all() else eps,
        **dict(zip(_STEP_DTYPE.names, steps)),
    )
