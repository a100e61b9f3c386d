"""Trial results, the drivers' basis buffer, and the cell and line codec of every file the library writes.

:class:`_Trajectory` owns the one n x d buffer a driver steps: it makes the
copy, rotates it in place, re-orthonormalizes it, measures epsilon and keeps
the per-step rows; the drivers only read it.  Its drift check runs exactly
only where the bound of :func:`_drift_bound`, one O(n d) product per
rotation, cannot certify that the check would find no excess drift.

:func:`_write_rows` and :func:`_read_rows` are the one line codec of every
CSV file, the tables here and the observation file of ``partial_data``:
comma-separated ASCII cells, no quoting, ``\r\n`` line ends written and any
of ``\r\n``, ``\r``, ``\n`` read.  The reader reads fixed-size blocks, so it
never holds a file's text.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linalg import _orthonormalize_in_place, dgemv
from .metrics import BASIS_DRIFT_TOL, REORTHO_EVERY, Basis, _residual_energy, _rotate

# orthonormality_drift is called through this module binding, so a tracer
# that rebinds public names sees it inside the step loops; the QR runs
# through the private _orthonormalize_in_place, which such a tracer does not see.
from .metrics import orthonormality_drift

# d - ||U^T ubar||_F^2 loses accuracy to cancellation near convergence; below
# this value a maintained trajectory measures epsilon from scratch instead.
_EPS_SWITCH = 1e-8

# The unit roundoff of binary64, and a factor that exceeds the roundings of a
# drift bound's own formula (at most 40, each within _UNIT) by far.
_UNIT = 2.0**-53
_UP = 1.0 + 2.0**-40

# The per-step columns of a trajectory, in row order, with their dtypes.
_STEP_DTYPE = np.dtype(
    [("gate_passed", bool), ("taken", bool), ("norm_r", float), ("norm_p", float), ("theta", float)]
)


@dataclass(eq=False)
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


def _drift_bound(cols: np.ndarray, y: np.ndarray, gain: np.ndarray, bound: float) -> float:
    """A bound on drift(U') = ||U'^T U' - I||_F for the buffer U' = ``cols`` just rotated.

    ``(y, gain)`` is what ``metrics._rotate`` returned, so U' = fl(U + g y^T)
    with g = ``gain``, entry by entry; ``bound`` is at least drift(U) of the
    buffer U before the step.  The cost is one O(n d) BLAS ``dgemv`` and
    O(d) work: with c = g.g, the vector e = U'^T g - (c/2) y.  In exact
    arithmetic the GROUSE step is a rotation and e is zero; here it holds
    the rounding.

    Why it holds (Higham, *Accuracy and Stability of Numerical Algorithms*,
    chs. 2 and 3; u = 2^-53, and n d <= 2^40, as for any array in memory,
    so n u and d^2 u are below 2^-13).  Write U' = U + g y^T + E, E the
    update's rounding, and e' for e in exact arithmetic on the computed U',
    g, y and c.  Then U^T g = e' + (c/2) y - c' y - E^T g with c' = g^T g
    exactly, and in U'^T U' the terms in E^T g cancel:

        U'^T U' - I = (U^T U - I) + e' y^T + y e'^T + (c - c') y y^T + U^T E + E^T U + E^T E,

    so drift(U') <= drift(U) + 2 ||e'|| ||y|| + |c - c'| ||y||^2
    + 2 ||U||_2 ||E||_F + ||E||_F^2.  Each term is bounded from above:

    - ||U||_2 <= s = 1 + bound/2, since the eigenvalues of U^T U lie within
      drift(U) of 1, and ||U||_F <= sqrt(d) s;
    - a norm computed as the square root of an m-term dot product is the
      true norm within a factor 1 + m u, its square root's rounding aside,
      and |c - c'| <= gamma_n c <= 2 n u c;
    - each entry of U' is fl(U_ij + fl(g_i y_j)), so |E_ij| <= u |g_i y_j| +
      u |U'_ij|, whence ||E||_F <= 2u (2 ||g|| ||y|| + sqrt(d) s) and
      ||U'||_F <= sqrt(d) s + ||g|| ||y|| + ||E||_F;
    - e is one BLAS ``dgemv``, U'^T g + (-c/2) y, each entry an inner
      product of n + 1 terms (the scaling of y by -c/2 is exact), so it lies
      within gamma_{n+2} (||U'||_F ||g|| + (c/2) ||y||) of e' in norm, and
      gamma_{n+2} <= 2 (n + 2) u.

    The formula below evaluates these nonnegative terms with at most 40
    roundings, which the factor ``_UP`` more than restores; an underflow
    anywhere moves a term by under 2^-1000, far below the u sqrt(d) of the
    ||E||_F term.  A bound of +inf or NaN stays so, and the caller then
    runs the exact check.
    """
    n, d = cols.shape
    u = _UNIT
    c = float(gain.dot(gain))
    # cols.T is F-contiguous, so dgemv reads the buffer in place: e = cols^T gain - (c/2) y
    e = dgemv(1.0, cols.T, gain, -0.5 * c, y)
    norm_e = math.sqrt(e.dot(e)) * (1.0 + (d + 2) * u)
    norm_y = math.sqrt(y.dot(y)) * (1.0 + (d + 2) * u)
    norm_g = math.sqrt(c) * (1.0 + (n + 2) * u)
    gy = norm_g * norm_y
    s = 1.0 + 0.5 * bound
    err = 2.0 * u * (2.0 * gy + math.sqrt(d) * s)
    norm_e += 2.0 * (n + 2) * u * ((math.sqrt(d) * s + gy + err) * norm_g + 0.5 * c * norm_y)
    return (bound + 2.0 * norm_e * norm_y + 2.0 * n * u * c * norm_y**2 + 2.0 * s * err + err * err) * _UP


class _Trajectory:
    """The basis buffer a driver steps, owned here, with the run's rows, QRs and epsilons.

    ``cols`` is the buffer, a copy of the validated Basis ``u0`` that only
    :meth:`step` writes; drivers read it.  ``target`` is None to measure no
    epsilon.  ``maintained`` keeps U^T target by rank-one updates (epsilon
    from scratch only below ``_EPS_SWITCH``) and checks no drift, so no step
    costs O(n d^2).  A QR replaces the buffer every ``REORTHO_EVERY`` steps
    and on excess drift; a step that leaves the buffer as the last epsilon
    found it reuses that epsilon.  A step recorded with no row counts
    toward the cadence but keeps nothing for :meth:`result`.

    One rule decides the drift check: a step that is not a cadence QR runs
    the exact check unless the trajectory's bound beta on the buffer's true
    drift D = ||U^T U - I||_F is at most a limit, below which the check
    could not read excess drift; every QR decision is the exact check's.
    beta is +inf at the start and after each QR, so the next step runs the
    exact check: the start basis is read once, by the first step, when that
    step does not rotate it.  beta is reset by each exact check and grown
    by :func:`_drift_bound` at each rotation.  A maintained trajectory's
    limit is +inf, so it runs no check.  The exact check,
    ``orthonormality_drift``, computes fl(||fl(U^T U) - I||_F): the product
    is within gamma_n ||U||_F^2 <= 2 n u d (1 + D) of U^T U, the diagonal
    subtraction within u of each entry and the norm within (d^2/2 + 1) u
    relative, so it reads within r(D) = 2u ((n + 1) d (1 + D) + (d^2 + 4) D)
    of D (an underflow moves it by far less).  Hence:

    - after an exact check reading D', D <= (D' + o) / (1 - k) <= (D' +
      o)(1 + 2k), with o = 2u (n + 1) d and k = 2u ((n + 1) d + d^2 + 4)
      <= 1/2, and beta is reset to that (times ``_UP``);
    - a check would read at most D + r(D) <= beta + r(beta), so where
      beta <= (tol - o) / (1 + k), the limit, it would read at most tol and
      find no excess drift: the check is skipped.  Otherwise, a NaN beta
      included, it runs exactly as without the certificate.
    """

    def __init__(self, u0: Basis, target: np.ndarray | None, maintained: bool):
        self.cols = np.array(u0.columns)
        self._target = target
        self._product = self.cols.T @ target if maintained else None
        self._rows = []
        self._steps = 0
        self._bound = math.inf
        n, d = self.cols.shape
        self._offset = 2.0 * _UNIT * (n + 1) * d
        self._k = 2.0 * _UNIT * ((n + 1) * d + d * d + 4)
        # rounded down, so that a bound at most this is at most the exact limit;
        # a maintained trajectory checks no drift
        limit = (BASIS_DRIFT_TOL - self._offset) / (1.0 + self._k) * (1.0 - 2.0**-40)
        self._limit = math.inf if maintained else limit
        # n*d doubles, made at first need: a from-scratch epsilon's residual
        # (a C-ordered view) or a QR's factor (a Fortran-ordered view)
        self._work = None
        self._epsilons = None if target is None else [self._measure()]

    def _measure(self) -> float:
        if self._product is not None:
            rough = float(self.cols.shape[1] - np.sum(self._product * self._product))
            if rough >= _EPS_SWITCH:
                return rough
        return _residual_energy(self.cols, self._target, self._workspace("C"))

    def _workspace(self, order: str) -> np.ndarray:
        """The trajectory's one n x d workspace, viewed in ``order`` ("C" or "F")."""
        if self._work is None:
            self._work = np.empty(self.cols.size)
        return self._work.reshape(self.cols.shape, order=order)

    def step(self, row: tuple | None, rotation: tuple | None) -> None:
        """Record a step, rotating the buffer by ``_rotate(cols, *rotation)`` unless it is None.

        ``row`` is None for a step whose row no one reads.  After the step
        ``cols`` may be a fresh QR factor.  The caller pins one BLAS thread
        (``linalg._one_blas_thread``) around the run.
        """
        self._steps += 1
        if row is not None:
            self._rows.append(row)
        qr = self._steps % REORTHO_EVERY == 0
        if rotation is not None:
            y, gain = _rotate(self.cols, *rotation)
            if self._product is not None:
                self._product = self._product + np.outer(y, self._target.T @ gain)
            elif not qr and self._bound < math.inf:
                self._bound = _drift_bound(self.cols, y, gain, self._bound)
        # spelled so that a NaN bound runs the check
        if not (qr or self._bound <= self._limit):
            drift = orthonormality_drift(self.cols)
            qr = drift > BASIS_DRIFT_TOL
            self._bound = (drift + self._offset) * (1.0 + 2.0 * self._k) * _UP
        if qr:
            # factored in place in the workspace and copied back, so the buffer
            # and the workspace are the only n x d arrays alive
            work = self._workspace("F")
            np.copyto(work, self.cols)
            np.copyto(self.cols, _orthonormalize_in_place(work))
            self._bound = math.inf
            if self._product is not None:
                self._product = self.cols.T @ self._target
        if self._epsilons is not None:
            fresh = rotation is not None or qr
            self._epsilons.append(self._measure() if fresh else self._epsilons[-1])

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
    the observation reader's value elements (``partial_data._parse_fields``)
    keep a looser rule of their own.  Such an element is any finite decimal
    numeral, with an optional sign, decimal point and exponent: ``.5``,
    ``5.``, ``+1`` and ``1E5`` read as 0.5, 5.0, 1.0 and 100000.0, and an
    underflowing ``1e-400`` as 0.0.  Observation files also come from other
    programs, and a write-back check does not pay: re-``repr``-ing the
    240,000 values of the ``stream-gated`` benchmark's file and comparing
    each row's text took 160-255 ms (2-core x86_64 VM), against a unit
    ``wall_s`` of about 0.25 s and a bound of 25% on it.
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


# The line codec reads a file in blocks of this many bytes, so a reader holds
# one block and the line that straddles its end, never the file's text.
_BLOCK = 1 << 16


def _read_rows(path):
    """Yield the cells of each line of a file, ``[]`` for a blank line; ValueError on a ``"`` or a non-ASCII byte.

    ``\r\n``, ``\r`` and ``\n`` each end a line, and a line splits at
    every ",": on text without ``"`` these are ``csv.reader``'s rows.  A
    quoted cell is not a cell the library writes, so a ``"`` anywhere raises
    ValueError; so does a byte past ASCII, which no cell the library writes
    holds.  The file is read in blocks of ``_BLOCK``
    bytes, each checked once for both and cut after its last line end that
    cannot be the ``\r`` of a ``\r\n``; ``bytes.splitlines`` then ends a
    line at those three ends only (``str.splitlines`` would also end one at
    ``\v``, ``\f`` and ``\x1c``-``\x1e``).  A field has no length limit.
    """
    with open(path, "rb") as fh:
        head = []
        for block in iter(functools.partial(fh.read, _BLOCK), b""):
            if b'"' in block:
                raise ValueError("quoted cells are not read: a line holds '\"'")
            if not block.isascii():
                raise ValueError("a line holds a byte that is not ASCII")
            cut = block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1
            if not cut:
                head.append(block)
                continue
            # a memoryview slice, so that the join is the one copy of the block
            yield from _split_lines(b"".join([*head, memoryview(block)[:cut]]))
            head = [block[cut:]]
        yield from _split_lines(b"".join(head))


def _split_lines(text: bytes):
    for line in map(bytes.decode, text.splitlines()):
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
    """Parse a trajectory CSV back into a TrialResult; ValueError on a malformed file.

    The file carries epsilon and the five step columns, which read back bit
    for bit.  It does not carry ``x_factor`` or ``tail_slope``, which the
    ``run_*_trial`` functions attach to a result: they read back as None.
    """
    t, eps, *steps = _read_table(path, _TRAJECTORY, lagged=_STEP_DTYPE.names)
    if not len(t) or not np.array_equal(t, np.arange(len(t))):
        raise ValueError("trajectory rows must count t = 0, 1, 2, ...")
    return TrialResult(
        epsilons=None if np.isnan(eps).all() else eps,
        **dict(zip(_STEP_DTYPE.names, steps)),
    )
