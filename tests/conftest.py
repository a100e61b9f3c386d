import os
import re

import pytest


def _drop_last_column(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


def _rewrite_cell(fits, rewrite):
    """A malformation that rewrites the first data cell, row by row, for which ``fits`` holds."""

    def malform(lines):
        rows = [line.split(",") for line in lines]
        row, col = next((r, i) for r in rows[1:] for i, cell in enumerate(r) if fits(i, cell))
        row[col] = rewrite(row[col])
        return [",".join(r) for r in rows]

    return malform


def _int_cell(col, cell):
    # every table's first column is an integer (t, n or trial)
    return col == 0


def _float_cell(col, cell):
    # a finite float written as a plain decimal with at least two fraction digits
    return re.fullmatch(r"-?\d+\.\d\d+", cell) is not None


# Each rewrites the lines of a table file (a header, then at least one row)
# so that the file no longer matches its declared columns.  The cell-level
# ones spell a cell other than as the writer writes it; each but "int past
# int64" and "infinity" reads, by Python's int() and float() (or, for the
# quoted cell, by ``csv.reader``), as the value it replaces.
_MALFORMATIONS = {
    "missing column": _drop_last_column,
    "extra column": lambda lines: [line + ",0" for line in lines],
    "renamed column": lambda lines: [_drop_last_column(lines[:1])[0] + ",bogus", *lines[1:]],
    "short row": lambda lines: [*lines[:-1], *_drop_last_column(lines[-1:])],
    "long row": lambda lines: [*lines[:-1], lines[-1] + ",0"],
    "int with sign": _rewrite_cell(_int_cell, lambda c: "+" + c),
    "padded int": _rewrite_cell(_int_cell, lambda c: " " + c),
    "int with leading zero": _rewrite_cell(_int_cell, lambda c: "0" + c),
    "int past int64": _rewrite_cell(_int_cell, lambda c: "9" * 20),
    "float with underscore": _rewrite_cell(_float_cell, lambda c: re.sub(r"\.(\d)", r".\1_", c, count=1)),
    "infinity": _rewrite_cell(_float_cell, lambda c: "infinity"),
    "float with exponent": _rewrite_cell(_float_cell, lambda c: c + "e0"),
    "float with trailing zero": _rewrite_cell(_float_cell, lambda c: c + "0"),
    "quoted cell": _rewrite_cell(_int_cell, lambda c: f'"{c}"'),
}


@pytest.fixture(params=list(_MALFORMATIONS))
def malform_table(request):
    """A function that rewrites a table file with one header, row-width or cell fault."""

    def malform(path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(_MALFORMATIONS[request.param](lines)) + "\n")

    return malform


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the test and returns a list.

    Each call of the wrapped function appends to that list.
    """

    def wrap(owner, name) -> list:
        calls, real = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return wrap


@pytest.fixture
def see_one_cpu(monkeypatch):
    """``see_one_cpu()`` makes the library see one CPU for the rest of the test.

    ``linalg._fork_map`` then runs its tasks in-process, and a validator
    runs its trials as one range.
    """
    return lambda: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def traced_peak():
    """``traced_peak(call)`` runs ``call()`` and returns the peak of the bytes it held at once.

    ``tracemalloc`` sees numpy's data buffers, so the peak counts every
    array the call allocates while it runs.
    """
    import tracemalloc

    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
