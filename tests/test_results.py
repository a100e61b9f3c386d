"""The line codec of every CSV file, and the exact bytes its writers write.

``csv`` appears here only as the reference the codec is checked against.
"""
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouse.partial_data import Observation, write_observations
from grouse.results import TrialResult, _read_rows, _write_rows, write_trajectory_csv

# the characters of the cells the library writes, plus the line ends and a space
_TEXT = st.text(alphabet="0123456789,;-.e \r\n", max_size=120)
_CELL = st.text(alphabet="0123456789;-.enaful", max_size=8)


@settings(max_examples=400, deadline=None)
@given(text=_TEXT)
def test_read_rows_are_csv_readers_rows(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("rows") / "table.csv"
    path.write_bytes(text.encode())
    with open(path, newline="") as fh:
        expected = list(csv.reader(fh))
    assert list(_read_rows(path)) == expected


# csv.writer quotes a row of one empty cell, and no file the library writes has one column
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_CELL, min_size=2, max_size=5), max_size=6))
def test_write_rows_writes_csv_writers_bytes(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rows") / "table.csv"
    _write_rows(path, rows)
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(rows)
    assert path.read_bytes() == expected.getvalue().encode()
    assert list(_read_rows(path)) == rows


@pytest.mark.parametrize("text", ['"0",1\r\n', '0,1\r\n2,"3"\r\n', '0,1"\r\n', '""\r\n'])
def test_read_rows_rejects_a_quote(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match="quoted"):
        list(_read_rows(path))


def test_write_observations_bytes(tmp_path):
    path = tmp_path / "observations.csv"
    write_observations(
        path,
        [Observation(n=5, omega=[0, 3], values=[0.5, -1.0 / 3.0]), Observation(n=7, omega=[], values=[])],
    )
    assert path.read_bytes() == b"0,5,1;4,0.5;-0.3333333333333333\r\n1,7,,\r\n"


def test_write_trajectory_csv_bytes(tmp_path):
    path = tmp_path / "traj.csv"
    result = TrialResult(
        epsilons=np.array([1.0, 0.25, 1e-20]),
        gate_passed=np.array([True, False]),
        taken=np.array([True, False]),
        norm_r=np.array([0.5, 0.0]),
        norm_p=np.array([2.0, 0.0]),
        theta=np.array([0.1, np.nan]),
    )
    write_trajectory_csv(path, result)
    assert path.read_bytes() == (
        b"t,epsilon,gate_passed,taken,norm_r,norm_p,theta\r\n"
        b"0,1.0,,,,,\r\n"
        b"1,0.25,1,1,0.5,2.0,0.1\r\n"
        b"2,1e-20,0,0,0.0,0.0,\r\n"
    )
