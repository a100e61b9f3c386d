"""The line codec of every CSV file, and the exact bytes its writers write.

``csv`` appears here only as the reference the codec is checked against.
"""
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouse import partial_data, results
from grouse.partial_data import Observation, read_observations, write_observations
from grouse.results import TrialResult, _read_rows, _write_rows, read_trajectory_csv, write_trajectory_csv

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


# blocks of 1-7 bytes, so that "\r", "\n" and "\r\n" fall on and across every block end
@settings(max_examples=400, deadline=None)
@given(text=_TEXT, block=st.integers(1, 7))
def test_read_rows_are_csv_readers_rows_at_tiny_blocks(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("rows") / "table.csv"
    path.write_bytes(text.encode())
    with open(path, newline="") as fh:
        expected = list(csv.reader(fh))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(results, "_BLOCK", block)
        assert list(_read_rows(path)) == expected


@pytest.mark.parametrize("text", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_read_rows_ends_no_line_at_other_separators(tmp_path, text):
    # str.splitlines would end a line at each of these; csv.reader does not
    path = tmp_path / "table.csv"
    path.write_bytes(f"0,1{text}2\r\n3,4\r\n".encode())
    assert list(_read_rows(path)) == [["0", f"1{text}2"], ["3", "4"]]


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


@pytest.mark.parametrize("byte", [b"\xc3\xa9", b"\x80", b"\xff", "\u00a0".encode()])
def test_read_rows_rejects_a_byte_past_ascii(tmp_path, byte):
    path = tmp_path / "table.csv"
    path.write_bytes(b"0,1\r\n2," + byte + b"\r\n")
    with pytest.raises(ValueError, match="ASCII"):
        list(_read_rows(path))


def test_trajectory_csv_rejects_a_byte_past_ascii(tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, TrialResult(epsilons=np.array([1.0, 0.5]), gate_passed=np.array([True]),
                                           taken=np.array([True]), norm_r=np.array([0.5]),
                                           norm_p=np.array([2.0]), theta=np.array([0.1])))
    # a fullwidth digit, which int() and float() read as 1
    path.write_bytes(path.read_bytes().replace(b"\r\n1,0.5", "\r\n\uff11,0.5".encode()))
    with pytest.raises(ValueError, match="ASCII"):
        read_trajectory_csv(path)


def test_observation_file_round_trips_across_blocks_and_batches(tmp_path, monkeypatch):
    # 97-byte blocks and 3-row batches: line ends fall at every offset of a
    # block, and empty samples open a batch, sit inside one and close the file
    monkeypatch.setattr(results, "_BLOCK", 97)
    monkeypatch.setattr(partial_data, "_BATCH", 3)
    rng = np.random.default_rng(31)
    sizes = [4, 0, 9, 0, 1, 12, 7, 0, 3, 5, 11, 2, 0]
    obs_list = [
        Observation(n=40, omega=np.sort(rng.choice(40, size=q, replace=False)), values=rng.standard_normal(q))
        for q in sizes
    ]
    path = tmp_path / "observations.csv"
    write_observations(path, obs_list)
    assert path.stat().st_size > 10 * 97
    back = read_observations(path)
    assert [b.n for b in back] == [a.n for a in obs_list]
    for a, b in zip(obs_list, back):
        assert (b.omega.dtype, b.values.dtype) == (a.omega.dtype, a.values.dtype)
        assert b.omega.tobytes() == a.omega.tobytes()
        assert b.values.tobytes() == a.values.tobytes()
    again = tmp_path / "again.csv"
    write_observations(again, back)
    assert again.read_bytes() == path.read_bytes()


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
