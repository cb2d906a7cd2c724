"""The table writer behind the OBJ and CSV exports: forked slices write
the same bytes as one process, and no child outlives a write."""

import os

import numpy as np
import pytest

from frontal_lab import structio
from frontal_lab.structio import export_field_csv, export_obj

# Values whose repr is easy to get wrong: signed zero, infinities, NaN,
# the smallest subnormal and the switches to exponent notation.
SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e-5, 0.1]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cores(monkeypatch, k):
    """Make every table large enough to split, on k usable cores."""
    monkeypatch.setattr(structio, "PARALLEL_VALUES", 1)
    monkeypatch.setattr(structio, "_usable_cores", lambda: k)


def field_grids(n1, n2):
    """u1, u2, x, xi grids of n1 x n2 nodes, cycling through SPECIAL."""
    u1, u2 = np.meshgrid(np.linspace(-1, 1, n1), np.linspace(0, 1, n2),
                         indexing="ij")
    values = np.resize(np.array(SPECIAL), 6 * n1 * n2)
    return u1, u2, values[::2].reshape(n1, n2, 3), \
        values[1::2].reshape(n1, n2, 3)


def serial_bytes(write, path):
    write(path)
    return path.read_bytes()


@pytest.mark.parametrize("n1, n2, k", [(7, 1, 3), (5, 2, 2), (2, 1, 3)],
                         ids=["7-rows-3-cores", "10-rows-2-cores",
                              "2-rows-3-cores"])
def test_parallel_csv_is_the_serial_csv(n1, n2, k, monkeypatch, tmp_path):
    grids = field_grids(n1, n2)
    want = serial_bytes(lambda p: export_field_csv(p, *grids),
                        tmp_path / "serial.csv")
    for text in (b"-0.0", b"-inf", b"nan", b"5e-324", b"1e+16", b"1e-05"):
        assert text in want
    cores(monkeypatch, k)
    export_field_csv(tmp_path / "parallel.csv", *grids)
    assert (tmp_path / "parallel.csv").read_bytes() == want


@pytest.mark.parametrize("k", [2, 3])
def test_parallel_obj_is_the_serial_obj(k, monkeypatch, tmp_path):
    x = field_grids(4, 3)[2]
    want = serial_bytes(lambda p: export_obj(p, x), tmp_path / "serial.obj")
    assert want.count(b"\nf ") == 3 * 2
    cores(monkeypatch, k)
    export_obj(tmp_path / "parallel.obj", x)
    assert (tmp_path / "parallel.obj").read_bytes() == want


def test_small_tables_do_not_fork(monkeypatch, tmp_path):
    # the 33x33 OBJ of the quadrature workload stays below the threshold
    def fork():
        raise AssertionError("forked for a small table")

    monkeypatch.setattr(structio, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    export_obj(tmp_path / "s.obj", np.zeros((33, 33, 3)))
    assert 33 * 33 * 3 < structio.PARALLEL_VALUES


def _csv_row(r):
    return ",".join(map(repr, r)) + "\n"


TABLE = np.resize(np.array(SPECIAL), (7, 3))


def test_failed_child_slice_is_formatted_by_the_parent(monkeypatch,
                                                       tmp_path):
    parent = os.getpid()

    def row(r):
        if os.getpid() != parent:
            raise RuntimeError("a fault in the child")
        return _csv_row(r)

    want = serial_bytes(lambda p: structio._write_table(
        p, "h\n", TABLE, _csv_row, "t\n"), tmp_path / "serial.csv")
    cores(monkeypatch, 3)
    structio._write_table(tmp_path / "parallel.csv", "h\n", TABLE, row,
                          "t\n")
    assert (tmp_path / "parallel.csv").read_bytes() == want


@pytest.mark.parametrize("fails", ["first", "every"])
def test_failed_fork_slice_is_formatted_by_the_parent(fails, monkeypatch,
                                                      tmp_path):
    real_fork, calls = os.fork, []

    def fork():
        calls.append(1)
        if fails == "every" or len(calls) == 1:
            raise OSError("fork refused")
        return real_fork()

    want = serial_bytes(lambda p: structio._write_table(
        p, "h\n", TABLE, _csv_row, "t\n"), tmp_path / "serial.csv")
    cores(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    structio._write_table(tmp_path / "parallel.csv", "h\n", TABLE, _csv_row,
                          "t\n")
    assert len(calls) == 2
    assert (tmp_path / "parallel.csv").read_bytes() == want
