"""The writer behind the OBJ and CSV exports: its float text is repr's,
value for value, every export holds the bytes of an independent
row-by-row reference whatever its blocks, and the writer runs in the
calling process."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontal_lab import catalog, cli, forks, structio
from frontal_lab.blaschke import blaschke_field
from frontal_lab.structio import export_field_csv, export_frame_csv, export_obj

# Values whose repr is easy to get wrong: signed zero, infinities, NaN,
# the smallest subnormal and the switches to exponent notation.
SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e-5, 0.1]
FIELD_HEADER = ["u1", "u2", "x", "y", "z", "xi1", "xi2", "xi3"]


pytestmark = pytest.mark.usefixtures("no_child_left")


def blocks(monkeypatch, block=2):
    """Split every export into blocks of `block` rows of the 8-column
    field CSV (8 * block values), which the writer formats one after the
    other."""
    monkeypatch.setattr(structio, "BLOCK_VALUES", 8 * block)


def csv_reference(header, columns):
    """The CSV of `columns`, written row by row."""
    table = np.stack([np.asarray(c, dtype=float).ravel() for c in columns],
                     axis=-1)
    return (",".join(header) + "\n" + "".join(
        ",".join(map(repr, r)) + "\n" for r in table.tolist())).encode()


def obj_reference(x):
    """The OBJ of the n1 x n2 x 3 grid `x`: `v` lines, then `f` lines."""
    n1, n2 = x.shape[:2]
    vertices = "".join("v " + " ".join(map(repr, r)) + "\n"
                       for r in x.reshape(-1, 3).tolist())
    faces = "".join(f"f {a} {a + n2} {a + n2 + 1} {a + 1}\n"
                    for i in range(n1 - 1) for j in range(n2 - 1)
                    for a in [i * n2 + j + 1])
    return (vertices + faces).encode()


def field_grids(n1, n2):
    """u1, u2, x, xi grids of n1 x n2 nodes.  u1 and u2 cycle through
    SPECIAL along their axes, x[..., 0] does along u1 only, x[..., 1] is
    0.0 but for one -0.0, and xi[..., 2] is constant along each u1 row
    but for one -0.0 in the first row, which is 0.0; the other
    components cycle through SPECIAL point by point."""
    u1, u2 = np.meshgrid(np.resize(SPECIAL, n1), np.resize(SPECIAL[3:], n2),
                         indexing="ij")
    values = np.resize(np.array(SPECIAL), 6 * n1 * n2)
    x = values[::2].reshape(n1, n2, 3)
    xi = values[1::2].reshape(n1, n2, 3)
    x[..., 0] = u1
    x[..., 1] = 0.0
    x[n1 // 2, n2 // 2, 1] = -0.0
    xi[..., 2] = np.resize([0.0, 1.5], n1)[:, None]
    xi[0, -1, 2] = -0.0
    return u1, u2, x, xi


def field_reference(u1, u2, x, xi):
    return csv_reference(FIELD_HEADER, [u1, u2, *np.moveaxis(x, -1, 0),
                                        *np.moveaxis(xi, -1, 0)])


# (n1, n2, rows per block); one grid axis is trivially constant on 1xN
# and Nx1 grids, and both are on 1x1
CASES = [(7, 1, 2), (5, 2, 2), (2, 1, 1), (1, 1, 2), (1, 1, 1), (1, 6, 2),
         (1, 6, 4), (6, 1, 2), (4, 5, 2), (4, 5, 3)]


@pytest.mark.parametrize("n1, n2, block", CASES,
                         ids=[f"{n1}x{n2}-blocks-of-{b}" for n1, n2, b in CASES])
def test_field_csv_is_the_reference(n1, n2, block, monkeypatch, tmp_path):
    grids = field_grids(n1, n2)
    blocks(monkeypatch, block)
    export_field_csv(tmp_path / "f.csv", *grids, obj_path=tmp_path / "s.obj")
    export_field_csv(tmp_path / "alone.csv", *grids)
    want = field_reference(*grids)
    assert (tmp_path / "f.csv").read_bytes() == want
    assert (tmp_path / "alone.csv").read_bytes() == want
    assert (tmp_path / "s.obj").read_bytes() == obj_reference(grids[2])


def test_reference_holds_every_special_text():
    want = field_reference(*field_grids(7, 3))
    for text in (b"-0.0", b"-inf", b"nan", b"5e-324", b"1e+16", b"1e-05"):
        assert text in want


@pytest.mark.parametrize("block", [2, 3])
def test_parallel_obj_is_the_serial_obj(block, monkeypatch, tmp_path):
    x = field_grids(4, 3)[2]
    want = obj_reference(x)
    assert want.count(b"\nf ") == 3 * 2
    blocks(monkeypatch, block)
    export_obj(tmp_path / "s.obj", x)
    assert (tmp_path / "s.obj").read_bytes() == want


@pytest.mark.parametrize("block", [1, 2])
def test_frame_csv_is_the_reference(block, monkeypatch, tmp_path):
    u1, u2, x, xi = field_grids(5, 4)
    data = {"b": x[..., 0], "a": xi[..., 2], "c": x[..., 2],
            "d": np.resize(SPECIAL, (5, 4)), "e": np.full((5, 4), np.nan)}
    blocks(monkeypatch, block)
    export_frame_csv(tmp_path / "frame.csv", u1, u2, data)
    assert (tmp_path / "frame.csv").read_bytes() == csv_reference(
        ["u1", "u2", "a", "b", "c", "d", "e"],
        [u1, u2, *(data[c] for c in "abcde")])


@pytest.mark.parametrize("block", [1, 2, 3])
def test_blaschke_pair_is_the_reference(block, monkeypatch, tmp_path):
    shape = (9, 7)
    blocks(monkeypatch, block)
    assert cli.main(["blaschke", "--entry", "ex-5.10", "--grid", "9x7",
                     "--out", str(tmp_path)]) == 0
    f = catalog.get_entry("ex-5.10", {}).build()
    bf = blaschke_field(f, shape)
    x = f.x(bf.u1, bf.u2, 0).values_on(shape)
    assert (tmp_path / "surface.obj").read_bytes() == obj_reference(x)
    assert (tmp_path / "field.csv").read_bytes() == field_reference(
        bf.u1, bf.u2, x, bf.xi)


def recorded(monkeypatch):
    """Record the values of every call of the column formatter."""
    calls, real = [], structio._format

    def record(values):
        calls.append(values.tolist())
        return real(values)

    monkeypatch.setattr(structio, "_format", record)
    return calls


def test_blaschke_formats_x_once_and_axes_per_value(monkeypatch, tmp_path):
    # ex-5.10 has x = u1; one call formats the axis columns, and one
    # block's call every other column of both files
    calls = recorded(monkeypatch)
    assert cli.main(["blaschke", "--entry", "ex-5.10", "--grid", "9x7",
                     "--out", str(tmp_path)]) == 0
    u1, u2 = np.linspace(-1, 1, 9).tolist(), np.linspace(-1, 1, 7).tolist()
    assert calls[0] == u1 + u2 + u1
    # then y, z, xi1, xi2, xi3 point by point, once for both files
    assert [len(c) for c in calls[1:]] == [5 * 63]


# id -> export, each with and without axis-constant columns: the 33x33
# OBJ of the quadrature workload, a 200x150 grid whose columns are each
# constant along one axis, and a 128x128 OBJ, above forks.PARALLEL_WORK
EXPORTS = {"small": (33, 33, False), "axis-constant": (200, 150, True),
           "large": (128, 128, False)}


@pytest.mark.parametrize("n1, n2, flat", EXPORTS.values(), ids=EXPORTS)
def test_exports_write_in_the_calling_process(n1, n2, flat, monkeypatch,
                                              tmp_path):
    def fork():
        raise AssertionError("forked for an export")

    monkeypatch.setattr(forks, "usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    if flat:
        u1, u2 = np.meshgrid(np.arange(float(n1)), np.arange(float(n2)),
                             indexing="ij")
        x = np.stack([u1, u2, np.zeros_like(u1)], axis=-1)
    else:
        x = np.random.default_rng(n1).normal(size=(n1, n2, 3))
    export_obj(tmp_path / "s.obj", x)
    assert (tmp_path / "s.obj").read_bytes() == obj_reference(x)


def test_a_formatting_fault_raises_from_the_writer(monkeypatch, tmp_path):
    calls, real = [], structio._format

    def fault(values):
        calls.append(len(values))
        if len(calls) == 2:
            raise RuntimeError("a fault in the second call")
        return real(values)

    grids = field_grids(7, 1)
    blocks(monkeypatch)
    monkeypatch.setattr(structio, "_format", fault)
    with pytest.raises(RuntimeError, match="a fault in the second call"):
        export_field_csv(tmp_path / "f.csv", *grids,
                         obj_path=tmp_path / "s.obj")
    assert len(calls) == 2


def texts(values):
    """The strings _format writes for `values`, NUL bytes dropped."""
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in structio._format(np.asarray(values, dtype=float))]


def bit_patterns(*bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# The edge list: signed zeros and infinities, NaNs with the sign bit and
# with payloads, the smallest and largest subnormals, the smallest
# normal, 2^53 and its neighbours, the switches to exponent notation,
# 1e22 (the last power of ten a float holds exactly) and the largest
# float; every power of two and its neighbours, where the spacing below
# is half the spacing above, come on top.
EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.225073858507201e-308,
     2.2250738585072014e-308, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
     1e-4, 1e-5, 9999999999999998.0, 1e16, 1e22, 1.7976931348623157e308],
    bit_patterns(0xFFF8000000000000, 0x7FF0000000000001,
                 0xFFF0000000000123, 0x7FF8DEADBEEF0000,
                 0x0000000000000001, 0x000FFFFFFFFFFFFF),
    -np.ldexp(1.0, np.arange(-1074, 1024)),
    np.nextafter(np.ldexp(1.0, np.arange(-1074, 1024)), np.inf),
    np.nextafter(np.ldexp(1.0, np.arange(-1073, 1024)), 0.0)])


def test_format_is_repr_on_the_edges():
    assert texts(EDGES) == list(map(repr, EDGES.tolist()))


def test_format_is_repr_on_random_bit_patterns():
    # every float64 has the same chance: NaNs and infinities 1 in 2048,
    # subnormals 1 in 2048, the exponent notation nearly always
    values = np.random.default_rng(30).integers(
        0, 1 << 64, size=200_000, dtype=np.uint64).view(np.float64)
    assert texts(values) == list(map(repr, values.tolist()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                min_size=1, max_size=64))
def test_format_is_repr_on_any_floats(values):
    assert texts(values) == list(map(repr, values))


def test_integers_are_str():
    values = [0, 1, 9, 10, 99, 100, 12345, 10 ** 12 - 1, 10 ** 12]
    assert [row.tobytes().replace(b"\0", b"").decode()
            for row in structio._integers(np.array(values))] == list(
                map(str, values))


# tracemalloc peak of the row-wise writer (a whole-table float copy, then
# one row list and one text per row) on the table below, serial, numpy
# 2.4 and CPython 3.11: 25.2 MB.  The block writer holds one block of
# text matrices and integer temporaries at a time and peaks near 3.6 MB;
# the bound is the row-wise writer's peak, which whole columns of text
# would exceed.
ROW_WRITER_PEAK = 25.2e6


def test_frame_csv_peak_memory(tmp_path, one_core):
    n = 201
    u1, u2 = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n),
                         indexing="ij")
    rng = np.random.default_rng(0)
    data = {f"c{k:02d}": rng.normal(size=(n, n)) for k in range(11)}
    data["lam_det"] = u2 ** 3
    tracemalloc.start()
    try:
        export_frame_csv(tmp_path / "frame.csv", u1, u2, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ROW_WRITER_PEAK
