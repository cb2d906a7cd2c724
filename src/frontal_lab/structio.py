"""File formats: structure files, frontal files, OBJ/CSV exports, reports.

Structure file (JSON, schema_version 1):

    {
      "schema_version": 1,
      "domain": [a1, b1, a2, b2],
      "basepoint": [q1, q2],
      "W0": [[..], [..], [..]],          # columns are the frame vectors
      "p": [x, y, z],
      "entries": {
        "Lambda":  {"expr": ["1", "0", "0", "2*u2"]},
        "I_Omega": {"grid": {"nx": 21, "ny": 21, "values": [[...], x4]}},
        ... h, D1, D2, S, phi ...
      }
    }

Matrix entries carry 4 expression strings (row-major) or 4 flattened
grids (row-major over u1-major sample points); phi carries 1.  Frontal
files describe a parametrization directly: {name, domain, x: [3 exprs],
omega: [[3 exprs], [3 exprs]], lambda: [4 exprs] optional, open_domain}.

Reports are JSON with sorted keys and no wall-clock content, so byte
identity of reruns is part of the contract.

OBJ and CSV exports go through one writer, `_write_tables`, which
writes each value as repr of a Python float, formatted column by column
over the grid in blocks of rows that hold at most BLOCK_VALUES values
(rows times columns), so no whole column of strings is held, and a wide
table holds no more strings at a time than a narrow one.  A column
whose float64 bits (0.0 and -0.0 apart) do not change along one grid
axis, such as u1 and u2 of every CSV or the lam_det of ex-5.8, is
formatted once per value of the other axis and its strings repeated;
every other column is formatted once, block by block, from the block's
values alone (a strided view such as an entry of I is never copied
whole), and each row is the separator joined over its column strings.
`blaschke --out` writes surface.obj and field.csv in one pass
(`export_field_csv` with `obj_path`), formatting x once for both.

The blocks run through forks.fork_map, whose rules decide where each
block is formatted; its unit of work is a value formatted (not a cell,
so an axis-constant column counts once per value of the other axis).
Forked children claim blocks as they get free, and the parent formats a
block only while the one it writes next is not yet back.  A forked
child runs no numpy call but slicing and `tolist` and prints nothing,
and the parent writes every block's texts to the files in block order,
so the files hold the same bytes wherever a block ran.
"""

from __future__ import annotations

import contextlib
import json
import math
from itertools import chain, cycle, islice, repeat
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Config
from .errors import InputError
from .forks import fork_map
from .frame import Frontal, frontal_from_expressions
from .reconstruct import (GridField, StructureData, expr_entry, split_blocks,
                          stack_blocks)

SCHEMA_VERSION = 1

_MATRIX_ENTRIES = ("Lambda", "I_Omega", "h", "D1", "D2", "S")


def read_domain(values, what="domain", number=float):
    """(a1, b1, a2, b2) from four finite numbers with a1 < b1 and
    a2 < b2; raises InputError naming `what` otherwise.  `number` reads
    one value: float for the fields of the --domain text, _json_number
    for a file's domain."""
    try:
        domain = tuple(number(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        domain = ()
    if len(domain) != 4:
        raise InputError(f"{what}: expected four numbers a1,b1,a2,b2, got "
                         f"{values!r}")
    if not np.all(np.isfinite(domain)):
        raise InputError(f"{what}: values must be finite")
    a1, b1, a2, b2 = domain
    if not (a1 < b1 and a2 < b2):
        raise InputError(f"{what}: needs a1 < b1 and a2 < b2, got "
                         f"{list(domain)}")
    return domain


def _json_number(value):
    """float(value) for a JSON number; TypeError for anything else, the
    strings and booleans float() would read included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


def _read_object(path, kind):
    """The JSON object a file holds; InputError for any other JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:     # not JSON, or not UTF-8
            raise InputError(str(err)) from None
    if not isinstance(doc, dict):
        raise InputError(f"a {kind} file holds a JSON object, not a "
                         f"{type(doc).__name__}")
    return doc


def _expressions(what, sources, count):
    """`sources` as a list of `count` expression strings (one string
    stands for a list of one); raises InputError naming `what`
    otherwise."""
    if count == 1 and isinstance(sources, str):
        sources = [sources]
    if not (isinstance(sources, list) and len(sources) == count
            and all(isinstance(s, str) for s in sources)):
        raise InputError(f"{what}: expected a list of {count} expression "
                         f"strings, got {sources!r}")
    return sources


# The numeric header of a structure file: key -> (shape, what it holds).
_HEADER = {"basepoint": ((2,), "two numbers q1, q2"),
           "W0": ((3, 3), "a 3x3 matrix, columns the frame vectors"),
           "p": ((3,), "three numbers x, y, z")}


def _header_values(doc, key):
    """The float array under the header key `key` of a structure file;
    raises InputError naming the key when it is missing, not numbers
    (strings, booleans, null, an integer past float range), of another
    shape or not finite."""
    if key not in doc:
        raise InputError(f"structure file missing {key!r}")
    shape, what = _HEADER[key]
    cells = np.asarray(doc[key], dtype=object)
    try:
        values = np.array([_json_number(v) for v in cells.flat])
    except (TypeError, OverflowError):
        values = None
    if values is None or cells.shape != shape:
        raise InputError(f"{key} must be {what}, got {doc[key]!r}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{key}: values must be finite")
    return values.reshape(shape)


def read_structure_file(path) -> StructureData:
    doc = _read_object(path, "structure")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported structure schema "
                         f"{doc.get('schema_version')!r}")
    try:
        domain = read_domain(doc["domain"], number=_json_number)
        entries = doc["entries"]
    except KeyError as missing:
        raise InputError(f"structure file missing {missing}")
    basepoint, W0, p = (_header_values(doc, key) for key in _HEADER)
    a1, b1, a2, b2 = domain
    if not (a1 <= basepoint[0] <= b1 and a2 <= basepoint[1] <= b2):
        raise InputError(f"basepoint {basepoint.tolist()} lies outside the "
                         f"domain {list(domain)}")
    if not isinstance(entries, dict):
        raise InputError("entries: expected an object of named entries")

    fields = {}
    for name in (*_MATRIX_ENTRIES, "phi"):
        if name not in entries:
            raise InputError(f"structure file missing entry {name!r}")
        spec = entries[name]
        want = 4 if name in _MATRIX_ENTRIES else 1
        if not isinstance(spec, dict):
            raise InputError(f"{name}: entry must be an object with 'expr' "
                             f"or 'grid', got {spec!r}")
        if "expr" in spec:
            fields[name] = expr_entry(_expressions(name, spec["expr"], want))
        elif "grid" in spec:
            fields[name] = GridField(domain, _grid_values(name, spec["grid"],
                                                          want))
        else:
            raise InputError(f"{name}: entry needs 'expr' or 'grid'")
    return StructureData(
        domain=domain, basepoint=tuple(basepoint.tolist()), W0=W0, p=p,
        lam=fields["Lambda"], i_omega=fields["I_Omega"],
        blocks=stack_blocks(fields["D1"], fields["D2"], fields["h"],
                            fields["S"]),
        phi=fields["phi"], pointwise=True)


def check_spline_grid(what, nx, ny):
    """Raise InputError naming `what` unless an nx x ny grid holds the
    GridField.MIN_SAMPLES samples per axis a bicubic spline needs."""
    n = GridField.MIN_SAMPLES
    if nx < n or ny < n:
        raise InputError(f"{what}: grid of {nx}x{ny} samples is below the "
                         f"{n}x{n} a bicubic spline needs")


def _grid_values(name, grid, want):
    """(want, nx, ny) values of a grid entry, or (nx, ny) when want is 1;
    raises InputError naming the entry unless the grid is large enough
    for a bicubic spline and its values are all finite."""
    try:
        nx, ny = int(grid["nx"]), int(grid["ny"])
        values = np.asarray(grid["values"], dtype=float)
    except KeyError as missing:
        raise InputError(f"{name}: grid entry missing {missing}")
    except (TypeError, ValueError, OverflowError) as err:
        raise InputError(f"{name}: unreadable grid entry ({err})")
    check_spline_grid(name, nx, ny)
    if values.size != want * nx * ny:
        raise InputError(f"{name}: expected {want}x{nx}x{ny} grid values, "
                         f"got {values.size}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{name}: grid values must be finite")
    return values.reshape((want, nx, ny) if want == 4 else (nx, ny))


def structure_to_grids(sd: StructureData, shape=(33, 33)):
    """Sample every entry of a StructureData to plain grids."""
    a1, b1, a2, b2 = sd.domain
    u1, u2 = np.meshgrid(np.linspace(a1, b1, shape[0]),
                         np.linspace(a2, b2, shape[1]), indexing="ij")
    flat1, flat2 = u1.ravel(), u2.ravel()
    d1, d2, h, s = split_blocks(*sd.blocks(flat1, flat2, 0))
    matrices = {"Lambda": sd.lam(flat1, flat2, 0),
                "I_Omega": sd.i_omega(flat1, flat2, 0),
                "h": h, "D1": d1, "D2": d2, "S": s}
    out = {name: np.stack([c.value_on(flat1.shape).reshape(shape)
                           for row in m for c in row])
           for name, m in matrices.items()}
    out["phi"] = sd.phi(flat1, flat2, 0).value_on(flat1.shape).reshape(shape)
    return out


def write_structure_file(path, sd: StructureData, shape=(33, 33)):
    """Serialize a StructureData with every entry sampled on a grid."""
    entries = {name: {"grid": {
        "nx": int(shape[0]), "ny": int(shape[1]),
        "values": (values.reshape(4, -1).tolist()
                   if name != "phi" else values.ravel().tolist()),
    }} for name, values in structure_to_grids(sd, shape).items()}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "domain": [float(v) for v in sd.domain],
        "basepoint": [float(v) for v in sd.basepoint],
        "W0": np.asarray(sd.W0, dtype=float).tolist(),
        "p": np.asarray(sd.p, dtype=float).tolist(),
        "entries": entries,
    }
    write_report(path, doc)


def read_frontal_file(path, config: Config = DEFAULT) -> Frontal:
    doc = _read_object(path, "frontal")
    try:
        name = doc.get("name", "user-frontal")
        domain = read_domain(doc["domain"], number=_json_number)
        x_srcs = _expressions("x", doc["x"], 3)
        omega_srcs = doc["omega"]
    except KeyError as missing:
        raise InputError(f"frontal file missing {missing}")
    if not (isinstance(omega_srcs, list) and len(omega_srcs) == 2):
        raise InputError("omega: expected 2 basis columns")
    open_domain = doc.get("open_domain")
    if not isinstance(open_domain, (bool, type(None))):
        raise InputError(f"open_domain: expected true or false, got "
                         f"{open_domain!r}")

    def optional(key, count):
        srcs = doc.get(key)
        return None if srcs is None else _expressions(key, srcs, count)

    gauss = optional("K", 1)
    return frontal_from_expressions(
        name, x_srcs, [_expressions("omega", c, 3) for c in omega_srcs],
        domain, lam_srcs=optional("lambda", 4),
        gauss_src=gauss[0] if gauss else None,
        blaschke_srcs=optional("xi", 3),
        config=config, open_domain=bool(open_domain))


# --- exports -----------------------------------------------------------------------


# Values per block: the writer holds the strings of at most this many
# values (a block's rows times the table's columns) at a time, so a wide
# table takes fewer rows a block than a narrow one.
BLOCK_VALUES = 1 << 14


class _Table(NamedTuple):
    """One export file: `head`, then per grid point `lead` and the values
    of the shared columns `picks` joined by `sep`, a newline, then
    `tail`."""
    path: object
    head: str
    lead: str
    sep: str
    picks: tuple
    tail: str


def _format(values):
    """The repr of each value of the 1-D float array `values`: the one
    place where an export turns floats into text."""
    return list(map(repr, values.tolist()))


def _column(values, shape):
    """(count, strings) for one column of an n1 x n2 grid in row-major
    order: strings(a, b) lists the text of flat rows a .. b - 1, and
    `count` values are formatted in all.  A column whose float64 bits
    (0.0 and -0.0 apart) do not change along one grid axis is formatted
    here, once per value of the other axis, and its strings repeated;
    any other column is formatted block by block, from the block's
    values alone."""
    n1, n2 = shape
    col = np.asarray(values, dtype=float).reshape(n1, n2)
    bits = col.view(np.int64)
    per_row = n2 > 1 and bool(np.all(bits == bits[:, :1]))   # u1 only
    per_col = n1 > 1 and bool(np.all(bits == bits[:1]))      # u2 only
    if per_row and (n1 <= n2 or not per_col):
        rows = _format(col[:, 0])
        return n1, lambda a, b: list(islice(
            chain.from_iterable(map(repeat, islice(rows, a // n2, None),
                                    repeat(n2))), a % n2, a % n2 + b - a))
    if per_col:
        cols = _format(col[0])
        return n2, lambda a, b: list(
            islice(cycle(cols), a % n2, a % n2 + b - a))
    return col.size, lambda a, b: _format(col.flat[a:b])


def _write_tables(shape, columns, tables):
    """Write each `_Table` of `tables` from `columns`, the arrays of one
    grid of `shape` (n1, n2), each value written as repr of a Python
    float.  The rows are formatted column by column in blocks of at most
    BLOCK_VALUES values, each column once for every table, through
    forks.fork_map with the values formatted as its work."""
    n = math.prod(shape)
    cols = [_column(c, shape) for c in columns]
    rows = max(1, BLOCK_VALUES // len(cols))
    blocks = [(a, min(a + rows, n)) for a in range(0, n, rows)]

    def texts(block):
        """Each table's bytes for the rows of `block`."""
        strings = [text(*block) for _, text in cols]

        def rows(t):
            lines = map(t.sep.join, zip(*(strings[c] for c in t.picks)))
            return (t.lead + ("\n" + t.lead).join(lines) + "\n").encode()

        return [rows(t) for t in tables]

    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(t.path, "wb")) for t in tables]
        results = stack.enter_context(contextlib.closing(fork_map(
            texts, blocks, sum(count for count, _ in cols))))
        for fh, t in zip(files, tables):
            fh.write(t.head.encode())
        for parts in results:
            for fh, part in zip(files, parts):
                fh.write(part)
        for fh, t in zip(files, tables):
            fh.write(t.tail.encode())


def _obj_table(path, shape, picks):
    """Wavefront OBJ of the grid columns `picks`: vertices in row-major
    grid order, quad faces."""
    n1, n2 = shape
    faces = "".join(f"f {a} {a + n2} {a + n2 + 1} {a + 1}\n"
                    for a in (i * n2 + j + 1 for i in range(n1 - 1)
                              for j in range(n2 - 1)))
    return _Table(path, "", "v ", " ", tuple(picks), faces)


def _csv_table(path, header):
    """CSV of every column, one row per grid point, under `header`."""
    return _Table(path, ",".join(header) + "\n", "", ",",
                  tuple(range(len(header))), "")


def _components(grid, shape):
    """The last-axis components of `grid`, each over the grid `shape`."""
    values = np.asarray(grid, dtype=float)
    return list(np.moveaxis(values.reshape(*shape, values.shape[-1]), -1, 0))


def export_obj(path, x_grid):
    """Wavefront OBJ: vertices in row-major grid order, quad faces."""
    shape = np.shape(x_grid)[:2]
    x = _components(x_grid, shape)
    _write_tables(shape, x, [_obj_table(path, shape, range(len(x)))])


def export_field_csv(path, u1, u2, x_grid, xi_grid, obj_path=None):
    """CSV columns u1,u2,x,y,z,xi1,xi2,xi3 in row-major grid order.  With
    `obj_path`, the surface x is written there too, as export_obj writes
    it, from the same formatted values."""
    shape = np.shape(u1)
    tables = [_csv_table(path, ["u1", "u2", "x", "y", "z", "xi1", "xi2",
                                "xi3"])]
    if obj_path is not None:
        tables.append(_obj_table(obj_path, shape, range(2, 5)))
    _write_tables(shape, [u1, u2, *_components(x_grid, shape),
                          *_components(xi_grid, shape)], tables)


def export_frame_csv(path, u1, u2, data):
    """Frame-data table; data maps column name -> grid of values."""
    cols = sorted(data)
    _write_tables(np.shape(u1), [u1, u2, *(data[c] for c in cols)],
                  [_csv_table(path, ["u1", "u2", *cols])])


def write_report(path, payload):
    """Deterministic JSON: sorted keys, no timestamps, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def report_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
