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

OBJ and CSV exports go through one table writer, `_write_table`: a 2-D
float array and a row formatter that writes each value as repr of a
Python float.  A table of at least PARALLEL_VALUES values, on k >= 2
usable cores (os.sched_getaffinity), is cut into k slices of rows and
formatted through forks.fork_map, the library's one fork discipline:
the parent formats the first slice while k - 1 forked children format
one slice each, running no numpy call but `tolist` and printing
nothing, and the parent copies their bytes into the file in slice
order.  A slice whose fork or pipe fails, or whose child exits non-zero
or sends less than it announced, is formatted by the parent itself, so
such a fault never surfaces as an error; every child is reaped before
the writer returns or raises, and killed first if it raises.  Either
way the file holds the same bytes as the one-process path, which
smaller tables, one core or no os.fork take.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from .config import DEFAULT, Config
from .errors import InputError
from .forks import fork_map, usable_cores as _usable_cores
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
        phi=fields["phi"])


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


# Tables of at least this many values are formatted on every usable core.
PARALLEL_VALUES = 1 << 15


def _write_rows(fh, rows, row):
    """Write row(r) for each row r of the float array `rows` to `fh`."""
    fh.writelines(row(r).encode() for r in rows.tolist())


def _write_table(path, head, table, row, tail=""):
    """Write `head`, then row(r) for each row r of the 2-D float array
    `table` (r as a list of Python floats), then `tail`, to `path`.  The
    rows are cut into one slice per usable core when the table holds at
    least PARALLEL_VALUES values; the module docstring gives the rules."""
    n = len(table)
    k = min(_usable_cores(), n) if table.size >= PARALLEL_VALUES else 1
    cuts = [n * i // k for i in range(k + 1)]
    slices = [table[a:b] for a, b in zip(cuts, cuts[1:])]

    def text(rows):
        return "".join(map(row, rows.tolist())).encode()

    with open(path, "wb") as fh, \
            contextlib.closing(fork_map(text, slices, k)) as formatted:
        fh.write(head.encode())
        for rows, data in zip(slices, formatted):
            if data is None:
                _write_rows(fh, rows, row)
            else:
                fh.write(data)
        fh.write(tail.encode())


def export_obj(path, x_grid):
    """Wavefront OBJ: vertices in row-major grid order, quad faces."""
    x = np.asarray(x_grid, dtype=float)
    n1, n2 = x.shape[:2]
    faces = "".join(f"f {a} {a + n2} {a + n2 + 1} {a + 1}\n"
                    for a in (i * n2 + j + 1 for i in range(n1 - 1)
                              for j in range(n2 - 1)))
    _write_table(path, "", x.reshape(n1 * n2, x.shape[2]),
                 lambda row: "v " + " ".join(map(repr, row)) + "\n", faces)


def _write_csv(path, header, columns):
    """CSV with one row per grid point (row-major) and one column per
    array in `columns`, each value written as repr of a Python float."""
    table = np.stack([np.asarray(c, dtype=float).ravel() for c in columns],
                     axis=-1)
    _write_table(path, ",".join(header) + "\n", table,
                 lambda row: ",".join(map(repr, row)) + "\n")


def export_field_csv(path, u1, u2, x_grid, xi_grid):
    """CSV columns u1,u2,x,y,z,xi1,xi2,xi3 in row-major grid order."""
    n = np.size(u1)
    x = np.asarray(x_grid, dtype=float).reshape(n, 3)
    xi = np.asarray(xi_grid, dtype=float).reshape(n, 3)
    _write_csv(path, ["u1", "u2", "x", "y", "z", "xi1", "xi2", "xi3"],
               [u1, u2, *x.T, *xi.T])


def export_frame_csv(path, u1, u2, data):
    """Frame-data table; data maps column name -> grid of values."""
    cols = sorted(data)
    _write_csv(path, ["u1", "u2", *cols], [u1, u2, *(data[c] for c in cols)])


def write_report(path, payload):
    """Deterministic JSON: sorted keys, no timestamps, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def report_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
