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
"""

from __future__ import annotations

import json

import numpy as np

from .config import DEFAULT, Config
from .errors import InputError
from .frame import Frontal, frontal_from_expressions
from .reconstruct import GridField, StructureData, expr_entry, stack_blocks

SCHEMA_VERSION = 1

_MATRIX_ENTRIES = ("Lambda", "I_Omega", "h", "D1", "D2", "S")


def read_structure_file(path) -> StructureData:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported structure schema "
                         f"{doc.get('schema_version')!r}")
    try:
        domain = tuple(float(v) for v in doc["domain"])
        basepoint = tuple(float(v) for v in doc["basepoint"])
        W0 = np.asarray(doc["W0"], dtype=float)
        p = np.asarray(doc["p"], dtype=float)
        entries = doc["entries"]
    except KeyError as missing:
        raise InputError(f"structure file missing {missing}")
    if W0.shape != (3, 3) or p.shape != (3,):
        raise InputError("W0 must be 3x3 and p a 3-vector")

    fields = {}
    for name in (*_MATRIX_ENTRIES, "phi"):
        if name not in entries:
            raise InputError(f"structure file missing entry {name!r}")
        spec = entries[name]
        want = 4 if name in _MATRIX_ENTRIES else 1
        if "expr" in spec:
            sources = spec["expr"]
            if len(sources) != want:
                raise InputError(f"{name}: expected {want} expressions")
            fields[name] = expr_entry(sources)
        elif "grid" in spec:
            fields[name] = GridField(domain, _grid_values(name, spec["grid"],
                                                          want))
        else:
            raise InputError(f"{name}: entry needs 'expr' or 'grid'")
    return StructureData(
        domain=domain, basepoint=basepoint, W0=W0, p=p,
        lam=fields["Lambda"], i_omega=fields["I_Omega"],
        blocks=stack_blocks(fields["D1"], fields["D2"], fields["h"],
                            fields["S"]),
        phi=fields["phi"], meta={"path": str(path)})


def _grid_values(name, grid, want):
    """(want, nx, ny) values of a grid entry, or (nx, ny) when want is 1;
    raises InputError naming the entry unless the grid holds at least the
    4 x 4 samples a bicubic spline needs, all finite."""
    try:
        nx, ny = int(grid["nx"]), int(grid["ny"])
        values = np.asarray(grid["values"], dtype=float)
    except KeyError as missing:
        raise InputError(f"{name}: grid entry missing {missing}")
    except (TypeError, ValueError) as err:
        raise InputError(f"{name}: unreadable grid entry ({err})")
    if nx < 4 or ny < 4:
        raise InputError(f"{name}: grid of {nx}x{ny} samples is below the "
                         f"4x4 a bicubic spline needs")
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
    d1, d2, h, s = sd.blocks(flat1, flat2, 0)
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
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        name = doc.get("name", "user-frontal")
        domain = tuple(float(v) for v in doc["domain"])
        x_srcs = doc["x"]
        omega_srcs = doc["omega"]
    except KeyError as missing:
        raise InputError(f"frontal file missing {missing}")
    if len(x_srcs) != 3 or len(omega_srcs) != 2:
        raise InputError("frontal file needs 3 x-components and 2 basis "
                         "columns")
    return frontal_from_expressions(
        name, x_srcs, (omega_srcs[0], omega_srcs[1]), domain,
        lam_srcs=doc.get("lambda"), gauss_src=doc.get("K"),
        blaschke_srcs=doc.get("xi"), source="user", config=config,
        open_domain=bool(doc.get("open_domain", False)))


# --- exports -----------------------------------------------------------------------


def export_obj(path, x_grid):
    """Wavefront OBJ: vertices in row-major grid order, quad faces."""
    x = np.asarray(x_grid, dtype=float)
    n1, n2 = x.shape[:2]
    lines = []
    for i in range(n1):
        for j in range(n2):
            lines.append("v " + " ".join(repr(float(c)) for c in x[i, j]))
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            a = i * n2 + j + 1
            b = (i + 1) * n2 + j + 1
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path, header, columns):
    """CSV with one row per grid point (row-major) and one column per
    array in `columns`, each value written as repr of a Python float."""
    table = np.stack([np.asarray(c, dtype=float).ravel() for c in columns],
                     axis=-1).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in table)


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
