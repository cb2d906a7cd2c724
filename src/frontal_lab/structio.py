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

OBJ and CSV exports go through one writer, `_write_tables`, which writes
each value as the repr of a Python float, in blocks of rows that hold at
most BLOCK_VALUES values (rows times columns), so a wide table holds no
more text at a time than a narrow one.  The one place where an export
turns floats into text, `_format`, makes no Python string per value: it
finds repr's digits from each value's bits in numpy integer arrays (the
Schubfach method, see its comments) and lays out repr's exact text in a
uint8 matrix, one row per value, with NUL bytes where a value's text
leaves a place empty.  A column whose float64 bits (0.0 and -0.0 apart)
do not change along one grid axis, such as u1 and u2 of every CSV or the
lam_det of ex-5.8, is formatted once per value of the other axis and its
rows repeated; every block formats its values of all other columns in
one call, from the block's values alone (a strided view such as an entry
of I is never copied whole).  Each block's lines are its text matrices
side by side, with the separators and newlines between them, as one byte
matrix whose NUL bytes are dropped; an OBJ's face indices go the same
way.  `blaschke --out` writes surface.obj and field.csv in one pass
(`export_field_csv` with `obj_path`), formatting x once for both.  The
writer runs in the calling process and forks nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Config
from .errors import InputError
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


# --- float text --------------------------------------------------------------------
#
# repr writes the shortest decimal that reads back as the float, the one
# nearest the float among those, and of two as near the one whose last
# digit is even.  _format finds those digits from each value's bits in
# numpy arrays of 64-bit unsigned integers, by the Schubfach method
# (R. Giulietti, "The Schubfach way to render doubles", 2020), and lays
# out repr's text from them, so an export makes no Python string per
# value.  Every constant that meets a uint64 array is an explicit
# np.uint64: numpy 1.x promotes a uint64 array mixed with a signed
# integer to float64.

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
_EXPONENT = _U64(0x7FF << 52)
_FRACTION = _U64((1 << 52) - 1)
_POW10 = np.array([10 ** p for p in range(18)], dtype=_U64)
# 1-based digit places, down the rows of a (places, values) matrix
_PLACE = np.arange(1, 19, dtype=np.int16)[:, None]
# "0." and three zeros before the digits of 1e-4 <= |x| < 1, each row
# written when the decimal point position is at most its bound
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_LEAD_BELOW = np.array([0, 0, -1, -2, -3], np.int16)[:, None]
# the places of an exponent's three digits
_EXP_PLACE = np.array([100, 10, 1], np.int16)[:, None]


@functools.cache
def _exponent_tables():
    """What Schubfach reads off a float64's biased exponent `field`, per
    index field (and field + 2048 for the irregular spacing below a power
    of two): the decimal exponent k of its candidates (int16); the shift
    h + 2 that scales its significand c to cp = c 2^(h+2); and the 64-bit
    words (high, low) of g = floor(10^-k 2^r) + 1, r the integer that
    puts 10^-k 2^r in [2^125, 2^126) (10^-k to 126 bits, rounded up).
    The 617 values of g, for k = -324 .. 292, are computed here, on first
    use."""
    g = [(10 ** -k << 126 >> (10 ** -k).bit_length()) + 1 if k <= 0
         else (1 << 125 + (10 ** k - 1).bit_length()) // 10 ** k + 1
         for k in range(-324, 293)]
    high = np.array([v >> 64 for v in g], dtype=_U64)
    low = np.array([v & (1 << 64) - 1 for v in g], dtype=_U64)
    index = np.arange(4096)
    q = np.maximum(index % 2048, 1) - 1075
    k = (q * 661971961083 - (index >= 2048) * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2
    tables = (k.astype(np.int16), (h + 2).astype(_U64),
              np.stack([high[k + 324], low[k + 324]]))
    for table in tables:
        table.setflags(write=False)
    return tables


def _mul(a, b):
    """The (high, low) 64-bit words of the 128-bit products a * b of
    uint64 arrays, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U64(32), b & _LOW32, b >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return (a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32))
            + (mid >> _U64(32)), (mid << _U64(32)) | (p00 & _LOW32))


def _shift(g, s):
    """The words (top, high, low) of the 192-bit g << s, for g = (high,
    low) words below 2^126 and shifts 1 <= s <= 63."""
    return (g[0] >> (_U64(64) - s),
            (g[0] << s) | (g[1] >> (_U64(64) - s)), g[1] << s)


def _add(x, y):
    """The words of x + y, for 192-bit numbers as (top, high, low)."""
    low = x[2] + y[2]
    carry = low < y[2]
    high = x[1] + y[1]
    top = x[0] + y[0] + (high < y[1])
    high += carry
    return top + (high < carry), high, low


def _sub(x, y):
    """The words of x - y >= 0, for 192-bit numbers as (top, high,
    low)."""
    borrow = x[2] < y[2]
    top = x[0] - y[0] - (x[1] < y[1])
    high = x[1] - y[1]
    return top - (high < borrow), high - borrow, x[2] - y[2]


def _round_to_odd(f):
    """floor(f / 2^127) with its last bit set when bits 64 .. 126 of f
    are not all zero: Schubfach's rounded product, for f as (top, high,
    low)."""
    return (f[0] << _U64(1)) | (f[1] >> _U64(63)) | ((f[1] & _LOW63) != 0)


def _shortest(bits):
    """(digits, k) for the float64 bit patterns `bits`: each finite,
    nonzero value is digits * 10^k in magnitude, digits being repr's
    digits, maybe followed by zeros (16 or 17 places for a normal
    value).  Zeros, infinities and NaNs give meaningless pairs.  The
    names follow Giulietti's paper: the value is c 2^q, and vb, vbl and
    vbr are 4 10^-k times it and its two rounding bounds, rounded to
    odd."""
    field = ((bits & _EXPONENT) >> _U64(52)).astype(np.intp)
    fraction = bits & _FRACTION
    c = fraction | (field != 0).astype(_U64) << _U64(52)
    # below a power of two the lower bound is a quarter ulp away, not half
    irregular = (fraction == 0) & (field > 1)
    index = field + 2048 * irregular
    k, shift, g = _exponent_tables()
    k, shift, g = k[index], shift[index], g.take(index, axis=1)
    high, low = _mul(g, c << shift)     # g's high and low words times cp
    mid = low[0] + high[1]
    f = (high[0] + (mid < high[1]), mid, low[1])    # g cp in three words
    vb = _round_to_odd(f)
    # the bounds are (c -+ 1/2) 2^q, or c - 1/4 below a power of two
    half = _shift(g, shift - _U64(1))
    vbl = _round_to_odd(_sub(f, _shift(g, shift - _U64(1) - irregular)
                             if irregular.any() else half))
    vbr = _round_to_odd(_add(f, half))
    odd = c & _U64(1)
    s = vb >> _U64(2)
    # the one multiple of 10^(k+1) in the rounding interval, if any:
    # u' = sp10 10^k or w' = (sp10 + 10) 10^k
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl + odd <= sp10 << _U64(2)
    wpin = (sp10 << _U64(2)) + _U64(40) + odd <= vbr
    # else u = s 10^k or w = (s + 1) 10^k, whichever lies in it; when both
    # do, the nearer, and the even one on a tie
    uin = vbl + odd <= s << _U64(2)
    win = (s << _U64(2)) + _U64(4) + odd <= vbr
    middle = (s << _U64(2)) + _U64(2)
    nearer = (vb < middle) | ((vb == middle) & ((s & _U64(1)) == 0))
    digits = s + ((win & ~uin) | ((win == uin) & ~nearer))
    short = upin != wpin
    return digits + short * (sp10 + _U64(10) * wpin - digits), k


def _digit_rows(v, width):
    """The decimal digits of the uint64 values `v` < 10**width, most
    significant first, as the rows of a (width, len(v)) uint8 matrix."""
    chunks = -(-width // 9)          # nine digits to a chunk, in 32 bits
    part = np.empty((chunks, len(v)), np.uint32)
    for c in range(chunks - 1, -1, -1):
        high = v // _U64(10 ** 9)
        part[c] = v - high * _U64(10 ** 9)
        v = high
    digits = np.empty((chunks, 9, part.shape[1]), np.uint8)
    for place in range(8, -1, -1):
        high = part // np.uint32(10)
        digits[:, place] = part - high * np.uint32(10)
        part = high
    return digits.reshape(chunks * 9, -1)[chunks * 9 - width:]


def _format(values):
    """The repr of each value of the 1-D float array `values`, as the
    rows of a (len(values), width) uint8 matrix: row i holds the text of
    values[i] with NUL bytes between and after its characters, which the
    writer drops.  The one place where an export turns floats into text.

    The text is laid out in zones of rows of the transposed matrix, each
    kept only when some value uses it: the minus sign, the "0." and the
    zeros before the digits of 1e-4 <= |x| < 1, the 17 digit places with
    the decimal point among them (18 rows), and the exponent ("e-308");
    a place that a value leaves empty is NUL."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U64)
    nonfinite = (bits & _EXPONENT) == _EXPONENT
    special = nonfinite | ((bits << _U64(1)) == 0)
    digits, k = _shortest(bits)
    # digits to 17 places; the value is 0.d1d2...d17 10^point
    short = digits < _POW10[16]
    scaled = digits * (_U64(1) + _U64(9) * short)
    point = k + 17 - short
    subnormal = ((bits & _EXPONENT) == 0) & ~special
    if subnormal.any():
        count = np.searchsorted(_POW10, digits[subnormal], side="right")
        scaled[subnormal] = digits[subnormal] * _POW10[17 - count]
        point[subnormal] = k[subnormal] + count
    scaled[special] = 0         # a zero, and the stand-in of inf and NaN,
    point[special] = 1          # read "0.0"
    place = _digit_rows(scaled, 17)
    n = np.maximum(((place != 0) * _PLACE[:17]).max(axis=0), 1)
    fixed = (point >= -3) & (point <= 16)      # no exponent
    # places shown: the digits, and in fixed notation the zeros up to the
    # point and one after it; the point comes after place `dot`, or
    # nowhere (18)
    shown = np.maximum(n, (point + 1) * fixed)
    dot = 18 - (fixed & (point >= 1)) * (18 - point) - (~fixed & (n > 1)) * 17
    chars = (place + np.uint8(48)) * (_PLACE[:17] <= shown)
    body = np.zeros((18, len(bits)), np.uint8)
    np.multiply(chars, _PLACE[:17] <= dot, out=body[:17])
    body[1:] += chars * (_PLACE[1:] > dot + 1)
    body += np.uint8(46) * (_PLACE == dot + 1)
    minus = ((bits >> _U64(63)) != 0) & ~(nonfinite
                                          & ((bits & _FRACTION) != 0))
    below = fixed & (point <= 0)
    zones = [np.uint8(45) * minus[None]] if minus.any() else []
    if below.any():     # "0." and up to three zeros
        rows = 2 - int(point[below].min())
        zones.append(_LEAD[:rows] * (below & (point <= _LEAD_BELOW[:rows])))
    start = sum(len(z) for z in zones)
    zones.append(body)
    scientific = ~fixed & ~special
    if scientific.any():        # "e", the exponent's sign, 2 or 3 digits
        e = np.abs(point - 1)
        zone = np.empty((5, len(bits)), np.int16)
        zone[0] = 101
        zone[1] = 43 + 2 * (point < 1)
        zone[2:] = e // _EXP_PLACE
        zone[2:] += 48 - 10 * (zone[2:] // 10)
        zone[2] *= e >= 100
        zones.append((zone * scientific).astype(np.uint8))
    text = np.concatenate(zones) if len(zones) > 1 else body
    if nonfinite.any():
        at = np.flatnonzero(nonfinite)
        nan = (bits[at] & _FRACTION) != 0
        text[start:, at] = 0
        text[start:start + 3, at] = np.where(
            nan, np.frombuffer(b"nan", np.uint8)[:, None],
            np.frombuffer(b"inf", np.uint8)[:, None])
    return text.T


def _integers(v):
    """The decimal text of the non-negative integers `v`, as the rows of
    a (len(v), width) uint8 matrix, NUL before the first digit."""
    v = np.asarray(v).astype(_U64)
    width = len(str(int(v.max())))
    count = np.maximum(np.searchsorted(_POW10, v, side="right"), 1)
    return ((_digit_rows(v, width) + np.uint8(48))
            * (_PLACE[:width] > width - count)).T


def _lines(lead, sep, cells):
    """One line per row of the (rows, width) text matrices `cells`:
    `lead`, the cells' texts joined by `sep`, a newline; the bytes of
    all lines, NUL bytes dropped."""
    pieces = [np.frombuffer(lead.encode(), np.uint8)[None]]
    for cell in cells:
        used = np.flatnonzero(cell.any(axis=0))     # places some text fills
        pieces += [cell[:, used[0]:used[-1] + 1],
                   np.frombuffer(sep.encode(), np.uint8)[None]]
    pieces[-1] = np.frombuffer(b"\n", np.uint8)[None]
    lines = np.empty((len(cells[0]), sum(p.shape[1] for p in pieces)),
                     np.uint8)
    at = 0
    for piece in pieces:
        lines[:, at:at + piece.shape[1]] = piece
        at += piece.shape[1]
    return lines.tobytes().translate(None, b"\0")


# --- exports -----------------------------------------------------------------------


# Values per block: the writer holds the text of at most this many
# values (a block's rows times the table's columns) at a time, so a wide
# table takes fewer rows a block than a narrow one.
BLOCK_VALUES = 1 << 14


class _Table(NamedTuple):
    """One export file: `head`, then per grid point `lead` and the values
    of the shared columns `picks` joined by `sep`, a newline, then the
    byte blocks of `tail`."""
    path: object
    head: str
    lead: str
    sep: str
    picks: tuple
    tail: object


def _axis(col):
    """(values, index) for a column `col` of an n1 x n2 grid whose
    float64 bits (0.0 and -0.0 apart) do not change along one grid axis:
    its values along the other axis, and index(a, b), the position in
    `values` of each of its flat rows a .. b - 1.  None for any other
    column."""
    n1, n2 = col.shape
    bits = col.view(np.int64)
    per_row = n2 > 1 and bool(np.all(bits == bits[:, :1]))   # u1 only
    per_col = n1 > 1 and bool(np.all(bits == bits[:1]))      # u2 only
    if per_row and (n1 <= n2 or not per_col):
        return col[:, 0], lambda a, b: np.arange(a, b) // n2
    if per_col:
        return col[0], lambda a, b: np.arange(a, b) % n2
    return None


def _write_tables(shape, columns, tables):
    """Write each `_Table` of `tables` from `columns`, the arrays of one
    grid of `shape` (n1, n2), each value written as repr of a Python
    float.  The axis-constant columns are formatted first, in one call,
    once per value of the other axis.  Then the rows go in blocks of at
    most BLOCK_VALUES values, and each block formats its values of every
    other column in one call, once for every table, from the block's
    values alone (a strided view such as an entry of I is never copied
    whole)."""
    n = math.prod(shape)
    grids = [np.asarray(c, dtype=float).reshape(shape) for c in columns]
    axes = [_axis(g) for g in grids]
    repeated = [i for i, axis in enumerate(axes) if axis is not None]
    if repeated:
        lengths = [len(axes[i][0]) for i in repeated]
        text = np.ascontiguousarray(_format(np.concatenate(
            [axes[i][0] for i in repeated])))
        for i, rows in zip(repeated,
                           np.split(text, np.cumsum(lengths)[:-1])):
            axes[i] = rows, axes[i][1]
    varying = [g for g, axis in zip(grids, axes) if axis is None]
    step = max(1, BLOCK_VALUES // len(grids))
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(t.path, "wb")) for t in tables]
        for fh, t in zip(files, tables):
            fh.write(t.head.encode())
        for a in range(0, n, step):
            b = min(a + step, n)
            values = np.empty((len(varying), b - a))
            for row, g in zip(values, varying):
                row[:] = g.flat[a:b]
            text = _format(values.ravel())
            text = iter(text.reshape(len(varying), b - a, text.shape[1]))
            cells = [next(text) if axis is None else axis[0][axis[1](a, b)]
                     for axis in axes]
            for fh, t in zip(files, tables):
                fh.write(_lines(t.lead, t.sep, [cells[c] for c in t.picks]))
        for fh, t in zip(files, tables):
            for part in t.tail:
                fh.write(part)


def _faces(shape):
    """The face lines of the OBJ of an n1 x n2 grid, in blocks of at most
    BLOCK_VALUES indices: "f a b c d" per cell in row-major order, its
    vertices' 1-based indices from (i, j) through (i + 1, j), (i + 1,
    j + 1) and (i, j + 1)."""
    n1, n2 = shape
    cells = (n1 - 1) * (n2 - 1)
    step = max(1, BLOCK_VALUES // 4)
    for start in range(0, cells, step):
        f = np.arange(start, min(start + step, cells))
        a = f // (n2 - 1) * n2 + f % (n2 - 1) + 1
        corners = _integers(np.concatenate([a, a + n2, a + n2 + 1, a + 1]))
        yield _lines("f ", " ", corners.reshape(4, len(a), -1))


def _obj_table(path, shape, picks):
    """Wavefront OBJ of the grid columns `picks`: vertices in row-major
    grid order, quad faces."""
    return _Table(path, "", "v ", " ", tuple(picks), _faces(shape))


def _csv_table(path, header):
    """CSV of every column, one row per grid point, under `header`."""
    return _Table(path, ",".join(header) + "\n", "", ",",
                  tuple(range(len(header))), ())


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
