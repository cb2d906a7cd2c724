"""Digest the outputs of a fixed list of frontal-lab commands.

    python3 tools/report_digests.py SRC OUTDIR

Imports frontal_lab from SRC (the `src/` directory of a checkout), runs
each command of the list in-process through `cli.main`, and prints one
line per command: the sha256 of its exit code, stdout, stderr and every
file it wrote, then the exit code and the command.  OUTDIR must be empty
or absent; each command writes under OUTDIR/<group>, and OUTDIR is
replaced with `{out}` in the exit code, stdout and stderr before they
are hashed, so a report that prints a path gives the same line whatever
OUTDIR is.

tools/digests.txt holds the lines of this checkout.  Diff the output
against it, or against the output on another checkout: equal lines mean
byte-identical reports and files.

The list: the seed-0 jobs of the three benchmark workloads (read from
bench/workloads.py next to this file), `check` on every fixed catalog
entry, structure export with the unit-normal, constant and Blaschke
fields, reconstruction with the unit normal, `blaschke` on a frontal
file written by `catalog --save` and on a singular frontal file without
a closed-form curvature, `analyze --out` on a frontal file without
Lambda and on the gen-extendable-nc generator (whose Omega carries one
jet order less), structure export from a frontal file without Lambda
and from the gen-extendable-nc generator (with the unit normal, and
with a constant field, which loses fewer orders than that Omega), and
commands that must fail with a typed error: unknown or unusable
settings, a Blaschke check beyond the surface's jet orders, the ex-5.10
reconstruction with the default field, a `--field` that is not three
numbers, structure export from a file whose Omega does not factor Dx,
reconstruction from structure files whose D1 grid is below the
bicubic 4 x 4 minimum or holds a NaN, and reconstruction from a
structure file whose initial frame W0 holds a NaN.  Then come surface
export and `analyze --out` on gen-extendable-nc with nonzero h and r,
which run every nested integral of that generator.  Last come
reconstruction from flat data whose flatness defect vanishes on every
fourth row of the lattice but not on the others, the 9x9 unit-normal
structure export of the paraboloid and its reconstruction, and typed
failures for malformed files (a top-level JSON list, a structure entry
that is a string, a frontal expression that is a number), for domains
(parameters given to a fixed entry, reversed, empty and non-finite
domains) and for a structure export below the bicubic 4 x 4 minimum.
Then reconstruction from flat data whose basepoint lies between the
lattice nodes (the sweeps start from the basepoint itself) and from flat
data whose basepoint lies outside the domain (an input error), and
`catalog --save` on a generator, whose x is no expression text (an
input error).  Then `analyze --out`, surface export (with the quartic
potential of ex-5.10), `blaschke` and `check` on the gen-rank1-wavefront
generator, and a `--field` given where nothing reads it (an input
error): to `reconstruct --input` and to `export --what surface|field`.
Then reconstruction with a constant field (ex-5.9, and gen-extendable-nc,
whose Omega carries one order less) and with the unit normal (the
gen-rank1-wavefront generator), and the sources the CLI refuses: neither
--entry nor --input, both, and --domain or a generator parameter with
--input.  Last come reconstructions whose sweeps march apart or together
in other ways: gen-rank1-wavefront on a rectangular domain (its axes
take different substep counts), ex-5.9 on a 13x9 lattice, and the
ex-5.10 structure export with its basepoint moved between the nodes
(up and down sweeps of unequal lengths) on a 15x11 and a 1x9 lattice;
and the plane, whose rebuild lies in a plane and has no unique
alignment with the original.  Then gen-extendable-nc with an h that
simplifies to 0 but overflows to NaN off u2 = 0, whose integrals must
run (and fail) rather than be skipped as zero.  Then three typed
failures: a structure file whose basepoint is a JSON object, a frontal
file whose x divides by the constant 0, and gen-extendable-nc with an
h that simplifies to 0 but overflows to NaN only between the points of
a 3x3 grid.  Then gen-extendable-nc with an h whose constant power
overflows (an IEEE inf, so a failed quadrature, not an OverflowError),
and a frontal file whose domain holds strings and a boolean (an input
error).  Last, the 127x127 field export of ex-5.10: its 16,129 rows of
8 values fill seven blocks of the table writer (2,048 rows each) and
part of an eighth, so the blocked CSV path has a digest of its own
besides the benchmark jobs.  Then `blaschke` on a cusp frontal
file whose Gauss curvature has no limit at an edge point (a typed failure
that names the point), and the 9x9 unit-normal reconstruction of
gen-extendable-nc, whose sweeps sample through nested integrals, in
forked children where more than one core is usable.  Last, the integrals
that read one coordinate only, which run once per distinct value of it,
with transcendental profiles: `analyze --out` on gen-extendable-nc with
l = exp(u1) and r = sin(u1), and the 9x9 unit-normal reconstruction of
gen-rank1-wavefront with the potential h = exp(u1)*cos(u2).  Then
exports over degenerate grids, where every column is constant along one
grid axis: `analyze --out` on a 1x5 grid of ex-5.8, `blaschke --out` on
a 1x7 grid of ex-5.10 and the 2x2 field export of the paraboloid.
Last, an RK4 step too small to move a lattice coordinate (an input
error), given as `--step` and as `--set rk4_step`, and a step that moves
the coordinates but needs more substeps between two nodes than a march
may take (an input error, before any array is sized).

A warning is recorded as `Category: message`, without its source
location, which names the checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXED_ENTRIES = ("plane", "paraboloid", "ex-5.8", "ex-5.9", "ex-5.10")

# The paraboloid as a frontal file without "lambda" or "K", written to
# OUTDIR/para-nolam.json ("{nolam}" in argv) before the commands run: its
# reader factors Lambda out of x and Omega, and its Blaschke field has no
# closed-form curvature.
NO_LAMBDA_FRONTAL = {"name": "paraboloid-file",
                     "domain": [-1.0, 1.0, -1.0, 1.0],
                     "x": ["u1", "u2", "(u1^2 + u2^2)/2"],
                     "omega": [["1", "0", "u1"], ["0", "1", "u2"]]}
# The same surface with a horizontal Omega, which does not factor Dx;
# written to OUTDIR/nonfrontal.json ("{nonfrontal}" in argv).
NON_FRONTAL = dict(NO_LAMBDA_FRONTAL, name="not-a-frontal",
                   omega=[["1", "0", "0"], ["0", "1", "0"]])
# ex-5.9 (singular along u2 = 0) as a frontal file with only x and Omega,
# written to OUTDIR/ex59-nok.json ("{nok}" in argv): its Blaschke probes
# run without a closed-form curvature.
SINGULAR_NO_K = {"name": "ex-5.9-file", "domain": [-1.0, 1.0, -1.0, 1.0],
                 "open_domain": True,
                 "x": ["u1", "2/5*u2^5 + u2^2", "u1*u2^2"],
                 "omega": [["1", "0", "u2^2"], ["0", "u2^3 + 1", "u1"]]}


# Flat structure data whose D1 is a grid entry the reader must refuse:
# 3 x 3 samples, below the bicubic minimum, written to OUTDIR/grid3.json
# ("{grid3}" in argv), and 4 x 4 samples with a NaN, written to
# OUTDIR/grid-nan.json ("{gridnan}" in argv).  The same data with a clean
# 4 x 4 D1 grid and a NaN in W0 is written to OUTDIR/w0-nan.json
# ("{w0nan}" in argv).
def _flat_structure(d1):
    zero = {"expr": ["0", "0", "0", "0"]}
    return {"schema_version": 1, "domain": [0.0, 1.0, 0.0, 1.0],
            "basepoint": [0.0, 0.0],
            "W0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "p": [0.0, 0.0, 0.0],
            "entries": {"Lambda": {"expr": ["1", "0", "0", "1"]},
                        "I_Omega": {"expr": ["1", "0", "0", "1"]},
                        "h": zero, "D1": d1, "D2": zero,
                        "S": zero, "phi": {"expr": ["1"]}}}


GRID_3X3 = _flat_structure({"grid": {"nx": 3, "ny": 3,
                                     "values": [[0.0] * 9] * 4}})
GRID_NAN = _flat_structure({"grid": {"nx": 4, "ny": 4,
                                     "values": [[float("nan")] + [0.0] * 15]
                                     + [[0.0] * 16] * 3}})
W0_NAN = dict(_flat_structure({"grid": {"nx": 4, "ny": 4,
                                        "values": [[0.0] * 16] * 4}}),
              W0=[[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
# Flat data with D1_11 = cos(40 pi u1) (-cos(5 pi u2)) / (5 pi): on the
# nodes of a 21x21 lattice the flatness defect is sin(5 pi u2), which is
# 1 on some rows and 0 on every fourth.  Written to OUTDIR/hidden.json
# ("{hidden}" in argv).
_K1, _K2 = 40.0 * math.pi, 5.0 * math.pi
HIDDEN_DEFECT = _flat_structure({"expr": [
    f"cos({_K1!r}*u1)*(-cos({_K2!r}*u2)/{_K2!r})", "0", "0", "0"]})
# Malformed files: a top-level JSON list, read as a frontal and as a
# structure file (OUTDIR/list.json, "{list}"), flat data whose Lambda is
# a string (OUTDIR/entry-string.json, "{entrystr}"), and the paraboloid
# frontal file with a number for an x component (OUTDIR/x-number.json,
# "{xnumber}").
ENTRY_STRING = _flat_structure({"expr": ["0", "0", "0", "0"]})
ENTRY_STRING["entries"]["Lambda"] = "expr"
X_NUMBER = dict(NO_LAMBDA_FRONTAL, x=[1, "u2", "(u1^2 + u2^2)/2"])
# Flat data with the basepoint between the nodes of a 21x21 lattice
# (OUTDIR/basepoint-off-node.json, "{offnode}") and outside the domain
# (OUTDIR/basepoint-outside.json, "{outside}").
BASEPOINT_OFF_NODE = dict(_flat_structure({"expr": ["0", "0", "0", "0"]}),
                          basepoint=[0.52, 0.52])
BASEPOINT_OUTSIDE = dict(_flat_structure({"expr": ["0", "0", "0", "0"]}),
                         basepoint=[5.0, -3.0])
# The ex-5.10 structure export (vertical field, 17x17) with its basepoint
# moved from the corner to an interior point off the lattice nodes,
# written to OUTDIR/interior-basepoint.json ("{interior}" in argv).
INTERIOR_EXPORT = ["export", "--entry", "ex-5.10", "--what", "structure",
                   "--field=0,0,1", "--grid", "17x17"]
INTERIOR_BASEPOINT = [0.13, -0.21]
# Flat data whose basepoint is a JSON object (OUTDIR/basepoint-object.json,
# "{bpobject}"), and the paraboloid frontal file whose x3 divides by the
# constant 0 (OUTDIR/x-div-zero.json, "{divzero}"): input errors both.
BASEPOINT_OBJECT = dict(_flat_structure({"expr": ["0", "0", "0", "0"]}),
                        basepoint={"a": 1})
X_DIV_ZERO = dict(NO_LAMBDA_FRONTAL, x=["u1", "u2", "abs(1/0 + u1)"])
# The paraboloid frontal file whose domain holds strings and a boolean
# (OUTDIR/domain-strings.json, "{strdomain}"): an input error.
DOMAIN_STRINGS = dict(NO_LAMBDA_FRONTAL, domain=["-1", "1", True, "2"])
# A cusp whose extended Gauss curvature has directional limits that
# disagree at (-1, 0), so it has no extendable Blaschke field
# (OUTDIR/cusp2.json, "{cusp2}").
CUSP2 = {"name": "cusp2", "domain": [-1, 1, -1, 1],
         "x": ["u1", "u2^2", "u2^3 + u1^2*u2^2 + u1^2"],
         "omega": [["1", "0", "2*u1*u2^2 + 2*u1"],
                   ["0", "2", "3*u2 + 2*u1^2"]],
         "lambda": ["1", "0", "0", "u2"], "open_domain": False}


def command_list():
    """(group, argv) pairs; "{out}" in argv is the group's output dir."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import WORKLOADS
    cmds = [(name, job.argv) for name in WORKLOADS
            for job in WORKLOADS[name](0)]
    cmds += [(f"check-{entry}", ["check", "--entry", entry])
             for entry in FIXED_ENTRIES
             if ["check", "--entry", entry] not in [c[1] for c in cmds]]
    for field in ("normal", "0,0,1", "blaschke"):
        cmds.append((f"structure-{field}",
                     ["export", "--entry", "ex-5.9", "--what", "structure",
                      f"--field={field}", "--grid", "17x17",
                      "--out", "{out}/s.json"]))
    cmds.append(("reconstruct-normal",
                 ["reconstruct", "--entry", "ex-5.9", "--field", "normal",
                  "--out", "{out}"]))
    cmds.append(("frontal-file",
                 ["catalog", "paraboloid", "--save", "{out}/para.json"]))
    cmds.append(("frontal-file",
                 ["blaschke", "--input", "{out}/para.json", "--grid", "9x9",
                  "--out", "{out}/bl"]))
    cmds.append(("nok-blaschke",
                 ["blaschke", "--input", "{nok}", "--grid", "9x9",
                  "--out", "{out}"]))
    cmds.append(("nolam-analyze",
                 ["analyze", "--input", "{nolam}", "--grid", "9x9",
                  "--out", "{out}"]))
    cmds.append(("nc-analyze",
                 ["analyze", "--entry", "gen-extendable-nc", "--grid", "9x9",
                  "--out", "{out}"]))
    for field in ("normal", "blaschke"):
        cmds.append((f"nolam-structure-{field}",
                     ["export", "--input", "{nolam}",
                      "--what", "structure", f"--field={field}",
                      "--grid", "9x9", "--out", "{out}/s.json"]))
    cmds.append(("nc-structure-normal",
                 ["export", "--entry", "gen-extendable-nc", "--what",
                  "structure", "--field=normal", "--grid", "9x9",
                  "--out", "{out}/s.json"]))
    cmds.append(("nc-structure-0,0,1",
                 ["export", "--entry", "gen-extendable-nc", "--what",
                  "structure", "--field=0,0,1", "--grid", "5x5",
                  "--out", "{out}/s.json"]))
    cmds += [("typed-failure", argv) for argv in (
        ["analyze", "--entry", "ex-5.9", "--grid", "5x5",
         "--set", "jet_order=2"],
        ["analyze", "--entry", "gen-nonparabolic", "--grid", "5x5",
         "--set", "quad_nodes=0"],
        ["blaschke", "--entry", "ex-5.9", "--grid", "5x5",
         "--set", "probe_ratio=1"],
        ["blaschke", "--entry", "gen-extendable-nc",
         "--domain=-0.8,0.8,-0.8,0.8", "--grid", "3x3"],
        ["reconstruct", "--entry", "ex-5.10"],
        ["reconstruct", "--entry", "paraboloid", "--field", "0,1"],
        ["export", "--input", "{nonfrontal}", "--what", "structure",
         "--field=normal", "--grid", "9x9", "--out", "{out}/nf.json"],
        ["reconstruct", "--input", "{grid3}", "--grid", "5x5"],
        ["reconstruct", "--input", "{gridnan}", "--grid", "5x5"],
        ["reconstruct", "--input", "{w0nan}", "--grid", "5x5"],
    )]
    nested = ["--entry", "gen-extendable-nc", "--b=2/5*u2^5 + u2^2",
              "--h=u1*u2", "--l=1", "--r=u1"]
    cmds.append(("nc-nested-surface",
                 ["export", *nested, "--what", "surface", "--grid", "9x9",
                  "--out", "{out}/s.obj"]))
    cmds.append(("nc-nested-analyze",
                 ["analyze", *nested, "--grid", "5x5", "--out", "{out}"]))
    cmds.append(("hidden-defect",
                 ["reconstruct", "--input", "{hidden}", "--grid", "21x21"]))
    cmds.append(("para-structure-normal",
                 ["export", "--entry", "paraboloid", "--what", "structure",
                  "--field=normal", "--grid", "9x9", "--out", "{out}/s.json"]))
    cmds.append(("para-structure-normal",
                 ["reconstruct", "--input", "{out}/s.json", "--out",
                  "{out}/rf"]))
    cmds += [("typed-failure", argv) for argv in (
        ["analyze", "--input", "{list}", "--grid", "5x5"],
        ["reconstruct", "--input", "{list}", "--grid", "5x5"],
        ["reconstruct", "--input", "{entrystr}", "--grid", "5x5"],
        ["analyze", "--input", "{xnumber}", "--grid", "5x5"],
        ["analyze", "--entry", "paraboloid", "--domain=0,1,0,1",
         "--grid", "5x5"],
        ["catalog", "paraboloid", "--h=u1"],
        ["analyze", "--entry", "gen-nonparabolic", "--domain=1,-1,-1,1",
         "--grid", "5x5"],
        ["analyze", "--entry", "gen-nonparabolic", "--domain=0,0,-1,1",
         "--grid", "5x5"],
        ["check", "--entry", "gen-nonparabolic", "--domain=0,0,0,0"],
        ["analyze", "--entry", "gen-nonparabolic", "--domain=nan,1,-1,1",
         "--grid", "5x5"],
        ["export", "--entry", "paraboloid", "--what", "structure",
         "--field=normal", "--grid", "2x2", "--out", "{out}/s22.json"],
    )]
    cmds.append(("basepoint-off-node",
                 ["reconstruct", "--input", "{offnode}", "--grid", "21x21",
                  "--out", "{out}"]))
    cmds += [("typed-failure", argv) for argv in (
        ["reconstruct", "--input", "{outside}", "--grid", "5x5"],
        ["catalog", "gen-nonparabolic", "--save", "{out}/gen.json"],
    )]
    rank1 = ["--entry", "gen-rank1-wavefront"]
    cmds += [
        ("rank1-analyze", ["analyze", *rank1, "--grid", "9x9",
                           "--out", "{out}"]),
        ("rank1-surface", ["export", *rank1, "--h=u1^4 - 6*u1^2*u2^2 + u2^4",
                           "--what", "surface", "--grid", "9x9",
                           "--out", "{out}/s.obj"]),
        ("rank1-blaschke", ["blaschke", *rank1, "--grid", "9x9"]),
        ("rank1-check", ["check", *rank1]),
    ]
    cmds += [("typed-failure", argv) for argv in (
        ["reconstruct", "--input", "{offnode}", "--grid", "5x5",
         "--field", "nonsense"],
        ["export", "--entry", "paraboloid", "--what", "surface",
         "--field", "nonsense", "--grid", "5x5", "--out", "{out}/field.obj"],
        ["export", "--entry", "paraboloid", "--what", "field",
         "--field", "normal", "--grid", "5x5", "--out", "{out}/field.csv"],
    )]
    cmds += [
        ("ex59-reconstruct-0,0,1",
         ["reconstruct", "--entry", "ex-5.9", "--field=0,0,1", "--grid",
          "9x9", "--out", "{out}"]),
        ("nc-reconstruct-0,0,1",
         ["reconstruct", "--entry", "gen-extendable-nc", "--field=0,0,1",
          "--grid", "3x3", "--out", "{out}"]),
        ("rank1-reconstruct-normal",
         ["reconstruct", *rank1, "--field", "normal", "--grid", "5x5",
          "--out", "{out}"]),
    ]
    cmds += [("typed-failure", argv) for argv in (
        ["analyze", "--grid", "5x5"],
        ["analyze", "--entry", "plane", "--input", "{out}/missing.json",
         "--grid", "5x5"],
        ["reconstruct", "--entry", "nonexistent", "--input", "{offnode}",
         "--grid", "5x5"],
        ["analyze", "--input", "{nolam}", "--grid", "5x5",
         "--domain=0,1,0,1", "--h=u1"],
        ["reconstruct", "--input", "{offnode}", "--grid", "5x5", "--c=7"],
    )]
    cmds += [
        ("rank1-rect-reconstruct-normal",
         ["reconstruct", *rank1, "--field", "normal", "--grid", "7x11",
          "--domain=-0.8,0.8,-0.4,0.4", "--out", "{out}"]),
        ("ex59-reconstruct-0,0,1-13x9",
         ["reconstruct", "--entry", "ex-5.9", "--field=0,0,1", "--grid",
          "13x9", "--out", "{out}"]),
        ("interior-basepoint",
         ["reconstruct", "--input", "{interior}", "--grid", "15x11",
          "--out", "{out}/15x11"]),
        ("interior-basepoint",
         ["reconstruct", "--input", "{interior}", "--grid", "1x9",
          "--out", "{out}/1x9"]),
        ("plane-reconstruct-normal",
         ["reconstruct", "--entry", "plane", "--field", "normal", "--grid",
          "5x5"]),
    ]
    cmds.append(("typed-failure",
                 ["catalog", "gen-extendable-nc", "--h=0*(1e300*u2*1e300)"]))
    cmds += [("typed-failure", argv) for argv in (
        ["reconstruct", "--input", "{bpobject}", "--grid", "5x5"],
        ["analyze", "--input", "{divzero}", "--grid", "5x5"],
        ["catalog", "gen-extendable-nc", "--h=0*((u2^3-u2)^2*1e300*1e300)"],
    )]
    cmds += [("typed-failure", argv) for argv in (
        ["catalog", "gen-extendable-nc", "--h=0*(1e300^2)"],
        ["analyze", "--input", "{strdomain}", "--grid", "5x5"],
    )]
    cmds.append(("ex510-field-127",
                 ["export", "--entry", "ex-5.10", "--what", "field", "--grid",
                  "127x127", "--out", "{out}/f.csv"]))
    cmds.append(("typed-failure", ["blaschke", "--input", "{cusp2}"]))
    cmds.append(("nc-reconstruct-normal",
                 ["reconstruct", "--entry", "gen-extendable-nc", "--field",
                  "normal", "--grid", "9x9", "--out", "{out}"]))
    cmds += [
        ("nc-transcendental-analyze",
         ["analyze", "--entry", "gen-extendable-nc", "--l=exp(u1)",
          "--r=sin(u1)", "--grid", "9x9", "--out", "{out}"]),
        ("rank1-transcendental-reconstruct-normal",
         ["reconstruct", *rank1, "--h=exp(u1)*cos(u2)", "--field", "normal",
          "--grid", "9x9", "--out", "{out}"]),
    ]
    cmds += [
        ("ex58-analyze-1x5",
         ["analyze", "--entry", "ex-5.8", "--grid", "1x5", "--out", "{out}"]),
        ("ex510-blaschke-1x7",
         ["blaschke", "--entry", "ex-5.10", "--grid", "1x7",
          "--out", "{out}"]),
        ("para-field-2x2",
         ["export", "--entry", "paraboloid", "--what", "field", "--grid",
          "2x2", "--out", "{out}/f.csv"]),
    ]
    cmds += [("typed-failure", ["reconstruct", "--entry", "paraboloid",
                                "--grid", "3x3", *step])
             for step in (["--step", "1e-300"], ["--set", "rk4_step=1e-300"],
                          ["--step", "1e-15"])]
    return cmds


def _files(root):
    """{relative path: (mtime_ns, sha256)} of every file under root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, root)] = (os.stat(path).st_mtime_ns,
                                                digest)
    return out


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    """A warning as `Category: message`: its source location names the
    checkout, so two checkouts of the same code would print it apart."""
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call; an escaping
    exception is reported by its type and message, not its traceback, and
    a warning by its category and message."""
    out, err = io.StringIO(), io.StringIO()
    shown = warnings.showwarning
    warnings.showwarning = _show_warning
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - the digest records it
            rc = f"raised {type(exc).__name__}: {exc}"
        finally:
            warnings.showwarning = shown
    return rc, out.getvalue(), err.getvalue()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: python3 tools/report_digests.py SRC OUTDIR")
    src, outdir = (os.path.abspath(a) for a in argv)
    if os.path.isdir(outdir) and os.listdir(outdir):
        sys.exit(f"{outdir} is not empty")
    sys.path.insert(0, src)
    from frontal_lab import cli
    os.makedirs(outdir, exist_ok=True)
    files = {}
    for key, name, doc in (("{nolam}", "para-nolam.json", NO_LAMBDA_FRONTAL),
                           ("{nonfrontal}", "nonfrontal.json", NON_FRONTAL),
                           ("{nok}", "ex59-nok.json", SINGULAR_NO_K),
                           ("{grid3}", "grid3.json", GRID_3X3),
                           ("{gridnan}", "grid-nan.json", GRID_NAN),
                           ("{w0nan}", "w0-nan.json", W0_NAN),
                           ("{hidden}", "hidden.json", HIDDEN_DEFECT),
                           ("{list}", "list.json", [1, 2]),
                           ("{entrystr}", "entry-string.json", ENTRY_STRING),
                           ("{xnumber}", "x-number.json", X_NUMBER),
                           ("{offnode}", "basepoint-off-node.json",
                            BASEPOINT_OFF_NODE),
                           ("{outside}", "basepoint-outside.json",
                            BASEPOINT_OUTSIDE),
                           ("{bpobject}", "basepoint-object.json",
                            BASEPOINT_OBJECT),
                           ("{divzero}", "x-div-zero.json", X_DIV_ZERO),
                           ("{strdomain}", "domain-strings.json",
                            DOMAIN_STRINGS),
                           ("{cusp2}", "cusp2.json", CUSP2)):
        files[key] = os.path.join(outdir, name)
        with open(files[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    files["{interior}"] = os.path.join(outdir, "interior-basepoint.json")
    rc, _, stderr = run(cli, INTERIOR_EXPORT + ["--out", files["{interior}"]])
    if rc != 0:
        sys.exit(f"structure export for {{interior}} failed: {rc} {stderr}")
    with open(files["{interior}"], encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(files["{interior}"], "w", encoding="utf-8") as fh:
        json.dump(dict(doc, basepoint=INTERIOR_BASEPOINT), fh)
    for group, template in command_list():
        out = os.path.join(outdir, group)
        os.makedirs(out, exist_ok=True)
        before = _files(outdir)
        argv = [a.replace("{out}", out) for a in template]
        for key, path in files.items():
            argv = [a.replace(key, path) for a in argv]
        rc, stdout, stderr = (v.replace(outdir, "{out}")
                              if isinstance(v, str) else v
                              for v in run(cli, argv))
        after = _files(outdir)
        h = hashlib.sha256(repr(rc).encode())
        for text in (stdout, stderr):
            h.update(hashlib.sha256(text.encode()).digest())
        for path in sorted(p for p in after if after[p] != before.get(p)):
            h.update(path.encode() + after[path][1].encode())
        print(f"{h.hexdigest()}  {rc}  {' '.join(template)}", flush=True)


if __name__ == "__main__":
    main()
