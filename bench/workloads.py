"""Seeded job lists of the benchmark workloads and the checks on their outputs.

Seed 0 gives the reference jobs.  Other seeds draw from closed families
that keep each workload's work class and a known answer:

- square grids of odd size within +-2 of the reference size, so the
  singular lines u2 = 0 and u2 = +-u1 stay on grid nodes and the probe
  counts keep their class (the narrow range keeps seed-to-seed work
  within the metrics' bounds);
- k in [0.5, 1.5] in the closed pair a = u1 + k*u1*u2^2/2,
  b = u2 + k*u1^2*u2/2, whose surface has
  x3 = u1^2/2 + 3k*u1^2*u2^2/4 + u2^2/2;
- the coefficient c in [0.5, 1.5] of the gen-extendable-nc potential
  h = c*u1*u2;
- a scale c in [0.8, 1.2] of the constant vertical field (0, 0, c) on
  ex-5.10.  A tilted constant field makes the structure data rational,
  its 33x33 spline fails the compatibility gate on the file-backed path
  (exit 4), so tilts are recorded as a known defect instead of timed.

Jobs whose report the checks read carry --json or --out; the flags change
how a report is emitted, not what is computed.  Generated values go in
as --key=value, which argparse accepts even for a value starting with
'-' (it takes '--domain -0.8,...' for an option).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

CAP_DIGITS = 6.0


@dataclass
class Check:
    name: str
    ok: bool
    err: float | None = None      # numeric checks: error against tol
    tol: float | None = None

    def digits(self):
        """log10(tol/err), capped so roundoff-level changes do not register."""
        if self.err is None:
            return None
        if self.err <= 0.0:
            return CAP_DIGITS
        return min(CAP_DIGITS, math.log10(self.tol / self.err))


@dataclass
class JobOutput:
    rc: object
    stdout: str
    stderr: str
    out_dir: str


@dataclass
class Job:
    kind: str       # metric group, e.g. "analyze", "reconstruct_file"
    argv: list      # CLI arguments; "{out}" is the pass's output dir
    check: object   # JobOutput -> list[Check]

    def args(self, out_dir):
        return [a.replace("{out}", out_dir) for a in self.argv]


def within(name, err, tol):
    err = float(err)
    return Check(name, bool(err <= tol), err, tol)


def equal(name, got, want):
    return Check(f"{name} == {want!r}", got == want)


def _exit_ok(out):
    return [equal("exit code", out.rc, 0)]


def _guarded(check):
    """Run a check; a missing file or field fails it instead of the run."""
    def run(out):
        checks = _exit_ok(out)
        if out.rc != 0:
            return checks
        try:
            return checks + check(out)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as err:
            return checks + [Check(f"output readable ({err!r})", False)]
    return run


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _obj_vertices(path):
    import numpy as np
    with open(path, encoding="utf-8") as fh:
        rows = [line.split()[1:] for line in fh if line.startswith("v ")]
    return np.asarray(rows, dtype=float)


def _grid(rng, n, seed):
    return n if seed == 0 else n + 2 * rng.randint(-1, 1)


def _coef(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


# --- closed-form ------------------------------------------------------


def _blaschke_checks(report):
    return [within("known_answer.max_abs_error",
                   report["known_answer"]["max_abs_error"], 1e-6),
            within("verify.max_tau", report["verify"]["max_tau"], 1e-6),
            within("verify.volume_residual",
                   report["verify"]["volume_residual"], 1e-6)]


def closed_form(seed):
    rng = random.Random(seed)
    n_an = _grid(rng, 201, seed)
    n_10 = _grid(rng, 101, seed)
    n_9 = _grid(rng, 101, seed)

    def analyze(out):
        rep = _read_json(os.path.join(out.out_dir, "analyze.json"))
        # ex-5.8 is singular along u2 = 0, a grid row for odd sizes: the
        # cover is the two cell rows touching it.
        return [equal("wavefront.verdict", rep["wavefront"]["verdict"], False),
                equal("nonparabolic.verdict", rep["nonparabolic"]["verdict"],
                      False),
                equal("singular.n_cells", rep["singular"]["n_cells"],
                      2 * (n_an - 1)),
                equal("singular.regular_dense",
                      rep["singular"]["regular_dense"], True)]

    def check_passed(out):
        return [equal("no failed property", "[FAIL" in out.stdout, False)]

    return [
        Job("analyze", ["analyze", "--entry", "ex-5.8", "--grid",
                        f"{n_an}x{n_an}", "--out", "{out}"],
            _guarded(analyze)),
        Job("blaschke", ["blaschke", "--entry", "ex-5.10", "--grid",
                         f"{n_10}x{n_10}", "--out", "{out}"],
            _guarded(lambda out: _blaschke_checks(_read_json(
                os.path.join(out.out_dir, "blaschke.json"))))),
        Job("blaschke", ["blaschke", "--entry", "ex-5.9", "--grid",
                         f"{n_9}x{n_9}", "--json"],
            _guarded(lambda out: _blaschke_checks(json.loads(out.stdout)))),
        Job("check", ["check", "--entry", "ex-5.10"], _guarded(check_passed)),
        Job("check", ["check", "--entry", "ex-5.8"], _guarded(check_passed)),
    ]


# --- quadrature -------------------------------------------------------


def _nonparabolic_jets_error(a, b, k, order=3):
    """Max error of the generated surface's jets against the closed form."""
    import numpy as np
    from frontal_lab import catalog, expr
    from frontal_lab.jets import Jet
    f = catalog.get_entry("gen-nonparabolic", {"a": a, "b": b}).build()
    u1, u2 = f.interior_grid((7, 7), margin=0.05)
    got = f.x(u1, u2, order)
    env = {"u1": Jet.variable(u1, 0, order), "u2": Jet.variable(u2, 1, order)}
    want = [expr.eval_jet(expr.parse(src), env) for src in (
        f"u1 + {k}*u1*u2^2/2", f"u2 + {k}*u1^2*u2/2",
        f"u1^2/2 + 3*{k}*u1^2*u2^2/4 + u2^2/2")]
    return max(float(np.max(np.abs(np.asarray(g) - np.asarray(w))))
               for comp in range(3)
               for g, w in zip(got[comp].coeffs, want[comp].coeffs))


def quadrature(seed):
    rng = random.Random(seed)
    if seed == 0:
        h, k = "u1*u2", 1
        a, b = "u1 + u1*u2^2/2", "u2 + u1^2*u2/2"
    else:
        h = f"{_coef(rng, 0.5, 1.5)}*u1*u2"
        k = _coef(rng, 0.5, 1.5)
        a, b = f"u1 + {k}*u1*u2^2/2", f"u2 + {k}*u1^2*u2/2"
    n_obj = _grid(rng, 33, seed)
    n_np = _grid(rng, 101, seed)
    cat_b = "2/5*u2^5 + u2^2"
    jets_error = []

    def catalog_summary(out):
        name = f"gen-extendable-nc[b={cat_b};h={h};l=1;r=u1]"
        return [equal("summary names the entry",
                      out.stdout.startswith(f"{name}: "), True),
                equal("known lambda_det listed",
                      "known lambda_det:" in out.stdout, True)]

    def surface_obj(out):
        import numpy as np
        v = _obj_vertices(os.path.join(out.out_dir, "s.obj"))
        u1, u2 = np.meshgrid(np.linspace(-1.0, 1.0, n_obj),
                             np.linspace(-1.0, 1.0, n_obj), indexing="ij")
        want = np.stack([u1, u2 ** 2, u1 * u2 ** 2], axis=-1).reshape(-1, 3)
        if v.shape != want.shape:
            return [equal("OBJ vertex count", v.shape, want.shape)]
        return [within("OBJ against (u1, u2^2, u1*u2^2)",
                       np.max(np.abs(v - want)), 1e-9)]

    def nonparabolic(out):
        if not jets_error:      # the reference does not depend on the pass
            jets_error.append(_nonparabolic_jets_error(a, b, k))
        name = f"gen-nonparabolic[a={a};b={b}]"
        return [equal("verdict line", out.stdout,
                      f"{name}: wavefront=True nonparabolic=True "
                      f"singular-cells=0 regular-dense=True\n"),
                within("order-3 surface jets against the closed form",
                       jets_error[0], 1e-9)]

    return [
        Job("catalog", ["catalog", "gen-extendable-nc", f"--b={cat_b}",
                        f"--h={h}", "--l=1", "--r=u1"],
            _guarded(catalog_summary)),
        Job("export", ["export", "--entry", "gen-extendable-nc", "--b=u2^2",
                       "--what", "surface", "--grid", f"{n_obj}x{n_obj}",
                       "--out", "{out}/s.obj"],
            _guarded(surface_obj)),
        Job("analyze", ["analyze", "--entry", "gen-nonparabolic", f"--a={a}",
                        f"--b={b}", "--grid", f"{n_np}x{n_np}"],
            _guarded(nonparabolic)),
    ]


# --- roundtrip --------------------------------------------------------


def _ex510_surface(u1, u2):
    import numpy as np
    return np.stack([u1, 12 * u1 ** 2 * u2 - 4 * u2 ** 3,
                     u1 ** 4 + 6 * u1 ** 2 * u2 ** 2 - 3 * u2 ** 4], axis=-1)


def _audit_checks(report):
    audit = report["path_audit"]
    return [within("path_audit.frame", audit["frame"], 1e-4),
            within("path_audit.position", audit["position"], 1e-4)]


def roundtrip(seed):
    rng = random.Random(seed)
    if seed == 0:
        field = "0,0,1"
    else:
        field = f"0,0,{_coef(rng, 0.8, 1.2)}"
    n_sd = _grid(rng, 33, seed)
    n_rf = _grid(rng, 21, seed)

    def from_entry(out):
        rep = json.loads(out.stdout)
        return [within("alignment.sup_error", rep["alignment"]["sup_error"],
                       1e-4)] + _audit_checks(rep)

    def structure(out):
        doc = _read_json(os.path.join(out.out_dir, "s.json"))
        return [equal("structure schema_version", doc["schema_version"], 1)]

    def from_file(out):
        import numpy as np
        from frontal_lab.reconstruct import affine_align
        rep = _read_json(os.path.join(out.out_dir, "rf", "reconstruct.json"))
        a1, b1, a2, b2 = _read_json(
            os.path.join(out.out_dir, "s.json"))["domain"]
        u1, u2 = np.meshgrid(np.linspace(a1, b1, n_rf),
                             np.linspace(a2, b2, n_rf), indexing="ij")
        x = _obj_vertices(os.path.join(out.out_dir, "rf",
                                       "reconstructed.obj"))
        _, _, sup = affine_align(x, _ex510_surface(u1, u2).reshape(-1, 3))
        return _audit_checks(rep) + [
            within("file-backed OBJ aligned to ex-5.10", sup, 1e-4)]

    return [
        Job("reconstruct", ["reconstruct", "--entry", "ex-5.9", "--json"],
            _guarded(from_entry)),
        Job("export", ["export", "--entry", "ex-5.10", "--what", "structure",
                       f"--field={field}", "--grid", f"{n_sd}x{n_sd}",
                       "--out", "{out}/s.json"],
            _guarded(structure)),
        Job("reconstruct_file", ["reconstruct", "--input", "{out}/s.json",
                                 "--grid", f"{n_rf}x{n_rf}",
                                 "--out", "{out}/rf"],
            _guarded(from_file)),
    ]


WORKLOADS = {
    "closed-form": closed_form,
    "quadrature": quadrature,
    "roundtrip": roundtrip,
}
