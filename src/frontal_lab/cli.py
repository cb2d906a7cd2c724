"""Command-line front door.

    frontal-lab catalog [NAME-or-GENERATOR] [--json] [generator params]
    frontal-lab analyze     --entry NAME | --input FILE [--grid NxM] [--out DIR]
    frontal-lab blaschke    --entry NAME | --input FILE [--grid NxM] [--out DIR]
    frontal-lab reconstruct --entry NAME | --input structure.json [--out DIR]
    frontal-lab check       --entry NAME
    frontal-lab export      --entry NAME --what surface|field|structure --out PATH

Exit codes: 0 success, 2 input error, 3 mathematical precondition failed,
4 verification failed.  All tolerances accept overrides through --config
FILE (key = value lines) and repeated --set key=value flags.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import catalog as catalog_mod
from . import structio
from .blaschke import blaschke_field, blaschke_verify
from .config import Config, load_config
from .equiaffine import TransversalField, structure_from_field
from .errors import (DomainError, ExprSyntaxError, FrontalLabError,
                     InputError, RankDeficient, UnknownIdentifier,
                     VerificationError)
from .frame import (frame_bundle, nonparabolic_test, singular_scan,
                    wavefront_test)
from .jets import Jet, _mat_values, triple_product_jet
from .reconstruct import affine_align, extract_structure, integrate_frame

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def _parse_grid(text):
    try:
        nx, ny = text.lower().split("x")
        shape = int(nx), int(ny)
    except ValueError:
        raise InputError(f"bad grid spec {text!r}; expected NxM")
    if min(shape) < 1:
        raise InputError(f"bad grid spec {text!r}; sizes must be at least 1")
    return shape


def _build_config(args) -> Config:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val.strip()
    return load_config(args.config, overrides)


_GENERATOR_PARAMS = ("h", "c", "b", "l", "r", "a")


def _catalog_entry(args, name):
    """Catalog entry by name, with the generator parameters and --domain
    given on the command line."""
    params = {key: getattr(args, f"p_{key}") for key in _GENERATOR_PARAMS
              if getattr(args, f"p_{key}") is not None}
    if args.domain:
        params["domain"] = structio.read_domain(args.domain.split(","),
                                                "--domain")
    return catalog_mod.get_entry(name, params or None)


def _transversal_field(f, text):
    """The --field value: `blaschke` (the affine normal of f, also when
    --field is not given), `normal` (the unit normal) or three finite
    numbers cx,cy,cz (a constant field)."""
    if text in (None, "blaschke"):
        return blaschke_field(f, (33, 33))
    if text == "normal":
        return TransversalField.unit_normal()
    try:
        vec = [float(v) for v in text.split(",")]
    except ValueError:
        vec = []
    if len(vec) != 3 or not np.all(np.isfinite(vec)):
        raise InputError(f"bad --field {text!r}; expected blaschke, normal "
                         f"or three finite numbers cx,cy,cz")
    return TransversalField.constant(vec)


def _refuse_unread_field(args, reads_field):
    """A --field given to a command that reads none is an input error."""
    if args.field is not None and not reads_field:
        raise InputError("--field applies only to reconstruct --entry and "
                         "export --what structure")


def _input_path(args):
    """The --input path, or None when the source is --entry NAME.  Exactly
    one of the two must be given, and the catalog settings (--domain and
    the generator parameters) apply to --entry only."""
    if (args.entry is None) == (args.input is None):
        raise InputError("provide one of --entry NAME and --input FILE")
    if args.input is None:
        return None
    settings = {"domain": args.domain,
                **{key: getattr(args, f"p_{key}")
                   for key in _GENERATOR_PARAMS}}
    unread = [f"--{key}" for key, value in settings.items()
              if value is not None]
    if unread:
        raise InputError(f"{', '.join(unread)} applies only to --entry, "
                         f"not to --input")
    return args.input


def _load_frontal(args, config):
    """The frontal of --entry NAME or of the frontal file --input FILE."""
    path = _input_path(args)
    if path is not None:
        return structio.read_frontal_file(path, config)
    return _catalog_entry(args, args.entry).build(config)


# --- subcommands --------------------------------------------------------------------


def cmd_catalog(args):
    config = _build_config(args)
    if args.name:
        entry = _catalog_entry(args, args.name)
        if args.save and entry.x is None:
            raise InputError(f"--save: {entry.name} has no expression text "
                             f"for x, so no frontal file can describe it")
        entry.build(config)   # load-time validation
        payload = entry.summary()
        if args.save:
            doc = {"name": entry.name, "domain": list(entry.domain),
                   "x": entry.x, "omega": [list(entry.omega[0]),
                                           list(entry.omega[1])]
                   if entry.omega else None,
                   "lambda": entry.lam,
                   "open_domain": entry.open_domain}
            structio.write_report(args.save, doc)
            payload["saved"] = args.save
        if args.json:
            sys.stdout.write(structio.report_json(payload))
        else:
            print(f"{entry.name}: {entry.description}")
            print(f"  domain {entry.domain}")
            for key, val in payload["known"].items():
                print(f"  known {key}: {val}")
        return EXIT_OK
    entries = catalog_mod.list_entries()
    if args.json:
        sys.stdout.write(structio.report_json(
            {"entries": entries,
             "generators": sorted(catalog_mod.GENERATORS)}))
    else:
        for e in entries:
            print(f"{e['name']:12s} {e['description']}  domain={e['domain']}")
        print("generators: " + ", ".join(sorted(catalog_mod.GENERATORS)))
    return EXIT_OK


def cmd_analyze(args):
    config = _build_config(args)
    f = _load_frontal(args, config)
    shape = _parse_grid(args.grid)
    u1, u2 = f.grid(shape)
    # every quantity below is read as a value or a first derivative
    b = frame_bundle(f, u1, u2, f.bundle_order(1))
    scan = singular_scan(b)
    wf, witnesses = wavefront_test(b)
    nonpar = nonparabolic_test(b)
    K_omega = b.K_omega.value_on(shape)
    report = {
        "schema_version": structio.SCHEMA_VERSION,
        "command": "analyze",
        "entry": f.name,
        "grid": list(shape),
        "domain": list(f.domain),
        "wavefront": {"verdict": bool(wf), "tolerance": config.eps_rank,
                      "witnesses": witnesses[:20]},
        "nonparabolic": {"verdict": bool(nonpar),
                         "tolerance": config.eps_k},
        "singular": {
            "cells": [[int(i), int(j)] for i, j in scan.cells[:2000]],
            "n_cells": len(scan.cells),
            "regular_dense": bool(scan.regular_dense),
            "tolerance": config.eps_sing,
        },
        "lambda_det": {"min_abs": float(np.min(np.abs(scan.lam_det))),
                       "max_abs": float(np.max(np.abs(scan.lam_det)))},
        "K_omega": {"min": float(np.min(K_omega)),
                    "max": float(np.max(K_omega))},
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        structio.write_report(os.path.join(args.out, "analyze.json"), report)
        I = _mat_values(b.I, shape)
        II = _mat_values(b.II, shape)
        n = b.n.values_on(shape)
        cols = {
            "lam_det": scan.lam_det, "K_omega": K_omega,
            "E_omega": I[..., 0, 0], "F_omega": I[..., 0, 1],
            "G_omega": I[..., 1, 1],
            "e_omega": II[..., 0, 0], "f1_omega": II[..., 0, 1],
            "f2_omega": II[..., 1, 0], "g_omega": II[..., 1, 1],
            "n1": n[..., 0], "n2": n[..., 1], "n3": n[..., 2],
        }
        structio.export_frame_csv(os.path.join(args.out, "frame.csv"),
                                  u1, u2, cols)
    sys.stdout.write(structio.report_json(report) if args.json else
                     f"{f.name}: wavefront={wf} nonparabolic={nonpar} "
                     f"singular-cells={len(scan.cells)} "
                     f"regular-dense={scan.regular_dense}\n")
    return EXIT_OK


def cmd_blaschke(args):
    config = _build_config(args)
    f = _load_frontal(args, config)
    shape = _parse_grid(args.grid)
    bf = blaschke_field(f, shape)
    verify = blaschke_verify(bf, shape=(min(41, shape[0]), min(41, shape[1])))
    report = {
        "schema_version": structio.SCHEMA_VERSION,
        "command": "blaschke",
        "entry": f.name,
        "grid": list(shape),
        "diagnostics": _clean(bf.diagnostics),
        "verify": verify,
        "improper_sphere": {
            "verdict": bool(bf.diagnostics["improper_sphere"]),
            "deviation": bf.diagnostics["constancy_deviation"],
            "tolerance": bf.diagnostics["constancy_tolerance"],
        },
    }
    if f.blaschke_known is not None:
        known = f.blaschke_known(bf.u1, bf.u2, 0).values_stacked()
        err = float(np.max(np.abs(bf.xi - known)))
        report["known_answer"] = {"max_abs_error": err, "tolerance": 1e-6}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        structio.write_report(os.path.join(args.out, "blaschke.json"), report)
        x = f.x(bf.u1, bf.u2, 0).values_on(bf.u1.shape)
        structio.export_obj(os.path.join(args.out, "surface.obj"), x)
        structio.export_field_csv(os.path.join(args.out, "field.csv"),
                                  bf.u1, bf.u2, x, bf.xi)
    sys.stdout.write(structio.report_json(report) if args.json else
                     f"{f.name}: max|tau|={report['diagnostics'].get('max_tau')}"
                     f" volume={report['diagnostics'].get('volume_residual')}"
                     f" improper={report['improper_sphere']['verdict']}\n")
    return EXIT_OK


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def cmd_reconstruct(args):
    path = _input_path(args)
    _refuse_unread_field(args, path is None)
    config = _build_config(args)
    if args.step is not None and not args.step > 0:
        raise InputError(f"--step must be > 0, got {args.step}")
    shape = _parse_grid(args.grid)
    if path is not None:
        sd = structio.read_structure_file(path)
        f = None
    else:
        f = _load_frontal(args, config)
        sd = extract_structure(f, _transversal_field(f, args.field))

    step = config.rk4_step if args.step is None else args.step
    ff = integrate_frame(sd, shape, step=step, config=config)
    report = {
        "schema_version": structio.SCHEMA_VERSION,
        "command": "reconstruct",
        "grid": list(shape),
        "step": step,
        "compatibility": {"residual": ff.compat,
                          "tolerance": config.tol_compat},
        "integrability": {"symmetry": ff.symmetry,
                          "row_identity": ff.row_identity,
                          "tolerance": config.tol_compat},
        "path_audit": {"frame": ff.discrepancy, "position": ff.x_discrepancy,
                       "tolerance": config.tol_path},
        "min_abs_det_frame": ff.min_det,
    }
    if f is not None:
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = f.x(U1, U2, 0).values_on(U1.shape)
        try:
            L, a, sup = affine_align(ff.x, x_true)
        except RankDeficient as err:
            # a planar surface rebuilds into a plane: every gate passed,
            # only the comparison has no unique affine map to report
            report["alignment"] = {
                "unique_fit": False,
                "reason": f"{err}: the reconstructed nodes lie in a plane, "
                          f"so no unique affine map carries them onto the "
                          f"original"}
        else:
            report["alignment"] = {"sup_error": sup, "tolerance": 1e-4,
                                   "L": L.tolist(), "a": a.tolist()}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        structio.write_report(os.path.join(args.out, "reconstruct.json"),
                              report)
        structio.export_obj(os.path.join(args.out, "reconstructed.obj"),
                            ff.x)
    alignment = report.get("alignment", {})
    if "sup_error" in alignment:
        aligned = f"aligned sup={alignment['sup_error']:.3e}"
    elif alignment:
        aligned = f"no unique alignment: {alignment['reason']}"
    else:
        aligned = ""
    sys.stdout.write(structio.report_json(report) if args.json else
                     f"reconstructed: audit={ff.discrepancy:.3e} {aligned}\n")
    return EXIT_OK


def cmd_check(args):
    config = _build_config(args)
    f = _load_frontal(args, config)
    checks = run_property_suite(f)
    report = {
        "schema_version": structio.SCHEMA_VERSION,
        "command": "check",
        "entry": f.name,
        "checks": checks,
        "passed": all(c["ok"] for c in checks),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        structio.write_report(os.path.join(args.out, "check.json"), report)
    if args.json:
        sys.stdout.write(structio.report_json(report))
    else:
        for c in checks:
            status = "ok" if c["ok"] else "FAIL"
            print(f"[{status:4s}] {c['name']}: residual {c['residual']:.3e} "
                  f"(tol {c['tolerance']:.1e})")
    if not report["passed"]:
        raise VerificationError("property suite failed")
    return EXIT_OK


def run_property_suite(f):
    """Cross-path invariants on one frontal; returns a list of named checks.

    Everything here re-derives a quantity along two independent routes or
    asserts a structural identity; checks that need preconditions the
    surface does not meet (a transversal constant field, non-vanishing
    curvature) are skipped rather than failed.
    """
    config = f.config
    checks = []

    def add(name, residual, tol):
        checks.append({"name": name, "residual": float(residual),
                       "tolerance": float(tol),
                       "ok": bool(residual <= tol)})

    from .blaschke import blaschke_field, conormal_verify
    from .equiaffine import (check_tau_formula, d_from_gamma,
                             parallel_volume_check)
    from .errors import KVanishes
    from .frame import affine_image, ii_omega_normal_route
    rng = np.random.default_rng(20240814)
    a1, b1, a2, b2 = f.domain
    u1 = rng.uniform(a1 + 0.05 * (b1 - a1), b1 - 0.05 * (b1 - a1), 120)
    u2 = rng.uniform(a2 + 0.05 * (b2 - a2), b2 - 0.05 * (b2 - a2), 120)
    b = frame_bundle(f, u1, u2)
    lam_det = b.lam_det.value_on(u1.shape)
    K_omega = b.K_omega.value_on(u1.shape)
    lam = _mat_values(b.lam, u1.shape)
    I_omega = _mat_values(b.I, u1.shape)
    II_omega = _mat_values(b.II, u1.shape)
    I_cl = _mat_values(b.classical_I(), u1.shape)
    II_cl = _mat_values(b.classical_II(), u1.shape)
    scale_lam = max(1e-3, 0.01 * float(np.max(np.abs(lam_det))))
    reg = np.abs(lam_det) > max(config.eps_sing, scale_lam)
    u1r, u2r = u1[reg], u2[reg]

    I_pred = lam @ I_omega @ np.swapaxes(lam, -1, -2)
    add("first-form factorization", np.max(np.abs(I_pred - I_cl)),
        1e-9 * max(1.0, float(np.max(np.abs(I_cl)))))
    II_pred = lam @ II_omega
    add("second-form factorization", np.max(np.abs(II_pred - II_cl)),
        1e-9 * max(1.0, float(np.max(np.abs(II_cl)))))

    alt = ii_omega_normal_route(b)
    add("second-form route agreement",
        np.max(np.abs(_mat_values(alt) - II_omega)), 1e-10)

    ortho = max(float(np.max(np.abs(np.asarray(b.w1.dot(b.n).value)))),
                float(np.max(np.abs(np.asarray(b.w2.dot(b.n).value)))))
    add("normal orthogonality", ortho, 1e-12)

    with np.errstate(divide="ignore", invalid="ignore"):
        k_ratio = K_omega[reg] / lam_det[reg]
        det_ii = np.linalg.det(II_cl[reg])
        det_i = np.linalg.det(I_cl[reg])
        add("curvature ratio vs classical",
            np.max(np.abs(k_ratio - det_ii / det_i))
            / max(1.0, float(np.max(np.abs(k_ratio)))), 1e-8)

    # split-field identities with the unit normal: h = p, tau = 0
    def const_jet(val):
        return lambda a, c, order: Jet.constant(
            np.full(np.shape(np.asarray(a, dtype=float)), val), order)

    h_res, tau_res = check_tau_formula(f, const_jet(1.0), const_jet(0.0),
                                       const_jet(0.0), u1r, u2r)
    add("split-field form identity", h_res, 1e-9)
    add("split-field connection identity", tau_res, 1e-9)

    const = TransversalField.constant((0.0, 0.0, 1.0))
    theta = np.abs(triple_product_jet(
        b.w1, b.w2, const.jets(b)).value_on(u1.shape))[reg]
    tv = theta > 0.1
    if np.any(tv):
        u1t, u2t = u1r[tv], u2r[tv]
        bt = frame_bundle(f, u1t, u2t)
        s1 = structure_from_field(f, const, u1t, u2t, bundle=bt)
        add("constant field equiaffine", np.max(np.abs(s1.tau)), 1e-9)
        s2 = structure_from_field(
            f, TransversalField.constant((0.0, 0.0, 2.0)), u1t, u2t,
            bundle=bt)
        add("relative-form scaling", np.max(np.abs(s2.h - s1.h / 2.0)),
            1e-12 * max(1.0, float(np.max(np.abs(s1.h)))))

        vol_res, _ = parallel_volume_check(f, const, u1t, u2t, bundle=bt)
        add("parallel volume identity", vol_res,
            1e-8 * max(1.0, float(np.max(theta[tv]))))

        D1g, D2g = d_from_gamma(f, const, u1t, u2t, bundle=bt)
        route = max(float(np.max(np.abs(D1g - s1.D1))),
                    float(np.max(np.abs(D2g - s1.D2))))
        add("connection-block route agreement", route, 1e-8)

        rep = conormal_verify(f, const, u1t, u2t, bundle=bt)
        add("conormal identities",
            max(rep["pairing_xi"], rep["pairing_w"], rep["derivative_xi"],
                rep["derivative_w"]), 1e-8)

    # affine equivariance of the normal field, one random unimodular map
    try:
        grid = f.interior_grid((9, 9), margin=0.05)
        base = blaschke_field(f, grid=grid)
        A = rng.uniform(-1.0, 1.0, (3, 3))
        while abs(np.linalg.det(A)) < 0.2:
            A = rng.uniform(-1.0, 1.0, (3, 3))
        A = A * np.sign(np.linalg.det(A))
        A /= abs(np.linalg.det(A)) ** (1.0 / 3.0)
        image = affine_image(f, A, rng.uniform(-0.5, 0.5, 3))
        bf = blaschke_field(image, grid=grid)
        add("affine-normal equivariance",
            np.max(np.abs(bf.xi - base.xi @ A.T)), 1e-6)
    except KVanishes:
        pass
    return checks


def cmd_export(args):
    _refuse_unread_field(args, args.what == "structure")
    config = _build_config(args)
    f = _load_frontal(args, config)
    shape = _parse_grid(args.grid)
    if args.what == "surface":
        u1, u2 = f.grid(shape)
        x = f.x(u1, u2, 0).values_on(u1.shape)
        structio.export_obj(args.out, x)
    elif args.what == "field":
        bf = blaschke_field(f, shape)
        x = f.x(bf.u1, bf.u2, 0).values_on(bf.u1.shape)
        structio.export_field_csv(args.out, bf.u1, bf.u2, x, bf.xi)
    elif args.what == "structure":
        structio.check_spline_grid("--grid", *shape)
        sd = extract_structure(f, _transversal_field(f, args.field))
        structio.write_structure_file(args.out, sd, shape=shape)
    else:
        raise InputError(f"unknown export kind {args.what!r}")
    print(f"wrote {args.out}")
    return EXIT_OK


# --- argument plumbing ---------------------------------------------------------------


def _add_settings(sp):
    """Flags every subcommand shares: config, JSON output, generator
    parameters."""
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--config")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE")
    sp.add_argument("--domain")
    for key in _GENERATOR_PARAMS:
        sp.add_argument(f"--{key}", dest=f"p_{key}")


def _add_common(sp, grid_default="101x101"):
    sp.add_argument("--entry")
    sp.add_argument("--input")
    if grid_default is not None:
        sp.add_argument("--grid", default=grid_default)
    sp.add_argument("--out")
    _add_settings(sp)


# Flags whose values may start with '-': a domain, a field vector, an
# expression.  argparse reads "--domain -0.8,0.8,..." as two flags, so main
# joins such a pair into "--domain=-0.8,0.8,..." before parsing.
_DASH_VALUE_FLAGS = frozenset(
    ["--domain", "--field"] + [f"--{key}" for key in _GENERATOR_PARAMS])


def _join_dash_values(argv):
    out = []
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag == "--":
            return out + argv[i:]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (flag in _DASH_VALUE_FLAGS and value.startswith("-")
                and not value.startswith("--")):
            out.append(f"{flag}={value}")
            i += 2
        else:
            out.append(flag)
            i += 1
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="frontal-lab",
        description="equiaffine invariants of frontals: analysis, affine "
                    "normals, and structure-data reconstruction")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", help="list entries or build a generator")
    sp.add_argument("name", nargs="?")
    sp.add_argument("--save")
    _add_settings(sp)
    sp.set_defaults(fn=cmd_catalog)

    sp = sub.add_parser("analyze", help="frame data, singular scan, verdicts")
    _add_common(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("blaschke", help="affine-normal field + verification")
    _add_common(sp)
    sp.set_defaults(fn=cmd_blaschke)

    sp = sub.add_parser("reconstruct", help="integrate structure data")
    _add_common(sp, grid_default="21x21")
    sp.add_argument("--step", type=float)
    sp.add_argument("--field",
                    help="blaschke | normal | cx,cy,cz (with --entry)")
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("check", help="property suite on one entry")
    _add_common(sp, grid_default=None)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("export", help="OBJ surface, CSV field, or structure")
    _add_common(sp, grid_default="41x41")
    sp.add_argument("--what", required=True,
                    choices=("surface", "field", "structure"))
    sp.add_argument("--field")
    sp.set_defaults(fn=cmd_export)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_dash_values(argv))
    try:
        return args.fn(args)
    except VerificationError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (InputError, ExprSyntaxError, UnknownIdentifier, DomainError,
            OSError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except FrontalLabError as err:
        print(f"precondition failed: {err.__class__.__name__}: {err}",
              file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
