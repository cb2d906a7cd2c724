"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable, so a passing run
certifies the package at the stated accuracy.

Golden closed forms come from the catalog, whose expressions were frozen
only after two independent confirmations: the construction satisfies the
defining conditions (vanishing transversal connection form, volume
match) to machine precision, and exact symbolic derivation reproduces
the same formulas.  The curvature checks compare magnitudes and record
the overall orientation convention through the catalog's signed forms.
"""

import time

import numpy as np
import pytest

from conftest import (UNGATED, fd_jet, field_jets, random_unimodular,
                      regular_points, with_structure)
from frontal_lab import expr
from frontal_lab.blaschke import (AFFINE_NORMAL, blaschke_field,
                                  blaschke_verify,
                                  conormal_verify, extension_condition,
                                  extension_condition_fields, gauss_extension,
                                  probe_limits)
from frontal_lab.catalog import get_entry
from frontal_lab.equiaffine import (TransversalField, d_from_gamma,
                                    structure_from_field)
from frontal_lab.errors import (CompatibilityViolated, KVanishes,
                                NotExtendable)
from frontal_lab.frame import (Frontal, affine_image, frame_bundle,
                               singular_scan)
from frontal_lab.jets import INDICES, Jet
from frontal_lab.reconstruct import (StructureData, affine_align, expr_entry,
                                     extract_structure, integrate_frame,
                                     stack_blocks)

VERTICAL = TransversalField.constant((0.0, 0.0, 1.0))


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}", flush=True)
    assert ok, detail


class TestCriterion1:
    def test_rank1_wavefront_golden_grid(self, ex510):
        t0 = time.perf_counter()
        bf = blaschke_field(ex510, shape=(101, 101))
        elapsed = time.perf_counter() - t0
        err = float(np.max(np.abs(bf.xi - np.array([0.0, 0.0, 1.0]))))
        ok = err <= 1e-6 and elapsed <= 10.0
        verdict(1, ok, f"constant-field golden grid: max error {err:.2e} "
                       f"(tol 1e-6), {elapsed:.1f}s (limit 10s)")


class TestCriterion2:
    def test_quintic_edge_golden_field(self, ex59):
        rng = np.random.default_rng(59)
        u1 = rng.uniform(-0.98, 0.98, 100)
        u2 = rng.uniform(-0.98, 0.98, 100)
        got = blaschke_field(ex59, grid=(u1, u2)).xi
        ref = ex59.blaschke_known(u1, u2, 0).values_stacked()
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=-1))[..., None]
        rel = float(np.max(np.abs(got - ref) / scale))

        sing = blaschke_field(ex59, grid=(np.array([-0.7, 0.0, 0.4]),
                                          np.zeros(3))).xi
        sing_err = float(np.max(np.abs(sing - np.array([0.0, 0.0, 1.0]))))
        ok = rel <= 1e-6 and sing_err <= 1e-4
        verdict(2, ok, f"quintic-edge field vs closed form: rel {rel:.2e} "
                       f"(tol 1e-6); singular-line probe {sing_err:.2e} "
                       f"(tol 1e-4)")


class TestCriterion3:
    def test_quintic_edge_extended_curvature(self, ex59):
        mag_ast = expr.parse(get_entry("ex-5.9").known["K_magnitude"])
        signed_ast = expr.parse(get_entry("ex-5.9").known["K"])
        numeric = ex59.stripped()

        rng = np.random.default_rng(3)
        u1 = rng.uniform(-0.95, 0.95, 200)
        u2 = rng.uniform(-0.95, 0.95, 200)
        keep = np.abs(u2) > 0.02
        u1, u2 = u1[keep], u2[keep]
        b = frame_bundle(numeric, u1, u2)
        K = b.K_omega.value_on(u1.shape) / b.lam_det.value_on(u1.shape)
        ref_mag = expr.eval_num(mag_ast, {"u1": u1, "u2": u2})
        ref_signed = expr.eval_num(signed_ast, {"u1": u1, "u2": u2})
        reg_err = float(np.max(np.abs(np.abs(K) - ref_mag)
                               / np.maximum(1e-12, ref_mag)))
        sign_ok = bool(np.all(np.sign(K) == np.sign(ref_signed)))

        sing_err = 0.0
        for p1 in (-0.6, 0.0, 0.5):
            K_s = gauss_extension(numeric, (p1, 0.0))
            ref = float(expr.eval_num(mag_ast, {"u1": p1, "u2": 0.0}))
            sing_err = max(sing_err, abs(abs(K_s) - ref) / max(1e-12, ref))
        ok = reg_err <= 1e-8 and sing_err <= 1e-4 and sign_ok
        verdict(3, ok, f"extended curvature magnitude: regular {reg_err:.2e} "
                       f"(tol 1e-8), singular line {sing_err:.2e} (tol 1e-4),"
                       f" sign convention consistent={sign_ok}")


class TestCriterion4:
    def test_cross_cap_golden(self, ex58):
        entry = get_entry("ex-5.8")
        exact = entry.known["lambda_det"] == "2*u2"
        u1, u2 = ex58.interior_grid((15, 15), margin=0.02)
        lam_err = float(np.max(np.abs(
            frame_bundle(ex58, u1, u2).lam_det.value_on(u1.shape)
            - expr.eval_num(expr.parse("2*u2"), {"u1": u1, "u2": u2}))))

        rng = np.random.default_rng(58)
        p1 = rng.uniform(-0.95, 0.95, 100)
        p2 = rng.uniform(-3.8, 3.8, 100)
        p2 = np.where(np.abs(p2) < 0.05, p2 + 0.1, p2)
        got = blaschke_field(ex58, grid=(p1, p2)).xi
        ref = ex58.blaschke_known(p1, p2, 0).values_stacked()
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=-1))[..., None]
        rel = float(np.max(np.abs(got - ref) / scale))
        ok = exact and lam_err < 1e-12 and rel <= 1e-6
        verdict(4, ok, f"cross-cap: factor determinant exact ({lam_err:.1e});"
                       f" field vs closed form rel {rel:.2e} (tol 1e-6)")


class TestCriterion5:
    def test_equiaffinity_and_volume_for_catalog_fields(self):
        worst_tau, worst_vol = 0.0, 0.0
        for name in ("paraboloid", "ex-5.8", "ex-5.9", "ex-5.10"):
            f = get_entry(name).build()
            bf = blaschke_field(f, shape=(21, 21))
            rep = blaschke_verify(bf, shape=(21, 21))
            worst_tau = max(worst_tau, rep["max_tau"])
            worst_vol = max(worst_vol, rep["volume_residual"])
        ok = worst_tau <= 1e-6 and worst_vol <= 1e-6
        verdict(5, ok, f"catalog fields: max |tau| {worst_tau:.2e}, volume "
                       f"residual {worst_vol:.2e} (tol 1e-6 each)")


class TestCriterion6:
    def test_equivariance_under_unimodular_maps(self, ex510):
        rng = np.random.default_rng(6)
        grid = ex510.interior_grid((13, 13), margin=0.04)
        base = blaschke_field(ex510, grid=grid)
        worst = 0.0
        for _ in range(5):
            A = random_unimodular(rng)
            shift = rng.uniform(-0.5, 0.5, 3)
            image = affine_image(ex510, A, shift)
            bf = blaschke_field(image, grid=grid)
            worst = max(worst, float(np.max(np.abs(bf.xi - base.xi @ A.T))))
        ok = worst <= 1e-6
        verdict(6, ok, f"equivariance over 5 unimodular maps: max pointwise "
                       f"deviation {worst:.2e} (tol 1e-6)")


class TestCriterion7:
    def test_conormal_identities_and_rank(self, paraboloid, ex59, ex510):
        worst = 0.0
        rank_ok = True
        cases = []
        u1, u2 = regular_points(paraboloid, 40, seed=7)
        cases.append((paraboloid, VERTICAL, u1, u2, True))
        u1, u2 = regular_points(ex510, 40, seed=8, min_lam=0.5)
        cases.append((ex510, VERTICAL, u1, u2, False))
        band = Frontal("ex59-band", ex59._x, ex59._omega, (-1, 1, 0.2, 1.0),
                       lam=ex59._lam, gauss=ex59.gauss, open_domain=True)
        blaschke_field(band, shape=(11, 11))
        u1, u2 = regular_points(band, 40, seed=9)
        cases.append((band, AFFINE_NORMAL, u1, u2, True))
        for f, field, a, b, nonpar in cases:
            rep = conormal_verify(*with_structure(f, field, a, b))
            worst = max(worst, rep["pairing_xi"], rep["pairing_w"],
                        rep["derivative_xi"], rep["derivative_w"])
            if nonpar:
                rank_ok = rank_ok and rep["rank2_everywhere"]
        ok = worst <= 1e-8 and rank_ok
        verdict(7, ok, f"conormal identities: worst residual {worst:.2e} "
                       f"(tol 1e-8); rank 2 on non-parabolic samples: "
                       f"{rank_ok}")


class TestCriterion8:
    def test_round_trip_and_order_probe(self, ex59, ex510):
        t0 = time.perf_counter()
        results = {}

        blaschke_field(ex59, shape=(21, 21))
        sd59 = extract_structure(ex59, AFFINE_NORMAL)
        ff = integrate_frame(sd59, shape=(13, 13), step=1e-3)
        x = ff.x
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = ex59.x(U1, U2, 0).values_stacked()
        _, _, sup59 = affine_align(x, x_true)
        results["quintic sup"] = (sup59, 1e-4)
        results["quintic audit"] = (ff.discrepancy, 1e-4)

        sd510 = extract_structure(ex510, VERTICAL)
        ff510 = integrate_frame(sd510, shape=(13, 13), step=1e-3)
        x510 = ff510.x
        U1, U2 = np.meshgrid(ff510.u1_nodes, ff510.u2_nodes, indexing="ij")
        x_true = ex510.x(U1, U2, 0).values_stacked()
        _, _, sup510 = affine_align(x510, x_true)
        results["wavefront sup"] = (sup510, 1e-4)
        results["wavefront audit"] = (ff510.discrepancy, 1e-4)

        # order-4 probe where the audit signal is above the roundoff
        # floor: the affine-normal structure of the quintic edge, and the
        # unit-normal structure of the wave front (its constant-field
        # audit sits at ~1e-13, below any measurable step dependence)
        coarse = integrate_frame(sd59, shape=(9, 9), step=2e-3,
                                 config=UNGATED)
        fine = integrate_frame(sd59, shape=(9, 9), step=1e-3,
                               config=UNGATED)
        ratio59 = coarse.discrepancy / fine.discrepancy
        sdn = extract_structure(ex510, TransversalField.unit_normal())
        coarse_n = integrate_frame(sdn, shape=(9, 9), step=2e-3,
                                   config=UNGATED)
        fine_n = integrate_frame(sdn, shape=(9, 9), step=1e-3,
                                 config=UNGATED)
        ratio510 = coarse_n.discrepancy / fine_n.discrepancy
        elapsed = time.perf_counter() - t0

        ok = (all(v <= tol for v, tol in results.values())
              and ratio59 >= 8.0 and ratio510 >= 8.0 and elapsed <= 60.0)
        detail = ", ".join(f"{k} {v:.2e}" for k, (v, _) in results.items())
        verdict(8, ok, f"round trips: {detail} (tol 1e-4); step-halving "
                       f"ratios {ratio59:.1f}, {ratio510:.1f} (>= 8); "
                       f"{elapsed:.0f}s (limit 60s)")


def _random_oracle_case(rng):
    # kept in the scale range of the catalog's own scalars: the central
    # stencils divide by step^3, so third-derivative estimates carry a
    # roundoff floor proportional to the function's magnitude
    atoms = ["u1", "u2", "0.5", "1.25", "(1 + u1^2)", "(2 + u2^2)",
             "u1*u2", "(u1 - u2)"]
    unary = ["sin", "cos"]
    parts = [rng.choice(atoms) for _ in range(3)]
    src = f"{parts[0]} * {parts[1]} + {parts[2]}"
    if rng.random() < 0.3:
        src = f"exp(({src})/6)"
    elif rng.random() < 0.6:
        src = f"{rng.choice(unary)}({src})"
    if rng.random() < 0.4:
        src = f"{src} / (2 + u1^2 + u2^2)"
    if rng.random() < 0.3:
        src = f"sqrt(4 + ({src})^2)"
    return src


class TestCriterion9:
    def test_jet_vs_finite_difference_oracle(self):
        rng = np.random.default_rng(9)
        tols = {1: 1e-8, 2: 1e-6, 3: 1e-4}
        worst = {1: 0.0, 2: 0.0, 3: 0.0}
        for k in range(1000):
            order = (k % 3) + 1
            src = _random_oracle_case(rng)
            ast = expr.parse(src)
            point = tuple(rng.uniform(-1.0, 1.0, 2))
            jet = expr.eval_point(ast, point, order)
            oracle = fd_jet(
                lambda a, b: expr.eval_num(ast, {"u1": a, "u2": b}),
                point, order)
            for ij in INDICES[order]:
                ref = float(oracle.partial(*ij))
                got = float(jet.partial(*ij))
                err = abs(got - ref) / max(1.0, abs(got))
                worst[order] = max(worst[order], err)
        ok = all(worst[o] <= tols[o] for o in (1, 2, 3))
        verdict(9, ok, "jet vs finite differences over 1000 cases: "
                       + ", ".join(f"order {o}: {worst[o]:.2e} (tol "
                                   f"{tols[o]:.0e})" for o in (1, 2, 3)))

    def test_connection_block_route_agreement(self):
        worst = 0.0
        for name in ("plane", "paraboloid", "ex-5.8", "ex-5.9", "ex-5.10"):
            f = get_entry(name).build()
            u1, u2 = regular_points(f, 50, seed=hash(name) % 1000,
                                    min_lam=0.05)
            b = frame_bundle(f, u1, u2)
            from frontal_lab.jets import triple_product_jet
            theta = np.abs(np.asarray(triple_product_jet(
                b.w1, b.w2, VERTICAL.jets(b)).value))
            keep = np.broadcast_to(theta, u1.shape) > 0.1
            u1, u2 = u1[keep], u2[keep]
            s = structure_from_field(f, VERTICAL, u1, u2)
            D1g, D2g = d_from_gamma(*field_jets(f, VERTICAL, u1, u2))
            worst = max(worst,
                        float(np.max(np.abs(D1g - s.D1))),
                        float(np.max(np.abs(D2g - s.D2))))
        ok = worst <= 1e-8
        verdict(9, ok, f"connection blocks, direct solve vs conjugated "
                       f"route: {worst:.2e} (tol 1e-8)")


class TestCriterion10:
    def test_extension_conditions(self, ex59, ex510, config):
        all_pass = True
        for f, pts in ((ex59, [(-0.5, 0.0), (0.3, 0.0)]),
                       (ex510, [(0.5, 0.5), (-0.4, 0.4)])):
            for p in pts:
                for which in (1, 2):
                    res = extension_condition(f, which, p)
                    all_pass = all_pass and res.ok

        def lam_fn(u1, u2):
            one = Jet.constant(np.ones(np.shape(u1)), 1)
            zero = Jet.constant(np.zeros(np.shape(u1)), 1)
            return [[one, zero], [zero, Jet.variable(u2, 1, 1)]]

        def i_omega_fn(u1, u2):
            one = Jet.constant(np.ones(np.shape(u1)), 1)
            zero = Jet.constant(np.zeros(np.shape(u1)), 1)
            return [[one, zero], [zero, one]]

        def efg_fn(u1, u2):
            zero = Jet.constant(np.zeros(np.shape(u1)), 1)
            return Jet.variable(u2, 1, 1), zero, zero

        res = extension_condition_fields(lam_fn, i_omega_fn, efg_fn, 1,
                                         (0.3, 0.0), (-1, 1, -1, 1), config)
        counterexample_fails = not res.ok
        raised = False
        try:
            res.require()
        except NotExtendable:
            raised = True
        ok = all_pass and counterexample_fails and raised
        verdict(10, ok, f"extension criteria hold on both singular covers "
                        f"({all_pass}); synthetic counterexample rejected "
                        f"as not extendable ({counterexample_fails})")


class TestCriterion11:
    def test_negative_controls(self, plane, ex510):
        flat_refused = False
        try:
            blaschke_field(plane, shape=(9, 9))
        except KVanishes:
            flat_refused = True

        blaschke_field(ex510, shape=(15, 15))
        xi = AFFINE_NORMAL
        doubled = TransversalField(lambda b: xi.jets(b).scale(2.0))
        u1, u2 = regular_points(ex510, 20, seed=11)
        s = structure_from_field(ex510, doubled, u1, u2)
        lam = frame_bundle(ex510, u1, u2).lam_det.value_on(u1.shape)
        det_h = (s.h[..., 0, 0] * s.h[..., 1, 1]
                 - s.h[..., 0, 1] * s.h[..., 1, 0])
        vol = float(np.min(np.abs(
            np.sqrt(s.theta ** 2 * np.abs(lam) / np.abs(det_h)) - 1.0)))
        scaled_detected = vol > 1e-3

        incompatible = StructureData(
            domain=(0.0, 1.0, 0.0, 1.0), basepoint=(0.0, 0.0),
            W0=np.eye(3), p=np.zeros(3),
            lam=expr_entry(["1", "0", "0", "1"]),
            i_omega=expr_entry(["1", "0", "0", "1"]),
            blocks=stack_blocks(expr_entry(["3*u2", "0", "0", "0"]),
                                expr_entry(["0"] * 4), expr_entry(["0"] * 4),
                                expr_entry(["0"] * 4)),
            phi=expr_entry("1"))
        incompat_refused = False
        try:
            integrate_frame(incompatible, shape=(7, 7), step=1e-2)
        except CompatibilityViolated:
            incompat_refused = True

        ok = flat_refused and scaled_detected and incompat_refused
        verdict(11, ok, f"negative controls: flat surface refused "
                        f"({flat_refused}); mis-scaled field volume residual "
                        f"{vol:.2e} > 1e-3 ({scaled_detected}); incompatible "
                        f"structure refused ({incompat_refused})")
