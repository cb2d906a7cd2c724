"""Frontal kernel: factorization, normals, invariants, classification."""

import sys

import numpy as np
import pytest

from conftest import regular_points, with_nan_x, with_structure
from frontal_lab import cli, expr, frame, reconstruct
from frontal_lab.blaschke import (AFFINE_NORMAL, _tangent_value_fn,
                                  blaschke_field, conormal_verify)
from frontal_lab.equiaffine import TransversalField, check_tau_formula
from frontal_lab.errors import NotAFrontal
from frontal_lab.frame import (Frontal, affine_image, factor_lambda,
                               frame_bundle, frontal_from_expressions,
                               ii_omega_normal_route, nonparabolic_test,
                               singular_scan, unit_normal, wavefront_mask,
                               wavefront_test)
from frontal_lab.catalog import get_entry
from frontal_lab.reconstruct import (apolarity_check, extract_structure,
                                     integrability_residual, integrate_frame)
from frontal_lab.jets import Jet, JetVec3, _mat_values


def lam_values(lam, shape=()):
    return _mat_values(lam)


def sweep(test, f, shape):
    """Run a grid test on the values it reads off the frame bundle of f's
    default grid."""
    u1, u2 = f.grid(shape)
    b = frame_bundle(f, u1, u2)
    cfg = f.config
    if test is singular_scan:
        return test(u1, u2, b.lam_det.value_on(u1.shape), cfg.eps_sing)
    if test is wavefront_test:
        return test(u1, u2, wavefront_mask(b))
    return test(b.K_omega.value_on(u1.shape), cfg.eps_k)


class TestFactorLambda:
    def test_plane_identity(self, plane):
        lam = factor_lambda(plane, 0.3, -0.2, 2)
        np.testing.assert_allclose(lam_values(lam), np.eye(2), atol=1e-14)

    def test_quintic_edge_factor(self, ex59):
        u1, u2 = np.array([0.3, -0.5]), np.array([0.4, 0.7])
        lam = factor_lambda(ex59, u1, u2, 2)
        vals = lam_values(lam)
        expected = np.zeros((2, 2, 2))
        expected[..., 0, 0] = 1.0
        expected[..., 1, 1] = 2.0 * u2
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_rank1_wavefront_factor(self, ex510):
        u1, u2 = np.array([0.5]), np.array([0.2])
        lam = factor_lambda(ex510, u1, u2, 2)
        vals = lam_values(lam)
        np.testing.assert_allclose(vals[..., 0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(vals[..., 1, 1],
                                   12 * u1 ** 2 - 12 * u2 ** 2, atol=1e-12)
        np.testing.assert_allclose(vals[..., 0, 1], 0.0, atol=1e-12)

    def test_not_a_frontal(self):
        # paraboloid with a constant basis cannot factor the differential
        from frontal_lab.frame import frontal_from_expressions
        bad = frontal_from_expressions(
            "bad", ["u1", "u2", "u1^2 + u2^2"],
            (["1", "0", "0"], ["0", "1", "0"]), (-1, 1, -1, 1))
        with pytest.raises(NotAFrontal):
            factor_lambda(bad, 0.4, 0.3, 2)

    def test_nan_residual_fails_the_gate(self, paraboloid):
        # a NaN in one derivative of x gives a NaN decomposition residual,
        # which the gate must not read as zero
        f = with_nan_x(paraboloid)
        u1, u2 = np.array([0.3, -0.5]), np.array([0.4, 0.7])
        with pytest.raises(NotAFrontal, match="residual nan"):
            factor_lambda(f, u1, u2, 2)


class TestUnitNormal:
    def test_standard_basis(self):
        w1 = JetVec3.constant((1, 0, 0), 1)
        w2 = JetVec3.constant((0, 1, 0), 1)
        np.testing.assert_allclose(unit_normal(w1, w2).value(), [0, 0, 1],
                                   atol=1e-15)

    def test_rank1_wavefront_origin(self, ex510):
        b = frame_bundle(ex510, np.array([0.0]), np.array([0.0]))
        np.testing.assert_allclose(b.n.values_stacked()[0], [0, 0, 1],
                                   atol=1e-12)

    def test_column_swap_flips(self):
        w1 = JetVec3.constant((1, 0, 0.3), 1)
        w2 = JetVec3.constant((0, 1, -0.2), 1)
        n12 = unit_normal(w1, w2).value()
        n21 = unit_normal(w2, w1).value()
        np.testing.assert_allclose(n12, -n21, atol=1e-15)


class TestFrameData:
    def test_quintic_edge_lambda_det(self, ex59):
        u1, u2 = regular_points(ex59, 20, seed=1)
        b = frame_bundle(ex59, u1, u2)
        np.testing.assert_allclose(b.lam_det.value_on(u1.shape), 2 * u2,
                                   atol=1e-12)

    def test_rank1_wavefront_lambda_at_point(self, ex510):
        # det Lambda of the printed factor diag(1, 12 u1^2 - 12 u2^2);
        # the catalog keeps the factor itself, so the determinant at
        # (1, 0) is +12.
        b = frame_bundle(ex510, np.array([1.0]), np.array([0.0]))
        assert b.lam_det.value_on((1,))[0] == pytest.approx(12.0, abs=1e-12)

    def test_plane_is_flat(self, plane):
        u1, u2 = plane.grid((7, 7))
        b = frame_bundle(plane, u1, u2)
        np.testing.assert_allclose(_mat_values(b.II, u1.shape), 0.0,
                                   atol=1e-14)
        np.testing.assert_allclose(b.K_omega.value_on(u1.shape), 0.0,
                                   atol=1e-14)
        np.testing.assert_allclose(_mat_values(b.I, u1.shape),
                                   np.broadcast_to(np.eye(2),
                                                   u1.shape + (2, 2)),
                                   atol=1e-14)

    def test_normal_orthogonal_unit(self, ex58):
        u1, u2 = regular_points(ex58, 30, seed=2)
        b = frame_bundle(ex58, u1, u2)
        for w in (b.w1, b.w2):
            assert np.max(np.abs(np.asarray(w.dot(b.n).value))) < 1e-12
        np.testing.assert_allclose(np.asarray(b.n.norm().value), 1.0,
                                   atol=1e-12)

    def test_form_factorizations(self, ex59):
        u1, u2 = regular_points(ex59, 40, seed=3)
        b = frame_bundle(ex59, u1, u2)
        lam = _mat_values(b.lam, u1.shape)
        I_cl = _mat_values(b.classical_I(), u1.shape)
        II_cl = _mat_values(b.classical_II(), u1.shape)
        I_pred = lam @ _mat_values(b.I, u1.shape) @ np.swapaxes(lam, -1, -2)
        scale = max(1.0, float(np.max(np.abs(I_cl))))
        assert np.max(np.abs(I_pred - I_cl)) < 1e-9 * scale
        II_pred = lam @ _mat_values(b.II, u1.shape)
        scale = max(1.0, float(np.max(np.abs(II_cl))))
        assert np.max(np.abs(II_pred - II_cl)) < 1e-9 * scale

    def test_second_form_two_routes(self, ex58):
        u1, u2 = regular_points(ex58, 30, seed=4)
        b = frame_bundle(ex58, u1, u2)
        alt = _mat_values(ii_omega_normal_route(b))
        got = _mat_values(b.II)
        assert np.max(np.abs(alt - got)) < 1e-10

    def test_gauss_vs_classical(self, ex510):
        u1, u2 = regular_points(ex510, 40, seed=5)
        b = frame_bundle(ex510, u1, u2)
        k1 = b.K_omega.value_on(u1.shape) / b.lam_det.value_on(u1.shape)
        k2 = (np.linalg.det(_mat_values(b.classical_II(), u1.shape))
              / np.linalg.det(_mat_values(b.classical_I(), u1.shape)))
        assert np.max(np.abs(k1 - k2)) < 1e-8 * max(1.0, np.max(np.abs(k1)))


class TestBasisChange:
    def test_zero_sets_invariant(self, ex59):
        # right-multiplying the basis by a smooth invertible field and
        # compensating the factor leaves the singular pattern alone
        def omega2(u1, u2, order):
            w1, w2 = ex59.omega(u1, u2, order)
            u1j = Jet.variable(u1, 0, order)
            return w1, w2 + w1.scale(u1j)      # B = [[1, u1], [0, 1]]

        def lam2(u1, u2, order):
            lam = ex59.lam(u1, u2, order)
            u1j = Jet.variable(u1, 1 - 1, order)
            # Lambda' = Lambda B^{-T}, B^{-T} = [[1, 0], [-u1, 1]]
            return [[lam[0][0] - lam[0][1] * u1j, lam[0][1]],
                    [lam[1][0] - lam[1][1] * u1j, lam[1][1]]]

        alt = Frontal("ex59-tmb2", ex59._x, omega2, ex59.domain, lam=lam2,
                      open_domain=True)
        u1, u2 = ex59.grid((21, 21))
        b0 = frame_bundle(ex59, u1, u2)
        b1 = frame_bundle(alt, u1, u2)
        np.testing.assert_array_equal(np.sign(b0.lam_det.value_on(u1.shape)),
                                      np.sign(b1.lam_det.value_on(u1.shape)))
        assert np.max(np.abs(np.sign(b0.K_omega.value_on(u1.shape))
                             - np.sign(b1.K_omega.value_on(u1.shape)))) == 0


class TestClassification:
    def test_singular_scan_quintic_edge(self, ex59):
        scan = sweep(singular_scan, ex59, (21, 21))
        assert not scan.empty
        assert scan.regular_dense
        # every singular sample sits on the u2 = 0 line
        for (p1, p2) in scan.singular_points:
            assert abs(p2) < 1e-12

    def test_singular_scan_diagonals(self, ex510):
        scan = sweep(singular_scan, ex510, (21, 21))
        for (p1, p2) in scan.singular_points:
            assert abs(abs(p1) - abs(p2)) < 1e-12

    def test_singular_scan_immersion_empty(self, paraboloid):
        assert sweep(singular_scan, paraboloid, (15, 15)).empty

    def test_wavefront_verdicts(self, ex510, plane, ex59):
        assert sweep(wavefront_test, ex510, (21, 21))[0]
        assert sweep(wavefront_test, plane, (9, 9))[0]
        # extendable normal curvature excludes the wave-front property
        assert not sweep(wavefront_test, ex59, (21, 21))[0]

    def test_degenerate_map_not_wavefront(self):
        def x_fn(u1, u2, order):
            shape = np.shape(np.asarray(u1, dtype=float))
            zero = Jet.constant(np.zeros(shape), order)
            return JetVec3(zero, zero, zero)

        def omega_fn(u1, u2, order):
            shape = np.shape(np.asarray(u1, dtype=float))
            one = Jet.constant(np.ones(shape), order)
            zero = Jet.constant(np.zeros(shape), order)
            return (JetVec3(one, zero, zero), JetVec3(zero, one, zero))

        squashed = Frontal("squashed", x_fn, omega_fn, (-1, 1, -1, 1))
        ok, witnesses = sweep(wavefront_test, squashed, (5, 5))
        assert not ok and len(witnesses)

    def test_nonparabolic(self, plane, ex59, ex510):
        assert not sweep(nonparabolic_test, plane, (9, 9))
        assert not sweep(nonparabolic_test, ex59, (15, 15))  # crosses u2 = 0
        assert not sweep(nonparabolic_test, ex510, (15, 15))

        off_line = Frontal("ex59-band", ex59._x, ex59._omega,
                           (-1, 1, 0.1, 1.0), lam=ex59._lam)
        assert sweep(nonparabolic_test, off_line, (15, 15))


def scan_reference(lam, u1, u2, eps_sing):
    """The cell-by-cell loop over the grid that singular_scan vectorizes:
    (cells, regular_dense, singular_points)."""
    small = np.abs(lam) <= eps_sing
    cells = []
    dense = True
    sgn = np.sign(lam)
    for i in range(lam.shape[0] - 1):
        for j in range(lam.shape[1] - 1):
            corner_sgn = sgn[i:i + 2, j:j + 2]
            corner_small = small[i:i + 2, j:j + 2]
            if corner_small.all():
                dense = False
            if corner_small.any() or corner_sgn.max() != corner_sgn.min():
                cells.append((i, j))
    pts = [(float(u1[i, j]), float(u2[i, j]))
           for i, j in zip(*np.nonzero(small))]
    return cells, dense, pts


def flat_frontal(det):
    """The plane with factor diag(det, 1), so det Lambda is `det`; built
    without the load-time sign probe, which refuses u1 + abs(u1)."""
    return Frontal(
        f"plane[det={det}]", expr.jets_fn(["u1", "u2", "0"]),
        expr.jets_fn(["1", "0", "0", "0", "1", "0"]), (-1.0, 1.0, -1.0, 1.0),
        lam=expr.jets_fn([det, "0", "0", "1"]))


class TestSingularScanMatchesLoop:
    @pytest.mark.parametrize("det, shape, exercised", [
        # sign changes inside cells
        ("u1*u2 - 0.1*sin(3*u1)", (23, 17),
         lambda lam: np.any(lam > 0) and np.any(lam < 0)),
        # exact zeros along the grid row u2 = 0
        ("u2*(u1 + 2)", (19, 21), lambda lam: np.any(lam[:, 10] == 0.0)),
        # corners on both sides of eps_sing, no sign change
        ("1e-9*(1 + 0.002*sin(5*u1 + 3*u2))", (17, 19),
         lambda lam: np.any(lam <= 1e-9) and np.any(lam > 1e-9)),
        # det Lambda vanishes on the half-plane u1 < 0
        ("u1 + abs(u1)", (16, 15), lambda lam: np.mean(lam == 0.0) == 0.5),
        # single-row and single-column grids have no cells
        ("u2 - 0.3", (1, 12), lambda lam: np.any(lam > 0) and np.any(lam < 0)),
        ("u1 + 0.2", (12, 1), lambda lam: np.any(lam > 0) and np.any(lam < 0)),
    ])
    def test_same_cover_as_loop(self, det, shape, exercised, config):
        f = flat_frontal(det)
        grid = f.grid(shape)
        lam = frame_bundle(f, *grid).lam_det.value_on(grid[0].shape)
        scan = singular_scan(*grid, lam, config.eps_sing)
        assert exercised(scan.lam_det)
        cells, dense, pts = scan_reference(scan.lam_det, *grid,
                                           config.eps_sing)
        assert list(map(tuple, scan.cells.tolist())) == cells
        assert scan.regular_dense == dense
        assert list(map(tuple, scan.singular_points.tolist())) == pts
        if det == "u1 + abs(u1)":
            assert not dense

    # hand-built det Lambda values: a NaN corner keeps no sign, -0.0 is
    # an exact zero, and at eps_sing = 0 only exact zeros are small
    @pytest.mark.parametrize("lam, eps_sing", [
        ([[1.0, 2.0, 3.0, 1.0], [1.0, np.nan, 2.0, 1.0],
          [2.0, 1.0, 1.0, 1.0]], 1e-9),
        ([[np.nan, -1.0, -2.0], [-1.0, -1.0, -3.0], [-2.0, -1.0, np.nan]],
         1e-9),
        ([[np.nan, np.nan], [np.nan, np.nan]], 1e-9),
        ([[1.0, 1.0, 1.0], [-0.0, -0.0, 1.0], [1.0, 1.0, 2.0]], 1e-9),
        ([[-0.0, 0.0], [0.0, -0.0]], 0.0),
        ([[1e-300, 1e-12, 2.0], [-0.0, 1e-300, 1.0], [1.0, 1.0, 1.0]], 0.0),
        ([[-1e-300, 1e-300, np.nan], [-0.0, -1.0, 0.0], [1.0, -1.0, 1e-9]],
         0.0),
    ], ids=["nan-inside", "nan-corners", "all-nan", "minus-zero-row",
            "zeros-at-eps-0", "sub-eps-at-eps-0", "mixed-at-eps-0"])
    def test_same_cover_on_given_values(self, lam, eps_sing):
        lam = np.array(lam)
        grid = np.meshgrid(np.arange(lam.shape[0]) / 4.0,
                           np.arange(lam.shape[1]) / 8.0, indexing="ij")
        scan = singular_scan(*grid, lam, eps_sing)
        cells, dense, pts = scan_reference(lam, *grid, eps_sing)
        assert list(map(tuple, scan.cells.tolist())) == cells
        assert scan.regular_dense == dense
        assert list(map(tuple, scan.singular_points.tolist())) == pts


def _record_bundles(monkeypatch, record):
    """Call record(bundle, u1) for each frame bundle built while a test
    runs, through every module that imports frame_bundle."""
    def counted(f, u1, u2, *args, **kwargs):
        b = frame_bundle(f, u1, u2, *args, **kwargs)
        record(b, u1)
        return b

    for name, mod in list(sys.modules.items()):
        if (name.startswith("frontal_lab")
                and getattr(mod, "frame_bundle", None) is frame_bundle):
            monkeypatch.setattr(mod, "frame_bundle", counted)


@pytest.fixture
def bundle_sizes(monkeypatch):
    """Point counts of the frame bundles built while a test runs."""
    sizes = []
    _record_bundles(monkeypatch, lambda b, u1: sizes.append(int(np.size(u1))))
    return sizes


@pytest.fixture
def bundle_orders(monkeypatch):
    """Jet orders of the frame bundles built while a test runs."""
    orders = []
    _record_bundles(monkeypatch, lambda b, u1: orders.append(b.order))
    return orders


class TestBundleCounts:
    def test_analyze_builds_one_bundle(self, bundle_sizes, tmp_path, capsys):
        assert cli.main(["analyze", "--entry", "ex-5.9", "--grid", "11x13",
                         "--out", str(tmp_path)]) == 0
        assert bundle_sizes == [11 * 13]

    def test_blaschke_field_builds_one_bundle(self, bundle_sizes,
                                              paraboloid):
        blaschke_field(paraboloid, (9, 9))
        assert bundle_sizes == [81]

    def test_blaschke_extraction_builds_one_bundle(self, bundle_sizes,
                                                   paraboloid):
        blaschke_field(paraboloid, (9, 9))
        sd = extract_structure(paraboloid, AFFINE_NORMAL)
        bundle_sizes.clear()
        u1 = np.linspace(-0.5, 0.5, 5)
        sd.aug_values(u1, 0.3 * u1 + 0.1, 0)
        assert bundle_sizes == [5]

    def test_normal_extraction_builds_one_bundle(self, bundle_sizes,
                                                 paraboloid):
        sd = extract_structure(paraboloid, TransversalField.unit_normal())
        bundle_sizes.clear()
        u1 = np.linspace(-0.5, 0.5, 5)
        sd.aug_values(u1, 0.3 * u1 + 0.1, 0)
        assert bundle_sizes == [5]

    # the checks read the bundle they are handed: one for the field, its
    # structure and the check together
    def test_conormal_verify_builds_one_bundle(self, bundle_sizes,
                                               paraboloid):
        u1 = np.linspace(-0.5, 0.5, 7)
        conormal_verify(*with_structure(
            paraboloid, TransversalField.constant((0, 0, 1)), u1,
            0.3 * u1 + 0.1))
        assert bundle_sizes == [7]

    def test_tau_formula_builds_one_bundle(self, bundle_sizes, paraboloid):
        u1 = np.linspace(-0.5, 0.5, 7)
        # built through the module, whose frame_bundle the fixture counts
        b = frame.frame_bundle(paraboloid, u1, 0.3 * u1 + 0.1)

        def const(v):
            return Jet.constant(np.full(b.shape, v), b.order)

        check_tau_formula(b, const(1.0), const(0.0), const(0.0))
        assert bundle_sizes == [7]

    def test_check_bundle_count(self, bundle_sizes, capsys):
        # 1 on the 120 suite points, 2 on their regular part (the tau
        # formula's and the constant fields') and 7 inside the two
        # affine-normal fields of the equivariance check
        assert cli.main(["check", "--entry", "ex-5.10"]) == 0
        assert len(bundle_sizes) == 10

    def test_compat_check_builds_one_bundle_per_residual(self, bundle_sizes,
                                                         paraboloid):
        # a 1x1 lattice integrates nothing, so only the residuals on the
        # regular sample build bundles: the compatibility residual and
        # its scale from one order-1 evaluation, the integrability
        # residuals from one order-0 evaluation
        sd = extract_structure(paraboloid, TransversalField.unit_normal())
        bundle_sizes.clear()
        integrate_frame(sd, (1, 1))
        assert bundle_sizes == [1, 1]

    def test_reconstruct_reads_the_lattice_once(self, monkeypatch, capsys):
        # (points, order) of every bundle, and where the sweeps start and
        # end: extraction's base point at order 3, then the compatibility
        # (order-1 symbols) and integrability (order 0) residuals on the
        # 25 nodes of the one regular sample, then nothing once the
        # sweeps are done
        built = []
        _record_bundles(monkeypatch,
                        lambda b, u1: built.append((int(np.size(u1)), b.order)))
        march = reconstruct._march

        def marked(*args, **kwargs):
            built.append("sweep")
            out = march(*args, **kwargs)
            built.append("done")
            return out

        sample = reconstruct.StructureData.regular_sample
        samples = []

        def counted(self, *args):
            samples.append(args)
            return sample(self, *args)

        monkeypatch.setattr(reconstruct, "_march", marked)
        monkeypatch.setattr(reconstruct.StructureData, "regular_sample",
                            counted)
        assert cli.main(["reconstruct", "--entry", "paraboloid", "--field",
                         "normal", "--grid", "5x5"]) == 0
        assert built[:4] == [(1, 3), (25, 2), (25, 1), "sweep"]
        assert built.count("sweep") == 2 and built[-1] == "done"
        assert len(samples) == 1

    # the connection blocks come from one callable, so a consumer that
    # reads several of them at one point set builds one bundle per order
    def test_integrability_residual_builds_one_bundle(self, bundle_sizes,
                                                      paraboloid):
        sd = extract_structure(paraboloid, TransversalField.unit_normal())
        bundle_sizes.clear()
        u1 = np.linspace(-0.5, 0.5, 5)
        integrability_residual(sd, u1, 0.3 * u1 + 0.1)
        assert bundle_sizes == [5]

    def test_apolarity_builds_one_bundle_per_order(self, bundle_orders,
                                                   paraboloid):
        # h at order 1, D1 and D2 at order 0; the unit normal loses one
        sd = extract_structure(paraboloid, TransversalField.unit_normal())
        bundle_orders.clear()
        u1 = np.linspace(-0.5, 0.5, 5)
        apolarity_check(sd, u1, 0.3 * u1 + 0.1)
        assert bundle_orders == [2, 1]

    def test_normal_values_read_neither_x_nor_lambda(self, monkeypatch):
        # the unit-normal symbols need only w1, w2 and n; the one Lambda
        # read is aug_values' own order-0 block
        f = get_entry("paraboloid").build()
        calls = []
        for name in ("x", "lam"):
            def counted(u1, u2, order, _fn=getattr(f, name), _name=name):
                calls.append((_name, order))
                return _fn(u1, u2, order)
            monkeypatch.setattr(f, name, counted)
        sd = extract_structure(f, TransversalField.unit_normal())
        calls.clear()
        u1 = np.linspace(-0.5, 0.5, 5)
        sd.aug_values(u1, 0.3 * u1 + 0.1, 0)
        assert calls == [("lam", 0)]

    # aug_values reads values only, so the symbols are asked for at order
    # 0 and the bundle is built at the order the field loses on top
    def test_normal_values_build_order_1(self, bundle_orders, paraboloid):
        sd = extract_structure(paraboloid, TransversalField.unit_normal())
        bundle_orders.clear()
        u1 = np.linspace(-0.5, 0.5, 5)
        sd.aug_values(u1, 0.3 * u1 + 0.1, 0)
        assert bundle_orders == [1]

    # a constant field keeps every order, but gen-extendable-nc's Omega
    # carries one less, so the symbols lose two: one to Omega and one to
    # the derivatives they solve for
    def test_constant_field_values_add_the_omega_loss(self, bundle_orders):
        f = get_entry("gen-extendable-nc").build()
        sd = extract_structure(f, TransversalField.constant((0, 0, 1)))
        bundle_orders.clear()
        u1 = np.linspace(-0.5, 0.5, 5)
        sd.aug_values(u1, 0.3 * u1 + 0.1, 0)
        assert bundle_orders == [2]

    def test_blaschke_values_build_order_2(self, bundle_orders, ex59):
        blaschke_field(ex59, (9, 9))
        sd = extract_structure(ex59, AFFINE_NORMAL)
        bundle_orders.clear()
        u1 = np.linspace(0.1, 0.5, 5)
        sd.aug_values(u1, 0.3 * u1 + 0.1, 0)
        assert bundle_orders == [2]

    # analyze reads values and first derivatives; gen-extendable-nc's
    # Omega carries one order less than asked for, so it needs one more
    def test_analyze_builds_order_1(self, bundle_orders, tmp_path, capsys):
        assert cli.main(["analyze", "--entry", "ex-5.9", "--grid", "5x5",
                         "--out", str(tmp_path)]) == 0
        assert bundle_orders == [1]

    def test_analyze_adds_the_omega_loss(self, bundle_orders, capsys):
        assert get_entry("gen-extendable-nc").build().omega_loss == 1
        assert cli.main(["analyze", "--entry", "gen-extendable-nc",
                         "--grid", "5x5"]) == 0
        assert bundle_orders == [2]

    # the (a, b) probe samples read values: one order under the second
    # form with closed-form K, two when K is K_omega / det Lambda
    @pytest.mark.parametrize("strip, order", [(False, 1), (True, 2)],
                             ids=["closed-form", "stripped"])
    def test_probe_samples_read_values(self, bundle_orders, ex59, strip,
                                       order):
        f = ex59.stripped() if strip else ex59
        _tangent_value_fn(f)(np.array([0.2, 0.3]), np.array([0.1, -0.2]))
        assert bundle_orders == [order]

    def test_blaschke_field_orders(self, bundle_orders, ex59):
        # regular part (tau reads xi_u), probe samples, then the frame at
        # the singular points, whose values alone are read
        bf = blaschke_field(ex59, (5, 5))
        assert bf.diagnostics["n_singular"] == 5
        assert bundle_orders[0] == 2
        assert set(bundle_orders[1:-1]) == {1}
        assert bundle_orders[-1] == 0


class TestAffineImage:
    def test_surface_maps_through(self, ex510):
        rng = np.random.default_rng(6)
        from conftest import random_unimodular
        A = random_unimodular(rng)
        b = rng.uniform(-1, 1, 3)
        g = affine_image(ex510, A, b)
        u1, u2 = regular_points(ex510, 10, seed=7)
        x0 = ex510.x(u1, u2, 0).values_stacked()
        x1 = g.x(u1, u2, 0).values_stacked()
        np.testing.assert_allclose(x1, x0 @ A.T + b, atol=1e-12)
