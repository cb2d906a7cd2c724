"""Structure data: residuals, constructive extension, integration, alignment."""

import dataclasses
import json
import math
import os
import signal
import warnings

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline
from scipy.linalg import expm

from conftest import OPEN_MESH, UNGATED, random_unimodular, regular_points
from frontal_lab import forks, frame, reconstruct
from frontal_lab.blaschke import AFFINE_NORMAL, blaschke_field
from frontal_lab.catalog import get_entry
from frontal_lab.equiaffine import TransversalField
from frontal_lab.errors import (CompatibilityViolated, ConditionFailed,
                                DomainError,
                                FrameDegenerate, InputError,
                                InsufficientJetOrder, IntegrabilityViolated,
                                RankDeficient)
from frontal_lab.frame import frame_bundle
from frontal_lab.jets import INDICES, Jet, _mat_values
from frontal_lab.reconstruct import (GridField, StructureData, affine_align,
                                     apolarity_check, compat_residual,
                                     expr_entry, extend_D, extract_structure,
                                     integrability_residual, integrate_frame,
                                     solver3_jet, stack_blocks)
from frontal_lab.structio import read_structure_file, write_structure_file

VERTICAL = TransversalField.constant((0.0, 0.0, 1.0))


def synthetic_sd(d1, d2, h=None, s=None, lam=None, i_omega=None, phi=None,
                 domain=(-1.0, 1.0, -1.0, 1.0), W0=None, p=(0.0, 0.0, 0.0)):
    return StructureData(
        domain=domain, basepoint=(domain[0], domain[2]),
        W0=np.eye(3) if W0 is None else np.asarray(W0, dtype=float),
        p=np.asarray(p, dtype=float),
        lam=expr_entry(lam or ["1", "0", "0", "1"]),
        i_omega=expr_entry(i_omega or ["1", "0", "0", "1"]),
        blocks=stack_blocks(expr_entry(d1), expr_entry(d2),
                            expr_entry(h or ["0", "0", "0", "0"]),
                            expr_entry(s or ["0", "0", "0", "0"])),
        phi=expr_entry(phi or "1"))


class TestCompatResidual:
    def test_zero_symbols(self):
        sd = synthetic_sd(["0"] * 4, ["0"] * 4)
        u = np.linspace(-0.9, 0.9, 7)
        assert compat_residual(sd, u, u) == (0.0, 1.0)

    def test_u2_dependent_entry_measures_derivative(self):
        # D1 with a u2-dependent corner entry and D2 = 0: the commutator
        # vanishes, so the defect is exactly the u2-derivative (= 3)
        sd = synthetic_sd(["3*u2", "0", "0", "0"], ["0"] * 4)
        u = np.linspace(-0.5, 0.5, 5)
        resid, scale = compat_residual(sd, u, u)
        assert resid == pytest.approx(3.0, abs=1e-12)
        assert scale == pytest.approx(1.5, abs=1e-12)

    def test_extracted_wavefront_structure(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        u1, u2 = regular_points(ex510, 30, seed=1)
        assert compat_residual(sd, u1, u2)[0] < 1e-7

    def test_extracted_blaschke_structure(self, ex59):
        blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, AFFINE_NORMAL)
        u1, u2 = regular_points(ex59, 30, seed=2)
        assert compat_residual(sd, u1, u2)[0] < 1e-7


class TestIntegrabilityResidual:
    def test_plane_data(self, plane):
        sd = extract_structure(plane, VERTICAL)
        u = np.linspace(-0.9, 0.9, 7)
        sym, row = integrability_residual(sd, u, u)
        assert sym == pytest.approx(0.0, abs=1e-14)
        assert row == pytest.approx(0.0, abs=1e-14)

    def test_quintic_edge_structure(self, ex59):
        blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, AFFINE_NORMAL)
        u1, u2 = regular_points(ex59, 30, seed=3)
        sym, row = integrability_residual(sd, u1, u2)
        assert sym < 1e-8 and row < 1e-8

    def test_injected_asymmetry_detected(self):
        # Lambda = I, h with asymmetric off-diagonal: residual is the gap
        sd = synthetic_sd(["0"] * 4, ["0"] * 4,
                          h=["0", "1/4", "-1/4", "0"])
        u = np.linspace(-0.5, 0.5, 5)
        sym, row = integrability_residual(sd, u, u)
        assert sym == pytest.approx(0.5, abs=1e-14)
        assert row == pytest.approx(0.0, abs=1e-14)


class TestExtendD:
    def test_matches_direct_solve_everywhere(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        # includes points on the singular diagonals
        u1 = np.array([0.5, 0.3, 0.3, -0.4])
        u2 = np.array([0.1, 0.3, -0.3, 0.1])
        for which in (1, 2):
            D, omega = extend_D(sd, which, u1, u2)
            ref = sd.blocks(u1, u2, 0)[which - 1]
            ref_v = np.stack([np.stack(
                [np.broadcast_to(np.asarray(ref[i][j].value, dtype=float),
                                 u1.shape) for j in range(2)], axis=-1)
                for i in range(2)], axis=-2)
            assert np.max(np.abs(D - ref_v)) < 1e-7

    def test_identity_factor_trivial_extension(self):
        # Lambda = I means the membership ratio is plain division by 1
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, i_omega=["1", "0", "0", "1"],
                          h=["1", "0", "0", "1"], phi="1")
        D, omega = extend_D(sd, 1, np.array([0.2]), np.array([0.3]))
        assert np.max(np.abs(omega)) < 1e-12

    def test_condition_failed_on_bad_data(self, config):
        # factor rows (1,0),(1,u2) with first form diag(2+u2, 1) puts the
        # constant 1 into the certificate numerator: 1/u2 diverges
        sd = synthetic_sd(["0"] * 4, ["0"] * 4,
                          lam=["1", "0", "1", "u2"],
                          i_omega=["2 + u2", "0", "0", "1"],
                          h=["1", "0", "0", "1"], phi="1")
        with pytest.raises(ConditionFailed):
            extend_D(sd, 1, np.array([0.3]), np.array([0.0]), config)

    def test_fault_in_a_field_propagates(self, config):
        # a programming error inside a field is not an unusable probe
        # sample: it must surface instead of becoming a failed certificate
        def broken(u1, u2, order):
            raise TypeError("broken field")

        sd = synthetic_sd(["0"] * 4, ["0"] * 4, lam=["1", "0", "0", "u2"],
                          h=["1", "0", "0", "1"])
        sd.phi = broken
        with pytest.raises(TypeError, match="broken field"):
            extend_D(sd, 1, np.array([0.3]), np.array([0.0]), config)


class TestApolarity:
    def test_paraboloid_blaschke(self, paraboloid):
        blaschke_field(paraboloid, shape=(15, 15))
        sd = extract_structure(paraboloid, AFFINE_NORMAL)
        u1, u2 = regular_points(paraboloid, 25, seed=4)
        assert apolarity_check(sd, u1, u2) < 1e-8

    def test_rank1_wavefront_blaschke(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        u1, u2 = regular_points(ex510, 25, seed=5)
        assert apolarity_check(sd, u1, u2) < 1e-6

    def test_constant_scaling_preserves_apolarity(self, ex510):
        # doubling the field rescales the affine metric volume by a
        # constant, so the parallel-volume defect stays zero; the scaling
        # is caught by the volume-match verification instead
        doubled = TransversalField.constant((0.0, 0.0, 2.0))
        sd = extract_structure(ex510, doubled)
        u1, u2 = regular_points(ex510, 25, seed=6)
        assert apolarity_check(sd, u1, u2) < 1e-6

    def test_nan_block_is_not_hidden(self):
        # D1 is NaN at alternate points; the clean points alone give 0.0
        zero = expr_entry(["0"] * 4)
        sd = synthetic_sd(["0"] * 4, ["0"] * 4)
        sd.blocks = stack_blocks(
            _nan_where(lambda u1, u2: np.arange(u1.size) % 2 == 0), zero,
            expr_entry(["1", "0", "0", "1"]), zero)
        u1 = np.linspace(-0.8, 0.8, 5)
        assert np.isnan(apolarity_check(sd, u1, np.zeros(5)))


class TestIntegrateFrame:
    def test_zero_symbols_keep_initial_frame(self):
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, W0=np.diag([1.0, 2.0, 3.0]))
        ff = integrate_frame(sd, shape=(7, 7), step=1e-2)
        assert np.max(np.abs(ff.W - np.diag([1.0, 2.0, 3.0]))) < 1e-13

    def test_constant_coefficients_match_matrix_exponential(self):
        # D1 constant, D2 = 0 is flat; the frame is W0 exp(u1 D1aug^T)
        d1 = ["0", "1/2", "0", "0"]
        h = ["1/4", "0", "0", "0"]
        s = ["0", "1/8", "0", "0"]
        sd = synthetic_sd(d1, ["0"] * 4, h=h, s=s)
        ff = integrate_frame(sd, shape=(9, 9), step=1e-3)
        D1aug = np.array([[0.0, 0.5, 0.25], [0.0, 0.0, 0.0],
                          [0.0, -0.125, 0.0]])
        q1 = sd.basepoint[0]
        for i in (0, 4, 8):
            t = ff.u1_nodes[i] - q1
            ref = expm(t * D1aug.T)
            assert np.max(np.abs(ff.W[i, 0] - ref)) < 1e-9

    def test_wavefront_frame_matches_analytic(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        ff = integrate_frame(sd, shape=(11, 11), step=2e-3)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        b = frame_bundle(ex510, U1, U2)
        W_true = np.stack([
            b.w1.values_on(U1.shape), b.w2.values_on(U1.shape),
            np.broadcast_to([0.0, 0.0, 1.0], U1.shape + (3,))], axis=-1)
        assert np.max(np.abs(ff.W - W_true)) < 1e-5

    def test_incompatible_data_rejected(self):
        sd = synthetic_sd(["3*u2", "0", "0", "0"], ["0"] * 4)
        with pytest.raises(CompatibilityViolated):
            integrate_frame(sd, shape=(7, 7), step=1e-2)

    def test_compat_check_beyond_jet_budget_named(self, ex59, monkeypatch):
        # without closed-form K the affine normal loses three orders, so
        # the order-1 symbols of the compatibility check need order-4 jets
        numeric = ex59.stripped()
        blaschke_field(numeric, (9, 9))
        sd = extract_structure(numeric, AFFINE_NORMAL)
        calls = []
        monkeypatch.setattr(StructureData, "aug_values",
                            lambda self, u1, u2, axis: calls.append(u1))
        with pytest.raises(InsufficientJetOrder, match="jet budget") as exc:
            integrate_frame(sd, shape=(9, 9))
        assert "order-1 structure jets need order-4" in str(exc.value)
        assert "loses 3 orders" in str(exc.value)
        assert calls == []

    @pytest.mark.parametrize("step, refused", [(0.025, False),
                                               (0.0249, True)])
    def test_substep_bound_refused_before_sampling(self, monkeypatch, step,
                                                   refused):
        # the 5x5 lattice of [0, 1]^2 has nodes 0.25 apart: 0.025 takes
        # exactly MAX_SUBSTEPS = 10 substeps a segment, 0.0249 one more,
        # and that march is refused before it samples or sizes anything
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, domain=(0.0, 1.0, 0.0, 1.0))
        calls = []
        aug_values = StructureData.aug_values
        monkeypatch.setattr(reconstruct, "MAX_SUBSTEPS", 10)
        monkeypatch.setattr(StructureData, "aug_values",
                            lambda self, *call: calls.append(call)
                            or aug_values(self, *call))
        if not refused:
            integrate_frame(sd, shape=(5, 5), step=step)
            assert calls
            return
        with pytest.raises(InputError, match="more than 10 substeps"):
            integrate_frame(sd, shape=(5, 5), step=step)
        assert calls == []


class TestRoundTrips:
    def test_plane_from_trivial_data(self):
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, p=(1.0, -2.0, 3.0))
        ff = integrate_frame(sd, shape=(7, 7), step=1e-2)
        x = ff.x
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        expected = np.stack([U1 - sd.basepoint[0] + 1.0,
                             U2 - sd.basepoint[1] - 2.0,
                             np.full_like(U1, 3.0)], axis=-1)
        assert np.max(np.abs(x - expected)) < 1e-12

    def test_flat_data_from_an_off_node_basepoint(self):
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, domain=(0.0, 1.0, 0.0, 1.0))
        sd.basepoint = (0.52, 0.52)
        ff = integrate_frame(sd, shape=(21, 21))
        np.testing.assert_allclose(ff.x[10, 10], [-0.02, -0.02, 0.0],
                                   atol=1e-12)

    def test_curved_data_from_an_off_node_basepoint(self, ex510):
        # W0 and p taken at a basepoint between the lattice nodes: the
        # rebuild reproduces x itself, not x shifted by the gap to a node
        sd = extract_structure(ex510, VERTICAL)
        q1, q2 = 0.13, -0.31
        b = frame_bundle(ex510, np.array([q1]), np.array([q2]), 0)
        sd.basepoint = (q1, q2)
        sd.W0 = np.stack([b.w1.values_on((1,))[0], b.w2.values_on((1,))[0],
                          [0.0, 0.0, 1.0]], axis=-1)
        sd.p = ex510.x(np.array([q1]), np.array([q2]), 0).values_on((1,))[0]
        ff = integrate_frame(sd, shape=(11, 11), step=1e-3)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = ex510.x(U1, U2, 0).values_stacked()
        assert np.max(np.abs(ff.x - x_true)) < 1e-6

    def test_quintic_edge_round_trip(self, ex59):
        blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, AFFINE_NORMAL)
        ff = integrate_frame(sd, shape=(11, 11), step=1e-3)
        x = ff.x
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = ex59.x(U1, U2, 0).values_stacked()
        L, a, sup = affine_align(x, x_true)
        assert sup < 1e-4
        assert ff.discrepancy < 1e-4

    def test_rank1_wavefront_round_trip(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        ff = integrate_frame(sd, shape=(11, 11), step=1e-3)
        x = ff.x
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = ex510.x(U1, U2, 0).values_stacked()
        L, a, sup = affine_align(x, x_true)
        assert sup < 1e-4

    def test_step_refinement_is_fourth_order(self, ex59):
        blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, AFFINE_NORMAL)
        coarse = integrate_frame(sd, shape=(9, 9), step=4e-3, config=UNGATED)
        fine = integrate_frame(sd, shape=(9, 9), step=2e-3, config=UNGATED)
        assert coarse.discrepancy / fine.discrepancy >= 8.0

    def test_frame_determinant_keeps_sign(self, ex59):
        blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, AFFINE_NORMAL)
        ff = integrate_frame(sd, shape=(9, 9), step=2e-3)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        det = np.linalg.det(ff.W)
        assert np.min(det) * np.max(det) > 0.0

    def test_gamma_flatness_tracks_d_flatness(self, ex510):
        # on the regular part the conjugated blocks satisfy the same
        # flatness identity as the extended blocks; the conjugated route
        # blows up near the singular set, so sample well away from it
        sd = extract_structure(ex510, VERTICAL)
        u1, u2 = regular_points(ex510, 20, seed=7, min_lam=4.0)
        h = 1e-5

        def gamma(k, uu1, uu2):
            lam_j = sd.lam(uu1, uu2, 1)
            d_j = sd.blocks(uu1, uu2, 0)[k]
            shape = np.shape(uu1)

            def v(m):
                return np.stack([np.stack(
                    [np.broadcast_to(np.asarray(m[i][j].value, dtype=float),
                                     shape) for j in range(2)], axis=-1)
                    for i in range(2)], axis=-2)

            lam_v = v(lam_j)
            lam_uk = np.stack([np.stack(
                [np.broadcast_to(np.asarray(lam_j[i][j].deriv(k).value,
                                            dtype=float), shape)
                 for j in range(2)], axis=-1) for i in range(2)], axis=-2)
            return (lam_uk + lam_v @ v(d_j)) @ np.linalg.inv(lam_v)

        g1_u2 = (gamma(0, u1, u2 + h) - gamma(0, u1, u2 - h)) / (2 * h)
        g2_u1 = (gamma(1, u1 + h, u2) - gamma(1, u1 - h, u2)) / (2 * h)
        g1 = gamma(0, u1, u2)
        g2 = gamma(1, u1, u2)
        resid = g1_u2 - g2_u1 + g1 @ g2 - g2 @ g1
        assert np.max(np.abs(resid)) < 1e-6


# --- open-mesh evaluation and the batched sweep -----------------------------


def _full(u1, u2):
    """The points of an open mesh, materialised."""
    return tuple(np.array(a) for a in np.broadcast_arrays(u1, u2))


def _coeff_arrays(jets, shape):
    """Every coefficient of a jet or 2x2 jet matrix, broadcast to shape."""
    rows = jets if isinstance(jets, list) else [[jets]]
    return [np.broadcast_to(c, shape) for row in rows for jet in row
            for c in jet.coeffs]


def _assert_equal_on_mesh(entry, mesh, order):
    shape = np.broadcast_shapes(*(np.shape(a) for a in mesh))
    got = _coeff_arrays(entry(*mesh, order), shape)
    want = _coeff_arrays(entry(*_full(*mesh), order), shape)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


ABSCISSAE = {
    "ascending": np.linspace(-0.9, 0.8, 7),
    "descending": np.linspace(0.8, -0.9, 7),
    # segment ends can repeat, and the down sweeps descend
    "repeated": np.array([0.3, -0.2, 0.3, 0.3, 0.55, -0.2, -0.9]),
}


def _mesh(ts, lanes, transposed):
    """Open mesh of sweep abscissae ts by fixed lanes: ts along u1, or
    along u2 when transposed."""
    mesh = (ts[:, None], lanes[None, :])
    return mesh[::-1] if transposed else mesh


class TestOpenMesh:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("kind", sorted(ABSCISSAE))
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["along-u1", "along-u2"])
    def test_grid_entry_matches_pointwise(self, order, kind, transposed):
        rng = np.random.default_rng(11)
        entry = GridField((-1.0, 1.0, -1.0, 1.0), rng.normal(size=(4, 9, 7)))
        lanes = np.array([-0.7, 0.1, 0.6, 0.95])
        _assert_equal_on_mesh(
            entry, _mesh(ABSCISSAE[kind], lanes, transposed), order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["along-u1", "along-u2"])
    def test_expression_entry_matches_pointwise(self, order, transposed):
        entry = expr_entry(["sin(u1*u2) + u1", "exp(u2)/(2 + u1^2)",
                            "sqrt(3 + u1 - u2)", "u1/(3 + u2)"])
        lanes = np.array([-0.7, 0.1, 0.6])
        for ts in ABSCISSAE.values():
            _assert_equal_on_mesh(entry, _mesh(ts, lanes, transposed), order)

    def test_grid_entry_order_3_names_the_spline_limit(self):
        entry = GridField((-1.0, 1.0, -1.0, 1.0), np.zeros((5, 5)))
        u = np.array([0.1, 0.2])
        with pytest.raises(InsufficientJetOrder,
                           match="order-3 .* limit of order 2"):
            entry(u, u, 3)


# --- the grid interpolant ----------------------------------------------------------

# an off-centre domain, and grids from the spline's 4x4 minimum to 65x65
SPLINE_DOMAIN = (-1.0, 1.5, -0.5, 2.0)
SPLINE_GRIDS = [(4, 4), (4, 9), (11, 5), (33, 21), (40, 65), (65, 65)]


def _fitpack(values):
    """scipy's interpolating bicubic (FITPACK, s=0) of samples on the
    uniform grid over SPLINE_DOMAIN: the oracle of GridField."""
    a1, b1, a2, b2 = SPLINE_DOMAIN
    nx, ny = values.shape
    return RectBivariateSpline(np.linspace(a1, b1, nx),
                               np.linspace(a2, b2, ny), values, kx=3, ky=3)


def _bicubic(c, u1, u2, i, j):
    """d^i/du1^i d^j/du2^j of sum_ab c[a, b] u1^a u2^b."""
    return sum(c[a, b] * math.perm(a, i) * u1 ** (a - i)
               * math.perm(b, j) * u2 ** (b - j)
               for a in range(i, 4) for b in range(j, 4))


class TestGridField:
    @pytest.mark.parametrize("points", ["mesh", "scattered"])
    @pytest.mark.parametrize("shape", SPLINE_GRIDS,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_fitpack(self, shape, points):
        rng = np.random.default_rng(100 * shape[0] + shape[1])
        values = rng.normal(size=shape)
        a1, b1, a2, b2 = SPLINE_DOMAIN
        if points == "mesh":
            # a descending axis, as the down sweeps have
            u1 = np.linspace(a1, b1, 37)[:, None]
            u2 = np.linspace(b2, a2, 29)[None, :]
        else:
            u1 = rng.uniform(a1, b1, 500)
            u2 = rng.uniform(a2, b2, 500)
        jet = GridField(SPLINE_DOMAIN, values)(u1, u2, 2)
        oracle = _fitpack(values)
        for (i, j), got in zip(INDICES[2], jet.coeffs):
            want = oracle.ev(*np.broadcast_arrays(u1, u2), dx=i, dy=j)
            assert np.max(np.abs(got - want)) <= \
                1e-12 * np.max(np.abs(want)), (i, j)

    @pytest.mark.parametrize("shape", [(4, 4), (6, 9)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_reproduces_bicubic_polynomials(self, shape):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(4, 4))
        a1, b1, a2, b2 = SPLINE_DOMAIN
        g1, g2 = np.meshgrid(np.linspace(a1, b1, shape[0]),
                             np.linspace(a2, b2, shape[1]), indexing="ij")
        u1 = np.concatenate([rng.uniform(a1, b1, 200), [a1, b1, a1, b1]])
        u2 = np.concatenate([rng.uniform(a2, b2, 200), [a2, b2, b2, a2]])
        jet = GridField(SPLINE_DOMAIN, _bicubic(c, g1, g2, 0, 0))(u1, u2, 2)
        for (i, j), got in zip(INDICES[2], jet.coeffs):
            want = _bicubic(c, u1, u2, i, j)
            assert np.max(np.abs(got - want)) <= \
                1e-13 * np.max(np.abs(want)), (i, j)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_edges_clamp_as_fitpack(self, order):
        """A point on the edge and one an ulp beyond read the same bits,
        the spline at the edge; so does one far outside."""
        rng = np.random.default_rng(3)
        values = rng.normal(size=(7, 6))
        entry = GridField(SPLINE_DOMAIN, values)
        a1, b1, a2, b2 = SPLINE_DOMAIN
        lo1, hi1 = np.nextafter(a1, -np.inf), np.nextafter(b1, np.inf)
        lo2, hi2 = np.nextafter(a2, -np.inf), np.nextafter(b2, np.inf)
        edge = entry(np.array([a1, b1, 0.3, 0.3, a1, b1]),
                     np.array([0.7, 1.1, a2, b2, a2, b2]), order).coeffs
        beyond = (np.array([lo1, hi1, 0.3, 0.3, lo1, hi1]),
                  np.array([0.7, 1.1, lo2, hi2, lo2, hi2]))
        far = (np.array([-5.0, 5.0, 0.3, 0.3, -5.0, 5.0]),
               np.array([0.7, 1.1, -5.0, 5.0, -5.0, 5.0]))
        oracle = _fitpack(values)
        for u1, u2 in (beyond, far):
            got = entry(u1, u2, order).coeffs
            for (i, j), g, e in zip(INDICES[order], got, edge):
                assert np.array_equal(g, e)
                want = oracle.ev(u1, u2, dx=i, dy=j)
                assert np.max(np.abs(g - want)) <= \
                    1e-12 * np.max(np.abs(want))


def per_segment_sweep(sd, state, fixed, moving_nodes, axis, step):
    """Reference RK4 sweep: one coefficient evaluation per segment, on
    flattened points.  The batched sweep must match it bit for bit."""
    m = state.shape[0]
    n = moving_nodes.size
    out = np.empty((n,) + state.shape)
    out[0] = state
    if n == 1:
        return out
    delta = moving_nodes[1] - moving_nodes[0]
    nsub = max(1, int(math.ceil(abs(delta) / step)))
    h = delta / nsub
    for seg in range(n - 1):
        ts = moving_nodes[seg] + 0.5 * h * np.arange(2 * nsub + 1)
        if axis == 0:
            uu1, uu2 = np.repeat(ts, m), np.tile(fixed, ts.size)
        else:
            uu1, uu2 = np.tile(fixed, ts.size), np.repeat(ts, m)
        daug, lam_row = sd.aug_values(uu1, uu2, axis)
        A = np.zeros(uu1.shape + (4, 4))
        A[..., :3, :3] = np.swapaxes(daug, -1, -2)
        A[..., 0, 3] = lam_row[..., 0]
        A[..., 1, 3] = lam_row[..., 1]
        A = A.reshape(ts.size, m, 4, 4)
        y = out[seg]
        for i in range(nsub):
            a0, a1, a2 = A[2 * i], A[2 * i + 1], A[2 * i + 2]
            k1 = y @ a0
            k2 = (y + 0.5 * h * k1) @ a1
            k3 = (y + 0.5 * h * k2) @ a1
            k4 = (y + h * k3) @ a2
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[seg + 1] = y
    return out


def per_lattice_reference(sd, shape, step):
    """Reference integration: the rows lattice and then the columns
    lattice, each marched to the basepoint's node, down a spine and then
    across the family, one per_segment_sweep at a time.  Returns the
    frame, the position and the two path audits as integrate_frame
    computes them, which must match them bit for bit."""
    a1, b1, a2, b2 = sd.domain
    nodes = (np.linspace(a1, b1, shape[0]), np.linspace(a2, b2, shape[1]))
    base = [int(np.argmin(np.abs(t - q))) for t, q in zip(nodes, sd.basepoint)]

    def both_ways(state, fixed, axis):
        k, t = base[axis], nodes[axis]
        out = np.empty((t.size,) + state.shape)
        out[k:] = per_segment_sweep(sd, state, fixed, t[k:], axis, step)
        out[k::-1] = per_segment_sweep(sd, state, fixed, t[k::-1], axis, step)
        return out

    def lattice(spine_axis):
        state = np.concatenate([sd.W0, sd.p[:, None]], axis=1)[None, ...]
        for axis, fixed in ((0, sd.basepoint[1]), (1, nodes[0][base[0]])):
            start, node = sd.basepoint[axis], nodes[axis][base[axis]]
            if start != node:
                state = per_segment_sweep(sd, state, np.array([fixed]),
                                          np.array([start, node]), axis,
                                          step)[-1]
        other = 1 - spine_axis
        spine = both_ways(state, nodes[other][base[other]:base[other] + 1],
                          spine_axis)[:, 0]
        Y = both_ways(spine, nodes[spine_axis], other)
        return Y if other == 0 else np.moveaxis(Y, 0, 1)

    rows, cols = lattice(1), lattice(0)
    return (rows[..., :3], rows[..., 3],
            float(np.max(np.abs(rows[..., :3] - cols[..., :3]))),
            float(np.max(np.abs(rows[..., 3] - cols[..., 3]))))


def assert_matches_reference(ff, ref):
    W, x, disc_w, disc_x = ref
    for got, want in ((ff.W, W), (ff.x, x), (ff.discrepancy, disc_w),
                      (ff.x_discrepancy, disc_x)):
        got, want = np.asarray(got, dtype=float), np.asarray(want)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture(scope="module")
def file_backed_sd(ex510, tmp_path_factory):
    path = tmp_path_factory.mktemp("structure") / "s.json"
    write_structure_file(path, extract_structure(ex510, VERTICAL), (17, 17))
    return read_structure_file(path)


# the nodes of a 7-point lattice axis of synthetic_sd's domain
_NODES = np.linspace(-1.0, 1.0, 7)


def _between(t):
    return ~np.isin(t, _NODES)


def _nan_where(mask):
    """2x2 entry that is NaN where mask(u1, u2) holds and 0 elsewhere."""
    def entry(u1, u2, order):
        u1, u2 = np.broadcast_arrays(u1, u2)
        jet = Jet.constant(np.where(mask(u1, u2), np.nan, 0.0), order)
        return [[jet, jet], [jet, jet]]
    return entry


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def _both_blocks(d1, d2, h, s):
    """Both augmented blocks from one evaluation of (D1, D2, h, S), each
    with the corner h[0][0] * 0.0: the blocks as assembled before a sweep
    asked for one axis."""
    zero = h[0][0] * 0.0
    return ([[d1[0][0], d1[0][1], h[0][0]], [d1[1][0], d1[1][1], h[1][0]],
             [-s[0][0], -s[0][1], zero]],
            [[d2[0][0], d2[0][1], h[0][1]], [d2[1][0], d2[1][1], h[1][1]],
             [-s[1][0], -s[1][1], zero]])


def _six_solves(b, xj):
    """(D1, D2, h, S) by six Cramer solves on the full jets of the bundle
    and the field, every component of each."""
    solve = solver3_jet(b.w1, b.w2, xj)
    w = [[solve(wi.deriv(j)) for j in range(2)] for wi in (b.w1, b.w2)]
    d1, d2 = [[[w[i][j][0], w[i][j][1]] for i in range(2)] for j in range(2)]
    h = [[w[i][j][2] for j in range(2)] for i in range(2)]
    s = [[-y for y in solve(xj.deriv(i))[:2]] for i in range(2)]
    return d1, d2, h, s


# an open mesh, like a sweep's, off the singular line u2 = 0 of ex-5.9;
# at u2 < 0, h[0][0] and h[0][1] differ in sign, so the corner of A_2
# tells h[0][0] * 0.0 from h[0][1] * 0.0
_MESH = OPEN_MESH


def _assert_axis_values_are_bit_equal(sd, both, lam):
    shape = np.broadcast_shapes(*(np.shape(u) for u in _MESH))
    for axis in (0, 1):
        block, lam_row = sd.aug_values(*_MESH, axis)
        assert np.array_equal(_bits(block),
                              _bits(_mat_values(both()[axis], shape)))
        assert np.array_equal(_bits(lam_row),
                              _bits(_mat_values(lam, shape)[..., axis, :]))


class TestPerAxisBlocks:
    # a sweep along u_j reads A_j alone, solved on jets truncated to the
    # order it reads; jet arithmetic is graded, so the values keep every
    # bit of the blocks assembled from both axes on the full jets
    @pytest.mark.parametrize("name, field", [
        ("ex-5.9", "blaschke"), ("ex-5.9", "normal"), ("ex-5.9", "vertical"),
        ("gen-extendable-nc", "normal"), ("gen-extendable-nc", "vertical")])
    def test_extracted_values_match_six_full_solves(self, name, field,
                                                    monkeypatch):
        f = get_entry(name).build()
        if field == "blaschke":
            blaschke_field(f, (9, 9))
        xi = {"blaschke": AFFINE_NORMAL,
              "normal": TransversalField.unit_normal(),
              "vertical": VERTICAL}[field]
        sd = extract_structure(f, xi)
        bundles = []

        def recorded(*args):
            bundles.append(frame_bundle(*args))
            return bundles[-1]

        monkeypatch.setattr(reconstruct, "frame_bundle", recorded)

        def both():
            b = bundles[-1]
            return _both_blocks(*_six_solves(b, xi.jets(b)))

        _assert_axis_values_are_bit_equal(sd, both, sd.lam(*_MESH, 0))

    @pytest.mark.parametrize("kind", ["grid", "expr"])
    def test_file_values_match_both_blocks(self, kind, ex510, tmp_path):
        path = tmp_path / "s.json"
        if kind == "grid":
            write_structure_file(path, extract_structure(ex510, VERTICAL),
                                 (9, 9))
        else:
            entries = {"Lambda": ["1", "u1", "0", "1 + u2^2"],
                       "I_Omega": ["1", "0", "0", "1"],
                       "D1": ["u1*u2", "1/2", "-u2", "0"],
                       "D2": ["0", "u1^2", "1", "-u1"],
                       "h": ["1", "u2/3", "u2/3", "-1"],
                       "S": ["u1", "0", "1/4", "u2"], "phi": ["1"]}
            path.write_text(json.dumps({
                "schema_version": 1, "domain": [-1.0, 1.0, -1.0, 1.0],
                "basepoint": [0.0, 0.0], "W0": np.eye(3).tolist(),
                "p": [0.0, 0.0, 0.0],
                "entries": {k: {"expr": v} for k, v in entries.items()}}))
        sd = read_structure_file(path)
        doc = json.loads(path.read_text())

        def entry(name):
            spec = doc["entries"][name]
            if kind == "expr":
                return expr_entry(spec["expr"])
            grid = spec["grid"]
            return GridField(doc["domain"], np.reshape(
                grid["values"], (4, grid["nx"], grid["ny"])))

        d1, d2, h, s, lam = (entry(name)(*_MESH, 0)
                             for name in ("D1", "D2", "h", "S", "Lambda"))
        _assert_axis_values_are_bit_equal(
            sd, lambda: _both_blocks(d1, d2, h, s), lam)

    def test_a_sweep_evaluates_only_its_own_connection_symbols(self):
        calls = []

        def counted(name, entry):
            def evaluate(u1, u2, order):
                calls.append(name)
                return entry(u1, u2, order)
            return evaluate

        sd = synthetic_sd(["0"] * 4, ["0"] * 4)
        zero = expr_entry(["0"] * 4)
        sd.blocks = stack_blocks(
            counted("D1", expr_entry(["0", "1/2", "0", "0"])),
            counted("D2", expr_entry(["0", "0", "u1", "0"])), zero, zero)
        state = np.concatenate([sd.W0, sd.p[:, None]], axis=1)[None, ...]
        nodes = np.linspace(-1.0, 1.0, 5)
        for axis, name in ((0, "D1"), (1, "D2")):
            calls.clear()
            reconstruct._march(sd, [(state, np.array([0.3]), nodes, axis)],
                               1e-2)
            assert calls and set(calls) == {name}


@pytest.fixture(scope="module")
def ex59_sd(ex59):
    blaschke_field(ex59, (21, 21))
    return extract_structure(ex59, AFFINE_NORMAL)


class TestBatchedSweep:
    @pytest.mark.parametrize("source", ["ex-5.9-blaschke", "file"])
    def test_matches_per_segment_sweep(self, source, ex59_sd, file_backed_sd,
                                       monkeypatch):
        sd = file_backed_sd if source == "file" else ex59_sd
        ref = per_lattice_reference(sd, (9, 9), 1e-2)
        # a family segment of this lattice holds 49 abscissae x 9 lanes:
        # lane blocks of 20 and 120 of its points, which end inside a
        # row of lanes, calls of several segments, and the module's lane
        # budget
        for lanes in (20, 120, 1000, frame.SWEEP_LANES):
            monkeypatch.setattr(frame, "SWEEP_LANES", lanes)
            ff = integrate_frame(sd, shape=(9, 9), step=1e-2,
                                 config=UNGATED)
            assert_matches_reference(ff, ref)
            assert ff.min_det == float(np.min(np.abs(np.linalg.det(ref[0]))))

    # the lanes of both lattices march together where their sweeps have
    # the same node count and substep count, and apart where they do
    # not: non-square lattices (on ex-5.9's square domain, a 9-node axis
    # takes 24 substeps a segment at this step and a 13-node axis 16), a
    # basepoint between the nodes (a march to its node, then up and down
    # sweeps of unequal lengths), one at the middle node (up and down
    # sweeps of equal lengths march together with opposite steps), and a
    # single row or column
    @pytest.mark.parametrize("shape, basepoint", [
        ((9, 13), None), ((13, 9), None), ((15, 11), (0.13, -0.21)),
        ((9, 9), "middle"), ((1, 9), (0.13, -0.21)), ((9, 1), None)],
        ids=["9x13", "13x9", "15x11-interior", "9x9-middle", "1x9-interior",
             "9x1"])
    @pytest.mark.parametrize("source", ["ex-5.9-blaschke", "file"])
    def test_matches_per_lattice_reference(self, source, shape, basepoint,
                                           ex59_sd, file_backed_sd):
        sd = file_backed_sd if source == "file" else ex59_sd
        if basepoint == "middle":
            a1, b1, a2, b2 = sd.domain
            basepoint = (np.linspace(a1, b1, 9)[4], np.linspace(a2, b2, 9)[4])
        if basepoint is not None:
            sd = dataclasses.replace(sd, basepoint=basepoint)
        ff = integrate_frame(sd, shape=shape, step=1e-2, config=UNGATED)
        assert_matches_reference(ff, per_lattice_reference(sd, shape, 1e-2))

    def test_rectangular_domain_matches_per_lattice_reference(self):
        # a 7x11 lattice of a 1.6 x 0.8 domain: the u1 and u2 segments
        # take different substep counts (26 and 8 at this step)
        f = get_entry("gen-rank1-wavefront",
                      {"domain": (-0.8, 0.8, -0.4, 0.4)}).build()
        sd = extract_structure(f, TransversalField.unit_normal())
        ff = integrate_frame(sd, shape=(7, 11), step=1e-2, config=UNGATED)
        assert_matches_reference(ff, per_lattice_reference(sd, (7, 11),
                                                           1e-2))

    # 21x21 lattice, 193 abscissae per segment: each family segment (21
    # lanes, 4,053 points) is one call and each spine (20 segments, 3,860
    # points) one call, 42 in all where one call per segment made 80; the
    # points sampled stay the same
    WHOLE_SEGMENTS_SD = dict(d1=["0"] * 4, d2=["0"] * 4,
                             domain=(0.0, 1.91, 0.0, 1.91))

    def test_sweeps_sample_whole_segments(self, monkeypatch):
        sd = synthetic_sd(**self.WHOLE_SEGMENTS_SD)
        sizes = []
        aug_values = StructureData.aug_values

        def counted(self, u1, u2, axis):
            sizes.append(np.broadcast(u1, u2).size)
            return aug_values(self, u1, u2, axis)

        monkeypatch.setattr(forks, "usable_cores", lambda: 1)
        monkeypatch.setattr(StructureData, "aug_values", counted)
        integrate_frame(sd, (21, 21), step=1e-3)
        assert len(sizes) == 42
        assert sum(sizes) == 2 * 20 * (193 + 193 * 21)

    def test_sweeps_sample_whole_segments_on_two_cores(self, monkeypatch,
                                                       tmp_path):
        # the same calls when the families sample in a child as well: each
        # call appends its process and size to one file, whichever
        # process makes it
        sd = synthetic_sd(**self.WHOLE_SEGMENTS_SD)
        log = os.open(tmp_path / "calls", os.O_WRONLY | os.O_APPEND
                      | os.O_CREAT)
        aug_values = StructureData.aug_values

        def counted(self, u1, u2, axis):
            os.write(log, f"{os.getpid()} {np.broadcast(u1, u2).size}\n"
                     .encode())
            return aug_values(self, u1, u2, axis)

        monkeypatch.setattr(forks, "usable_cores", lambda: 2)
        monkeypatch.setattr(StructureData, "aug_values", counted)
        try:
            integrate_frame(sd, (21, 21), step=1e-3)
        finally:
            os.close(log)
        calls = [line.split() for line in
                 (tmp_path / "calls").read_text().splitlines()]
        assert len({pid for pid, _ in calls}) == 2
        assert len(calls) == 42
        assert sum(int(size) for _, size in calls) == 2 * 20 * (193 + 193 * 21)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_group_reads_batches_of_its_widest_sweep(self, monkeypatch):
        # two sweeps along u1 over 9 nodes, up with 3 lanes and down with
        # 5, so one group: 8 segments of 17 abscissae (8 substeps of
        # 1/32), and a budget of two segments of the 5-lane sweep (170
        # points), which would hold three of the 3-lane sweep
        sd = synthetic_sd(["u2", "u1*u2", "1/2", "-u1"], ["0"] * 4,
                          h=["u1", "0", "0", "1 + u2"])
        nodes = np.linspace(-1.0, 1.0, 9)
        base = np.concatenate([np.eye(3), np.zeros((3, 1))], axis=1)
        sweeps = [(base * (1.0 + 0.1 * np.arange(m))[:, None, None],
                   np.linspace(-0.9, 0.8, m), t, 0)
                  for m, t in ((3, nodes), (5, nodes[::-1]))]
        calls, aug_values = [], StructureData.aug_values

        def logged(self, u1, u2, axis):
            calls.append((np.size(u2), float(np.ravel(u1)[0]), np.size(u1)))
            return aug_values(self, u1, u2, axis)

        monkeypatch.setattr(StructureData, "aug_values", logged)
        monkeypatch.setattr(frame, "SWEEP_LANES", 2 * 17 * 5)
        together = reconstruct._march(sd, sweeps, 1.0 / 32.0)
        # batch by batch, then sweep by sweep, each batch the same two
        # segments of both sweeps, each call within the budget
        assert calls == [(m, t[first], 2 * 17) for first in (0, 2, 4, 6)
                         for m, t in ((3, nodes), (5, nodes[::-1]))]
        assert max(m * n for m, _, n in calls) <= frame.SWEEP_LANES
        for sweep, got in zip(sweeps, together):
            alone, = reconstruct._march(sd, [sweep], 1.0 / 32.0)
            assert got.shape == (9, sweep[1].size, 3, 4)
            assert got.tobytes() == alone.tobytes()

    # every gate is written so that a NaN fails it.  The residual gates
    # read the lattice nodes and the audits the sweeps between them: D2
    # NaN for u1 > 0 reaches the nodes; D1 NaN between the u1 nodes
    # reaches the row sweeps, whose frame is the result; D2 NaN between
    # the u2 nodes at u1 > 0 reaches only the column sweeps, which the
    # row sweeps are audited against; NaN partials of Lambda reach only
    # the integrability residuals.  A NaN in the position block spreads
    # to the frame through the sweep's product (NaN * 0), so the position
    # audit is reached with finite data in test_position_audit_gate
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_fails_every_gate(self):
        zero = expr_entry(["0"] * 4)
        sd = synthetic_sd(["0"] * 4, ["0"] * 4)
        sd.blocks = stack_blocks(zero, _nan_where(lambda u1, u2: u1 > 0.0),
                                 zero, zero)
        with pytest.raises(CompatibilityViolated, match="residual nan"):
            integrate_frame(sd, (7, 7), step=1e-2)
        sd.blocks = stack_blocks(_nan_where(lambda u1, u2: _between(u1)),
                                 zero, zero, zero)
        with pytest.raises(FrameDegenerate):
            integrate_frame(sd, (7, 7), step=1e-2)
        sd.blocks = stack_blocks(
            zero, _nan_where(lambda u1, u2: (u1 > 0.0) & _between(u2)),
            zero, zero)
        with pytest.raises(CompatibilityViolated, match="audit nan"):
            integrate_frame(sd, (7, 7), step=1e-2)
        sd = synthetic_sd(["0"] * 4, ["0"] * 4)
        identity = sd.lam

        def lam(u1, u2, order):
            return [[Jet(order, [jet.value] + [np.nan] * (len(jet.coeffs) - 1))
                     for jet in row] for row in identity(u1, u2, order)]

        sd.lam = lam
        with pytest.raises(IntegrabilityViolated, match=r"\(0.00e\+00, nan\)"):
            integrate_frame(sd, (7, 7), step=1e-2)

    def test_integrability_gate(self):
        # Lambda_22 = u1 with zero blocks: the row identity reads
        # d/du1 Lambda_22 = 1 against d/du2 Lambda_12 = 0; the frame is
        # constant, so the gates before pass
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, lam=["1", "0", "0", "u1"])
        with pytest.raises(IntegrabilityViolated,
                           match=r"\(0.00e\+00, 1.00e\+00\)"):
            integrate_frame(sd, (7, 7), step=1e-2)

    def test_position_audit_gate(self):
        # Lambda_12 = g(u2) with g' = 1 - cos(6 pi (u2 + 1)), which
        # vanishes on the u2 nodes: the residuals vanish there to
        # roundoff, but x_u1 = (1, g, 0) is not integrable between them
        k = 6.0 * math.pi
        sd = synthetic_sd(["0"] * 4, ["0"] * 4,
                          lam=["1", f"u2 - sin({k!r}*(u2 + 1))/{k!r}", "0",
                               "1"])
        with pytest.raises(IntegrabilityViolated, match="position path"):
            integrate_frame(sd, (7, 7), step=1e-2)
        ff = integrate_frame(sd, (7, 7), step=1e-2, config=UNGATED)
        assert ff.discrepancy == 0.0
        assert max(ff.compat, ff.symmetry, ff.row_identity) < 1e-12


def _call_key(u1, u2, axis):
    """What tells one aug_values call of a march from the others."""
    return (axis, np.shape(u1), np.shape(u2), float(np.ravel(u1)[0]),
            float(np.ravel(u2)[0]))


class TestForkedSampling:
    """Marches that sample on two cores give the bits of one core, and a
    child that fails hands its calls back to the parent."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def interior_sd(self, file_backed_sd):
        return dataclasses.replace(file_backed_sd, basepoint=(0.13, -0.21))

    @staticmethod
    def integrate(sd, monkeypatch, cores, shape=(15, 11), lanes=615):
        """integrate_frame on `cores` cores, every march past the fork
        threshold, with evaluations of at most `lanes` points: 615 cut
        the families of a 15x11 lattice into calls of one segment each
        (29 x 11 and 41 x 15 points), 256 evaluate those calls in lane
        blocks."""
        monkeypatch.setattr(forks, "usable_cores", lambda: cores)
        monkeypatch.setattr(forks, "PARALLEL_WORK", 1)
        monkeypatch.setattr(frame, "SWEEP_LANES", lanes)
        return integrate_frame(sd, shape=shape, step=1e-2, config=UNGATED)

    @staticmethod
    def assert_same_bits(got, want):
        for name in ("W", "x", "discrepancy", "x_discrepancy", "min_det",
                     "compat", "symmetry", "row_identity"):
            assert np.array_equal(_bits(getattr(got, name)),
                                  _bits(getattr(want, name))), name

    @staticmethod
    def patch_aug_values(monkeypatch, before):
        """Run before(u1, u2, axis) ahead of every aug_values call."""
        aug_values = StructureData.aug_values

        def patched(self, u1, u2, axis):
            before(u1, u2, axis)
            return aug_values(self, u1, u2, axis)

        monkeypatch.setattr(StructureData, "aug_values", patched)

    def call_made_in(self, who, sd, monkeypatch, tmp_path):
        """The key of an aug_values call made on two cores by a child
        (its last), or by the parent (its middle one, while a child still
        samples)."""
        log = tmp_path / f"{who}-calls"
        parent = os.getpid()

        def record(u1, u2, axis):
            if (os.getpid() == parent) == (who == "parent"):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(_call_key(u1, u2, axis)) + "\n")

        with monkeypatch.context() as m:
            self.patch_aug_values(m, record)
            self.integrate(sd, m, 2)
        keys = log.read_text().splitlines()
        key = json.loads(keys[-1] if who == "child" else keys[len(keys) // 2])
        return (key[0], tuple(key[1]), tuple(key[2]), *key[3:])

    @pytest.mark.parametrize("shape, basepoint, lanes", [
        ((21, 21), None, frame.SWEEP_LANES),
        ((15, 11), (0.13, -0.21), 615), ((15, 11), (0.13, -0.21), 256)],
        ids=["21x21", "15x11-interior", "15x11-pieces"])
    @pytest.mark.parametrize("source", ["ex-5.9-blaschke", "file"])
    def test_two_cores_give_the_one_core_bits(self, source, shape, basepoint,
                                              lanes, ex59_sd, file_backed_sd,
                                              monkeypatch):
        sd = file_backed_sd if source == "file" else ex59_sd
        if basepoint is not None:
            sd = dataclasses.replace(sd, basepoint=basepoint)
        want = self.integrate(sd, monkeypatch, 1, shape, lanes)
        real_fork, forks = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        self.assert_same_bits(self.integrate(sd, monkeypatch, 2, shape, lanes),
                              want)
        assert forks

    def test_failed_fork_samples_in_the_parent(self, interior_sd,
                                               monkeypatch):
        want = self.integrate(interior_sd, monkeypatch, 1)

        def fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", fork)
        self.assert_same_bits(self.integrate(interior_sd, monkeypatch, 2),
                              want)

    def test_child_dying_mid_stream(self, interior_sd, monkeypatch,
                                    tmp_path):
        # a child is killed at its second call, after it sent its first
        want = self.integrate(interior_sd, monkeypatch, 1)
        parent, made = os.getpid(), []

        def die(u1, u2, axis):
            if os.getpid() != parent:
                made.append(1)
                if len(made) == 2:
                    (tmp_path / "died").touch()
                    os.kill(os.getpid(), signal.SIGKILL)

        self.patch_aug_values(monkeypatch, die)
        self.assert_same_bits(self.integrate(interior_sd, monkeypatch, 2),
                              want)
        assert (tmp_path / "died").exists()

    @pytest.mark.parametrize("cores, who", [(1, "child"), (2, "child"),
                                            (2, "parent")])
    def test_typed_error_surfaces_from_the_parent_at_its_call(
            self, cores, who, interior_sd, monkeypatch, tmp_path):
        target = self.call_made_in(who, interior_sd, monkeypatch, tmp_path)
        parent, made = os.getpid(), []

        def fail(u1, u2, axis):
            key = _call_key(u1, u2, axis)
            if os.getpid() == parent:
                made.append(key)
            if key == target:
                raise DomainError("a fault at one call")

        self.patch_aug_values(monkeypatch, fail)
        with pytest.raises(DomainError, match="^a fault at one call$"):
            self.integrate(interior_sd, monkeypatch, cores)
        assert made[-1] == target

    def test_warning_in_a_child_is_the_parents(self, interior_sd, monkeypatch,
                                               tmp_path):
        want = self.integrate(interior_sd, monkeypatch, 1)
        target = self.call_made_in("child", interior_sd, monkeypatch,
                                   tmp_path)

        def warn(u1, u2, axis):
            if _call_key(u1, u2, axis) == target:
                warnings.warn("a warning at one call", RuntimeWarning)

        self.patch_aug_values(monkeypatch, warn)
        with pytest.warns(RuntimeWarning, match="a warning at one call"):
            got = self.integrate(interior_sd, monkeypatch, 2)
        self.assert_same_bits(got, want)

    def test_small_marches_do_not_fork(self, file_backed_sd, monkeypatch):
        # a 9x9 lattice at this step samples 7,840 points in all
        points = []

        def fork():
            raise AssertionError("forked for a small march")

        self.patch_aug_values(monkeypatch, lambda u1, u2, axis: points.append(
            np.broadcast(u1, u2).size))
        monkeypatch.setattr(forks, "usable_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", fork)
        integrate_frame(file_backed_sd, (9, 9), step=1e-2, config=UNGATED)
        assert sum(points) < forks.PARALLEL_WORK


class TestAffineAlign:
    def test_identity(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (40, 3))
        L, a, sup = affine_align(x, x)
        np.testing.assert_allclose(L, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(a, 0.0, atol=1e-12)
        assert sup < 1e-12

    def test_recovers_random_affine_map(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (60, 3))
        A = random_unimodular(rng)
        b = rng.uniform(-1, 1, 3)
        y = x @ A.T + b
        L, a, sup = affine_align(x, y)
        np.testing.assert_allclose(L, A, atol=1e-10)
        np.testing.assert_allclose(a, b, atol=1e-10)
        assert sup < 1e-10

    def test_coplanar_rejected(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, (30, 3))
        x[:, 2] = 0.0
        with pytest.raises(RankDeficient):
            affine_align(x, x)
