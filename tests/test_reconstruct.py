"""Structure data: residuals, constructive extension, integration, alignment."""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_unimodular, regular_points
from frontal_lab.blaschke import blaschke_field
from frontal_lab.equiaffine import TransversalField
from frontal_lab.errors import (CompatibilityViolated, ConditionFailed,
                                InsufficientJetOrder, RankDeficient)
from frontal_lab.reconstruct import (StructureData, affine_align,
                                     apolarity_check, compat_residual,
                                     expr_entry, extend_D, extract_structure,
                                     integrability_residual, integrate_frame,
                                     integrate_position, lattice_nodes,
                                     stack_blocks)

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
        assert compat_residual(sd, u, u) == 0.0

    def test_u2_dependent_entry_measures_derivative(self):
        # D1 with a u2-dependent corner entry and D2 = 0: the commutator
        # vanishes, so the defect is exactly the u2-derivative (= 3)
        sd = synthetic_sd(["3*u2", "0", "0", "0"], ["0"] * 4)
        u = np.linspace(-0.5, 0.5, 5)
        assert compat_residual(sd, u, u) == pytest.approx(3.0, abs=1e-12)

    def test_extracted_wavefront_structure(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        u1, u2 = regular_points(ex510, 30, seed=1)
        assert compat_residual(sd, u1, u2) < 1e-7

    def test_extracted_blaschke_structure(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
        u1, u2 = regular_points(ex59, 30, seed=2)
        assert compat_residual(sd, u1, u2) < 1e-7


class TestIntegrabilityResidual:
    def test_plane_data(self, plane):
        sd = extract_structure(plane, VERTICAL)
        u = np.linspace(-0.9, 0.9, 7)
        sym, row = integrability_residual(sd, u, u)
        assert sym == pytest.approx(0.0, abs=1e-14)
        assert row == pytest.approx(0.0, abs=1e-14)

    def test_quintic_edge_structure(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
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
        bf = blaschke_field(paraboloid, shape=(15, 15))
        sd = extract_structure(paraboloid, bf)
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
        from frontal_lab.frame import frame_bundle
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
        sd = extract_structure(numeric, blaschke_field(numeric, (9, 9)))
        calls = []
        monkeypatch.setattr(StructureData, "aug_values",
                            lambda self, u1, u2: calls.append(u1))
        with pytest.raises(InsufficientJetOrder, match="jet budget") as exc:
            integrate_frame(sd, shape=(9, 9), check_compat=True)
        assert "order-1 structure jets need order-4" in str(exc.value)
        assert "loses 3 orders" in str(exc.value)
        assert calls == []


class TestRoundTrips:
    def test_plane_from_trivial_data(self):
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, p=(1.0, -2.0, 3.0))
        ff = integrate_frame(sd, shape=(7, 7), step=1e-2)
        x = integrate_position(ff)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        expected = np.stack([U1 - sd.basepoint[0] + 1.0,
                             U2 - sd.basepoint[1] - 2.0,
                             np.full_like(U1, 3.0)], axis=-1)
        assert np.max(np.abs(x - expected)) < 1e-12

    def test_quintic_edge_round_trip(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
        ff = integrate_frame(sd, shape=(11, 11), step=1e-3)
        x = integrate_position(ff)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = ex59.x(U1, U2, 0).values_stacked()
        L, a, sup = affine_align(x, x_true)
        assert sup < 1e-4
        assert ff.discrepancy < 1e-4

    def test_rank1_wavefront_round_trip(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        ff = integrate_frame(sd, shape=(11, 11), step=1e-3)
        x = integrate_position(ff)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = ex510.x(U1, U2, 0).values_stacked()
        L, a, sup = affine_align(x, x_true)
        assert sup < 1e-4

    def test_step_refinement_is_fourth_order(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
        coarse = integrate_frame(sd, shape=(9, 9), step=4e-3,
                                 audit_gate=False, check_compat=False)
        fine = integrate_frame(sd, shape=(9, 9), step=2e-3,
                               audit_gate=False, check_compat=False)
        assert coarse.discrepancy / fine.discrepancy >= 8.0

    def test_frame_determinant_keeps_sign(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
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
