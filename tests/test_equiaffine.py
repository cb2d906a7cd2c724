"""Structure solves against the split-field identities and cross routes."""

import dataclasses

import numpy as np
import pytest

from conftest import field_jets, regular_points, with_structure
from frontal_lab.blaschke import AFFINE_NORMAL, _regular_field, blaschke_field
from frontal_lab.equiaffine import (TransversalField, check_tau_formula,
                                    classical_symbols, d_from_gamma,
                                    is_equiaffine, parallel_volume_check,
                                    structure_from_field)
from frontal_lab.errors import NotTransversal, VerificationError
from frontal_lab.frame import frame_bundle
from frontal_lab.jets import Jet, JetVec3

VERTICAL = TransversalField.constant((0.0, 0.0, 1.0))


class TestStructureFromField:
    def test_plane_everything_vanishes(self, plane):
        u1, u2 = regular_points(plane, 10)
        s = structure_from_field(plane, VERTICAL, u1, u2)
        for block in (s.h, s.D1, s.D2, s.S, s.tau):
            np.testing.assert_allclose(block, 0.0, atol=1e-14)

    def test_normal_field_recovers_second_form(self, ex59):
        # with xi = n the relative form is the normal-component matrix
        u1, u2 = regular_points(ex59, 25, seed=1)
        s = structure_from_field(ex59, TransversalField.unit_normal(),
                                 u1, u2)
        b = frame_bundle(ex59, u1, u2)
        w_u = [[b.w1.deriv(0), b.w1.deriv(1)],
               [b.w2.deriv(0), b.w2.deriv(1)]]
        p = np.stack([np.stack([np.broadcast_to(
            np.asarray(w_u[i][j].dot(b.n).value), u1.shape)
            for j in range(2)], axis=-1) for i in range(2)], axis=-2)
        assert np.max(np.abs(s.h - p)) < 1e-10
        # unit-norm differentiation keeps n-derivatives tangent: tau = 0
        assert np.max(np.abs(s.tau)) < 1e-11

    def test_constant_field_has_zero_tau(self, ex510):
        u1, u2 = regular_points(ex510, 20, seed=2)
        s = structure_from_field(ex510, VERTICAL, u1, u2)
        np.testing.assert_allclose(s.tau, 0.0, atol=1e-13)

    def test_nan_field_fails_the_solve_gate(self, paraboloid):
        # a vertical field that is NaN at alternate points: the solve
        # residual is NaN, which the gate must not let through
        u1, u2 = regular_points(paraboloid, 5, seed=3)
        third = np.where(np.arange(5) % 2, np.nan, 1.0)
        field = TransversalField(lambda b: JetVec3(
            Jet.constant(np.zeros(b.shape), b.order),
            Jet.constant(np.zeros(b.shape), b.order),
            Jet.constant(third, b.order)))
        with pytest.raises(VerificationError, match="residual nan"):
            structure_from_field(paraboloid, field, u1, u2)
        with pytest.raises(VerificationError, match="residual nan"):
            parallel_volume_check(*with_structure(paraboloid, field, u1, u2))

    def test_not_transversal(self, plane):
        tangent = TransversalField.constant((1.0, 0.0, 0.0))
        with pytest.raises(NotTransversal):
            structure_from_field(plane, tangent, np.array([0.1]),
                                 np.array([0.2]))


class TestIsEquiaffine:
    def test_constant_true(self, ex510):
        u1, u2 = regular_points(ex510, 20, seed=3)
        verdict, worst = is_equiaffine(
            structure_from_field(ex510, VERTICAL, u1, u2))
        assert verdict and worst < 1e-13

    def test_scaled_vertical_not_equiaffine(self, paraboloid):
        # xi = (1 + u1^2) e3 rescales along u1, so tau_1 != 0
        field = TransversalField.from_expressions(["0", "0", "1 + u1^2"])
        u1, u2 = regular_points(paraboloid, 20, seed=4)
        verdict, worst = is_equiaffine(
            structure_from_field(paraboloid, field, u1, u2))
        assert not verdict and worst > 1e-2

    def test_blaschke_output_is_equiaffine(self, ex59):
        blaschke_field(ex59, shape=(21, 21))
        u1, u2 = regular_points(ex59, 30, seed=5)
        verdict, worst = is_equiaffine(
            structure_from_field(ex59, AFFINE_NORMAL, u1, u2))
        assert verdict and worst < 1e-6


class TestTauFormula:
    @staticmethod
    def _const(b, val):
        return Jet.constant(np.full(b.shape, val), b.order)

    def test_unit_normal_split(self, ex59):
        u1, u2 = regular_points(ex59, 15, seed=6)
        b = frame_bundle(ex59, u1, u2)
        h_res, tau_res = check_tau_formula(
            b, self._const(b, 1.0), self._const(b, 0.0), self._const(b, 0.0))
        assert h_res < 1e-11 and tau_res < 1e-11

    def test_doubled_normal_halves_form(self, ex59):
        u1, u2 = regular_points(ex59, 15, seed=7)
        b = frame_bundle(ex59, u1, u2)
        h_res, tau_res = check_tau_formula(
            b, self._const(b, 2.0), self._const(b, 0.0), self._const(b, 0.0))
        assert h_res < 1e-11 and tau_res < 1e-11

    def test_blaschke_split_residuals(self, ex59):
        blaschke_field(ex59, shape=(21, 21))
        u1, u2 = regular_points(ex59, 50, seed=8)
        b = frame_bundle(ex59, u1, u2)
        phi, a, bv, _ = _regular_field(b)
        h_res, tau_res = check_tau_formula(b, phi, a, bv)
        assert h_res < 1e-8 and tau_res < 1e-8


class TestParallelVolume:
    def test_constant_field_parallel(self, ex510):
        u1, u2 = regular_points(ex510, 20, seed=9)
        resid, max_tau = parallel_volume_check(
            *with_structure(ex510, VERTICAL, u1, u2))
        assert resid < 1e-9 and max_tau < 1e-13

    def test_doubled_normal_on_plane(self, plane):
        u1, u2 = regular_points(plane, 10, seed=10)
        field = TransversalField.from_expressions(["0", "0", "2"])
        resid, _ = parallel_volume_check(
            *with_structure(plane, field, u1, u2))
        assert resid < 1e-12

    def test_nan_residual_is_not_hidden(self, paraboloid):
        # a NaN in D1 at one point makes the u1 residual NaN; the result
        # must not fall back on the finite u2 residual
        field = TransversalField.from_expressions(["0", "0", "1 + u1^2"])
        u1, u2 = regular_points(paraboloid, 5, seed=11)
        b, xj, s = with_structure(paraboloid, field, u1, u2)
        d1 = s.D1.copy()
        d1.flat[0] = np.nan
        resid, _ = parallel_volume_check(b, xj, dataclasses.replace(s, D1=d1))
        assert np.isnan(resid)

    def test_identity_holds_even_without_equiaffinity(self, paraboloid):
        # the derivative identity is unconditional; tau decides parallelism
        field = TransversalField.from_expressions(["0", "0", "1 + u1^2"])
        u1, u2 = regular_points(paraboloid, 20, seed=11)
        resid, max_tau = parallel_volume_check(
            *with_structure(paraboloid, field, u1, u2))
        assert resid < 1e-10 and max_tau > 1e-2


class TestClassicalRoutes:
    def test_plane_symbols_vanish(self, plane):
        u1, u2 = regular_points(plane, 10, seed=12)
        sym = classical_symbols(*field_jets(plane, VERTICAL, u1, u2))
        np.testing.assert_allclose(sym.gamma1, 0.0, atol=1e-13)
        np.testing.assert_allclose(sym.gamma2, 0.0, atol=1e-13)
        np.testing.assert_allclose(sym.c, 0.0, atol=1e-13)

    def test_paraboloid_normal_at_origin(self, paraboloid):
        u1 = np.array([0.0])
        u2 = np.array([0.0])
        sym = classical_symbols(*field_jets(
            paraboloid, TransversalField.unit_normal(), u1, u2))
        np.testing.assert_allclose(sym.c[0], np.eye(2), atol=1e-12)

    def test_affine_form_matches_second_form_scaling(self, ex510):
        u1 = np.array([0.5])
        u2 = np.array([0.1])
        sym = classical_symbols(*field_jets(ex510, VERTICAL, u1, u2))
        b = frame_bundle(ex510, u1, u2)
        n_u = [b.n.deriv(0), b.n.deriv(1)]
        II = np.stack([np.stack([np.broadcast_to(
            np.asarray((-(b.x_u[i].dot(n_u[j]))).value), u1.shape)
            for j in range(2)], axis=-1) for i in range(2)], axis=-2)
        phi = sym.split[..., 2]
        np.testing.assert_allclose(sym.c, II / phi[..., None, None],
                                   atol=1e-9)

    def test_d_route_agreement_vertical(self, ex510):
        u1 = np.array([0.5])
        u2 = np.array([0.1])
        D1g, D2g = d_from_gamma(*field_jets(ex510, VERTICAL, u1, u2))
        s = structure_from_field(ex510, VERTICAL, u1, u2)
        assert np.max(np.abs(D1g - s.D1)) < 1e-8
        assert np.max(np.abs(D2g - s.D2)) < 1e-8

    def test_d_route_agreement_blaschke(self, ex59):
        blaschke_field(ex59, shape=(21, 21))
        u1 = np.array([0.3])
        u2 = np.array([0.4])
        field = AFFINE_NORMAL
        D1g, D2g = d_from_gamma(*field_jets(ex59, field, u1, u2))
        s = structure_from_field(ex59, field, u1, u2)
        assert np.max(np.abs(D1g - s.D1)) < 1e-8
        assert np.max(np.abs(D2g - s.D2)) < 1e-8

    def test_plane_d_route(self, plane):
        u1, u2 = regular_points(plane, 5, seed=13)
        D1g, D2g = d_from_gamma(*field_jets(plane, VERTICAL, u1, u2))
        np.testing.assert_allclose(D1g, 0.0, atol=1e-13)
        np.testing.assert_allclose(D2g, 0.0, atol=1e-13)


class TestStructureProperties:
    def test_h_scaling_exact(self, ex59):
        u1, u2 = regular_points(ex59, 20, seed=14)
        s1 = structure_from_field(ex59, VERTICAL, u1, u2)
        s3 = structure_from_field(
            ex59, TransversalField.constant((0.0, 0.0, 3.0)), u1, u2)
        scale = max(1.0, float(np.max(np.abs(s1.h))))
        assert np.max(np.abs(s3.h - s1.h / 3.0)) < 1e-12 * scale

    def test_nondegenerate_transfer(self, ex510):
        # wherever the relative curvature is away from zero, every
        # transversal field induces a nondegenerate relative form
        rng = np.random.default_rng(15)
        u1, u2 = regular_points(ex510, 30, seed=15)
        from frontal_lab.frame import frame_bundle
        K_omega = frame_bundle(ex510, u1, u2).K_omega.value_on(u1.shape)
        strong = np.abs(K_omega) > 1e-4
        field = TransversalField.from_expressions(
            ["1/10", "u1/7", "1 + u2^2/3"])
        s = structure_from_field(ex510, field, u1[strong], u2[strong])
        det_h = (s.h[..., 0, 0] * s.h[..., 1, 1]
                 - s.h[..., 0, 1] * s.h[..., 1, 0])
        assert np.all(np.abs(det_h) > 1e-12)
