"""Affine-normal construction, limit probes, conormals, invariances."""

import numpy as np
import pytest

from conftest import (field_jets, random_unimodular, regular_points,
                      with_structure)
from frontal_lab import expr
from frontal_lab.blaschke import (AFFINE_NORMAL, blaschke_field,
                                  blaschke_verify, conormal,
                                  conormal_verify, extended_values,
                                  extension_condition,
                                  extension_condition_fields, gauss_extension,
                                  probe_limits, rank1_closed_form,
                                  regular_part)
from frontal_lab.catalog import get_entry
from frontal_lab.equiaffine import TransversalField, structure_from_field
from frontal_lab.errors import (DivisionByZeroValue, DomainError,
                                FrontalLabError, Indeterminate, KVanishes,
                                NotExtendable)
from frontal_lab.frame import Frontal, frame_bundle
from frontal_lab.jets import POSITION, Jet, JetVec3


class TestProbeMachinery:
    def test_recovers_smooth_ratio(self, config):
        # (u2 * g) / u2 extends to g; probe at points on u2 = 0
        def fn(u1, u2):
            g = np.cos(u1) + u1 * u2
            val = (u2 * g) / np.where(np.abs(u2) < 1e-12, np.nan, u2)
            return val[None, :]

        res = probe_limits(fn, [(0.3, 0.0), (-0.5, 0.0)], (-1, 1, -1, 1),
                           config)
        for r, p1 in zip(res, (0.3, -0.5)):
            assert r.ok
            assert r.value[0] == pytest.approx(np.cos(p1), abs=1e-6)

    def test_divergent_ratio_rejected(self, config):
        def fn(u1, u2):
            val = 1.0 / np.where(np.abs(u2) < 1e-12, np.nan, u2)
            return val[None, :]

        res = probe_limits(fn, [(0.0, 0.0)], (-1, 1, -1, 1), config)[0]
        assert not res.ok
        assert res.diverging
        with pytest.raises(FrontalLabError):
            res.require()

    def test_unusable_everywhere_is_starved(self, config):
        # three components, no usable sample: starved after both denser
        # retries, with one NaN limit per component read off fn's output
        calls = []

        def fn(u1, u2):
            calls.append(np.size(u1))
            return np.full((3, np.size(u1)), np.nan)

        res = probe_limits(fn, [(0.0, 0.0), (0.5, 0.5)], (-1, 1, -1, 1),
                           config)
        assert len(calls) == 3
        for r in res:
            assert r.starved and not r.ok and r.n_directions == 0
            assert r.value.shape == (3,) and np.all(np.isnan(r.value))
            with pytest.raises(Indeterminate):
                r.require()


# A removable singularity: det Lambda = u2 and fn = sin(u2)/u2
def _u2_det(u1, u2):
    return u2


def _sinc(u1, u2):
    return (np.sin(u2) / u2)[None, :]


class TestRegularOrLimit:
    def test_regular_bits_and_singular_limit(self, config):
        u1 = np.array([0.1, -0.3, 0.5, 0.2])
        u2 = np.array([0.4, 0.0, -0.7, 0.0])
        values, results = extended_values(_sinc, _u2_det, u1, u2,
                                          (-1, 1, -1, 1), "sinc", config)
        reg = u2 != 0.0
        assert values.shape == (1, 4)
        assert values[0, reg].tobytes() == _sinc(u1[reg], u2[reg])[0].tobytes()
        np.testing.assert_allclose(values[0, ~reg], 1.0, atol=1e-6)
        assert [r.target for r in results] == [(-0.3, 0.0), (0.2, 0.0)]

    def test_failed_certificate_names_what(self, config):
        def reciprocal(u1, u2):
            return (1.0 / u2)[None, :]

        with pytest.raises(NotExtendable, match="reciprocal at"):
            extended_values(reciprocal, _u2_det, [0.3], [0.0],
                            (-1, 1, -1, 1), "reciprocal", config)

    def test_regular_part_is_nan_on_the_singular_set(self, config):
        u1 = np.zeros(5)
        u2 = np.array([0.5, 1e-10, 0.0, -2e-9, -0.25])
        out = regular_part(_sinc, _u2_det, config)(u1, u2)
        keep = np.abs(u2) > config.eps_sing
        assert list(keep) == [True, False, False, True, True]
        assert np.all(np.isnan(out[0, ~keep]))
        direct = _sinc(u1[keep], u2[keep])[0]
        assert out[0, keep].tobytes() == direct.tobytes()

    @pytest.mark.parametrize("error", [KVanishes, np.linalg.LinAlgError])
    def test_unusable_call_is_nan_everywhere(self, error, config):
        def fn(u1, u2):
            raise error("unusable sample")

        out = regular_part(fn, _u2_det, config)(np.zeros(3),
                                                np.array([0.5, 0.0, -0.5]))
        assert out.shape == (1, 3) and np.all(np.isnan(out))


class TestGaussExtension:
    def test_quintic_edge_origin_probe(self, ex59):
        # numeric route only; the extension at the singular origin is -1
        K = gauss_extension(ex59.stripped(), (0.0, 0.0))
        assert abs(K) == pytest.approx(1.0, abs=1e-4)

    def test_rank1_wavefront_regular_point(self, ex510):
        K = gauss_extension(ex510.stripped(), (1.0, 0.0))
        assert abs(K) == pytest.approx(1.0 / 289.0, rel=1e-8)

    def test_matches_catalog_closed_form(self, ex58):
        K_probe = gauss_extension(ex58.stripped(), (0.3, 0.0))
        K_expr = gauss_extension(ex58, (0.3, 0.0))
        assert K_probe == pytest.approx(K_expr, rel=1e-6)

    def test_plane_rejects(self, plane):
        with pytest.raises(KVanishes):
            blaschke_field(plane, shape=(9, 9))


class TestBlaschkeField:
    def test_rank1_wavefront_constant_field(self, ex510):
        bf = blaschke_field(ex510, shape=(41, 41))
        assert np.max(np.abs(bf.xi - np.array([0.0, 0.0, 1.0]))) < 1e-6
        assert bf.diagnostics["improper_sphere"]

    def test_quintic_edge_singular_line_value(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        v = blaschke_field(ex59, grid=(np.array([0.0, 0.4]),
                                       np.array([0.0, 0.0]))).xi
        np.testing.assert_allclose(v, [[0, 0, 1], [0, 0, 1]], atol=1e-4)
        assert not bf.diagnostics["improper_sphere"]

    def test_paraboloid_against_textbook_construction(self, paraboloid):
        # independent oracle: phi = (1 + r^2)^(-1/2) and the tangential
        # part solves the plain second-form system in the x_u basis
        bf = blaschke_field(paraboloid.stripped(), shape=(15, 15))
        u1, u2 = bf.u1, bf.u2
        r2 = u1 ** 2 + u2 ** 2
        w = np.sqrt(1.0 + r2)
        phi = 1.0 / w
        n = np.stack([-u1, -u2, np.ones_like(u1)], axis=-1) / w[..., None]
        a = u1 / (1.0 + r2)
        b = u2 / (1.0 + r2)
        xu1 = np.stack([np.ones_like(u1), np.zeros_like(u1), u1], axis=-1)
        xu2 = np.stack([np.zeros_like(u1), np.ones_like(u1), u2], axis=-1)
        oracle = phi[..., None] * n + a[..., None] * xu1 + b[..., None] * xu2
        assert np.max(np.abs(bf.xi - oracle)) < 1e-8
        assert np.max(np.abs(bf.xi - np.array([0, 0, 1.0]))) < 1e-8

    def test_transformed_surface_needs_numeric_route(self, ex510):
        rng = np.random.default_rng(0)
        from frontal_lab.frame import affine_image
        A = random_unimodular(rng)
        g = affine_image(ex510, A, np.zeros(3))
        grid = g.interior_grid((9, 9), margin=0.04)
        bf = blaschke_field(g, grid=grid)
        assert np.max(np.abs(bf.xi - A[:, 2])) < 1e-6


@pytest.mark.parametrize("name", ["ex-5.8", "ex-5.9", "ex-5.10"])
def test_closed_form_parity(name):
    # the closed-form curvature and the K_omega / det Lambda quotient build
    # the field at different jet orders; both must give the same field,
    # on the regular part and through the singular-point probes
    f = get_entry(name).build()
    grid = f.interior_grid((9, 9), margin=0.05)
    closed = blaschke_field(f, grid=grid)
    numeric = blaschke_field(f.stripped(), grid=grid)
    assert closed.diagnostics["n_singular"] > 0
    assert numeric.diagnostics["n_singular"] == closed.diagnostics["n_singular"]
    scale = max(1.0, float(np.max(np.abs(closed.xi))))
    assert np.max(np.abs(numeric.xi - closed.xi)) <= f.config.tol_limit * scale


class TestBlaschkeVerify:
    def test_rank1_wavefront(self, ex510):
        bf = blaschke_field(ex510, shape=(21, 21))
        rep = blaschke_verify(bf, shape=(21, 21))
        assert rep["max_tau"] < 1e-6
        assert rep["volume_residual"] < 1e-6

    def test_paraboloid(self, paraboloid):
        bf = blaschke_field(paraboloid, shape=(15, 15))
        rep = blaschke_verify(bf, shape=(15, 15))
        assert rep["max_tau"] < 1e-8
        assert rep["volume_residual"] < 1e-8

    def test_scaled_field_fails_volume_match(self, ex510):
        blaschke_field(ex510, shape=(15, 15))
        xi = AFFINE_NORMAL
        doubled = TransversalField(
            lambda b: xi.jets(b).scale(2.0),
            label="2x affine normal")
        u1, u2 = regular_points(ex510, 25, seed=1)
        s = structure_from_field(ex510, doubled, u1, u2)
        lam = frame_bundle(ex510, u1, u2).lam_det.value_on(u1.shape)
        det_h = (s.h[..., 0, 0] * s.h[..., 1, 1]
                 - s.h[..., 0, 1] * s.h[..., 1, 0])
        ratio = np.sqrt(s.theta ** 2 * np.abs(lam) / np.abs(det_h))
        # equiaffinity survives scaling; the normalization does not
        assert np.max(np.abs(s.tau)) < 1e-10
        assert np.min(np.abs(ratio - 1.0)) > 1e-3


class TestEquivariance:
    def test_five_random_unimodular_maps(self, ex510):
        # interior grid still crosses both singular diagonals, so the
        # probes run with full direction fans
        rng = np.random.default_rng(42)
        from frontal_lab.frame import affine_image
        grid = ex510.interior_grid((13, 13), margin=0.04)
        base = blaschke_field(ex510, grid=grid)
        for _ in range(5):
            A = random_unimodular(rng)
            b = rng.uniform(-0.5, 0.5, 3)
            image = affine_image(ex510, A, b)
            bf = blaschke_field(image, grid=grid)
            mapped = base.xi @ A.T
            assert np.max(np.abs(bf.xi - mapped)) < 1e-6

    def test_column_swap_flips_sign(self, ex59):
        def omega_swapped(u1, u2, order):
            w1, w2 = ex59.omega(u1, u2, order)
            return w2, w1

        def lam_swapped(u1, u2, order):
            lam = ex59.lam(u1, u2, order)
            return [[lam[0][1], lam[0][0]], [lam[1][1], lam[1][0]]]

        flipped = Frontal("ex59-swapped", ex59._x, omega_swapped, ex59.domain,
                          lam=lam_swapped, gauss=ex59.gauss,
                          open_domain=True)
        a = blaschke_field(ex59, shape=(9, 9))
        b = blaschke_field(flipped, shape=(9, 9), grid=(a.u1, a.u2))
        assert np.max(np.abs(a.xi + b.xi)) < 1e-8


class TestExtensionCondition:
    def test_quintic_edge_passes(self, ex59):
        for which in (1, 2):
            res = extension_condition(ex59, which, (0.3, 0.0))
            assert res.ok

    def test_rank1_wavefront_passes(self, ex510):
        for which in (1, 2):
            res = extension_condition(ex510, which, (0.5, 0.5))
            assert res.ok

    def test_synthetic_failure(self, config):
        # factor diag(1, u2), identity first form, but E = u2, F = 0 makes
        # the certificate the non-member constant 1
        def lam_fn(u1, u2):
            order = 1
            one = Jet.constant(np.ones(np.shape(u1)), order)
            zero = Jet.constant(np.zeros(np.shape(u1)), order)
            return [[one, zero], [zero, Jet.variable(u2, 1, order)]]

        def i_omega_fn(u1, u2):
            order = 1
            one = Jet.constant(np.ones(np.shape(u1)), order)
            zero = Jet.constant(np.zeros(np.shape(u1)), order)
            return [[one, zero], [zero, one]]

        def efg_fn(u1, u2):
            order = 1
            zero = Jet.constant(np.zeros(np.shape(u1)), order)
            return Jet.variable(u2, 1, order), zero, zero

        res = extension_condition_fields(lam_fn, i_omega_fn, efg_fn, 1,
                                         (0.3, 0.0), (-1, 1, -1, 1), config)
        assert not res.ok
        with pytest.raises(NotExtendable):
            res.require()


class TestRank1ClosedForm:
    def test_constant_ratio_gives_vertical(self):
        out = rank1_closed_form("u1^4 - 6*u1^2*u2^2 + u2^4", "1", (0.5, 0.1))
        np.testing.assert_allclose(out, [0, 0, 1], atol=1e-12)
        out = rank1_closed_form("u1^2 - u2^2", "16", (0.3, -0.4))
        np.testing.assert_allclose(out, [0, 0, 2.0], atol=1e-12)

    def test_matches_construction_for_varying_ratio(self):
        entry = get_entry("gen-rank1-wavefront",
                          {"h": "u1^2 - u2^4", "c": "1/(6*u2^2)",
                           "domain": (-1.0, 1.0, 0.25, 1.0)})
        f = entry.build()
        for (p1, p2) in [(0.3, 0.5), (-0.4, 0.8), (0.6, 0.35)]:
            closed = rank1_closed_form("u1^2 - u2^4", "1/(6*u2^2)", (p1, p2))
            direct = blaschke_field(f, grid=(np.array([p1]),
                                             np.array([p2]))).xi[0]
            assert np.max(np.abs(closed - direct)) < 1e-6

    def test_vanishing_leading_coefficient(self):
        with pytest.raises(DivisionByZeroValue):
            rank1_closed_form("u1^3", "1 + u1", (0.0, 0.2))

    def test_negative_ratio_rejected(self):
        with pytest.raises(DomainError):
            rank1_closed_form("u1^2 + u2^2", "-1", (0.1, 0.1))

    def test_quotient_with_zero_divisor_is_domain_error(self):
        # h_u1u1 = (u1^3/u1)'' divides by u1 = 0 in plain floats
        with pytest.raises(DomainError, match="division by zero"):
            rank1_closed_form("u1^3/u1", "1", (0.0, 0.5))


class TestConormal:
    def test_unit_normal_fixed_point(self, paraboloid):
        u1, u2 = regular_points(paraboloid, 10, seed=2)
        nu = conormal(*field_jets(paraboloid, TransversalField.unit_normal(),
                                  u1, u2))
        b = frame_bundle(paraboloid, u1, u2)
        assert np.max(np.abs(nu.values_stacked()
                             - b.n.values_stacked())) < 1e-12

    def test_doubled_normal_halves(self, paraboloid):
        u1, u2 = regular_points(paraboloid, 10, seed=3)
        b = frame_bundle(paraboloid, u1, u2)
        doubled = TransversalField(lambda bundle: bundle.n.scale(2.0))
        nu = conormal(b, doubled.jets(b))
        assert np.max(np.abs(nu.values_stacked()
                             - b.n.values_stacked() / 2.0)) < 1e-12

    def test_vertical_field_is_normal_over_third_component(self, ex510):
        u1, u2 = regular_points(ex510, 15, seed=4)
        field = TransversalField.constant((0.0, 0.0, 1.0))
        nu = conormal(*field_jets(ex510, field, u1, u2))
        b = frame_bundle(ex510, u1, u2)
        n = b.n.values_stacked()
        np.testing.assert_allclose(nu.values_stacked(),
                                   n / n[..., 2][..., None], atol=1e-11)

    def test_verify_paraboloid(self, paraboloid):
        u1, u2 = regular_points(paraboloid, 25, seed=5)
        rep = conormal_verify(*with_structure(
            paraboloid, TransversalField.constant((0.0, 0.0, 1.0)), u1, u2))
        assert rep["pairing_xi"] < 1e-9
        assert rep["pairing_w"] < 1e-9
        assert rep["derivative_xi"] < 1e-9
        assert rep["derivative_w"] < 1e-9
        assert rep["rank2_everywhere"]

    def test_nan_residuals_are_not_hidden(self, paraboloid):
        # The structure solve stops a NaN field before these residuals, so
        # they are handed the clean structure here.  A NaN in w2 at one
        # point reaches <nu, w2> but not <nu, w1>; a NaN in the field's
        # u2-derivative reaches nu_u2 but not nu_u1.
        vertical = TransversalField.constant((0.0, 0.0, 1.0))
        u1, u2 = regular_points(paraboloid, 5, seed=5)
        s = structure_from_field(paraboloid, vertical, u1, u2)

        def nan_at_first_point(jet, ij):
            coeffs = [np.array(np.broadcast_to(c, u1.shape), dtype=float)
                      for c in jet.coeffs]
            coeffs[POSITION[jet.order][ij]][0] = np.nan
            return Jet(jet.order, coeffs)

        b = frame_bundle(paraboloid, u1, u2)
        b.w2 = JetVec3(nan_at_first_point(b.w2[0], (0, 0)), *b.w2.c[1:])
        rep = conormal_verify(b, vertical.jets(b), s)
        assert np.isnan(rep["pairing_w"]) and np.isnan(rep["derivative_w"])

        def field(bb):
            xj = vertical.jets(bb)
            return JetVec3(*xj.c[:2], nan_at_first_point(xj[2], (0, 1)))

        rep = conormal_verify(*field_jets(paraboloid, TransversalField(field),
                                          u1, u2), s)
        assert np.isnan(rep["derivative_xi"]) and np.isnan(rep["derivative_w"])
        assert not rep["rank2_everywhere"]

    def test_plane_conormal_constant_not_immersion(self, plane):
        u1, u2 = regular_points(plane, 10, seed=6)
        rep = conormal_verify(*with_structure(
            plane, TransversalField.constant((0.0, 0.0, 1.0)), u1, u2))
        assert rep["derivative_w"] < 1e-13
        assert not rep["rank2_everywhere"]

    def test_quintic_edge_blaschke_conormal(self, ex59):
        band = Frontal("ex59-band", ex59._x, ex59._omega, (-1, 1, 0.2, 1.0),
                       lam=ex59._lam, gauss=ex59.gauss)
        blaschke_field(band, shape=(9, 9))
        u1, u2 = regular_points(band, 20, seed=7)
        rep = conormal_verify(*with_structure(band, AFFINE_NORMAL, u1, u2))
        assert rep["derivative_xi"] < 1e-7
        assert rep["derivative_w"] < 1e-7


class TestKnownAnswers:
    def test_quintic_edge_closed_form(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        known = ex59.blaschke_known(bf.u1, bf.u2, 0).values_stacked()
        assert np.max(np.abs(bf.xi - known)) < 1e-6

    def test_cuspidal_cross_cap_closed_form(self, ex58):
        bf = blaschke_field(ex58, shape=(15, 15))
        known = ex58.blaschke_known(bf.u1, bf.u2, 0).values_stacked()
        scale = np.maximum(1.0, np.max(np.abs(known)))
        assert np.max(np.abs(bf.xi - known)) / scale < 1e-6
