"""Catalog entries, load validation, and the representation-formula generators."""

import numpy as np
import pytest

from frontal_lab import expr
from frontal_lab.catalog import ENTRIES, GENERATORS, get_entry, list_entries
from frontal_lab.config import Config
from frontal_lab.errors import InputError, QuadratureNonConvergent
from frontal_lab.frame import frame_bundle
from frontal_lab.jets import _mat_values


class TestEntries:
    def test_listing_names(self):
        names = {e["name"] for e in list_entries()}
        assert {"ex-5.8", "ex-5.9", "ex-5.10", "paraboloid",
                "plane"} <= names

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_every_entry_builds_and_validates(self, name):
        f = get_entry(name).build()
        assert f.domain == ENTRIES[name].domain

    def test_known_answers_parse(self):
        for entry in ENTRIES.values():
            for key in ("lambda_det", "K"):
                if key in entry.known:
                    expr.parse(entry.known[key])
            for src in entry.known.get("xi", []):
                expr.parse(src)

    def test_unknown_entry(self):
        with pytest.raises(InputError):
            get_entry("no-such-entry")

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generator_quadrature_follows_build_config(self, name):
        # 64 nodes with a 64-node cap leaves no doubling to converge on
        cfg = Config(quad_nodes=64, quad_max_nodes=64)
        with pytest.raises(QuadratureNonConvergent):
            get_entry(name).build(cfg)

    def test_factor_determinant_matches_expression(self, ex58):
        u1, u2 = ex58.interior_grid((9, 9), margin=0.02)
        lam_det = frame_bundle(ex58, u1, u2).lam_det.value_on(u1.shape)
        ref = expr.eval_num(expr.parse("2*u2"), {"u1": u1, "u2": u2})
        np.testing.assert_allclose(lam_det, ref, atol=1e-12)


class TestRank1Generator:
    def test_harmonic_potential_closed_form_surface(self):
        # h = u1^2 - u2^2: the third component is u1^2 + u2^2 exactly
        entry = get_entry("gen-rank1-wavefront", {"h": "u1^2 - u2^2",
                                                  "c": "1"})
        f = entry.build()
        u1, u2 = f.grid((7, 7))
        x = f.x(u1, u2, 2).values_stacked()
        np.testing.assert_allclose(x[..., 0], u1, atol=1e-10)
        np.testing.assert_allclose(x[..., 1], 2 * u2, atol=1e-10)
        np.testing.assert_allclose(x[..., 2], u1 ** 2 + u2 ** 2, atol=1e-10)

    def test_factor_determinant_is_minus_h22(self):
        entry = get_entry("gen-rank1-wavefront",
                          {"h": "u1^2 - u2^4", "c": "1/(6*u2^2)",
                           "domain": (-1.0, 1.0, 0.25, 1.0)})
        f = entry.build()
        u1, u2 = f.grid((9, 9))
        lam_det = frame_bundle(f, u1, u2).lam_det.value_on(u1.shape)
        np.testing.assert_allclose(lam_det, 12 * u2 ** 2, atol=1e-9)

    def test_reproduces_rank1_catalog_entry(self, ex510):
        # the quartic potential regenerates the catalog wave front exactly
        entry = get_entry("gen-rank1-wavefront",
                          {"h": "u1^4 - 6*u1^2*u2^2 + u2^4", "c": "1"})
        f = entry.build()
        u1, u2 = ex510.grid((9, 9))
        x_gen = f.x(u1, u2, 2).values_stacked()
        x_cat = ex510.x(u1, u2, 2).values_stacked()
        np.testing.assert_allclose(x_gen, x_cat, atol=1e-9)

    def test_curvature_expression(self):
        entry = get_entry("gen-rank1-wavefront",
                          {"h": "u1^4 - 6*u1^2*u2^2 + u2^4", "c": "1"})
        f = entry.build()
        from frontal_lab.blaschke import gauss_extension
        assert gauss_extension(f, (1.0, 0.0)) == pytest.approx(1.0 / 289.0,
                                                               rel=1e-10)


class TestExtendableNcGenerator:
    def test_simple_profile_closed_form(self):
        # b = u2^2, l = 1, r = 0, h = 0 gives y = (u1, u2^2, u1 u2^2)
        entry = get_entry("gen-extendable-nc",
                          {"b": "u2^2", "h": "0", "l": "1", "r": "0"})
        f = entry.build()
        u1, u2 = f.grid((7, 7))
        x = f.x(u1, u2, 2).values_stacked()
        np.testing.assert_allclose(x[..., 0], u1, atol=1e-9)
        np.testing.assert_allclose(x[..., 1], u2 ** 2, atol=1e-9)
        np.testing.assert_allclose(x[..., 2], u1 * u2 ** 2, atol=1e-9)

    def test_omega_serves_order_0(self):
        # the first column reads one derivative of C, so an order-0
        # request integrates C at order 1; y = (u1, u2^2, u1 u2^2) has
        # w1 = (1, 0, u2^2) and w2 = (0, 1, u1)
        f = get_entry("gen-extendable-nc",
                      {"b": "u2^2", "h": "0", "l": "1", "r": "0"}).build()
        u1, u2 = f.grid((5, 5))
        w1, w2 = f.omega(u1, u2, 0)
        assert w1.order == w2.order == 0
        np.testing.assert_allclose(
            w1.values_on(u1.shape),
            np.stack([np.ones_like(u1), np.zeros_like(u1), u2 ** 2], axis=-1),
            atol=1e-9)
        np.testing.assert_allclose(
            w2.values_on(u1.shape),
            np.stack([np.zeros_like(u1), np.ones_like(u1), u1], axis=-1),
            atol=1e-9)

    def test_quintic_profile_with_potential(self):
        # nonzero h exercises the nested quadrature; the decomposition
        # residual check at build is the oracle
        entry = get_entry("gen-extendable-nc",
                          {"b": "2/5*u2^5 + u2^2", "h": "u1*u2", "l": "1",
                           "r": "u1"})
        entry.build()

    def test_affine_normal_field_across_singular_line(self):
        # the profile choice (square profile, unit flank) admits an
        # affine normal across u2 = 0; build through the quadrature route
        # and probe the singular line
        from frontal_lab.blaschke import blaschke_field
        from frontal_lab.config import Config
        cfg = Config(quad_nodes=8)
        entry = get_entry("gen-extendable-nc",
                          {"b": "u2^2", "h": "0", "l": "1", "r": "0",
                           "domain": (-0.8, 0.8, -0.8, 0.8)})
        f = entry.build(cfg)
        u1 = np.linspace(-0.5, 0.5, 3)
        u2 = np.linspace(-0.5, 0.5, 3)
        U1, U2 = np.meshgrid(u1, u2, indexing="ij")
        bf = blaschke_field(f, grid=(U1, U2))
        assert bf.diagnostics["n_singular"] == 3
        assert all(p["spread"] < 1e-4 for p in bf.diagnostics["probes"])
        # this surface matches the quintic-edge family at its base slice,
        # where the field on the singular line is vertical
        line = bf.xi[:, 1]
        np.testing.assert_allclose(line, [[0, 0, 1]] * 3, atol=1e-6)

    def test_profiles_must_be_univariate(self):
        with pytest.raises(InputError):
            get_entry("gen-extendable-nc", {"l": "u2"})


class TestNonparabolicGenerator:
    def test_paraboloid_from_identity_pair(self, paraboloid):
        entry = get_entry("gen-nonparabolic", {"a": "u1", "b": "u2"})
        f = entry.build()
        u1, u2 = f.grid((7, 7))
        x_gen = f.x(u1, u2, 2).values_stacked()
        x_ref = paraboloid.x(u1, u2, 2).values_stacked()
        np.testing.assert_allclose(x_gen, x_ref, atol=1e-10)

    def test_closure_condition_enforced(self):
        with pytest.raises(InputError):
            get_entry("gen-nonparabolic", {"a": "u1", "b": "u1*u2"})

    def test_closed_pair_with_shear(self):
        # a = u1 + u2^2/2, b = u1*u2 satisfies a_u2 = b_u1 = u2
        entry = get_entry("gen-nonparabolic",
                          {"a": "u1 + u2^2/2", "b": "u1*u2",
                           "domain": (0.25, 1.0, 0.25, 1.0)})
        f = entry.build()
        u1, u2 = f.grid((7, 7))
        lam = _mat_values(frame_bundle(f, u1, u2).lam, u1.shape)
        # factor is the Jacobian of (a, b)
        np.testing.assert_allclose(lam[..., 0, 0], 1.0, atol=1e-9)
        np.testing.assert_allclose(lam[..., 0, 1], u2, atol=1e-9)
        np.testing.assert_allclose(lam[..., 1, 0], u2, atol=1e-9)
        np.testing.assert_allclose(lam[..., 1, 1], u1, atol=1e-9)

    def test_bad_generator_params_rejected(self):
        with pytest.raises(InputError):
            get_entry("gen-nonparabolic", {"h": "u1"})
