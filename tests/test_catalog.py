"""Catalog entries, load validation, and the representation-formula generators."""

import contextlib
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import OPEN_MESH, with_nan_x
from frontal_lab import catalog, expr
from frontal_lab.catalog import (ENTRIES, GENERATORS, get_entry, list_entries,
                                 validate_entry)
from frontal_lab.config import Config
from frontal_lab.errors import (DivisionByZeroValue, DomainError,
                                FrontalLabError, InputError, NotAFrontal,
                                QuadratureNonConvergent)
from frontal_lab.frame import frame_bundle
from frontal_lab.jets import Jet, _mat_values


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

    def test_nan_residual_fails_validation(self, paraboloid):
        # a NaN in one derivative of x gives a NaN decomposition residual,
        # which the load-time gate must not read as zero
        f = with_nan_x(paraboloid, lam=paraboloid.lam)
        with pytest.raises(NotAFrontal, match="residual nan"):
            validate_entry(f, ENTRIES["paraboloid"])

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


def _partial(ast, var):
    return expr.simplify(expr.differentiate(ast, var))


def _zero_like(t):
    return Jet.constant(np.zeros(np.shape(np.asarray(t.value))), t.order)


def _rank1_x(env, order, h):
    """gen-rank1-wavefront's x with its two integrands written out."""
    h_u2 = _partial(expr.parse(h), "u2")
    h_u1 = _partial(expr.parse(h), "u1")
    h_u2u1, h_u2u2 = _partial(h_u2, "u1"), _partial(h_u2, "u2")

    def moving(t):
        local = {"u1": t, "u2": env["u2"]}
        return (expr.eval_jet(h_u1, local)
                - env["u2"] * expr.eval_jet(h_u2u1, local))

    def fixed_u1(t):
        return t * expr.eval_jet(h_u2u2, {"u1": _zero_like(t), "u2": t})

    third = (catalog._integral(Config(), moving, env["u1"], 0, order)
             - catalog._integral(Config(), fixed_u1, env["u2"], 1, order))
    return [env["u1"], -expr.eval_jet(h_u2, env), third]


def _nonparabolic_x(env, order, a, b):
    """gen-nonparabolic's x with its two integrands written out."""
    a_ast, b_ast = expr.parse(a), expr.parse(b)
    a_u1, b_u1, b_u2 = (_partial(a_ast, "u1"), _partial(b_ast, "u1"),
                        _partial(b_ast, "u2"))

    def first(t):
        local = {"u1": t, "u2": env["u2"]}
        return (t * expr.eval_jet(a_u1, local)
                + env["u2"] * expr.eval_jet(b_u1, local))

    def second(t):
        return t * expr.eval_jet(b_u2, {"u1": _zero_like(t), "u2": t})

    third = (catalog._integral(Config(), first, env["u1"], 0, order)
             + catalog._integral(Config(), second, env["u2"], 1, order))
    return [expr.eval_jet(a_ast, env), expr.eval_jet(b_ast, env), third]


@pytest.mark.parametrize("name, params", [
    ("gen-rank1-wavefront", {"h": "u1^2 - u2^2"}),
    ("gen-rank1-wavefront", {"h": "sin(u1)*exp(u2) - u2^3"}),
    ("gen-nonparabolic", {"a": "u1 + u1*u2^2/2", "b": "u2 + u1^2*u2/2"}),
], ids=["rank1-harmonic", "rank1-transcendental", "nonparabolic"])
def test_path_integral_x_matches_hand_written_integrands(name, params):
    # x (orders 0-3) keeps every bit, signs of zeros included, of the
    # integrands written out by hand; the grid holds u1 = 0 and u2 = 0
    reference = {"gen-rank1-wavefront": _rank1_x,
                 "gen-nonparabolic": _nonparabolic_x}[name]
    f = get_entry(name, params).build()
    u1, u2 = f.grid((5, 5))
    for k in range(4):
        env = {"u1": Jet.variable(u1, 0, k), "u2": Jet.variable(u2, 1, k)}
        got, want = f.x(u1, u2, k).c, reference(env, k, **params)
        assert ([(np.shape(c), np.asarray(c).tobytes())
                 for j in got for c in j.coeffs]
                == [(np.shape(c), np.asarray(c).tobytes())
                    for j in want for c in j.coeffs])


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

    def test_nested_path_closed_form(self):
        # nonzero h and r run every nested integral: b = u2^2, h = u1*u2,
        # l = 1, r = u1 give G = 2/3 u1 u2^3 + u1 and
        # x3 = 4/15 u1 u2^5 + u1 u2^2 + u1^3/6
        f = get_entry("gen-extendable-nc", {"b": "u2^2", "h": "u1*u2",
                                            "l": "1", "r": "u1"}).build()
        u1, u2 = f.grid((7, 7))
        x3 = f.x(u1, u2, 1)[2]
        g = f.omega(u1, u2, 1)[1][2]
        for jet, want in (
                (x3, (4 / 15 * u1 * u2 ** 5 + u1 * u2 ** 2 + u1 ** 3 / 6,
                      4 / 15 * u2 ** 5 + u2 ** 2 + u1 ** 2 / 2,
                      4 / 3 * u1 * u2 ** 4 + 2 * u1 * u2)),
                (g, (2 / 3 * u1 * u2 ** 3 + u1, 2 / 3 * u2 ** 3 + 1,
                     2 * u1 * u2 ** 2))):
            got = (jet.value_on(u1.shape), jet.deriv(0).value_on(u1.shape),
                   jet.deriv(1).value_on(u1.shape))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("h, r, l", [("0", "0", "1"), ("0*(2+3)", "0", "1"),
                                         ("0", "-0", "1"), ("0", "0", "-1")])
    def test_zero_profiles_skip_integrals_bit_for_bit(self, monkeypatch,
                                                      h, r, l):
        # an identically zero h or r is never integrated; x (orders 0-3)
        # and Omega (orders 0-2) keep every bit, the sign of zero included,
        # of the path that integrates them
        def jet_bytes():
            f = get_entry("gen-extendable-nc",
                          {"h": h, "r": r, "l": l}).build()
            u1, u2 = f.grid((3, 3))
            jets = [f.x(u1, u2, k) for k in range(4)]
            jets += [w for k in range(3) for w in f.omega(u1, u2, k)]
            return [(np.shape(c), np.asarray(c).tobytes())
                    for v in jets for comp in v.c for c in comp.coeffs]

        calls = []
        integral = catalog._integral
        monkeypatch.setattr(catalog, "_integral",
                            lambda *args: calls.append(1) or integral(*args))
        skipped, n_skipped = jet_bytes(), len(calls)
        monkeypatch.setattr(catalog, "_identically_zero",
                            lambda ast: False)
        calls.clear()
        assert jet_bytes() == skipped
        assert n_skipped < len(calls)

    @pytest.mark.parametrize("h, r, error", [
        ("0*(1/u2)", "0", DivisionByZeroValue),
        ("0", "0*sqrt(u1)", DomainError)])
    def test_zero_profile_that_fails_to_evaluate_still_fails(self, h, r,
                                                             error):
        # simplify reads these as 0, but evaluating them fails on the grid
        # as it did when they were integrated
        with pytest.raises(error):
            get_entry("gen-extendable-nc", {"h": h, "r": r}).build()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("h, r", [("0*(1e300*u2*1e300)", "0"),
                                      ("0", "0*(1e300*u1*1e300)"),
                                      ("0*(1e300^2)", "0")])
    def test_zero_profile_that_overflows_is_integrated(self, h, r):
        # simplify reads these as 0, but they are NaN wherever the
        # variable is nonzero: the profile is integrated, and the NaN
        # lanes keep its quadrature from converging
        with pytest.raises(QuadratureNonConvergent):
            get_entry("gen-extendable-nc", {"h": h, "r": r}).build()

    @pytest.mark.parametrize("source, zero", [
        ("0", True), ("-0", True), ("0*(2+3)", True), ("0*u1", False),
        ("0*(1e300*u2)", False), ("0*(1e300*u2*1e300)", False),
        ("0*(1e300*u1*1e300)", False), ("0*(1e300*1e300)", False),
        ("0*(1/0)", False), ("0*(1e300^2)", False)])
    def test_identically_zero_evaluates_the_profile(self, source, zero):
        # a zero holds no variable and evaluates to +0 or -0; a constant
        # that overflows to NaN or divides by zero is not zero
        assert catalog._identically_zero(expr.parse(source)) is zero

    @pytest.mark.parametrize("var", (0, 1))
    @pytest.mark.parametrize("order", range(4))
    def test_zero_integral_matches_quadrature(self, var, order):
        # the skipped integral's signed zeros, against the quadrature of
        # +0 at a moving and at a fixed upper limit, over both signs of 0
        values = np.array([-1.0, -0.0, 0.0, 0.5])
        for upper in (Jet.variable(values, var, order),
                      Jet.constant(values, order)):
            want = catalog._integral(Config(), lambda t: Jet.constant(
                0.0, t.order), upper, var, order)
            got = catalog._zero_integral(upper, var)
            assert ([(np.shape(c), c.tobytes()) for c in got.coeffs]
                    == [(np.shape(c), c.tobytes()) for c in want.coeffs])

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

    @pytest.mark.parametrize("domain", [(1.0, -1.0, -1.0, 1.0),
                                        (float("nan"), 1.0, -1.0, 1.0)],
                             ids=["reversed", "nan"])
    def test_bad_domain_rejected(self, domain):
        with pytest.raises(InputError, match="^domain: "):
            get_entry("gen-nonparabolic", {"domain": domain})


# --- one-variable integrals, once per distinct value ---------------------

# point sets: a meshgrid holding u1 = 0 and u2 = 0, the open mesh of a
# sweep, scattered points with repeats and both signs of zero, and the
# same points in extended precision
_REPEATS = (np.array([0.5, -0.0, 0.0, 0.5, -0.5, -0.0, 0.5]),
            np.array([0.25, 0.0, -0.0, -0.25, 0.25, 0.0, 0.25]))
_POINT_SETS = {
    "grid": np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 3),
                        indexing="ij"),
    "open-mesh": OPEN_MESH,
    "repeats": _REPEATS,
    "extended": tuple(np.asarray(u, dtype=np.longdouble) for u in _REPEATS),
}

_PROFILES = {
    "nc-default": ("gen-extendable-nc", {}),
    "nc-transcendental": ("gen-extendable-nc", {"l": "exp(u1)",
                                                "r": "sin(u1)"}),
    "nc-rational": ("gen-extendable-nc", {"l": "1/(2 + u1)",
                                          "r": "u1/(1 + u1^2)",
                                          "b": "2/5*u2^5 + u2^2"}),
    "nc-transcendental-h": ("gen-extendable-nc", {"l": "exp(u1)",
                                                  "r": "sin(u1)",
                                                  "h": "u1*cos(u2)"}),
    "rank1-transcendental": ("gen-rank1-wavefront", {"h": "exp(u1)*cos(u2)",
                                                     "c": "1"}),
    "rank1-rational": ("gen-rank1-wavefront", {"h": "u1^2 - u2^3/(2 + u2)"}),
    "nonparabolic-transcendental": ("gen-nonparabolic",
                                    {"a": "exp(u1)*cos(u2)",
                                     "b": "-exp(u1)*sin(u2)"}),
    "nonparabolic-polynomial": ("gen-nonparabolic",
                                {"a": "u1 + u1*u2^2/2",
                                 "b": "u2 + u1^2*u2/2"}),
}
# every profile on every point set, except that the costly nonzero h,
# which adds G's two-variable integral, runs on one point set
_CASES = [(p, s) for p in _PROFILES for s in _POINT_SETS
          if p != "nc-transcendental-h" or s == "repeats"]


@functools.lru_cache(maxsize=None)
def _built(profile):
    """The generator entry of _PROFILES[profile], built once."""
    name, params = _PROFILES[profile]
    return get_entry(name, params).build()


@contextlib.contextmanager
def _plain_integrals():
    """Every one-variable integral at every lane, through _integral."""
    with mock.patch.object(catalog, "_integral_per_value",
                           catalog._integral):
        yield


def _value_bytes(c):
    """Bytes of the values of c; an extended-precision array is split
    exactly into two float64 arrays first, since its padding bytes are
    no part of its values."""
    c = np.asarray(c)
    if c.dtype == np.float64:
        return c.tobytes()
    hi = c.astype(np.float64)
    return hi.tobytes() + (c - hi).astype(np.float64).tobytes()


def _jet_bytes(f, u1, u2, x_orders=range(4), omega_orders=range(3)):
    """Shape, dtype, constant flag and value bytes of every coefficient of
    x and Omega at the given orders."""
    jets = [f.x(u1, u2, k) for k in x_orders]
    jets += [w for k in omega_orders for w in f.omega(u1, u2, k)]
    return [(np.shape(c), np.asarray(c).dtype.str, comp.const,
             _value_bytes(c))
            for v in jets for comp in v.c for c in comp.coeffs]


@pytest.mark.parametrize("profile, points", _CASES,
                         ids=[f"{p}-{s}" for p, s in _CASES])
def test_distinct_value_integrals_keep_every_bit(profile, points):
    # x (orders 0-3) and Omega (orders 0-2) are byte for byte those of
    # integrating every one-variable integral at every lane
    f = _built(profile)
    u1, u2 = _POINT_SETS[points]
    got = _jet_bytes(f, u1, u2)
    with _plain_integrals():
        assert _jet_bytes(f, u1, u2) == got


def test_scalar_upper_keeps_the_plain_path(monkeypatch):
    # a 0-d upper limit is integrated as given: as a 1-D array its powers
    # would leave libm's pow
    uppers = []
    integral = catalog._integral
    monkeypatch.setattr(catalog, "_integral",
                        lambda cfg, integrand, upper, var, order:
                        uppers.append(upper)
                        or integral(cfg, integrand, upper, var, order))
    upper = Jet.variable(-0.0, 0, 2)
    catalog._integral_per_value(Config(), lambda t: t * t, upper, 0, 2)
    assert uppers == [upper]


@pytest.mark.parametrize("profile, var", [
    ("nc-transcendental", 0), ("rank1-transcendental", 1),
    ("nonparabolic-polynomial", 1)])
def test_one_variable_integrand_sees_each_value_once(monkeypatch, profile,
                                                     var):
    # 7 points hold 4 distinct u1 and 3 distinct u2 values, -0.0 and 0.0
    # apart: every call of a one-variable integrand carries that many
    # lanes per node, with or without a leading node axis
    u1 = np.array([0.5, -0.0, 0.0, 0.5, -0.5, -0.0, 0.5])
    u2 = np.array([0.25, 0.25, -0.0, 0.0, 0.25, 0.0, 0.25])
    f = _built(profile)
    shapes = []
    per_value = catalog._integral_per_value

    def watched(cfg, integrand, upper, var, order):
        def spy(t):
            shapes.append((var, np.shape(t.value)))
            return integrand(t)
        return per_value(cfg, spy, upper, var, order)

    monkeypatch.setattr(catalog, "_integral_per_value", watched)
    f.x(u1, u2, 3)
    f.omega(u1, u2, 2)
    assert {v for v, _ in shapes} == {var}
    assert all(len(shape) in (1, 2) and shape[-1] == (4, 3)[var]
               for _, shape in shapes)


_ATOMS = ("u1", "-0", "2.5", "exp(u1)", "sin(u1)", "cos(3*u1)",
          "1/(u1 + 1.5)", "sqrt(u1 + 2)", "sqrt(u1)", "u1^3", "1/u1",
          "abs(u1)")
_PROFILE = st.sampled_from(_ATOMS) | st.builds(
    lambda a, op, b: f"({a}){op}({b})", st.sampled_from(_ATOMS),
    st.sampled_from("+-*/"), st.sampled_from(_ATOMS))
_COORDS = st.lists(st.sampled_from((-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0)),
                   min_size=1, max_size=5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(l=_PROFILE, r=_PROFILE, u1=_COORDS, u2=_COORDS)
def test_random_profiles_keep_every_bit_or_error(l, r, u1, u2):
    # on a mesh of at most 5 x 5 points with repeats and signed zeros,
    # both paths give the same bytes or the same typed error
    entry = get_entry("gen-extendable-nc", {"l": l, "r": r})
    f = entry.builder(entry, Config(quad_nodes=8))
    mesh = np.meshgrid(np.array(u1), np.array(u2), indexing="ij")

    def outcome():
        try:
            return _jet_bytes(f, *mesh, x_orders=(3,), omega_orders=(2,))
        except FrontalLabError as exc:
            return type(exc), str(exc)

    got = outcome()
    with _plain_integrals():
        assert outcome() == got


# --- x and Omega of gen-extendable-nc share C ----------------------------

_NESTED = {"b": "2/5*u2^5 + u2^2", "h": "u1*u2", "l": "1", "r": "u1"}
# a 3x3 mesh holding both signs of zero, and the same points in extended
# precision
_SHARED_POINTS = {
    "float64": np.meshgrid(np.array([-0.5, -0.0, 0.75]),
                           np.array([0.0, -0.25, 0.5]), indexing="ij"),
}
_SHARED_POINTS["longdouble"] = tuple(np.asarray(u, dtype=np.longdouble)
                                     for u in _SHARED_POINTS["float64"])


def _fresh(config=None):
    """The nested gen-extendable-nc frontal, built without validation, so
    nothing has been evaluated on it."""
    entry = get_entry("gen-extendable-nc", _NESTED)
    return entry.builder(entry, config or Config())


def _asked(f, what, u1, u2, order):
    """Value bytes of every coefficient of x or Omega at `order`."""
    jets = [f.x(u1, u2, order)] if what == "x" else list(f.omega(u1, u2, order))
    return [(np.shape(c), np.asarray(c).dtype.str, _value_bytes(c))
            for v in jets for comp in v.c for c in comp.coeffs]


@pytest.mark.parametrize("points", sorted(_SHARED_POINTS))
@pytest.mark.parametrize("first", ["x", "omega"])
def test_x_and_omega_asked_together_equal_fresh_builds(points, first):
    # at every order, x and Omega asked one after the other of one build
    # (either first) hold every bit, signs of zeros included, of a fresh
    # build asked for one of them alone
    u1, u2 = _SHARED_POINTS[points]
    second = "omega" if first == "x" else "x"
    f = _fresh()
    for order in range(3):
        together = [_asked(f, what, u1, u2, order) for what in (first, second)]
        alone = [_asked(_fresh(), what, u1, u2, order)
                 for what in (first, second)]
        assert together == alone


def _top_level_integrals(monkeypatch):
    """Names of the integrands catalog._integral is handed outside any
    other integral, appended to the returned list as they run."""
    names, depth = [], [0]
    integral = catalog._integral

    def watched(cfg, integrand, upper, var, order):
        if not depth[0]:
            names.append(integrand.__name__)
        depth[0] += 1
        try:
            return integral(cfg, integrand, upper, var, order)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(catalog, "_integral", watched)
    return names


def test_one_build_integrates_c_once(monkeypatch):
    # C's two top-level integrals, t12 over u2 and t34 over u1, run once
    # for x and Omega of the load-time validation together
    names = _top_level_integrals(monkeypatch)
    get_entry("gen-extendable-nc", _NESTED).build()
    assert names.count("outer_u2") == 1
    assert names.count("outer_u1") == 1


def test_lower_order_is_integrated_apart(monkeypatch):
    # Omega at order 0 takes C at order 1, which x at order 1 reuses;
    # x at order 0 integrates C again at order 0
    f = _fresh()
    u1, u2 = _SHARED_POINTS["float64"]
    names = _top_level_integrals(monkeypatch)
    f.omega(u1, u2, 0)
    f.x(u1, u2, 1)
    assert names.count("outer_u2") == 1
    f.x(u1, u2, 0)
    assert names.count("outer_u2") == 2


def test_each_build_keeps_its_own_c():
    # one entry built under two Configs: each build, asked in turn at the
    # same points, gives the bits of its own fresh build, and the two
    # Configs give different bits, so a C shared between builds would show
    entry = get_entry("gen-extendable-nc", _NESTED)
    configs = (Config(), Config(quad_nodes=8))
    u1, u2 = _SHARED_POINTS["float64"]
    builds = [entry.build(cfg) for cfg in configs]
    got = {}
    for what in ("omega", "x"):
        for k, f in enumerate(builds):
            got[what, k] = _asked(f, what, u1, u2, 1)
    for (what, k), jets in got.items():
        assert jets == _asked(_fresh(configs[k]), what, u1, u2, 1)
    assert got["x", 0] != got["x", 1]


def test_validation_asks_x_for_order_1():
    # validation reads the values of x_u, Omega and Lambda only
    f = get_entry("gen-extendable-nc", _NESTED).build()
    orders = {"x": [], "omega": [], "lam": []}
    for name in orders:
        fn = getattr(f, name)
        setattr(f, name, lambda u1, u2, order, fn=fn, name=name:
                orders[name].append(order) or fn(u1, u2, order))
    validate_entry(f, get_entry("gen-extendable-nc", _NESTED))
    assert orders == {"x": [1], "omega": [1], "lam": [1]}


def test_points_that_differ_in_one_bit_are_integrated_apart():
    # the same mesh with +0.0 for -0.0: x asked at it after Omega at the
    # mesh is that of a fresh build, and differs from x at the mesh
    u1, u2 = _SHARED_POINTS["float64"]
    flipped = (np.where(u1 == 0.0, 0.0, u1), u2)
    f = _fresh()
    f.omega(u1, u2, 1)
    got = _asked(f, "x", *flipped, 1)
    assert got == _asked(_fresh(), "x", *flipped, 1)
    assert got != _asked(_fresh(), "x", u1, u2, 1)
