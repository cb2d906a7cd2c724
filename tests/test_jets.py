"""Jet arithmetic against hand values and the finite-difference oracle."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontal_lab import expr
from frontal_lab.errors import (DivisionByZeroValue, DomainError,
                                InsufficientJetOrder, QuadratureNonConvergent)
from frontal_lab.jets import (INDICES, LANES, NCOEFF, _PRODUCT, Jet, JetVec3,
                              _quad_fixed, fd_jet, integrate_jet,
                              jets_allclose)


def jet_at(source, point, order):
    return expr.eval_point(expr.parse(source), point, order)


def coeff_dict(jet):
    return {ij: float(np.asarray(jet.partial(*ij))) for ij in INDICES[jet.order]}


class TestArithmetic:
    def test_bilinear_product(self):
        j = jet_at("u1*u2", (2.0, 3.0), 1)
        assert j.value == pytest.approx(6.0)
        assert j.partial(1, 0) == pytest.approx(3.0)
        assert j.partial(0, 1) == pytest.approx(2.0)

    def test_square_order2(self):
        j = jet_at("u2^2", (0.0, 1.0), 2)
        assert j.value == pytest.approx(1.0)
        assert j.partial(0, 1) == pytest.approx(2.0)
        assert j.partial(0, 2) == pytest.approx(2.0)
        assert j.partial(1, 0) == 0.0
        assert j.partial(2, 0) == 0.0
        assert j.partial(1, 1) == 0.0

    def test_smooth_composite_vs_fd(self):
        src = "sin(u1*u2)/(1 + u2^2)"
        point = (0.3, 0.7)
        analytic = jet_at(src, point, 3)
        ast = expr.parse(src)
        oracle = fd_jet(lambda a, b: expr.eval_num(ast, {"u1": a, "u2": b}),
                        point, order=3)
        for ij in INDICES[3]:
            ref = float(oracle.partial(*ij))
            got = float(analytic.partial(*ij))
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-6)

    def test_division_inverts_product(self):
        f = jet_at("1 + u1 + u2^2", (0.4, -0.3), 3)
        g = jet_at("2 + sin(u1)", (0.4, -0.3), 3)
        assert jets_allclose((f * g) / g, f, tol=1e-12)

    def test_division_by_zero_value(self):
        f = jet_at("u1", (1.0, 0.0), 2)
        g = jet_at("u2", (1.0, 0.0), 2)
        with pytest.raises(DivisionByZeroValue):
            f / g

    def test_integer_power_matches_repeated_product(self):
        f = jet_at("1 + u1*u2", (0.5, 0.25), 3)
        assert jets_allclose(f ** 3, f * f * f, tol=1e-12)
        assert jets_allclose(f ** (-2), 1.0 / (f * f), tol=1e-12)

    def test_powf_roundtrip(self):
        f = jet_at("2 + u1 + u2", (0.1, 0.2), 3)
        assert jets_allclose(f.powf(0.25) ** 4, f, tol=1e-11)

    def test_sqrt_square(self):
        f = jet_at("1 + u1^2 + u2^2", (0.3, -0.4), 3)
        assert jets_allclose(f.sqrt() * f.sqrt(), f, tol=1e-12)

    def test_abs_sign_definite(self):
        f = jet_at("-1 - u1^2", (0.3, 0.0), 2)
        g = f.absolute()
        assert jets_allclose(g, -f, tol=1e-14)
        with pytest.raises(DomainError):
            jet_at("u1", (0.0, 0.0), 1).absolute()

    def test_order_guards(self):
        f = jet_at("u1*u2", (1.0, 1.0), 1)
        with pytest.raises(InsufficientJetOrder):
            f.partial(1, 1)
        with pytest.raises(InsufficientJetOrder):
            f.deriv(0).deriv(1)

    def test_vectorized_coefficients(self):
        u1 = np.linspace(-1.0, 1.0, 11)
        u2 = np.full(11, 0.5)
        env = {"u1": Jet.variable(u1, 0, 2), "u2": Jet.variable(u2, 1, 2)}
        j = expr.eval_jet(expr.parse("u1^2*u2"), env)
        np.testing.assert_allclose(j.value, u1 ** 2 * 0.5, atol=1e-14)
        np.testing.assert_allclose(j.partial(1, 0), 2 * u1 * 0.5, atol=1e-14)
        np.testing.assert_allclose(j.partial(1, 1), 2 * u1, atol=1e-14)


coef = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def jet_strategy(order=3):
    n = len(INDICES[order])
    return st.lists(coef, min_size=n, max_size=n).map(
        lambda cs: Jet(order, [np.asarray(c) for c in cs]))


def power_from_one(jet, n):
    """Reference integer power: square-and-multiply from a constant-one
    jet, so the first factor costs a product with one."""
    result = Jet.constant(np.ones(np.shape(jet.value)), jet.order)
    base = jet
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _random_jet(rng, order, values, lanes=64):
    # coefficients drawn from `values` and from uniform noise, so signed
    # zeros, exact cancellations and generic products all occur
    return Jet(order, [np.where(rng.random(lanes) < 0.5,
                                rng.choice(values, lanes),
                                rng.uniform(-2.0, 2.0, lanes))
                       for _ in INDICES[order]])


class TestIntegerPower:
    @pytest.mark.parametrize("order", range(4))
    def test_finite_lanes_match_the_product_from_one(self, order):
        rng = np.random.default_rng(order)
        jet = _random_jet(rng, order, [0.0, -0.0, 1.0, -1.0, 0.5])
        for n in range(13):
            got, ref = jet ** n, power_from_one(jet, n)
            for a, b in zip(got.coeffs, ref.coeffs):
                a, b = np.broadcast_arrays(a, b)
                assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("order", range(1, 4))
    def test_non_finite_lanes_keep_the_value(self, order):
        # a derivative coefficient may turn from inf to NaN or back, but
        # never between finite and not, and the value keeps every bit
        rng = np.random.default_rng(10 + order)
        jet = _random_jet(rng, order, [np.inf, -np.inf, np.nan, 0.0, -0.0])
        for n in range(2, 13):
            got, ref = jet ** n, power_from_one(jet, n)
            assert np.array_equal(got.value.view(np.int64),
                                  ref.value.view(np.int64))
            for a, b in zip(got.coeffs, ref.coeffs):
                finite = np.isfinite(b)
                assert np.array_equal(np.isfinite(a), finite)
                assert np.array_equal(a[finite].view(np.int64),
                                      b[finite].view(np.int64))


def leibniz_product(a, b):
    """Reference jet product: the general Leibniz loop, every term summed
    from +0.0 in table order, with no short path for constant factors."""
    n = min(a.order, b.order)
    out = []
    for terms in _PRODUCT[n]:
        acc = 0.0
        for pa, pb, c in terms:
            term = a.coeffs[pa] * b.coeffs[pb]
            acc = acc + (term if c == 1.0 else c * term)
        out.append(acc)
    return Jet(n, out)


@contextlib.contextmanager
def general_products():
    """Every jet x jet product inside the block runs leibniz_product,
    including the products inside **, powf and sin."""
    mul = Jet.__mul__

    def reference(self, other):
        if isinstance(other, Jet):
            return leibniz_product(self, other)
        return mul(self, other)

    Jet.__mul__ = Jet.__rmul__ = reference
    try:
        yield
    finally:
        Jet.__mul__ = Jet.__rmul__ = mul


# signed zeros, units and halves make exact cancellations and +-0
# products common; the uniform floats cover generic lanes
lane_value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0]) | coef

OPERAND_KINDS = ("constant", "variable", "general", "constant-sum",
                 "constant-neg", "constant-scaled", "constant-truncated",
                 "constant-deriv")


@st.composite
def operands(draw):
    """A jet of order 0-3 with 0-d or (4,) coefficients, made by one of
    the constructions that do or do not set the constant flag."""
    order = draw(st.integers(0, 3))
    shape = draw(st.sampled_from([(), (4,)]))
    kind = draw(st.sampled_from(OPERAND_KINDS))

    def lanes():
        values = draw(st.lists(lane_value, min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        return np.array(values).reshape(shape)

    if kind == "variable":
        return Jet.variable(lanes(), draw(st.integers(0, 1)), order)
    if kind == "general":
        return Jet(order, [lanes() for _ in range(NCOEFF[order])])
    if kind == "constant-sum":
        return Jet.constant(lanes(), order) - Jet.constant(lanes(), order)
    if kind == "constant-neg":
        return -Jet.constant(lanes(), order)
    if kind == "constant-scaled":
        return Jet.constant(lanes(), order) * draw(lane_value)
    if kind == "constant-truncated":
        return Jet.constant(lanes(), 3).truncate(order)
    if kind == "constant-deriv":
        var = draw(st.integers(0, 1))
        return Jet.constant(lanes(), max(order, 1)).deriv(var)
    return Jet.constant(lanes(), order)


def assert_same_bits(got, ref):
    assert got.order == ref.order
    for a, b in zip(got.coeffs, ref.coeffs):
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(np.asarray(a).view(np.int64),
                              np.asarray(b).view(np.int64))


class TestConstantProducts:
    """A product with a constant factor skips that factor's zero-derivative
    terms; on finite lanes every coefficient keeps the general loop's bits."""

    @given(operands(), operands(), st.integers(0, 5),
           st.sampled_from([0.5, -1.5, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_finite_lanes_match_the_general_loop(self, a, b, n, alpha):
        def results():
            return [a * b, b * a, (a * b) ** n,
                    (a * a + b * b + 0.5).powf(alpha), (a * b).sin()]

        got = results()
        with general_products():
            ref = results()
        for x, y in zip(got, ref):
            assert_same_bits(x, y)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("order", range(1, 4))
    def test_non_finite_lanes_keep_the_value(self, order):
        # a skipped 0*inf would have been NaN: a derivative coefficient
        # may be finite where the general loop gives NaN, never the other
        # way round, and the value keeps every bit
        rng = np.random.default_rng(20 + order)
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0]
        general = _random_jet(rng, order, special)
        const = Jet.constant(_random_jet(rng, 0, special).value, order)
        for a, b in ((const, general), (general, const), (const, const)):
            got, ref = a * b, leibniz_product(a, b)
            assert np.array_equal(got.value.view(np.int64),
                                  ref.value.view(np.int64))
            for x, y in zip(got.coeffs, ref.coeffs):
                x, y = np.broadcast_arrays(x, y)
                finite = np.isfinite(y)
                assert np.all(np.isfinite(x) | ~finite)
                assert np.array_equal(x[finite].view(np.int64),
                                      y[finite].view(np.int64))


class TestConstantFlag:
    values = np.array([-1.5, -0.0, 0.0, 2.0])

    def test_constructions_that_set_or_keep_it(self):
        c = Jet.constant(self.values, 3)
        d = Jet.constant(np.flip(self.values), 3)
        for jet in (c, c.truncate(1), -c, c * 2.5, 2.5 * c, c * self.values,
                    c + d, c - d, c + 1.0, 1.0 - c, c * d):
            assert jet.const

    def test_quadrature_nodes_are_constant(self):
        seen = []

        def integrand(t):
            seen.append(t.const)
            return t

        _quad_fixed(integrand, 0.0, np.linspace(0.5, 1.0, 3), 2, 8)
        assert seen and all(seen)

    def test_constructions_that_leave_it_unset(self):
        c = Jet.constant(self.values, 3)
        v = Jet.variable(self.values, 0, 3)
        hand = Jet(3, list(c.coeffs))
        for jet in (v, c.deriv(0), hand, c + v, v - c, c * v, v * c,
                    c * hand, c / (c + 5.0), v * 2.0):
            assert not jet.const


class TestRingAxioms:
    @given(jet_strategy(), jet_strategy(), jet_strategy())
    @settings(max_examples=200, deadline=None)
    def test_mul_associative(self, a, b, c):
        assert jets_allclose((a * b) * c, a * (b * c), tol=1e-12)

    @given(jet_strategy(), jet_strategy(), jet_strategy())
    @settings(max_examples=200, deadline=None)
    def test_distributive(self, a, b, c):
        assert jets_allclose(a * (b + c), a * b + a * c, tol=1e-12)

    @given(jet_strategy(), jet_strategy())
    @settings(max_examples=200, deadline=None)
    def test_leibniz_both_orders(self, a, b):
        # d(fg) = f dg + g df, coefficientwise, in both variables.
        prod = a * b
        for var in (0, 1):
            lhs = prod.deriv(var)
            rhs = a.truncate(2) * b.deriv(var) + b.truncate(2) * a.deriv(var)
            assert jets_allclose(lhs, rhs, tol=1e-12)


class TestFdJet:
    def test_linear_exact(self):
        j = fd_jet(lambda a, b: a + b, (0.0, 0.0), order=1, step=1e-4)
        assert abs(j.value) < 1e-10
        assert j.partial(1, 0) == pytest.approx(1.0, abs=1e-10)
        assert j.partial(0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_exp_third_derivative(self):
        j = fd_jet(lambda a, b: np.exp(a), (0.0, 0.0), order=3, step=1e-2)
        assert j.partial(3, 0) == pytest.approx(1.0, abs=1e-3)


class TestJetVec3:
    def test_cross_dot_norm(self):
        order = 2
        e1 = JetVec3.constant((1.0, 0.0, 0.0), order)
        e2 = JetVec3.constant((0.0, 1.0, 0.0), order)
        n = e1.cross(e2)
        np.testing.assert_allclose(n.value(), [0.0, 0.0, 1.0], atol=1e-15)
        assert float(e1.dot(e2).value) == 0.0
        assert float(n.norm().value) == pytest.approx(1.0)

    def test_cross_antisymmetry(self):
        order = 1
        a = JetVec3.constant((0.3, -0.2, 0.9), order)
        b = JetVec3.constant((1.0, 0.4, -0.5), order)
        lhs = a.cross(b).value()
        rhs = (-(b.cross(a))).value()
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


class TestIntegrateJet:
    def test_constant_integrand(self):
        upper = Jet.variable(0.5, 0, 3)
        out = integrate_jet(lambda t: Jet.constant(1.0, 3), 0.0, upper, var=0)
        assert out.value == pytest.approx(0.5)
        assert out.partial(1, 0) == pytest.approx(1.0)
        assert out.partial(2, 0) == pytest.approx(0.0, abs=1e-12)

    def test_identity_integrand(self):
        upper = Jet.variable(2.0, 0, 3)
        out = integrate_jet(lambda t: t, 0.0, upper, var=0)
        assert out.value == pytest.approx(2.0)
        assert out.partial(1, 0) == pytest.approx(2.0)
        assert out.partial(2, 0) == pytest.approx(1.0)
        assert out.partial(3, 0) == pytest.approx(0.0, abs=1e-12)

    def test_wavefront_third_component_closed_form(self):
        # For h = u1^2 + u2^3 the third component
        #   int_0^{u1} (h_u1(t,u2) - u2*h_u2u1(t,u2)) dt - int_0^{u2} t*h_u2u2(0,t) dt
        # equals u1^2 - 2*u2^3 exactly.
        point = (0.4, 0.3)
        order = 3
        u2j = Jet.variable(point[1], 1, order)

        first = integrate_jet(lambda t: 2.0 * t,
                              0.0, Jet.variable(point[0], 0, order), var=0)
        second = integrate_jet(lambda t: t * (6.0 * t),
                               0.0, Jet.variable(point[1], 1, order), var=1)
        got = first - second

        oracle = expr.eval_point(expr.parse("u1^2 - 2*u2^3"), point, order)
        for ij in INDICES[order]:
            assert float(got.partial(*ij)) == pytest.approx(
                float(oracle.partial(*ij)), abs=1e-10)
        _ = u2j  # u2 enters only through its own integral here

    def test_exact_derivative_recovers_difference(self):
        # integral of g'(t) over [0, u1] with g = sin:  sin(u1) - sin(0)
        point = (0.8, 0.0)
        out = integrate_jet(lambda t: t.cos(), 0.0,
                            Jet.variable(point[0], 0, 3), var=0)
        ref = expr.eval_point(expr.parse("sin(u1)"), point, 3)
        assert jets_allclose(out, ref, tol=1e-12)

    def test_fixed_interval_parameter_derivatives(self):
        # I(u2) = int_0^1 sin(t*u2) dt; dI/du2 = int_0^1 t cos(t u2) dt
        point = 0.7
        u2 = Jet.variable(point, 1, 2)
        out = integrate_jet(lambda t: (t * u2).sin(), 0.0, 1.0)
        val = (1 - np.cos(point)) / point
        dval = (np.cos(point) * point - np.sin(point)) / point ** 2 * (-1)
        # d/du2 int sin(t u2) dt = int t cos(t u2) dt = (cos(u2) + u2 sin(u2) - 1)/u2^2
        dval = (np.cos(point) + point * np.sin(point) - 1) / point ** 2
        assert float(out.value) == pytest.approx(val, abs=1e-12)
        assert float(out.partial(0, 1)) == pytest.approx(dval, abs=1e-10)

    def test_array_endpoints(self):
        uppers = np.array([0.5, 1.0, 2.0])
        out = integrate_jet(lambda t: t, 0.0, Jet.variable(uppers, 0, 2), var=0)
        np.testing.assert_allclose(out.value, uppers ** 2 / 2, atol=1e-12)
        np.testing.assert_allclose(out.partial(1, 0), uppers, atol=1e-12)

    def test_nonconvergent_raises(self):
        def needle(t):
            return Jet.constant(np.tanh((np.asarray(t.value) - 0.3) * 1e8), 1)
        with pytest.raises(QuadratureNonConvergent):
            integrate_jet(needle, 0.0, 1.0, nodes=8, max_nodes=64, tol=1e-13)

    def test_leaked_endpoint_dependence_rejected(self):
        u1 = Jet.variable(0.5, 0, 2)
        with pytest.raises(ValueError):
            integrate_jet(lambda t: u1, 0.0, Jet.variable(0.5, 0, 2), var=0)


def quad_by_node(integrand, lower, upper_value, order, nodes):
    """Reference Gauss-Legendre sum: one integrand call per node."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    upper_value = np.asarray(upper_value, dtype=float)
    half = (upper_value - lower) / 2.0
    mid = (upper_value + lower) / 2.0
    total = None
    for xk, wk in zip(xs, ws):
        term = integrand(Jet.constant(mid + half * xk, order)) * (wk * half)
        total = term if total is None else total + term
    return total


def assert_bitwise_equal(a, b):
    assert a.order == b.order
    for x, y in zip(a.coeffs, b.coeffs):
        assert np.array_equal(x, y)


class TestBatchedQuadrature:
    """_quad_fixed batches nodes on an array axis; the sums must not move."""

    @pytest.mark.parametrize("uppers", [
        np.linspace(0.2, 1.9, 20).reshape(4, 5), 1.3])
    def test_endpoints(self, uppers):
        # The parameter jet gives the terms nonzero derivative coefficients.
        u2 = Jet.variable(np.full(np.shape(uppers), 0.7), 1, 3)

        def integrand(t):
            s = t * u2
            return (s * s + 1.0).sqrt() * s.cos() / (s.exp() + 2.0)

        for nodes in (8, 32, 64):
            assert_bitwise_equal(_quad_fixed(integrand, 0.1, uppers, 3, nodes),
                                 quad_by_node(integrand, 0.1, uppers, 3, nodes))

    def test_fixed_scalar_interval_over_grid_jets(self):
        # The node axis must go in front of the closure's (3, 32) shape, not
        # in front of the scalar interval's ().
        rng = np.random.default_rng(3)
        u2 = Jet.variable(rng.uniform(0.1, 2.0, (3, 32)), 1, 3)

        def integrand(t):
            return (t * u2).sin()

        assert_bitwise_equal(_quad_fixed(integrand, 0.0, 1.0, 3, 32),
                             quad_by_node(integrand, 0.0, 1.0, 3, 32))

    def test_nested_inner_captures_outer_nodes(self):
        # The inner integrand closes over the outer node jet t2, which is
        # node-batched, while the inner upper limit has no node axis.
        u1 = Jet.variable(np.linspace(0.1, 0.9, 6).reshape(2, 3), 0, 3)

        def nested(quad):
            def outer(t2):
                return quad(lambda t1: (t1 * t2).sin() * u1, 0.0, u1.value,
                            3, 16)
            return quad(outer, 0.0, u1.value, 3, 32)

        assert_bitwise_equal(nested(_quad_fixed), nested(quad_by_node))

    @pytest.mark.parametrize("shape", [(3, 3), (LANES,)])
    def test_integrand_calls_per_rule(self, shape):
        upper = np.linspace(0.1, 1.0, math.prod(shape)).reshape(shape)
        nodes_per_call = []

        def integrand(t):
            extra = np.ndim(t.value) - len(shape)
            nodes_per_call.append(np.shape(t.value)[0] if extra else 1)
            return t * t

        integrate_jet(integrand, 0.0, upper, nodes=32)
        # A quadratic converges at the first doubling: rules of 32 and 64.
        assert sum(nodes_per_call) == 32 + 64
        batch = max(1, LANES // upper.size)
        assert len(nodes_per_call) == sum(1 + math.ceil((n - 1) / batch)
                                          for n in (32, 64))
