"""Parser, printer round-trip, and the two independent evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frontal_lab import expr
from frontal_lab.errors import (DomainError, ExprSyntaxError,
                                UnknownIdentifier)
from frontal_lab.expr import Bin, Num, Pow, Unary, Var
from frontal_lab.jets import Jet, JetVec3


class TestParse:
    def test_simple_product_sum(self):
        ast = expr.parse("u1*u2 + 1")
        assert ast == Bin("+", Bin("*", Var("u1"), Var("u2")), Num(1.0))

    def test_quintic_component(self):
        ast = expr.parse("2/5*u2^5 + u2^2")
        expected = Bin("+",
                       Bin("*", Bin("/", Num(2.0), Num(5.0)), Pow(Var("u2"), 5)),
                       Pow(Var("u2"), 2))
        assert ast == expected

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            expr.parse("u1*(")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            expr.parse("u3 + 1")

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            expr.parse("u1^2.5")

    def test_pow_call_form(self):
        assert expr.parse("pow(u1 + 1, -2)") == Pow(Bin("+", Var("u1"), Num(1.0)), -2)

    def test_precedence(self):
        # ^ binds above unary minus, which binds above * /
        assert expr.parse("-u1^2") == Unary("neg", Pow(Var("u1"), 2))
        assert expr.parse("2*-u1") == Bin("*", Num(2.0), Unary("neg", Var("u1")))
        # left-associative subtraction
        assert expr.parse("1 - 2 - 3") == Bin("-", Bin("-", Num(1.0), Num(2.0)),
                                              Num(3.0))

    def test_right_associative_power(self):
        assert expr.parse("u1^2^3") == Pow(Var("u1"), 8)


class TestEval:
    def test_order0_sum(self):
        j = expr.eval_point(expr.parse("u1+u2"), (1.0, 2.0), 0)
        assert float(j.value) == pytest.approx(3.0)

    def test_hand_differentiated_cubic(self):
        # 12*u1^2*u2 - 4*u2^3 at (1,1): value 8, d/du1 = 24, d/du2 = 0
        j = expr.eval_point(expr.parse("12*u1^2*u2 - 4*u2^3"), (1.0, 1.0), 1)
        assert float(j.value) == pytest.approx(8.0)
        assert float(j.partial(1, 0)) == pytest.approx(24.0)
        assert float(j.partial(0, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            expr.eval_point(expr.parse("sqrt(u1)"), (-1.0, 0.0), 1)

    @pytest.mark.parametrize("source, env", [
        ("1/0", {}), ("0/0", {}), ("u1/u2", {"u1": 1.0, "u2": 0.0}),
        ("u1/u2", {"u1": np.array([1.0, 2.0]), "u2": np.array([1.0, 0.0])})])
    def test_plain_division_by_zero_is_domain_error(self, source, env):
        # Python floats as well as arrays: the quotient goes through numpy,
        # so a zero divisor meets the same guard
        with pytest.raises(DomainError, match="division by zero"):
            expr.eval_num(expr.parse(source), env)

    @pytest.mark.parametrize("source, want", [
        ("1e300^2", np.inf), ("(-1e300)^3", -np.inf), ("(-1e300)^2", np.inf),
        ("1.1^7", 1.1 ** 7), ("(-0.3)^5", (-0.3) ** 5), ("1e-300^2", 0.0)])
    def test_plain_power_overflows_to_inf(self, source, want):
        # Python floats raise OverflowError where an array (or a product)
        # gives IEEE +-inf; a power that does not overflow keeps every bit
        ast = expr.parse(source)
        got = expr.eval_num(ast, {})
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert expr.simplify(ast) == Num(got)


SIX_SOURCES = ["u1*u2", "sin(u1) + u2", "u2^2/(2 + u1^2)", "1",
               "exp(u2)", "-u1^3"]
U1, U2 = np.array([0.3, -0.4, 0.0]), np.array([0.5, 0.0, -0.2])


def _bits(jets):
    return [(np.shape(c), np.asarray(c).tobytes())
            for j in jets for c in j.coeffs]


def _reference(sources, order):
    env = {"u1": Jet.variable(U1, 0, order), "u2": Jet.variable(U2, 1, order)}
    return [expr.eval_jet(expr.parse(s), env) for s in sources]


class TestJetsFn:
    def test_one_source_is_a_jet(self):
        got = expr.jets_fn(SIX_SOURCES[:1])(U1, U2, 2)
        assert isinstance(got, Jet)
        assert _bits([got]) == _bits(_reference(SIX_SOURCES[:1], 2))

    def test_three_sources_are_a_vector(self):
        got = expr.jets_fn(SIX_SOURCES[:3])(U1, U2, 2)
        assert isinstance(got, JetVec3)
        assert _bits(got.c) == _bits(_reference(SIX_SOURCES[:3], 2))

    def test_four_sources_are_a_row_major_matrix(self):
        got = expr.jets_fn(SIX_SOURCES[:4])(U1, U2, 2)
        assert [len(row) for row in got] == [2, 2]
        assert (_bits(got[0] + got[1])
                == _bits(_reference(SIX_SOURCES[:4], 2)))

    def test_six_sources_are_two_basis_columns(self):
        w1, w2 = expr.jets_fn(SIX_SOURCES)(U1, U2, 2)
        assert isinstance(w1, JetVec3) and isinstance(w2, JetVec3)
        assert _bits(w1.c + w2.c) == _bits(_reference(SIX_SOURCES, 2))

    @pytest.mark.parametrize("count", [1, 3, 4, 6])
    def test_text_and_ast_sources_give_the_same_bits(self, count):
        def flat(packed):
            if isinstance(packed, Jet):
                return [packed]
            if isinstance(packed, JetVec3):
                return list(packed.c)
            return [j for part in packed for j in flat(part)]

        text = SIX_SOURCES[:count]
        asts = [expr.parse(s) for s in text]
        for order in range(4):
            assert (_bits(flat(expr.jets_fn(text)(U1, U2, order)))
                    == _bits(flat(expr.jets_fn(asts)(U1, U2, order))))


SAFE_SOURCES = [
    "u1*u2 + 1",
    "2/5*u2^5 + u2^2",
    "sin(u1*u2)/(1 + u2^2)",
    "exp(u1/4)*cos(u2)",
    "sqrt(1 + u1^2 + u2^2)",
    "pow(1 + u1^2, -2)",
    "-u1^3 + 2*u2 - 0.5",
    "(u1 + u2)*(u1 - u2)",
    "abs(2 + u1^2)",
]


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("src", SAFE_SOURCES)
    def test_round_trip_identity(self, src):
        ast = expr.parse(src)
        assert expr.parse(expr.to_source(ast)) == ast


def _random_source(rng):
    # Small random expression over safe building blocks.
    atoms = ["u1", "u2", "1.5", "0.25", "(1 + u1^2)", "(2 + u2^2)"]
    unary = ["sin", "cos", "exp"]
    parts = [rng.choice(atoms) for _ in range(3)]
    a = f"{parts[0]} * {parts[1]} + {parts[2]}"
    if rng.random() < 0.5:
        a = f"{rng.choice(unary)}({a})"
    if rng.random() < 0.5:
        a = f"{a} / (2 + u1^2)"
    return a


class TestEvaluatorAgreement:
    def test_jet_value_matches_plain_eval(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            src = _random_source(rng)
            ast = expr.parse(src)
            p = rng.uniform(-1.0, 1.0, size=2)
            plain = expr.eval_num(ast, {"u1": p[0], "u2": p[1]})
            jet = expr.eval_point(ast, (p[0], p[1]), 0)
            assert float(jet.value) == pytest.approx(plain, abs=1e-14, rel=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ast = expr.parse(_random_source(rng))
            assert expr.parse(expr.to_source(ast)) == ast


class TestDifferentiate:
    @given(st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_jet_partial(self, a, b):
        src = "sin(u1*u2) + u1^3/(2 + u2^2)"
        ast = expr.parse(src)
        for name, var in (("u1", 0), ("u2", 1)):
            d_ast = expr.differentiate(ast, name)
            direct = expr.eval_num(d_ast, {"u1": a, "u2": b})
            via_jet = expr.eval_point(ast, (a, b), 1).partial(1 - var, var)
            assert float(via_jet) == pytest.approx(float(direct), abs=1e-12)


class TestDomainValidation:
    def test_abs_sign_change_rejected(self):
        with pytest.raises(DomainError):
            expr.validate_on_domain(expr.parse("abs(u1)"), (-1, 1, -1, 1))

    def test_abs_sign_definite_accepted(self):
        expr.validate_on_domain(expr.parse("abs(u1 + 2)"), (-1, 1, -1, 1))

    def test_sqrt_negative_rejected(self):
        with pytest.raises(DomainError):
            expr.validate_on_domain(expr.parse("sqrt(u1)"), (-1, 1, -1, 1))
