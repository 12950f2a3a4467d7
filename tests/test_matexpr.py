import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invman.errors import EvaluationError, ParseError
from invman.matexpr import (
    Binary,
    Const,
    MatrixFunction,
    Power,
    T,
    Unary,
    differentiate,
    evaluate,
    parse_expr,
    to_string,
)

from helpers import fd_derivative, random_expr, reference_eval, try_eval


class TestParse:
    def test_zero_literal(self):
        assert evaluate(parse_expr("0"), 123.0) == 0.0

    def test_pythagorean_identity(self):
        e = parse_expr("cos(t)*cos(t) + sin(t)*sin(t)")
        assert abs(evaluate(e, 0.7) - 1.0) <= 1e-15

    def test_polynomial_hand_value(self):
        # 2*8 - 2 = 14 by hand
        e = parse_expr("2*t^3 - t")
        assert evaluate(e, 2.0) == 14.0

    def test_against_reference_evaluator(self):
        rng = np.random.default_rng(7)
        text = "2*t^3 - t"
        e = parse_expr(text)
        for t in rng.uniform(-5, 5, size=100):
            assert math.isclose(evaluate(e, t), reference_eval(text, t), rel_tol=1e-13, abs_tol=1e-13)

    @pytest.mark.parametrize(
        "text, t, expected",
        [
            ("2+3*4", 0.0, 14.0),          # * binds above +
            ("2*3^2", 0.0, 18.0),          # ^ binds above *
            ("-t^2", 2.0, -4.0),           # ^ binds above unary minus
            ("2-3-4", 0.0, -5.0),          # left associative
            ("6/3/2", 0.0, 1.0),
            ("(1+2)*3", 0.0, 9.0),
            ("2^2^3", 0.0, 64.0),          # left associative: (2^2)^3
            ("t^-2", 2.0, 0.25),
            ("exp(0)", 0.0, 1.0),
            ("--t", 3.0, 3.0),
            ("2*-t", 3.0, -6.0),
            ("1e-2 + 1.5E2", 0.0, 150.01),
        ],
    )
    def test_precedence_and_literals(self, text, t, expected):
        assert math.isclose(evaluate(parse_expr(text), t), expected, rel_tol=1e-15)

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("sin(", 4),          # missing operand
            ("2 +", 3),
            ("1 2", 2),           # juxtaposition is not multiplication
            ("2 * (3", 6),
            ("@", 0),
        ],
    )
    def test_syntax_error_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.offset == offset

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'x'"):
            parse_expr("2*x")
        with pytest.raises(ParseError, match="tan"):
            parse_expr("tan(t)")

    @pytest.mark.parametrize("text", ["t^2.5", "t^t", "t^(2)", "t^1e3"])
    def test_non_integer_exponent(self, text):
        with pytest.raises(ParseError, match="integer literal"):
            parse_expr(text)

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_expr("1/t"), 0.0)
        with pytest.raises(EvaluationError):
            evaluate(parse_expr("t^-1"), 0.0)


class TestDifferentiate:
    def test_constant(self):
        assert evaluate(differentiate(Const(5.0)), 2.0) == 0.0

    def test_sin_rule(self):
        d = differentiate(parse_expr("sin(t)"))
        for t in (0.0, 1.0, 2.5):
            assert math.isclose(evaluate(d, t), math.cos(t), rel_tol=1e-15)

    def test_product_rule_hand_value(self):
        # d/dt (t^3 e^t) at 1 is 4e, and the FD oracle agrees
        e = parse_expr("t^3 * exp(t)")
        d = differentiate(e)
        val = evaluate(d, 1.0)
        assert math.isclose(val, 4.0 * math.e, rel_tol=1e-14)
        fd = fd_derivative(lambda t: evaluate(e, t), 1.0, h=1e-5)
        assert abs(val - fd) <= 1e-8

    def test_quotient_rule_against_fd(self):
        e = parse_expr("sin(t) / (t^2 + 1)")
        d = differentiate(e)
        for t in (-1.3, 0.2, 2.8):
            fd = fd_derivative(lambda x: evaluate(e, x), t, h=1e-6)
            assert abs(evaluate(d, t) - fd) <= 1e-8

    def test_negative_exponent_against_fd(self):
        e = Power(parse_expr("t^2 + 1"), -2)
        d = differentiate(e)
        fd = fd_derivative(lambda x: evaluate(e, x), 0.7, h=1e-6)
        assert abs(evaluate(d, 0.7) - fd) <= 1e-8

    def test_total_over_random_trees_fd_property(self):
        # derivative of 1000 random bounded-depth trees matches central FD
        rng = np.random.default_rng(2024)
        checked = 0
        attempts = 0
        h = 1e-5
        while checked < 1000 and attempts < 20000:
            attempts += 1
            expr = random_expr(rng, depth=int(rng.integers(1, 5)))
            t = float(rng.uniform(-3.0, 3.0))
            vals = [try_eval(expr, t + dt) for dt in (-h, 0.0, h)]
            d = differentiate(expr)
            dv = try_eval(d, t)
            if any(v is None or abs(v) > 1e6 for v in vals) or dv is None or abs(dv) > 1e6:
                continue
            fd = (vals[2] - vals[0]) / (2.0 * h)
            assert abs(dv - fd) <= 1e-6 * (1.0 + abs(fd)), to_string(expr)
            checked += 1
        assert checked == 1000


_leaves = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(Const),
    st.just(T),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
            lambda x: Binary(x[0], x[1], x[2])
        ),
        st.tuples(children, children, st.floats(min_value=0.5, max_value=2.0)).map(
            lambda x: Binary("/", x[0], Binary("+", Power(x[1], 2), Const(x[2])))
        ),
        st.tuples(st.sampled_from(["neg", "sin", "cos", "exp"]), children).map(
            lambda x: Unary(x[0], x[1])
        ),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(lambda x: Power(x[0], x[1])),
    )


@settings(max_examples=300, deadline=None)
@given(expr=st.recursive(_leaves, _extend, max_leaves=12), ts=st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=8))
def test_print_parse_round_trip(expr, ts):
    reparsed = parse_expr(to_string(expr))
    for t in ts:
        a = try_eval(expr, t)
        if a is None:
            continue
        b = try_eval(reparsed, t)
        assert b is not None
        assert abs(a - b) <= 1e-15 * (1.0 + abs(a))


class TestMatrixFunction:
    def test_constant_identity(self):
        f = MatrixFunction.identity(2)
        for t in (-3.0, 0.0, 11.5):
            np.testing.assert_array_equal(f.eval(t), np.eye(2))

    def test_rotation_frame_values(self):
        f = MatrixFunction.build([["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]])
        np.testing.assert_allclose(f.eval(0.0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(
            f.eval(math.pi / 2.0), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15
        )

    def test_eval_error_carries_coordinates(self):
        f = MatrixFunction.build([["1", "1/t"], ["t", "2"]])
        with pytest.raises(EvaluationError, match=r"\(0,1\)"):
            f.eval(0.0)

    def test_non_finite_entry_carries_coordinates(self):
        f = MatrixFunction.build([["exp(t)"]])
        with pytest.raises(EvaluationError, match=r"\(0,0\)"):
            f.eval(1e9)

    @pytest.mark.parametrize("text, what", [
        ("1/(t - 1)", "division by zero"),
        ("(t - 1)^-2", "zero raised to a negative exponent"),
    ])
    def test_pole_on_grid_names_its_first_time(self, text, what):
        f = MatrixFunction.build([["0", text]])
        with pytest.raises(EvaluationError) as info:
            f.eval_grid(np.array([0.0, 1.0, 1.0, 2.0]))
        assert str(info.value) == f"entry (0,1) at t=1.0: {what}"
        assert info.value.index == 1

    def test_derivative_shape_and_values(self):
        f = MatrixFunction.build([["t^2", "sin(t)", "3"]])
        df = f.derivative()
        assert df.shape == f.shape
        np.testing.assert_allclose(df.eval(0.5), [[1.0, math.cos(0.5), 0.0]], rtol=1e-15)

    def test_derivative_is_memoized_outside_equality(self):
        f = MatrixFunction.build([["t^2", "sin(t)"]])
        g = MatrixFunction.build([["t^2", "sin(t)"]])
        df = f.derivative()
        assert f.derivative() is df
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
        assert g.derivative() == df

    def test_eval_grid_matches_pointwise(self):
        f = MatrixFunction.build([["t^2", "exp(t)"], ["cos(t)", "1"]])
        ts = np.linspace(-1, 1, 7)
        grid = f.eval_grid(ts)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(grid[i], f.eval(t), rtol=1e-15)

    def test_symbolic_matmul_matches_numeric(self):
        a = MatrixFunction.build([["t", "1"], ["0", "cos(t)"]])
        b = MatrixFunction.build([["2", "t"], ["sin(t)", "1"]])
        prod = a @ b
        for t in (-0.7, 0.0, 1.9):
            np.testing.assert_allclose(prod.eval(t), a.eval(t) @ b.eval(t), rtol=1e-14, atol=1e-14)

    def test_block_assembly(self):
        a = MatrixFunction.build([["1"]])
        b = MatrixFunction.build([["t"]])
        z = MatrixFunction.zeros(1, 1)
        k = MatrixFunction.block([[a, b], [z, a]])
        np.testing.assert_allclose(k.eval(2.0), [[1.0, 2.0], [0.0, 1.0]])

    def test_strings_round_trip(self):
        f = MatrixFunction.build([["t^2 - 1", "sin(t)*cos(t)"]])
        g = MatrixFunction.build(f.to_strings())
        for t in (-2.0, 0.3):
            np.testing.assert_allclose(g.eval(t), f.eval(t), rtol=1e-15)

    def test_parse_error_names_entry(self):
        with pytest.raises(ParseError, match=r"entry \(1,0\)"):
            MatrixFunction.build([["1"], ["sin("]])
