import contextlib
import gc
import json
import math
import operator
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invman import matexpr
from invman.errors import EvaluationError, ParseError, ShapeError
from invman.matexpr import (
    MAX_DEPTH,
    Binary,
    Const,
    MatrixFunction,
    Power,
    T,
    TimeVar,
    Unary,
    differentiate,
    evaluate,
    parse_expr,
    to_string,
)

from invman.scenario import Structure, coefficient_function, random_scenario, to_config

from helpers import (
    fd_derivative,
    random_expr,
    reference_differentiate,
    reference_eval,
    reference_evaluate,
    reference_matmul,
    reference_matrix,
    reference_parse_matrix,
    sharing_shape,
    try_eval,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: Const(math.inf), ValueError, "constant must be finite, got inf"),
    (lambda: Const(math.nan), ValueError, "constant must be finite, got nan"),
    (lambda: Unary("tan", T), ValueError, "unknown unary operator 'tan'"),
    (lambda: Binary("^", T, T), ValueError, "unknown binary operator '^'"),
    (lambda: Power(T, 2.0), TypeError, "exponent must be an integer"),
    (lambda: Power(T, True), TypeError, "exponent must be an integer"),
    (lambda: evaluate("t", 0.0), TypeError, "not an expression node: 't'"),
    (lambda: differentiate("t"), TypeError, "not an expression node: 't'"),
    (lambda: to_string("t"), TypeError, "not an expression node: 't'"),
    (lambda: parse_expr("sin t"), ParseError, "expected '(' (offset 4)"),
    (lambda: MatrixFunction(((T, "t"),)), TypeError, "entry is not a scalar expression: 't'"),
    (lambda: MatrixFunction.identity(2).row_block(1, 1), ShapeError, "row block [1:1] out of range for 2 rows"),
    (lambda: MatrixFunction.identity(2).row_block(0, 3), ShapeError, "row block [0:3] out of range for 2 rows"),
    (lambda: MatrixFunction.identity(2) + MatrixFunction.identity(3), ShapeError, "cannot add (2, 2) and (3, 3)"),
    (lambda: MatrixFunction.zeros(2, 3) @ MatrixFunction.zeros(2, 3), ShapeError,
     "cannot multiply (2, 3) by (2, 3)"),
    (lambda: MatrixFunction.block([[MatrixFunction.zeros(1, 2), MatrixFunction.zeros(2, 2)]]), ShapeError,
     "blocks in one block-row differ in height"),
    (lambda: MatrixFunction.block([[MatrixFunction.zeros(1, 2)], [MatrixFunction.zeros(1, 3)]]), ShapeError,
     "block rows differ in total width"),
])
def test_a_malformed_expression_or_matrix_is_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


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
@example(expr=Power(Const(-0.0), 0), ts=[0.0])
@example(expr=Unary("exp", Binary("*", T, Power(Unary("exp", T), 2))), ts=[3.0])
def test_print_parse_round_trip(expr, ts):
    reparsed = parse_expr(to_string(expr))
    for t in ts:
        a = try_eval(expr, t)
        if a is None:
            continue
        b = try_eval(reparsed, t)
        assert b is not None
        assert abs(a - b) <= 1e-15 * (1.0 + abs(a))


def _assert_fails_alike(f: MatrixFunction, ts, message: str, index: int, ok_t: float):
    """``f`` fails at ``ts`` with ``message`` and ``index``; at a scalar t, ``eval(t)``
    fails exactly as ``eval_grid([t])`` does, and at ``ok_t`` the two agree bit for bit."""
    with pytest.raises(EvaluationError) as info:
        f.eval(ts) if np.ndim(ts) == 0 else f.eval_grid(ts)
    assert (str(info.value), info.value.index) == (message, index)
    if np.ndim(ts) == 0:
        with pytest.raises(EvaluationError) as grid_info:
            f.eval_grid([ts])
        assert (str(grid_info.value), grid_info.value.index) == (message, index)
        assert f.eval(ok_t).tobytes() == f.eval_grid([ok_t])[0].tobytes()


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

    @pytest.mark.parametrize("ts, message, index", [
        (1e9, "entry (0,0) is not finite at t=1000000000.0", 0),
        # exp(2t) overflows from t = 355 on, exp(t) from t = 710 on: the earliest time wins.
        ([0.0, 400.0, 1e9], "entry (1,1) is not finite at t=400.0", 1),
    ])
    def test_non_finite_entry_carries_coordinates(self, ts, message, index):
        f = MatrixFunction.build([["exp(t)", "0"], ["0", "exp(2*t)"]])
        _assert_fails_alike(f, ts, message, index, ok_t=1.0)

    @pytest.mark.parametrize("ts, index", [(1.0, 0), ([0.0, 1.0, 1.0, 2.0], 1)])
    @pytest.mark.parametrize("text, what", [
        ("1/(t - 1)", "division by zero"),
        ("(t - 1)^-2", "zero raised to a negative exponent"),
    ])
    def test_pole_on_grid_names_its_first_time(self, text, what, ts, index):
        f = MatrixFunction.build([["0", text]])
        _assert_fails_alike(f, ts, f"entry (0,1) at t=1.0: {what}", index, ok_t=0.5)

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

    def test_one_point_grid_is_its_row_of_the_grid_bit_for_bit(self):
        # Python's ** of a float goes through the C library's pow and may differ in the last bit from
        # numpy's power (with glibc, 170 of these 997 rows did): a scalar t runs np.power as a grid does.
        f = MatrixFunction.build([
            ["(1.3 + 0.7*t)^3", "(t - 0.25)^2 * sin(t)", "(2.1 - t)^3 + t^2"],
            ["exp(t)^2 - (0.4*t + 1)^3", "(t^2 + 0.5)^-3", "cos(t)^3 * (t + 3)^2"],
        ])
        ts = np.linspace(-1.7, 2.9, 997)
        grid = f.eval_grid(ts)
        for i, t in enumerate(ts):
            assert f.eval_grid([t])[0].tobytes() == grid[i].tobytes()
            assert f.eval(t).tobytes() == grid[i].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 501])
    @pytest.mark.parametrize("rows", [
        [["0", "-0", "2e-300"], ["-1.5", "3", "7"]],
        [["t", "sin(t)", "t^2"], ["-t", "exp(-t)", "1/(t + 3)"]],
        [["t", "-0", "cos(2*t)"], ["1.25", "t*t - 1", "-3"]],
    ], ids=["constant", "all-t", "mixed"])
    def test_eval_grid_is_the_memo_free_walk_bit_for_bit(self, rows, n):
        # Entries are written row by row to an entry-major buffer, then copied transposed into the output.
        f = MatrixFunction.build(rows)
        ts = np.linspace(-1.5, 2.5, n)
        got = f.eval_grid(ts)
        assert got.shape == (n, 2, 3) and got.flags.c_contiguous
        assert got.tobytes() == reference_matrix(f, ts).tobytes()
        for t in (ts[0], ts[-1]):
            assert f.eval(t).tobytes() == reference_matrix(f, float(t)).tobytes()

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


class TestDepthLimit:
    # Each shape is exactly MAX_DEPTH deep, by tree depth or by nesting.
    AT_LIMIT = {
        "division chain": "/".join(["(t+2)"] * (MAX_DEPTH - 1)),
        "right-nested division": "(t+2)/(" * (MAX_DEPTH - 2) + "(t+2)" + ")" * (MAX_DEPTH - 2),
        "nested cos": "cos(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
        "minus signs": "-" * (MAX_DEPTH - 1) + "t",
        "power chain": "(t+2)" + "^1" * (MAX_DEPTH - 2),
        "sum": "+".join(["t"] * MAX_DEPTH),
        "parentheses": "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1),
    }

    @pytest.mark.parametrize("text", AT_LIMIT.values(), ids=AT_LIMIT.keys())
    def test_at_the_limit_every_recursive_walk_succeeds(self, text):
        e = parse_expr(text)
        d = differentiate(e)
        assert parse_expr(to_string(e)) == e
        to_string(d)
        evaluate(e, 0.5)
        evaluate(d, np.linspace(0.0, 0.5, 3))

    @pytest.mark.parametrize("text", [
        "+".join(["t"] * (MAX_DEPTH + 1)),
        "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
        "-" * MAX_DEPTH + "t",
        "sin(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
        "t" + "^1" * MAX_DEPTH,
        "(" * 300 + "t" + ")" * 300,
        "+".join(["t"] * 3000),
    ])
    def test_past_the_limit_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
            parse_expr(text)

    def test_non_finite_literal_is_a_parse_error_at_its_offset(self):
        with pytest.raises(ParseError, match="'1e400' is out of range") as err:
            parse_expr("2*1e400")
        assert err.value.offset == 2

    def test_exponent_past_float_range_is_a_parse_error_at_its_offset(self):
        # Neither numpy's power nor the derivative's factor k can take it; a longer one is no int either.
        for digits in ("9" * 309, "1" + "0" * 5000):
            with pytest.raises(ParseError, match="' is out of range") as err:
                parse_expr(f"t + 2^-{digits}")
            assert err.value.offset == 7
        assert parse_expr("t^" + "0" * 400 + "3") == parse_expr("t^3")


def _same_build(rows):
    """``MatrixFunction.build`` gives the reference parser's trees and sharing, or its ParseError."""
    try:
        want = reference_parse_matrix(rows)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            MatrixFunction.build(rows)
        assert (info.value.message, info.value.offset) == (exc.message, exc.offset)
        return
    assert sharing_shape(MatrixFunction.build(rows)) == sharing_shape(want)


_SOUP = st.lists(st.sampled_from([
    "t", "sin", "cos", "exp", "x", "_a", "t2", "1", "0", "2.5", ".5", "1.", "1e3", "1E-2", "1e", "1e400",
    "0.0", "\u0663", "12\u0663", "(", ")", "(", ")", "+", "-", "-", "*", "/", "^", "^2", "^-1", "(t+1)",
    "sin(t)", " ", "  ", "\xa0", "\x1c", "\t", "$", ",", "\u00b2",
]), max_size=30).map("".join)

_VALID_TEXT = st.recursive(
    st.sampled_from(["t", "1", "2.5", "0.0", " t ", "\u0663", "1e-3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " + ", "\xa0*"]), inner).map("".join),
        inner.map(lambda a: f"({a})"),
        inner.map(lambda a: f"-{a}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(lambda x: f"{x[0]}({x[1]})"),
        inner.map(lambda a: f"({a})^2"),
    ),
    max_leaves=6,
)

_SHIPPED_ENTRIES = sorted({
    entry
    for path in CONFIGS.glob("*.json")
    for key in ("coeff", "chart", "comp_chart")
    for row in json.loads(path.read_text())[key]
    for entry in row
    if isinstance(entry, str)
})


@st.composite
def _mutated_shipped(draw):
    text = draw(st.sampled_from(_SHIPPED_ENTRIES))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    k = draw(st.integers(0, len(text)))
    patch = draw(st.one_of(_SOUP, st.just(text[k : k + 40])))
    return text[:i] + patch + text[j:]


@st.composite
def _nested(draw, core):
    """``core`` under 0-10 or 85-103 levels of '(', '-', '-(', '(-' or 'sin('."""
    opener = draw(st.sampled_from(["(", "-", "-(", "sin(", "(-"]))
    levels = draw(st.one_of(st.integers(0, 10), st.integers(85, 103)))
    count = levels // len(opener) if opener in ("-(", "(-") else levels
    return opener * count + core + ")" * (opener.count("(") * count)


@st.composite
def _entry_matrix(draw):
    """1-2 rows of 1-3 entries, some of which repeat one group at different depths."""
    group = "(" + draw(_VALID_TEXT) + ")"
    entry = st.one_of(
        _SOUP, _VALID_TEXT, _mutated_shipped(), _nested(group),
        _nested(group).map(lambda e: f"{group}*{e}"), _VALID_TEXT.map(lambda e: f"{e}+{group}"),
    )
    cols = draw(st.integers(1, 3))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=2))


class TestParserEquivalence:
    """The group memo and on-demand tokens change nothing: same trees and sharing, same errors."""

    @settings(max_examples=400, deadline=None)
    @given(rows=_entry_matrix())
    def test_build_matches_the_reference_parser(self, rows):
        _same_build(rows)

    @pytest.mark.parametrize("key", ["coeff", "chart", "comp_chart"])
    def test_shipped_and_generated_matrices_match(self, key):
        configs = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
        for config in configs + [_generated_config(m) for m in (3, 8, 16)]:
            _same_build(config[key])

    def test_a_memo_hit_raises_the_nesting_peak_of_its_group(self):
        # The second entry's outer group holds the first entry's group as a hit; the third
        # meets that outer group 60 levels down, where its true nesting passes MAX_DEPTH.
        inner = "(" * 40 + "t" + ")" * 40
        outer = f"({inner}*2)"
        rows = [[inner, outer, "(" * 60 + outer + ")" * 60]]
        _same_build(rows)
        with pytest.raises(ParseError, match=rf"entry \(0,2\): expression nests deeper than {MAX_DEPTH} levels"):
            MatrixFunction.build(rows)

    @pytest.mark.parametrize("levels", range(95, 104))
    def test_a_repeated_group_near_the_limit(self, levels):
        group = "(" * 5 + "t+1" + ")" * 5
        _same_build([[group, "(" * levels + group + ")" * levels, "-" * levels + group]])

    @pytest.mark.parametrize("text", ["1 +\xa02", "\x1c t", "\u0663*t^\u0663", "t\u3000+ 1", "2\u00b2", "t + \u0663.5e\u0663"])
    def test_unicode_spaces_and_digits(self, text):
        _same_build([[text]])

    @pytest.mark.parametrize("text, message, offset", [
        ("2\u00b2", "unexpected character '\u00b2'", 1),
        ("t + * $", "unexpected character '$'", 6),  # a parse error comes before the character
        ("(t+1)*(t+1)$", "unexpected character '$'", 11),  # right after a group memo hit
        ("(" * 101 + "t" + ")" * 101 + "$", "unexpected character '$'", 203),  # after a depth error
    ], ids=["superscript", "parse-error-first", "after-a-memo-hit", "after-a-depth-error"])
    def test_an_unexpected_character_is_the_error_wherever_it_stands(self, text, message, offset):
        _same_build([[text]])
        with pytest.raises(ParseError) as info:
            MatrixFunction.build([[text]])
        assert (info.value.message, info.value.offset) == (f"entry (0,0): {message}", offset)

    def test_a_build_that_parses_scans_no_whole_entry(self, monkeypatch):
        rows = json.loads((CONFIGS / "full.json").read_text())["coeff"]
        want = sharing_shape(MatrixFunction.build(rows))
        monkeypatch.setattr(matexpr, "_TOKENS_RE", None)  # the scan that only a failed parse runs
        assert sharing_shape(MatrixFunction.build(rows)) == want

    @pytest.mark.parametrize("text", ["t^" + "9" * 309, "t^-" + "9" * 309, "2*t^" + "9" * 308],
                             ids=["t^9x309", "t^-9x309", "2*t^9x308"])
    def test_exponent_near_the_float_range(self, text):
        _same_build([[text]])

    def test_a_zero_padded_exponent_past_the_int_digit_limit_is_its_value(self):
        rows, want = [["t^" + "0" * 5000 + "3"]], [["t^3"]]
        assert sharing_shape(MatrixFunction.build(rows)) == sharing_shape(MatrixFunction.build(want))
        assert sharing_shape(reference_parse_matrix(rows)) == sharing_shape(reference_parse_matrix(want))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int digit limit")
    def test_a_zero_padded_exponent_parses_under_the_lowest_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for parse in (MatrixFunction.build, reference_parse_matrix):
                got = parse([["t^-" + "0" * 698 + "12"]])
                assert sharing_shape(got) == sharing_shape(parse([["t^-12"]]))
        finally:
            sys.set_int_max_str_digits(limit)


def _generated_config(m):
    return to_config(random_scenario(Structure.FULL, m=m, n=m // 2, seed=11))


def _planted_matrix(rng):
    """A matrix whose entries share subtree objects, built without the parser."""
    s = random_expr(rng, depth=3)
    u = Binary("*", s, random_expr(rng, depth=2))
    e = Binary("+", u, Unary("sin", s))
    return MatrixFunction(((e, s, Binary("-", s, e)), (u, T, Power(u, 2))))


def _matrices_with_shared_subtrees():
    """The shipped and generated matrices, their derivatives, and planted sharing."""
    configs = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
    configs += [_generated_config(m) for m in (3, 8, 16)]
    built = [MatrixFunction.build(c[k]) for c in configs for k in ("coeff", "chart", "comp_chart")]
    rng = np.random.default_rng(5)
    planted = [_planted_matrix(rng) for _ in range(40)]
    planted += [MatrixFunction.build(mf.to_strings()) for mf in planted]
    return built + [mf.derivative() for mf in built] + planted


def _planted_pole_matrix(rng):
    """A matrix with shared subtrees, and poles of 1/(t - v) or (t - v)^-k planted in a shared subtree
    and in an entry of its own: v = -2 is every point set's first time, v = 2 the last of the 51- and
    501-point grids, and v = 0.3 is on none."""

    def pole():
        gap = Binary("-", T, Const(float(rng.choice([-2.0, 2.0, 0.3]))))
        return Binary("/", Const(1.0), gap) if rng.random() < 0.5 else Power(gap, -int(rng.integers(1, 3)))

    s = Binary("+", random_expr(rng, depth=2), pole())
    u = Binary("*", s, random_expr(rng, depth=2))
    e = Binary("+", u, Unary("sin", s))
    return MatrixFunction(((e, Binary("-", pole(), s), Binary("-", s, e)), (u, T, Power(u, 2))))


def _reference_failure(mf, t):
    """The message and index of the first pole the memo-free walk meets, entry by entry in row order, or None."""
    with np.errstate(all="ignore"):
        for i, row in enumerate(mf.entries):
            for j, e in enumerate(row):
                try:
                    reference_evaluate(e, t)
                except EvaluationError as exc:
                    return f"entry ({i},{j}) at t={float(np.reshape(t, -1)[exc.index])!r}: {exc}", exc.index
    return None


def _same_outcome(evaluate_matrix, mf, t):
    """The result or error of one call must match the reference walk bit for bit: values, or message and index."""
    if (failure := _reference_failure(mf, t)) is not None:
        with pytest.raises(EvaluationError) as info:
            evaluate_matrix(t)
        assert (str(info.value), info.value.index) == failure
        return
    want = reference_matrix(mf, t)
    if not np.isfinite(want).all():
        with pytest.raises(EvaluationError, match="is not finite"):
            evaluate_matrix(t)
        return
    np.testing.assert_array_equal(evaluate_matrix(t), want)


class TestSharedSubexpressions:
    def test_equal_subtrees_of_one_build_are_one_object(self):
        f = MatrixFunction.build([["sin(t)*2 + (t+1)^2", "(t+1)^2 - sin(t)*2"], ["2", "exp(sin(t)*2)"]])
        (a, b), (two, c) = f.entries
        assert a.left is b.right and a.right is b.left
        assert c.arg is a.left and a.left.right is two
        g = MatrixFunction.build(f.to_strings())
        assert g == f and hash(g) == hash(f) and g.entries[0][0] is not a
        assert parse_expr("sin(t)*2") == a.left and hash(parse_expr("sin(t)*2")) == hash(a.left)

    def test_signed_zeros_stay_apart(self):
        f = MatrixFunction.build([["0.0", "-0.0", "0.0*t", "-0.0*t", 0.0, -0.0]])
        np.testing.assert_array_equal(np.signbit(f.eval(1.0)), [[False, True] * 3])

    def test_eval_and_eval_grid_match_the_memo_free_walk(self):
        grids = [np.linspace(-1.0, 2.0, n) for n in (1, 51, 501)]
        for mf in _matrices_with_shared_subtrees():
            for t in (0.37, np.float64(1.25)):
                _same_outcome(mf.eval, mf, t)
            for ts in grids:
                _same_outcome(mf.eval_grid, mf, ts)

    def test_evaluate_matches_the_memo_free_walk_on_planted_sharing(self):
        # Poles too: evaluate, eval and eval_grid raise the reference's message and index.
        rng = np.random.default_rng(9)
        points = [-2.0, np.array([-2.0])] + [np.linspace(-2.0, 2.0, n) for n in (51, 501)]
        poles = set()
        for _ in range(200):
            mf = _planted_pole_matrix(rng)
            for t in points:
                for e in (e for row in mf.entries for e in row):
                    with np.errstate(all="ignore"):
                        try:
                            want = reference_evaluate(e, t)
                        except EvaluationError as exc:
                            poles.add((str(exc), np.ndim(t)))
                            with pytest.raises(EvaluationError) as info:
                                evaluate(e, t)
                            assert (str(info.value), info.value.index) == (str(exc), exc.index)
                            continue
                        np.testing.assert_array_equal(evaluate(e, t), want)
                _same_outcome(mf.eval if np.ndim(t) == 0 else mf.eval_grid, mf, t)
        assert poles == {(what, ndim) for what in ("division by zero", "zero raised to a negative exponent")
                         for ndim in (0, 1)}

    @pytest.mark.parametrize("text, want", [
        ("1e200^2", math.inf),
        ("(-1e200)^2", math.inf),
        ("(-1e200)^3", -math.inf),
        ("-1e200^2", -math.inf),
        ("1e-200^-2", math.inf),
        ("(-1e-200)^-3", -math.inf),
        ("1/1e200^2", 0.0),
    ])
    def test_constant_power_past_float_range_is_infinite(self, text, want):
        # a constant base is a Python float, whose ** would raise: np.power overflows to inf instead
        e = parse_expr(text)
        assert evaluate(e, 0.5) == want
        np.testing.assert_array_equal(evaluate(e, np.array([0.0, 1.0])), want)

    @pytest.mark.parametrize("t", [1000.0, np.array([1000.0])])
    def test_overflow_past_float_range_is_infinite_without_a_warning(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate(parse_expr("exp(t)"), t) == math.inf

    @pytest.mark.parametrize("text", ["1.5^3", "(-2)^-3", "1e100^3", "0.1^7", "(-1e-100)^-3", "sin(1e200)^2"])
    def test_constant_power_in_float_range_matches_the_memo_free_walk(self, text):
        e = parse_expr(text)
        for t in (0.5, np.array([0.0, 1.0])):
            np.testing.assert_array_equal(evaluate(e, t), reference_evaluate(e, t))

    def test_a_pole_in_a_shared_subexpression_names_the_first_entry(self):
        f = MatrixFunction.build([["t", "2 + 1/(t-1)"], ["1/(t-1)", "3"]])
        assert f.entries[0][1].right is f.entries[1][0]
        with pytest.raises(EvaluationError) as info:
            f.eval_grid(np.array([0.0, 0.5, 1.0, 1.5]))
        assert str(info.value) == "entry (0,1) at t=1.0: division by zero" and info.value.index == 2
        with pytest.raises(EvaluationError, match=r"^entry \(0,1\) at t=1.0: division by zero$"):
            f.eval(1.0)

    @pytest.mark.parametrize("first, what", [
        ("1/(t-2)", "division by zero"),
        ("(t-2)^-1", "zero raised to a negative exponent"),
    ])
    def test_an_earlier_entry_failing_later_on_the_grid_wins(self, first, what):
        f = MatrixFunction.build([[f"{first} + 1/(t-1)", "1/(t-1)"]])
        with pytest.raises(EvaluationError) as info:
            f.eval_grid(np.array([0.0, 1.0, 2.0]))
        assert str(info.value) == f"entry (0,0) at t=2.0: {what}" and info.value.index == 2


def _first_visit_postorder(mf) -> list:
    """Every distinct node of ``mf``, in the order a memoized walk of the entries in row order
    finishes it, with the (i, j) of the entry that first reaches it."""
    order, seen = [], set()

    def walk(node, where):
        if id(node) not in seen:
            seen.add(id(node))
            for child in _children(node):
                walk(child, where)
            order.append((node, where))

    for i, row in enumerate(mf.entries):
        for j, e in enumerate(row):
            walk(e, (i, j))
    return order


def _children(node) -> tuple:
    match node:
        case Binary(left=l, right=r):
            return l, r
        case Unary(arg=a):
            return (a,)
        case Power(base=b):
            return (b,)
    return ()


_OPS = {
    Binary: lambda node: {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[node.op],
    Unary: lambda node: {"neg": operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp}[node.op],
    Power: lambda node: np.power,
}


class TestTape:
    """The tape is a cache of the entries, built on the first evaluation, and no part of the value."""

    def test_it_is_built_once(self, monkeypatch):
        f = MatrixFunction.build([["t^2 + sin(t)", "sin(t)"], ["1/(t + 3)", "2"]])
        compiled, compile_tape = [], matexpr._compile
        monkeypatch.setattr(matexpr, "_compile", lambda roots: compiled.append(roots) or compile_tape(roots))
        assert f._tape is None
        first = f.eval(0.5)
        tape = f._tape
        assert f.eval_grid([0.5, 1.0])[0].tobytes() == f.eval(0.5).tobytes() == first.tobytes()
        assert f._tape is tape and len(compiled) == 1

    def test_one_slot_per_distinct_node_in_first_visit_postorder(self):
        for mf in _matrices_with_shared_subtrees():
            with np.errstate(all="ignore"), contextlib.suppress(EvaluationError):
                mf.eval(0.37)
            slots, times, code, outs = mf._tape
            order = _first_visit_postorder(mf)
            slot_of = {id(node): k for k, (node, _) in enumerate(order)}
            assert len(slots) == len(order) == len(slot_of)
            assert outs == [slot_of[id(e)] for row in mf.entries for e in row]
            assert times == [k for k, (node, _) in enumerate(order) if isinstance(node, TimeVar)]
            instructions = zip(*code)
            for k, (node, where) in enumerate(order):
                if isinstance(node, Const):
                    assert slots[k] is node.value
                    continue
                assert slots[k] is None
                if isinstance(node, TimeVar):
                    continue
                inputs = [slot_of[id(child)] for child in _children(node)]
                assert all(slot < k for slot in inputs)
                if isinstance(node, Power):
                    inputs.append(node.exponent)
                elif isinstance(node, Unary):
                    inputs.append(None)
                assert next(instructions) == (_OPS[type(node)](node), *inputs, k, where)
            assert next(instructions, None) is None

    def test_it_is_memoized_outside_equality(self):
        f = MatrixFunction.build([["t^2", "sin(t)"]])
        g = MatrixFunction.build([["t^2", "sin(t)"]])
        f.eval(0.5)
        assert f._tape is not None and g._tape is None
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
        assert "_tape" not in repr(f) and hash(f) == hash(MatrixFunction(f.entries))

    def test_a_derived_function_compiles_its_own(self):
        f = MatrixFunction.build([["t^2", "sin(t)"], ["1", "t/(t + 3)"]])
        f.eval(0.5)
        for derived in (f.derivative(), f.row_block(0, 1), f @ f, f + f):
            assert derived._tape is None
            assert derived.eval(0.5).tobytes() == reference_matrix(derived, 0.5).tobytes()
            assert derived._tape is not None and derived._tape is not f._tape
            assert len(derived._tape[0]) == len(_first_visit_postorder(derived))


# Product entries: mostly constants, zeros of both signs among them, so that
# sparse factors, the 0 and 1 identities and constant folding all occur.
_PRODUCT_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.0, 1.0, -1.0, 2.5, 1e-200, -1e-200, 1e200]).map(Const),
    st.recursive(_leaves, _extend, max_leaves=3),
)


@st.composite
def _factor_pair(draw):
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))

    def matrix(r, c):
        grid = draw(st.lists(st.lists(_PRODUCT_ENTRIES, min_size=c, max_size=c), min_size=r, max_size=r))
        return MatrixFunction(tuple(map(tuple, grid)))

    return matrix(rows, inner), matrix(inner, cols)


_UNDERFLOW_PAIR = (MatrixFunction.build([[-1e-200, 0.0]]), MatrixFunction.build([[1e-200], ["2*t"]]))


@settings(max_examples=200, deadline=None)
@given(pair=_factor_pair())
@example(pair=_UNDERFLOW_PAIR)
@example(pair=(MatrixFunction.build([[-1e-200]]), MatrixFunction.build([[1e-200]])))
@example(pair=(MatrixFunction.build([[0.0, -1e-200, 0.0]]), MatrixFunction.build([["t"], [1e-200], ["t"]])))
def test_sparse_product_is_the_dense_fold_node_for_node(pair):
    a, b = pair
    got, want = a @ b, reference_matmul(a, b)
    assert got == want
    assert got.to_strings() == [[to_string(e) for e in row] for row in want.entries]


class TestSparseProduct:
    @pytest.mark.parametrize("a, b, op", [
        (1e200, 1e200, MatrixFunction.__matmul__),
        (1e308, 1e308, MatrixFunction.__add__),
        (-1e308, -1e308, MatrixFunction.__add__),
    ])
    def test_constants_folding_past_the_float_range_stay_a_node(self, a, b, op):
        got = op(MatrixFunction.constant([[a]]), MatrixFunction.constant([[b]]))
        assert got.entries[0][0] == Binary("*" if op is MatrixFunction.__matmul__ else "+", Const(a), Const(b))
        with pytest.raises(EvaluationError, match=r"^entry \(0,0\) is not finite at t=0.5$"):
            got.eval(0.5)

    def test_a_zero_term_after_an_underflow_prints_as_the_dense_fold_does(self):
        a, b = _UNDERFLOW_PAIR
        assert (a @ b).to_strings() == [["0.0"]]
        assert (MatrixFunction.build([[-1e-200]]) @ MatrixFunction.build([[1e-200]])).to_strings() == [["-0.0"]]

    def test_to_strings_renders_every_entry_as_to_string(self):
        generated = [
            coefficient_function(random_scenario(kind, m=m, n=m // 2, seed=seed))
            for kind in Structure for m in (3, 8, 16) for seed in (0, 11)
        ]
        # Equal trees that differ in the sign of a zero: the memo is by node, not by value.
        signed = MatrixFunction(((Binary("*", Const(0.0), T), Binary("*", Const(-0.0), T)),))
        assert signed.to_strings() == [["0.0*t", "-0.0*t"]]
        for mf in _matrices_with_shared_subtrees() + generated:
            assert mf.to_strings() == [[to_string(e) for e in row] for row in mf.entries]


@settings(max_examples=300, deadline=None)
@given(expr=st.recursive(_leaves, _extend, max_leaves=12))
# Equal subtrees that differ in the sign of a zero: a derivative memoised by value would give the second the first's.
@example(expr=Binary("+", Unary("exp", Binary("*", Const(-0.0), T)), Unary("exp", Binary("*", Const(0.0), T))))
def test_differentiate_follows_the_calculus_rules_node_for_node(expr):
    want = reference_differentiate(expr)
    got = differentiate(expr)
    assert got == want and to_string(got) == to_string(want)
    # The parser builds equal subtrees as one node: the matrix derives each once, for both entries.
    parsed = parse_expr(to_string(expr))
    derived = MatrixFunction(((expr, parsed),)).derivative()
    assert derived.to_strings() == [[to_string(want), to_string(reference_differentiate(parsed))]]


class TestDerivativeMemo:
    """Derivatives are memoised by node identity, per call or per matrix; no tree is hashed or kept past its use."""

    def test_no_node_is_hashed(self, monkeypatch):
        f = MatrixFunction.build([["sin(t)*t", "exp(t)/(t^2 + 1)"], ["t^-2", "sin(t)*t + 1"]])
        expr = parse_expr("cos(t)^3 - exp(-t)")

        def unhashable(node):
            raise TypeError(f"hashed {type(node).__name__}")

        for cls in (Const, TimeVar, Unary, Binary, Power):
            monkeypatch.setattr(cls, "__hash__", unhashable)
        with pytest.raises(TypeError, match="hashed"):
            hash(expr)
        assert differentiate(expr) == reference_differentiate(expr)
        assert f.derivative().entries == tuple(tuple(map(reference_differentiate, row)) for row in f.entries)
        config = to_config(random_scenario(Structure.FULL, m=4, n=2, seed=1))
        assert config["m"] == 4 and len(config["coeff"]) == 4

    def test_dropped_scenarios_leave_no_trees_behind(self):
        def build_and_drop(seeds):
            for seed in seeds:
                to_config(random_scenario(Structure.FULL, m=8, n=4, seed=seed))
            gc.collect()

        build_and_drop([100])  # first-use allocations of numpy and the package are not the scenarios'
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_and_drop(range(20))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    def test_a_shared_node_has_one_derivative(self):
        f = MatrixFunction.build([["sin(t)*t", "sin(t)*t + 1"]])
        product, total = f.entries[0]
        assert total.left is product
        df = f.derivative()
        assert df.entries[0][1].left is df.entries[0][0]
        assert df.to_strings() == [[to_string(reference_differentiate(e)) for e in f.entries[0]]]

    def test_a_deeply_shared_matrix_derives_in_size_linear_in_its_nodes(self):
        r = MatrixFunction.build([["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]])
        for _ in range(9):  # the rotation by 512 t, whose entries share subtrees 2^9 ways
            r = r @ r
        dr = r.derivative()
        assert len(_first_visit_postorder(dr)) <= 4 * len(_first_visit_postorder(r))
        for t in (0.0, 0.3, 1.1):
            c, s = math.cos(512 * t), math.sin(512 * t)
            np.testing.assert_allclose(dr.eval(t), 512 * np.array([[-s, -c], [c, -s]]), rtol=0, atol=1e-9)
