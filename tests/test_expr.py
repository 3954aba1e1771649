"""Parser and system-description tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vargram.expr import (
    BinOp,
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    max_var_index,
    parse_expression,
    parse_system_spec,
)


def test_hand_values():
    env = {"x1": 1.0, "x2": 2.0}
    assert parse_expression("x1 + x1^2/2 + x2").evaluate(env) == 3.5
    assert parse_expression("-x1^2").evaluate(env) == -1.0  # pow binds tighter than neg
    assert parse_expression("(-x1)^2").evaluate(env) == 1.0
    assert parse_expression("x1/2/2").evaluate(env) == 0.25  # left associative
    assert parse_expression("2 - 3 - 4").evaluate(env) == -5.0
    assert parse_expression("2^3^2").evaluate(env) == 64.0  # (2^3)^2, left associative
    assert parse_expression("1.5e2").evaluate(env) == 150.0
    assert parse_expression("+x2").evaluate(env) == 2.0


def test_unbound_variable():
    with pytest.raises(ExprEvalError, match="x3"):
        parse_expression("x3").evaluate({"x1": 0.0})


def test_division_by_zero_reported():
    with pytest.raises(ExprEvalError, match="division by zero"):
        parse_expression("1/x1").evaluate({"x1": 0.0})


def test_division_by_zero_reported_on_arrays():
    # arrays hold one value per point of a stack; numpy alone would give inf
    with pytest.raises(ExprEvalError, match="division by zero"):
        parse_expression("1/x1").evaluate({"x1": np.array([1.0, 0.0])})
    with pytest.raises(ExprEvalError, match="division by zero"):
        parse_expression("x2/(x1 - 1)").evaluate({"x1": np.array([2.0, 1.0]),
                                                   "x2": np.array([1.0, 1.0])})
    out = parse_expression("x2/(x1 - 1)").evaluate({"x1": np.array([2.0, 3.0]),
                                                    "x2": np.array([1.0, 1.0])})
    assert np.array_equal(out, [1.0, 0.5])


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x1 +", 4),
        ("x1 ** 2", 4),
        ("(x1", 3),
        ("x1^x2", 3),
        ("x1^2.5", 3),
        ("foo + 1", 0),
        ("x0", 0),
        ("x1 @ 2", 3),
    ],
)
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression(text)
    assert err.value.offset == offset


def _leaf():
    nums = st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda v: Num(float(v))),
        st.sampled_from([Num(0.5), Num(1.25), Num(3.75)]),
    )
    vars_ = st.sampled_from(["x1", "x2", "x3"]).map(Var)
    return st.one_of(nums, vars_)


def _expr_trees():
    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=0, max_value=4)).map(
                lambda t: Pow(t[0], t[1])
            ),
        )

    return st.recursive(_leaf(), extend, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_expr_trees())
def test_to_text_round_trip_is_exact(tree):
    # the printer must emit enough parentheses that reparsing rebuilds the
    # identical tree, not merely an equivalent one
    assert parse_expression(tree.to_text()) == tree


@settings(max_examples=100, deadline=None)
@given(_expr_trees())
def test_round_trip_evaluation_agrees(tree):
    env = {"x1": 1.5, "x2": -2.0, "x3": 0.75}
    try:
        expected = tree.evaluate(env)
    except (ExprEvalError, OverflowError):
        return
    got = parse_expression(tree.to_text()).evaluate(env)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got == expected


def test_max_var_index():
    trees = [parse_expression("x1 + x4"), parse_expression("2")]
    assert max_var_index(trees) == 4
    assert max_var_index([parse_expression("3.5")]) == 0


def _minimal_doc():
    return {
        "n": 2,
        "m": 1,
        "p": 1,
        "f": ["-x1", "-x2"],
        "g": [["1"], ["0"]],
        "h": ["x1"],
    }


def test_spec_parses_minimal_document():
    spec = parse_system_spec(json.dumps(_minimal_doc()))
    assert (spec.n, spec.m, spec.p) == (2, 1, 1)
    assert spec.k is None
    assert spec.f[0].evaluate({"x1": 3.0, "x2": 0.0}) == -3.0
    assert spec.g[1][0].evaluate({}) == 0.0


def test_spec_rejects_bad_documents():
    doc = _minimal_doc()
    doc["g"] = [["1"]]  # wrong row count
    with pytest.raises(ExprError, match="g must be a list of 2 rows"):
        parse_system_spec(doc)

    doc = _minimal_doc()
    doc["f"] = ["-x1", "-x3"]  # x3 out of range for n = 2
    with pytest.raises(ExprError):
        parse_system_spec(doc)

    doc = _minimal_doc()
    doc["extra"] = 1
    with pytest.raises(ExprError, match="unknown keys"):
        parse_system_spec(doc)

    doc = _minimal_doc()
    doc["fields"] = {"Z": [["1", "0"], ["0", "1"]]}
    with pytest.raises(ExprError, match="unknown field"):
        parse_system_spec(doc)

    with pytest.raises(ExprError, match="invalid JSON"):
        parse_system_spec("{not json")

    doc = _minimal_doc()
    doc["n"] = 0
    with pytest.raises(ExprError, match="'n' must be a positive integer"):
        parse_system_spec(doc)


def test_spec_fields_parse_as_square_grids():
    doc = _minimal_doc()
    doc["k"] = ["2*x1"]
    doc["fields"] = {"P": [["1", "0"], ["0", "1"]]}
    spec = parse_system_spec(doc)
    assert spec.fields["P"][0][0].evaluate({}) == 1.0
    assert spec.k[0].evaluate({"x1": 2.0, "x2": 0.0}) == 4.0


def test_expression_error_inside_spec_names_the_entry():
    doc = _minimal_doc()
    doc["h"] = ["x1 +"]
    with pytest.raises(ExprError, match=r"h\[0\]"):
        parse_system_spec(doc)
