import random

import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    And,
    Always,
    BooleanConst,
    Eventually,
    GT,
    LE,
    Not,
    Or,
    ParseError,
    SemanticError,
    TRUE,
    format_formula,
    parse_formula,
)
from stlboost.data import NEG_LABEL, POS_LABEL
from stlboost.grammar import MAX_NESTING
from stlboost.tree import MAX_DEPTH, Leaf, Split, tree_to_formula
from helpers import box, pred, random_formula


class TestParseExamples:
    def test_always_over_merged_box(self):
        got = parse_formula("G[2,26]((x2 > 21.31) & (x1 > 11.10))")
        assert got == Always(2, 26, box((2, GT, 21.31), (1, GT, 11.10)))

    def test_eventually_band(self):
        got = parse_formula("F[15,20]((x1 > 40) & (x1 <= 47))")
        assert got == Eventually(15, 20, box((1, GT, 40.0), (1, LE, 47.0)))

    def test_degenerate_interval(self):
        assert parse_formula("G[0,0](x1 <= 0)") == Always(0, 0, pred(1, LE, 0.0))

    def test_constants_and_negation(self):
        assert parse_formula("true") == TRUE
        assert parse_formula("!false") == Not(BooleanConst(False))

    def test_weighted_conjunction(self):
        got = parse_formula("(x1 <= 1 &^{2.5,0.5} x2 > 0)")
        assert got == And((pred(1, LE, 1.0), pred(2, GT, 0.0)), (2.5, 0.5))

    def test_unmergeable_predicates_stay_conjunction(self):
        got = parse_formula("(x1 > 1) & (x1 > 2)")
        assert got == And((pred(1, GT, 1.0), pred(1, GT, 2.0)))

    def test_disjunction_and_precedence(self):
        got = parse_formula("x1 <= 1 | x1 > 2 & x2 <= 0")
        assert isinstance(got, Or)
        assert got.children[0] == pred(1, LE, 1.0)
        assert got.children[1] == box((1, GT, 2.0), (2, LE, 0.0))

    def test_whitespace_insignificant(self):
        a = parse_formula("G[ 2 , 26 ] ( x1 <= 1.5 )")
        b = parse_formula("G[2,26](x1<=1.5)")
        assert a == b

    def test_scientific_notation(self):
        assert parse_formula("x1 <= 1e-3") == pred(1, LE, 0.001)
        assert parse_formula("x1 > -2.5E2") == pred(1, GT, -250.0)


class TestPrintExamples:
    def test_always_single_face(self):
        assert format_formula(Always(3, 6, pred(3, LE, 1.0))) == "G[3,6](x3 <= 1.0)"

    def test_weighted_pair(self):
        a = Always(0, 1, pred(1, LE, 1.0))
        b = Eventually(0, 1, pred(2, GT, 2.0))
        text = format_formula(And((a, b), (2.71, 2.88)))
        assert text == "(G[0,1](x1 <= 1.0) &^{2.71,2.88} F[0,1](x2 > 2.0))"

    def test_boolean_const(self):
        assert format_formula(TRUE) == "true"

    def test_merged_box_spacing(self):
        phi = Always(2, 26, box((2, GT, 21.31), (1, GT, 11.1)))
        assert format_formula(phi) == "G[2,26]((x2 > 21.31) & (x1 > 11.1))"

    def test_human_rounding_and_m_weight(self):
        phi = And(
            (pred(1, LE, 1.23456), pred(2, GT, 0.0)),
            (100.0, 2.71828),
        )
        text = format_formula(phi, human=True, m_weight=100.0)
        assert "&^{M,2.72}" in text
        assert "1.23" in text and "1.23456" not in text


class TestErrors:
    def test_syntax_error_location(self):
        with pytest.raises(ParseError) as info:
            parse_formula("G[2,26]((x2 > 21.31) &&")
        assert info.value.line == 1
        assert info.value.column == 23
        assert info.value.expected

    def test_interval_order(self):
        with pytest.raises(SemanticError):
            parse_formula("G[5,2](x1 <= 0)")

    def test_negative_bound(self):
        with pytest.raises(SemanticError):
            parse_formula("G[-1,2](x1 <= 0)")

    def test_non_positive_weight(self):
        with pytest.raises(SemanticError):
            parse_formula("(x1 <= 1 &^{0.0,1.0} x2 > 0)")
        with pytest.raises(SemanticError):
            parse_formula("(x1 <= 1 &^{1e400,1.0} x2 > 0)")

    def test_non_finite_threshold(self):
        with pytest.raises(SemanticError, match="not finite"):
            parse_formula("F[0,2](x1 > 1e400)")

    @pytest.mark.parametrize("text, column, what", [
        ("G[0," + "9" * 5000 + "](x1 > 0)", 5, "time bound"),
        ("x" + "9" * 5000 + " > 0", 1, "variable index"),
        # 400 digits pass int() but not the float range, which checked() keeps.
        ("G[0," + "9" * 400 + "](x1 > 0)", 5, "time bound"),
        ("x" + "9" * 400 + " > 0", 1, "variable index"),
    ], ids=["long-bound", "long-variable", "bound-past-float-range",
            "variable-past-float-range"])
    def test_number_too_long_for_int(self, text, column, what):
        with pytest.raises(SemanticError, match=f"{what} has too many digits") as info:
            parse_formula(text)
        assert (info.value.line, info.value.column) == (1, column)

    def test_weight_count_mismatch(self):
        with pytest.raises(SemanticError):
            parse_formula("(x1 <= 1 &^{1.0} x2 > 0 & x3 > 0)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_formula("x1 <= 1 x2")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_formula("x1 <= 1 @ x2 > 0")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_formula("(x1 <= 1")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_formula("   ")

    def test_multiline_location(self):
        with pytest.raises(ParseError) as info:
            parse_formula("(x1 <= 1\n & )")
        assert info.value.line == 2

    @pytest.mark.parametrize("opener", ["(", "!", "G[0,1]", "F[0,1]"])
    def test_nesting_limit(self, opener):
        def text(depth):
            return opener * depth + "x1 > 0" + ")" * (depth * opener.count("("))

        assert parse_formula(text(MAX_NESTING)) is not None
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}") as info:
            parse_formula("\n" + text(MAX_NESTING + 1))
        assert (info.value.line, info.value.column) == (2, MAX_NESTING * len(opener) + 1)

    def test_nesting_limit_admits_the_deepest_tree(self):
        primitive = parse_formula("F[0,3]!((x1 > 40) & (x2 <= 30))")
        node = Leaf(NEG_LABEL)
        for _ in range(MAX_DEPTH):  # each level adds "(phi | (!phi & ...))"
            node = Split(primitive, Leaf(POS_LABEL), node)
        phi = tree_to_formula(node)
        assert parse_formula(format_formula(phi)) == phi


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip(seed):
    rng = random.Random(seed)
    dimension = rng.randint(1, 4)
    horizon = rng.randint(0, 30)
    phi = random_formula(rng, max_depth=4, dimension=dimension, horizon=horizon)
    assert parse_formula(format_formula(phi)) == phi


def test_round_trip_preserves_full_precision():
    phi = pred(1, LE, 0.1 + 0.2)
    again = parse_formula(format_formula(phi))
    assert again.box.conjuncts[0].threshold == 0.1 + 0.2
