import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    And,
    Always,
    BoxPredicate,
    Conjunct,
    Eventually,
    FALSE,
    GT,
    LE,
    Not,
    Or,
    OutOfHorizonError,
    PstlTemplate,
    Signal,
    TRUE,
    UnvaluedParameterError,
    VariableOutOfRangeError,
    operator_count,
    robustness,
    robustness_all,
    satisfies,
)
import stlboost.formula as formula
from stlboost.formula import extent
from helpers import box, constant_signal, pred, random_formula, random_signal, signal_rows
from oracles import naive_robustness


class TestRobustnessExamples:
    def test_predicate_margin(self):
        assert robustness(pred(1, LE, 1.0), constant_signal(0.0)) == 1.0

    def test_always_boundary_satisfies(self):
        signal = Signal(np.ones((3, 7)))
        phi = Always(3, 6, pred(3, LE, 1.0))
        assert robustness(phi, signal) == 0.0
        assert satisfies(phi, signal)

    def test_min_max_recursion(self):
        signal = Signal(np.array([[1.0, 3.0, 4.0]]))
        phi = And((Eventually(0, 2, pred(1, GT, 2.0)), Always(0, 2, pred(1, LE, 5.0))))
        assert robustness(phi, signal) == 1.0
        assert satisfies(phi, signal)

    def test_satisfies_examples(self):
        assert satisfies(pred(1, LE, 1.0), constant_signal(0.0))
        assert not satisfies(pred(1, LE, 1.0), constant_signal(2.0))


class TestErrors:
    def test_window_past_horizon(self):
        signal = constant_signal(0.0, horizon=3)
        with pytest.raises(OutOfHorizonError):
            robustness(Always(0, 5, pred(1, LE, 1.0)), signal)

    def test_evaluation_time_past_horizon(self):
        with pytest.raises(OutOfHorizonError):
            robustness(pred(1, LE, 1.0), constant_signal(0.0, horizon=2), t=3)

    def test_template_rejected(self):
        template = PstlTemplate("G", ((1, LE),))
        with pytest.raises(UnvaluedParameterError):
            robustness(template, constant_signal(0.0))

    def test_window_past_horizon_batch(self):
        values = np.zeros((2, 1, 4))
        with pytest.raises(OutOfHorizonError):
            robustness_all(Eventually(2, 5, pred(1, GT, 0.0)), values)

    def test_nested_window_past_horizon(self):
        # Each window fits T=3 alone; nested, they read timepoint 4.
        phi = Always(0, 2, Eventually(1, 2, pred(1, GT, 0.0)))
        with pytest.raises(OutOfHorizonError):
            robustness_all(phi, np.zeros((2, 1, 4)))

    def test_constant_past_horizon_batch(self):
        with pytest.raises(OutOfHorizonError):
            robustness_all(TRUE, np.zeros((2, 1, 3)), t=3)

    def test_non_integer_time(self):
        with pytest.raises(OutOfHorizonError):
            robustness_all(pred(1, LE, 1.0), np.zeros((2, 1, 3)), t=1.0)

    def test_variable_past_count(self):
        with pytest.raises(VariableOutOfRangeError, match=r"x3.*n=1"):
            robustness_all(pred(3, GT, 0.0), np.zeros((2, 1, 3)))
        with pytest.raises(VariableOutOfRangeError, match=r"x2.*n=1"):
            robustness(Always(0, 1, pred(2, LE, 1.0)), constant_signal(0.0))

    def test_extent_of_template(self):
        with pytest.raises(UnvaluedParameterError):
            extent(PstlTemplate("G", ((1, LE),)))


class TestConstruction:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Always(3, 2, TRUE)
        with pytest.raises(ValueError):
            Eventually(-1, 2, TRUE)

    def test_weight_validation(self):
        children = (pred(1, LE, 1.0), pred(2, GT, 0.0))
        with pytest.raises(ValueError):
            And(children, (1.0,))
        with pytest.raises(ValueError):
            And(children, (1.0, -2.0))

    def test_box_face_validation(self):
        with pytest.raises(ValueError):
            BoxPredicate((Conjunct(1, GT, 0.0), Conjunct(1, GT, 1.0)))
        with pytest.raises(ValueError):
            BoxPredicate((Conjunct(1, GT, 2.0), Conjunct(1, LE, 1.0)))
        with pytest.raises(ValueError):
            BoxPredicate(())

    def test_signal_validation(self):
        with pytest.raises(ValueError):
            Signal(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            Signal(np.zeros(3))


class TestOperatorCount:
    def test_bare_predicate(self):
        assert operator_count(pred(1, LE, 1.0)) == 0

    def test_eventually_over_four_face_box(self):
        phi = Eventually(
            15, 20, box((1, GT, 40.0), (1, LE, 47.0), (2, GT, 26.0), (2, LE, 32.0))
        )
        assert operator_count(phi) == 4

    def test_tree_shaped_disjunction(self):
        # (a ∧ b) ∨ (¬a ∧ c) with three atomic temporal formulas, one reused:
        # four temporal nodes plus ∨, ∧, ∧, ¬ gives eight operator nodes.
        a = Always(0, 1, pred(1, LE, 0.5))
        b = Eventually(0, 1, pred(1, GT, 0.1))
        c = Always(1, 2, pred(1, GT, 0.0))
        phi = Or((And((a, b)), And((Not(a), c))))
        assert operator_count(phi) == 8

    def test_nary_and_counts_pairwise(self):
        a = pred(1, LE, 1.0)
        assert operator_count(And((a, a, a))) == 2
        assert operator_count(Or((a, a, a, a))) == 3
        assert operator_count(TRUE) == 0


@st.composite
def formula_and_signal(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    dimension = rng.randint(1, 3)
    horizon = rng.randint(0, 10)
    phi = random_formula(rng, max_depth=4, dimension=dimension, horizon=horizon)
    signal = random_signal(rng, dimension, horizon)
    return phi, signal


# Few distinct values, signed zeros included, so robustness ties are common.
TIE_GRID = (-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def formula_batch_and_time(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    dimension = rng.randint(1, 3)
    horizon = rng.randint(0, 10)
    t = rng.randint(0, horizon)
    phi = random_formula(rng, max_depth=4, dimension=dimension, horizon=horizon - t,
                         grid=TIE_GRID)
    tied = rng.random() < 0.7
    signals = [
        Signal(np.array([[rng.choice(TIE_GRID) for _ in range(horizon + 1)]
                         for _ in range(dimension)]))
        if tied else random_signal(rng, dimension, horizon)
        for _ in range(rng.randint(1, 4))
    ]
    return phi, signals, t


@settings(max_examples=200, deadline=None)
@given(formula_batch_and_time())
def test_matches_naive_oracle(case):
    # Min, max and negation are exact, so the semantics must agree exactly.
    phi, signals, t = case
    expected = [naive_robustness(phi, signal_rows(s), t) for s in signals]
    batch = robustness_all(phi, np.stack([s.values for s in signals]), t)
    assert batch.tolist() == expected
    assert [robustness(phi, s, t) for s in signals] == expected


def test_nested_windows_evaluate_the_box_once(monkeypatch):
    calls = []
    real = formula.box_window_rho

    def counting(faces, values, lo, hi):
        calls.append((lo, hi))
        return real(faces, values, lo, hi)

    monkeypatch.setattr(formula, "box_window_rho", counting)
    phi = pred(1, GT, 0.0)
    for depth in range(6):
        phi = (Always if depth % 2 else Eventually)(0, 20, phi)
    values = np.random.default_rng(0).normal(size=(3, 1, 121))
    robustness_all(phi, values)
    assert calls == [(0, 120)]


@settings(max_examples=100, deadline=None)
@given(formula_and_signal())
def test_negation_antisymmetry(pair):
    phi, signal = pair
    assert robustness(Not(phi), signal) == -robustness(phi, signal)


@settings(max_examples=100, deadline=None)
@given(formula_and_signal())
def test_sign_soundness(pair):
    phi, signal = pair
    rho = robustness(phi, signal)
    if rho > 0:
        assert satisfies(phi, signal)
    elif rho < 0:
        assert not satisfies(phi, signal)


@settings(max_examples=100, deadline=None)
@given(formula_and_signal(), st.integers(0, 5), st.integers(0, 5))
def test_temporal_duality(pair, a, width):
    phi, signal = pair
    b = a + width
    if b > signal.horizon:
        b = signal.horizon
        a = min(a, b)
    inner_budget = signal.horizon - b
    rng = random.Random(7)
    child = random_formula(rng, 2, signal.dimension, inner_budget)
    lhs = robustness(Always(a, b, child), signal)
    rhs = -robustness(Eventually(a, b, Not(child)), signal)
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.01, 5))
def test_threshold_monotonicity(value, threshold, bump):
    signal = constant_signal(value)
    below = robustness(pred(1, LE, threshold), signal)
    above = robustness(pred(1, LE, threshold + bump), signal)
    assert above > below
    below_gt = robustness(pred(1, GT, threshold + bump), signal)
    above_gt = robustness(pred(1, GT, threshold), signal)
    assert above_gt > below_gt


@settings(max_examples=150, deadline=None)
@given(formula_and_signal())
def test_batch_matches_single(pair):
    phi, signal = pair
    batch = robustness_all(phi, signal.values[np.newaxis])
    single = robustness(phi, signal)
    if math.isinf(single):
        assert batch[0] == single
    else:
        assert math.isclose(float(batch[0]), single, rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("signals", [1, 3])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 9])  # around the level edges
def test_range_query_is_the_window_minimum(signals, width):
    rng = np.random.default_rng(width)
    series = rng.choice([-2.0, -0.5, 0.0, 1.0, 3.5], size=(signals, width))
    lo, hi = np.triu_indices(width)  # every window [lo, hi]
    for sign in (1, -1):
        table = np.empty((width.bit_length(), width, signals))
        formula.range_table(series, sign, out=table)
        got = formula.range_query(table[np.newaxis], np.zeros_like(lo), lo, hi)
        want = np.array([(sign * series[:, a : b + 1]).min(axis=1) for a, b in zip(lo, hi)])
        assert got.shape == (len(lo), signals)
        assert np.array_equal(got, want)


def test_batch_shapes_and_order():
    rng = random.Random(11)
    signals = [random_signal(rng, 2, 6) for _ in range(5)]
    values = np.stack([s.values for s in signals])
    phi = Always(1, 4, box((1, LE, 2.0), (2, GT, -1.0)))
    batch = robustness_all(phi, values)
    for i, signal in enumerate(signals):
        assert math.isclose(float(batch[i]), robustness(phi, signal), abs_tol=1e-12)


def test_boolean_constants():
    signal = constant_signal(0.0)
    assert robustness(TRUE, signal) == math.inf
    assert robustness(FALSE, signal) == -math.inf
    assert satisfies(TRUE, signal)
    assert not satisfies(FALSE, signal)
