import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    FALSE,
    LE,
    LabeledDataset,
    NEG_LABEL,
    POS_LABEL,
    TRUE,
    best_leaf_label,
    gain_from_robustness,
    misclassification_gain,
    partition,
    robustness_all,
    uniform_weights,
)
from stlboost.impurity import gain_scorer
from helpers import constant_dataset, pred, random_formula, random_signal
from oracles import naive_gain

FOUR = constant_dataset(
    [0.0, 0.5, 2.0, 3.0], [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL]
)


class TestPartition:
    def test_true_keeps_everything_top(self):
        (top, top_w), (bot, bot_w) = partition(FOUR, uniform_weights(4), TRUE)
        assert len(top) == 4 and len(bot) == 0
        assert math.isclose(float(top_w.sum()), 1.0)
        assert bot_w.size == 0

    def test_false_keeps_everything_bottom(self):
        (top, _), (bot, _) = partition(FOUR, uniform_weights(4), FALSE)
        assert len(top) == 0 and len(bot) == 4

    def test_threshold_split(self):
        (top, _), (bot, _) = partition(FOUR, uniform_weights(4), pred(1, LE, 1.0))
        assert sorted(top.values[:, 0, 0]) == [0.0, 0.5]
        assert sorted(bot.values[:, 0, 0]) == [2.0, 3.0]

    def test_weights_carried_not_renormalized(self):
        weights = np.array([0.4, 0.1, 0.3, 0.2])
        (top, top_w), (bot, bot_w) = partition(FOUR, weights, pred(1, LE, 1.0))
        assert list(top_w) == [0.4, 0.1]
        assert list(bot_w) == [0.3, 0.2]


class TestGainExamples:
    def test_hand_computed_third(self):
        # Masses w*|rho| under x1 <= 1: 0.25 + 0.125 positive (top side),
        # 0.25 + 0.5 negative (bottom side).  The parent's minority share is
        # 0.375 / 1.125 = 1/3 and both sides are pure, so all of it is gained.
        score = misclassification_gain(FOUR, uniform_weights(4), pred(1, LE, 1.0))
        assert math.isclose(score.gain, 1.0 / 3.0, abs_tol=1e-12)

    def test_hand_computed_impure_side(self):
        # Masses under x1 <= 2.5: 0.625 + 0.5 positive and 0.125 negative on
        # top, 0.125 negative at the bottom, of 1.375 in all.  The parent's
        # minority share is 2/11; the top side holds 10/11 of the mass with a
        # minority share of 0.1, so the gain is 2/11 - 10/11 * 0.1 = 1/11.
        score = misclassification_gain(FOUR, uniform_weights(4), pred(1, LE, 2.5))
        assert math.isclose(score.gain, 1.0 / 11.0, abs_tol=1e-12)

    def test_pure_split_gain_is_parent_mr(self):
        score = misclassification_gain(FOUR, uniform_weights(4), pred(1, LE, 1.0))
        mags = uniform_weights(4) * np.abs(1.0 - FOUR.values[:, 0, 0])
        pos = float(mags[FOUR.labels == POS_LABEL].sum())
        parent_mr = min(pos, float(mags.sum()) - pos) / float(mags.sum())
        assert math.isclose(score.gain, parent_mr, abs_tol=1e-12)

    def test_no_split_zero_gain(self):
        phi = pred(1, LE, 10.0)
        score = misclassification_gain(FOUR, uniform_weights(4), phi)
        assert (robustness_all(phi, FOUR.values) >= 0).all()  # the bottom side is empty
        assert math.isclose(score.gain, 0.0, abs_tol=1e-12)

    def test_degenerate_all_zero_robustness(self):
        ds = constant_dataset([1.0, 1.0], [POS_LABEL, NEG_LABEL])
        score = misclassification_gain(ds, uniform_weights(2), pred(1, LE, 1.0))
        assert score.gain == 0.0


class TestLeafLabel:
    def test_pure_classes(self):
        pos = constant_dataset([0.0, 1.0], [POS_LABEL, POS_LABEL])
        neg = constant_dataset([0.0, 1.0], [NEG_LABEL, NEG_LABEL])
        weights = uniform_weights(2)
        assert best_leaf_label(pos, weights, robustness_all(TRUE, pos.values)) == POS_LABEL
        assert best_leaf_label(neg, weights, robustness_all(TRUE, neg.values)) == NEG_LABEL

    def test_mass_comparison(self):
        # Under path x1 <= 4 the positive sample carries mass 0.5*4, the
        # negative one 0.5*1: positives dominate.
        ds = constant_dataset([0.0, 3.0], [POS_LABEL, NEG_LABEL])
        path, weights = pred(1, LE, 4.0), uniform_weights(2)
        assert best_leaf_label(ds, weights, robustness_all(path, ds.values)) == POS_LABEL
        # Swap the margins and the negative class wins.
        ds2 = constant_dataset([3.0, 0.0], [POS_LABEL, NEG_LABEL])
        assert best_leaf_label(ds2, weights, robustness_all(path, ds2.values)) == NEG_LABEL

    def test_tie_goes_positive(self):
        ds = constant_dataset([1.0, 1.0], [POS_LABEL, NEG_LABEL])
        assert best_leaf_label(ds, uniform_weights(2), robustness_all(TRUE, ds.values)) == POS_LABEL

    def test_empty_dataset(self):
        empty = LabeledDataset(np.zeros((0, 1, 3)), np.zeros(0, dtype=int), ())
        assert best_leaf_label(empty, np.zeros(0), robustness_all(TRUE, empty.values)) == POS_LABEL


def _random_case(seed):
    rng = random.Random(seed)
    count = rng.randint(2, 12)
    dimension = rng.randint(1, 2)
    horizon = rng.randint(1, 6)
    signals = [random_signal(rng, dimension, horizon) for _ in range(count)]
    labels = [rng.choice((POS_LABEL, NEG_LABEL)) for _ in range(count)]
    ds = LabeledDataset(
        np.stack([s.values for s in signals]), np.array(labels),
        tuple(str(i) for i in range(count)),
    )
    raw = [rng.random() for _ in range(count)]
    weights = np.array(raw) / sum(raw)
    phi = random_formula(rng, 3, dimension, horizon, allow_const=False)
    return ds, weights, phi


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_naive_gain(seed):
    ds, weights, phi = _random_case(seed)
    from stlboost import robustness_all

    rho = robustness_all(phi, ds.values)
    expected = naive_gain([float(r) for r in rho], list(ds.labels), list(weights))
    got = misclassification_gain(ds, weights, phi).gain
    assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 50))
def test_weight_scale_invariance(seed, scale):
    ds, weights, phi = _random_case(seed)
    base = misclassification_gain(ds, weights, phi)
    scaled = misclassification_gain(ds, weights * scale, phi)
    assert math.isclose(base.gain, scaled.gain, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gain_bounded_by_parent_mr(seed):
    ds, weights, phi = _random_case(seed)
    score = misclassification_gain(ds, weights, phi)
    mags = weights * np.abs(robustness_all(phi, ds.values))
    if not np.isfinite(mags).all() or mags.sum() == 0.0:  # degenerate: plain weights
        mags = weights
    p_pos = float(mags[ds.labels == POS_LABEL].sum() / mags.sum())
    assert score.gain <= min(p_pos, 1.0 - p_pos) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10))
def test_joint_scaling_preserves_partition_and_label(seed, scale):
    rng = random.Random(seed)
    values = [rng.uniform(-5, 5) for _ in range(6)]
    labels = [rng.choice((POS_LABEL, NEG_LABEL)) for _ in range(6)]
    threshold = rng.uniform(-5, 5)
    ds = constant_dataset(values, labels)
    scaled = constant_dataset([v * scale for v in values], labels)
    weights = uniform_weights(6)
    phi = pred(1, LE, threshold)
    phi_scaled = pred(1, LE, threshold * scale)
    (top_a, _), _ = partition(ds, weights, phi)
    (top_b, _), _ = partition(scaled, weights, phi_scaled)
    assert top_a.ids == top_b.ids
    assert best_leaf_label(ds, weights, robustness_all(phi, ds.values)) == best_leaf_label(
        scaled, weights, robustness_all(phi_scaled, scaled.values)
    )


def test_scorer_checks_its_arguments():
    labels = np.array([POS_LABEL, NEG_LABEL, POS_LABEL])
    with pytest.raises(ValueError, match="weights"):
        gain_scorer(labels, uniform_weights(2))
    with pytest.raises(ValueError, match="weights"):
        gain_scorer(labels, np.ones((3, 1)))
    score = gain_scorer(labels, uniform_weights(3))
    for rho in (np.zeros((4, 2)), np.zeros(3), np.zeros((1, 3, 1))):
        with pytest.raises(ValueError, match="rho"):
            score(rho)


def test_gain_from_robustness_empty():
    score = gain_from_robustness(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    assert score.gain == 0.0
