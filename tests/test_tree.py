import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    And,
    Always,
    Eventually,
    FALSE,
    GT,
    LE,
    LabeledDataset,
    Leaf,
    NEG_LABEL,
    Not,
    NotAPrimitiveError,
    EmptyPrimitiveSetError,
    Or,
    POS_LABEL,
    PsoConfig,
    PstlTemplate,
    Signal,
    Split,
    TRUE,
    TreeConfig,
    build_tree,
    classify,
    classify_all,
    combine_primitives,
    first_order_templates,
    gain_from_robustness,
    mcr,
    misclassification_gain,
    optimize_primitive,
    partition,
    robustness,
    robustness_all,
    satisfies,
    tree_depth,
    tree_to_formula,
    uniform_weights,
)
from stlboost.templates import ALWAYS, EVENTUALLY
from stlboost.tree import MAX_DEPTH
from helpers import (
    accepted_merge_gains,
    box,
    constant_dataset,
    constant_signal,
    grow_recording_merges,
    pred,
    random_signal,
    two_band_dataset,
)
from oracles import grid_search

FAST = TreeConfig(max_depth=2, pso=PsoConfig(swarm_size=20, iterations=25))


class TestStopConditions:
    def test_majority_dataset_becomes_single_leaf(self):
        ds = constant_dataset([0.0] * 19 + [5.0], [POS_LABEL] * 19 + [NEG_LABEL])
        root, merges = build_tree(ds, uniform_weights(20), FAST, seed=0)
        assert root == Leaf(POS_LABEL)
        assert merges == 0

    def test_purity_uses_plain_counts_not_weights(self):
        # 96% positive by count stops immediately even when nearly all the
        # boosting weight sits on the lone negative sample.
        ds = constant_dataset([0.0] * 24 + [5.0], [POS_LABEL] * 24 + [NEG_LABEL])
        weights = np.array([0.001] * 24 + [0.976])
        root, _ = build_tree(ds, weights / weights.sum(), FAST, seed=0)
        assert isinstance(root, Leaf)

    def test_max_depth_bound(self):
        rng = random.Random(0)
        signals = [random_signal(rng, 1, 6) for _ in range(24)]
        labels = [POS_LABEL if i % 2 else NEG_LABEL for i in range(24)]
        ds = LabeledDataset(
            np.stack([s.values for s in signals]), np.array(labels),
            tuple(str(i) for i in range(24)),
        )
        for depth in (1, 2, 3):
            config = TreeConfig(max_depth=depth, pso=PsoConfig(swarm_size=12, iterations=12))
            root, _ = build_tree(ds, uniform_weights(24), config, seed=1)
            assert tree_depth(root) <= depth


class TestSeparableLearning:
    def test_one_dimensional_threshold(self):
        values = [0.0, 0.3, 0.6, 1.0, 1.6, 2.2, 2.8, 3.0]
        labels = [POS_LABEL] * 4 + [NEG_LABEL] * 4
        ds = constant_dataset(values, labels, horizon=3)
        root, _ = build_tree(ds, uniform_weights(8), FAST, seed=3)
        assert tree_depth(root) == 1
        formula = tree_to_formula(root)
        assert mcr(formula, ds) == 0.0
        # The split threshold must sit strictly between the classes.
        faces = root.primitive.child.box.conjuncts
        assert len(faces) == 1
        assert 1.0 < faces[0].threshold < 1.6

    def test_deterministic_given_seed(self):
        ds = two_band_dataset(count=6, seed=9)
        a, merges_a = build_tree(ds, uniform_weights(len(ds)), FAST, seed=4)
        b, merges_b = build_tree(ds, uniform_weights(len(ds)), FAST, seed=4)
        assert a == b
        assert merges_a == merges_b


class TestOptimizePrimitive:
    def test_empty_primitive_set(self):
        ds = constant_dataset([0.0, 2.0], [POS_LABEL, NEG_LABEL])
        with pytest.raises(EmptyPrimitiveSetError):
            optimize_primitive(ds, uniform_weights(2), np.full(2, np.inf), (), FAST, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([ALWAYS, EVENTUALLY]),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_gain_is_the_primitive_scored_alone(self, seed, shape, face_count, finite_path):
        # The tree reuses the search's gain and never re-scores the primitive,
        # so the two must agree bit for bit.  Multi-face F takes the sliced
        # window path, every other template the range tables.
        rng = np.random.default_rng(seed)
        count = int(rng.integers(2, 16))
        values = np.round(rng.normal(size=(count, 2, int(rng.integers(1, 12)))) * 3, 1)
        labels = rng.choice([POS_LABEL, NEG_LABEL], size=count)
        ds = LabeledDataset(values, labels, tuple(str(i) for i in range(count)))
        weights = rng.random(count)
        weights /= weights.sum()
        faces = [(var, op) for var in (1, 2) for op in (GT, LE)]
        picked = rng.choice(len(faces), size=face_count, replace=False)
        template = PstlTemplate(shape, tuple(faces[i] for i in picked))
        path_rho = np.full(count, np.inf)
        if finite_path:
            path_rho = np.abs(rng.normal(size=count)) * 2
        config = TreeConfig(pso=PsoConfig(swarm_size=8, iterations=4))
        phi, gain = optimize_primitive(ds, weights, path_rho, template, config, seed=seed)
        rho = np.minimum(path_rho, robustness_all(phi, values))
        assert gain == gain_from_robustness(rho, ds.labels, weights).gain

    def test_matches_grid_oracle_on_separable_data(self):
        ds = constant_dataset(
            [0.0, 0.5, 2.0, 3.0], [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL]
        )
        weights = uniform_weights(4)
        template = PstlTemplate("F", ((1, LE),)).bound_to(ds)

        def objective(v):
            return misclassification_gain(ds, weights, template.instantiate(v)).gain

        candidates = [v + d for v in (0.0, 0.5, 2.0, 3.0) for d in (-1e-6, 1e-6)]
        _, oracle = grid_search(template, objective, sorted(candidates))
        got, gain = optimize_primitive(ds, weights, np.full(4, np.inf), template, FAST, seed=2)
        achieved = misclassification_gain(ds, weights, got).gain
        assert achieved >= oracle - 1e-6
        assert gain == achieved

    def test_eventually_wins_when_always_cannot_separate(self):
        # Positives dip below zero at different times; their windowed minima
        # under any always-window overlap the negatives, but an eventually
        # split catches each dip.
        rng = np.random.default_rng(5)
        horizon = 9
        signals = []
        labels = []
        for i in range(10):
            row = rng.uniform(2.0, 4.0, horizon + 1)
            row[1 + (i % 8)] = -2.0 - rng.uniform(0, 1)
            signals.append(row[np.newaxis, :])
            labels.append(POS_LABEL)
        for _ in range(10):
            signals.append(rng.uniform(2.0, 4.0, (1, horizon + 1)))
            labels.append(NEG_LABEL)
        ds = LabeledDataset(
            np.stack(signals), np.array(labels), tuple(str(i) for i in range(20))
        )
        got, _ = optimize_primitive(
            ds,
            uniform_weights(20),
            np.full(20, np.inf),
            first_order_templates(1),
            TreeConfig(max_depth=2, pso=PsoConfig(swarm_size=30, iterations=40)),
            seed=3,
        )
        assert isinstance(got, Eventually)
        (top, _), (bot, _) = partition(ds, uniform_weights(20), got)
        assert sorted(top.labels) == [POS_LABEL] * 10
        assert sorted(bot.labels) == [NEG_LABEL] * 10


class TestCombinePrimitives:
    def test_same_operator_merges_faces(self):
        parent = Always(0, 5, box((1, GT, 1.0), (2, LE, 3.0)))
        child = Always(1, 4, pred(2, GT, 0.5))
        template = combine_primitives(parent, child)
        assert template is not None
        assert template.shape == "G"
        assert template.slots == ((1, GT), (2, LE), (2, GT))
        assert not template.is_bound

    def test_band_merge(self):
        parent = Eventually(15, 25, pred(1, GT, 40.0))
        child = Eventually(12, 20, pred(1, LE, 47.0))
        template = combine_primitives(parent, child)
        assert template.shape == "F"
        assert template.slots == ((1, GT), (1, LE))

    def test_different_operators_do_not_merge(self):
        parent = Always(0, 5, pred(1, LE, 1.0))
        child = Eventually(0, 5, pred(1, GT, 0.0))
        assert combine_primitives(parent, child) is None

    def test_duplicate_faces_collapse(self):
        parent = Always(0, 5, pred(1, LE, 1.0))
        child = Always(0, 5, pred(1, LE, 2.0))
        template = combine_primitives(parent, child)
        assert template.slots == ((1, LE),)

    def test_non_primitive_rejected(self):
        with pytest.raises(NotAPrimitiveError):
            combine_primitives(pred(1, LE, 1.0), Always(0, 1, pred(1, LE, 1.0)))
        with pytest.raises(NotAPrimitiveError):
            combine_primitives(
                Always(0, 1, pred(1, LE, 1.0)), Not(Always(0, 1, pred(1, LE, 1.0)))
            )
        with pytest.raises(NotAPrimitiveError):
            combine_primitives(
                Always(0, 1, And((pred(1, LE, 1.0), TRUE))),
                Always(0, 1, pred(1, LE, 1.0)),
            )


class TestMergeRewriting:
    def test_two_band_merge_fires(self, caplog):
        ds = two_band_dataset(count=10)
        config = TreeConfig(
            max_depth=2, shapes=("G",), pso=PsoConfig(swarm_size=30, iterations=40)
        )
        grown = build_tree(ds, uniform_weights(len(ds)), config, seed=11)
        caplog.set_level(logging.DEBUG, logger="stlboost.tree")
        root, count, merges = grow_recording_merges(ds, uniform_weights(len(ds)), config, seed=11)
        assert (root, count) == grown
        assert count == len(merges) >= 1
        assert accepted_merge_gains(caplog) == [
            (round(before, 6), round(after, 6)) for _, before, after in merges
        ]
        merged, gain_before, gain_after = merges[0]
        assert gain_after > gain_before
        assert isinstance(merged, Always)
        assert len(merged.child.box.conjuncts) == 2
        ops = {c.op for c in merged.child.box.conjuncts}
        assert ops == {GT, LE}
        assert mcr(tree_to_formula(root), ds) == 0.0


class TestTreeToFormula:
    def test_leaves(self):
        assert tree_to_formula(Leaf(POS_LABEL)) == TRUE
        assert tree_to_formula(Leaf(NEG_LABEL)) == FALSE

    def test_single_positive_path(self):
        phi = Always(0, 1, pred(1, LE, 1.0))
        assert tree_to_formula(Split(phi, Leaf(POS_LABEL), Leaf(NEG_LABEL))) == phi

    def test_negated_single_path(self):
        phi = Always(0, 1, pred(1, LE, 1.0))
        assert tree_to_formula(Split(phi, Leaf(NEG_LABEL), Leaf(POS_LABEL))) == Not(phi)

    def test_a_split_at_zero_robustness(self):
        """On the threshold the tree goes left (-1), while the formula
        ``Not(phi)`` reads -0.0 and holds; off it, the two agree."""
        phi = Always(0, 0, pred(1, GT, 5.0))
        tree = Split(phi, Leaf(NEG_LABEL), Leaf(POS_LABEL))
        formula = tree_to_formula(tree)
        values = np.array([[[5.0]], [[5.5]], [[4.5]]])
        assert formula == Not(phi)
        assert classify_all(tree, values).tolist() == [NEG_LABEL, NEG_LABEL, POS_LABEL]
        rho = robustness_all(formula, values)
        assert rho[0] == 0.0 and np.signbit(rho[0])
        assert [satisfies(formula, Signal(v)) for v in values] == [True, False, True]

    def test_three_level_shape(self):
        p1 = Always(0, 1, pred(1, LE, 1.0))
        p2 = Eventually(0, 1, pred(1, GT, 0.0))
        p3 = Always(1, 2, pred(1, LE, 2.0))
        p4 = Eventually(1, 2, pred(1, GT, -1.0))
        p5 = Always(2, 3, pred(1, GT, 0.5))
        tree = Split(
            p1,
            Split(p2, Leaf(POS_LABEL), Leaf(NEG_LABEL)),
            Split(
                p3,
                Split(p4, Leaf(POS_LABEL), Leaf(NEG_LABEL)),
                Split(p5, Leaf(POS_LABEL), Leaf(NEG_LABEL)),
            ),
        )
        expected = Or(
            (
                And((p1, p2)),
                And((Not(p1), Or((And((p3, p4)), And((Not(p3), p5)))))),
            )
        )
        assert tree_to_formula(tree) == expected


class TestClassify:
    def test_leaf(self):
        assert classify(Leaf(NEG_LABEL), constant_signal(0.0)) == NEG_LABEL

    def test_simple_split(self):
        tree = Split(Always(0, 0, pred(1, LE, 1.0)), Leaf(POS_LABEL), Leaf(NEG_LABEL))
        assert classify(tree, constant_signal(0.0)) == POS_LABEL
        assert classify(tree, constant_signal(2.0)) == NEG_LABEL

    def test_boundary_goes_left(self):
        tree = Split(Always(0, 0, pred(1, LE, 1.0)), Leaf(POS_LABEL), Leaf(NEG_LABEL))
        assert classify(tree, constant_signal(1.0)) == POS_LABEL

    def test_classify_all_matches_classify(self):
        rng = random.Random(2)
        tree = _random_tree(rng, depth=3, dimension=2, horizon=6)
        signals = [random_signal(rng, 2, 6) for _ in range(40)]
        values = np.stack([s.values for s in signals])
        batch = classify_all(tree, values)
        for i, signal in enumerate(signals):
            assert batch[i] == classify(tree, signal)


def _random_tree(rng: random.Random, depth: int, dimension: int, horizon: int):
    if depth == 0 or rng.random() < 0.25:
        return Leaf(rng.choice((POS_LABEL, NEG_LABEL)))
    var = rng.randint(1, dimension)
    op = rng.choice((GT, LE))
    start = rng.randint(0, horizon)
    end = rng.randint(start, horizon)
    primitive_cls = Always if rng.random() < 0.5 else Eventually
    primitive = primitive_cls(start, end, pred(var, op, rng.uniform(-6, 6)))
    return Split(
        primitive,
        _random_tree(rng, depth - 1, dimension, horizon),
        _random_tree(rng, depth - 1, dimension, horizon),
    )


def _tree_primitives(node):
    if isinstance(node, Leaf):
        return []
    return (
        [node.primitive]
        + _tree_primitives(node.left)
        + _tree_primitives(node.right)
    )


def test_classification_equivalence_of_tree_and_formula():
    rng = random.Random(17)
    agreements = 0
    trials = 0
    while trials < 300:
        tree = _random_tree(rng, depth=3, dimension=2, horizon=5)
        signal = random_signal(rng, 2, 5)
        # The equivalence is only claimed away from the zero-robustness
        # boundary of every split primitive.
        if any(robustness(p, signal) == 0.0 for p in _tree_primitives(tree)):
            continue
        formula = tree_to_formula(tree)
        trials += 1
        reached_positive = classify(tree, signal) == POS_LABEL
        agreements += reached_positive == satisfies(formula, signal)
    assert agreements == trials


def test_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(max_depth=0)
    assert TreeConfig(max_depth=MAX_DEPTH)
    with pytest.raises(ValueError):
        TreeConfig(max_depth=MAX_DEPTH + 1)
    with pytest.raises(ValueError):
        TreeConfig(purity_stop=0.5)
    with pytest.raises(ValueError):
        TreeConfig(shapes=("X",))
    with pytest.raises(ValueError):
        build_tree(
            constant_dataset([0.0], [POS_LABEL]), np.array([0.5]), FAST, seed=0
        )
