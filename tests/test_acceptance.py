"""Acceptance suite: every criterion as one test with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavy end-to-end checks sit at the end.
"""

import logging
import math
import random
import time

import numpy as np

from stlboost import (
    Always,
    Eventually,
    GT,
    LE,
    LabeledDataset,
    NEG_LABEL,
    POS_LABEL,
    PsoConfig,
    TreeConfig,
    TreeRound,
    BoostedModel,
    classify,
    format_formula,
    misclassification_gain,
    operator_count,
    optimize,
    parse_formula,
    robustness,
    satisfies,
    select_pruned_tree,
    train_boosted,
    tree_to_formula,
    uniform_weights,
)
from stlboost.cli import run_cross_validation
from stlboost.scenarios import NavalConfig, generate_naval

from helpers import (
    accepted_merge_gains,
    check_replay,
    grow_recording_merges,
    pred,
    random_formula,
    random_signal,
    signal_rows,
    spelled,
    two_band_dataset,
)
from oracles import grid_search, naive_gain, naive_robustness
from test_pso import _planted_instance
from test_tree import _random_tree, _tree_primitives


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_robustness_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for _ in range(1000):
        dimension = rng.randint(1, 3)
        horizon = rng.randint(0, 10)
        phi = random_formula(rng, max_depth=4, dimension=dimension, horizon=horizon)
        signal = random_signal(rng, dimension, horizon)
        got = robustness(phi, signal)
        expected = naive_robustness(phi, signal_rows(signal), 0)
        if math.isinf(expected):
            assert got == expected
        else:
            assert abs(got - expected) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("robustness oracle equivalence", f"1000 instances in {elapsed:.1f}s")


def test_parser_round_trip():
    started = time.perf_counter()
    rng = random.Random(77)
    for _ in range(1000):
        dimension = rng.randint(1, 4)
        horizon = rng.randint(0, 30)
        phi = random_formula(rng, max_depth=4, dimension=dimension, horizon=horizon)
        assert parse_formula(format_formula(phi)) == phi
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report("parser round trip", f"1000 formulas in {elapsed:.1f}s")


def test_impurity_oracle():
    rng = random.Random(404)
    for _ in range(200):
        count = rng.randint(2, 12)
        dimension = rng.randint(1, 2)
        horizon = rng.randint(1, 5)
        signals = [random_signal(rng, dimension, horizon) for _ in range(count)]
        labels = [rng.choice((POS_LABEL, NEG_LABEL)) for _ in range(count)]
        ds = LabeledDataset(
            np.stack([s.values for s in signals]),
            np.array(labels),
            tuple(str(i) for i in range(count)),
        )
        raw = [rng.random() + 0.01 for _ in range(count)]
        weights = np.array(raw) / sum(raw)
        phi = random_formula(rng, 3, dimension, horizon, allow_const=False)
        rho = [naive_robustness(phi, signal_rows(s), 0) for s in signals]
        expected = naive_gain(rho, labels, list(weights))
        got = misclassification_gain(ds, weights, phi).gain
        assert abs(got - expected) <= 1e-9
    _report("impurity oracle", "200 datasets")


def test_pso_matches_grid_oracle():
    started = time.perf_counter()
    hits = 0
    for seed in range(200, 220):
        template, accuracy, candidates = _planted_instance(seed)
        _, grid_best = grid_search(template, accuracy, candidates)
        _, pso_best = optimize(template, accuracy, PsoConfig(), seed=seed)
        hits += pso_best >= grid_best - 1e-6
    elapsed = time.perf_counter() - started
    assert hits >= 19  # 95% of 20 runs
    assert elapsed < 60.0
    _report("pso vs grid oracle", f"{hits}/20 hits in {elapsed:.1f}s")


def _noisy_flips(seed, count=26, flip=4):
    rng = np.random.default_rng(seed)
    low = rng.uniform(0.0, 1.0, count)
    high = rng.uniform(2.0, 3.0, count)
    values = np.concatenate([low, high])[:, np.newaxis, np.newaxis] * np.ones(4)
    labels = np.array([POS_LABEL] * count + [NEG_LABEL] * count)
    flips = rng.choice(2 * count, size=flip, replace=False)
    labels[flips] = -labels[flips]
    return LabeledDataset(
        values, labels, tuple(str(i) for i in range(2 * count))
    )


def test_boosting_weight_update_identity():
    config = TreeConfig(max_depth=1, pso=PsoConfig(swarm_size=12, iterations=15))
    runs_with_check = 0
    for seed in range(12):
        ds = _noisy_flips(seed)
        model = train_boosted(ds, rounds=3, config=config, seed=seed)
        runs_with_check += check_replay(model, ds) > 0
    assert runs_with_check >= 10
    _report("boosting weight update identity", f"{runs_with_check} seeded runs")


def test_merge_rewriting_soundness(caplog):
    ds = two_band_dataset(count=10)
    config = TreeConfig(
        max_depth=2, shapes=("G",), pso=PsoConfig(swarm_size=30, iterations=40)
    )
    caplog.set_level(logging.DEBUG, logger="stlboost.tree")
    _, count, merges = grow_recording_merges(ds, uniform_weights(len(ds)), config, seed=11)
    assert count == len(merges) >= 1
    assert accepted_merge_gains(caplog) == [
        (round(before, 6), round(after, 6)) for _, before, after in merges
    ]
    for _, gain_before, gain_after in merges:
        assert gain_after > gain_before
    merged, gain_before, gain_after = merges[0]
    assert isinstance(merged, (Always, Eventually))
    faces = merged.child.box.conjuncts
    assert len(faces) == 2
    assert {c.op for c in faces} == {GT, LE}
    _report(
        "merge rewriting soundness",
        f"{count} events, gain {gain_before:.4f} -> {gain_after:.4f}",
    )


def test_end_to_end_naval():
    started = time.perf_counter()
    ds = generate_naval(NavalConfig(count_per_class=100, seed=1))
    config = TreeConfig(max_depth=3, pso=PsoConfig(swarm_size=24, iterations=30))
    outcomes, _ = run_cross_validation(
        ds, trees=3, config=config, m_weight=100.0, folds=5, seed=7
    )
    test_mean = float(np.mean([o["testMcr"] for o in outcomes]))
    assert test_mean == 0.0
    for outcome in outcomes:
        assert outcome["model"]["prunedIndex"] is not None
        final = parse_formula(outcome["finalFormula"])
        assert operator_count(final) <= 6
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(
        "end-to-end naval",
        f"TE-M 0.00% over 5 folds, pruned formulas <= 6 ops, {elapsed:.0f}s",
    )


def test_noisy_boosting_trend():
    # Depth-1 trees cannot represent both anomaly families at once, so the
    # single-tree error is substantial and the boosted vote reduces it.
    config = TreeConfig(max_depth=1, pso=PsoConfig(swarm_size=16, iterations=25))
    wins = 0
    single_tree_errors = []
    for seed in range(10):
        ds = generate_naval(NavalConfig(count_per_class=30, noise=2.0, seed=seed))
        one, _ = run_cross_validation(
            ds, trees=1, config=config, m_weight=100.0, folds=5, seed=seed
        )
        three, _ = run_cross_validation(
            ds, trees=3, config=config, m_weight=100.0, folds=5, seed=seed
        )
        te_one = float(np.mean([o["testMcr"] for o in one]))
        te_three = float(np.mean([o["testMcr"] for o in three]))
        single_tree_errors.append(te_one)
        wins += te_three <= te_one
    mean_single = float(np.mean(single_tree_errors))
    assert mean_single >= 0.02  # the noise level makes single trees miss >= 2%
    assert wins >= 8
    _report(
        "noisy boosting trend",
        f"K=3 <= K=1 in {wins}/10 seeds, single-tree TE-M {100 * mean_single:.1f}%",
    )


def test_pruning_rule_prefers_simplest():
    five_ops = spelled(
        Always(0, 1, pred(1, LE, 1.0)),
        Eventually(0, 1, pred(1, GT, 0.0)),
        Always(0, 1, pred(1, GT, 2.0)),
    )
    three_ops = spelled(Always(0, 1, pred(1, LE, 1.0)), Eventually(0, 1, pred(1, GT, 0.0)))
    assert operator_count(tree_to_formula(five_ops)) == 5
    assert operator_count(tree_to_formula(three_ops)) == 3
    rounds = tuple(TreeRound(tree, 100.0, 0.0, 0) for tree in (five_ops, three_ops))
    model = BoostedModel(
        rounds=rounds,
        m_weight=100.0,
        pruned_index=None,
        dimension=1,
        horizon=2,
        config=TreeConfig(),
        requested_rounds=2,
    )
    assert select_pruned_tree(model) == 1
    _report("pruning rule", "operator counts (5, 3) -> index 1")


def test_tree_formula_equivalence():
    rng = random.Random(31337)
    agreements = 0
    trials = 0
    while trials < 1000:
        tree = _random_tree(rng, depth=3, dimension=2, horizon=6)
        signal = random_signal(rng, 2, 6)
        if any(robustness(p, signal) == 0.0 for p in _tree_primitives(tree)):
            continue
        formula = tree_to_formula(tree)
        trials += 1
        reached_positive = classify(tree, signal) == POS_LABEL
        agreements += reached_positive == satisfies(formula, signal)
    assert agreements == 1000
    _report("tree/formula equivalence", "1000/1000 agreements")
