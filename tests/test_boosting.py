import json
import logging
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

import stlboost.boosting as boosting
import stlboost.tree as tree_module
from stlboost.boosting import MAX_RETRIES, MAX_ROUNDS
from stlboost import (
    Always,
    And,
    BoostedModel,
    Eventually,
    GT,
    LE,
    Leaf,
    NEG_LABEL,
    POS_LABEL,
    PsoConfig,
    Split,
    TreeConfig,
    TreeRound,
    ensemble_mcr,
    format_formula,
    load_model,
    model_formula,
    model_from_dict,
    model_to_dict,
    operator_count,
    predict,
    predict_all,
    select_pruned_tree,
    train_boosted,
    tree_to_formula,
    tree_weight,
)
from helpers import (
    box,
    check_replay,
    constant_dataset,
    constant_signal,
    pred,
    random_signal,
    spelled,
)
from oracles import boosting_weights

FAST = TreeConfig(max_depth=2, pso=PsoConfig(swarm_size=16, iterations=20))


def noisy_dataset(seed, count=30, flip=4):
    """Separable constant signals with a few flipped labels."""
    rng = np.random.default_rng(seed)
    low = rng.uniform(0.0, 1.0, count)
    high = rng.uniform(2.0, 3.0, count)
    values = np.concatenate([low, high])
    labels = np.array([POS_LABEL] * count + [NEG_LABEL] * count)
    flips = rng.choice(2 * count, size=flip, replace=False)
    labels[flips] = -labels[flips]
    return constant_dataset(values, labels, horizon=3)


def _stub_round(tree, alpha):
    """A round of ``tree``, or of a leaf of that label."""
    if isinstance(tree, int):
        tree = Leaf(tree)
    return TreeRound(tree=tree, alpha=alpha, epsilon=0.1, merges=0)


def _stub_model(rounds, m_weight=100.0, pruned=None):
    return BoostedModel(
        rounds=tuple(rounds),
        m_weight=m_weight,
        pruned_index=pruned,
        dimension=1,
        horizon=2,
        config=FAST,
        requested_rounds=len(rounds),
    )


class TestTreeWeight:
    def test_quarter_error(self):
        assert math.isclose(tree_weight(0.25, 100.0), 0.5 * math.log(3.0), abs_tol=1e-12)

    def test_perfect_gets_m(self):
        assert tree_weight(0.0, 100.0) == 100.0


class TestTraining:
    def test_pure_dataset_single_leaf(self):
        ds = constant_dataset([0.0, 1.0, 2.0, 3.0], [POS_LABEL] * 4)
        model = train_boosted(ds, rounds=1, config=FAST, m_weight=100.0, seed=0)
        assert len(model.rounds) == 1
        assert isinstance(model.rounds[0].tree, Leaf)
        assert model.rounds[0].epsilon == 0.0
        assert model.rounds[0].alpha == 100.0
        assert model.pruned_index == 0
        assert predict(model, constant_signal(9.9)) == POS_LABEL

    def test_majority_dataset_single_leaf(self):
        ds = constant_dataset([0.0] * 24 + [5.0], [POS_LABEL] * 24 + [NEG_LABEL])
        model = train_boosted(ds, rounds=1, config=FAST, seed=0)
        assert isinstance(model.rounds[0].tree, Leaf)
        assert model.rounds[0].epsilon < 0.5
        assert predict(model, constant_signal(9.9)) == POS_LABEL

    def test_separable_first_tree_perfect(self):
        ds = constant_dataset(
            [0.0, 0.2, 0.4, 0.6, 2.0, 2.2, 2.4, 2.6],
            [POS_LABEL] * 4 + [NEG_LABEL] * 4,
        )
        model = train_boosted(ds, rounds=3, config=FAST, m_weight=100.0, seed=1)
        assert model.rounds[0].epsilon == 0.0
        assert model.rounds[0].alpha == 100.0
        assert model.pruned_index == 0
        assert ensemble_mcr(model, ds) == 0.0

    def test_weights_frozen_after_perfect_round(self):
        # The replay keeps round 0's weights for round 1, whose epsilon must
        # match.  exp(-1000) underflows: a reweighting after the perfect
        # round would divide 0 by 0 and hand NaN weights to round 1's tree.
        ds = constant_dataset(
            [0.0, 0.2, 2.0, 2.2], [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL]
        )
        model = train_boosted(ds, rounds=2, config=FAST, m_weight=1000.0, seed=2)
        assert len(model.rounds) == 2
        assert model.rounds[0].epsilon == 0.0
        assert check_replay(model, ds) == 0

    def test_weight_update_identity(self):
        # After an imperfect round the reweighted error of that tree is 1/2.
        ds = noisy_dataset(3)
        model = train_boosted(ds, rounds=3, config=FAST, seed=3)
        assert check_replay(model, ds) >= 1

    def test_weights_stay_normalized(self):
        # Each epsilon is its tree's error under replayed weights that sum to
        # 1: weights the library left unnormalized would give another value.
        ds = noisy_dataset(4)
        model = train_boosted(ds, rounds=3, config=FAST, seed=4)
        weights, _ = boosting_weights(model, ds)
        assert all(math.isclose(float(w.sum()), 1.0, abs_tol=1e-9) for w in weights)
        check_replay(model, ds)

    def test_kept_epsilons_below_half(self):
        model = train_boosted(noisy_dataset(5), rounds=4, config=FAST, seed=5)
        assert all(0.0 <= r.epsilon < 0.5 for r in model.rounds)

    def test_invalid_rounds(self):
        ds = noisy_dataset(0)
        with pytest.raises(ValueError):
            train_boosted(ds, rounds=0, config=FAST)
        with pytest.raises(ValueError):
            train_boosted(ds, rounds=1, config=FAST, m_weight=0.0)
        with pytest.raises(ValueError):
            train_boosted(ds, rounds=1, config=FAST, m_weight=math.inf)
        with pytest.raises(ValueError):
            train_boosted(ds, rounds=MAX_ROUNDS + 1, config=FAST)
        with pytest.raises(ValueError):
            train_boosted(ds, rounds=1, config=FAST, max_retries=MAX_RETRIES + 1)
        with pytest.raises(ValueError):
            train_boosted(ds, rounds=1, config=FAST, max_retries=-1)

    @pytest.mark.parametrize("name, value, refused", [
        ("max_depth", 2.5, True),
        ("max_depth", True, True),
        ("max_depth", "2", True),
        ("max_depth", np.int64(2), False),
        ("rounds", 1.5, True),
        ("rounds", True, True),
        ("rounds", np.int32(1), False),
        ("max_retries", 1.5, True),
        ("max_retries", False, True),
        ("max_retries", np.int64(0), False),
        ("swarm_size", np.int64(4), False),
        ("seed", 1.5, True),
        ("seed", True, True),
        ("seed", np.int64(2), False),
    ])
    def test_counts_must_be_integers(self, name, value, refused):
        # A float depth used to train a model that model_from_dict refused,
        # a float round or retry count failed inside range(), and a numpy
        # count made a model that model_from_dict refused.
        def train():
            if name == "max_depth":
                config = TreeConfig(max_depth=value, pso=FAST.pso)
                return train_boosted(noisy_dataset(0), rounds=1, config=config)
            if name == "swarm_size":
                config = replace(FAST, pso=replace(FAST.pso, swarm_size=value))
                return train_boosted(noisy_dataset(0), rounds=1, config=config)
            counts = {"rounds": 1, "max_retries": 0, name: value}
            return train_boosted(noisy_dataset(0), config=FAST, **counts)

        if refused:
            message = f"{name} must be an integer, got {value!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                train()
        else:
            model = train()
            assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model

    @pytest.mark.parametrize("name, value, refused", [
        ("m_weight", True, True),
        ("m_weight", "100", True),
        ("m_weight", np.float32(100.0), False),
        ("purity_stop", True, True),
        ("purity_stop", np.float32(0.95), False),
        ("inertia", "0.5", True),
        ("inertia", np.float32(0.5), False),
        ("cognitive", True, True),
        ("cognitive", np.float32(1.5), False),
        ("social", None, True),
        ("social", np.float16(1.5), False),
    ])
    def test_float_settings_must_be_numbers(self, name, value, refused):
        # A bool setting used to train a model that model_from_dict refused,
        # and a numpy float one a model that json.dumps could not write.
        def train():
            if name == "m_weight":
                return train_boosted(noisy_dataset(0), rounds=1, config=FAST, m_weight=value)
            if name == "purity_stop":
                config = replace(FAST, purity_stop=value)
            else:
                config = replace(FAST, pso=replace(FAST.pso, **{name: value}))
            return train_boosted(noisy_dataset(0), rounds=1, config=config)

        if refused:
            message = f"{name} must be a number, got {value!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                train()
        else:
            model = train()
            assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model

    @pytest.mark.parametrize("name", ["m_weight", "purity_stop", "inertia", "cognitive", "social"])
    @pytest.mark.parametrize("value", [10**400, 10**5000], ids=["401-digits", "5001-digits"])
    def test_float_settings_beyond_the_float_range(self, name, value):
        # An int past the float range used to raise OverflowError from float().
        with pytest.raises(ValueError, match=f"^{name} is beyond the float range$"):
            if name == "m_weight":
                train_boosted(noisy_dataset(0), rounds=1, config=FAST, m_weight=value)
            elif name == "purity_stop":
                TreeConfig(purity_stop=value)
            else:
                PsoConfig(**{name: value})

    def test_negative_seed_is_refused(self):
        # It used to reach numpy's SeedSequence, whose error names no setting.
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            train_boosted(noisy_dataset(0), rounds=1, config=FAST, seed=-1)

    def test_discard_and_retry(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger=boosting.__name__)
        ds = constant_dataset(
            [0.0, 0.2, 2.0, 2.2], [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL]
        )
        calls = {"n": 0}
        real_build = tree_module.build_tree

        def flaky(dataset, weights, config, seed=0):
            calls["n"] += 1
            if calls["n"] == 1:
                return Leaf(NEG_LABEL), 0
            return real_build(dataset, weights, config, seed=seed)

        monkeypatch.setattr(tree_module, "build_tree", flaky)
        model = train_boosted(ds, rounds=1, config=FAST, seed=6)
        assert calls["n"] == 2
        assert "round 0 attempt 0 discarded" in caplog.text
        assert len(model.rounds) == 1
        assert model.rounds[0].epsilon < 0.5

    def test_retry_exhaustion_stops_early(self, monkeypatch):
        ds = constant_dataset(
            [0.0, 0.2, 2.0, 2.2], [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL]
        )

        def hopeless(dataset, weights, config, seed=0):
            return Leaf(NEG_LABEL), 0

        monkeypatch.setattr(tree_module, "build_tree", hopeless)
        model = train_boosted(ds, rounds=2, config=FAST, seed=7, max_retries=2)
        assert len(model.rounds) == 0
        with pytest.raises(ValueError):
            predict(model, constant_signal(0.0))


class TestPredict:
    def test_single_tree(self):
        tree = Split(
            Always(0, 1, pred(1, LE, 1.0)), Leaf(POS_LABEL), Leaf(NEG_LABEL)
        )
        rounds = (TreeRound(tree, 1.5, 0.2, 0),)
        model = _stub_model(rounds)
        assert predict(model, constant_signal(0.0)) == POS_LABEL
        assert predict(model, constant_signal(2.0)) == NEG_LABEL

    def test_weighted_vote(self):
        model = _stub_model(
            [_stub_round(POS_LABEL, 1.0), _stub_round(NEG_LABEL, 2.0)]
        )
        assert predict(model, constant_signal(0.0)) == NEG_LABEL

    def test_zero_vote_goes_positive(self):
        model = _stub_model(
            [_stub_round(POS_LABEL, 1.5), _stub_round(NEG_LABEL, 1.5)]
        )
        assert predict(model, constant_signal(0.0)) == POS_LABEL

    def test_pruned_overrides_vote(self):
        # With pruning the perfect tree alone decides, even though the
        # combined vote of the other trees would outweigh it.
        model = _stub_model(
            [
                _stub_round(POS_LABEL, 2.0),
                _stub_round(NEG_LABEL, 3.0),
                _stub_round(NEG_LABEL, 3.0),
            ],
            m_weight=2.0,
            pruned=0,
        )
        assert predict(model, constant_signal(0.0)) == POS_LABEL
        assert predict(replace(model, pruned_index=None), constant_signal(0.0)) == NEG_LABEL

    def test_unpruned_vote_that_overflows_rejected(self):
        # Three perfect trees of alpha 1e308: pruned, the first votes alone;
        # unpruned, their vote sums past the float range.
        ds = constant_dataset([0.0, 0.2, 2.0, 2.2], [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL])
        model = train_boosted(ds, rounds=3, config=FAST, m_weight=1e308, seed=1)
        assert [r.alpha for r in model.rounds] == [1e308] * 3
        assert np.array_equal(predict_all(model, ds.values), ds.labels)
        with pytest.raises(ValueError, match="alphas sum past the float range"):
            predict_all(replace(model, pruned_index=None), ds.values)

    def test_alpha_rescale_invariance_without_pruning(self):
        rng = random.Random(8)
        signals = [random_signal(rng, 1, 2) for _ in range(20)]
        values = np.stack([s.values for s in signals])
        tree_a = Split(
            Always(0, 1, pred(1, LE, 0.0)), Leaf(POS_LABEL), Leaf(NEG_LABEL)
        )
        tree_b = Split(
            Eventually(0, 2, pred(1, GT, 2.0)), Leaf(NEG_LABEL), Leaf(POS_LABEL)
        )
        rounds = tuple(TreeRound(t, a, 0.3, 0) for t, a in ((tree_a, 0.9), (tree_b, 0.4)))
        base = predict_all(_stub_model(rounds), values)
        scaled_rounds = tuple(replace(r, alpha=7.3 * r.alpha) for r in rounds)
        scaled = predict_all(_stub_model(scaled_rounds), values)
        assert np.array_equal(base, scaled)


class TestPruning:
    def test_no_perfect_tree(self):
        model = _stub_model([_stub_round(POS_LABEL, 2.0), _stub_round(NEG_LABEL, 1.0)])
        assert select_pruned_tree(model) is None

    def test_simplest_perfect_tree_wins(self):
        five_ops = spelled(
            Always(0, 1, pred(1, LE, 1.0)),
            Eventually(0, 1, pred(1, GT, 0.0)),
            Always(0, 1, pred(1, GT, 2.0)),
        )
        three_ops = spelled(Always(0, 1, pred(1, LE, 1.0)), Eventually(0, 1, pred(1, GT, 0.0)))
        assert operator_count(tree_to_formula(five_ops)) == 5
        assert operator_count(tree_to_formula(three_ops)) == 3
        model = _stub_model([_stub_round(five_ops, 100.0), _stub_round(three_ops, 100.0)])
        assert select_pruned_tree(model) == 1

    def test_tie_takes_earliest(self):
        phi = Always(0, 1, pred(1, LE, 1.0))
        model = _stub_model([_stub_round(spelled(phi), 100.0), _stub_round(spelled(phi), 100.0)])
        assert select_pruned_tree(model) == 0


class TestModelFormula:
    def test_single_unpruned_tree_keeps_weight_annotation(self):
        phi = Always(0, 1, pred(1, LE, 1.0))
        model = _stub_model([_stub_round(spelled(phi), 2.5)])
        wstl = model_formula(model)
        assert wstl == And((phi,), (2.5,))
        # Grammar text cannot attach a weight to a single conjunct; the
        # rendering falls back to the bare formula.
        assert format_formula(wstl) == format_formula(phi)

    def test_pruned_model_reports_selected_tree(self):
        phis = [
            Always(0, 1, pred(1, LE, 1.0)),
            Eventually(0, 1, pred(1, GT, 0.0)),
            Always(0, 2, pred(1, GT, -1.0)),
        ]
        model = _stub_model(
            [
                _stub_round(spelled(phis[0]), 100.0),
                _stub_round(spelled(phis[1]), 2.71),
                _stub_round(spelled(phis[2]), 2.88),
            ],
            pruned=0,
        )
        assert model_formula(model) == phis[0]

    def test_three_way_weighted_conjunction(self):
        phis = [
            Always(0, 1, pred(1, LE, 1.0)),
            Eventually(0, 1, pred(1, GT, 0.0)),
            Always(0, 2, pred(1, GT, -1.0)),
        ]
        model = _stub_model(
            [
                _stub_round(spelled(phis[0]), 1.1),
                _stub_round(spelled(phis[1]), 2.2),
                _stub_round(spelled(phis[2]), 3.3),
            ]
        )
        text = format_formula(model_formula(model))
        assert "&^{1.1,2.2,3.3}" in text


class TestSerialization:
    def test_round_trip(self):
        ds = noisy_dataset(9)
        model = train_boosted(ds, rounds=2, config=FAST, seed=9)
        doc = model_to_dict(model)
        again = model_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(predict_all(again, ds.values), predict_all(model, ds.values))
        assert [format_formula(tree_to_formula(r.tree)) for r in again.rounds] == [
            format_formula(tree_to_formula(r.tree)) for r in model.rounds
        ]
        assert again.pruned_index == model.pruned_index
        assert again.m_weight == model.m_weight

    def test_schema_keys(self):
        model = _stub_model([_stub_round(POS_LABEL, 2.0)])
        doc = model_to_dict(model)
        assert set(doc) == {"version", "n", "T", "M", "trees", "prunedIndex", "config"}
        assert set(doc["trees"][0]) >= {"alpha", "epsilon", "formulaText", "treeStructure"}

    def test_swarm_keys_of_format_v1(self):
        # "velocityClamp" and "seed" stay in the file with fixed values; a
        # load type-checks them and no setting reads them.
        model = _stub_model([_stub_round(POS_LABEL, 2.0)])
        doc = model_to_dict(model)
        assert doc["config"]["pso"] == {"swarm": 16, "iters": 20, "omega": 0.72, "c1": 1.49,
                                        "c2": 1.49, "velocityClamp": 0.5, "seed": 0}
        doc["config"]["pso"].update(velocityClamp=0.9, seed=5)
        assert model_to_dict(model_from_dict(doc)) == model_to_dict(model)
        for key, value in (("velocityClamp", "0.5"), ("seed", 1.5)):
            doc["config"]["pso"][key] = value
            with pytest.raises(ValueError, match=key):
                model_from_dict(doc)
            doc["config"]["pso"].pop(key)
            with pytest.raises(ValueError, match=f"missing key '{key}'"):
                model_from_dict(doc)
            doc["config"]["pso"][key] = 0

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["trees"][0].update(formulaText="F[0,1](x1 <= 1.0)"), "formulaText"),
        (lambda doc: doc.update(prunedIndex=7), "prunedIndex"),
        (lambda doc: doc.update(prunedIndex=-1), "prunedIndex"),
        (lambda doc: doc["trees"][0]["treeStructure"].update(primitive="G[0,1](x2 <= 1.0)"),
         "does not fit"),
        (lambda doc: doc["trees"][0]["treeStructure"].update(primitive="G[0,3](x1 <= 1.0)"),
         "does not fit"),
        (lambda doc: doc["trees"][0]["treeStructure"].update(
            primitive="G[0,1](F[1,2](x1 <= 1.0))"), "does not fit"),
        (lambda doc: doc.update(config=5), "config must be an object"),
        (lambda doc: doc.update(trees="abc"), "trees must be an array"),
        (lambda doc: doc["trees"][0].update(treeStructure="x"), "treeStructure must be an object"),
        (lambda doc: doc["trees"][0].update(treeStructure=[1]), "treeStructure must be an object"),
        (lambda doc: doc.update(n=None), "n must be a number"),
        (lambda doc: doc["trees"][0].update(alpha=None), "alpha must be a number"),
        (lambda doc: doc["trees"][0]["treeStructure"].update(primitive=5),
         "primitive must be a string"),
        (lambda doc: doc["config"].update(shapes=5), "shapes must be an array"),
        (lambda doc: doc["trees"][0].update(formulaText=3), "formulaText must be a string"),
        (lambda doc: [1, 2], "model must be an object"),
        (lambda doc: doc.update(trees=[]), "no trees"),
        (lambda doc: doc["trees"][0]["treeStructure"]["left"].update(leaf=5), "leaf label"),
        (lambda doc: doc["trees"][0].update(alpha=-1.0), "alpha must be positive"),
        (lambda doc: doc.update(M=math.nan), "M must be a finite number"),
        (lambda doc: doc.pop("T"), "missing key 'T'"),
        # Files written before the factors were bounded may hold more.
        (lambda doc: doc["config"]["pso"].update(c1=4.5), "cognitive and social factors"),
        (lambda doc: doc["config"]["pso"].update(c2=4.5), "cognitive and social factors"),
        # 1e308 + 1e308 overflows: the vote of these two trees cannot be summed.
        (lambda doc: doc.update(trees=[dict(doc["trees"][0], alpha=1e308)] * 2),
         "alphas sum past the float range"),
    ], ids=["formula-text", "pruned-7", "pruned-negative", "variable", "window", "nested-window",
            "config-5", "trees-string", "structure-string", "structure-list", "n-null",
            "alpha-null", "primitive-number", "shapes-number", "formula-text-number",
            "top-level-list", "no-trees", "leaf-5", "alpha-negative", "m-nan", "missing-T",
            "c1-above-bound", "c2-above-bound", "alpha-sum-overflow"])
    def test_rejects_inconsistent_model(self, edit, match):
        tree = Split(Always(0, 1, pred(1, LE, 1.0)), Leaf(POS_LABEL), Leaf(NEG_LABEL))
        model = _stub_model([TreeRound(tree, 2.0, 0.1, 0)])
        doc = model_to_dict(model)
        assert model_from_dict(json.loads(json.dumps(doc))).rounds[0].tree == tree
        edited = edit(doc)
        if isinstance(edited, list):  # the edit replaced the whole document
            doc = edited
        with pytest.raises(ValueError, match=match):
            model_from_dict(doc)

    def test_deeply_nested_json_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="nests too deeply"):
            load_model(path)

    def test_rejects_unknown_version(self):
        model = _stub_model([_stub_round(POS_LABEL, 2.0)])
        doc = model_to_dict(model)
        doc["version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(doc)


def test_training_mcr_trend_statistics():
    # The voted training error should not increase with more rounds in the
    # vast majority of seeded runs.
    good = 0
    runs = 8
    for seed in range(runs):
        ds = noisy_dataset(seed + 40, count=20, flip=3)
        model = train_boosted(ds, rounds=3, config=FAST, seed=seed)
        errors = []
        for k in range(1, len(model.rounds) + 1):
            prefix = BoostedModel(
                rounds=model.rounds[:k],
                m_weight=model.m_weight,
                pruned_index=None,
                dimension=model.dimension,
                horizon=model.horizon,
                config=model.config,
                requested_rounds=k,
            )
            errors.append(ensemble_mcr(prefix, ds))
        good += all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert good >= runs - 1
