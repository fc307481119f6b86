"""Adaptive boosting of temporal decision trees with an interpretability
pruning rule.

Rounds reweight samples toward the previous tree's mistakes.  A tree with
zero weighted error receives the fixed large weight ``m_weight``; if any
such tree exists, prediction uses only the one with the fewest formula
operators, otherwise the weighted majority vote over all trees decides.
Trees no better than chance are discarded and retrained with a fresh
optimizer seed.

A round's formula is ``tree_to_formula`` of its tree.  A model file writes
it as ``formulaText``, which loading checks against the tree and drops.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledDataset, NEG_LABEL, POS_LABEL, uniform_weights, whole_file
from .formula import And, Formula, Signal, checked, extent, operator_count
from .grammar import format_formula, parse_formula
from .pso import VELOCITY_CLAMP, PsoConfig
from . import tree
from .tree import (
    MAX_DEPTH,
    Leaf,
    Split,
    TreeConfig,
    TreeNode,
    classify_all,
    mix_seed,
    tree_to_formula,
)

# Unused here but bound: bench/tracer.py wraps it where this module binds it,
# with a wrapper that no longer fits its return value, so training grows
# trees through ``tree.build_tree`` instead.
from .tree import build_tree  # noqa: F401

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

# Each round grows a tree and adds a conjunct to the model's formula, and
# each retry grows a tree again.  These bounds cap the work and the model
# size one run can ask for, far above the few trees that stay readable.
MAX_ROUNDS = 1000
MAX_RETRIES = 100

# Training defaults: the vote weight of a tree with zero training error, and
# the retrain attempts a round may make for a tree that beats random guessing.
M_WEIGHT = 100.0
RETRIES = 5

# The kind and bounds of each of train_boosted's own settings.
_TRAINING_SETTINGS = {
    "rounds": (int, {"ge": 1, "le": MAX_ROUNDS}),
    "m_weight": (float, {"gt": 0}),
    "max_retries": (int, {"ge": 0, "le": MAX_RETRIES}),
    "seed": (int, {"ge": 0}),
}


def training_setting(name: str, value, label: str | None = None):
    """``value`` checked as :func:`train_boosted`'s setting ``name`` by
    :func:`~stlboost.formula.checked`, whose ValueError names ``label``, or
    ``name`` without one."""
    kind, bounds = _TRAINING_SETTINGS[name]
    return checked(label or name, value, kind, **bounds)


@dataclass(frozen=True)
class TreeRound:
    """One kept boosting round: the tree, its vote weight and error, and its merge count."""

    tree: TreeNode
    alpha: float
    epsilon: float
    merges: int


@dataclass(frozen=True)
class BoostedModel:
    rounds: tuple[TreeRound, ...]
    m_weight: float
    pruned_index: int | None
    dimension: int
    horizon: int
    config: TreeConfig
    requested_rounds: int


def tree_weight(epsilon: float, m_weight: float) -> float:
    """Vote weight for a tree with weighted error ``epsilon``."""
    if epsilon == 0.0:
        return m_weight
    return 0.5 * math.log(1.0 / epsilon - 1.0)


def train_boosted(
    dataset: LabeledDataset,
    rounds: int,
    config: TreeConfig | None = None,
    m_weight: float = M_WEIGHT,
    max_retries: int = RETRIES,
    seed: int = 0,
) -> BoostedModel:
    """Train a boosted ensemble of ``rounds`` trees.

    A round whose tree has weighted error >= 0.5 is discarded, logged at
    DEBUG as ``round k attempt a discarded``, and retried with a different
    optimizer seed up to ``max_retries`` times; when the retries run out
    training stops early with the trees kept so far.  After a perfect round
    the sample weights stay unchanged (the exponential update is a no-op
    modulo normalization there).  ``rounds`` is an integer in [1,
    MAX_ROUNDS], ``max_retries`` one in [0, MAX_RETRIES], ``m_weight`` a
    positive finite number and ``seed`` a non-negative integer
    (:func:`training_setting`).
    """
    rounds = training_setting("rounds", rounds)
    m_weight = training_setting("m_weight", m_weight)
    max_retries = training_setting("max_retries", max_retries)
    seed = training_setting("seed", seed)
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    config = config or TreeConfig()

    weights = uniform_weights(len(dataset))
    kept: list[TreeRound] = []
    for k in range(rounds):
        kept_tree = None
        for attempt in range(max_retries + 1):
            grown, merges = tree.build_tree(
                dataset, weights, config, seed=mix_seed(seed, k, attempt)
            )
            predictions = classify_all(grown, dataset.values)
            epsilon = float(weights[predictions != dataset.labels].sum())
            if epsilon < 0.5:
                kept_tree = grown
                break
            logger.debug("round %d attempt %d discarded (error %.3f)", k, attempt, epsilon)
        if kept_tree is None:
            if kept:  # with no tree at all the caller gets an empty model to report
                logger.warning(
                    "round %d: no tree beat random guessing after %d retries; "
                    "stopping early with %d trees",
                    k,
                    max_retries,
                    len(kept),
                )
            break
        alpha = tree_weight(epsilon, m_weight)
        kept.append(TreeRound(kept_tree, alpha, epsilon, merges))
        if epsilon > 0.0:
            weights = weights * np.exp(-alpha * dataset.labels * predictions)
            weights = weights / weights.sum()

    model = BoostedModel(
        rounds=tuple(kept),
        m_weight=m_weight,
        pruned_index=None,
        dimension=dataset.dimension,
        horizon=dataset.horizon,
        config=config,
        requested_rounds=rounds,
    )
    return replace(model, pruned_index=select_pruned_tree(model))


def select_pruned_tree(model: BoostedModel) -> int | None:
    """Index of the perfect tree with the simplest formula, if any.

    Among trees whose weight equals ``m_weight`` the one with the fewest
    Boolean and temporal operators wins; ties go to the earliest round.
    """
    best: int | None = None
    best_ops = None
    for k, round_ in enumerate(model.rounds):
        if round_.alpha != model.m_weight:
            continue
        ops = operator_count(tree_to_formula(round_.tree))
        if best is None or ops < best_ops:
            best, best_ops = k, ops
    return best


def _check_finite_vote(rounds: Iterable[TreeRound]) -> None:
    """Raise ValueError unless the positive alphas of ``rounds``, summed in
    round order, are finite.  Rounding is monotone, so that sum bounds every
    partial sum of the vote :func:`predict_all` takes unpruned."""
    vote = 0.0
    for round_ in rounds:
        vote += round_.alpha
    if not math.isfinite(vote):
        raise ValueError("the trees' alphas sum past the float range, so their vote overflows")


def predict_all(model: BoostedModel, values: np.ndarray) -> np.ndarray:
    """Predict labels for a batch of signals.

    A pruned model's selected tree alone votes; otherwise the alpha-weighted
    majority decides, with an exact zero vote resolving to the positive
    class.  ``replace(model, pruned_index=None)`` is the unpruned model; its
    vote raises ValueError when the alphas overflow (:func:`_check_finite_vote`).
    """
    if not model.rounds:
        raise ValueError("model holds no trees")
    values = np.asarray(values, dtype=float)
    if model.pruned_index is not None:
        return classify_all(model.rounds[model.pruned_index].tree, values)
    _check_finite_vote(model.rounds)
    vote = np.zeros(values.shape[0])
    for round_ in model.rounds:
        vote = vote + round_.alpha * classify_all(round_.tree, values)
    return np.where(vote >= 0, POS_LABEL, NEG_LABEL)


def predict(model: BoostedModel, signal: Signal) -> int:
    return int(predict_all(model, signal.values[np.newaxis])[0])


def ensemble_mcr(model: BoostedModel, dataset: LabeledDataset) -> float:
    predictions = predict_all(model, dataset.values)
    return float(np.mean(predictions != dataset.labels))


def model_formula(model: BoostedModel) -> Formula:
    """The model rendered as a formula.

    A pruned model reports the selected tree's plain formula; otherwise the
    trees form a conjunction weighted by their vote weights.
    """
    if not model.rounds:
        raise ValueError("model holds no trees")
    if model.pruned_index is not None:
        return tree_to_formula(model.rounds[model.pruned_index].tree)
    return And(
        tuple(tree_to_formula(r.tree) for r in model.rounds),
        tuple(r.alpha for r in model.rounds),
    )


def _tree_to_doc(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": node.label}
    return {
        "primitive": format_formula(node.primitive),
        "left": _tree_to_doc(node.left),
        "right": _tree_to_doc(node.right),
    }


def _tree_from_doc(doc: dict, depth: int = 0) -> TreeNode:
    if "leaf" in doc:
        label = _field(doc, "leaf", int)
        if label not in (POS_LABEL, NEG_LABEL):
            raise ValueError(f"leaf label must be {POS_LABEL} or {NEG_LABEL}, got {label}")
        return Leaf(label)
    if depth == MAX_DEPTH:
        raise ValueError(f"treeStructure is deeper than {MAX_DEPTH}")
    return Split(
        parse_formula(_field(doc, "primitive", str)),
        _tree_from_doc(_field(doc, "left", dict), depth + 1),
        _tree_from_doc(_field(doc, "right", dict), depth + 1),
    )


# The model file's key, the PsoConfig field and its type, per swarm setting;
# the CLI's setting is "pso_" + the model file's key.
# Format v1 also holds "velocityClamp" (always VELOCITY_CLAMP) and "seed"
# (always 0): each search takes its own seed.
PSO_KEYS = (("swarm", "swarm_size", int), ("iters", "iterations", int),
            ("omega", "inertia", float), ("c1", "cognitive", float), ("c2", "social", float))


def model_to_dict(model: BoostedModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "n": model.dimension,
        "T": model.horizon,
        "M": model.m_weight,
        "trees": [
            {
                "alpha": r.alpha,
                "epsilon": r.epsilon,
                "formulaText": format_formula(tree_to_formula(r.tree)),
                "treeStructure": _tree_to_doc(r.tree),
                "merges": r.merges,
            }
            for r in model.rounds
        ],
        "prunedIndex": model.pruned_index,
        "config": {
            "maxDepth": model.config.max_depth,
            "lambda": model.config.purity_stop,
            "shapes": list(model.config.shapes),
            "requestedRounds": model.requested_rounds,
            "pso": {
                **{key: getattr(model.config.pso, name) for key, name, _ in PSO_KEYS},
                "velocityClamp": VELOCITY_CLAMP,
                "seed": 0,
            },
        },
    }


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}
_REQUIRED = object()


def _typed(name: str, value, kind: type, **bounds):
    """``value``, as JSON decodes it, checked to be a ``kind`` and returned
    as one: ``dict``, ``list`` and ``str`` take only their own type, and
    ``int`` and ``float`` go to :func:`~stlboost.formula.checked` with
    ``bounds``, so ``100`` read as a float is ``100.0`` and ``3.0`` is not
    an int.  Raises ValueError naming ``name``.
    """
    if kind not in _JSON_TYPES:
        return checked(name, value, kind, **bounds)
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _field(doc: dict, key: str, kind: type, default=_REQUIRED, **bounds):
    """``doc[key]`` checked by :func:`_typed`, or ``default`` when absent."""
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"missing key {key!r}")
        return default
    return _typed(key, doc[key], kind, **bounds)


def _check_fits(node: TreeNode, dimension: int, horizon: int) -> None:
    if isinstance(node, Leaf):
        return
    var, end = extent(node.primitive)
    if var > dimension or end > horizon:
        raise ValueError(
            f"primitive {format_formula(node.primitive)} does not fit signals "
            f"with n={dimension}, T={horizon}"
        )
    _check_fits(node.left, dimension, horizon)
    _check_fits(node.right, dimension, horizon)


def model_from_dict(doc) -> BoostedModel:
    """Rebuild a model from :func:`model_to_dict` output.

    Raises ValueError, naming the key, for a field that is missing, of the
    wrong JSON type or out of its bounds, and when the document is
    inconsistent: no trees, a ``formulaText`` that is not its tree's
    formula, a primitive that reads past the model's ``n`` variables or
    ``T`` horizon, or, without ``prunedIndex``, vote weights whose sum in
    round order is not finite (:func:`_check_finite_vote`); a pruned
    model's selected tree votes alone.  The bounds: ``M`` and
    ``requestedRounds`` are :func:`training_setting`'s, and
    ``requestedRounds`` is at least the tree count; a tree's ``alpha`` is
    positive, its ``epsilon`` in [0, 0.5), as training keeps only such
    trees, and its ``merges`` non-negative; ``prunedIndex`` names a tree.
    """
    doc = _typed("model", doc, dict)
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    cfg = _field(doc, "config", dict)
    pso = _field(cfg, "pso", dict)
    swarm = {name: _field(pso, key, kind) for key, name, kind in PSO_KEYS}
    _field(pso, "velocityClamp", float)  # format v1 keys that no setting reads
    _field(pso, "seed", int)
    config = TreeConfig(
        max_depth=_field(cfg, "maxDepth", int),
        purity_stop=_field(cfg, "lambda", float),
        shapes=tuple(_field(cfg, "shapes", list)),
        pso=PsoConfig(**swarm),
    )
    dimension, horizon = _field(doc, "n", int), _field(doc, "T", int)
    m_weight = training_setting("m_weight", _field(doc, "M", float), "M")
    rounds = []
    for k, t in enumerate(_field(doc, "trees", list)):
        t = _typed(f"tree {k}", t, dict)
        root = _tree_from_doc(_field(t, "treeStructure", dict))
        _check_fits(root, dimension, horizon)
        if parse_formula(_field(t, "formulaText", str)) != tree_to_formula(root):
            raise ValueError(f"tree {k}: formulaText does not match treeStructure")
        rounds.append(TreeRound(root, _field(t, "alpha", float, gt=0),
                                _field(t, "epsilon", float, ge=0, lt=0.5),
                                _field(t, "merges", int, 0, ge=0)))
    if not rounds:
        raise ValueError("model holds no trees")
    pruned = None if doc.get("prunedIndex") is None else _field(
        doc, "prunedIndex", int, ge=0, lt=len(rounds))
    if pruned is None:
        _check_finite_vote(rounds)
    requested = _field(cfg, "requestedRounds", int, len(rounds), ge=len(rounds))
    return BoostedModel(
        rounds=tuple(rounds),
        m_weight=m_weight,
        pruned_index=pruned,
        dimension=dimension,
        horizon=horizon,
        config=config,
        requested_rounds=training_setting("rounds", requested, "requestedRounds"),
    )


def save_model(model: BoostedModel, path) -> None:
    """Write the model's JSON document to ``path``, whole or not at all."""
    with whole_file(path, encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path):
    """The JSON document in a UTF-8 file.

    Raises OSError for IO failures and ValueError for text that is not JSON,
    including JSON nested too deeply to decode.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("JSON nests too deeply") from None


def load_model(path) -> BoostedModel:
    return model_from_dict(read_json(path))
