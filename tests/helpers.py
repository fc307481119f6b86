"""Shared generators and construction shorthand for the test suite."""

from __future__ import annotations

import os
import pickle
import random
import re

import numpy as np
import pytest

from stlboost import (
    And,
    Always,
    BoxPredicate,
    Conjunct,
    Eventually,
    FALSE,
    GT,
    LE,
    LabeledDataset,
    Leaf,
    Not,
    Or,
    Predicate,
    Signal,
    Split,
    TRUE,
    Valuation,
)
from stlboost import fanout
from stlboost import tree as tree_module
from stlboost.pso import _project_all, _space
from oracles import boosting_weights

POS = 1
NEG = -1


def pred(var: int, op: str, threshold: float) -> Predicate:
    return Predicate(BoxPredicate((Conjunct(var, op, threshold),)))


def box(*faces) -> Predicate:
    return Predicate(BoxPredicate(tuple(Conjunct(v, op, th) for v, op, th in faces)))


def project(template, position) -> Valuation:
    """One particle's valuation: ``_project_all`` for a swarm of one, in the
    box and face pairs that ``optimize_batch`` builds (``_space``)."""
    position = np.asarray(position, dtype=float)[np.newaxis, np.newaxis]
    t0, t1, thresholds = _project_all(position, *_space((template,)))
    return Valuation(t0[0, 0], t1[0, 0], thresholds[0, 0])


def spelled(*primitives):
    """The tree whose formula (``tree_to_formula``) is ``primitives[0]``
    alone, or the nested ``And`` of them all: each satisfied primitive goes
    on to the next, and the last one to a positive leaf."""
    tree = Leaf(POS)
    for phi in reversed(primitives):
        tree = Split(phi, tree, Leaf(NEG))
    return tree


def constant_signal(value: float, horizon: int = 2, dimension: int = 1) -> Signal:
    return Signal(np.full((dimension, horizon + 1), float(value)))


def constant_dataset(values, labels, horizon: int = 2) -> LabeledDataset:
    arrays = [np.full((1, horizon + 1), float(v)) for v in values]
    return LabeledDataset(np.stack(arrays), np.asarray(labels, dtype=int),
                          tuple(str(i) for i in range(len(values))))


def random_signal(rng: random.Random, dimension: int, horizon: int) -> Signal:
    values = [
        [rng.uniform(-8.0, 8.0) for _ in range(horizon + 1)] for _ in range(dimension)
    ]
    return Signal(np.array(values))


def _random_box(
    rng: random.Random, dimension: int, grid: tuple[float, ...] | None = None
) -> BoxPredicate:
    var_count = rng.randint(1, min(dimension, 2))
    variables = rng.sample(range(1, dimension + 1), var_count)
    faces = []
    for var in variables:
        style = rng.choice((GT, LE, "both"))
        if style == "both" and grid:
            lo = rng.choice(grid[:-1])
            faces.append(Conjunct(var, GT, lo))
            faces.append(Conjunct(var, LE, rng.choice([v for v in grid if v > lo])))
        elif style == "both":
            lo = rng.uniform(-6, 5)
            faces.append(Conjunct(var, GT, lo))
            faces.append(Conjunct(var, LE, lo + rng.uniform(0.5, 6)))
        else:
            faces.append(Conjunct(var, style, rng.choice(grid) if grid else rng.uniform(-6, 6)))
    return BoxPredicate(tuple(faces))


def random_formula(
    rng: random.Random,
    max_depth: int,
    dimension: int,
    horizon: int,
    allow_weights: bool = True,
    allow_const: bool = True,
    grid: tuple[float, ...] | None = None,
):
    """Random canonical formula whose temporal windows fit from time 0.

    Canonical means what the parser produces: unweighted conjunctions of
    bare predicates appear as merged box predicates, and n-ary connectives
    have at least two children.  Thresholds are drawn from ``grid``, an
    ascending tuple, when it is given.
    """

    def build(depth_left: int, budget: int):
        choices = ["pred"]
        if allow_const:
            choices.append("const")
        if depth_left > 0:
            choices += ["not", "and", "or"]
            if budget > 0:
                choices += ["always", "eventually"] * 2
        kind = rng.choice(choices)
        if kind == "pred":
            return Predicate(_random_box(rng, dimension, grid))
        if kind == "const":
            return TRUE if rng.random() < 0.5 else FALSE
        if kind == "not":
            return Not(build(depth_left - 1, budget))
        if kind in ("and", "or"):
            children = tuple(
                build(depth_left - 1, budget) for _ in range(rng.randint(2, 3))
            )
            if kind == "or":
                return Or(children)
            if allow_weights and rng.random() < 0.3:
                weights = tuple(rng.uniform(0.1, 5.0) for _ in children)
                return And(children, weights)
            merged = _try_merge(children)
            return merged if merged is not None else And(children)
        start = rng.randint(0, budget)
        end = rng.randint(start, budget)
        child = build(depth_left - 1, budget - end)
        return Always(start, end, child) if kind == "always" else Eventually(start, end, child)

    return build(max_depth, horizon)


def _try_merge(children):
    if not all(isinstance(c, Predicate) for c in children):
        return None
    faces = []
    for child in children:
        faces.extend(child.box.conjuncts)
    try:
        return Predicate(BoxPredicate(tuple(faces)))
    except ValueError:
        return None


def check_replay(model, dataset) -> int:
    """Assert that ``model`` replays its training (``boosting_weights``):
    each round's ``epsilon`` is, bit for bit, its tree's error under the
    replayed weights, which pins the library's update of the round before;
    and each imperfect tree's error under the next round's weights is 1/2.
    Returns the count of imperfect rounds."""
    weights, wrong = boosting_weights(model, dataset)
    imperfect = 0
    for k, round_ in enumerate(model.rounds):
        assert round_.epsilon == float(weights[k][wrong[k]].sum())
        if round_.epsilon > 0.0:
            assert abs(float(weights[k + 1][wrong[k]].sum()) - 0.5) <= 1e-9
            imperfect += 1
    return imperfect


def grow_recording_merges(dataset, weights, config, seed=0):
    """``build_tree`` with every search it makes recorded; returns the root,
    the merge count, each accepted merge as ``(merged primitive,
    gain_before, gain_after)`` and the number of merges tried.

    A node's first search is the first search on its signals, and a later
    search on the same signals is one of its merge searches.  That merge is
    accepted when its gain is strictly larger than the node's incumbent gain,
    and its gain becomes the incumbent.
    """
    incumbents = []  # [the node's signals, its incumbent gain] per node
    merges = []
    tried = 0
    real_search = tree_module.optimize_primitive

    def recording(node, *args):
        nonlocal tried
        primitive, gain = found = real_search(node, *args)
        entry = next((entry for entry in incumbents if entry[0] is node.values), None)
        if entry is None:
            incumbents.append([node.values, gain])
            return found
        tried += 1
        if gain > entry[1]:
            merges.append((primitive, entry[1], gain))
            entry[1] = gain
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "optimize_primitive", recording)
        root, count = tree_module.build_tree(dataset, weights, config, seed)
    return root, count, merges, tried


def accepted_merge_gains(caplog) -> list[tuple[float, float]]:
    """``(gain_before, gain_after)`` of each ``merge accepted`` DEBUG line."""
    return [(float(before), float(after))
            for before, after in re.findall(r"merge accepted: gain (\S+) -> (\S+)", caplog.text)]


def signal_rows(signal: Signal) -> list[list[float]]:
    """Copy a signal into plain lists for the naive oracle."""
    return [[float(v) for v in row] for row in signal.values]


def two_band_dataset(count: int = 10, horizon: int = 20, seed: int = 3) -> LabeledDataset:
    """Positive signals stay inside a y band; negatives leave it on one side.

    Half the negatives spike above the band, half dip below, so a one-face
    always-split at the root pairs with an opposite-face child candidate and
    a band merge strictly improves the gain.
    """
    rng = np.random.default_rng(seed)
    signals = []
    labels = []
    for _ in range(2 * count):
        base = 28.0 + rng.uniform(-1.0, 1.0)
        wobble = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0, 2 * np.pi)
        y = base + wobble * np.sin(np.linspace(0, 2 * np.pi, horizon + 1) + phase)
        noise = rng.uniform(0.0, 1.0, horizon + 1)
        signals.append(np.stack([noise, y]))
        labels.append(POS)
    for i in range(2 * count):
        base = 28.0 + rng.uniform(-1.0, 1.0)
        y = base + rng.uniform(-1.0, 1.0) * np.sin(np.linspace(0, 2 * np.pi, horizon + 1))
        start = rng.integers(2, horizon - 3)
        if i % 2 == 0:
            y[start : start + 3] = 36.0 + rng.uniform(0.0, 2.0)
        else:
            y[start : start + 3] = 20.0 - rng.uniform(0.0, 2.0)
        noise = rng.uniform(0.0, 1.0, horizon + 1)
        signals.append(np.stack([noise, y]))
        labels.append(NEG)
    values = np.stack(signals)
    ids = tuple(str(i) for i in range(len(labels)))
    return LabeledDataset(values, np.asarray(labels), ids)


def count_forks(patch, marks=None) -> list:
    """Set ``fanout._fork``, through ``patch``, to one that forks as before
    and appends each child's ``send`` to the list returned.  A child's
    appends stay in the child; with ``marks``, a fork made in a child also
    writes that child's pid as a line of the file ``marks``."""
    forks, fork, top = [], fanout._fork, os.getpid()

    def counted(send):
        if marks is not None and os.getpid() != top:
            with open(marks, "a") as handle:
                handle.write(f"{os.getpid()}\n")
        forks.append(send)
        return fork(send)

    patch.setattr(fanout, "_fork", counted)
    return forks


def _forbidden():
    raise AssertionError("forked")


def forbid_forks(patch) -> None:
    """Set ``os.fork``, through ``patch``, to raise AssertionError("forked")."""
    patch.setattr(os, "fork", _forbidden)


def cut_dump(k):
    """A ``pickle.dump`` that, in a forked child, writes half of its k-th
    pickle (counting from 0) and exits."""
    parent, dump, dumps = os.getpid(), pickle.dump, []

    def stand_in(obj, file, *args):
        if os.getpid() != parent:
            dumps.append(None)
            if len(dumps) > k:
                blob = pickle.dumps(obj, *args)
                file.write(blob[:len(blob) // 2])
                file.flush()
                os._exit(0)
        dump(obj, file, *args)

    return stand_in
