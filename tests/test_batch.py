"""The swarm scores a whole iteration at once; every batched result must be
bit-identical to scoring each particle alone.  All comparisons here use
``==``: a last-bit difference changes which split wins a tie and so the
learned formulas.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stlboost.templates as templates_module
import stlboost.tree as tree_module
from stlboost import fanout
from stlboost import (
    GT,
    LE,
    LabeledDataset,
    NEG_LABEL,
    POS_LABEL,
    NavalConfig,
    PsoConfig,
    PstlTemplate,
    TreeConfig,
    Valuation,
    build_tree,
    first_order_templates,
    gain_from_robustness,
    gains_from_robustness,
    generate_naval,
    optimize_batch,
    optimize_primitive,
    robustness_all,
    uniform_weights,
)
from stlboost.cli import run_cross_validation
from stlboost.impurity import _masses, _side_sums, robustness_margin
from stlboost.pso import _project_all
from stlboost.templates import batch_robustness
from helpers import count_forks, project
from oracles import naive_side_sums

SEEDS = st.integers(0, 2**32 - 1)


def _reference_project(template: PstlTemplate, position) -> Valuation:
    """The per-particle projection, one scalar at a time."""
    horizon = template.horizon
    t0 = min(max(round(float(position[0])), 0), horizon)
    t1 = min(max(round(float(position[1])), 0), horizon)
    if t0 > t1:
        t0, t1 = t1, t0
    bounds = template.threshold_bounds
    thresholds = [min(max(float(x), lo), hi) for x, (lo, hi) in zip(position[2:], bounds)]
    for gi, (var, op) in enumerate(template.slots):
        if op != GT or (var, LE) not in template.slots:
            continue
        li = template.slots.index((var, LE))
        if thresholds[gi] >= thresholds[li]:
            thresholds[gi], thresholds[li] = thresholds[li], thresholds[gi]
        if thresholds[gi] >= thresholds[li]:
            eps = max(1e-9, 1e-12 * max(abs(thresholds[gi]), 1.0))
            if thresholds[li] + eps <= bounds[li][1]:
                thresholds[li] += eps
            else:
                thresholds[gi] -= eps
    return Valuation(t0, t1, tuple(thresholds))


def _reference_scores(rho, labels, weights):
    """The per-candidate gain and margin, one 1-D row at a time."""
    raw = weights * np.abs(rho)
    degenerate = not np.all(np.isfinite(raw)) or float(raw.sum()) == 0.0
    mags = weights.copy() if degenerate else raw
    total = float(mags.sum())
    sat = rho >= 0
    pos = labels == POS_LABEL

    def minority(member):
        part = float(mags[member].sum())
        if part == 0.0:
            return 0.0
        share = float(mags[member & pos].sum()) / part
        return min(share, 1.0 - share)

    p_top = float(mags[sat].sum()) / total
    p_bot = float(mags[~sat].sum()) / total
    p_pos = float(mags[pos].sum()) / total
    p_neg = 1.0 - p_pos
    gain = 0.0
    if not degenerate:
        gain = min(p_pos, p_neg) - p_top * minority(sat) - p_bot * minority(~sat)
    return (gain, total)


def _random_template(rng, dimension: int, horizon: int, count: int | None = None,
                     shape: str | None = None) -> PstlTemplate:
    """G or F over ``count`` faces (1-3 when not given); paired faces on one
    variable are likely."""
    faces = [(var, op) for var in range(1, dimension + 1) for op in (GT, LE)]
    if count is None:
        count = int(rng.integers(1, min(3, len(faces)) + 1))
    slots = [faces[i] for i in rng.choice(len(faces), size=count, replace=False)]
    bounds = []
    for _ in slots:
        lo = float(rng.integers(-4, 3))
        bounds.append((lo, lo + float(rng.integers(0, 4))))
    shape = str(rng.choice(["G", "F"])) if shape is None else shape
    return PstlTemplate(shape, tuple(slots), tuple(bounds), horizon)


def _random_batch(rng, dimension: int, horizon: int) -> tuple[PstlTemplate, ...]:
    """1-4 templates with one face count, as a lockstep batch may hold: an F
    over several faces is searched alone, so a batch of several templates
    with several faces is all G."""
    size = int(rng.integers(1, 5))
    count = int(rng.integers(1, min(3, 2 * dimension) + 1))
    shape = "G" if size > 1 and count > 1 else None
    return tuple(_random_template(rng, dimension, horizon, count, shape) for _ in range(size))


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_project_all_matches_project(seed):
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(0, 12))
    templates = _random_batch(rng, int(rng.integers(1, 3)), horizon)
    swarm = int(rng.integers(1, 9))
    # Half-integer times exercise half-to-even rounding; integer thresholds
    # on narrow bounds make faces collide and clamp at the upper bound.
    times = rng.integers(-4, 2 * horizon + 6, size=(len(templates), swarm, 2)) / 2
    thresholds = rng.integers(-6, 6, size=(len(templates), swarm, len(templates[0].slots)))
    positions = np.concatenate([times, thresholds.astype(float)], axis=2)
    t0, t1, projected = _project_all(templates, positions)
    for m, template in enumerate(templates):
        for p, position in enumerate(positions[m]):
            single = project(template, position)
            assert single == Valuation(t0[m, p], t1[m, p], projected[m, p])
            assert single == _reference_project(template, position)
            assert all(a == b for a, b in zip(single.thresholds, projected[m, p]))


@pytest.mark.parametrize("shape", ["G", "F"])
@pytest.mark.parametrize("op", [GT, LE])
@pytest.mark.parametrize("cut", [0.0, -0.0])
def test_batch_robustness_signed_zero_margin(shape, op, cut):
    # Both zeros in one window: the range table and the sliding window meet
    # them in different orders, and a zero margin must still read +0.0.
    values = np.array([[[1.0, -0.0, 0.0, 2.0]], [[-1.0, 0.0, -0.0, -2.0]]])
    template = PstlTemplate(shape, ((1, op),), ((-3.0, 3.0),), 3)
    rho = batch_robustness((template,), values)
    for t0, t1 in [(1, 2), (0, 2), (1, 3), (0, 3)]:
        row = rho(np.array([[t0]]), np.array([[t1]]), np.array([[[cut]]]))[0, 0]
        phi = template.instantiate(Valuation(t0, t1, (cut,)))
        assert row.tobytes() == robustness_all(phi, values).tobytes()
        if (t0, t1) == (1, 2):  # only zeros in the window
            assert row.tobytes() == np.zeros(2).tobytes()


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_batch_robustness_matches_robustness_all(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 12))
    dimension = int(rng.integers(1, 3))
    horizon = int(rng.integers(0, 40))
    values = np.round(rng.normal(size=(count, dimension, horizon + 1)) * 3, 1)
    templates = _random_batch(rng, dimension, horizon)
    swarm = 6
    times = rng.integers(0, horizon + 1, size=(len(templates), swarm, 2)).astype(float)
    times[:, 0] = (horizon, horizon)  # a window of length one
    times[:, 1] = (0, horizon)  # the full horizon
    thresholds = rng.integers(-5, 5, size=(len(templates), swarm, len(templates[0].slots))) / 2
    t0, t1, projected = _project_all(templates, np.concatenate([times, thresholds], axis=2))
    rho = batch_robustness(templates, values)(t0, t1, projected)
    assert rho.shape == (len(templates), swarm, count)
    for m, template in enumerate(templates):
        for p in range(swarm):
            phi = template.instantiate(Valuation(t0[m, p], t1[m, p], projected[m, p]))
            assert rho[m, p].tobytes() == robustness_all(phi, values).tobytes()
    if any(t.shape == "F" and len(t.slots) > 1 for t in templates):
        return  # read by window slices, never from stacked nodes
    # Each template reads its own run of the signals, as a node in a stack.
    run = int(rng.integers(1, count + 1))
    starts = rng.integers(0, count - run + 1, size=len(templates))
    runs = batch_robustness(templates, values, starts, run)(t0, t1, projected)
    assert runs.shape == (len(templates), swarm, run)
    for m, start in enumerate(starts.tolist()):
        assert runs[m].tobytes() == rho[m, :, start : start + run].tobytes()


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_batch_gains_match_single_rows(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 40))  # one-sample nodes included
    swarm = int(rng.integers(1, 8))
    rho = rng.normal(size=(swarm, count)) * 10.0 ** rng.integers(-3, 4)
    rho[rng.random(size=rho.shape) < 0.2] = 0.0
    rho[0] = 0.0  # all-zero robustness
    if swarm > 1:
        rho[1] = math.inf  # path TRUE
    if rng.random() < 0.3:
        labels = np.full(count, POS_LABEL)  # one-class node
    else:
        labels = rng.choice([POS_LABEL, NEG_LABEL], size=count)
    weights = rng.random(count)
    weights /= weights.sum()
    scores = gains_from_robustness(rho, labels, weights)
    for p in range(swarm):
        batched = tuple(float(field[p]) for field in scores)
        single = gain_from_robustness(rho[p], labels, weights)
        assert batched[0] == single.gain
        assert batched[1] == robustness_margin(rho[p], weights)
        assert batched == _reference_scores(rho[p], labels, weights)


# Ties, signed zeros, the smallest subnormal and huge magnitudes.
SUM_GRID = (-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, -0.1, 1 / 3, 1.0, -2.5)


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_side_sums_match_naive_side_sums(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 12))
    # Past 128 samples numpy's pairwise summation splits the row in blocks.
    count = int(rng.choice([1, 2, 7, 8, 9, 17, 127, 128, 129, 256, 300, 400]))
    rho = rng.choice(SUM_GRID, size=(rows, count))
    noisy = rng.random(size=rho.shape) < rng.random()
    rho[noisy] = (rng.normal(size=rho.shape) * 10.0 ** rng.integers(-3, 4))[noisy]
    rho[0] = 1.0  # every sample on the satisfied side
    rho[-1] = -1.0 if rows > 1 else rho[-1]  # every sample on the violated side
    weights = rng.choice([0.0, 0.25, 1.0, 1e-3], size=count)
    weights[0] = 1.0  # not all zero
    labels = rng.choice([POS_LABEL, NEG_LABEL], size=count)
    mags, _ = _masses(rho, weights)
    sat = rho >= 0
    pos = labels == POS_LABEL
    masks = np.concatenate([sat, ~sat, sat & pos, ~sat & pos])
    want = naive_side_sums(np.tile(mags, (4, 1)), masks)
    assert _side_sums(mags, masks).tobytes() == want.tobytes()
    # The gain weighs each side by its mass share, so it pins those sums too.
    scores = gains_from_robustness(rho, labels, weights)
    single = np.array([_reference_scores(row, labels, weights) for row in rho])
    assert np.stack(scores, axis=1).tobytes() == single.tobytes()


def _gain_objective(templates, values, labels, weights, path_rho):
    """The node search's objective: the gain of path ∧ candidate, with the
    margin as the tie value."""
    template_rho = batch_robustness(templates, values)

    def objective(t0, t1, thresholds):
        rho = np.minimum(path_rho, template_rho(t0, t1, thresholds))
        scores = gains_from_robustness(rho.reshape(-1, len(labels)), labels, weights)
        return scores.gain.reshape(t0.shape), scores.margin.reshape(t0.shape)

    return objective


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_lockstep_search_matches_each_template_alone(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 20))
    dimension = int(rng.integers(1, 3))
    horizon = int(rng.integers(0, 15))
    values = np.round(rng.normal(size=(count, dimension, horizon + 1)) * 3, 1)
    labels = rng.choice([POS_LABEL, NEG_LABEL], size=count)
    dataset = LabeledDataset(values, labels, tuple(str(i) for i in range(count)))
    weights = rng.random(count) + 0.01
    weights /= weights.sum()
    path_rho = np.where(rng.random(count) < 0.5, np.inf, rng.normal(size=count))
    templates = tuple(
        PstlTemplate(t.shape, t.slots).bound_to(dataset)
        for t in _random_batch(rng, dimension, horizon)
    )
    config = PsoConfig(swarm_size=int(rng.integers(2, 12)), iterations=int(rng.integers(1, 8)))
    seeds = rng.integers(0, 2**32, len(templates)).tolist()
    together = optimize_batch(
        templates, _gain_objective(templates, values, labels, weights, path_rho), config, seeds
    )
    assert len(together) == len(templates)
    for template, seed, found in zip(templates, seeds, together):
        objective = _gain_objective((template,), values, labels, weights, path_rho)
        assert [found] == optimize_batch((template,), objective, config, (seed,))


def test_node_search_runs_one_lockstep_batch(monkeypatch):
    # A naval-sized node: 8 first-order templates over 2 variables, whose
    # 4 range tables fit the default budget together.
    dataset = generate_naval(NavalConfig(count_per_class=50, seed=1))
    calls = {"batches": 0, "objective": 0, "range_table": 0}
    real_optimize = tree_module.optimize_batch
    real_table = templates_module.range_table

    def counting_optimize(templates, objective, config, seeds):
        calls["batches"] += 1

        def counted(*args):
            calls["objective"] += 1
            return objective(*args)

        return real_optimize(templates, counted, config, seeds)

    def counting_table(*args, **kwargs):
        calls["range_table"] += 1
        return real_table(*args, **kwargs)

    monkeypatch.setattr(tree_module, "optimize_batch", counting_optimize)
    monkeypatch.setattr(templates_module, "range_table", counting_table)
    config = TreeConfig(pso=PsoConfig(swarm_size=10, iterations=12))
    templates = first_order_templates(dataset.dimension)
    assert len(templates) == 8
    optimize_primitive(dataset, uniform_weights(len(dataset)), np.full(len(dataset), np.inf),
                       templates, config, seed=0)
    assert calls == {"batches": 1, "objective": 12 + 1, "range_table": 4}


@pytest.mark.parametrize("budget", [0, 2000, 1 << 30])
def test_table_budget_keeps_the_tree(monkeypatch, budget):
    # Depth 3 and one accepted merge, so the merged search runs too.
    dataset = generate_naval(NavalConfig(count_per_class=40, noise=2.0, seed=1))
    weights = uniform_weights(len(dataset))
    config = TreeConfig(max_depth=3, purity_stop=1.0, pso=PsoConfig(swarm_size=10, iterations=8))
    expected = build_tree(dataset, weights, config, seed=1)
    assert expected[1].count == 1

    # One worker, so that every batch is recorded in this process.
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    batches = []  # (templates, bytes of each range table built) per batch
    passes = []  # (templates in the batch, particles per template) per scoring pass
    real_batch = tree_module.batch_robustness
    real_table = templates_module.range_table
    real_gains = tree_module.gains_from_robustness

    def recording_batch(templates, values, starts=None, count=None):
        batches.append((templates, []))
        return real_batch(templates, values, starts, count)

    def recording_table(series, reduce, out):
        batches[-1][1].append(out.nbytes)
        return real_table(series, reduce, out)

    def recording_gains(rho, labels, weights, valid=None):
        templates = len(batches[-1][0])
        passes.append((templates, rho.shape[0] // templates, rho.nbytes))
        return real_gains(rho, labels, weights, valid)

    monkeypatch.setattr(templates_module, "TABLE_BUDGET_BYTES", budget)
    monkeypatch.setattr(tree_module, "batch_robustness", recording_batch)
    monkeypatch.setattr(templates_module, "range_table", recording_table)
    monkeypatch.setattr(tree_module, "gains_from_robustness", recording_gains)
    assert build_tree(dataset, weights, config, seed=1) == expected
    for templates, tables in batches:
        one_template = max(len(t.slots) for t in templates) * max(tables, default=0)
        assert sum(tables) <= max(budget, one_template)
    sizes = [len(templates) for templates, _ in batches]
    # Small budgets: the two templates that share a table; all of them otherwise.
    assert max(sizes) == (8 if budget == 1 << 30 else 2)
    # Each pass's (templates x particles, signals) arrays fit the budget, or
    # it takes one particle per template.
    for templates, particles, rho_bytes in passes:
        assert particles == 1 or rho_bytes <= budget
    # No budget: one particle per pass; a large one: the whole swarm of 10.
    # 2000 bytes: one particle per pass at the root, more on smaller nodes.
    particles = {p for _, p, _ in passes}
    assert particles == {0: {1}, 2000: {1, 2, 3, 5, 10}, 1 << 30: {10}}[budget]


def test_lockstep_batches_group_by_table():
    values = np.zeros((3, 2, 5))  # three signals of five samples
    g_above, f_below = PstlTemplate("G", ((1, GT),)), PstlTemplate("F", ((1, LE),))
    g_below, f_x2 = PstlTemplate("G", ((1, LE),)), PstlTemplate("F", ((2, GT),))
    f_band = PstlTemplate("F", ((1, GT), (1, LE)))
    g_band = PstlTemplate("G", ((1, GT), (1, LE)))
    templates = (g_above, g_below, f_band, f_below, g_band, f_x2)
    # G x1 > c and F x1 <= c read the minimum table of x1; the F over two
    # faces reads slices and goes alone; a batch keeps one face count.
    assert templates_module.lockstep_batches(templates, 3, 5) == [[0, 3, 1], [2], [4], [5]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(templates_module, "TABLE_BUDGET_BYTES", 0)
        assert templates_module.lockstep_batches(templates, 3, 5) == [[0, 3], [1], [2], [4], [5]]
    with pytest.raises(ValueError):
        batch_robustness((f_band, g_band), values)


def test_node_stacks_keep_one_table_within_the_budget(monkeypatch):
    # A table over n signals of 5 samples is 3 levels x n x 5 floats.
    assert templates_module.table_bytes(1, 5) == 120
    monkeypatch.setattr(templates_module, "TABLE_BUDGET_BYTES", 8 * 120)
    stacks = templates_module.node_stacks([3, 4, 10, 1, 2, 8], 5)
    assert stacks == [[0, 1], [2], [3, 4], [5]]


# Past 128 samples numpy's pairwise summation splits a row in blocks, and
# from 8 on it unrolls by 8, so padding a row with zeros would change its sum.
RAGGED_SIZES = (1, 7, 8, 9, 127, 128, 129, 300)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_padded_gains_match_each_node_alone(seed):
    rng = np.random.default_rng(seed)
    swarm = 4
    nodes = []  # (rho, labels, weights) of each node's candidates
    for k, count in enumerate(RAGGED_SIZES):
        rho = rng.normal(size=(swarm, count)) * 10.0 ** rng.integers(-3, 4)
        rho[rng.random(size=rho.shape) < 0.2] = 0.0
        rho[1] = 0.0  # all-zero masses
        weights = rng.random(count) + 0.01
        if k % 2:
            rho[0] = math.inf  # the path is TRUE on every sample
        else:
            weights[rng.random(count) < 0.3] = 0.0  # zero weights; 0 * inf would be nan
            weights[0] = 1.0
        weights /= weights.sum()
        nodes.append((rho, rng.choice([POS_LABEL, NEG_LABEL], size=count), weights))
    width = max(RAGGED_SIZES)
    rows = len(nodes) * swarm
    # Padding holds values no sum may read.
    rho = np.full((rows, width), math.nan)
    labels = np.full((rows, width), 7)
    weights = np.full((rows, width), math.inf)
    valid = np.zeros((rows, width), dtype=bool)
    for k, (node_rho, node_labels, node_weights) in enumerate(nodes):
        part, count = slice(k * swarm, (k + 1) * swarm), len(node_labels)
        rho[part, :count] = node_rho
        labels[part, :count] = node_labels
        weights[part, :count] = node_weights
        valid[part, :count] = True
    padded = gains_from_robustness(rho, labels, weights, valid)
    for k, node in enumerate(nodes):
        alone = gains_from_robustness(*node)
        part = slice(k * swarm, (k + 1) * swarm)
        for name, field in zip(alone._fields, alone):
            assert getattr(padded, name)[part].tobytes() == field.tobytes(), name


def _random_requests(rng, pso: PsoConfig) -> list:
    """Requests of 1-4 nodes of one shape and different sizes: first-order
    templates, G over a band, or F over a band (searched alone)."""
    dimension = int(rng.integers(1, 3))
    horizon = int(rng.integers(0, 12))
    requests = []
    for _ in range(int(rng.integers(1, 5))):
        count = int(rng.integers(1, 25))
        values = np.round(rng.normal(size=(count, dimension, horizon + 1)) * 3, 1)
        labels = rng.choice([POS_LABEL, NEG_LABEL], size=count)
        dataset = LabeledDataset(values, labels, tuple(str(i) for i in range(count)))
        weights = rng.random(count) + 0.01
        weights /= weights.sum()
        path_rho = np.where(rng.random(count) < 0.5, np.inf, rng.normal(size=count))
        kind = rng.integers(3)
        if kind == 0:
            templates = first_order_templates(dimension)
        else:
            templates = (PstlTemplate("G" if kind == 1 else "F", ((1, GT), (1, LE))),)
        templates = tuple(t.bound_to(dataset) for t in templates)
        seed = int(rng.integers(0, 2**32))
        requests.append(tree_module.SearchRequest(
            dataset.values, dataset.labels, weights, path_rho, templates, seed, pso
        ))
    return requests


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_requests_served_together_match_each_alone(seed):
    rng = np.random.default_rng(seed)
    pso = PsoConfig(swarm_size=int(rng.integers(2, 9)), iterations=int(rng.integers(1, 5)))
    requests = _random_requests(rng, pso)
    budget = int(rng.choice([0, 2000, templates_module.TABLE_BUDGET_BYTES]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(templates_module, "TABLE_BUDGET_BYTES", budget)
        together = tree_module.serve_searches(requests)
    alone = [tree_module.serve_searches([request])[0] for request in requests]
    assert together == alone
    for (_, gain_together), (_, gain_alone) in zip(together, alone):
        assert np.float64(gain_together).tobytes() == np.float64(gain_alone).tobytes()


@pytest.mark.parametrize("budget", [0, 2000, 1 << 30])
def test_table_budget_keeps_cross_validation(monkeypatch, budget):
    # Three folds searched together, whose merged searches run too.
    dataset = generate_naval(NavalConfig(count_per_class=8, noise=2.0, seed=4))
    config = TreeConfig(max_depth=3, pso=PsoConfig(swarm_size=6, iterations=4))

    def outcomes():
        return run_cross_validation(dataset, 2, config, 100.0, folds=3, seed=4)[0]

    expected = outcomes()
    assert sum(outcome["merges"] for outcome in expected) >= 1
    batches = []  # (signals, whether nodes were stacked, bytes of each table, face count)
    real_batch = tree_module.batch_robustness
    real_table = templates_module.range_table

    def recording_batch(templates, values, starts=None, count=None):
        faces = max(len(t.slots) for t in templates)
        batches.append((len(values), starts is not None, [], faces))
        return real_batch(templates, values, starts, count)

    def recording_table(series, reduce, out):
        batches[-1][2].append(out.nbytes)
        return real_table(series, reduce, out)

    monkeypatch.setattr(templates_module, "TABLE_BUDGET_BYTES", budget)
    monkeypatch.setattr(tree_module, "batch_robustness", recording_batch)
    monkeypatch.setattr(templates_module, "range_table", recording_table)
    assert outcomes() == expected
    width = dataset.values.shape[2]
    for signals, stacked, tables, faces in batches:
        one_template = faces * templates_module.table_bytes(signals, width)
        assert sum(tables) <= max(budget, one_template)
        # Nodes are stacked only while one table over them fits the budget.
        assert not stacked or max(tables, default=0) <= budget
    # A naval node's table is larger than 2000 bytes, so small budgets
    # search every node alone.
    assert any(stacked for _, stacked, _, _ in batches) == (budget == 1 << 30)


def _stacked_round():
    """Three naval nodes of different sizes, with the budget that stacks
    them: one range table over all their signals.  Each of the stack's 4
    tables is then a lockstep batch of its own."""
    dataset = generate_naval(NavalConfig(count_per_class=20, noise=2.0, seed=3))
    config = TreeConfig(pso=PsoConfig(swarm_size=6, iterations=3))
    templates = first_order_templates(dataset.dimension)
    rng = np.random.default_rng(3)
    requests = []
    for seed, count in enumerate((9, 17, 30)):
        node = dataset.subset(rng.choice(len(dataset), count, replace=False))
        path_rho = np.where(rng.random(count) < 0.5, np.inf, rng.normal(size=count))
        requests.append(tree_module._request(node, uniform_weights(count), path_rho,
                                             templates, config, seed))
    return requests, templates_module.table_bytes(9 + 17 + 30, dataset.horizon + 1)


def _bits(answers):
    return [(phi, np.float64(gain).tobytes()) for phi, gain in answers]


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_round_is_answered_alike_on_any_cpu_count(monkeypatch, cpus):
    # The round's batches are dealt to this process and cpus - 1 children.
    requests, budget = _stacked_round()
    monkeypatch.setattr(templates_module, "TABLE_BUDGET_BYTES", budget)
    sizes, width = [len(r.labels) for r in requests], requests[0].values.shape[2]
    assert templates_module.node_stacks(sizes, width) == [[0, 1, 2]]
    searched = []
    real_search = tree_module._search_batch
    monkeypatch.setattr(tree_module, "_search_batch",
                        lambda task: searched.append(task) or real_search(task))
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    alone = tree_module.serve_searches(requests)
    assert len(searched) == 4

    forks = count_forks(monkeypatch)
    monkeypatch.setattr(fanout, "_cpus", lambda: cpus)
    assert _bits(tree_module.serve_searches(requests)) == _bits(alone)
    assert len(forks) == cpus - 1


def test_batches_a_child_did_not_send_are_searched_here(monkeypatch):
    requests, budget = _stacked_round()
    monkeypatch.setattr(templates_module, "TABLE_BUDGET_BYTES", budget)
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    alone = tree_module.serve_searches(requests)
    searched = []  # the batches searched in this process
    real_search = tree_module._search_batch
    monkeypatch.setattr(tree_module, "_search_batch",
                        lambda task: searched.append(task) or real_search(task))
    monkeypatch.setattr(fanout, "_send", lambda work, tasks, pipe: None)  # the children send nothing
    monkeypatch.setattr(fanout, "_cpus", lambda: 3)
    assert _bits(tree_module.serve_searches(requests)) == _bits(alone)
    assert len(searched) == 4
