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
    stratified_folds,
    train_boosted,
    uniform_weights,
)
from stlboost.cli import run_cross_validation
from stlboost.impurity import _masses, _side_sums, robustness_margin
from stlboost.pso import _project_all, _space
from stlboost.templates import batch_robustness
from stlboost.tree import mix_seed
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
    t0, t1, projected = _project_all(positions, *_space(templates))
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
    positions = np.concatenate([times, thresholds], axis=2)
    t0, t1, projected = _project_all(positions, *_space(templates))
    rho = batch_robustness(templates, values)(t0, t1, projected)
    assert rho.shape == (len(templates), swarm, count)
    for m, template in enumerate(templates):
        for p in range(swarm):
            phi = template.instantiate(Valuation(t0[m, p], t1[m, p], projected[m, p]))
            assert rho[m, p].tobytes() == robustness_all(phi, values).tobytes()


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
    # A call's four side masks, and the every-sample and positive masks it
    # sums as plain rows, over every sample or over a random part.
    valid = np.ones(rho.shape, dtype=bool)
    if rng.random() < 0.5:
        valid = rng.random(size=rho.shape) < rng.random()
    pos = labels == POS_LABEL
    top = valid & (rho >= 0)
    bot = valid & (rho < 0)
    masks = np.concatenate([valid, valid & pos, top, bot, top & pos, bot & pos])
    want = naive_side_sums(np.tile(mags, (6, 1)), masks)
    assert _side_sums(mags, masks).tobytes() == want.tobytes()
    # The gain weighs each side by its mass share, so it pins those sums too.
    scores = gains_from_robustness(rho, labels, weights)
    single = np.array([_reference_scores(row, labels, weights) for row in rho])
    assert np.stack(scores, axis=1).tobytes() == single.tobytes()


def test_reduceat_segment_after_a_zero_is_the_1d_sum():
    """``_side_sums`` relies on numpy summing a ``reduceat`` segment that
    starts with +0.0 exactly as ``np.add.reduce`` sums the rest."""
    rng = np.random.default_rng(0)
    segments = [rng.choice(SUM_GRID, size=length) for length in range(301)]
    flat = np.concatenate([np.concatenate([[0.0], values]) for values in segments])
    starts = np.cumsum([0] + [len(values) + 1 for values in segments[:-1]])
    want = np.array([np.add.reduce(values) for values in segments])
    assert np.add.reduceat(flat, starts).tobytes() == want.tobytes()


def test_row_sums_are_the_1d_sums():
    """``gains_from_robustness`` sums its total and positive masses as rows of
    C-contiguous matrices, and relies on numpy summing each such row exactly
    as ``np.add.reduce`` sums it alone, which is what ``_side_sums`` gives
    under a mask that picks every sample.  ``compress`` must lay its picks
    out row-major for the positive masses to keep those bits."""
    rng = np.random.default_rng(1)
    for length in range(301):
        mags = rng.choice(SUM_GRID, size=(3, length))
        want = np.array([np.add.reduce(row) for row in mags])
        assert mags.sum(axis=1).tobytes() == want.tobytes()
        assert _side_sums(mags, np.ones(mags.shape, dtype=bool)).tobytes() == want.tobytes()
        pick = rng.random(length) < 0.5
        picked = mags.compress(pick, axis=1)
        assert picked.flags.c_contiguous
        want = np.array([np.add.reduce(row[pick]) for row in mags])
        assert picked.sum(axis=1).tobytes() == want.tobytes()


def test_batch_robustness_tables_hold_their_budgeted_bytes(monkeypatch):
    # The budget counts table_bytes per table, so that must be what a table
    # holds, laid out time-major: (levels, T+1, N).
    rng = np.random.default_rng(2)
    values = rng.normal(size=(5, 2, 9))
    templates = tuple(_random_template(rng, 2, 8, count=1, shape="G") for _ in range(4))
    tables, real_table = [], templates_module.range_table

    def recording_table(series, sign, out):
        tables.append(out)
        return real_table(series, sign, out)

    monkeypatch.setattr(templates_module, "range_table", recording_table)
    batch_robustness(templates, values)
    assert tables
    for table in tables:
        assert table.nbytes == templates_module.table_bytes(5, 9)
        assert table.shape == (4, 9, 5)


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
    assert expected[1] == 1

    # One worker, so that every batch is recorded in this process.
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    batches = []  # (templates, bytes of each range table built) per batch
    passes = []  # (templates in the batch, particles per template) per scoring pass
    real_batch = tree_module.batch_robustness
    real_table = templates_module.range_table
    real_gains = tree_module.gains_from_robustness

    def recording_batch(templates, values):
        batches.append((templates, []))
        return real_batch(templates, values)

    def recording_table(series, sign, out):
        batches[-1][1].append(out.nbytes)
        return real_table(series, sign, out)

    def recording_gains(rho, labels, weights):
        templates = len(batches[-1][0])
        passes.append((templates, rho.shape[0] // templates, rho.nbytes))
        return real_gains(rho, labels, weights)

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


@pytest.mark.parametrize("budget", [0, 2000, 1 << 30])
def test_table_budget_keeps_cross_validation(monkeypatch, budget):
    # Three folds trained in turn, whose merged searches run too.
    dataset = generate_naval(NavalConfig(count_per_class=8, noise=2.0, seed=4))
    config = TreeConfig(max_depth=3, pso=PsoConfig(swarm_size=6, iterations=4))

    def outcomes():
        return run_cross_validation(dataset, 2, config, 100.0, folds=3, seed=4)[0]

    expected = outcomes()
    assert sum(outcome["merges"] for outcome in expected) >= 1
    batches = []  # (signals, bytes of each table, face count)
    real_batch = tree_module.batch_robustness
    real_table = templates_module.range_table

    def recording_batch(templates, values):
        faces = max(len(t.slots) for t in templates)
        batches.append((len(values), [], faces))
        return real_batch(templates, values)

    def recording_table(series, sign, out):
        batches[-1][1].append(out.nbytes)
        return real_table(series, sign, out)

    monkeypatch.setattr(fanout, "_cpus", lambda: 1)  # every batch is recorded here
    monkeypatch.setattr(templates_module, "TABLE_BUDGET_BYTES", budget)
    monkeypatch.setattr(tree_module, "batch_robustness", recording_batch)
    monkeypatch.setattr(templates_module, "range_table", recording_table)
    assert outcomes() == expected
    width = dataset.values.shape[2]
    for signals, tables, faces in batches:
        one_template = faces * templates_module.table_bytes(signals, width)
        assert sum(tables) <= max(budget, one_template)
    # Each batch holds one node of one fold, at most a fold's training set.
    plan = stratified_folds(dataset, 3, 4)
    train_size = max(len(plan.train_indices(fold)) for fold in range(3))
    assert max(signals for signals, _, _ in batches) <= train_size


def _node_search():
    """A search of a 30-signal naval node, and the budget of one range table
    over its signals: each of the node's 4 tables is then a lockstep batch
    of its own."""
    dataset = generate_naval(NavalConfig(count_per_class=20, noise=2.0, seed=3))
    config = TreeConfig(pso=PsoConfig(swarm_size=6, iterations=3))
    templates = first_order_templates(dataset.dimension)
    rng = np.random.default_rng(3)
    node = dataset.subset(rng.choice(len(dataset), 30, replace=False))
    path_rho = np.where(rng.random(30) < 0.5, np.inf, rng.normal(size=30))

    def search():
        primitive, gain = optimize_primitive(node, uniform_weights(30), path_rho, templates,
                                             config, seed=3)
        return primitive, np.float64(gain).tobytes()

    return search, templates_module.table_bytes(30, dataset.horizon + 1)


def _recorded_batches(monkeypatch) -> list:
    """The templates and seeds of each lockstep batch searched in this
    process."""
    searched, real_optimize = [], tree_module.optimize_batch

    def recording(templates, objective, pso, seeds):
        searched.append((templates, tuple(seeds)))
        return real_optimize(templates, objective, pso, seeds)

    monkeypatch.setattr(tree_module, "optimize_batch", recording)
    return searched


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_round_is_answered_alike_on_any_cpu_count(monkeypatch, cpus):
    # The search's batches are dealt to this process and cpus - 1 children.
    search, budget = _node_search()
    monkeypatch.setattr(templates_module, "TABLE_BUDGET_BYTES", budget)
    searched = _recorded_batches(monkeypatch)
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    alone = search()
    assert len(searched) == 4

    forks = count_forks(monkeypatch)
    monkeypatch.setattr(fanout, "_cpus", lambda: cpus)
    assert search() == alone
    assert len(forks) == cpus - 1


def test_batches_a_child_did_not_send_are_searched_here(monkeypatch):
    search, budget = _node_search()
    monkeypatch.setattr(templates_module, "TABLE_BUDGET_BYTES", budget)
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    alone = search()
    searched = _recorded_batches(monkeypatch)  # the batches searched in this process
    monkeypatch.setattr(fanout, "_send", lambda work, tasks, pipe: None)  # the children send nothing
    monkeypatch.setattr(fanout, "_cpus", lambda: 3)
    assert search() == alone
    assert len(searched) == 4


def test_a_cv_makes_exactly_its_folds_searches(monkeypatch):
    """A cv fold run trains its folds one after the other: every swarm batch
    of a cv is one of a single fold's, and the cv makes the batches that
    training each fold's train set alone makes, in fold order."""
    dataset = generate_naval(NavalConfig(count_per_class=8, noise=2.0, seed=4))
    config = TreeConfig(max_depth=3, pso=PsoConfig(swarm_size=6, iterations=4))
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    calls = _recorded_batches(monkeypatch)
    entries, _ = run_cross_validation(dataset, 2, config, 100.0, folds=3, seed=4)
    assert sum(entry["merges"] for entry in entries) >= 1
    together, calls[:] = calls[:], []
    plan = stratified_folds(dataset, 3, 4)
    for fold in range(3):
        train_boosted(dataset.subset(plan.train_indices(fold)), 2, config, 100.0,
                      seed=mix_seed(4, fold))
    assert together == calls
