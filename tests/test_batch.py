"""The swarm scores a whole iteration at once; every batched result must be
bit-identical to scoring each particle alone.  All comparisons here use
``==``: a last-bit difference changes which split wins a tie and so the
learned formulas.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from stlboost import (
    GT,
    LE,
    NEG_LABEL,
    POS_LABEL,
    PstlTemplate,
    Valuation,
    gain_from_robustness,
    gains_from_robustness,
    robustness_all,
)
from stlboost.impurity import robustness_margin
from stlboost.pso import _project, _project_all
from stlboost.templates import batch_robustness

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
    return (p_top, p_bot, p_pos, p_neg, gain, total)


def _random_template(rng, dimension: int, horizon: int) -> PstlTemplate:
    """G or F over 1-3 faces; paired faces on one variable are likely."""
    faces = [(var, op) for var in range(1, dimension + 1) for op in (GT, LE)]
    count = int(rng.integers(1, min(3, len(faces)) + 1))
    slots = [faces[i] for i in rng.choice(len(faces), size=count, replace=False)]
    bounds = []
    for _ in slots:
        lo = float(rng.integers(-4, 3))
        bounds.append((lo, lo + float(rng.integers(0, 4))))
    return PstlTemplate(str(rng.choice(["G", "F"])), tuple(slots), tuple(bounds), horizon)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_project_all_matches_project(seed):
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(0, 12))
    template = _random_template(rng, int(rng.integers(1, 3)), horizon)
    swarm = int(rng.integers(1, 9))
    # Half-integer times exercise half-to-even rounding; integer thresholds
    # on narrow bounds make faces collide and clamp at the upper bound.
    times = rng.integers(-4, 2 * horizon + 6, size=(swarm, 2)) / 2
    thresholds = rng.integers(-6, 6, size=(swarm, len(template.slots))).astype(float)
    positions = np.hstack([times, thresholds])
    t0, t1, projected = _project_all(template, positions)
    for p, position in enumerate(positions):
        single = _project(template, position)
        assert single == Valuation(t0[p], t1[p], projected[p])
        assert single == _reference_project(template, position)
        assert all(a == b for a, b in zip(single.thresholds, projected[p]))


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_batch_robustness_matches_robustness_all(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 12))
    dimension = int(rng.integers(1, 3))
    horizon = int(rng.integers(0, 40))
    values = np.round(rng.normal(size=(count, dimension, horizon + 1)) * 3, 1)
    template = _random_template(rng, dimension, horizon)
    swarm = 6
    times = rng.integers(0, horizon + 1, size=(swarm, 2)).astype(float)
    times[0] = (horizon, horizon)  # a window of length one
    times[1] = (0, horizon)  # the full horizon
    thresholds = rng.integers(-5, 5, size=(swarm, len(template.slots))) / 2
    t0, t1, projected = _project_all(template, np.hstack([times, thresholds]))
    rho = batch_robustness(template, values)(t0, t1, projected)
    assert rho.shape == (swarm, count)
    for p in range(swarm):
        phi = template.instantiate(Valuation(t0[p], t1[p], projected[p]))
        assert np.array_equal(rho[p], robustness_all(phi, values))


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
        assert batched[:5] == (single.p_top, single.p_bot, single.p_pos, single.p_neg, single.gain)
        assert batched[5] == robustness_margin(rho[p], weights)
        assert batched == _reference_scores(rho[p], labels, weights)
