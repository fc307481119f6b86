import random

import numpy as np
import pytest

from stlboost import (
    EmptyParameterSpaceError,
    GT,
    LE,
    LabeledDataset,
    NEG_LABEL,
    POS_LABEL,
    PsoConfig,
    PstlTemplate,
    Valuation,
    misclassification_gain,
    optimize,
    uniform_weights,
)
from stlboost.pso import MAX_ITERATIONS, MAX_SWARM_SIZE, _project
from helpers import constant_dataset
from oracles import grid_search

BOUND = PstlTemplate("F", ((1, LE),), ((-5.0, 5.0),), horizon=10)


class TestProjection:
    def test_rounds_clamps_and_orders_times(self):
        v = _project(BOUND, np.array([7.6, 2.2, 0.0]))
        assert (v.t_start, v.t_end) == (2, 8)
        v = _project(BOUND, np.array([-3.0, 15.0, 9.0]))
        assert (v.t_start, v.t_end) == (0, 10)
        assert v.thresholds == (5.0,)

    def test_box_face_repair(self):
        template = PstlTemplate(
            "G", ((1, GT), (1, LE)), ((-5.0, 5.0), (-5.0, 5.0)), horizon=4
        )
        v = _project(template, np.array([0.0, 1.0, 3.0, -2.0]))
        lo, hi = v.thresholds
        assert lo < hi
        v = _project(template, np.array([0.0, 1.0, 2.0, 2.0]))
        lo, hi = v.thresholds
        assert lo < hi

    def test_face_gap_may_reach_the_upper_bound(self):
        template = PstlTemplate("G", ((1, GT), (1, LE)), ((-1.0, 1e-9), (-1.0, 1e-9)), horizon=2)
        v = _project(template, np.array([0.0, 1.0, 0.0, 0.0]))
        assert v.thresholds == (0.0, 1e-9)
        v = _project(template, np.array([0.0, 1.0, 1e-9, 1e-9]))
        assert v.thresholds == (0.0, 1e-9)

    def test_instantiation_always_valid(self):
        template = PstlTemplate(
            "G", ((1, GT), (1, LE)), ((-1.0, 1.0), (-1.0, 1.0)), horizon=3
        )
        rng = np.random.default_rng(0)
        for _ in range(200):
            position = rng.uniform(-10, 10, size=4)
            template.instantiate(_project(template, position))


class TestOptimize:
    def test_smooth_objective_converges(self):
        def objective(v):
            return -((v.t_start - 3) ** 2) - (v.t_end - 6) ** 2 - (v.thresholds[0] - 1.0) ** 2

        valuation, value = optimize(BOUND, objective, PsoConfig(seed=3))
        assert (valuation.t_start, valuation.t_end) == (3, 6)
        assert abs(valuation.thresholds[0] - 1.0) < 1e-3

    def test_constant_objective(self):
        valuation, value = optimize(BOUND, lambda v: 4.25, PsoConfig(seed=1))
        assert value == 4.25
        assert 0 <= valuation.t_start <= valuation.t_end <= 10

    def test_deterministic(self):
        def objective(v):
            return -abs(v.thresholds[0] - 0.3) - 0.1 * v.t_start

        a = optimize(BOUND, objective, PsoConfig(seed=11))
        b = optimize(BOUND, objective, PsoConfig(seed=11))
        assert a == b

    def test_feasibility_of_every_query(self):
        seen = []

        def spying(v):
            seen.append(v)
            return 0.0

        optimize(BOUND, spying, PsoConfig(swarm_size=10, iterations=5, seed=2))
        assert seen
        for v in seen:
            assert 0 <= v.t_start <= v.t_end <= 10
            assert -5.0 <= v.thresholds[0] <= 5.0

    def test_best_value_non_decreasing_in_iterations(self):
        def objective(v):
            return -((v.thresholds[0] - 2.0) ** 2)

        values = []
        for iterations in (1, 3, 6, 12, 24):
            cfg = PsoConfig(iterations=iterations, seed=5)
            values.append(optimize(BOUND, objective, cfg)[1])
        assert values == sorted(values)

    def test_returned_value_matches_reevaluation(self):
        def objective(v):
            return float(v.t_start + v.t_end) + v.thresholds[0]

        valuation, value = optimize(BOUND, objective, PsoConfig(seed=7))
        assert objective(valuation) == value

    def test_impurity_objective_beats_grid(self):
        ds = constant_dataset(
            [0.0, 0.5, 2.0, 3.0], [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL]
        )
        weights = uniform_weights(4)
        template = PstlTemplate("F", ((1, LE),)).bound_to(ds)

        def objective(v):
            return misclassification_gain(ds, weights, template.instantiate(v)).gain

        eps = 1e-6
        candidates = sorted(
            {v + eps for v in (0.0, 0.5, 2.0, 3.0)} | {v - eps for v in (0.0, 0.5, 2.0, 3.0)}
        )
        _, grid_best = grid_search(template, objective, candidates)
        _, pso_best = optimize(template, objective, PsoConfig(seed=13))
        assert pso_best >= grid_best - 1e-6
        # The margin-weighted optimum sits between the classes, above the
        # value the grid or any hand-picked threshold of 1.0 reaches.
        assert pso_best >= 1.0 / 3.0

    def test_empty_space(self):
        with pytest.raises(EmptyParameterSpaceError):
            bad = PstlTemplate("G", ((1, GT), (1, LE)), ((2.0, 5.0), (-5.0, 1.0)), horizon=3)
            optimize(bad, lambda v: 0.0, PsoConfig(seed=0))


class TestGridSearch:
    def test_single_point(self):
        template = PstlTemplate("F", ((1, LE),), ((0.0, 1.0),), horizon=0)
        valuation, value = grid_search(template, lambda v: 42.0, [0.5])
        assert valuation == Valuation(0, 0, (0.5,))
        assert value == 42.0

    def test_two_point_grid(self):
        valuation, value = grid_search(
            BOUND, lambda v: v.thresholds[0], [1.0, 2.0], time_stride=10
        )
        assert value == 2.0

    def test_per_slot_candidates(self):
        template = PstlTemplate(
            "G", ((1, GT), (1, LE)), ((-5.0, 5.0), (-5.0, 5.0)), horizon=2
        )
        valuation, value = grid_search(
            template,
            lambda v: v.thresholds[1] - v.thresholds[0],
            [[-1.0, 0.0], [0.5, 4.0]],
            time_stride=2,
        )
        assert valuation.thresholds == (-1.0, 4.0)

    def test_infeasible_combinations_skipped(self):
        template = PstlTemplate(
            "G", ((1, GT), (1, LE)), ((-5.0, 5.0), (-5.0, 5.0)), horizon=1
        )
        valuation, _ = grid_search(template, lambda v: 0.0, [1.0, 2.0], time_stride=1)
        assert valuation.thresholds[0] < valuation.thresholds[1]

    def test_out_of_bounds_candidates_dropped(self):
        with pytest.raises(EmptyParameterSpaceError):
            grid_search(BOUND, lambda v: 0.0, [99.0])


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            PsoConfig(swarm_size=1)
        with pytest.raises(ValueError):
            PsoConfig(iterations=0)
        with pytest.raises(ValueError):
            PsoConfig(inertia=1.0)
        with pytest.raises(ValueError):
            PsoConfig(cognitive=0.0)
        with pytest.raises(ValueError):
            PsoConfig(velocity_clamp=0.0)

    def test_size_bounds(self):
        assert PsoConfig(swarm_size=MAX_SWARM_SIZE, iterations=MAX_ITERATIONS)
        with pytest.raises(ValueError):
            PsoConfig(swarm_size=MAX_SWARM_SIZE + 1)
        with pytest.raises(ValueError):
            PsoConfig(iterations=MAX_ITERATIONS + 1)


def _planted_instance(seed):
    """Small labeled dataset whose positives dip low inside a planted window.

    Windows that partially cover the dips earn partial accuracy, so the
    objective has a climbable structure with a wide optimal plateau; the
    grid over data values +/- epsilon contains that optimum exactly.
    """
    rng = random.Random(seed)
    count = rng.randint(6, 10)
    horizon = rng.randint(4, 7)
    a = rng.randint(0, horizon - 2)
    b = rng.randint(a + 1, horizon - 1)
    values = np.array(
        [[rng.uniform(1.0, 4.0) for _ in range(horizon + 1)] for _ in range(count)]
    )[:, np.newaxis, :]
    labels = np.array(
        [POS_LABEL if i % 2 == 0 else NEG_LABEL for i in range(count)]
    )
    for i in range(count):
        if labels[i] == POS_LABEL:
            values[i, 0, rng.randint(a, b)] = rng.uniform(-4.0, -1.0)
    ds = LabeledDataset(values, labels, tuple(str(i) for i in range(count)))
    template = PstlTemplate("F", ((1, LE),)).bound_to(ds)

    def accuracy(v):
        phi = template.instantiate(v)
        from stlboost import robustness_all

        rho = robustness_all(phi, ds.values)
        predicted = np.where(rho >= 0, POS_LABEL, NEG_LABEL)
        return float(np.mean(predicted == labels))

    eps = 1e-4
    points = sorted(set(float(x) for x in values.ravel()))
    candidates = sorted({p - eps for p in points} | {p + eps for p in points})
    return template, accuracy, candidates


def test_oracle_gap_statistics():
    # Piecewise-constant objectives change value only at data points, so the
    # +/- epsilon grid contains the continuum optimum; the swarm should reach
    # it in at least 95 of 100 seeded runs.
    hits = 0
    for seed in range(100):
        template, accuracy, candidates = _planted_instance(seed)
        _, grid_best = grid_search(template, accuracy, candidates)
        _, pso_best = optimize(template, accuracy, PsoConfig(seed=seed))
        hits += pso_best >= grid_best - 1e-6
    assert hits >= 95
