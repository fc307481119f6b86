import hashlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    EmptyParameterSpaceError,
    GT,
    LE,
    LabeledDataset,
    NEG_LABEL,
    NavalConfig,
    POS_LABEL,
    PsoConfig,
    PstlTemplate,
    Valuation,
    first_order_templates,
    generate_naval,
    misclassification_gain,
    optimize,
    optimize_batch,
    uniform_weights,
)
from stlboost.pso import MAX_ITERATIONS, MAX_SWARM_SIZE
from stlboost.templates import batch_robustness
from helpers import constant_dataset, project
from oracles import grid_search
from test_batch import _gain_objective

BOUND = PstlTemplate("F", ((1, LE),), ((-5.0, 5.0),), horizon=10)


class TestProjection:
    def test_rounds_clamps_and_orders_times(self):
        v = project(BOUND, np.array([7.6, 2.2, 0.0]))
        assert (v.t_start, v.t_end) == (2, 8)
        v = project(BOUND, np.array([-3.0, 15.0, 9.0]))
        assert (v.t_start, v.t_end) == (0, 10)
        assert v.thresholds == (5.0,)

    def test_box_face_repair(self):
        template = PstlTemplate(
            "G", ((1, GT), (1, LE)), ((-5.0, 5.0), (-5.0, 5.0)), horizon=4
        )
        v = project(template, np.array([0.0, 1.0, 3.0, -2.0]))
        lo, hi = v.thresholds
        assert lo < hi
        v = project(template, np.array([0.0, 1.0, 2.0, 2.0]))
        lo, hi = v.thresholds
        assert lo < hi

    def test_face_gap_may_reach_the_upper_bound(self):
        template = PstlTemplate("G", ((1, GT), (1, LE)), ((-1.0, 1e-9), (-1.0, 1e-9)), horizon=2)
        v = project(template, np.array([0.0, 1.0, 0.0, 0.0]))
        assert v.thresholds == (0.0, 1e-9)
        v = project(template, np.array([0.0, 1.0, 1e-9, 1e-9]))
        assert v.thresholds == (0.0, 1e-9)

    def test_instantiation_always_valid(self):
        template = PstlTemplate(
            "G", ((1, GT), (1, LE)), ((-1.0, 1.0), (-1.0, 1.0)), horizon=3
        )
        rng = np.random.default_rng(0)
        for _ in range(200):
            position = rng.uniform(-10, 10, size=4)
            template.instantiate(project(template, position))


class TestOptimize:
    def test_smooth_objective_converges(self):
        def objective(v):
            return -((v.t_start - 3) ** 2) - (v.t_end - 6) ** 2 - (v.thresholds[0] - 1.0) ** 2

        valuation, value = optimize(BOUND, objective, PsoConfig(), seed=3)
        assert (valuation.t_start, valuation.t_end) == (3, 6)
        assert abs(valuation.thresholds[0] - 1.0) < 1e-3

    def test_constant_objective(self):
        valuation, value = optimize(BOUND, lambda v: 4.25, PsoConfig(), seed=1)
        assert value == 4.25
        assert 0 <= valuation.t_start <= valuation.t_end <= 10

    def test_deterministic(self):
        def objective(v):
            return -abs(v.thresholds[0] - 0.3) - 0.1 * v.t_start

        a = optimize(BOUND, objective, PsoConfig(), seed=11)
        b = optimize(BOUND, objective, PsoConfig(), seed=11)
        assert a == b

    def test_feasibility_of_every_query(self):
        seen = []

        def spying(v):
            seen.append(v)
            return 0.0

        optimize(BOUND, spying, PsoConfig(swarm_size=10, iterations=5), seed=2)
        assert seen
        for v in seen:
            assert 0 <= v.t_start <= v.t_end <= 10
            assert -5.0 <= v.thresholds[0] <= 5.0

    def test_best_value_non_decreasing_in_iterations(self):
        def objective(v):
            return -((v.thresholds[0] - 2.0) ** 2)

        values = []
        for iterations in (1, 3, 6, 12, 24):
            cfg = PsoConfig(iterations=iterations)
            values.append(optimize(BOUND, objective, cfg, seed=5)[1])
        assert values == sorted(values)

    def test_returned_value_matches_reevaluation(self):
        def objective(v):
            return float(v.t_start + v.t_end) + v.thresholds[0]

        valuation, value = optimize(BOUND, objective, PsoConfig(), seed=7)
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
        _, pso_best = optimize(template, objective, PsoConfig(), seed=13)
        assert pso_best >= grid_best - 1e-6
        # The margin-weighted optimum sits between the classes, above the
        # value the grid or any hand-picked threshold of 1.0 reaches.
        assert pso_best >= 1.0 / 3.0

    def test_widest_searchable_range(self):
        # The widest bounds PstlTemplate accepts (see test_templates): a
        # search at the largest factors and inertia, pushing the faces apart,
        # never overflows (warnings are errors here).
        config = PsoConfig(swarm_size=16, iterations=20, inertia=0.99, cognitive=4.0, social=4.0)
        wide = PstlTemplate("G", ((2, GT), (2, LE)), ((-1.05e307, 1.05e307),) * 2, horizon=3)
        optimize(wide, lambda v: v.thresholds[1] - v.thresholds[0], config)

    def test_empty_space(self):
        with pytest.raises(EmptyParameterSpaceError):
            bad = PstlTemplate("G", ((1, GT), (1, LE)), ((2.0, 5.0), (-5.0, 1.0)), horizon=3)
            optimize(bad, lambda v: 0.0, PsoConfig())

    def test_full_tie_keeps_the_first_particle(self):
        # Equal values and equal tie values everywhere: the first particle of
        # the initial swarm stays the incumbent, not the last one offered.
        config = PsoConfig(swarm_size=6, iterations=3)

        def constant(t0, t1, thresholds):
            return np.full(t0.shape, 0.5), np.zeros(t0.shape)

        [(valuation, value, tie_value)] = optimize_batch((BOUND,), constant, config, (9,))
        lb, ub = np.array([0.0, 0.0, -5.0]), np.array([10.0, 10.0, 5.0])
        first = lb + (ub - lb) * np.random.default_rng(9).random((config.swarm_size, 3))[0]
        assert valuation == project(BOUND, first)
        assert (value, tie_value) == (0.5, 0.0)

    def test_minus_infinity_everywhere_still_returns_a_valuation(self):
        config = PsoConfig(swarm_size=4, iterations=2)
        valuation, value = optimize(BOUND, lambda v: -math.inf, config)
        assert valuation is not None and value == -math.inf
        assert 0 <= valuation.t_start <= valuation.t_end <= 10
        grid_valuation, grid_value = grid_search(BOUND, lambda v: -math.inf, [1.0, 2.0])
        assert (grid_valuation, grid_value) == (Valuation(0, 0, (1.0,)), -math.inf)

    def test_nan_objective_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            optimize(BOUND, lambda v: math.nan, PsoConfig(swarm_size=4, iterations=2))


class TestRandomStream:
    def test_search_stream_is_pinned(self):
        # The sha256 of every (t0, t1, thresholds) batch the objective sees in
        # three node searches: 8 first-order templates in lockstep, a paired
        # G and a 3-face F.  Any change to which doubles a swarm draws, in
        # which order, or how they are scaled changes the positions searched.
        dataset = generate_naval(NavalConfig(count_per_class=20, noise=2.0, seed=4))
        weights = uniform_weights(len(dataset))
        path_rho = np.full(len(dataset), np.inf)
        searches = (
            first_order_templates(dataset.dimension),
            (PstlTemplate("G", ((1, GT), (1, LE))),),
            (PstlTemplate("F", ((1, GT), (1, LE), (2, GT))),),
        )
        digest = hashlib.sha256()
        for index, searched in enumerate(searches):
            searched = tuple(t.bound_to(dataset) for t in searched)
            objective = _gain_objective(
                searched, dataset.values, dataset.labels, weights, path_rho
            )

            def recording(t0, t1, thresholds):
                for array in (t0.astype(np.int64), t1.astype(np.int64), thresholds):
                    digest.update(repr(array.shape).encode())
                    digest.update(np.ascontiguousarray(array).tobytes())
                return objective(t0, t1, thresholds)

            seeds = [1000 * index + m for m in range(len(searched))]
            optimize_batch(searched, recording, PsoConfig(swarm_size=16, iterations=10), seeds)
        assert digest.hexdigest() == (
            "325aeee8401dfb476adc2c3f660a862d3367c08fe5d611655755ecec29b4412e"
        )

    def test_one_draw_per_swarm_and_iteration(self, monkeypatch):
        calls = []

        class Counting(np.random.Generator):
            def random(self, *args, **kwargs):
                calls.append(args)
                return super().random(*args, **kwargs)

            def uniform(self, *args, **kwargs):
                calls.append("uniform")
                return super().uniform(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Counting(np.random.PCG64(seed)))
        optimize_batch(
            (BOUND, replace(BOUND, shape="G")),
            lambda t0, t1, thresholds: (np.zeros(t0.shape), np.zeros(t0.shape)),
            PsoConfig(swarm_size=10, iterations=4),
            (0, 1),
        )
        # Each swarm: its start, then r_cog, r_soc and one scout per iteration.
        assert calls == [((10, 3),)] * 2 + [((10 + 10 + 1, 3),)] * 2 * 4


# Any two of these lie a finite distance apart; subnormals and zeros included.
BOUND_VALUES = st.floats(min_value=-8e307, max_value=8e307)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bounds=st.lists(st.tuples(BOUND_VALUES, BOUND_VALUES | st.none()), min_size=1, max_size=5),
    rows=st.integers(1, 20),
)
def test_scaled_unit_draws_equal_uniform(seed, bounds, rows):
    # optimize_batch draws unit doubles and scales them as lo + (hi - lo) * u,
    # the bits Generator.uniform(lo, hi) returns only while numpy's C computes
    # the product and the sum apart, not as one fused multiply-add.
    # None, or a value equal to the first, gives a zero span with equal bits:
    # uniform rejects the bounds (0.0, -0.0), which bound_to never makes.
    pairs = [(a, a) if b is None or b == a else (min(a, b), max(a, b)) for a, b in bounds]
    lo, hi = np.array(pairs).T
    size = (rows, len(bounds))
    unit = np.random.default_rng(seed).random(size)
    assert unit.tobytes() == np.random.default_rng(seed).uniform(size=size).tobytes()
    scaled = lo + (hi - lo) * unit
    assert scaled.tobytes() == np.random.default_rng(seed).uniform(lo, hi, size).tobytes()


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
            PsoConfig(cognitive=float("nan"))
        with pytest.raises(ValueError):
            PsoConfig(social=float("inf"))

    @pytest.mark.parametrize("field", ["swarm_size", "iterations"])
    @pytest.mark.parametrize("value", [10.0, True, "10"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PsoConfig(**{field: value})
        assert getattr(PsoConfig(**{field: np.int64(10)}), field) == 10

    def test_acceleration_bound(self):
        assert PsoConfig(cognitive=4.0, social=4.0)
        above = float(np.nextafter(4.0, 5.0))
        with pytest.raises(ValueError):
            PsoConfig(cognitive=above)
        with pytest.raises(ValueError):
            PsoConfig(social=above)

    def test_size_bounds(self):
        assert PsoConfig(swarm_size=MAX_SWARM_SIZE, iterations=MAX_ITERATIONS)
        with pytest.raises(ValueError):
            PsoConfig(swarm_size=MAX_SWARM_SIZE + 1)
        with pytest.raises(ValueError):
            PsoConfig(iterations=MAX_ITERATIONS + 1)


def _planted_dataset(seed):
    """Small labeled dataset whose positives dip low inside a planted window."""
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
    return LabeledDataset(values, labels, tuple(str(i) for i in range(count)))


def _planted_instance(seed):
    """The planted dataset's template, accuracy per valuation and grid.

    Windows that partially cover the dips earn partial accuracy, so the
    objective has a climbable structure with a wide optimal plateau; the
    grid over data values +/- epsilon contains that optimum exactly.
    """
    ds = _planted_dataset(seed)
    template = PstlTemplate("F", ((1, LE),)).bound_to(ds)

    def accuracy(v):
        phi = template.instantiate(v)
        from stlboost import robustness_all

        rho = robustness_all(phi, ds.values)
        predicted = np.where(rho >= 0, POS_LABEL, NEG_LABEL)
        return float(np.mean(predicted == ds.labels))

    eps = 1e-4
    points = sorted(set(float(x) for x in ds.values.ravel()))
    candidates = sorted({p - eps for p in points} | {p + eps for p in points})
    return template, accuracy, candidates


def _batch_accuracy(template, ds):
    """The accuracy of a whole swarm iteration, each row equal to the
    per-valuation accuracy; every tie value is 0."""
    template_rho = batch_robustness((template,), ds.values)

    def batch(t0, t1, thresholds):
        predicted = np.where(template_rho(t0, t1, thresholds) >= 0, POS_LABEL, NEG_LABEL)
        return np.mean(predicted == ds.labels, axis=2), np.zeros(t0.shape)

    return batch


def _window_grid_best(template, ds, candidates):
    """The grid oracle's best accuracy for ``F[t0,t1](x1 <= c)``, a window
    at a time: a signal satisfies it exactly when ``c >= min(x1[t0..t1])``,
    so each window's minima score every in-bounds candidate at once."""
    (lo, hi), = template.threshold_bounds
    thresholds = np.array([c for c in candidates if lo <= c <= hi])[:, np.newaxis]
    best = -np.inf
    for t0 in range(template.horizon + 1):
        for t1 in range(t0, template.horizon + 1):
            low = ds.values[:, 0, t0:t1 + 1].min(axis=1)
            predicted = np.where(thresholds >= low, POS_LABEL, NEG_LABEL)
            best = max(best, np.mean(predicted == ds.labels, axis=1).max())
    return float(best)


def test_oracle_gap_statistics():
    # Piecewise-constant objectives change value only at data points, so the
    # +/- epsilon grid contains the continuum optimum; the swarm should reach
    # it in at least 95 of 100 seeded runs.
    hits = 0
    for seed in range(100):
        template, accuracy, candidates = _planted_instance(seed)
        ds = _planted_dataset(seed)
        grid_best = _window_grid_best(template, ds, candidates)
        if seed < 2:  # the windowed grid is the grid, valuation by valuation
            assert grid_search(template, accuracy, candidates)[1] == grid_best
        objective = _batch_accuracy(template, ds)
        [(_, pso_best, _)] = optimize_batch((template,), objective, PsoConfig(), (seed,))
        hits += pso_best >= grid_best - 1e-6
    assert hits >= 95
