"""Synthetic labeled trajectory generators for desk-scale experiments.

Two families are provided.  The maritime set has planar (x, y) tracks:
normal vessels head straight for the harbor and cross a known x/y band on
the way in, while anomalous vessels either veer toward the island (low y)
or loiter in the passage and return to open sea (high x throughout).  The
street set has 4-D (y, z, v_y, v_z) relative position/velocity traces where
the positive class closes distance late in the horizon with a growing
velocity gap.

Trajectories are piecewise-linear waypoint paths with per-signal jitter
plus optional Gaussian noise; with zero noise each family is separable by a
single eventually-box primitive by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, NEG_LABEL, POS_LABEL


MAX_VALUES = 10**8  # signal values one generated dataset may hold: 800 MB of floats


def _check_config(config, dimension: int, min_horizon: int, geometry: str) -> None:
    if config.count_per_class < 1:
        raise ValueError("count_per_class must be at least 1")
    if config.horizon < min_horizon:
        raise ValueError(f"{geometry} geometry needs a horizon of at least {min_horizon}")
    size = 2 * config.count_per_class * dimension * (config.horizon + 1)
    if size > MAX_VALUES:
        raise ValueError(f"{2 * config.count_per_class} signals of {dimension} x "
                         f"{config.horizon + 1} values exceed the {MAX_VALUES} value limit")
    if not 0 <= config.noise < math.inf:
        raise ValueError("noise must be non-negative and finite")
    if config.seed < 0:
        raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class NavalConfig:
    count_per_class: int = 100
    horizon: int = 60
    noise: float = 0.0
    seed: int = 0
    # Geometry (positions in abstract map units).  The island leg mirrors the
    # normal x profile so no single x window tells them apart; the low island
    # y and the loiterer's high x carry the class information.
    sea: tuple[float, float] = (66.0, 41.0)
    band: tuple[float, float] = (43.5, 29.0)
    harbor: tuple[float, float] = (22.0, 24.0)
    island: tuple[float, float] = (45.0, 14.0)
    passage: tuple[float, float] = (53.0, 29.0)

    def __post_init__(self):
        _check_config(self, dimension=2, min_horizon=30, geometry="maritime")


@dataclass(frozen=True)
class UrbanConfig:
    count_per_class: int = 150
    horizon: int = 499
    noise: float = 0.0
    seed: int = 0
    # Kinematics: distance profile endpoints and velocity-gap plateau.
    start_gap: float = 38.0
    approach_gap: float = 30.0
    close_gap: float = 4.0
    closing_speed: float = 9.5
    drift_speed: float = -1.2

    def __post_init__(self):
        _check_config(self, dimension=4, min_horizon=100, geometry="street")


def _path(horizon: int, waypoints: list[tuple[float, float, float]]) -> np.ndarray:
    """Piecewise-linear (2, T+1) track through (time_fraction, x, y) waypoints."""
    times = np.array([round(f * horizon) for f, _, _ in waypoints], dtype=float)
    ts = np.arange(horizon + 1, dtype=float)
    x = np.interp(ts, times, np.array([p[1] for p in waypoints]))
    y = np.interp(ts, times, np.array([p[2] for p in waypoints]))
    return np.stack([x, y])


def generate_naval(config: NavalConfig) -> LabeledDataset:
    """Maritime surveillance dataset: positive = normal inbound vessel."""
    rng = np.random.default_rng(config.seed)
    horizon = config.horizon
    signals = []
    labels = []
    ids = []

    def jitter(point, spread):
        return (
            point[0] + rng.uniform(-spread, spread),
            point[1] + rng.uniform(-spread, spread),
        )

    for i in range(config.count_per_class):
        sea = jitter(config.sea, 3.0)
        band = jitter(config.band, 1.5)
        harbor = jitter(config.harbor, 1.5)
        rest = jitter(config.harbor, 1.5)
        signals.append(
            _path(
                horizon,
                [
                    (0.0, *sea),
                    (17 / 60, *band),
                    (40 / 60, *harbor),
                    (1.0, *rest),
                ],
            )
        )
        labels.append(POS_LABEL)
        ids.append(f"pos{i}")

    for i in range(config.count_per_class):
        if i % 2 == 0:
            # Veers to the island (y collapses early) before heading in.
            sea = jitter(config.sea, 3.0)
            island = jitter(config.island, 2.0)
            harbor = jitter(config.harbor, 1.5)
            waypoints = [
                (0.0, *sea),
                (18 / 60, *island),
                (45 / 60, *harbor),
                (1.0, *jitter(config.harbor, 1.5)),
            ]
        else:
            # Loiters in the passage and returns to open sea (x stays high).
            sea = jitter(config.sea, 3.0)
            passage = jitter(config.passage, 1.5)
            loiter = (config.passage[0] - 2 + rng.uniform(-2, 2),
                      config.passage[1] - 1 + rng.uniform(-1.5, 1.5))
            back = (config.sea[0] + 1 + rng.uniform(-3, 3), 40.0 + rng.uniform(-2, 2))
            waypoints = [
                (0.0, *sea),
                (15 / 60, *passage),
                (30 / 60, *loiter),
                (1.0, *back),
            ]
        signals.append(_path(horizon, waypoints))
        labels.append(NEG_LABEL)
        ids.append(f"neg{i}")

    values = np.stack(signals)
    if config.noise > 0:
        values = values + rng.normal(0.0, config.noise, size=values.shape)
    return LabeledDataset(values, np.array(labels), tuple(ids))


def _profile(horizon: int, knots: list[tuple[float, float]]) -> np.ndarray:
    times = np.array([round(f * horizon) for f, _ in knots], dtype=float)
    return np.interp(np.arange(horizon + 1, dtype=float), times, np.array([v for _, v in knots]))


def generate_urban(config: UrbanConfig) -> LabeledDataset:
    """Street-crossing dataset: positive = the lead car brakes to a stop.

    Variables are x1 = relative distance y, x2 = relative height z,
    x3 = relative velocity v_y, x4 = relative velocity v_z.
    """
    rng = np.random.default_rng(config.seed)
    horizon = config.horizon
    signals = []
    labels = []
    ids = []

    for i in range(config.count_per_class):
        brake = 0.70 + rng.uniform(0.0, 0.04)
        ramp_done = brake + 0.12
        gap0 = config.start_gap + rng.uniform(-4, 4)
        gap1 = config.approach_gap + rng.uniform(-3, 3)
        gap2 = config.close_gap + rng.uniform(-1.5, 1.5)
        speed = config.closing_speed + rng.uniform(-0.6, 0.6)
        y = _profile(horizon, [(0.0, gap0), (brake, gap1), (0.94, gap2), (1.0, gap2 - 1)])
        v_y = _profile(
            horizon,
            [(0.0, rng.uniform(-1, 0)), (brake, rng.uniform(-0.5, 0.5)),
             (ramp_done, speed), (1.0, speed)],
        )
        z = 0.12 * y + rng.uniform(-0.05, 0.05)
        v_z = 0.13 * v_y + rng.uniform(-0.02, 0.02)
        signals.append(np.stack([y, z, v_y, v_z]))
        labels.append(POS_LABEL)
        ids.append(f"pos{i}")

    for i in range(config.count_per_class):
        gap0 = config.start_gap - 6 + rng.uniform(-4, 4)
        gap1 = gap0 + 10 + rng.uniform(-2, 4)
        drift = config.drift_speed + rng.uniform(-0.6, 0.6)
        y = _profile(horizon, [(0.0, gap0), (1.0, gap1)])
        v_y = _profile(
            horizon, [(0.0, drift), (0.5, drift + rng.uniform(-0.4, 0.4)), (1.0, drift)]
        )
        z = 0.12 * y + rng.uniform(-0.05, 0.05)
        v_z = 0.13 * v_y + rng.uniform(-0.02, 0.02)
        signals.append(np.stack([y, z, v_y, v_z]))
        labels.append(NEG_LABEL)
        ids.append(f"neg{i}")

    values = np.stack(signals)
    if config.noise > 0:
        values = values + rng.normal(0.0, config.noise, size=values.shape)
    return LabeledDataset(values, np.array(labels), tuple(ids))
