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

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, NEG_LABEL, POS_LABEL
from .pso import checked_float, checked_int


MAX_VALUES = 10**8  # signal values one generated dataset may hold: 800 MB of floats
# The largest noise scale.  ``rng.normal`` turns a draw z into noise * z, and
# a scale this large overflows a float only for |z| above 1.7e8 standard
# deviations; numpy's normal draws stay under 14, so every value is finite.
MAX_NOISE = 1e300

# Maritime geometry (positions in abstract map units).  The island leg
# mirrors the normal x profile so no single x window tells them apart; the
# low island y and the loiterer's high x carry the class information.
SEA = (66.0, 41.0)
BAND = (43.5, 29.0)
HARBOR = (22.0, 24.0)
ISLAND = (45.0, 14.0)
PASSAGE = (53.0, 29.0)

# Street kinematics: distance profile endpoints and velocity-gap plateau.
START_GAP = 38.0
APPROACH_GAP = 30.0
CLOSE_GAP = 4.0
CLOSING_SPEED = 9.5
DRIFT_SPEED = -1.2


def _check_config(config, dimension: int, min_horizon: int, geometry: str) -> None:
    for name in ("count_per_class", "horizon", "seed"):
        object.__setattr__(config, name, checked_int(name, getattr(config, name)))
    if config.count_per_class < 1:
        raise ValueError("count_per_class must be at least 1")
    if config.horizon < min_horizon:
        raise ValueError(f"{geometry} geometry needs a horizon of at least {min_horizon}")
    size = 2 * config.count_per_class * dimension * (config.horizon + 1)
    if size > MAX_VALUES:
        raise ValueError(f"{2 * config.count_per_class} signals of {dimension} x "
                         f"{config.horizon + 1} values exceed the {MAX_VALUES} value limit")
    object.__setattr__(config, "noise", checked_float("noise", config.noise))
    if not 0 <= config.noise <= MAX_NOISE:
        raise ValueError(f"noise must be in [0, {MAX_NOISE:g}], got {config.noise!r}")
    if config.seed < 0:
        raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class NavalConfig:
    count_per_class: int = 100
    horizon: int = 60
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_config(self, dimension=2, min_horizon=30, geometry="maritime")


@dataclass(frozen=True)
class UrbanConfig:
    count_per_class: int = 150
    horizon: int = 499
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_config(self, dimension=4, min_horizon=100, geometry="street")


def _profile(horizon: int, knots: list[tuple[float, float]]) -> np.ndarray:
    """Piecewise-linear (T+1,) series through (time_fraction, value) knots."""
    times = np.array([round(f * horizon) for f, _ in knots], dtype=float)
    return np.interp(np.arange(horizon + 1, dtype=float), times, np.array([v for _, v in knots]))


def _path(horizon: int, waypoints: list[tuple[float, float, float]]) -> np.ndarray:
    """Piecewise-linear (2, T+1) track through (time_fraction, x, y) waypoints."""
    return np.stack([_profile(horizon, [(f, x) for f, x, _ in waypoints]),
                     _profile(horizon, [(f, y) for f, _, y in waypoints])])


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
        sea = jitter(SEA, 3.0)
        band = jitter(BAND, 1.5)
        harbor = jitter(HARBOR, 1.5)
        rest = jitter(HARBOR, 1.5)
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
            sea = jitter(SEA, 3.0)
            island = jitter(ISLAND, 2.0)
            harbor = jitter(HARBOR, 1.5)
            waypoints = [
                (0.0, *sea),
                (18 / 60, *island),
                (45 / 60, *harbor),
                (1.0, *jitter(HARBOR, 1.5)),
            ]
        else:
            # Loiters in the passage and returns to open sea (x stays high).
            sea = jitter(SEA, 3.0)
            passage = jitter(PASSAGE, 1.5)
            loiter = (PASSAGE[0] - 2 + rng.uniform(-2, 2),
                      PASSAGE[1] - 1 + rng.uniform(-1.5, 1.5))
            back = (SEA[0] + 1 + rng.uniform(-3, 3), 40.0 + rng.uniform(-2, 2))
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
        gap0 = START_GAP + rng.uniform(-4, 4)
        gap1 = APPROACH_GAP + rng.uniform(-3, 3)
        gap2 = CLOSE_GAP + rng.uniform(-1.5, 1.5)
        speed = CLOSING_SPEED + rng.uniform(-0.6, 0.6)
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
        gap0 = START_GAP - 6 + rng.uniform(-4, 4)
        gap1 = gap0 + 10 + rng.uniform(-2, 4)
        drift = DRIFT_SPEED + rng.uniform(-0.6, 0.6)
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
