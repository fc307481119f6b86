"""Gradient-free maximization over a template's mixed parameter space.

Particles move in the continuous relaxation; before the objective sees them
the positions are projected onto the feasible set: time coordinates are
rounded, clamped and swap-ordered, thresholds are clamped to their bounds,
and paired box faces are repaired so the lower face stays strictly below
the upper one.

The swarm scores a whole iteration at once.  A batch objective receives the
projected swarm as ``(t0[P], t1[P], thresholds[P, k])`` (integer window
bounds and float thresholds, one row per particle) and returns
``(values[P], tie_values[P])``.  Candidates are offered to the incumbent in
particle order: a strictly larger value wins, and an equal value wins only
with a strictly larger tie value.  :func:`optimize` adapts a per-valuation
objective and tie-break to that contract.  The returned value is the one
computed for the returned (already projected) valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .formula import GT, LE
from .templates import PstlTemplate, Valuation

Objective = Callable[[Valuation], float]
BatchObjective = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

MAX_SWARM_SIZE = 1024
MAX_ITERATIONS = 10_000


class EmptyParameterSpaceError(ValueError):
    """The template admits no feasible valuation."""


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings.

    ``swarm_size`` is in [2, MAX_SWARM_SIZE] and ``iterations`` in
    [1, MAX_ITERATIONS]: every iteration holds several (swarm size x node
    size) arrays at once, and these bounds keep one search within memory.
    """

    swarm_size: int = 40
    iterations: int = 60
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    velocity_clamp: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.swarm_size <= MAX_SWARM_SIZE:
            raise ValueError(f"swarm size must be in [2, {MAX_SWARM_SIZE}]")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iteration count must be in [1, {MAX_ITERATIONS}]")
        if not 0 <= self.inertia < 1:
            raise ValueError("inertia must be in [0, 1)")
        if self.cognitive <= 0 or self.social <= 0:
            raise ValueError("cognitive and social factors must be positive")
        if not 0 < self.velocity_clamp <= 1:
            raise ValueError("velocity clamp must be in (0, 1]")


def _face_pairs(template: PstlTemplate) -> list[tuple[int, int]]:
    """Indices of (lower, upper) threshold slots that address the same variable."""
    lower = {var: i for i, (var, op) in enumerate(template.slots) if op == GT}
    upper = {var: i for i, (var, op) in enumerate(template.slots) if op == LE}
    return [(lower[var], upper[var]) for var in lower if var in upper]


def _project_all(
    template: PstlTemplate, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project each row of ``positions`` onto the feasible set.

    Returns ``(t0[P], t1[P], thresholds[P, k])``.  Rounding is half to even,
    as Python's ``round``.
    """
    times = np.clip(np.rint(positions[:, :2]), 0, template.horizon).astype(np.intp)
    t0 = times.min(axis=1)
    t1 = times.max(axis=1)
    lows, highs = np.array(template.threshold_bounds).T
    thresholds = np.clip(positions[:, 2:], lows, highs)
    for gi, li in _face_pairs(template):
        lower, upper = thresholds[:, gi], thresholds[:, li]
        swap = lower >= upper
        lower, upper = np.where(swap, upper, lower), np.where(swap, lower, upper)
        # Equal after the swap: open a minimal gap without leaving bounds.
        tied = lower >= upper
        eps = np.maximum(1e-9, 1e-12 * np.maximum(np.abs(lower), 1.0))
        raise_upper = upper + eps <= highs[li]
        thresholds[:, gi] = np.where(tied & ~raise_upper, lower - eps, lower)
        thresholds[:, li] = np.where(tied & raise_upper, upper + eps, upper)
    return t0, t1, thresholds


def _project(template: PstlTemplate, position: np.ndarray) -> Valuation:
    t0, t1, thresholds = _project_all(template, np.asarray(position, dtype=float)[np.newaxis])
    return Valuation(t0[0], t1[0], thresholds[0])


class _Best:
    """The incumbent; ties on the value fall back to the tie value, which is
    None until there is an incumbent."""

    __slots__ = ("valuation", "value", "tie_value")

    def __init__(self):
        self.valuation = None
        self.value = -np.inf
        self.tie_value = None

    def offer(self, t0, t1, thresholds, values, tie_values) -> None:
        """Offer a batch of candidates in row order."""
        chosen = None
        for row, (value, tie_value) in enumerate(zip(values.tolist(), tie_values.tolist())):
            if value > self.value or (
                value == self.value and self.tie_value is not None and tie_value > self.tie_value
            ):
                chosen, self.value, self.tie_value = row, value, tie_value
        if chosen is not None:
            self.valuation = Valuation(t0[chosen], t1[chosen], thresholds[chosen])


def _space_arrays(template: PstlTemplate) -> tuple[np.ndarray, np.ndarray]:
    if not template.is_bound:
        raise ValueError("template must be bound to a dataset before optimization")
    lows = [0.0, 0.0] + [lo for lo, _ in template.threshold_bounds]
    highs = [float(template.horizon)] * 2 + [hi for _, hi in template.threshold_bounds]
    lb = np.array(lows)
    ub = np.array(highs)
    if np.any(lb > ub):
        raise EmptyParameterSpaceError("threshold bounds are inverted")
    for gi, li in _face_pairs(template):
        if not template.threshold_bounds[gi][0] < template.threshold_bounds[li][1]:
            raise EmptyParameterSpaceError(
                "no room for a lower face strictly below the upper face"
            )
    return lb, ub


def optimize_batch(
    template: PstlTemplate, objective: BatchObjective, config: PsoConfig
) -> tuple[Valuation, float, float]:
    """Maximize a batch ``objective`` over the template's parameter space.

    Returns the best valuation with its value and tie value.  Deterministic
    for a given (template, config, objective).  The best value seen is
    non-decreasing over iterations.  One eighth of the swarm re-samples its
    position uniformly every iteration; projected objectives are piecewise
    constant, and without that exploration the swarm can stall on the first
    plateau it reaches.
    """
    lb, ub = _space_arrays(template)
    span = ub - lb
    vmax = config.velocity_clamp * np.where(span > 0, span, 1.0)
    rng = np.random.default_rng(config.seed)
    dims = lb.size
    scouts = max(1, config.swarm_size // 8)

    positions = rng.uniform(lb, ub, size=(config.swarm_size, dims))
    velocities = np.zeros_like(positions)
    particle_best_pos = positions.copy()
    particle_best_val = np.full(config.swarm_size, -np.inf)
    best = _Best()

    for iteration in range(config.iterations + 1):
        if iteration:
            r_cog = rng.uniform(size=(config.swarm_size, dims))
            r_soc = rng.uniform(size=(config.swarm_size, dims))
            best_raw = particle_best_pos[int(np.argmax(particle_best_val))]
            velocities = (
                config.inertia * velocities
                + config.cognitive * r_cog * (particle_best_pos - positions)
                + config.social * r_soc * (best_raw - positions)
            )
            np.clip(velocities, -vmax, vmax, out=velocities)
            positions = np.clip(positions + velocities, lb, ub)
            positions[-scouts:] = rng.uniform(lb, ub, size=(scouts, dims))
            velocities[-scouts:] = 0.0
        t0, t1, thresholds = _project_all(template, positions)
        values, tie_values = objective(t0, t1, thresholds)
        improved = values > particle_best_val
        particle_best_val[improved] = values[improved]
        particle_best_pos[improved] = positions[improved]
        best.offer(t0, t1, thresholds, values, tie_values)

    return best.valuation, best.value, best.tie_value


def _per_valuation(
    objective: Objective, tie_break: Callable[[Valuation], float] | None
) -> BatchObjective:
    """A batch objective that calls ``objective`` and ``tie_break`` on each
    row's valuation; without a tie-break every tie value is 0, so an equal
    value never replaces the incumbent."""

    def batch(t0, t1, thresholds):
        valuations = [
            Valuation(a, b, row)
            for a, b, row in zip(t0.tolist(), t1.tolist(), thresholds.tolist())
        ]
        values = np.array([float(objective(v)) for v in valuations])
        if tie_break is None:
            return values, np.zeros(len(valuations))
        return values, np.array([float(tie_break(v)) for v in valuations])

    return batch


def optimize(
    template: PstlTemplate,
    objective: Objective,
    config: PsoConfig,
    tie_break: Callable[[Valuation], float] | None = None,
) -> tuple[Valuation, float]:
    """Maximize a per-valuation ``objective`` over the template's parameter
    space with :func:`optimize_batch`.

    The returned value is exactly ``objective`` at the returned valuation.
    """
    valuation, value, _ = optimize_batch(template, _per_valuation(objective, tie_break), config)
    return valuation, value
