"""Gradient-free maximization over a template's mixed parameter space.

Particles move in the continuous relaxation; before the objective sees them
the positions are projected onto the feasible set: time coordinates are
rounded, clamped and swap-ordered, thresholds are clamped to their bounds,
and paired box faces are repaired so the lower face stays strictly below
the upper one.

:func:`optimize_batch` searches M templates with the same parameter count in
lockstep, one swarm of P particles each, and scores a whole iteration of all
M swarms at once.  Its objective receives the projected swarms as
``(t0[M, P], t1[M, P], thresholds[M, P, k])`` (integer window bounds and
float thresholds; row ``[m, p]`` is particle ``p`` of template ``m``) and
returns ``(values[M, P], tie_values[M, P])``.  The swarms share one
:class:`PsoConfig`, and each draws from its own generator, seeded by the
caller, with one ``Generator.random`` call for the start and one per block
of iterations, which holds the doubles that one call per iteration would
draw, in the same order; a swarm is otherwise independent, so a template's
result is the same in any batch as searched alone.  Each template's result
is the earliest row offered, in iteration then particle order, with the
largest (value, tie value): offered in turn, the first row is taken, then a
strictly larger value wins, and an equal value only with a strictly larger
tie value.  A NaN value or tie value raises ValueError.  :func:`optimize`
adapts a per-valuation objective and tie-break to that contract.  The
returned value, ``-inf`` included, is the one computed for the returned
(already projected) valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .formula import GT, LE, checked_float, checked_int
from .templates import (
    MAX_ACCELERATION,
    TABLE_BUDGET_BYTES,
    VELOCITY_CLAMP,
    PstlTemplate,
    Valuation,
)

Objective = Callable[[Valuation], float]
BatchObjective = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

MAX_SWARM_SIZE = 1024
MAX_ITERATIONS = 10_000
# The most bytes a search's block of iterations holds in random doubles and
# rows offered together, unless one iteration's are larger: a sixteenth of
# the range tables a lockstep batch may hold, so a block stays small beside
# them.
BLOCK_BYTES = TABLE_BUDGET_BYTES // 16


class EmptyParameterSpaceError(ValueError):
    """The template admits no feasible valuation."""


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings.

    ``swarm_size`` is in [2, MAX_SWARM_SIZE] and ``iterations`` in
    [1, MAX_ITERATIONS]: every iteration holds several (swarm size x node
    size) arrays at once, and these bounds keep one search within memory.
    ``cognitive`` and ``social`` are in (0, MAX_ACCELERATION], as
    PstlTemplate's range check assumes.  Each search takes its own seed.
    """

    swarm_size: int = 40
    iterations: int = 60
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49

    def __post_init__(self):
        for name in ("swarm_size", "iterations"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        for name in ("inertia", "cognitive", "social"):
            object.__setattr__(self, name, checked_float(name, getattr(self, name)))
        if not 2 <= self.swarm_size <= MAX_SWARM_SIZE:
            raise ValueError(f"swarm size must be in [2, {MAX_SWARM_SIZE}]")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iteration count must be in [1, {MAX_ITERATIONS}]")
        if not 0 <= self.inertia < 1:
            raise ValueError("inertia must be in [0, 1)")
        if not (0 < self.cognitive <= MAX_ACCELERATION and 0 < self.social <= MAX_ACCELERATION):
            raise ValueError(f"cognitive and social factors must be in (0, {MAX_ACCELERATION}]")


def _face_pairs(template: PstlTemplate) -> list[tuple[int, int]]:
    """Indices of (lower, upper) threshold slots that address the same variable."""
    lower = {var: i for i, (var, op) in enumerate(template.slots) if op == GT}
    upper = {var: i for i, (var, op) in enumerate(template.slots) if op == LE}
    return [(lower[var], upper[var]) for var in lower if var in upper]


def _space(templates: Sequence[PstlTemplate]) -> tuple[np.ndarray, np.ndarray, list]:
    """The parameter box ``lb, ub[M, 1, D]`` of a lockstep batch (the two
    window bounds, then the thresholds) and each template's face pairs."""
    if not all(template.is_bound for template in templates):
        raise ValueError("template must be bound to a dataset before optimization")
    lb = [(0.0, 0.0) + tuple(lo for lo, _ in t.threshold_bounds) for t in templates]
    ub = [(float(t.horizon),) * 2 + tuple(hi for _, hi in t.threshold_bounds) for t in templates]
    pairs = [_face_pairs(template) for template in templates]
    return np.array(lb)[:, np.newaxis], np.array(ub)[:, np.newaxis], pairs


def _project_all(
    positions: np.ndarray, lb: np.ndarray, ub: np.ndarray, pairs: list[list[tuple[int, int]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project each particle of the stacked ``positions[M, P, D]`` onto the
    feasible set of the box ``lb, ub[M, 1, D]`` and face pairs ``pairs[M]``
    that :func:`_space` builds.

    Returns ``(t0[M, P], t1[M, P], thresholds[M, P, k])``.  Rounding is half
    to even, as Python's ``round``.  The window bounds are integers, so
    rounding a clipped time gives the integer that clipping a rounded one
    does, and one clip serves every coordinate.
    """
    clipped = positions.clip(lb, ub)
    times = np.rint(clipped[..., :2]).astype(np.intp)
    t0, t1 = np.minimum(times[..., 0], times[..., 1]), np.maximum(times[..., 0], times[..., 1])
    thresholds = clipped[..., 2:]
    for m, faces in enumerate(pairs):
        for gi, li in faces:
            lower, upper = thresholds[m, :, gi], thresholds[m, :, li]
            swap = lower >= upper
            lower, upper = np.where(swap, upper, lower), np.where(swap, lower, upper)
            # Equal after the swap: open a minimal gap without leaving bounds.
            tied = lower >= upper
            eps = np.maximum(1e-9, 1e-12 * np.maximum(np.abs(lower), 1.0))
            raise_upper = upper + eps <= ub[m, 0, 2 + li]
            thresholds[m, :, gi] = np.where(tied & ~raise_upper, lower - eps, lower)
            thresholds[m, :, li] = np.where(tied & raise_upper, upper + eps, upper)
    return t0, t1, thresholds


def _block_iterations(iteration_bytes: int, iterations: int) -> int:
    """How many of ``iterations`` iterations, each of ``iteration_bytes``
    bytes, one block of BLOCK_BYTES holds, and at least one."""
    return max(1, min(iterations, BLOCK_BYTES // iteration_bytes))


def _first_largest(values: np.ndarray, tie_values: np.ndarray) -> np.ndarray:
    """Per row of ``values, tie_values[M, R]``, the first column with the
    largest (value, tie value)."""
    top = values == values.max(axis=1, keepdims=True)
    top_ties = np.where(top, tie_values, -np.inf)
    return np.argmax(top & (top_ties == top_ties.max(axis=1, keepdims=True)), axis=1)


def optimize_batch(
    templates: Sequence[PstlTemplate],
    objective: BatchObjective,
    config: PsoConfig,
    seeds: Sequence[int],
) -> list[tuple[Valuation, float, float]]:
    """Maximize a batch ``objective`` over each template's parameter space,
    with one swarm per template, stepped in lockstep.

    The templates share their parameter count, and each swarm draws from a
    generator seeded by its entry of ``seeds``.  Returns, per template, the
    best valuation with its value and tie value: the earliest row offered,
    in iteration then particle order, with the largest (value, tie value).
    A template's result depends only on its template, seed, the config and
    its objective rows, so it is the same in any batch as searched alone.
    The best value seen is non-decreasing over iterations; a NaN value or
    tie value raises ValueError.  One eighth of each swarm re-samples its
    position uniformly every iteration; projected objectives are piecewise
    constant, and without that exploration the swarm can stall on the first
    plateau it reaches.

    Random doubles are drawn, and the rows offered recorded, in blocks of
    iterations that hold at most BLOCK_BYTES together; the incumbents are
    picked once per block, and the iteration loop only moves the swarms and
    scores them.
    """
    templates = tuple(templates)
    seeds = tuple(seeds)
    if not templates or len(seeds) != len(templates):
        raise ValueError("need at least one template and one seed per template")
    if len({len(template.slots) for template in templates}) != 1:
        raise ValueError("templates searched in lockstep must have one parameter count")
    lb, ub, pairs = _space(templates)
    if any(not lb[m, 0, 2 + gi] < ub[m, 0, 2 + li]
           for m, faces in enumerate(pairs) for gi, li in faces):
        raise EmptyParameterSpaceError("no room for a lower face strictly below the upper face")
    span = ub - lb
    vmax = VELOCITY_CLAMP * np.where(span > 0, span, 1.0)
    vmin = -vmax
    count, dims = lb.shape[0], lb.shape[2]
    swarm = config.swarm_size
    scouts = max(1, swarm // 8)
    drawn = 2 * swarm + scouts
    # Each swarm draws from its own generator: a block of unit doubles for the
    # start, then per block of iterations one block holding, per iteration,
    # r_cog, r_soc and the scouts, in that order.  PCG64 makes one double per
    # output and buffers none, so these are the doubles of one call per
    # iteration.  Positions scale a unit draw as lb + span * u, the bits
    # Generator.uniform(lb, ub) computes from the same doubles; PstlTemplate
    # keeps every span finite, where uniform would raise OverflowError.  Each
    # block is scaled in place: cognitive * r_cog, social * r_soc, and the
    # scouts' positions.
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # Each block of iterations also records every row offered, in iteration
    # then particle order, after column 0, which holds the incumbent of the
    # iterations before: the first column with the largest (value, tie value)
    # is then the incumbent that offering every row in turn gives, where the
    # first row is taken and a later one only if it is strictly larger.
    iteration_bytes = count * (drawn * dims + swarm * (dims + 2)) * np.dtype(float).itemsize
    block = _block_iterations(iteration_bytes, config.iterations)
    draws = np.empty((count, block, drawn, dims))
    columns = 1 + block * swarm
    seen_t0, seen_t1 = np.empty((2, count, columns), np.intp)
    seen_thresholds = np.empty((count, columns, dims - 2))
    seen_values, seen_ties = np.empty((2, count, columns))
    seen = (seen_t0, seen_t1, seen_thresholds, seen_values, seen_ties)
    which = np.arange(count)

    positions = lb + span * np.stack([rng.random((swarm, dims)) for rng in rngs])
    velocities = np.zeros_like(positions)
    step = np.empty_like(positions)
    particle_best_pos = positions.copy()
    particle_best_val = np.full((count, swarm), -np.inf)
    flat_best_pos = particle_best_pos.reshape(-1, dims)  # a view: one row per particle
    firsts = which * swarm

    def offer(offered: slice) -> None:
        """Score the swarms, record their rows in ``offered`` columns and
        update the particle bests."""
        t0, t1, thresholds = _project_all(positions, lb, ub, pairs)
        values, tie_values = objective(t0, t1, thresholds)
        for record, rows in zip(seen, (t0, t1, thresholds, values, tie_values)):
            record[:, offered] = rows
        # A NaN value is never larger, so it never enters a particle best.
        improved = values > particle_best_val
        np.copyto(particle_best_val, values, where=improved)
        np.copyto(particle_best_pos, positions, where=improved[..., np.newaxis])

    def fold(stop: int) -> None:
        """Move the first largest of columns ``[0, stop)`` into column 0."""
        values_seen, ties_seen = seen_values[:, :stop], seen_ties[:, :stop]
        if np.isnan(values_seen).any() or np.isnan(ties_seen).any():
            raise ValueError("the objective returned NaN")
        column = _first_largest(values_seen, ties_seen)
        for record in seen:
            record[:, 0] = record[which, column]

    # The start's rows fill columns 0 to P - 1, so its first largest row
    # becomes the incumbent; each block's rows follow column 0.
    offer(slice(0, swarm))
    fold(swarm)
    for first in range(1, config.iterations + 1, block):
        size = min(block, config.iterations + 1 - first)
        for rng, out in zip(rngs, draws[:, :size]):
            rng.random(out.shape, out=out)
        draws[:, :size, :swarm] *= config.cognitive
        draws[:, :size, swarm:-scouts] *= config.social
        scout = draws[:, :size, -scouts:]
        scout *= span[:, np.newaxis]
        scout += lb[:, np.newaxis]
        for k in range(size):
            # inertia * v + c1 * r_cog * (pbest - x) + c2 * r_soc * (gbest - x),
            # each product and sum the same one on the same operands.
            velocities *= config.inertia
            np.subtract(particle_best_pos, positions, out=step)
            step *= draws[:, k, :swarm]
            velocities += step
            leaders = flat_best_pos.take(particle_best_val.argmax(axis=1) + firsts, axis=0)
            np.subtract(leaders[:, np.newaxis], positions, out=step)
            step *= draws[:, k, swarm:-scouts]
            velocities += step
            velocities.clip(vmin, vmax, out=velocities)
            positions += velocities
            positions.clip(lb, ub, out=positions)
            positions[:, -scouts:] = draws[:, k, -scouts:]
            velocities[:, -scouts:] = 0.0
            offer(slice(1 + k * swarm, 1 + (k + 1) * swarm))
        fold(1 + size * swarm)

    rows = zip(seen_t0[:, 0].tolist(), seen_t1[:, 0].tolist(), seen_thresholds[:, 0].tolist(),
               seen_values[:, 0].tolist(), seen_ties[:, 0].tolist())
    return [(Valuation(a, b, cuts), value, tie) for a, b, cuts, value, tie in rows]


def _per_valuation(
    objective: Objective, tie_break: Callable[[Valuation], float] | None
) -> BatchObjective:
    """A batch objective that calls ``objective`` and ``tie_break`` on each
    row's valuation; without a tie-break every tie value is 0, so an equal
    value never replaces the incumbent."""

    def batch(t0, t1, thresholds):
        rows = zip(t0.ravel().tolist(), t1.ravel().tolist(),
                   thresholds.reshape(-1, thresholds.shape[-1]).tolist())
        valuations = [Valuation(a, b, cuts) for a, b, cuts in rows]
        values = np.array([float(objective(v)) for v in valuations]).reshape(t0.shape)
        if tie_break is None:
            return values, np.zeros(t0.shape)
        return values, np.array([float(tie_break(v)) for v in valuations]).reshape(t0.shape)

    return batch


def optimize(
    template: PstlTemplate,
    objective: Objective,
    config: PsoConfig,
    tie_break: Callable[[Valuation], float] | None = None,
    seed: int = 0,
) -> tuple[Valuation, float]:
    """Maximize a per-valuation ``objective`` over the template's parameter
    space with :func:`optimize_batch`, one swarm seeded by ``seed``.

    The returned value is exactly ``objective`` at the returned valuation.
    """
    [(valuation, value, _)] = optimize_batch(
        (template,), _per_valuation(objective, tie_break), config, (seed,)
    )
    return valuation, value
