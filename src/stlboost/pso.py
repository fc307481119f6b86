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
caller, with one ``Generator.random`` call for the start and one per
iteration; it is otherwise independent, so a template's result is the same
in any batch as searched alone.  Candidates are offered to each template's
incumbent in particle order: the first is taken, then a strictly larger
value wins, and an equal value only with a strictly larger tie value; a NaN
value or tie value raises ValueError.  :func:`optimize` adapts a per-valuation
objective and tie-break to that contract.  The returned value, ``-inf``
included, is the one computed for the returned (already projected) valuation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .formula import GT, LE
from .templates import MAX_ACCELERATION, VELOCITY_CLAMP, PstlTemplate, Valuation

Objective = Callable[[Valuation], float]
BatchObjective = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

MAX_SWARM_SIZE = 1024
MAX_ITERATIONS = 10_000


class EmptyParameterSpaceError(ValueError):
    """The template admits no feasible valuation."""


def checked_int(name: str, value) -> int:
    """``value`` as a Python int, so a model file can hold it; raises
    ValueError naming ``name`` unless it is a Python or numpy integer (a
    bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def checked_float(name: str, value) -> float:
    """``value`` as a Python float, so a model file can hold it; raises
    ValueError naming ``name`` unless it is a real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
    to even, as Python's ``round``.
    """
    times = np.clip(np.rint(positions[..., :2]), lb[..., :2], ub[..., :2]).astype(np.intp)
    t0, t1 = times.min(axis=2), times.max(axis=2)
    thresholds = np.clip(positions[..., 2:], lb[..., 2:], ub[..., 2:])
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
    best valuation with its value and tie value.  A template's result depends
    only on its template, seed, the config and its objective rows, so it is
    the same in any batch as searched alone.  The best value seen is
    non-decreasing over iterations; a NaN value or tie value raises ValueError.
    One eighth of each swarm re-samples its position uniformly every
    iteration; projected objectives are piecewise constant, and without that
    exploration the swarm can stall on the first plateau it reaches.
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
    swarm = config.swarm_size
    scouts = max(1, swarm // 8)
    # Each swarm draws from its own generator: a block of unit doubles for the
    # start, then per iteration one block holding r_cog, r_soc and the scouts,
    # in that order.  Positions scale a unit draw as lb + span * u, the bits
    # Generator.uniform(lb, ub) computes from the same doubles; PstlTemplate
    # keeps every span finite, where uniform would raise OverflowError.
    rngs = [np.random.default_rng(seed) for seed in seeds]
    dims = lb.shape[2]

    positions = lb + span * np.stack([rng.random((swarm, dims)) for rng in rngs])
    velocities = np.zeros_like(positions)
    particle_best_pos = positions.copy()
    particle_best_val = np.full((len(templates), swarm), -np.inf)
    which = np.arange(len(templates))
    best_t0, best_t1 = np.zeros((2, len(templates)), np.intp)
    best_thresholds = np.zeros((len(templates), dims - 2))
    best_value, best_tie = np.full((2, len(templates)), -np.inf)

    for iteration in range(config.iterations + 1):
        if iteration:
            draws = np.stack([rng.random((2 * swarm + scouts, dims)) for rng in rngs])
            r_cog, r_soc, scout = draws[:, :swarm], draws[:, swarm:-scouts], draws[:, -scouts:]
            leaders = np.argmax(particle_best_val, axis=1)
            best_raw = particle_best_pos[which, leaders][:, np.newaxis]
            velocities = (
                config.inertia * velocities
                + config.cognitive * r_cog * (particle_best_pos - positions)
                + config.social * r_soc * (best_raw - positions)
            )
            np.clip(velocities, -vmax, vmax, out=velocities)
            positions = np.clip(positions + velocities, lb, ub)
            positions[:, -scouts:] = lb + span * scout
            velocities[:, -scouts:] = 0.0
        t0, t1, thresholds = _project_all(positions, lb, ub, pairs)
        values, tie_values = objective(t0, t1, thresholds)
        if np.isnan(values).any() or np.isnan(tie_values).any():
            raise ValueError("the objective returned NaN")
        improved = values > particle_best_val
        particle_best_val[improved] = values[improved]
        particle_best_pos[improved] = positions[improved]
        # Each swarm's first row with the largest (value, tie value) replaces
        # its incumbent if it is strictly larger; the first iteration's does.
        top = values == values.max(axis=1, keepdims=True)
        top_ties = np.where(top, tie_values, -np.inf)
        row = np.argmax(top & (top_ties == top_ties.max(axis=1, keepdims=True)), axis=1)
        value, tie = values[which, row], tie_values[which, row]
        take = (value > best_value) | (value == best_value) & (tie > best_tie) | (iteration == 0)
        best_t0[take], best_t1[take] = t0[which, row][take], t1[which, row][take]
        best_thresholds[take] = thresholds[which, row][take]
        best_value[take], best_tie[take] = value[take], tie[take]

    rows = zip(best_t0.tolist(), best_t1.tolist(), best_thresholds.tolist(),
               best_value.tolist(), best_tie.tolist())
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
