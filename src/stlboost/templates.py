"""Parametric split templates: a temporal operator over a box with free
interval endpoints and free thresholds.

A template fixes the operator shape and which (variable, comparator) faces
exist; a valuation supplies concrete integer time bounds and thresholds.
Threshold search bounds come from the data range of each variable, padded
by one percent so boundary splits stay reachable.  :func:`batch_robustness`
scores many valuations at once from range tables of window minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .data import LabeledDataset
from .formula import (
    GT,
    LE,
    Always,
    BoxPredicate,
    Conjunct,
    Eventually,
    Formula,
    Predicate,
    box_window_rho,
    checked_int,
    face_rho,
    range_query,
    range_table,
)

ALWAYS = "G"
EVENTUALLY = "F"
MAX_ACCELERATION = 4.0  # the largest cognitive and social factors of a swarm
VELOCITY_CLAMP = 0.5  # a swarm's largest velocity component, as a fraction of its span


class ThresholdRangeError(ValueError):
    """A variable's threshold bounds are so large or so far apart that a
    swarm's velocity step over them could overflow a float: before its clip
    a velocity is at most VELOCITY_CLAMP + 2 * MAX_ACCELERATION spans, and
    after it a particle moves at most VELOCITY_CLAMP spans from a position
    within max(-lo, hi) of zero."""


@dataclass(frozen=True)
class Valuation:
    """Concrete parameter values for a template: window and thresholds."""

    t_start: int
    t_end: int
    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "t_start", checked_int("t_start", self.t_start))
        object.__setattr__(self, "t_end", checked_int("t_end", self.t_end))
        object.__setattr__(self, "thresholds", tuple(float(v) for v in self.thresholds))
        if self.t_start < 0 or self.t_start > self.t_end:
            raise ValueError(f"invalid window [{self.t_start},{self.t_end}]")


@dataclass(frozen=True)
class PstlTemplate:
    """Shape ``G``/``F`` over free faces ``slots`` = ((var, op), ...).

    ``threshold_bounds`` and ``horizon`` may be None for an unbound template;
    bind one to a dataset before optimizing over it.
    """

    shape: str
    slots: tuple[tuple[int, str], ...]
    threshold_bounds: tuple[tuple[float, float], ...] | None = None
    horizon: int | None = None

    def __post_init__(self):
        if self.shape not in (ALWAYS, EVENTUALLY):
            raise ValueError(f"shape must be {ALWAYS!r} or {EVENTUALLY!r}")
        slots = tuple((checked_int("slot variable", v), op) for v, op in self.slots)
        object.__setattr__(self, "slots", slots)
        if not slots:
            raise ValueError("template needs at least one free face")
        if len(set(slots)) != len(slots):
            raise ValueError("duplicate (variable, comparator) face")
        for var, op in slots:
            if var < 1 or op not in (GT, LE):
                raise ValueError(f"bad slot ({var}, {op!r})")
        if self.threshold_bounds is not None:
            bounds = tuple((float(lo), float(hi)) for lo, hi in self.threshold_bounds)
            object.__setattr__(self, "threshold_bounds", bounds)
            if len(bounds) != len(slots):
                raise ValueError("one bound pair per free threshold required")
            for (var, _), (lo, hi) in zip(slots, bounds):
                if not lo <= hi:
                    raise ValueError(f"invalid threshold bounds ({lo}, {hi})")
                span = hi - lo
                if not (math.isfinite((VELOCITY_CLAMP + 2 * MAX_ACCELERATION) * span)
                        and math.isfinite(max(-lo, hi) + VELOCITY_CLAMP * span)):
                    raise ThresholdRangeError(
                        f"the values of x{var} span too wide a range to search for a "
                        f"threshold: [{lo!r}, {hi!r}]"
                    )
        if self.horizon is not None:
            object.__setattr__(self, "horizon", checked_int("horizon", self.horizon))
            if self.horizon < 0:
                raise ValueError("horizon must be non-negative")

    @property
    def is_bound(self) -> bool:
        return self.threshold_bounds is not None and self.horizon is not None

    def bound_to(self, dataset: LabeledDataset) -> "PstlTemplate":
        """Attach threshold bounds (data range + 1% padding) and the horizon.

        Raises :class:`ThresholdRangeError`, naming the variable, when a
        swarm's velocity step over the padded bounds could overflow.
        """
        bounds = []
        for var, _ in self.slots:
            column = dataset.values[:, var - 1, :]
            lo = float(column.min())
            hi = float(column.max())
            pad = 0.01 * (hi - lo)
            if pad == 0.0:
                pad = max(1e-6, 1e-6 * abs(lo))
            bounds.append((lo - pad, hi + pad))
        return PstlTemplate(self.shape, self.slots, tuple(bounds), dataset.horizon)

    def instantiate(self, valuation: Valuation) -> Formula:
        conjuncts = tuple(
            Conjunct(var, op, threshold)
            for (var, op), threshold in zip(self.slots, valuation.thresholds)
        )
        predicate = Predicate(BoxPredicate(conjuncts))
        if self.shape == ALWAYS:
            return Always(valuation.t_start, valuation.t_end, predicate)
        return Eventually(valuation.t_start, valuation.t_end, predicate)


def first_order_templates(
    dimension: int, shapes: tuple[str, ...] = (ALWAYS, EVENTUALLY)
) -> tuple[PstlTemplate, ...]:
    """All single-face templates over ``dimension`` variables, unbound.

    Enumeration order (shape, variable, comparator) is fixed so that ties in
    the downstream search break deterministically.
    """
    return tuple(
        PstlTemplate(shape, ((var, op),))
        for shape in shapes
        for var in range(1, dimension + 1)
        for op in (LE, GT)
    )


BatchRobustness = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# The most bytes of range tables one lockstep batch holds at once, unless a
# single template's tables are larger (see :func:`lockstep_batches`), and of
# each (templates x particles, signals) array of one scoring pass, unless one
# particle per template is larger (see :func:`particles_per_pass`).
TABLE_BUDGET_BYTES = 4 << 20


def _table_keys(template: PstlTemplate) -> tuple[tuple[int, int], ...] | None:
    """The (variable, sign) range table each face of ``template`` reads, a
    table of the window minima of sign * x, or None for ``F`` over several
    faces, which reads window slices instead."""
    if template.shape == EVENTUALLY and len(template.slots) > 1:
        return None
    # G over x > c needs the window minimum of x; G over x <= c, the maximum,
    # which is minus the minimum of -x.  F flips both.
    return tuple(
        (var, 1 if (op == GT) == (template.shape == ALWAYS) else -1)
        for var, op in template.slots
    )


def table_bytes(signals: int, width: int) -> int:
    """Bytes of one range table over ``signals`` series of ``width`` samples."""
    return width.bit_length() * signals * width * np.dtype(float).itemsize


def lockstep_batches(
    templates: tuple[PstlTemplate, ...], signals: int, width: int
) -> list[list[int]]:
    """Split bound templates into batches for :func:`batch_robustness` over
    ``signals`` series of ``width`` samples and a lockstep search, as lists
    of template indices.

    Templates that read the same range tables go in one batch.  A batch takes
    such groups in template order while its distinct tables fit
    TABLE_BUDGET_BYTES, so it never holds more than the budget or one group's
    tables, whichever is larger.  A batch's templates share their parameter
    count, and an ``F`` over several faces is a batch of its own.
    """
    one_table = table_bytes(signals, width)
    groups: dict[object, list[int]] = {}  # the tables read, or the index of an F
    for index, template in enumerate(templates):
        keys = _table_keys(template)
        groups.setdefault(index if keys is None else frozenset(keys), []).append(index)
    batches: list[list[int]] = []
    open_tables = None  # the last batch's tables, while it may take more templates
    for group, indices in groups.items():
        tables = group if isinstance(group, frozenset) else None
        if (
            tables is not None
            and open_tables is not None
            and len(templates[indices[0]].slots) == len(templates[batches[-1][0]].slots)
            and len(open_tables | tables) * one_table <= TABLE_BUDGET_BYTES
        ):
            batches[-1].extend(indices)
            open_tables |= tables
        else:
            batches.append(list(indices))
            open_tables = tables
    return batches


def particles_per_pass(templates: int, signals: int) -> int:
    """How many particles of each of ``templates`` swarms one scoring pass
    over ``signals`` signals takes: as many as keep each (templates x
    particles, signals) float array within TABLE_BUDGET_BYTES, and at least
    one."""
    particle_bytes = templates * max(signals, 1) * np.dtype(float).itemsize
    return max(1, TABLE_BUDGET_BYTES // particle_bytes)


def batch_robustness(templates: tuple[PstlTemplate, ...], values: np.ndarray) -> BatchRobustness:
    """Robustness of M templates with one parameter count, each at P
    valuations, over N signals.

    Returns ``rho(t0[M, P], t1[M, P], thresholds[M, P, k]) -> (M, P, N)``
    whose row ``[m, p]`` equals, bit for bit, ``robustness_all`` of template
    ``m`` at its valuation ``p`` over ``values``.

    ``G`` over any box and ``F`` over one face read each face's window
    extremum from a range table: rounding is monotone, so ``min_t fl(x_t -
    c) == fl(min_t x_t - c)``, and the minimum over faces commutes with
    ``G``'s minimum over time.  There is one table per distinct (variable,
    sign) of :func:`_table_keys`, so ``G`` over ``x > c`` and ``F`` over
    ``x <= c`` share the table of x.  With m its minimum, a face reads
    ``face_rho(shape, sign * c, m)``, shape +1 for ``G`` and -1 for ``F``:
    ``G`` over ``x <= c`` gives ``m + c``, that is ``c - max x``, and ``F``
    over ``x > c`` gives ``-(m + c)``, that is ``max x - c``.  ``F`` over
    several faces (only merged templates) does not commute: it takes window
    slices per valuation and is searched alone.  The tables live as long as
    the returned function.
    """
    values = np.asarray(values, dtype=float)
    templates = tuple(templates)
    keys = [_table_keys(template) for template in templates]
    if None in keys:
        if len(templates) > 1:
            raise ValueError("an F over several faces is searched alone")
        faces = templates[0].slots

        def sliced(t0, t1, thresholds):
            rho = np.empty(t0.shape + (len(values),))
            for row, lo, hi, cuts in zip(
                rho[0], t0[0].tolist(), t1[0].tolist(), thresholds[0].tolist()
            ):
                window = box_window_rho(
                    ((var, op, c) for (var, op), c in zip(faces, cuts)), values, lo, hi
                )
                row[:] = window.max(axis=1)
            return rho

        return sliced

    distinct = list(dict.fromkeys(key for ks in keys for key in ks))
    width = values.shape[2]
    tables = np.empty((len(distinct), width.bit_length(), width, values.shape[0]))
    for (var, sign), table in zip(distinct, tables):
        range_table(values[:, var - 1, :], sign, out=table)
    # Per template and face slot: the table and its sign; per template, the shape.
    which = np.array([[distinct.index(key) for key in ks] for ks in keys])
    signs = np.array([[sign for _, sign in ks] for ks in keys])[:, :, np.newaxis, np.newaxis]
    shapes = np.array([1 if t.shape == ALWAYS else -1 for t in templates]).reshape(-1, 1, 1)

    def ranged(t0, t1, thresholds):
        return reduce(np.minimum, (
            face_rho(shapes, signs[:, k] * thresholds[:, :, k, np.newaxis],
                     range_query(tables, which[:, k, np.newaxis], t0, t1))
            for k in range(which.shape[1])
        ))

    return ranged
