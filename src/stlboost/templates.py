"""Parametric split templates: a temporal operator over a box with free
interval endpoints and free thresholds.

A template fixes the operator shape and which (variable, comparator) faces
exist; a valuation supplies concrete integer time bounds and thresholds.
Threshold search bounds come from the data range of each variable, padded
by one percent so boundary splits stay reachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    face_rho,
    range_query,
    range_table,
)

ALWAYS = "G"
EVENTUALLY = "F"


@dataclass(frozen=True)
class Valuation:
    """Concrete parameter values for a template: window and thresholds."""

    t_start: int
    t_end: int
    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "t_start", int(self.t_start))
        object.__setattr__(self, "t_end", int(self.t_end))
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
        slots = tuple((int(v), op) for v, op in self.slots)
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
            for lo, hi in bounds:
                if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    raise ValueError(f"invalid threshold bounds ({lo}, {hi})")
        if self.horizon is not None and self.horizon < 0:
            raise ValueError("horizon must be non-negative")

    @property
    def is_bound(self) -> bool:
        return self.threshold_bounds is not None and self.horizon is not None

    def bound_to(self, dataset: LabeledDataset) -> "PstlTemplate":
        """Attach threshold bounds (data range + 1% padding) and the horizon."""
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


def batch_robustness(template: PstlTemplate, values: np.ndarray) -> BatchRobustness:
    """Robustness of a template at many valuations over one batch of signals.

    Returns ``rho(t0[P], t1[P], thresholds[P, k]) -> (P, N)`` whose row ``p``
    equals, bit for bit, ``robustness_all`` of the template instantiated at
    valuation ``p``.  ``G`` over any box and ``F`` over one face read each
    face's window extremum from a range table: rounding is monotone, so
    ``min_t fl(x_t - c) == fl(min_t x_t - c)``, and the minimum over faces
    commutes with ``G``'s minimum over time.  ``F`` over several faces (only
    merged templates) does not commute and takes window slices per valuation.
    The tables live as long as the returned function.
    """
    values = np.asarray(values, dtype=float)
    faces = template.slots
    if template.shape == EVENTUALLY and len(faces) > 1:

        def sliced(t0, t1, thresholds):
            rho = np.empty((len(t0), values.shape[0]))
            for row, lo, hi, cuts in zip(rho, t0.tolist(), t1.tolist(), thresholds.tolist()):
                window = box_window_rho(
                    ((var, op, c) for (var, op), c in zip(faces, cuts)), values, lo, hi
                )
                row[:] = window.max(axis=1)
            return rho

        return sliced

    # G over x > c needs the window minimum of x; G over x <= c, the maximum.
    # F flips both.
    reduces = [
        np.minimum if (op == GT) == (template.shape == ALWAYS) else np.maximum
        for _, op in faces
    ]
    width = values.shape[2]
    tables = np.empty((len(faces), width.bit_length(), values.shape[0], width))
    for (var, _), reduce, table in zip(faces, reduces, tables):
        range_table(values[:, var - 1, :], reduce, out=table)

    def ranged(t0, t1, thresholds):
        return np.minimum.reduce([
            face_rho(op, thresholds[:, k, np.newaxis], range_query(table, reduce, t0, t1))
            for k, ((_, op), reduce, table) in enumerate(zip(faces, reduces, tables))
        ])

    return ranged
