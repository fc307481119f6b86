"""STL formula AST and quantitative semantics over discrete-time signals.

Signals are uniformly sampled multivariate trajectories indexed by integer
timepoints 0..T.  Formulas are built from axis-aligned box predicates over
signal components, Boolean connectives, and the bounded temporal operators
G (always) and F (eventually).  The robustness degree is the standard
min/max margin semantics: a non-negative value means the signal satisfies
the formula.  :func:`robustness_all` implements it; the swarm search's
kernel shares its face margin, :func:`face_rho`, and reads window extrema
from range tables of window minima (:func:`range_table`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

GT = ">"
LE = "<="


class OutOfHorizonError(Exception):
    """A temporal window or evaluation time reaches past the signal horizon."""


class VariableOutOfRangeError(IndexError):
    """A formula reads a variable index past the signals' variable count."""


class UnvaluedParameterError(TypeError):
    """Raised when semantics are requested for something that is not a
    concrete formula (e.g. a parametric template with free parameters)."""


def checked_int(name: str, value) -> int:
    """``value`` as a Python int, so a model file can hold it; raises
    ValueError naming ``name`` unless it is a Python or numpy integer (a
    bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def checked_float(name: str, value) -> float:
    """``value`` as a Python float, so a model file can hold it; raises
    ValueError naming ``name`` unless it is a real number (a bool is not one)
    within the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # No repr: an int past 4300 digits raises ValueError from str().
        raise ValueError(f"{name} is beyond the float range") from None


@dataclass(frozen=True, eq=False)
class Signal:
    """One multivariate trajectory: ``values[j, t]`` is component j+1 at time t."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("signal values must be a 2-D (variables x time) array")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("signal needs at least one variable and one timepoint")
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1] - 1


@dataclass(frozen=True)
class Conjunct:
    """One box face: ``x<var> > threshold`` or ``x<var> <= threshold``."""

    var: int
    op: str
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "var", checked_int("var", self.var))
        if self.var < 1:
            raise ValueError("variable index must be a positive integer")
        if self.op not in (GT, LE):
            raise ValueError(f"comparator must be {GT!r} or {LE!r}")
        object.__setattr__(self, "threshold", float(self.threshold))
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")


@dataclass(frozen=True)
class BoxPredicate:
    """Conjunction of axis-aligned faces, at most one per (variable, direction)."""

    conjuncts: tuple[Conjunct, ...]

    def __post_init__(self):
        object.__setattr__(self, "conjuncts", tuple(self.conjuncts))
        if not self.conjuncts:
            raise ValueError("box predicate needs at least one conjunct")
        lower: dict[int, float] = {}
        upper: dict[int, float] = {}
        for c in self.conjuncts:
            faces = lower if c.op == GT else upper
            if c.var in faces:
                raise ValueError(f"duplicate {c.op!r} face for variable x{c.var}")
            faces[c.var] = c.threshold
        for var, lo in lower.items():
            if var in upper and not lo < upper[var]:
                raise ValueError(
                    f"empty box on x{var}: lower bound {lo} is not below "
                    f"upper bound {upper[var]}"
                )


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class BooleanConst(Formula):
    value: bool


TRUE = BooleanConst(True)
FALSE = BooleanConst(False)


@dataclass(frozen=True)
class Predicate(Formula):
    box: BoxPredicate


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    """N-ary conjunction.  Optional positive weights annotate satisfaction
    priority; they never change the robustness value."""

    children: tuple[Formula, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("conjunction needs at least one child")
        if self.weights is not None:
            weights = tuple(float(w) for w in self.weights)
            object.__setattr__(self, "weights", weights)
            if len(weights) != len(self.children):
                raise ValueError("weight count must match child count")
            if not all(w > 0 and math.isfinite(w) for w in weights):
                raise ValueError("conjunction weights must be positive and finite")


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("disjunction needs at least one child")


def _check_interval(operator: Formula):
    """Store ``operator``'s bounds as Python ints, checked by
    :func:`checked_int`, and check that they form a window."""
    for name in ("start", "end"):
        object.__setattr__(operator, name, checked_int(name, getattr(operator, name)))
    if operator.start < 0 or operator.start > operator.end:
        raise ValueError(f"invalid temporal interval [{operator.start},{operator.end}]")


@dataclass(frozen=True)
class Always(Formula):
    start: int
    end: int
    child: Formula

    def __post_init__(self):
        _check_interval(self)


@dataclass(frozen=True)
class Eventually(Formula):
    start: int
    end: int
    child: Formula

    def __post_init__(self):
        _check_interval(self)


def robustness(phi: Formula, signal: Signal, t: int = 0) -> float:
    """Robustness degree of ``phi`` over ``signal`` evaluated at time ``t``:
    :func:`robustness_all` on a batch of one, so it raises as that does.

    Non-negative iff the signal satisfies the formula at ``t``.
    """
    return float(robustness_all(phi, signal.values[np.newaxis], t)[0])


def satisfies(phi: Formula, signal: Signal) -> bool:
    """Boolean satisfaction at time 0; robustness zero counts as satisfied."""
    return robustness(phi, signal, 0) >= 0


def face_rho(sign, threshold, cols: np.ndarray) -> np.ndarray:
    """Robustness ``sign * (cols - threshold)`` of a face at the sample
    values ``cols``: +1 for ``x > threshold``, and -1 for ``x <= threshold``,
    which gives the bits of ``threshold - cols``.  ``sign`` and
    ``threshold`` may be arrays that broadcast to ``cols``.

    A zero margin is always +0.0: ``-0.0 - 0.0`` would give -0.0, and a
    window minimum over both zeros returns whichever its reduction order
    meets, so a range table and a sliding window could disagree in the sign.
    """
    rho = cols - threshold
    rho *= sign
    rho += 0.0  # -0.0 + 0.0 is +0.0; every other value is unchanged
    return rho


def box_window_rho(faces, values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Robustness of a box over the window [lo, hi], per signal and timepoint.

    ``faces`` yields (variable, comparator, threshold); returns shape
    (N, hi - lo + 1).
    """
    return np.minimum.reduce([
        face_rho(1 if op == GT else -1, threshold, values[:, var - 1, lo : hi + 1])
        for var, op, threshold in faces
    ])


def range_table(series: np.ndarray, sign: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the sparse table of the window minima of ``sign *
    series`` over a (N, T+1) series, for window queries in O(1).  ``sign``
    is +1 or -1: the maximum of x is exactly minus the minimum of -x.

    ``out`` has shape (levels, T+1, N) with ``levels = (T+1).bit_length()``:
    time-major, so one query reads one contiguous row of N floats.  Level
    ``j`` holds the minimum over samples [t, t + 2**j) in row ``t``; only
    rows ``t <= T + 1 - 2**j`` are filled.  The series is negated into level
    0, so no other series-sized array is allocated.
    """
    width = series.shape[1]
    np.multiply(series.T, sign, out=out[0])
    for level in range(1, out.shape[0]):
        half = 1 << (level - 1)
        filled = width - 2 * half + 1
        np.minimum(out[level - 1, :filled], out[level - 1, half : half + filled],
                   out=out[level, :filled])
    return out


def range_query(
    tables: np.ndarray, which: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Window minima of N series over the inclusive windows [lo, hi], read
    from table ``which`` of stacked range tables.

    ``tables`` holds tables from :func:`range_table`, shape (Q, levels, T+1,
    N).  ``which``, ``lo`` and ``hi`` broadcast to one shape S; returns
    shape S + (N,).  The two power-of-two halves overlap, which a minimum
    does not mind, so the result is exactly the minimum over the window up
    to the sign of a zero, which :func:`face_rho` drops.
    """
    powers = 1 << np.arange(tables.shape[1])
    level = np.searchsorted(powers, hi - lo + 1, side="right") - 1
    late = hi - powers[level] + 1
    return np.minimum(tables[which, level, lo], tables[which, level, late])


def robustness_all(phi: Formula, values: np.ndarray, t: int = 0) -> np.ndarray:
    """Vectorized robustness at time ``t`` for a batch of signals.

    ``values`` has shape (N, n, T+1); returns shape (N,).  This is the one
    implementation of the semantics; :func:`robustness` is its batch of one.
    The horizon and the variable count are checked once, up front, from
    :func:`extent`: it raises OutOfHorizonError when ``t`` is not an integer
    (by :func:`checked_int`'s rule, so a numpy integer is one and a bool is
    not) or ``phi`` read at ``t`` reaches a timepoint outside [0, T],
    VariableOutOfRangeError when ``phi`` reads a variable past n, and
    UnvaluedParameterError when ``phi`` is not a concrete formula.
    """
    values = np.asarray(values, dtype=float)
    horizon = values.shape[2] - 1
    var, last = extent(phi)
    try:
        t = checked_int("evaluation time", t)
        fits = 0 <= t and t + last <= horizon
    except ValueError:
        fits = False
    if not fits:
        raise OutOfHorizonError(
            f"evaluation time {t!r} plus the formula's reach {last} is outside [0, {horizon}]"
        )
    if var > values.shape[1]:
        raise VariableOutOfRangeError(
            f"formula reads x{var}, but the signals have n={values.shape[1]} variables"
        )
    # A margin too wide for a float is +-inf, with the sign of the exact one.
    with np.errstate(over="ignore"):
        return _trace(phi, values, t, t)[:, 0]


def _trace(phi: Formula, values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Robustness of ``phi`` at each time lo..hi, shape (N, hi - lo + 1).

    Each subformula is evaluated once, over the times its parent reads, so a
    formula costs one pass per operator whatever its window widths.
    """
    if isinstance(phi, BooleanConst):
        return np.full((values.shape[0], hi - lo + 1), math.inf if phi.value else -math.inf)
    if isinstance(phi, Predicate):
        return box_window_rho(
            ((c.var, c.op, c.threshold) for c in phi.box.conjuncts), values, lo, hi
        )
    if isinstance(phi, Not):
        return -_trace(phi.child, values, lo, hi)
    if isinstance(phi, And):
        return np.minimum.reduce([_trace(c, values, lo, hi) for c in phi.children])
    if isinstance(phi, Or):
        return np.maximum.reduce([_trace(c, values, lo, hi) for c in phi.children])
    child = _trace(phi.child, values, lo + phi.start, hi + phi.end)
    windows = sliding_window_view(child, phi.end - phi.start + 1, axis=1)
    return windows.min(axis=2) if isinstance(phi, Always) else windows.max(axis=2)


def extent(phi: Formula) -> tuple[int, int]:
    """Highest variable index ``phi`` reads, and the last timepoint it reads
    when evaluated at time 0; ``phi`` fits signals with n variables and
    horizon T iff both are within (n, T).  This is the one horizon and
    variable check :func:`robustness_all` makes.  Raises
    UnvaluedParameterError when ``phi`` is not a concrete formula."""
    if isinstance(phi, BooleanConst):
        return 0, 0
    if isinstance(phi, Predicate):
        return max(c.var for c in phi.box.conjuncts), 0
    if isinstance(phi, Not):
        return extent(phi.child)
    if isinstance(phi, (Always, Eventually)):
        var, end = extent(phi.child)
        return var, phi.end + end
    if isinstance(phi, (And, Or)):
        extents = [extent(child) for child in phi.children]
        return max(var for var, _ in extents), max(end for _, end in extents)
    raise UnvaluedParameterError(f"not a concrete formula: {phi!r}")


def operator_count(phi: Formula) -> int:
    """Number of Boolean and temporal operators in ``phi``.

    An n-ary conjunction or disjunction counts as n-1 binary connectives and
    a box predicate with k faces contributes its k-1 internal conjunctions.
    """
    if isinstance(phi, BooleanConst):
        return 0
    if isinstance(phi, Predicate):
        return len(phi.box.conjuncts) - 1
    if isinstance(phi, Not):
        return 1 + operator_count(phi.child)
    if isinstance(phi, (And, Or)):
        return len(phi.children) - 1 + sum(operator_count(c) for c in phi.children)
    if isinstance(phi, (Always, Eventually)):
        return 1 + operator_count(phi.child)
    raise UnvaluedParameterError(f"not a concrete formula: {phi!r}")
