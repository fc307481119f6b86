"""Labeled signal datasets: CSV ingestion, misclassification rate, fold plans.

The on-disk format is long CSV with header ``id,t,label,x1,...,xn``: one row
per (signal, timepoint), integer timepoints 0..T, label +1 or -1 constant
within an id.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .formula import Formula, Signal, robustness_all

POS_LABEL = 1
NEG_LABEL = -1


class SchemaError(ValueError):
    """The CSV file does not conform to the dataset format."""


class TooFewSamplesError(ValueError):
    """Not enough samples of some class to fill the requested folds."""


@dataclass(eq=False)
class LabeledDataset:
    """Signals sharing one dimension and horizon, each labeled +1 or -1.

    ``values`` has shape (N, n, T+1); ``labels`` is (N,) over {+1, -1};
    ``ids`` keeps the source identifiers for reporting.
    """

    values: np.ndarray
    labels: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if values.ndim != 3:
            raise ValueError("values must have shape (signals, variables, timepoints)")
        # Empty datasets are legal as transient partition results; loaders and
        # training entry points insist on at least one signal.
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        if labels.shape != (values.shape[0],):
            raise ValueError("labels must be one per signal")
        if not np.all(np.isin(labels, (POS_LABEL, NEG_LABEL))):
            raise ValueError("labels must be +1 or -1")
        ids = tuple(str(i) for i in self.ids)
        if len(ids) != values.shape[0]:
            raise ValueError("ids must be one per signal")
        values.setflags(write=False)
        labels.setflags(write=False)
        self.values = values
        self.labels = labels
        self.ids = ids

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> int:
        return self.values.shape[2] - 1

    def signal(self, index: int) -> Signal:
        return Signal(self.values[index])

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=int)
        return LabeledDataset(
            self.values[indices],
            self.labels[indices],
            tuple(self.ids[i] for i in indices),
        )

    def class_counts(self) -> dict[int, int]:
        return {
            POS_LABEL: int(np.sum(self.labels == POS_LABEL)),
            NEG_LABEL: int(np.sum(self.labels == NEG_LABEL)),
        }


def uniform_weights(count: int) -> np.ndarray:
    return np.full(count, 1.0 / count)


def from_signals(signals, labels, ids=None) -> LabeledDataset:
    """Build a dataset from per-signal (n, T+1) arrays."""
    values = np.stack([np.asarray(s, dtype=float) for s in signals])
    if ids is None:
        ids = tuple(str(i) for i in range(len(signals)))
    return LabeledDataset(values, np.asarray(labels, dtype=int), tuple(ids))


def load_csv(path) -> LabeledDataset:
    """Read a long-format dataset CSV.

    Raises OSError for IO failures and SchemaError for malformed content
    (not UTF-8 CSV text, wrong header, ragged signals, duplicate timepoints,
    bad labels).
    """
    try:
        return _load_csv(path)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"not a CSV text file: {exc}") from None


def _load_csv(path) -> LabeledDataset:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 4 or header[:3] != ["id", "t", "label"]:
            raise SchemaError(f"header must start with id,t,label,x1,... (got {header})")
        dim = len(header) - 3
        expected = [f"x{j}" for j in range(1, dim + 1)]
        if header[3:] != expected:
            raise SchemaError(f"variable columns must be {expected} (got {header[3:]})")

        order: list[str] = []
        rows: dict[str, dict[int, np.ndarray]] = {}
        label_of: dict[str, int] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(f"line {line_no}: expected {len(header)} fields")
            sid = row[0]
            try:
                t = int(row[1])
                label = int(row[2])
                point = np.array([float(v) for v in row[3:]])
            except ValueError as exc:
                raise SchemaError(f"line {line_no}: {exc}") from None
            if label not in (POS_LABEL, NEG_LABEL):
                raise SchemaError(f"line {line_no}: unknown label {label}")
            if t < 0:
                raise SchemaError(f"line {line_no}: negative timepoint {t}")
            if not np.all(np.isfinite(point)):
                raise SchemaError(f"line {line_no}: non-finite value")
            if sid not in rows:
                order.append(sid)
                rows[sid] = {}
                label_of[sid] = label
            elif label_of[sid] != label:
                raise SchemaError(f"line {line_no}: label changes within id {sid!r}")
            if t in rows[sid]:
                raise SchemaError(f"line {line_no}: duplicate (id={sid!r}, t={t})")
            rows[sid][t] = point

    if not order:
        raise SchemaError("no data rows")
    horizon = max(rows[order[0]])
    values = np.empty((len(order), dim, horizon + 1))
    for i, sid in enumerate(order):
        times = rows[sid]
        if sorted(times) != list(range(horizon + 1)):
            raise SchemaError(
                f"ragged signal {sid!r}: timepoints do not cover 0..{horizon}"
            )
        for t, point in times.items():
            values[i, :, t] = point
    labels = np.array([label_of[sid] for sid in order], dtype=int)
    return LabeledDataset(values, labels, tuple(order))


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset in the long CSV format (full float precision)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "t", "label"] + [f"x{j}" for j in range(1, dataset.dimension + 1)])
        for i, sid in enumerate(dataset.ids):
            label = int(dataset.labels[i])
            for t in range(dataset.horizon + 1):
                writer.writerow(
                    [sid, t, label] + [repr(float(v)) for v in dataset.values[i, :, t]]
                )


def mcr(phi: Formula, dataset: LabeledDataset) -> float:
    """Misclassification rate of ``phi`` as a classifier over the dataset.

    A signal is predicted positive iff it satisfies the formula at time 0.
    """
    if len(dataset) == 0:
        raise ValueError("misclassification rate of an empty dataset is undefined")
    rho = robustness_all(phi, dataset.values)
    predicted = np.where(rho >= 0, POS_LABEL, NEG_LABEL)
    return float(np.mean(predicted != dataset.labels))


@dataclass(frozen=True)
class FoldPlan:
    """Stratified assignment of sample indices to folds."""

    fold_count: int
    assignment: np.ndarray
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def stratified_folds(dataset: LabeledDataset, fold_count: int, seed: int = 0) -> FoldPlan:
    """Deal samples into ``fold_count`` folds, stratified by class.

    Fold sizes differ by at most one overall and per class; deterministic
    for a given seed.
    """
    if fold_count < 2:
        raise ValueError("fold count must be at least 2")
    counts = dataset.class_counts()
    for label, count in counts.items():
        if count < fold_count:
            raise TooFewSamplesError(
                f"class {label} has {count} samples for {fold_count} folds"
            )
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(dataset), dtype=int)
    cursor = 0
    for label in (POS_LABEL, NEG_LABEL):
        members = np.flatnonzero(dataset.labels == label)
        members = rng.permutation(members)
        for offset, index in enumerate(members):
            assignment[index] = (cursor + offset) % fold_count
        cursor += len(members)
    return FoldPlan(fold_count, assignment, seed)
