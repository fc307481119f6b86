"""Labeled signal datasets: CSV ingestion, misclassification rate, fold plans.

The on-disk format is long CSV with header ``id,t,label,x1,...,xn``: one row
per (signal, timepoint), integer timepoints 0..T, label +1 or -1 constant
within an id.

``load_csv`` reads blocks of ``BLOCK_ROWS`` lines or CSV records, checks
every row and then raggedness, and only then allocates the signal array.
A file with no quote character and no blank line is parsed by numpy's C
reader (``np.loadtxt``); any other file, and any file that path refuses,
is parsed by the exact path, ``int``/``float`` a column at a time.  The
values are the same bits either way, and only the exact path writes error
text, which names a record by line, counting CSV records.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat

import numpy as np

from .formula import Formula, Signal, robustness_all

POS_LABEL = 1
NEG_LABEL = -1

BLOCK_ROWS = 4096  # lines or CSV records converted at a time; bounds the loader's scratch memory
_READ_ERRORS = (UnicodeDecodeError, csv.Error)


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


def load_csv(path) -> LabeledDataset:
    """Read a long-format dataset CSV; its rows may come in any order.

    A file with no quote character, no blank or whitespace-only line and no
    line longer than ``csv.field_size_limit()`` is read by numpy's C parser
    (``np.loadtxt``), a block of ``BLOCK_ROWS`` lines at a time.  Any other
    file, or one that this fast path does not load cleanly, is read again by
    the exact path: each block of records is parsed a column at a time with
    ``int`` and ``float``, the parsers of a row-by-row reader.  Both paths
    give bit-identical values, and only the exact path reports errors.
    Raggedness is checked before the (N, n, T+1) array is allocated, so a
    huge timepoint is reported, not allocated.

    Raises OSError for IO failures and SchemaError for malformed content
    (not UTF-8 CSV text, wrong header, ragged signals, duplicate timepoints,
    bad labels).  A row's error names the earliest faulty record as
    ``line N``, counting CSV records from the header as line 1, blank ones
    included.  Within a record, the first failing check is named, in the
    order: field count, parsing, label, timepoint sign, finiteness, label
    change, duplicate timepoint.
    """
    dataset = _load_fast(path)
    if dataset is not None:
        return dataset
    try:
        return _load_exact(path)
    except _READ_ERRORS as exc:
        raise SchemaError(_not_text(exc)) from None


def _not_text(exc: Exception) -> str:
    return f"not a CSV text file: {exc}"


def _width(header: list[str]) -> int:
    """The number of fields of a record, from the header's cells."""
    header = [h.strip() for h in header]
    if len(header) < 4 or header[:3] != ["id", "t", "label"]:
        raise SchemaError(f"header must start with id,t,label,x1,... (got {header})")
    expected = [f"x{j}" for j in range(1, len(header) - 2)]
    if header[3:] != expected:
        raise SchemaError(f"variable columns must be {expected} (got {header[3:]})")
    return len(header)


def _load_fast(path) -> LabeledDataset | None:
    """The dataset, parsed by ``np.loadtxt``, or None where the exact path
    must read the file.

    Without a quote character a CSV record is one line, and its fields are
    the text between commas, as loadtxt splits them.  A cell loadtxt parses
    has the value ``int``/``float`` give it.  Some text they accept it
    refuses (``1_0``, non-ASCII digits, ``1.0`` as an int, an int past
    int64), and such a file takes the exact path.  loadtxt ignores fields
    past the last column it reads and skips blank lines with a warning, so
    field counts and blank lines are checked here, and so is line length:
    csv refuses a field longer than ``csv.field_size_limit()``.
    """
    limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = handle.readline()  # a quote in it fails _width
            if len(header) > limit:
                return None
            width = _width(header.rstrip("\r\n").split(","))
            row = np.dtype([("t", np.int64), ("label", np.int64), ("x", float, (width - 3,))])
            code_of: dict[str, int] = {}
            blocks = []
            line = 2
            while lines := list(islice(handle, BLOCK_ROWS)):
                text = "".join(lines)
                # loadtxt raises for a line with fewer than width - 1 commas,
                # so this total leaves none with more.
                if ('"' in text or text.count(",") != (width - 1) * len(lines)
                        or any(map(str.isspace, lines)) or max(map(len, lines)) > limit):
                    return None
                del text  # not held while loadtxt runs: it adds to peak memory
                # max_rows sizes the result once; grown as rows arrive, its
                # reallocations leave heap holes that raise peak memory.
                rows = np.loadtxt(lines, row, delimiter=",", comments=None, quotechar=None,
                                  usecols=range(1, width), ndmin=1, max_rows=len(lines))
                if len(rows) != len(lines):
                    return None
                sids = [record.partition(",")[0] for record in lines]
                blocks.append((np.arange(line, line + len(lines)), _codes(sids, code_of),
                               rows["t"], rows["label"], rows["x"]))
                line += len(lines)
        return _dataset(blocks, code_of, width)
    except (ValueError, OverflowError):  # SchemaError and UnicodeDecodeError too
        return None


def _load_exact(path) -> LabeledDataset:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        width = _width(header)

        code_of: dict[str, int] = {}  # id -> code, in order of first appearance
        blocks = []
        stop = None  # the error that ends reading, raised if no earlier row fails
        line = 2
        while stop is None:
            records: list[list[str]] = []
            try:
                records.extend(islice(reader, BLOCK_ROWS))
            except _READ_ERRORS as exc:  # the records read before it are kept
                stop = _not_text(exc)
            if not records:
                break
            block, fault = _convert(records, line, width, code_of)
            blocks.append(block)
            stop = fault or stop
            line += len(records)
    return _dataset(blocks, code_of, width, stop)


def _convert(records, line: int, width: int, code_of: dict[str, int]):
    """One block of records, numbered from ``line``, as columns.

    Blank records are skipped.  The block ends before its first record with
    the wrong number of fields or a cell that does not parse; that record's
    error comes back with the columns (else None).
    """
    lines = np.arange(line, line + len(records))
    fault = None
    widths = np.fromiter(map(len, records), np.intp, len(records))
    keep = widths != 0
    wrong = np.flatnonzero(keep & (widths != width))
    if wrong.size:
        fault = f"line {lines[wrong[0]]}: expected {width} fields"
        keep[wrong[0]:] = False
    if not keep.all():
        records = list(compress(records, keep))
        lines = lines[keep]
    try:
        sids, columns = _columns(records, width)
    except ValueError:
        cut, message = _first_unparsable(records)
        fault = f"line {lines[cut]}: {message}"
        records, lines = records[:cut], lines[:cut]
        sids, columns = _columns(records, width)
    return (lines, _codes(sids, code_of)) + columns, fault


def _columns(records, width: int):
    """The id cells and the parsed t, label and x columns of a block."""
    flat = list(chain.from_iterable(records))
    points = np.empty((len(records), width - 3))
    for j in range(3, width):
        points[:, j - 3] = np.fromiter(map(float, flat[j::width]), float, len(records))
    return flat[0::width], (_ints(flat[1::width]), _ints(flat[2::width]), points)


def _ints(cells) -> np.ndarray:
    """``int(cell)`` of each cell: int64, or Python ints if one does not fit.

    Such a timepoint or label is never stored; it is reported by a check.
    """
    values = list(map(int, cells))
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _first_unparsable(records) -> tuple[int, str]:
    """Index and error of the first record with a cell that does not parse,
    trying t, label, x1, ..., xn in turn."""
    for index, record in enumerate(records):
        try:
            int(record[1]), int(record[2]), [float(v) for v in record[3:]]
        except ValueError as exc:
            return index, str(exc)
    raise AssertionError("every cell parses")


def _dataset(blocks, code_of: dict[str, int], width: int, stop: str | None = None):
    """The dataset of blocks of ``(lines, codes, times, labels, points)``
    columns, after the row checks, then ``stop`` (an error that ended
    reading), then raggedness."""
    if not blocks:
        raise SchemaError(stop or "no data rows")
    lines, codes, times, labels, points = (np.concatenate(column) for column in zip(*blocks))
    ids = tuple(code_of)
    first = np.unique(codes, return_index=True)[1]  # each id's first record
    _check_rows(lines, codes, times, labels, points, first, ids)
    if stop:
        raise SchemaError(stop)
    if not len(codes):
        raise SchemaError("no data rows")

    horizon = int(times[codes == 0].max())
    # Timepoints are distinct and non-negative now, so an id covers 0..T
    # exactly when it has T+1 of them and none lies past T.
    late = np.bincount(codes[times > horizon], minlength=len(ids))
    ragged = (np.bincount(codes, minlength=len(ids)) != horizon + 1) | (late > 0)
    if ragged.any():
        raise SchemaError(
            f"ragged signal {ids[np.argmax(ragged)]!r}: timepoints do not cover 0..{horizon}"
        )
    values = np.empty((len(ids), width - 3, horizon + 1))
    values[codes, :, times.astype(np.intp)] = points
    return LabeledDataset(values, labels[first], ids)


def _codes(sids, code_of: dict[str, int]) -> np.ndarray:
    """Each id's code, adding unseen ids to ``code_of`` in order."""
    for sid in dict.fromkeys(sids):
        code_of.setdefault(sid, len(code_of))
    return np.fromiter(map(code_of.__getitem__, sids), np.intp, len(sids))


def _check_rows(lines, codes, times, labels, points, first, ids) -> None:
    """Raise SchemaError for the earliest record that fails a row check."""
    order = np.lexsort((times, codes))
    repeat = (np.diff(codes[order]) == 0) & (times[order][1:] == times[order][:-1])
    duplicate = np.zeros(len(codes), dtype=bool)
    duplicate[order[1:][repeat]] = True  # the stable sort keeps file order within a key
    checks = (  # in the order a row's checks run
        ((labels != POS_LABEL) & (labels != NEG_LABEL), lambda i: f"unknown label {labels[i]}"),
        (times < 0, lambda i: f"negative timepoint {times[i]}"),
        (~np.isfinite(points).all(axis=1), lambda i: "non-finite value"),
        (labels != labels[first][codes],
         lambda i: f"label changes within id {ids[codes[i]]!r}"),
        (duplicate, lambda i: f"duplicate (id={ids[codes[i]]!r}, t={times[i]})"),
    )
    faults = [(int(np.argmax(bad)), rank) for rank, (bad, _) in enumerate(checks) if bad.any()]
    if faults:
        index, rank = min(faults)
        raise SchemaError(f"line {lines[index]}: {checks[rank][1](index)}")


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset in the long CSV format (full float precision).

    Each signal is written a column at a time: one ``tolist()`` of its
    values and one ``map(repr, ...)`` per variable, so every value is the
    shortest text that reads back to the same float.
    """
    times = range(dataset.horizon + 1)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "t", "label"] + [f"x{j}" for j in range(1, dataset.dimension + 1)])
        for sid, label, signal in zip(dataset.ids, dataset.labels.tolist(), dataset.values):
            columns = [map(repr, row) for row in signal.tolist()]
            writer.writerows(zip(repeat(sid), times, repeat(label), *columns))


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
