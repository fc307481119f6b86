"""Labeled signal datasets: CSV ingestion, misclassification rate, fold plans.

The on-disk format is long CSV with header ``id,t,label,x1,...,xn``: one row
per (signal, timepoint), integer timepoints 0..T, label +1 or -1 constant
within an id.

``load_csv`` parses a file in blocks of ``BLOCK_ROWS`` rows, checks every
row and then raggedness, and only then allocates the signal array.  A file
with no quote character and no blank line is parsed by numpy's C reader
(``np.loadtxt``); any other file, and any file that path refuses, is parsed
by the exact path, ``int``/``float`` one record at a time.  The values are
the same bits either way, and so are the errors, which name a record by
line, counting CSV records.  The C reader
holds the interpreter lock, so a large file is cut at line starts into one
part per CPU, and forked children parse all parts but the first.  A block
is four column arrays: id codes, ``t``, ``label`` and ``x``.  The checks
read the joined ints and a finite flag per row, and each block's ``x`` is
copied into the signal array and freed in turn, so a load of an urban set
peaks under 3 times the bytes of the values it returns.

``save_csv`` writes the bytes ``csv.writer`` would, one ``repr`` per value.
A large dataset's records are cut into chunks of bounded size, long
signals too, and this process writes the formatted chunks in file order.
Both spread their parts or chunks over CPUs through ``fanout.fan_out``.
``whole_file`` makes each file the CLI writes appear whole or not at all.
"""

from __future__ import annotations

import csv
import io
import os
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from types import SimpleNamespace

import numpy as np

from .fanout import fan_out, worker_count
from .formula import Formula, Signal, robustness_all

POS_LABEL = 1
NEG_LABEL = -1

BLOCK_ROWS = 4096  # rows turned into columns at a time; bounds the loader's scratch memory
# Bytes: the smallest part a file is cut into.  A split pays from parts of
# about 0.2 MiB (README, "Performance"); the floor keeps a margin.
SPLIT_FLOOR = 1 << 19
PART_CHUNK = 1 << 16  # bytes of a file the fast path reads at a time
_READ_ERRORS = (UnicodeDecodeError, csv.Error)


class SchemaError(ValueError):
    """The CSV file does not conform to the dataset format."""


class TooFewSamplesError(ValueError):
    """Not enough samples of some class to fill the requested folds."""


@dataclass(eq=False)
class LabeledDataset:
    """Signals sharing one dimension and horizon, each labeled +1 or -1.

    ``values`` has shape (N, n, T+1) with at least one variable and one
    timepoint; ``labels`` is (N,) over {+1, -1}; ``ids`` keeps the source
    identifiers for reporting.
    """

    values: np.ndarray
    labels: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if values.ndim != 3:
            raise ValueError("values must have shape (signals, variables, timepoints)")
        if not values.shape[1] or not values.shape[2]:
            raise ValueError("signals must have at least one variable and one timepoint")
        # Empty datasets are legal as transient partition results; loaders,
        # save_csv and training entry points insist on at least one signal.
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
    file, or one whose header or cells this fast path refuses, is read again
    by the exact path, which parses one record at a time with ``int`` and
    ``float`` and turns each ``BLOCK_ROWS`` rows into columns.  Both paths
    give bit-identical values and the same errors; a file the fast path
    parses whole fails its row checks there, without a second read.
    Raggedness is checked before the (N, n, T+1) array is allocated, so a
    huge timepoint is reported, not allocated.

    The fast path cuts a file's body just after ``\\n`` bytes into one part
    per worker (``fanout.worker_count``), none under ``SPLIT_FLOOR`` bytes,
    and ``fan_out`` parses the first part here and the others in forked
    children.  A file under two floors is one part, and forks nothing.

    Either path keeps a block as column arrays (id codes, ``t``, ``label``
    and the (rows, n) ``x``), with no line number per row.  The checks read
    the joined codes, ``t`` and ``label`` and one finite flag per row.  The
    values are allocated after them and filled a block at a time, and each
    block's ``x`` is freed once copied.  So the peak is the values, the
    parsed ``x`` and a few ints per row, plus one block's scratch: under 3
    times ``values.nbytes`` on the urban sets (n=4, T=499).  The ints weigh
    more with fewer variables, and one block's scratch more in a file of a
    few blocks.

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
    must read the file; a file parsed whole raises the exact path's errors.

    The body is cut into parts (``_cuts``) at line starts, and ``fan_out``
    parses them on this process and forked children.  Each part's ids are
    coded in order of first appearance within it, and its codes are mapped
    onto the file's order here.  A part is refused as a whole file would
    be, and one refused part refuses the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = handle.readline()  # a quote in it fails _width
            if len(header) > csv.field_size_limit():
                return None
            width = _width(header.rstrip("\r\n").split(","))
            fd = handle.fileno()
            cuts = _cuts(fd, len(header.encode("utf-8")), os.fstat(fd).st_size)
            code_of: dict[str, int] = {}
            blocks = []

            def parse(part):  # an error refuses a part as None does, in a child too
                try:
                    return _parse_part(fd, *part, width)
                except (ValueError, OverflowError):
                    return None

            with fan_out(parse, zip(cuts, cuts[1:])) as parts:
                for part in parts:
                    if part is None:
                        return None
                    ids, part_blocks = part
                    codes_of_ids = _codes(ids, code_of)
                    blocks += ((codes_of_ids[codes], *rest) for codes, *rest in part_blocks)
                    part_blocks.clear()  # blocks alone holds them, for _dataset to free
    except (ValueError, OverflowError):  # SchemaError and UnicodeDecodeError too
        return None
    return _dataset(blocks, code_of, width)  # no blank line, so row i is on line i + 2


def _cuts(fd: int, start: int, stop: int) -> list[int]:
    """Offsets that cut the body, bytes ``start``..``stop``, into parts.

    One part per worker (``fanout.worker_count``), but no more parts than
    whole ``SPLIT_FLOOR``s in the body, so a body under two floors is one
    part.  Each cut lies just after a ``\\n`` byte, which ends a line under
    any line ending; a file with only ``\\r`` line ends is one part.
    """
    parts = worker_count((stop - start) // SPLIT_FLOOR)
    cuts = [start]
    for k in range(1, parts):
        cut = _line_start(fd, start + (stop - start) * k // parts)
        if cuts[-1] < cut < stop:
            cuts.append(cut)
    return cuts + [stop]


def _line_start(fd: int, offset: int) -> int:
    """The first offset at or after ``offset`` (at least 1) that follows a
    ``\\n`` byte, or one past the end of the file."""
    while chunk := os.pread(fd, PART_CHUNK, offset - 1):
        found = chunk.find(b"\n")
        if found >= 0:
            return offset + found
        offset += len(chunk)
    return offset


class _Part(io.RawIOBase):
    """Bytes ``begin``..``end`` of an open file, read with ``os.pread``:
    processes that share the descriptor do not share a file offset."""

    def __init__(self, fd: int, begin: int, end: int):
        self.fd, self.offset, self.end = fd, begin, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = os.pread(self.fd, min(len(buffer), self.end - self.offset), self.offset)
        buffer[:len(chunk)] = chunk
        self.offset += len(chunk)
        return len(chunk)


def _parse_part(fd: int, begin: int, end: int, width: int):
    """The lines in bytes ``begin``..``end`` as ``(ids, blocks)``: the ids
    in order of first appearance and ``_dataset``'s blocks of ``(codes, t,
    label, x)``, with codes indexing ``ids``.  None if the fast path refuses
    the part.  A block's structured ``np.loadtxt`` result is split into
    contiguous columns, which take no more memory, are freed one by one in
    ``_dataset`` and are pickled by a child without a copy.

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
    row = np.dtype([("t", np.int64), ("label", np.int64), ("x", float, (width - 3,))])
    code_of: dict[str, int] = {}
    blocks = []
    raw = io.BufferedReader(_Part(fd, begin, end), PART_CHUNK)
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as handle:
        while lines := list(islice(handle, BLOCK_ROWS)):
            text = "".join(lines)
            # loadtxt raises for a line with fewer than width - 1 commas,
            # so this total leaves none with more.
            if ('"' in text or text.count(",") != (width - 1) * len(lines)
                    or any(map(str.isspace, lines)) or max(map(len, lines)) > limit):
                return None
            # Some non-ASCII text in an int field crashes loadtxt (numpy 2.4.6
            # on "\U000c1fd9\u00c5"), so the exact path reads any such block.
            if not text.isascii() and not all(line.partition(",")[2].isascii() for line in lines):
                return None
            del text  # not held while loadtxt runs: it adds to peak memory
            # max_rows sizes the result once; grown as rows arrive, its
            # reallocations leave heap holes that raise peak memory.
            rows = np.loadtxt(lines, row, delimiter=",", comments=None, quotechar=None,
                              usecols=range(1, width), ndmin=1, max_rows=len(lines))
            if len(rows) != len(lines):
                return None
            sids = [record.partition(",")[0] for record in lines]
            blocks.append((_codes(sids, code_of), rows["t"].copy(), rows["label"].copy(),
                           rows["x"].copy()))
            del lines, rows, sids  # not held while the next block is read
    return tuple(code_of), blocks


def _load_exact(path) -> LabeledDataset:
    """The dataset, read one CSV record at a time; the path that reports
    every error.

    Blank records are skipped, and ``skipped`` keeps, for each, the number
    of rows before it, which places every row on its line.  Reading stops
    at the first record with the wrong number of fields or a cell that does
    not parse, or at a read error, and that error is raised if no earlier
    row fails a check.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        width = _width(header)

        code_of: dict[str, int] = {}  # id -> code, in order of first appearance
        blocks = []
        rows = []  # (id, t, label, x) since the last block
        skipped = []
        stop = None  # the error that ends reading, raised if no earlier row fails
        try:
            for line, record in enumerate(reader, 2):
                if not record:
                    skipped.append(line - 2 - len(skipped))
                    continue
                if len(record) != width:
                    stop = f"line {line}: expected {width} fields"
                    break
                try:
                    rows.append((record[0], int(record[1]), int(record[2]),
                                 list(map(float, record[3:]))))
                except ValueError as exc:
                    stop = f"line {line}: {exc}"
                    break
                if len(rows) == BLOCK_ROWS:
                    blocks.append(_block(rows, code_of))
        except _READ_ERRORS as exc:  # the rows read before it are kept
            stop = _not_text(exc)
    if rows:
        blocks.append(_block(rows, code_of))
    return _dataset(blocks, code_of, width, stop, skipped)


def _block(rows: list, code_of: dict[str, int]):
    """Rows of ``(id, t, label, x)`` as a ``_dataset`` block; ``rows`` is
    emptied.

    A t or label past int64 leaves both int columns as Python ints: such a
    value is never stored, it is reported by a check.
    """
    sids, times, labels, points = zip(*rows)
    rows.clear()
    try:
        ints = np.array((times, labels), dtype=np.int64)
    except OverflowError:
        ints = np.array((times, labels), dtype=object)
    return _codes(sids, code_of), ints[0], ints[1], np.array(points)


def _dataset(blocks, code_of: dict[str, int], width: int, stop: str | None = None,
             skipped=()) -> LabeledDataset:
    """The dataset of ``blocks`` of ``(codes, t, label, x)`` arrays in file
    order, after the row checks, then ``stop`` (an error that ended
    reading), then raggedness.  ``skipped`` holds, for each blank record,
    the number of rows before it, so row i is on line ``i + 2`` plus the
    number of entries of ``skipped`` at most i.

    The list ``blocks`` is emptied, so each array is freed once used.  Only
    the columns the checks read are joined: id codes, ``t``, ``label`` and
    a flag per row that its ``x`` is finite.  The values are allocated
    after every check, and each block's ``x`` is copied into them and
    freed in turn, so the parsed rows and the values are never both whole.
    """
    if not blocks:
        raise SchemaError(stop or "no data rows")
    *ints, points = map(list, zip(*blocks))
    blocks.clear()  # these lists alone hold the arrays now
    finite = np.concatenate([np.isfinite(x).all(axis=1) for x in points])
    codes, times, labels = map(np.concatenate, ints)
    del ints  # frees each block's ints
    ids = tuple(code_of)
    first = np.unique(codes, return_index=True)[1]  # each id's first record
    _check_rows(codes, times, labels, finite, first, ids, skipped)
    if stop:
        raise SchemaError(stop)

    horizon = int(times[codes == 0].max())
    # Timepoints are distinct and non-negative now, so an id covers 0..T
    # exactly when it has T+1 of them and none lies past T.
    late = np.bincount(codes[times > horizon], minlength=len(ids))
    ragged = (np.bincount(codes, minlength=len(ids)) != horizon + 1) | (late > 0)
    if ragged.any():
        raise SchemaError(
            f"ragged signal {ids[np.argmax(ragged)]!r}: timepoints do not cover 0..{horizon}"
        )
    labels = labels[first]
    times = times.astype(np.intp, copy=False)
    values = np.empty((len(ids), width - 3, horizon + 1))
    start = 0
    for k in range(len(points)):
        rows = slice(start, start + len(points[k]))
        values[codes[rows], :, times[rows]] = points[k]
        points[k] = None  # freed once copied
        start = rows.stop
    return LabeledDataset(values, labels, ids)


def _codes(sids, code_of: dict[str, int]) -> np.ndarray:
    """Each id's code, adding unseen ids to ``code_of`` in order."""
    for sid in dict.fromkeys(sids):
        code_of.setdefault(sid, len(code_of))
    return np.fromiter(map(code_of.__getitem__, sids), np.intp, len(sids))


def _check_rows(codes, times, labels, finite, first, ids, skipped=()) -> None:
    """Raise SchemaError for the earliest record that fails a row check;
    ``finite`` flags the rows whose values are all finite, and ``skipped``
    places rows on lines as in ``_dataset``."""
    order = np.lexsort((times, codes))
    ranked = codes[order]
    repeat = ranked[1:] == ranked[:-1]
    ranked = times[order]  # one sorted copy at a time
    repeat &= ranked[1:] == ranked[:-1]
    del ranked
    duplicate = np.zeros(len(codes), dtype=bool)
    duplicate[order[1:][repeat]] = True  # the stable sort keeps file order within a key
    checks = (  # in the order a row's checks run
        ((labels != POS_LABEL) & (labels != NEG_LABEL), lambda i: f"unknown label {labels[i]}"),
        (times < 0, lambda i: f"negative timepoint {times[i]}"),
        (~finite, lambda i: "non-finite value"),
        (labels != labels[first][codes],
         lambda i: f"label changes within id {ids[codes[i]]!r}"),
        (duplicate, lambda i: f"duplicate (id={ids[codes[i]]!r}, t={times[i]})"),
    )
    faults = [(int(np.argmax(bad)), rank) for rank, (bad, _) in enumerate(checks) if bad.any()]
    if faults:
        index, rank = min(faults)
        line = index + 2 + bisect_right(skipped, index)
        raise SchemaError(f"line {line}: {checks[rank][1](index)}")


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset in the long CSV format (full float precision).

    The bytes are those ``csv.writer`` writes for one record per signal and
    timepoint, each value given as its ``repr``: the shortest text that
    reads back to the same float.  ``_signal_text`` formats a run of one
    signal's records.

    The records, in file order, are cut into chunks of about
    ``SPLIT_FLOOR`` bytes of values each, so a dataset under two floors is
    one chunk, and a long signal is cut too.  A piece is one signal's
    records within a chunk.  ``fan_out`` formats the chunks, a piece at a
    time, in this process and in forked children, and this process writes
    them in file order.  So each process holds one chunk's text at a time,
    whatever the horizon.  The file is written through ``whole_file``.

    Raises ValueError, before ``path`` is opened, for a dataset of no
    signals: ``load_csv`` refuses a file of no records.  Every other
    dataset loads back as it was.
    """
    if not len(dataset):
        raise ValueError("a dataset of no signals cannot be saved")
    count, dimension, width = dataset.values.shape
    records = count * width
    chunk_count = min(records, max(1, dataset.values.nbytes // SPLIT_FLOOR))
    chunks = [(records * k // chunk_count, records * (k + 1) // chunk_count)
              for k in range(chunk_count)]
    # writerow returns what it writes: "<id>,\r\n", the id quoted as in a record.
    quote = csv.writer(SimpleNamespace(write=str)).writerow
    quoted = [quote((sid, ""))[:-3] for sid in dataset.ids]
    labels = dataset.labels.tolist()

    @lru_cache(maxsize=4)  # a whole signal's for each label, and the last cut ones
    def middles(label: int, first: int, end: int) -> list[str]:
        """Each record's ",t,label,"."""
        return [f",{t},{label}," for t in range(first, end)]

    def pieces(chunk):
        """The (signal, first t, end t) of each piece of ``chunk``."""
        begin, end = chunk
        for index in range(begin // width, (end - 1) // width + 1):
            start = index * width
            yield index, max(begin - start, 0), min(end - start, width)

    def text(piece) -> bytes:
        index, first, end = piece
        return _signal_text(dataset.values[index, :, first:end], quoted[index],
                            middles(labels[index], first, end)).encode("utf-8")

    def work(chunk) -> list[bytes]:
        return list(map(text, pieces(chunk)))

    header = ["id", "t", "label"] + [f"x{j}" for j in range(1, dimension + 1)]
    with whole_file(path, "wb") as handle, fan_out(work, chunks) as texts:
        handle.write((",".join(header) + "\r\n").encode("utf-8"))
        handle.writelines(chain.from_iterable(texts))


def _signal_text(values: np.ndarray, quoted_id: str, middles: list[str]) -> str:
    """The CSV records of a signal's (n, k) ``values``, k of its timepoints:
    ``quoted_id``, then ``middles[t]`` (``,t,label,``), then the values at
    ``t``, for each of the k.

    A float in a list's repr is its own repr, and no repr holds ``", "``
    or a bracket, so one repr of the rows splits into them.
    """
    rows = repr(values.T.tolist()).replace(", ", ",")[2:-2].split("],[")
    return quoted_id + ("\r\n" + quoted_id).join(map(str.__add__, middles, rows)) + "\r\n"


@contextmanager
def whole_file(path, mode: str = "w", **options):
    """``open(path, mode, **options)`` for writing, such that ``path`` holds
    its old bytes, or no file, until every byte is written.

    The file is written at a new temporary name beside the file ``path``
    resolves to, through symbolic links.  It replaces that file if the
    block runs through, and is removed if the block raises.  A path that
    names something other than a regular file, such as ``/dev/null`` or a
    pipe, is opened and written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, mode, **options) as handle:
            yield handle
        return
    folder, name = os.path.split(target)
    temporary = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
    try:  # O_EXCL never opens another's file; 0o666 gives open's permissions
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = os.fspath(path)  # the error names the file asked for
        raise
    try:
        with open(fd, mode, **options) as handle:
            yield handle
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


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
