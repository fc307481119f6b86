import csv
import io
import math
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    FALSE,
    LE,
    LabeledDataset,
    NEG_LABEL,
    Not,
    POS_LABEL,
    SchemaError,
    TRUE,
    TooFewSamplesError,
    load_csv,
    mcr,
    save_csv,
    stratified_folds,
    uniform_weights,
)
from stlboost import data, fanout
from stlboost.scenarios import NavalConfig, UrbanConfig, generate_naval, generate_urban
from helpers import (
    constant_dataset,
    count_forks,
    cut_dump,
    forbid_forks,
    pred,
    random_formula,
    random_signal,
)
from oracles import naive_load_csv, naive_mcr, naive_save_csv


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


WELL_FORMED = """id,t,label,x1,x2
a,0,1,0.0,1.0
a,1,1,0.5,1.5
a,2,1,1.0,2.0
b,0,-1,3.0,4.0
b,1,-1,3.5,4.5
b,2,-1,4.0,5.0
"""


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        ds = load_csv(write_csv(tmp_path / "ok.csv", WELL_FORMED))
        assert len(ds) == 2
        assert ds.dimension == 2
        assert ds.horizon == 2
        assert ds.ids == ("a", "b")
        assert list(ds.labels) == [POS_LABEL, NEG_LABEL]
        assert ds.values[1, 0, 2] == 4.0

    def test_ragged_signal(self, tmp_path):
        text = WELL_FORMED + "c,0,1,0.0,0.0\nc,1,1,0.0,0.0\n"
        with pytest.raises(SchemaError, match="ragged"):
            load_csv(write_csv(tmp_path / "ragged.csv", text))

    def test_missing_column(self, tmp_path):
        with pytest.raises(SchemaError):
            load_csv(write_csv(tmp_path / "cols.csv", "id,t,x1\na,0,1.0\n"))

    def test_unknown_label(self, tmp_path):
        with pytest.raises(SchemaError, match="label"):
            load_csv(write_csv(tmp_path / "lbl.csv", "id,t,label,x1\na,0,2,0.0\n"))

    def test_duplicate_timepoint(self, tmp_path):
        text = "id,t,label,x1\na,0,1,0.0\na,0,1,0.5\n"
        with pytest.raises(SchemaError, match="duplicate"):
            load_csv(write_csv(tmp_path / "dup.csv", text))

    def test_label_flip_within_id(self, tmp_path):
        text = "id,t,label,x1\na,0,1,0.0\na,1,-1,0.5\n"
        with pytest.raises(SchemaError, match="label"):
            load_csv(write_csv(tmp_path / "flip.csv", text))

    def test_non_finite_value(self, tmp_path):
        text = "id,t,label,x1\na,0,1,nan\n"
        with pytest.raises(SchemaError):
            load_csv(write_csv(tmp_path / "nan.csv", text))

    def test_empty_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_csv(write_csv(tmp_path / "empty.csv", ""))

    def test_not_utf8_text(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"id,t,label,x1\na,0,1,\xff\xfe\n")
        with pytest.raises(SchemaError, match="not a CSV text file"):
            load_csv(path)

    @pytest.mark.parametrize("t", [10**12, 10**20])
    def test_huge_timepoint_is_ragged_without_allocating(self, tmp_path, t):
        text = f"id,t,label,x1\na,0,1,0\na,{t},1,0\n"
        with pytest.raises(SchemaError, match=f"ragged signal 'a': .* 0..{t}$"):
            load_csv(write_csv(tmp_path / "huge.csv", text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_naval_scale(self, tmp_path):
        ds = generate_naval(NavalConfig(count_per_class=1000, seed=4))
        path = tmp_path / "naval.csv"
        save_csv(ds, path)
        again = load_csv(path)
        assert len(again) == 2000
        assert again.horizon == 60
        assert again.dimension == 2
        assert np.array_equal(again.values, ds.values)
        assert np.array_equal(again.labels, ds.labels)


class TestMcr:
    def test_true_against_all_positive(self):
        ds = constant_dataset([0.0, 1.0], [POS_LABEL, POS_LABEL])
        assert mcr(TRUE, ds) == 0.0

    def test_true_against_all_negative(self):
        ds = constant_dataset([0.0, 1.0], [NEG_LABEL, NEG_LABEL])
        assert mcr(TRUE, ds) == 1.0

    def test_half_wrong(self):
        ds = constant_dataset(
            [0.0, 2.0, 0.5, 3.0], [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL]
        )
        assert mcr(pred(1, LE, 1.0), ds) == 0.5

    def test_matches_naive(self):
        rng = random.Random(5)
        signals = [random_signal(rng, 2, 6) for _ in range(9)]
        labels = [rng.choice((POS_LABEL, NEG_LABEL)) for _ in signals]
        ds = LabeledDataset(
            np.stack([s.values for s in signals]), np.array(labels),
            tuple(str(i) for i in range(9)),
        )
        phi = random_formula(rng, 3, 2, 6)
        rows_list = [[list(map(float, row)) for row in s.values] for s in signals]
        assert mcr(phi, ds) == naive_mcr(phi, rows_list, labels)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mcr_complement(seed):
    rng = random.Random(seed)
    signals = [random_signal(rng, 2, 5) for _ in range(7)]
    labels = [rng.choice((POS_LABEL, NEG_LABEL)) for _ in signals]
    ds = LabeledDataset(
        np.stack([s.values for s in signals]), np.array(labels),
        tuple(str(i) for i in range(7)),
    )
    phi = random_formula(rng, 3, 2, 5, allow_const=False)
    from stlboost import robustness_all

    rho = robustness_all(phi, ds.values)
    if np.any(rho == 0):
        return  # complement identity only holds away from the zero boundary
    assert math.isclose(mcr(phi, ds) + mcr(Not(phi), ds), 1.0, abs_tol=1e-12)


class TestFolds:
    def test_forced_stratification(self):
        ds = constant_dataset(range(10), [POS_LABEL] * 5 + [NEG_LABEL] * 5)
        plan = stratified_folds(ds, 5, seed=1)
        for fold in range(5):
            members = plan.test_indices(fold)
            assert len(members) == 2
            assert sorted(ds.labels[members]) == [NEG_LABEL, POS_LABEL]

    def test_counts_and_seed_are_checked(self):
        ds = constant_dataset(range(12), [POS_LABEL] * 6 + [NEG_LABEL] * 6)
        for kwargs, message in (
            ({"fold_count": 2.5}, "fold_count must be an integer, got 2.5"),
            ({"fold_count": True}, "fold_count must be an integer, got True"),
            ({"fold_count": 3, "seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"fold_count": 3, "seed": -1}, "seed must be at least 0, got -1"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                stratified_folds(ds, **kwargs)
        plan = stratified_folds(ds, np.int64(3), seed=np.uint32(4))
        assert plan.assignment.tolist() == stratified_folds(ds, 3, seed=4).assignment.tolist()

    def test_deterministic(self):
        ds = constant_dataset(range(20), [POS_LABEL] * 10 + [NEG_LABEL] * 10)
        a = stratified_folds(ds, 4, seed=9)
        b = stratified_folds(ds, 4, seed=9)
        assert np.array_equal(a.assignment, b.assignment)
        c = stratified_folds(ds, 4, seed=10)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_balanced_at_scale(self):
        count = 1000
        ds = constant_dataset(
            range(2 * count), [POS_LABEL] * count + [NEG_LABEL] * count, horizon=0
        )
        plan = stratified_folds(ds, 5, seed=0)
        for fold in range(5):
            members = plan.test_indices(fold)
            assert len(members) == 400
            assert int(np.sum(ds.labels[members] == POS_LABEL)) == 200

    def test_uneven_sizes_differ_by_at_most_one(self):
        ds = constant_dataset(range(11), [POS_LABEL] * 6 + [NEG_LABEL] * 5)
        plan = stratified_folds(ds, 3, seed=2)
        sizes = [len(plan.test_indices(f)) for f in range(3)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 11
        for fold in range(3):
            members = plan.test_indices(fold)
            pos = int(np.sum(ds.labels[members] == POS_LABEL))
            assert abs(pos - 2) <= 1  # global ratio within one sample

    def test_too_few_samples(self):
        ds = constant_dataset(range(4), [POS_LABEL, POS_LABEL, POS_LABEL, NEG_LABEL])
        with pytest.raises(TooFewSamplesError):
            stratified_folds(ds, 2, seed=0)

    def test_fold_count_validation(self):
        ds = constant_dataset(range(4), [POS_LABEL, POS_LABEL, NEG_LABEL, NEG_LABEL])
        with pytest.raises(ValueError):
            stratified_folds(ds, 1, seed=0)

    def test_train_test_partition(self):
        ds = constant_dataset(range(10), [POS_LABEL] * 5 + [NEG_LABEL] * 5)
        plan = stratified_folds(ds, 5, seed=3)
        for fold in range(5):
            train = set(plan.train_indices(fold))
            test = set(plan.test_indices(fold))
            assert train | test == set(range(10))
            assert not train & test

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 8),
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(0, 2**31 - 1),
    )
    def test_invariants_hold_for_arbitrary_class_sizes(self, k, extra_pos, extra_neg, seed):
        pos = k + extra_pos
        neg = k + extra_neg
        total = pos + neg
        ds = constant_dataset(range(total), [POS_LABEL] * pos + [NEG_LABEL] * neg)
        plan = stratified_folds(ds, k, seed=seed)
        sizes = []
        pos_counts = []
        for fold in range(k):
            members = plan.test_indices(fold)
            sizes.append(len(members))
            pos_counts.append(int(np.sum(ds.labels[members] == POS_LABEL)))
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
        # Per-fold class ratio within one sample of the global ratio.
        for size, in_fold in zip(sizes, pos_counts):
            expected = size * pos / total
            assert abs(in_fold - expected) <= 1.0 + 1e-9


def test_uniform_weights():
    w = uniform_weights(8)
    assert w.shape == (8,)
    assert math.isclose(float(w.sum()), 1.0)


def test_subset_reads_indices_and_masks_by_numpy_rules():
    ds = generate_naval(NavalConfig(count_per_class=5, seed=1))
    mask = np.zeros(len(ds), dtype=bool)
    mask[[1, 4, 8]] = True
    for chosen in (mask, [1, 4, 8], np.array([1, 4, 8])):
        part = ds.subset(chosen)
        assert part.ids == tuple(ds.ids[i] for i in (1, 4, 8))
        assert np.array_equal(part.values, ds.values[[1, 4, 8]])
        assert np.array_equal(part.labels, ds.labels[[1, 4, 8]])
    assert len(ds.subset([])) == 0
    with pytest.raises(IndexError):
        ds.subset(np.array([1.0, 4.0]))


def test_csv_round_trip_exact(tmp_path):
    rng = random.Random(3)
    signals = [random_signal(rng, 3, 4) for _ in range(5)]
    labels = [POS_LABEL, NEG_LABEL, POS_LABEL, NEG_LABEL, POS_LABEL]
    ds = LabeledDataset(
        np.stack([s.values for s in signals]), np.array(labels),
        ("s1", "s2", "s3", "s4", "s5"),
    )
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    again = load_csv(path)
    assert np.array_equal(again.values, ds.values)
    assert again.ids == ds.ids


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 1, 3)), np.array([1, 2]), ("a", "b"))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 1, 3)), np.array([1]), ("a", "b"))
    with pytest.raises(ValueError):
        LabeledDataset(np.full((1, 1, 2), np.inf), np.array([1]), ("a",))
    with pytest.raises(ValueError):
        mcr(FALSE, LabeledDataset(np.zeros((0, 1, 2)), np.zeros(0, dtype=int), ()))
    # No variables or no timepoints: such a dataset could not be saved to a
    # file that loads back, nor trained on.
    for shape in ((2, 0, 3), (2, 1, 0), (0, 0, 3)):
        with pytest.raises(ValueError, match="one variable and one timepoint"):
            LabeledDataset(np.zeros(shape), np.ones(shape[0], dtype=int), ("a", "b")[:shape[0]])


# Each dataset ``LabeledDataset`` refuses would be saved to a file that does
# not load back as it was.

def test_duplicate_ids_are_refused():
    with pytest.raises(ValueError, match="ids must be distinct: 'a' repeats"):
        LabeledDataset(np.zeros((2, 1, 3)), np.array([1, -1]), ("a", "a"))
    ds = LabeledDataset(np.zeros((2, 1, 3)), np.array([1, -1]), ("a", "b"))
    with pytest.raises(ValueError, match="ids must be distinct: 'b' repeats"):
        ds.subset([1, 0, 1])


def test_fractional_labels_are_refused():
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1 \(got 1.5\)"):
        LabeledDataset(np.zeros((2, 1, 3)), np.array([1.5, -1.7]), ("a", "b"))
    ds = LabeledDataset(np.zeros((2, 1, 3)), np.array([1.0, -1.0]), ("a", "b"))
    assert ds.labels.dtype == int and ds.labels.tolist() == [1, -1]


def test_bool_labels_are_refused():
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1, not of type bool"):
        LabeledDataset(np.zeros((2, 1, 3)), [True, True], ("a", "b"))


def test_complex_values_are_refused():
    for values in (np.zeros((2, 1, 3), dtype=complex), np.full((2, 1, 3), 1 + 2j)):
        with pytest.raises(ValueError, match="signal values must be real, not complex"):
            LabeledDataset(values, np.array([1, -1]), ("a", "b"))


def test_checked_data_is_not_checked_again(tmp_path, monkeypatch):
    """``subset`` and ``load_csv`` build their datasets without running
    ``__post_init__``'s checks again, and give the same read-only arrays."""
    path = write_csv(tmp_path / "data.csv", WELL_FORMED)
    ds = load_csv(path)
    part = ds.subset([1])

    def refuse(self):
        raise AssertionError("the checks ran again")

    monkeypatch.setattr(LabeledDataset, "__post_init__", refuse)
    for got, want in ((load_csv(path), ds), (ds.subset([1]), part)):
        assert got.ids == want.ids
        for name in ("values", "labels"):
            array = getattr(got, name)
            assert array.dtype == getattr(want, name).dtype
            assert array.tobytes() == getattr(want, name).tobytes()
            assert not array.flags.writeable
    with pytest.raises(ValueError, match="ids must be distinct"):
        ds.subset([0, 0])


# Differential tests: ``load_csv`` against the record-at-a-time oracle.

ID_TEXT = st.text(st.sampled_from("ab,\"'\n\r é1"), max_size=4)
EXTREME_FLOATS = st.sampled_from([5e-324, -5e-324, 1.7976931348623157e308,
                                  -1.7976931348623157e308, 0.0, -0.0, 1e-300, 10.0])
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EXTREME_FLOATS)
BLOCKS = st.sampled_from([1, 2, 3, 4096])


def _underscored(text):
    """``text`` with "_" between its first two adjacent digits, if any."""
    for k in range(len(text) - 1):
        if text[k].isdigit() and text[k + 1].isdigit():
            return text[:k + 1] + "_" + text[k + 1:]
    return text


def _spellings(text, underscore=True):
    """Ways to write a number that ``int``/``float`` read as the same value;
    ``np.loadtxt`` reads all of them but the underscored one."""
    signed = text if text.startswith("-") else "+" + text
    forms = [text, f" {text}", f"{text} ", signed]
    return st.sampled_from(forms + [_underscored(text)] if underscore else forms)


@st.composite
def dataset_records(draw, id_text=ID_TEXT, underscore=True):
    """The records of a valid dataset, in a shuffled order, as cell text."""
    ids = draw(st.lists(id_text, min_size=1, max_size=5, unique=True))
    dim = draw(st.integers(1, 3))
    horizon = draw(st.integers(0, 4))
    records = []
    for sid in ids:
        label = draw(st.sampled_from([POS_LABEL, NEG_LABEL]))
        for t in range(horizon + 1):
            records.append([sid, draw(_spellings(str(t), underscore)),
                            draw(_spellings(str(label), underscore))]
                           + [draw(_spellings(repr(draw(VALUES)), underscore)) for _ in range(dim)])
    return dim, draw(st.permutations(records))


def _csv_bytes(dim, records, draw):
    """The file: a header, the records, and blank records, CRLF or LF."""
    for _ in range(draw(st.integers(0, 3))):
        records.insert(draw(st.integers(0, len(records))), [])
    # Unquoted, a "\r" inside an id would end the record under LF line ends.
    quote_all = draw(st.booleans()) or any("\r" in r[0] for r in records if r)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
                        quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
    writer.writerow(["id", "t", "label"] + [f"x{j}" for j in range(1, dim + 1)])
    writer.writerows(records)
    return buf.getvalue().encode("utf-8")


def _outcome(load, path):
    """What a loader makes of a file: the dataset as bytes, or the error."""
    try:
        ids, labels, values = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    values = np.array(values, dtype=float)
    return tuple(ids), [int(v) for v in labels], values.shape, values.tobytes()


def _loaded(path):
    ds = load_csv(path)
    return ds.ids, ds.labels, ds.values


def _set(patch, patches):
    """Set each of ``patches`` where it is defined: ``_cpus`` on the fanout
    module, every other name on the data module."""
    for name, value in patches.items():
        patch.setattr(fanout if name == "_cpus" else data, name, value)


def _compare(tmp_path_factory, content, block, **patches):
    """``load_csv``'s outcome on ``content``, at ``BLOCK_ROWS`` of ``block``
    and with ``patches`` set (``_set``), checked against the oracle."""
    path = tmp_path_factory.mktemp("diff") / "data.csv"
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as patch:
        _set(patch, {"BLOCK_ROWS": block, **patches})
        got = _outcome(_loaded, path)
    assert got == _outcome(naive_load_csv, path)
    return got


def _split(cpus):
    """Patches under which even a tiny file is cut into up to ``cpus``
    parts, parsed by forked children; none for one CPU."""
    return {"SPLIT_FLOOR": 1, "_cpus": lambda: cpus} if cpus > 1 else {}


CPUS = st.sampled_from([1, 2, 3])


@settings(max_examples=120, deadline=None)
@given(st.data(), dataset_records(), BLOCKS, CPUS)
def test_load_matches_oracle_on_valid_files(tmp_path_factory, draw_data, spec, block, cpus):
    dim, records = spec
    got = _compare(tmp_path_factory, _csv_bytes(dim, records, draw_data.draw), block,
                   **_split(cpus))
    assert isinstance(got[0], tuple), got


JUNK = st.sampled_from([
    "", " ", "x", "1.5", "nan", "inf", "-inf", "1e400", "0", "2", "-1", "+1", "-5",
    "1_0", "1000000000000", "100000000000000000000", "-100000000000000000000",
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",
])


@st.composite
def faulty_records(draw):
    """A valid dataset's records with one to three faults."""
    dim, records = draw(dataset_records())
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(records) - 1))
        kind = draw(st.sampled_from(["cell", "label", "time", "drop", "repeat",
                                     "extra field", "missing field", "new id"]))
        if kind in ("cell", "label", "time") and len(records[k]) > 3:
            records[k] = list(records[k])
            if kind == "cell":
                records[k][draw(st.integers(1, len(records[k]) - 1))] = draw(JUNK)
            elif kind == "label":
                records[k][2] = draw(st.sampled_from(["1", "-1", "+1", "-1 "]))
            else:
                records[k][1] = draw(st.sampled_from(["-1", "-0", "7", "100000000000000000000"]))
        elif kind == "drop" and len(records) > 1:
            del records[k]
        elif kind == "repeat":
            records.insert(draw(st.integers(0, len(records))), list(records[k]))
        elif kind == "extra field":
            records[k] = list(records[k]) + [draw(JUNK)]
        elif kind == "missing field":
            records[k] = list(records[k])[:-1]
        elif kind == "new id":
            records.insert(draw(st.integers(0, len(records))),
                           ["new", draw(JUNK), draw(JUNK)] + [draw(JUNK)] * dim)
    return dim, records


EDGE_CASES = {
    # An id with T+1 timepoints, one of them past the first id's horizon.
    "id,t,label,x1\na,0,1,0\na,1,1,0\nb,0,1,0\nb,5,1,0\n": "ragged signal 'b'",
    # A record that both changes the label and repeats a timepoint.
    "id,t,label,x1\na,0,1,0\na,0,-1,0\n": "line 3: label changes",
    # Of several faulty records the earliest is named; blank records count.
    "id,t,label,x1\na,0,1,0\n\na,1,1,0,9\na,x,1,0\n": "line 4: expected 4 fields",
    "id,t,label,x1\na,0,1,0\na,1,1,x\na,1,1,0,9\n": "line 3: could not convert",
    "id,t,label,x1\na,0,1,0\na,1,1,nan\na,x,1,0\n": "line 3: non-finite",
    # A t that crashed numpy 2.4.6's loadtxt.
    "id,t,label,x1\na,0,1,0\na,\U000c1fd9\u00c5,1,0\n": "line 3: invalid literal for int()",
    # Blank records only, then a valid file with blank records and odd spellings.
    "id,t,label,x1\n\n\n": "no data rows",
    "id,t,label,x1\n\na,0,+1,0\n\nb,0,-1,1_0\n": None,
}


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
@pytest.mark.parametrize("text", list(EDGE_CASES))
def test_load_matches_oracle_on_edge_cases(tmp_path_factory, block, text):
    expected = EDGE_CASES[text]
    for cpus in (1, 2, 3):
        got = _compare(tmp_path_factory, text.encode(), block, **_split(cpus))
        if expected is None:
            assert got[:2] == (("a", "b"), [POS_LABEL, NEG_LABEL]), (cpus, got)
        else:
            assert expected in got[1], (cpus, got)


@settings(max_examples=200, deadline=None)
@given(st.data(), faulty_records(), BLOCKS, CPUS)
def test_load_matches_oracle_on_faulty_files(tmp_path_factory, draw_data, spec, block, cpus):
    dim, records = spec
    _compare(tmp_path_factory, _csv_bytes(dim, records, draw_data.draw), block, **_split(cpus))


@pytest.mark.parametrize("block", [3, 4096])
@pytest.mark.parametrize("early", ["", "a,1,2,0.0\n", "a,2,1,0.0\na,2,1,0.0\n"])
@pytest.mark.parametrize("late", [b"\xff\xfe", b"b,0,1," + b"9" * 200_000])
def test_unreadable_text_after_many_records(tmp_path_factory, block, early, late):
    """Bad bytes or an over-long field past the first 8 KiB read chunk end
    the read; a fault in an earlier record, in the same block or an earlier
    one, is still the one reported."""
    head = "id,t,label,x1\na,0,1,0.0\n" + early
    body = "".join(f"s{i // 10},{i % 10},1,{i}.5\n" for i in range(1000))
    for cpus in (1, 2, 3):
        got = _compare(tmp_path_factory, (head + body).encode() + late + b"\n", block,
                       **_split(cpus))
        if not early:
            assert got[1].startswith("not a CSV text file"), (cpus, got)
        else:
            assert got[1].startswith("line "), (cpus, got)


# Files without a quote character or a blank line are parsed by np.loadtxt;
# the exact path reads the rest.

def _unreachable(path):
    raise AssertionError("the exact path read the file")


@settings(max_examples=120, deadline=None)
@given(st.data(), dataset_records(st.text(st.sampled_from("ab \x00\x0c\x1cé1"), max_size=4),
                                  underscore=False),
       BLOCKS, st.sampled_from(["\n", "\r\n", "\r"]), CPUS)
def test_clean_files_take_the_fast_path(tmp_path_factory, draw_data, spec, block, ending, cpus):
    """An unquoted file with no blank line loads with the exact path
    disabled, for each line ending, with or without a last one, and cut
    into parts or not."""
    dim, records = spec
    header = ["id", "t", "label"] + [f"x{j}" for j in range(1, dim + 1)]
    text = ending.join(map(",".join, [header] + records))
    text += draw_data.draw(st.sampled_from([ending, ""]))
    got = _compare(tmp_path_factory, text.encode(), block, _load_exact=_unreachable,
                   **_split(cpus))
    assert isinstance(got[0], tuple), got


CLEAN = "id,t,label,x1\na,0,1,0.5\na,1,1,1\nb,0,-1,2\nb,1,-1,3\n"
WIDE = "0." + "0" * 70_000 + "1"  # two of them make a line longer than the field limit
# Each file the fast path refuses, with what the oracle makes of it: the
# dataset (None) or a piece of its error text.
REFUSED = {
    "quote": (CLEAN.replace("b,0", '"b",0'), None),
    "quoted-header": ('"id"' + CLEAN[2:], None),
    "blank-record": (CLEAN.replace("\nb,0", "\n\nb,0"), None),
    "blank-crlf-record": (CLEAN.replace("\n", "\r\n") + "\r\n", None),
    "whitespace-line": (CLEAN + " \t\n", "line 6: expected 4 fields"),
    "long-line": (f"id,t,label,x1,x2\na,0,1,{WIDE},{WIDE}\nb,0,-1,1,2\n", None),
    "long-header": (CLEAN.replace("x1", "x1" + " " * 140_000, 1), "field larger than field limit"),
    "long-field": (CLEAN + "c,0,1,0." + "0" * 200_000 + "1\n", "field larger than field limit"),
    "int64-timepoint": (CLEAN.replace("b,1,", "b,9223372036854775808,"), "ragged signal 'b'"),
    "underscore": (CLEAN.replace(",3\n", ",1_0\n"), None),
    "arabic-digit": (CLEAN.replace(",3\n", ",\u0663\n"), None),
    # A non-ASCII digit in an int field goes to the exact path, after a
    # non-ASCII id too: some such text crashed numpy 2.4.6's loadtxt.
    "arabic-digit-timepoint": (CLEAN.replace("b,1,", "b,\u0661,"), None),
    "arabic-digit-timepoint-after-non-ascii-id": (
        CLEAN.replace("a,", "\u00e9,").replace("b,1,", "b,\u0661,"), None),
    "float-timepoint": (CLEAN.replace("b,1,", "b,1.0,"), "line 5: invalid literal for int()"),
    "nul": (CLEAN.replace(",3\n", ",3\x00\n"), "line 5: could not convert"),
    "bom": ("\ufeff" + CLEAN, "header must start with id"),
    "extra-field": (CLEAN.replace(",3\n", ",3,4\n"), "line 5: expected 4 fields"),
    # One field too many, then one too few: the commas of a block add up.
    "uneven-fields": (CLEAN.replace("a,1,1,1\n", "a,1,1,1,7\n").replace("b,1,-1,3", "b,1,-1"),
                      "line 3: expected 4 fields"),
    # The commas of a block add up, but a blank line holds none.
    "extra-fields-and-blank-line": (CLEAN.replace(",3\n", ",3,4,5,6\n\n"),
                                    "line 5: expected 4 fields"),
    # A row check's error on an earlier record beats the error that stops
    # reading, wherever the blocks end.
    "duplicate-then-bad-cell": (CLEAN + "b,1,-1,3\n\nc,0,1,x\n",
                                "line 6: duplicate (id='b', t=1)"),
}


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
@pytest.mark.parametrize("name", list(REFUSED))
def test_refused_files_match_oracle(tmp_path_factory, block, name):
    text, expected = REFUSED[name]
    load_exact, exact = data._load_exact, []

    def spy(path):
        exact.append(path)
        return load_exact(path)

    for cpus in (1, 2, 3):
        exact.clear()
        got = _compare(tmp_path_factory, text.encode(), block, _load_exact=spy, **_split(cpus))
        assert len(exact) == 1, cpus
        if expected is None:
            assert isinstance(got[0], tuple), (cpus, got)
        else:
            assert expected in got[1], (cpus, got)


# A clean file that fails a row check, or is ragged, or holds no record, is
# parsed whole by the fast path, which raises the exact path's error.
ROW_FAULTS = {
    "label": CLEAN.replace("b,1,-1,", "b,1,2,"),
    "negative-timepoint": CLEAN.replace("b,1,", "b,-1,"),
    "non-finite": CLEAN.replace(",3\n", ",inf\n"),
    "label-change": CLEAN.replace("b,1,-1,", "b,1,1,"),
    "duplicate": CLEAN + "b,1,-1,3\n",
    "ragged": CLEAN + "c,0,1,4\n",
    "no-data": "id,t,label,x1\n",
}


@pytest.mark.parametrize("block", [1, 4096])
@pytest.mark.parametrize("name", list(ROW_FAULTS))
def test_row_faults_of_clean_files_are_raised_by_the_fast_path(tmp_path_factory, block, name):
    path = tmp_path_factory.mktemp("exact") / "data.csv"
    path.write_text(ROW_FAULTS[name], encoding="utf-8")
    with pytest.raises(SchemaError) as exact:
        data._load_exact(path)
    for cpus in (1, 2, 3):
        got = _compare(tmp_path_factory, ROW_FAULTS[name].encode(), block,
                       _load_exact=_unreachable, **_split(cpus))
        assert got == (SchemaError, str(exact.value)), cpus


# The fast path codes ids a run of equal ids at a time; an id that comes
# back after another keeps its first code, within a block and across one.
RETURNING_IDS = ("id,t,label,x1\na,0,1,0\na,1,1,1\nb,0,-1,2\na,2,1,3\nc,0,1,4\nc,1,1,5\n"
                 "b,1,-1,6\nb,2,-1,7\nc,2,1,8\na,3,1,9\nb,3,-1,10\nc,3,1,11\n")


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_ids_that_come_back_keep_their_first_code(tmp_path_factory, block):
    for cpus in (1, 2, 3):
        got = _compare(tmp_path_factory, RETURNING_IDS.encode(), block,
                       _load_exact=_unreachable, **_split(cpus))
        assert got[:2] == (("a", "b", "c"), [POS_LABEL, NEG_LABEL, POS_LABEL]), (cpus, got)


# Ids in several scripts, an astral character, a combining mark and a
# non-ASCII digit among them; every other field is ASCII.
NON_ASCII_IDS = "".join(
    f"{sid},{t},{label},{t}.5\n"
    for sid, label in (("\u00e9", 1), ("\u4e2d", -1), ("\U0001f600", 1), ("e\u0301", -1),
                       ("\u0661", 1), ("a\u00e9b", -1))
    for t in range(3))


@pytest.mark.parametrize("block", [1, 2, 4096])
def test_non_ascii_ids_take_the_fast_path(tmp_path_factory, block):
    for cpus in (1, 2, 3):
        got = _compare(tmp_path_factory, ("id,t,label,x1\n" + NON_ASCII_IDS).encode(), block,
                       _load_exact=_unreachable, **_split(cpus))
        assert got[0] == ("\u00e9", "\u4e2d", "\U0001f600", "e\u0301", "\u0661", "a\u00e9b"), got


def test_run_codes_follow_first_appearance():
    code_of = {"z": 0}
    ids = np.array(["a", "a", "b", "a", "z", "c", "c", "b"], dtype=object)
    assert data._run_codes(ids, code_of).tolist() == [1, 1, 2, 1, 0, 3, 3, 2]
    assert list(code_of) == ["z", "a", "b", "c"]
    assert data._run_codes(np.array(["c"], dtype=object), code_of).tolist() == [3]


def test_a_block_is_one_loadtxt_call_and_one_lookup_per_run(tmp_path, monkeypatch):
    """The fast path reads each block with one ``np.loadtxt`` call over
    every column, with no ``usecols``, and looks up only the first id of
    each run of equal ids, then the part's ids once."""
    path = write_csv(tmp_path / "runs.csv", SPLIT_FILE)  # ids s0..s9, 10 lines each
    monkeypatch.setattr(data, "BLOCK_ROWS", 25)
    monkeypatch.setattr(data, "_load_exact", _unreachable)
    loadtxt, calls = np.loadtxt, []
    codes, lookups = data._codes, []

    def loadtxt_spy(*args, **kwargs):
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    def codes_spy(sids, code_of):
        lookups.append(list(sids))
        return codes(sids, code_of)

    monkeypatch.setattr(data.np, "loadtxt", loadtxt_spy)
    monkeypatch.setattr(data, "_codes", codes_spy)
    ds = load_csv(path)
    assert len(calls) == 4 and not any("usecols" in kwargs for kwargs in calls), calls
    names = [f"s{k}" for k in range(10)]
    assert lookups == [names[0:3], names[2:5], names[5:8], names[7:10], names], lookups
    assert (_outcome(lambda _: (ds.ids, ds.labels, ds.values), path)
            == _outcome(naive_load_csv, path))


# A file of at least two SPLIT_FLOORs is cut into parts at line starts, and
# forked children parse every part but the first.

HEAD = "id,t,label,x1\n"
FOUR_LINES = HEAD + "a,0,1,0\na,1,1,1\nb,0,-1,2\nb,1,-1,3\n"
# Each file, with what the oracle makes of it: the dataset (None) or a piece
# of its error text.  The parts named are those of two CPUs.
SPLIT_CASES = {
    # The middle of the body is a line start: it is the cut.
    "cut-at-line-start": (HEAD + "a,0,1,5\na,1,1,6\nb,0,1,7\nb,1,1,8\n", None),
    # The child's part, "c,0 b,1 c,1", codes c before b; the file, b before c.
    "id-first-seen-in-child": (HEAD + "a,0,1,0\na,1,1,1\nb,0,-1,2\nc,0,1,3\nb,1,-1,4\nc,1,1,5\n",
                               None),
    "duplicate-across-cut": (HEAD + "a,0,1,0\na,1,1,1\nb,0,1,2\na,0,1,3\n",
                             "line 5: duplicate (id='a', t=0)"),
    "label-change-across-cut": (HEAD + "a,0,1,0\nb,0,1,1\na,1,-1,2\nb,1,1,3\n",
                                "line 4: label changes within id 'a'"),
    "bad-cell-in-child": (FOUR_LINES.replace(",3\n", ",x\n"),
                          "line 5: could not convert string to float: 'x'"),
    "non-ascii-id-at-cut": (HEAD + "\u00e9,0,1,0\n\u00fc,0,1,1\n\u00e9,1,1,2\n\u00fc,1,1,3\n", None),
    "crlf": (FOUR_LINES.replace("\n", "\r\n"), None),
    # No "\n" to cut after: one part.
    "cr-only": (FOUR_LINES.replace("\n", "\r"), None),
}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("block", [1, 4096])
@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_split_files_match_oracle(tmp_path_factory, name, block, cpus):
    text, expected = SPLIT_CASES[name]
    cuts, real_cuts = [], data._cuts

    def spy(*args):
        cuts.append(real_cuts(*args))
        return cuts[-1]

    got = _compare(tmp_path_factory, text.encode(), block, _cuts=spy, **_split(cpus))
    assert len(cuts[0]) == (2 if name == "cr-only" else cpus + 1), cuts
    if expected is None:
        assert isinstance(got[0], tuple), got
    else:
        assert expected in got[1], got


def test_cut_at_a_line_start_stays_there(tmp_path, monkeypatch):
    text = SPLIT_CASES["cut-at-line-start"][0]
    path = write_csv(tmp_path / "cut.csv", text)
    monkeypatch.setattr(data, "SPLIT_FLOOR", 1)
    monkeypatch.setattr(fanout, "_cpus", lambda: 2)
    fd = os.open(path, os.O_RDONLY)
    try:
        assert data._cuts(fd, len(HEAD), len(text)) == [len(HEAD), len(HEAD) + 16, len(text)]
    finally:
        os.close(fd)


SPLIT_FILE = HEAD + "".join(f"s{i // 10},{i % 10},1,{i}.5\n" for i in range(100))


def _in_child(action, name="_parse_part", here=None):
    """A stand-in for ``data.<name>`` (``_parse_part`` by default) that
    calls ``action`` first in a forked child, and runs as usual in this
    process, or calls ``here`` instead if given."""
    run, parent = getattr(data, name), os.getpid()

    def stand_in(*args):
        if os.getpid() != parent:
            action()
        elif here is not None:
            return here(*args)
        return run(*args)

    return stand_in


def _raise(exc):
    def action(*args):
        raise exc
    return action


@pytest.mark.parametrize("case", ["success", "child-refuses", "child-raises", "parent-raises"])
def test_no_child_outlives_a_load(tmp_path, monkeypatch, case):
    """Every child is reaped before ``load_csv`` returns or raises, a child
    still running is killed, and no pipe is left open."""
    text = SPLIT_FILE.replace("s9,9,1,99.5", "s9,9,1,x") if case == "child-refuses" else SPLIT_FILE
    path = write_csv(tmp_path / "split.csv", text)
    monkeypatch.setattr(data, "SPLIT_FLOOR", 1)
    monkeypatch.setattr(fanout, "_cpus", lambda: 3)
    if case == "child-raises":
        monkeypatch.setattr(data, "_parse_part", _in_child(_raise(RuntimeError("child"))))
    elif case == "parent-raises":  # this process, while the children sleep
        monkeypatch.setattr(data, "_parse_part", _in_child(lambda: time.sleep(60),
                                                           here=_raise(RuntimeError("parent"))))
    fds = os.listdir("/dev/fd")
    start = time.monotonic()
    try:
        got = _outcome(_loaded, path)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert time.monotonic() - start < 30  # the sleeping children were killed
    assert os.listdir("/dev/fd") == fds
    if case == "parent-raises":
        assert got == (RuntimeError, "parent")
    else:
        assert got == _outcome(naive_load_csv, path)
        assert (case == "child-refuses") == (got[0] is SchemaError), got


def test_a_part_a_child_refuses_is_parsed_once(tmp_path, monkeypatch):
    """A child whose part holds a cell loadtxt cannot parse sends its
    refusal: this process parses its own part alone before the exact path
    reads the file."""
    path = write_csv(tmp_path / "bad.csv", SPLIT_FILE.replace("s9,9,1,99.5", "s9,9,1,x"))
    monkeypatch.setattr(data, "SPLIT_FLOOR", 1)
    monkeypatch.setattr(fanout, "_cpus", lambda: 2)
    parse, here = data._parse_part, []  # a child's appends stay in the child
    monkeypatch.setattr(data, "_parse_part", lambda *args: here.append(args) or parse(*args))
    with pytest.raises(SchemaError, match="line 101: could not convert"):
        load_csv(path)
    assert len(here) == 1


CHILD_SCRIPT = """
import os, sys
from stlboost import data, fanout
data.SPLIT_FLOOR = 1
fanout._cpus = lambda: 3
parent, parse = os.getpid(), data._parse_part
def parse_part(*args):
    if os.getpid() != parent:
        raise {exc}
    return parse(*args)
data._parse_part = parse_part
sys.stdout.write("pending ")  # still in this process's buffer when it forks
print(len(data.load_csv(sys.argv[1])))
"""


@pytest.mark.parametrize("exc", ["SystemExit(0)", "KeyboardInterrupt()", "RuntimeError()"])
def test_child_never_returns_to_the_caller(tmp_path, exc):
    """A child that raises leaves through ``os._exit``: it neither runs the
    caller's code nor flushes the stdout buffer it copied."""
    path = write_csv(tmp_path / "split.csv", SPLIT_FILE)
    source = os.path.dirname(os.path.dirname(data.__file__))
    done = subprocess.run([sys.executable, "-c", CHILD_SCRIPT.format(exc=exc), str(path)],
                          env=dict(os.environ, PYTHONPATH=source), capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "pending 10\n", "")


@pytest.mark.parametrize("gate", ["none", "under-floor", "thread", "no-affinity"])
def test_fork_only_where_a_split_can_pay(tmp_path, monkeypatch, gate):
    """No process is forked to load a file, or to save a dataset, under two
    floors (a naval set of the benchmark's size), while another Python
    thread runs, or without ``os.sched_getaffinity``; with none of these,
    one is."""
    forbid_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    path = tmp_path / "data.csv"
    if gate == "under-floor":
        dataset = generate_naval(NavalConfig(count_per_class=20, noise=2.0, seed=0))
        save_csv(dataset, path)
        assert path.stat().st_size < 2 * data.SPLIT_FLOOR
        assert dataset.values.nbytes < 2 * data.SPLIT_FLOOR
    else:
        write_csv(path, SPLIT_FILE)
        dataset = SAVE_SET
        monkeypatch.setattr(data, "SPLIT_FLOOR", 1)
    if gate == "none":
        with pytest.raises(AssertionError, match="forked"):
            load_csv(path)
        with pytest.raises(AssertionError, match="forked"):
            save_csv(dataset, tmp_path / "saved.csv")
        return
    if gate == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    if gate == "thread":
        thread.start()
    try:
        assert _outcome(_loaded, path) == _outcome(naive_load_csv, path)
        _check_save(tmp_path, dataset)
    finally:
        release.set()
        if gate == "thread":
            thread.join(timeout=60)
            assert not thread.is_alive()


def test_parts_left_unforked_are_parsed_here(tmp_path_factory, monkeypatch):
    """When a fork fails, this process parses the parts not yet forked."""
    fork, forks = os.fork, []

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError("no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    fds = os.listdir("/dev/fd")
    got = _compare(tmp_path_factory, SPLIT_FILE.encode(), 4096, _load_exact=_unreachable,
                   **_split(3))
    assert len(forks) == 2 and isinstance(got[0], tuple), got
    assert os.listdir("/dev/fd") == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)



# At its peak the loader holds the values, every block's x and a few ints
# per row, under 3 times the values' bytes on urban data (n=4).  Blocks of
# 256 rows keep one block's scratch memory small next to the result.

@pytest.fixture(scope="module")
def urban_files(tmp_path_factory):
    """Two files of 20 urban signals with T=499, the second with its rows
    shuffled, each with the oracle's outcome."""
    root = tmp_path_factory.mktemp("urban")
    path, shuffled = root / "urban.csv", root / "shuffled.csv"
    save_csv(generate_urban(UrbanConfig(count_per_class=10, horizon=499, seed=0)), path)
    head, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(0).shuffle(records)
    shuffled.write_text(head + "".join(records), encoding="utf-8")
    return {False: (path, _outcome(naive_load_csv, path)),
            True: (shuffled, _outcome(naive_load_csv, shuffled))}


def _traced(load, path):
    """``load(path)``, and the peak of the memory traced while it ran."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        dataset = load(path)
        return dataset, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("loader", ["fast-1", "fast-2", "fast-3", "exact"])
def test_load_peaks_under_three_times_the_values(urban_files, monkeypatch, loader, shuffled):
    """The fast path, its file cut into one part per CPU, and the exact
    path peak under 3 times ``values.nbytes``, and fill the values block
    by block as the oracle reads them, rows in file order or shuffled."""
    path, expected = urban_files[shuffled]
    monkeypatch.setattr(data, "BLOCK_ROWS", 256)
    if loader == "exact":
        load = data._load_exact
    else:
        _set(monkeypatch, {"_load_exact": _unreachable, **_split(int(loader[-1]))})
        load = load_csv
    dataset, peak = _traced(load, path)
    assert _outcome(lambda _: (dataset.ids, dataset.labels, dataset.values), path) == expected
    assert peak <= 3 * dataset.values.nbytes, peak / dataset.values.nbytes


@st.composite
def datasets(draw):
    """Zero to five signals with 1-3 variables and horizons from 0, over ids
    that need quoting and extreme floats."""
    ids = draw(st.lists(ID_TEXT, max_size=5, unique=True))
    dim = draw(st.integers(1, 3))
    width = draw(st.integers(1, 5))
    values = draw(st.lists(VALUES, min_size=len(ids) * dim * width,
                           max_size=len(ids) * dim * width))
    labels = [draw(st.sampled_from([POS_LABEL, NEG_LABEL])) for _ in ids]
    return LabeledDataset(np.array(values, dtype=float).reshape(len(ids), dim, width),
                          np.array(labels, dtype=int), tuple(ids))


def _check_save(folder, ds):
    """``save_csv`` writes the same bytes as the record-at-a-time writer."""
    save_csv(ds, folder / "got.csv")
    naive_save_csv(ds, folder / "want.csv")
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


def _save_split(folder, ds, cpus, floor=1):
    """``_check_save`` with ``cpus`` CPUs and ``SPLIT_FLOOR`` at ``floor``
    bytes, so that even a tiny dataset spans chunks and forked children;
    returns the number of children forked and of chunks they sent."""
    chunks, here = [], []
    fan_out = data.fan_out

    def counted(work, tasks):
        chunks.extend(tasks)
        # A child's appends stay in the child: ``here`` holds this process's.
        return fan_out(lambda chunk: here.append(chunk) or work(chunk), chunks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "SPLIT_FLOOR", floor)
        patch.setattr(fanout, "_cpus", lambda: cpus)
        forks = count_forks(patch)
        patch.setattr(data, "fan_out", counted)
        _check_save(folder, ds)
    return len(forks), len(chunks) - len(here)


@settings(max_examples=150, deadline=None)
@given(datasets().filter(len), CPUS, st.sampled_from([1, 64]))
def test_save_matches_oracle(tmp_path_factory, ds, cpus, floor):
    """At one to three CPUs, with chunks of one record or of 64 bytes of
    values and more, which cut signals and span them."""
    _save_split(tmp_path_factory.mktemp("save"), ds, cpus, floor)


def _dataset(ids, dim=2, width=3):
    values = np.arange(len(ids) * dim * width, dtype=float).reshape(len(ids), dim, width) / 7
    return LabeledDataset(values - 3, [(-1) ** k for k in range(len(ids))], ids)


# At two and three CPUs, with one signal per chunk, chunks 1, 5, 7 and 11
# are a child's, and each is the first it sends.
QUOTED_IDS = [f"s{k}" for k in range(12)]
QUOTED_IDS[1], QUOTED_IDS[5], QUOTED_IDS[7], QUOTED_IDS[11] = "a,b", 'q"x', "", "x\ny"
# Each case's dataset and the number of chunks to cut it into, at a floor
# of one signal's values but for the long signal.
SAVE_CASES = {
    "quoted-ids-open-child-chunks": (_dataset(QUOTED_IDS), 12),
    "one-signal": (_dataset(["only"]), 1),
    "long-signal": (_dataset(["long"], width=40), 4),
    "horizon-0": (_dataset(["a", "b", "c", "d"], width=1), 4),
    "more-chunks-than-cpus": (_dataset([f"s{k}" for k in range(10)], dim=3, width=4), 10),
}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", list(SAVE_CASES))
def test_save_cases_match_oracle(tmp_path, name, cpus):
    """Named cases at one to three CPUs; a long signal is cut into chunks
    that children format too."""
    ds, chunks = SAVE_CASES[name]
    workers = min(cpus, chunks)
    # The children send every chunk but this process's, every workers-th.
    assert _save_split(tmp_path, ds, cpus, ds.values.nbytes // chunks) == (
        workers - 1, chunks - math.ceil(chunks / workers))


SAVE_SET = _dataset([f"s{k}" for k in range(10)], width=300)


@pytest.mark.parametrize("case", ["success", "child-raises", "child-cut-short",
                                  "parent-write-fails"])
def test_no_child_outlives_a_save(tmp_path, monkeypatch, case):
    """Every child is reaped before ``save_csv`` returns or raises, and no
    pipe is left open.  A child that fails before it sends, or that sends
    one chunk and then only part of the next, leaves its chunks from there
    on to this process, which still writes the oracle's bytes; an error
    writing the file propagates."""
    monkeypatch.setattr(data, "SPLIT_FLOOR", 1)
    monkeypatch.setattr(fanout, "_cpus", lambda: 3)
    if case == "child-raises":
        monkeypatch.setattr(data, "_signal_text",
                            _in_child(_raise(RuntimeError("child")), "_signal_text"))
    elif case == "child-cut-short":
        monkeypatch.setattr(pickle, "dump", cut_dump(1))
    fds = os.listdir("/dev/fd")
    try:
        if case == "parent-write-fails":
            with pytest.raises(OSError):  # the parent's own first chunk fills the device
                save_csv(SAVE_SET, "/dev/full")
        else:
            _check_save(tmp_path, SAVE_SET)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert os.listdir("/dev/fd") == fds


def test_a_dataset_of_no_signals_is_not_saved(tmp_path):
    """``load_csv`` refuses a file of no records, so ``save_csv`` refuses
    to write one, before it opens the path: the old file stays."""
    path = tmp_path / "data.csv"
    path.write_bytes(b"old bytes")
    empty = LabeledDataset(np.zeros((0, 2, 3)), np.zeros(0, dtype=int), ())
    with pytest.raises(ValueError, match="no signals"):
        save_csv(empty, path)
    assert os.listdir(tmp_path) == ["data.csv"] and path.read_bytes() == b"old bytes"


@settings(max_examples=100, deadline=None)
@given(datasets().filter(len), CPUS)
def test_saved_datasets_load_back(tmp_path_factory, ds, cpus):
    """Every dataset of one signal or more loads back as it was saved: the
    values' bits, the labels and the ids.  At one to three CPUs with a floor
    of 64 bytes, the save and the load are cut into chunks and parts."""
    path = tmp_path_factory.mktemp("round") / "data.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "SPLIT_FLOOR", 64)
        patch.setattr(fanout, "_cpus", lambda: cpus)
        save_csv(ds, path)
        again = load_csv(path)
    assert again.values.shape == ds.values.shape
    assert again.values.tobytes() == ds.values.tobytes()
    assert again.labels.tolist() == ds.labels.tolist()
    assert again.ids == ds.ids


def _fail_midway(handle):
    handle.write("new bytes")
    raise OSError("the device is full")


@pytest.mark.parametrize("old", [None, "old bytes"])
def test_whole_file_leaves_the_old_bytes_on_failure(tmp_path, old):
    """A write that raises midway leaves the old bytes, or no file, and no
    temporary file; one that runs through replaces them."""
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_text(old)
    with pytest.raises(OSError, match="full"):
        with data.whole_file(path) as handle:
            _fail_midway(handle)
    assert os.listdir(tmp_path) == ([] if old is None else ["out.txt"])
    assert old is None or path.read_text() == old
    with data.whole_file(path) as handle:
        handle.write("new bytes")
    assert os.listdir(tmp_path) == ["out.txt"] and path.read_text() == "new bytes"


def test_whole_file_writes_through_links_and_devices(tmp_path):
    """A symbolic link is written through, and a device is written in place."""
    target = tmp_path / "target.txt"
    target.write_text("old")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with data.whole_file(link) as handle:
        handle.write("new")
    assert link.is_symlink() and target.read_text() == "new"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]
    with data.whole_file(os.devnull) as handle:
        handle.write("gone")
    assert not os.path.isfile(os.devnull)


def test_a_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    """``save_csv`` raising midway, past its header and first piece, leaves
    the old file and no temporary file."""
    path = tmp_path / "data.csv"
    path.write_bytes(b"old bytes")
    monkeypatch.setattr(data, "SPLIT_FLOOR", 1)
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    text, calls = data._signal_text, []

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise OSError("the device is full")
        return text(*args)

    monkeypatch.setattr(data, "_signal_text", failing)
    with pytest.raises(OSError, match="full"):
        save_csv(SAVE_SET, path)
    assert os.listdir(tmp_path) == ["data.csv"] and path.read_bytes() == b"old bytes"
