import csv
import io
import math
import random

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
from stlboost import data
from stlboost.scenarios import NavalConfig, generate_naval
from helpers import constant_dataset, pred, random_formula, random_signal
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


def _spellings(text):
    """Ways to write a number that ``int``/``float`` read as the same value."""
    signed = text if text.startswith("-") else "+" + text
    return st.sampled_from([text, f" {text}", f"{text} ", signed, _underscored(text)])


@st.composite
def dataset_records(draw):
    """The records of a valid dataset, in a shuffled order, as cell text."""
    ids = draw(st.lists(ID_TEXT, min_size=1, max_size=5, unique=True))
    dim = draw(st.integers(1, 3))
    horizon = draw(st.integers(0, 4))
    records = []
    for sid in ids:
        label = draw(st.sampled_from([POS_LABEL, NEG_LABEL]))
        for t in range(horizon + 1):
            records.append([sid, draw(_spellings(str(t))), draw(_spellings(str(label)))]
                           + [draw(_spellings(repr(draw(VALUES)))) for _ in range(dim)])
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


def _compare(tmp_path_factory, content, block):
    path = tmp_path_factory.mktemp("diff") / "data.csv"
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "BLOCK_ROWS", block)
        got = _outcome(_loaded, path)
    assert got == _outcome(naive_load_csv, path)
    return got


@settings(max_examples=120, deadline=None)
@given(st.data(), dataset_records(), BLOCKS)
def test_load_matches_oracle_on_valid_files(tmp_path_factory, draw_data, spec, block):
    dim, records = spec
    got = _compare(tmp_path_factory, _csv_bytes(dim, records, draw_data.draw), block)
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
    # Blank records only, then a valid file with blank records and odd spellings.
    "id,t,label,x1\n\n\n": "no data rows",
    "id,t,label,x1\n\na,0,+1,0\n\nb,0,-1,1_0\n": None,
}


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
@pytest.mark.parametrize("text", list(EDGE_CASES))
def test_load_matches_oracle_on_edge_cases(tmp_path_factory, block, text):
    got = _compare(tmp_path_factory, text.encode(), block)
    expected = EDGE_CASES[text]
    if expected is None:
        assert got[:2] == (("a", "b"), [POS_LABEL, NEG_LABEL]), got
    else:
        assert expected in got[1], got


@settings(max_examples=200, deadline=None)
@given(st.data(), faulty_records(), BLOCKS)
def test_load_matches_oracle_on_faulty_files(tmp_path_factory, draw_data, spec, block):
    dim, records = spec
    _compare(tmp_path_factory, _csv_bytes(dim, records, draw_data.draw), block)


@pytest.mark.parametrize("block", [3, 4096])
@pytest.mark.parametrize("early", ["", "a,1,2,0.0\n", "a,2,1,0.0\na,2,1,0.0\n"])
@pytest.mark.parametrize("late", [b"\xff\xfe", b"b,0,1," + b"9" * 200_000])
def test_unreadable_text_after_many_records(tmp_path_factory, block, early, late):
    """Bad bytes or an over-long field past the first 8 KiB read chunk end
    the read; a fault in an earlier record, in the same block or an earlier
    one, is still the one reported."""
    head = "id,t,label,x1\na,0,1,0.0\n" + early
    body = "".join(f"s{i // 10},{i % 10},1,{i}.5\n" for i in range(1000))
    got = _compare(tmp_path_factory, (head + body).encode() + late + b"\n", block)
    if not early:
        assert got[1].startswith("not a CSV text file"), got
    else:
        assert got[1].startswith("line "), got


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


@settings(max_examples=150, deadline=None)
@given(datasets())
def test_save_matches_oracle(tmp_path_factory, ds):
    """``save_csv`` writes the same bytes as the record-at-a-time writer."""
    folder = tmp_path_factory.mktemp("save")
    save_csv(ds, folder / "got.csv")
    naive_save_csv(ds, folder / "want.csv")
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()
