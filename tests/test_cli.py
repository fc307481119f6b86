import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    LabeledDataset,
    NavalConfig,
    generate_naval,
    load_csv,
    model_from_dict,
    predict_all,
    robustness_all,
    save_csv,
    stratified_folds,
)
from stlboost import (
    BoostedModel,
    Leaf,
    TreeConfig,
    TreeRound,
    UrbanConfig,
    cli,
    data,
    fanout,
    generate_urban,
    model_to_dict,
    templates,
)
from stlboost.boosting import MAX_RETRIES, MAX_ROUNDS
from stlboost.cli import main
from stlboost.tree import MAX_DEPTH
from helpers import count_forks, forbid_forks


@pytest.fixture(scope="module")
def naval_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "naval.csv"
    save_csv(generate_naval(NavalConfig(count_per_class=15, seed=2)), path)
    return str(path)


FAST_FLAGS = [
    "--pso-swarm", "14", "--pso-iters", "18", "--max-depth", "2",
]

TINY_FLAGS = ["--pso-swarm", "2", "--pso-iters", "1", "--max-depth", "1", "--trees", "1"]


@pytest.fixture(scope="module")
def identical_csv(tmp_path_factory):
    """Eight identical one-variable signals with alternating labels: no split
    can beat random guessing."""
    path = tmp_path_factory.mktemp("data") / "identical.csv"
    rows = ["id,t,label,x1"] + [
        f"s{i},{t},{1 if i % 2 == 0 else -1},1.0" for i in range(8) for t in range(6)
    ]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def never(*args, **kwargs):
    raise AssertionError("invalid settings must be rejected before training")


# cv at one worker, and at up to three: this process and forked children.
WORKERS = pytest.mark.parametrize("workers", [1, 3])


class TestGenerate:
    def test_gen_naval(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(
            ["gen-naval", "--count-per-class", "5", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert "10 signals" in capsys.readouterr().out
        ds = load_csv(out)
        assert len(ds) == 10

    def test_gen_urban(self, tmp_path):
        out = tmp_path / "urban.csv"
        code = main(
            ["gen-urban", "--count-per-class", "3", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        ds = load_csv(out)
        assert ds.dimension == 4
        assert ds.horizon == 499

    def test_gen_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["gen-naval", "--count-per-class", "4", "--seed", "8",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["gen-naval", "gen-urban"])
    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--noise", "inf"], ["--noise", "nan"]])
    def test_gen_invalid_settings(self, tmp_path, capsys, command, flags):
        assert main([command, "--out", str(tmp_path / "x.csv")] + flags) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["gen-naval", "gen-urban"])
    def test_gen_oversized_rejected(self, tmp_path, capsys, monkeypatch, command):
        for generate in ("generate_naval", "generate_urban"):
            monkeypatch.setattr(cli, generate, never)
        out = str(tmp_path / "x.csv")
        assert main([command, "--count-per-class", str(10**9), "--horizon", str(10**9),
                     "--out", out]) == 1
        assert "value limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-naval", "gen-urban"])
    def test_gen_noise_past_the_float_range_rejected(self, tmp_path, capsys, command):
        # Noise of 1e308 overflows a draw to +-inf.
        out = tmp_path / "x.csv"
        assert main([command, "--count-per-class", "2", "--noise", "1e308",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "noise" in err and "Traceback" not in err
        assert not out.exists()

    def test_gen_invalid_count(self, tmp_path):
        code = main(["gen-naval", "--count-per-class", "0", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 1


class TestTrain:
    def test_train_writes_model(self, naval_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(
            ["train", "--data", naval_csv, "--trees", "1", "--seed", "5",
             "--out", str(out)] + FAST_FLAGS
        )
        assert code == 0
        assert "training MCR" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["version"] == 1
        assert doc["n"] == 2 and doc["T"] == 60

    def test_missing_file(self, capsys):
        code = main(["train", "--data", "/nonexistent/never.csv"])
        assert code == 1
        assert "no such file" in capsys.readouterr().err

    def test_zero_trees_rejected(self, naval_csv, capsys):
        code = main(["train", "--data", naval_csv, "--trees", "0"])
        assert code == 1
        assert "trees" in capsys.readouterr().err

    def test_bad_flag_usage_exits_one(self, capsys):
        assert main(["train"]) == 1

    def test_config_file_and_flag_precedence(self, naval_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"trees": 2, "max_depth": 1, "seed": 4,
                                      "pso_swarm": 14, "pso_iters": 18, "M": 50}))
        out = tmp_path / "model.json"
        code = main(
            ["train", "--data", naval_csv, "--config", str(config),
             "--trees", "1", "--out", str(out), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # --trees overrides the file; max_depth comes from the file.
        assert len(doc["trees"]) == 1
        assert doc["config"]["maxDepth"] == 1
        # A float setting keeps its type when the file gives an integer.
        assert '"M": 50.0' in out.read_text()

    def test_unknown_config_key(self, naval_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(["train", "--data", naval_csv, "--config", str(config)]) == 1

    @pytest.mark.parametrize(
        "text", ['{"trees": "2"}', "5", '{"max_depth": true}', '{"seed": 1.5}', '{"M": "1"}',
                 pytest.param("[" * 5000, id="deep")]
    )
    def test_mistyped_config_rejected(self, naval_csv, tmp_path, capsys, monkeypatch, text):
        monkeypatch.setattr(cli, "train_boosted", never)
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert main(["train", "--data", naval_csv, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("pso_swarm", 1e9), ("pso_iters", 10_001), ("max_depth", MAX_DEPTH + 1),
        ("trees", MAX_ROUNDS + 1), ("retries", MAX_RETRIES + 1),
    ])
    def test_oversized_swarm_rejected(self, naval_csv, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr(cli, "train_boosted", never)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        assert main(["train", "--data", naval_csv, "--config", str(config)]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_lambda_and_m_flags(self, naval_csv, tmp_path):
        out = tmp_path / "model.json"
        code = main(
            ["train", "--data", naval_csv, "--trees", "1", "--seed", "5",
             "--lambda", "0.8", "--M", "50", "--out", str(out)] + FAST_FLAGS
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["lambda"] == 0.8
        assert doc["M"] == 50.0

    def test_invalid_lambda_rejected(self, naval_csv, capsys):
        assert main(["train", "--data", naval_csv, "--lambda", "0.4"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"], ["--M", "nan"], ["--M", "inf"], ["--M", "0"],
        ["--pso-c1", "nan"], ["--pso-c1", "inf"], ["--pso-c2=-inf"],
        ["--pso-c1", "1e308", "--pso-c2", "1e308"], ["--pso-c2", "4.000000000000001"],
    ])
    def test_invalid_flag_values_rejected(self, naval_csv, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli, "train_boosted", never)
        assert main(["train", "--data", naval_csv] + flags) == 1
        assert capsys.readouterr().err.startswith("error: invalid configuration")

    def test_no_tree_beats_guessing(self, identical_csv, capsys):
        assert main(["train", "--data", identical_csv, "--retries", "0"] + TINY_FLAGS) == 1
        assert capsys.readouterr().err.startswith("error: no tree beat random guessing")

    def test_library_error_is_internal(self, naval_csv, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a library bug")

        monkeypatch.setattr(cli, "train_boosted", broken)
        assert main(["train", "--data", naval_csv]) == 2
        assert capsys.readouterr().err.startswith("internal error: a library bug")


class TestCrossValidate:
    def test_report_format_and_zero_test_error(self, naval_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["cv", "--data", naval_csv, "--trees", "1", "--folds", "5",
             "--seed", "3", "--out", str(out)] + FAST_FLAGS
        )
        assert code == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "K, TR-M, TR-S, TE-M, TE-S, R, CT"
        doc = json.loads(out.read_text())
        assert doc["testMeanPct"] == 0.0
        assert len(doc["folds"]) == 5

    def test_json_stdout_matches_written_report(self, naval_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["cv", "--data", naval_csv, "--trees", "1", "--folds", "3",
             "--seed", "5", "--format", "json", "--out", str(out)] + FAST_FLAGS
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out.read_text())
        assert printed == written

    def test_machine_report_byte_identical(self, naval_csv, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = main(
                ["cv", "--data", naval_csv, "--trees", "1", "--folds", "3",
                 "--seed", "11", "--out", str(out)] + FAST_FLAGS
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_reported_error_matches_reloaded_models(self, naval_csv, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["cv", "--data", naval_csv, "--trees", "1", "--folds", "3",
             "--seed", "21", "--out", str(out)] + FAST_FLAGS
        ) == 0
        doc = json.loads(out.read_text())
        dataset = load_csv(naval_csv)
        plan = stratified_folds(dataset, 3, seed=21)
        for fold_doc in doc["folds"]:
            model = model_from_dict(fold_doc["model"])
            test_set = dataset.subset(plan.test_indices(fold_doc["fold"]))
            recomputed = float(
                np.mean(predict_all(model, test_set.values) != test_set.labels)
            )
            assert math.isclose(recomputed, fold_doc["testMcr"], abs_tol=1e-12)

    @WORKERS
    def test_no_tree_beats_guessing(self, identical_csv, capsys, monkeypatch, workers):
        monkeypatch.setattr(fanout, "_cpus", lambda: workers)
        assert main(["cv", "--data", identical_csv, "--folds", "2", "--retries", "0"]
                    + TINY_FLAGS) == 1
        assert capsys.readouterr().err.startswith("error: fold 0: no tree beat random guessing")

    def test_too_many_folds(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        save_csv(generate_naval(NavalConfig(count_per_class=2, seed=0)), path)
        assert main(["cv", "--data", str(path), "--folds", "5"] + FAST_FLAGS) == 1


@pytest.mark.parametrize("command", ["train", "cv"])
@pytest.mark.parametrize("extreme", [0.85e308, 0.89e308, 1.7e308])
def test_value_range_wider_than_a_float_rejected(tmp_path, capsys, command, extreme):
    # Every signal spans [-extreme, extreme], so every fold's training set
    # does too.  At 0.85e308 a velocity step of the swarm could overflow, at
    # 0.89e308 the padded bounds are too far apart, at 1.7e308 the values
    # themselves.
    path = tmp_path / "wide.csv"
    rows = ["id,t,label,x1"] + [
        f"s{i},{t},{1 if i % 2 else -1},{(extreme, float(i), -extreme)[t]!r}"
        for i in range(4) for t in range(3)
    ]
    path.write_text("\n".join(rows) + "\n")
    flags = ["-K", "1", "--pso-swarm", "4", "--pso-iters", "2"]
    flags += ["--folds", "2"] if command == "cv" else []
    assert main([command, "--data", str(path)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fold 0:" if command == "cv" else "error:") and "x1" in err


@WORKERS
def test_cv_reports_the_lowest_failing_fold(tmp_path, capsys, monkeypatch, workers):
    # One signal too wide to search sits in fold 0's test set, so fold 0
    # trains and only fold 1's training set is refused.
    monkeypatch.setattr(fanout, "_cpus", lambda: workers)
    dataset = generate_naval(NavalConfig(count_per_class=6, seed=2))
    wide = stratified_folds(dataset, 2, seed=3).test_indices(0)[0]
    values = dataset.values.copy()
    values[wide, 0, 0] = 1.7e308
    path = tmp_path / "wide.csv"
    save_csv(LabeledDataset(values, dataset.labels, dataset.ids), path)
    flags = ["-K", "1", "--pso-swarm", "4", "--pso-iters", "2", "--folds", "2", "--seed", "3"]
    assert main(["cv", "--data", str(path)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fold 1:") and "x1" in err


@WORKERS
def test_cv_reports_a_lower_fold_that_fails_later(tmp_path, capsys, monkeypatch, workers):
    # Fold 1's training set holds the wide signal and is refused at its
    # first search; fold 0's identical signals fail only once every retry
    # is spent, and fold 0 is still the one reported.  At two workers or
    # more, fold 1 fails in a child, and fold 0 in this process.
    monkeypatch.setattr(fanout, "_cpus", lambda: workers)
    rows = ["id,t,label,x1"] + [
        f"s{i},{t},{1 if i % 2 == 0 else -1},1.0" for i in range(8) for t in range(6)
    ]
    path = tmp_path / "identical.csv"
    path.write_text("\n".join(rows) + "\n")
    dataset = load_csv(path)
    wide = stratified_folds(dataset, 2, seed=0).test_indices(0)[0]
    values = dataset.values.copy()
    values[wide, 0, 0] = 1.7e308
    save_csv(LabeledDataset(values, dataset.labels, dataset.ids), path)
    assert main(["cv", "--data", str(path), "--folds", "2", "--seed", "0"] + TINY_FLAGS) == 1
    assert capsys.readouterr().err.startswith("error: fold 0: no tree beat random guessing")


def _cv_bytes(naval_csv, tmp_path, capsys, monkeypatch, workers, folds=5):
    """The stdout and ``--out`` bytes of a cv of ``folds`` folds at up to
    ``workers`` workers."""
    monkeypatch.setattr(fanout, "_cpus", lambda: workers)
    out = tmp_path / f"report-{workers}.json"
    assert main(["cv", "--data", naval_csv, "--trees", "2", "--folds", str(folds), "--seed", "7",
                 "--format", "json", "--out", str(out)] + FAST_FLAGS) == 0
    return capsys.readouterr().out, out.read_bytes()


def test_cv_bytes_do_not_depend_on_the_workers(naval_csv, tmp_path, capsys, monkeypatch):
    """Three and five folds at one, two and three workers: five folds at two
    workers are 0, 2 and 4 here and 1 and 3 in a child."""
    for folds in (3, 5):
        alone = _cv_bytes(naval_csv, tmp_path, capsys, monkeypatch, 1, folds)
        for workers in (2, 3):
            assert _cv_bytes(naval_csv, tmp_path, capsys, monkeypatch, workers, folds) == alone


def test_folds_of_a_failed_child_are_trained_here(naval_csv, tmp_path, capsys, monkeypatch):
    """A child that fails before it sends leaves its folds to this process,
    which trains each in fold order and reports the same bytes."""
    alone = _cv_bytes(naval_csv, tmp_path, capsys, monkeypatch, 1)
    parent, real_fold, trained = os.getpid(), cli._fold, []

    def stand_in(dataset, plan, fold, *args):
        if os.getpid() != parent:
            raise RuntimeError("child")
        trained.append(fold)
        return real_fold(dataset, plan, fold, *args)

    monkeypatch.setattr(cli, "_fold", stand_in)
    assert _cv_bytes(naval_csv, tmp_path, capsys, monkeypatch, 3) == alone
    assert trained == [0, 1, 2, 3, 4]  # the children's 1, 4 and 2 too, in order


def _placed(dataset, plan, fold, *args):
    """A fold that trains nothing and names the process that ran it."""
    return {"fold": fold, "pid": os.getpid(), "trainMcr": 0.0, "testMcr": 0.0}


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_cv_deals_its_folds_round_robin(monkeypatch, cpus):
    """The folds come back in order, fold k trained by worker k mod W, at
    most one worker per fold, with this process training fold 0."""
    monkeypatch.setattr(fanout, "_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_fold", _placed)
    dataset = generate_naval(NavalConfig(count_per_class=7, seed=0))
    for folds in range(2, 8):
        entries, _ = cli.run_cross_validation(dataset, trees=1, config=cli.TreeConfig(),
                                              m_weight=100.0, folds=folds, seed=0)
        assert [entry["fold"] for entry in entries] == list(range(folds))
        workers = min(cpus, folds)
        pids = [entry["pid"] for entry in entries]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == workers
        assert pids == [pids[fold % workers] for fold in range(folds)], pids


def test_a_fold_that_fails_here_raises_at_once(naval_csv, tmp_path, capsys, monkeypatch):
    """Fold 2 fails in this process (folds 0, 2 and 4) while the child
    (folds 1 and 3) sleeps on fold 3: the error is raised without waiting
    for the child, which is killed, and no fold is trained twice."""
    monkeypatch.setattr(fanout, "_cpus", lambda: 2)
    parent, real_fold, log = os.getpid(), cli._fold, tmp_path / "trained"

    def stand_in(dataset, plan, fold, *args):
        with open(log, "a") as handle:
            handle.write(f"{fold}\n")
        if os.getpid() != parent and fold == 3:
            time.sleep(60)
        elif fold == 2:
            raise cli.CliError("fold 2: failed here")
        return real_fold(dataset, plan, fold, *args)

    monkeypatch.setattr(cli, "_fold", stand_in)
    start = time.monotonic()
    assert main(["cv", "--data", naval_csv, "--folds", "5"] + TINY_FLAGS) == 1
    assert time.monotonic() - start < 30  # the sleeping child was not waited for
    assert capsys.readouterr().err == "error: fold 2: failed here\n"
    trained = log.read_text().split()
    assert {"0", "1", "2"} <= set(trained) <= {"0", "1", "2", "3"}
    assert len(trained) == len(set(trained)), trained


def test_an_interrupted_cv_reaps_its_children(identical_csv, monkeypatch):
    """A Ctrl-C in this process kills and reaps the children still training."""
    monkeypatch.setattr(fanout, "_cpus", lambda: 3)
    parent, real_fold = os.getpid(), cli._fold

    def stand_in(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return real_fold(*args)

    monkeypatch.setattr(cli, "_fold", stand_in)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["cv", "--data", identical_csv, "--folds", "3"] + TINY_FLAGS)
    assert time.monotonic() - start < 30  # the sleeping children were killed


@pytest.mark.parametrize("gate", ["none", "thread"])
def test_cv_forks_nothing_while_another_thread_runs(identical_csv, monkeypatch, gate):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    forbid_forks(monkeypatch)
    dataset = load_csv(identical_csv)
    config = cli.TreeConfig(max_depth=1)

    def cv():
        return cli.run_cross_validation(dataset, trees=1, config=config, m_weight=100.0,
                                        folds=2, seed=0, max_retries=0)

    if gate == "none":
        with pytest.raises(AssertionError, match="forked"):
            cv()
        return
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        with pytest.raises(cli.CliError, match="fold 0: no tree beat random guessing"):
            cv()
    finally:
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()


@pytest.mark.parametrize("cpus", [1, 2])
def test_not_enough_memory_exits_one(naval_csv, capsys, monkeypatch, cpus):
    # At 2 CPUs the child's MemoryError leaves its batches to this process,
    # whose own MemoryError ends the command.
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fanout, "_cpus", lambda: cpus)
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(templates, "TABLE_BUDGET_BYTES", 1)  # a batch per range table
    monkeypatch.setattr(templates, "range_table", out_of_memory)
    assert main(["train", "--data", naval_csv] + TINY_FLAGS) == 1
    assert capsys.readouterr().err == "error: not enough memory for this input\n"
    assert len(forks) == cpus - 1


def test_cv_fold_runs_fork_no_grandchild(naval_csv, tmp_path, capsys, monkeypatch):
    # Every round of a fold run has several batches, but the runs fill the
    # CPUs, so only this process forks.  A child records its forks in a file.
    marks = tmp_path / "forked-in-a-child"
    monkeypatch.setattr(fanout, "_cpus", lambda: 3)
    forks = count_forks(monkeypatch, marks)
    monkeypatch.setattr(templates, "TABLE_BUDGET_BYTES", 1)
    assert main(["cv", "--data", naval_csv, "--folds", "3", "-K", "1", "--max-depth", "2",
                 "--pso-swarm", "4", "--pso-iters", "2"]) == 0
    assert len(forks) == 2
    assert not marks.exists()


def test_a_naval_train_forks_no_search(tmp_path, capsys, monkeypatch):
    # At the default budget the 4 range tables of a node of the naval
    # baseline's 200 signals fit one batch, and train searches one node a
    # round, so no round forks.  The file loads as one part.
    path = tmp_path / "naval.csv"
    save_csv(generate_naval(NavalConfig(count_per_class=100, seed=1)), path)
    assert os.path.getsize(path) < 2 * data.SPLIT_FLOOR
    monkeypatch.setattr(fanout, "_cpus", lambda: 3)
    forbid_forks(monkeypatch)
    assert main(["train", "--data", str(path), "-K", "3", "--max-depth", "3",
                 "--pso-swarm", "4", "--pso-iters", "2", "--seed", "7"]) == 0


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """A ``cv``, ``train``, ``monitor`` and ``eval --per-signal`` job over
    an urban file of more than two default floors, and a function that runs
    them and returns their exit codes and stdout, and the file's bytes as
    ``save_csv`` writes them again."""
    root = tmp_path_factory.mktemp("jobs")
    path, model = str(root / "urban.csv"), str(root / "model.json")
    dataset = generate_urban(UrbanConfig(count_per_class=12, horizon=499, seed=0))
    save_csv(dataset, path)
    assert os.path.getsize(path) > 2 * data.SPLIT_FLOOR
    flags = ["--data", path, "-K", "2", "--max-depth", "2", "--pso-swarm", "4",
             "--pso-iters", "3", "--seed", "1", "--format", "json"]
    argvs = [["cv", "--folds", "4"] + flags, ["train", "--out", model] + flags,
             ["monitor", "--formula", "F[0,400](G[0,99]((x3 > 1) & (x1 <= 30)))",
              "--data", path],
             ["eval", "--model", model, "--data", path, "--per-signal"]]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [main(argv) for argv in argvs]
        save_csv(dataset, root / "again.csv")
        return codes, out.getvalue(), (root / "again.csv").read_bytes()

    return run, run()


@settings(max_examples=3, deadline=None)
@given(cpus=st.integers(1, 3), floor=st.integers(1, 1 << 16), block=st.integers(100, 1000),
       chunk=st.integers(64, 4096), budget=st.integers(1, 1 << 16))
def test_no_performance_setting_changes_the_output(jobs, cpus, floor, block, chunk, budget):
    """Every setting that trades processes or memory for speed, drawn small
    at once, leaves each job's stdout bytes, and a saved file's bytes, as
    the defaults give them: the CPUs of loads, saves, cv folds and a node
    search's lockstep batches; the floor of a part or chunk; the loader's
    block rows and read size; and the range table budget behind lockstep
    batches and passes.  The clean file never needs the exact loader, which
    would hide a fault of the fast one.

    The train job reaches the searches' fan-out: the 8 range tables of its
    24-signal root pass the default budget, and a drawn budget is smaller,
    so each node search has several batches, and at 2 or 3 CPUs forked
    children search some of them.  The cv job's searches run in its fold
    runs, which fork nothing more.

    Every load fills the values block by block from several blocks per
    part: the file's 12,000 rows are at most 3 parts of about 4,000, and a
    drawn block holds at most 1,000 rows (the defaults give 2 blocks of a
    part at 2 CPUs)."""
    run, default = jobs
    assert default[0] == [0, 0, 0, 0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_load_exact", never)
        patch.setattr(fanout, "_cpus", lambda: cpus)
        patch.setattr(data, "SPLIT_FLOOR", floor)
        patch.setattr(data, "BLOCK_ROWS", block)
        patch.setattr(data, "PART_CHUNK", chunk)
        patch.setattr(templates, "TABLE_BUDGET_BYTES", budget)
        assert run() == default


def test_widest_value_range_trains(tmp_path, capsys):
    # Values of +-1e307 pad to +-1.02e307, inside the swarm's limit at any
    # factor; the default swarm trains on them without a warning.
    path = tmp_path / "wide.csv"
    rows = ["id,t,label,x1"] + [
        f"s{i},{t},{label},{(1e307, label * 5e306, -1e307)[t]!r}"
        for i, label in enumerate((1, -1, 1, -1)) for t in range(3)
    ]
    path.write_text("\n".join(rows) + "\n")
    assert main(["train", "--data", str(path), "-K", "1"]) == 0
    assert capsys.readouterr().err == ""


class TestEvaluate:
    def test_eval_own_training_set(self, naval_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(
            ["train", "--data", naval_csv, "--trees", "1", "--seed", "5",
             "--out", str(model_path)] + FAST_FLAGS
        ) == 0
        capsys.readouterr()
        code = main(["eval", "--model", str(model_path), "--data", naval_csv])
        assert code == 0
        assert "MCR: 0.00%" in capsys.readouterr().out

    def test_dimension_mismatch(self, naval_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(
            ["train", "--data", naval_csv, "--trees", "1", "--seed", "5",
             "--out", str(model_path)] + FAST_FLAGS
        ) == 0
        other = tmp_path / "urban.csv"
        assert main(["gen-urban", "--count-per-class", "2", "--out", str(other)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(other)]) == 1

    def test_inconsistent_model_rejected(self, naval_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(
            ["train", "--data", naval_csv, "--trees", "1", "--seed", "5",
             "--out", str(model_path)] + FAST_FLAGS
        ) == 0
        good = json.loads(model_path.read_text())
        edits = [
            lambda doc: doc["trees"][0].update(formulaText="F[0,5](x1 <= 1.0)"),
            lambda doc: doc.update(prunedIndex=7),
            lambda doc: doc["trees"][0]["treeStructure"].update(primitive="F[0,5](x9 <= 1.0)"),
            lambda doc: doc.update(config=5),
            lambda doc: doc.update(trees="abc"),
            lambda doc: doc["trees"][0].update(treeStructure="x"),
            lambda doc: doc["trees"][0].update(treeStructure=[1]),
            lambda doc: doc.update(n=None),
            lambda doc: doc["trees"][0].update(alpha=None),
            lambda doc: doc["trees"][0]["treeStructure"].update(primitive=5),
            lambda doc: doc["config"].update(shapes=5),
            lambda doc: doc["trees"][0].update(formulaText=3),
            lambda doc: [1, 2],
        ]
        for edit in edits:
            doc = json.loads(json.dumps(good))
            edited = edit(doc)
            if isinstance(edited, list):  # the edit replaced the whole document
                doc = edited
            model_path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["eval", "--model", str(model_path), "--data", naval_csv]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot load model") and "Traceback" not in err

    def test_model_whose_vote_overflows_rejected(self, naval_csv, tmp_path, capsys):
        # The exact vote of these four trees is 0, but summed in floats it
        # passes the float range, so the command could not trust it.
        rounds = tuple(TreeRound(Leaf(label), 1e308, 0.1, 0) for label in (-1, -1, 1, 1))
        model = BoostedModel(rounds, 100.0, None, 2, 60, TreeConfig(), len(rounds))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model)))
        assert main(["eval", "--model", str(path), "--data", naval_csv, "--per-signal"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load model") and "alphas" in err

    def test_deeply_nested_model_file_rejected(self, naval_csv, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000)
        assert main(["eval", "--model", str(path), "--data", naval_csv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nests too deeply" in err

    def test_eval_json_output(self, naval_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(
            ["train", "--data", naval_csv, "--trees", "1", "--seed", "5",
             "--out", str(model_path)] + FAST_FLAGS
        ) == 0
        capsys.readouterr()
        code = main(
            ["eval", "--model", str(model_path), "--data", naval_csv,
             "--per-signal", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mcr"] == 0.0
        assert len(doc["signals"]) == 30
        assert {"id", "label", "prediction", "robustness"} <= set(doc["signals"][0])

    def test_per_signal_robustness_consistency(self, naval_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(
            ["train", "--data", naval_csv, "--trees", "1", "--seed", "5",
             "--out", str(model_path)] + FAST_FLAGS
        ) == 0
        capsys.readouterr()
        code = main(
            ["eval", "--model", str(model_path), "--data", naval_csv, "--per-signal"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        header = lines[1].split(",")
        assert header == ["id", "label", "prediction", "robustness"]
        doc = json.loads(model_path.read_text())
        model = model_from_dict(doc)
        from stlboost import model_formula

        phi = model_formula(model)
        dataset = load_csv(naval_csv)
        rho = robustness_all(phi, dataset.values)
        by_id = {sid: float(r) for sid, r in zip(dataset.ids, rho)}
        for row in rows[1:6]:
            assert math.isclose(float(row[3]), by_id[row[0]], abs_tol=1e-9)


# Reads every sample of both variables of a naval signal.
PIPE_FORMULA = "G[0,60](x1 > 40) | F[0,60](x2 <= 30)"


def _cli(argv, **options):
    """The command ``stlboost argv`` run in a fresh process."""
    source = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-m", "stlboost.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=source), capture_output=True,
                          timeout=300, **options)


@pytest.mark.parametrize("name", ["basic_format", "nonsense", "debug"])
def test_log_level_resolves_level_names_only(identical_csv, monkeypatch, name):
    # logging.BASIC_FORMAT is a format string, not a level: like any name
    # that is no level, it leaves logging at WARNING.
    monkeypatch.setenv("STLBOOST_LOG_LEVEL", name)
    done = _cli(["train", "--data", identical_csv, "--retries", "0"] + TINY_FLAGS, text=True)
    assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr
    assert done.stderr.splitlines()[-1].startswith("error: no tree beat random guessing")
    assert ("round 0 attempt 0 discarded" in done.stderr) == (name == "debug")


class TestMonitor:
    def test_constant_true_capped(self, naval_csv, capsys):
        code = main(["monitor", "--formula", "true", "--data", naval_csv])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "id,label,robustness"
        assert all(float(line.split(",")[2]) == 1e12 for line in lines[1:])

    def test_band_formula_signs_match_labels(self, naval_csv, capsys):
        formula = "F[15,20]((x1 > 40) & (x1 <= 47) & (x2 > 26) & (x2 <= 32))"
        code = main(["monitor", "--formula", formula, "--data", naval_csv])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for row in csv.reader(io.StringIO("\n".join(lines[1:]))):
            label = int(row[1])
            rho = float(row[2])
            assert (rho >= 0) == (label == 1)

    def test_malformed_formula_caret(self, naval_csv, capsys):
        code = main(["monitor", "--formula", "G[5,2](x1 <= 0)", "--data", naval_csv])
        assert code == 1
        err = capsys.readouterr().err
        assert "^" in err and "line 1" in err

    def test_window_beyond_horizon(self, naval_csv, capsys):
        code = main(
            ["monitor", "--formula", "G[0,400](x1 <= 0)", "--data", naval_csv]
        )
        assert code == 1

    @pytest.mark.parametrize("formula", ["G[0,2](x9 > 0)", "x2 > 0", "F[0,3](G[0,3](x1 > 0))",
                                         "x1 > 1e400"])
    def test_formula_that_does_not_fit_rejected(self, identical_csv, capsys, formula):
        assert main(["monitor", "--formula", formula, "--data", identical_csv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("t", [10**12, 10**20])
    def test_huge_timepoint_rejected(self, tmp_path, capsys, t):
        path = tmp_path / "huge.csv"
        path.write_text(f"id,t,label,x1\na,0,1,0\na,{t},1,0\n")
        assert main(["monitor", "--formula", "x1 > 0", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ragged signal 'a'" in err

    def test_overflowing_margin_is_capped(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("id,t,label,x1\na,0,1,1.7e308\nb,0,-1,-1.7e308\nc,0,1,0\n")
        assert main(["monitor", "--formula", "x1 > -1e308", "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == [
            "a,1,1000000000000.0", "b,-1,-1000000000000.0", "c,1,1000000000000.0",
        ]
        assert captured.err == ""

    @pytest.mark.parametrize("formula, detail", [
        ("(" * 400 + "x1 > 0" + ")" * 400, "nesting deeper"),
        ("G[0," + "9" * 5000 + "](x1 > 0)", "time bound has too many digits"),
        ("x" + "9" * 5000 + " > 0", "variable index has too many digits"),
    ], ids=["nesting", "long-bound", "long-variable"])
    def test_deeply_nested_formula_rejected(self, naval_csv, capsys, formula, detail):
        assert main(["monitor", "--formula", formula, "--data", naval_csv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad formula") and detail in err

    def test_library_error_is_internal(self, naval_csv, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a library bug")

        monkeypatch.setattr(cli, "robustness_all", broken)
        assert main(["monitor", "--formula", "x1 > 0", "--data", naval_csv]) == 2
        assert capsys.readouterr().err.startswith("internal error: a library bug")

    def test_dataset_read_from_standard_input(self, naval_csv):
        # A pipe cannot be read by offset, so it takes the exact path.
        with open(naval_csv, "rb") as handle:
            piped = _cli(["monitor", "--formula", PIPE_FORMULA, "--data", "/dev/stdin"],
                         input=handle.read())
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == _cli(["monitor", "--formula", PIPE_FORMULA,
                                     "--data", naval_csv]).stdout

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_dataset_read_from_a_named_pipe(self, naval_csv, tmp_path):
        # The pipe is opened once: a second open would wait for a writer that
        # has already gone.
        fifo = tmp_path / "data.csv"
        os.mkfifo(fifo)
        with open(naval_csv, "rb") as handle:
            content = handle.read()

        def write():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as pipe:
                pipe.write(content)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            done = _cli(["monitor", "--formula", PIPE_FORMULA, "--data", str(fifo)])
        finally:
            if writer.is_alive():  # no reader came: let the writer's open return
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert done.returncode == 0, done.stderr
        assert done.stdout == _cli(["monitor", "--formula", PIPE_FORMULA,
                                    "--data", naval_csv]).stdout


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


LIMITED_SCRIPT = """
import resource, signal, sys
from stlboost.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit raises instead
resource.setrlimit(resource.RLIMIT_FSIZE, (512, 512))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", [
    ["gen-naval", "--count-per-class", "5"],
    ["train", "--trees", "1"] + FAST_FLAGS,
    ["cv", "--trees", "1", "--folds", "2"] + FAST_FLAGS,
])
@pytest.mark.parametrize("old", [None, b"old bytes"])
def test_an_output_cut_short_leaves_the_old_file(naval_csv, tmp_path, command, old):
    """Under a file size limit, each command that writes an output file fails
    with exit 1 and leaves the old file, or none, and no temporary file."""
    out = tmp_path / "out"
    if old is not None:
        out.write_bytes(old)
    flags = [] if command[0].startswith("gen") else ["--data", naval_csv]
    source = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", LIMITED_SCRIPT, *command, *flags,
                           "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=source), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 1 and "File too large" in done.stderr, done.stderr
    assert os.listdir(tmp_path) == ([] if old is None else ["out"])
    assert old is None or out.read_bytes() == old
