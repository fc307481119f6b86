"""Golden outputs: the machine reports of a fixed ``cv`` and ``train`` run.

Same seed, same bytes, across code changes: a change to the search, the
robustness engine or the impurity arithmetic that moves any result by one
bit shows here.  The digests were recorded before the swarm scored its
particles in batches and must stay put; only a change meant to alter the
learned models may update them, saying why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging

from stlboost import NavalConfig, UrbanConfig, generate_naval, generate_urban, save_csv
import stlboost.cli as cli
import stlboost.fanout as fanout
import stlboost.tree as tree
from stlboost.cli import main

# Noisy naval tracks: full-depth trees, and two merges fire in the second
# tree of the first fold.
NAVAL_CV_SHA256 = "57f652ebcebd4fa71eafaf848216fa6520f88b5ed06da9648a76f8a9fc2103ec"
URBAN_TRAIN_SHA256 = "ec9e1f2876a9cf836822259b73dc4092c54ad6d4a519117a4617054a7c47f150"
# Five folds searched together: merges fire in three of them.  Recorded
# while the folds were still trained one after the other.
NAVAL_CV_FIVE_FOLDS_SHA256 = "d503a74de194ee0220394ab601ebcccb535c8a2d765a0bd0ff233b304e3b081a"


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _naval_cv_argv(tmp_path) -> list[str]:
    data = tmp_path / "naval.csv"
    save_csv(generate_naval(NavalConfig(count_per_class=10, noise=2.0, seed=4)), data)
    return [
        "cv", "--data", str(data), "-K", "3", "--max-depth", "3",
        "--pso-swarm", "8", "--pso-iters", "6", "--folds", "2", "--seed", "4",
        "--format", "json",
    ]


def test_naval_cv_report_is_pinned(tmp_path):
    out = _run(_naval_cv_argv(tmp_path))
    merges = [t["merges"] for f in json.loads(out)["folds"] for t in f["model"]["trees"]]
    assert sum(merges) >= 1
    assert _sha256(out) == NAVAL_CV_SHA256


def test_naval_cv_report_counts_each_accepted_merge(tmp_path, monkeypatch, caplog):
    # One worker, so that every fold's growth logs in this process.
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    caplog.set_level(logging.DEBUG, logger=tree.__name__)
    report = json.loads(_run(_naval_cv_argv(tmp_path)))
    accepted = caplog.text.count("merge accepted")
    assert report["merges"] == accepted >= 1
    assert sum(t["merges"] for f in report["folds"] for t in f["model"]["trees"]) == accepted


def test_naval_cv_five_folds_is_pinned(tmp_path):
    data = tmp_path / "naval.csv"
    save_csv(generate_naval(NavalConfig(count_per_class=10, noise=2.0, seed=5)), data)
    out = _run([
        "cv", "--data", str(data), "-K", "2", "--max-depth", "3",
        "--pso-swarm", "6", "--pso-iters", "4", "--folds", "5", "--seed", "5",
        "--format", "json",
    ])
    merges = [sum(t["merges"] for t in f["model"]["trees"]) for f in json.loads(out)["folds"]]
    assert len(merges) == 5 and sum(merges) >= 1
    assert _sha256(out) == NAVAL_CV_FIVE_FOLDS_SHA256


def test_urban_train_report_is_pinned(tmp_path):
    data = tmp_path / "urban.csv"
    save_csv(generate_urban(UrbanConfig(count_per_class=8, horizon=499, seed=2)), data)
    out = _run([
        "train", "--data", str(data), "-K", "2", "--max-depth", "3",
        "--pso-swarm", "6", "--pso-iters", "5", "--seed", "2", "--format", "json",
    ])
    assert json.loads(out)["model"]["T"] == 499
    assert _sha256(out) == URBAN_TRAIN_SHA256


def test_naval_cv_serves_its_folds_together(tmp_path, monkeypatch):
    # Fewer swarm batches than the folds make one after the other, the same
    # templates searched, and every swarm still scored 1 + iterations times.
    # One worker, so that every fold's searches are counted in this process.
    monkeypatch.setattr(fanout, "_cpus", lambda: 1)
    argv = _naval_cv_argv(tmp_path)
    searches = []  # (templates, objective rounds) per optimize_batch call
    real_optimize = tree.optimize_batch

    def counting_optimize(templates, objective, config, seeds):
        rounds = []

        def counted(*args):
            rounds.append(1)
            return objective(*args)

        found = real_optimize(templates, counted, config, seeds)
        searches.append((len(templates), len(rounds)))
        return found

    monkeypatch.setattr(tree, "optimize_batch", counting_optimize)
    together = _run(argv)
    served, searches[:] = searches[:], []
    monkeypatch.setattr(cli, "drive", lambda steps: [tree.drive([s])[0] for s in steps])
    assert _run(argv) == together
    assert len(served) < len(searches)
    assert sum(t for t, _ in served) == sum(t for t, _ in searches)
    assert {rounds for _, rounds in served + searches} == {6 + 1}
