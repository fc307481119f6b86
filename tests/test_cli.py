import csv
import io
import json
import math

import numpy as np
import pytest

from stlboost import (
    NavalConfig,
    generate_naval,
    load_csv,
    model_from_dict,
    predict_all,
    robustness_all,
    save_csv,
    stratified_folds,
)
from stlboost import cli
from stlboost.cli import main


@pytest.fixture(scope="module")
def naval_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "naval.csv"
    save_csv(generate_naval(NavalConfig(count_per_class=15, seed=2)), path)
    return str(path)


FAST_FLAGS = [
    "--pso-swarm", "14", "--pso-iters", "18", "--max-depth", "2",
]


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
                                      "pso_swarm": 14, "pso_iters": 18}))
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

    def test_unknown_config_key(self, naval_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(["train", "--data", naval_csv, "--config", str(config)]) == 1

    @pytest.mark.parametrize(
        "text", ['{"trees": "2"}', "5", '{"max_depth": true}', '{"seed": 1.5}', '{"M": "1"}']
    )
    def test_mistyped_config_rejected(self, naval_csv, tmp_path, capsys, monkeypatch, text):
        def never(*args, **kwargs):
            raise AssertionError("a mistyped config must be rejected before training")

        monkeypatch.setattr(cli, "train_boosted", never)
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert main(["train", "--data", naval_csv, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("pso_swarm", 1e9), ("pso_iters", 10_001)])
    def test_oversized_swarm_rejected(self, naval_csv, tmp_path, capsys, monkeypatch, key, value):
        def never(*args, **kwargs):
            raise AssertionError("an oversized search must be rejected before training")

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

    def test_too_many_folds(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        save_csv(generate_naval(NavalConfig(count_per_class=2, seed=0)), path)
        assert main(["cv", "--data", str(path), "--folds", "5"] + FAST_FLAGS) == 1


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
        ]
        for edit in edits:
            doc = json.loads(json.dumps(good))
            edit(doc)
            model_path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["eval", "--model", str(model_path), "--data", naval_csv]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot load model") and "Traceback" not in err

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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
