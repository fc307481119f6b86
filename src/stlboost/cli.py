"""Command-line interface: train, cross-validate, evaluate, monitor, generate.

Exit codes: 0 success, 1 user error (bad input, bad flags), 2 internal
error.  Set STLBOOST_LOG_LEVEL (DEBUG/INFO/WARNING/...) to control logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .boosting import (
    ensemble_mcr,
    model_formula,
    model_from_dict,
    model_to_dict,
    predict_all,
    save_model,
    train_boosted,
)
from .data import (
    LabeledDataset,
    SchemaError,
    TooFewSamplesError,
    load_csv,
    save_csv,
    stratified_folds,
)
from .formula import And, robustness_all
from .grammar import ParseError, format_formula, parse_formula
from .pso import PsoConfig
from .scenarios import NavalConfig, UrbanConfig, generate_naval, generate_urban
from .tree import TreeConfig

logger = logging.getLogger(__name__)

# Boolean constants have infinite robustness; outputs cap it at a large
# finite value so downstream CSV consumers never see "inf".
ROBUSTNESS_CAP = 1e12


class CliError(Exception):
    """User-facing error: print the message and exit 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise CliError(f"{self.prog}: {message}")


_DEFAULTS = {
    "trees": 3,
    "max_depth": 3,
    "lambda": 0.95,
    "M": 100.0,
    "seed": 0,
    "folds": 5,
    "retries": 5,
    "pso_swarm": 40,
    "pso_iters": 60,
    "pso_omega": 0.72,
    "pso_c1": 1.49,
    "pso_c2": 1.49,
}


def _add_common_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV path")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("-K", "--trees", type=int, help="boosting rounds")
    parser.add_argument("--max-depth", type=int, dest="max_depth")
    parser.add_argument(
        "--lambda", type=float, dest="lambda_", metavar="FRACTION",
        help="majority fraction that turns a node into a leaf",
    )
    parser.add_argument(
        "--M", type=float, dest="m_weight",
        help="vote weight assigned to trees with zero training error",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--retries", type=int, help="retrain attempts for weak trees")
    parser.add_argument("--pso-swarm", type=int, dest="pso_swarm")
    parser.add_argument("--pso-iters", type=int, dest="pso_iters")
    parser.add_argument("--pso-omega", type=float, dest="pso_omega")
    parser.add_argument("--pso-c1", type=float, dest="pso_c1")
    parser.add_argument("--pso-c2", type=float, dest="pso_c2")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="stlboost", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one model on a full dataset")
    _add_common_training_flags(train)
    train.add_argument("--out", help="write the model JSON here")
    train.set_defaults(func=_cmd_train)

    cv = sub.add_parser("cv", help="cross-validated training and evaluation")
    _add_common_training_flags(cv)
    cv.add_argument("--folds", type=int)
    cv.add_argument("--out", help="write the machine-readable report here")
    cv.set_defaults(func=_cmd_cv)

    ev = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--per-signal", action="store_true", dest="per_signal")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.set_defaults(func=_cmd_eval)

    mon = sub.add_parser("monitor", help="robustness of a formula over a dataset")
    mon.add_argument("--formula", required=True, help="formula text")
    mon.add_argument("--data", required=True)
    mon.set_defaults(func=_cmd_monitor)

    gen_naval = sub.add_parser("gen-naval", help="generate a maritime dataset")
    gen_urban = sub.add_parser("gen-urban", help="generate a street-crossing dataset")
    for gen, default_h in ((gen_naval, 60), (gen_urban, 499)):
        gen.add_argument("--count-per-class", type=int, default=None, dest="count")
        gen.add_argument("--horizon", type=int, default=default_h)
        gen.add_argument("--noise", type=float, default=0.0)
        gen.add_argument("--seed", type=int, default=0)
        gen.add_argument("--out", required=True)
    gen_naval.set_defaults(func=_cmd_gen_naval)
    gen_urban.set_defaults(func=_cmd_gen_urban)
    return parser


def _load_settings(args) -> dict:
    """Merge defaults, the optional config file, and explicit flags."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                file_cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise CliError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(settings)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        settings.update({key: _typed(key, value) for key, value in file_cfg.items()})
    flag_map = {
        "trees": args.trees,
        "max_depth": args.max_depth,
        "lambda": args.lambda_,
        "M": args.m_weight,
        "seed": args.seed,
        "retries": args.retries,
        "pso_swarm": args.pso_swarm,
        "pso_iters": args.pso_iters,
        "pso_omega": args.pso_omega,
        "pso_c1": args.pso_c1,
        "pso_c2": args.pso_c2,
    }
    if hasattr(args, "folds"):
        flag_map["folds"] = args.folds
        settings.setdefault("folds", _DEFAULTS["folds"])
    for key, value in flag_map.items():
        if value is not None:
            settings[key] = value
    return settings


def _typed(key: str, value):
    """A config file value checked against the type of its default: integral
    numbers for int settings, any number for float settings, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"config key {key!r} must be a number, got {value!r}")
    if isinstance(_DEFAULTS[key], int):
        if isinstance(value, float) and not value.is_integer():
            raise CliError(f"config key {key!r} must be an integer, got {value!r}")
        return int(value)
    return value


def _tree_config(settings: dict) -> TreeConfig:
    try:
        pso = PsoConfig(
            swarm_size=int(settings["pso_swarm"]),
            iterations=int(settings["pso_iters"]),
            inertia=float(settings["pso_omega"]),
            cognitive=float(settings["pso_c1"]),
            social=float(settings["pso_c2"]),
        )
        return TreeConfig(
            max_depth=int(settings["max_depth"]),
            purity_stop=float(settings["lambda"]),
            pso=pso,
        )
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}")


def _load_dataset(path) -> LabeledDataset:
    try:
        return load_csv(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except SchemaError as exc:
        raise CliError(f"bad dataset {path}: {exc}")


def _validate_training(settings: dict) -> None:
    if settings["trees"] < 1:
        raise CliError("--trees must be at least 1")
    if settings["M"] <= 0:
        raise CliError("--M must be positive")
    if settings["retries"] < 0:
        raise CliError("--retries must be non-negative")


def _cap(value: float) -> float:
    return float(np.clip(value, -ROBUSTNESS_CAP, ROBUSTNESS_CAP))


def _cmd_train(args) -> int:
    settings = _load_settings(args)
    _validate_training(settings)
    dataset = _load_dataset(args.data)
    config = _tree_config(settings)
    started = time.perf_counter()
    model = train_boosted(
        dataset,
        rounds=int(settings["trees"]),
        config=config,
        m_weight=float(settings["M"]),
        max_retries=int(settings["retries"]),
        seed=int(settings["seed"]),
    )
    elapsed = time.perf_counter() - started
    train_mcr = ensemble_mcr(model, dataset)
    if args.out:
        save_model(model, args.out)
    doc = {
        "trainMcr": train_mcr,
        "trees": len(model.rounds),
        "prunedIndex": model.pruned_index,
        "formulaText": format_formula(model_formula(model)),
        "model": model_to_dict(model),
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"trained {len(model.rounds)} trees on {len(dataset)} signals "
              f"in {_fmt_duration(elapsed)}")
        print(f"training MCR: {100 * train_mcr:.2f}%")
        print(f"formula: {format_formula(model_formula(model), human=True, m_weight=model.m_weight)}")
        for k, round_ in enumerate(model.rounds):
            star = " *" if k == model.pruned_index else ""
            print(f"  tree {k}: alpha={_fmt_alpha(round_.alpha, model.m_weight)} "
                  f"epsilon={round_.epsilon:.4f} merges={round_.merges}{star}")
        if args.out:
            print(f"model written to {args.out}")
    return 0


@dataclass
class FoldOutcome:
    fold: int
    train_mcr: float
    test_mcr: float
    initial_formula: str
    final_formula: str
    merges: int
    model_doc: dict


def run_cross_validation(
    dataset: LabeledDataset,
    trees: int,
    config: TreeConfig,
    m_weight: float,
    folds: int,
    seed: int,
    max_retries: int = 5,
) -> tuple[list[FoldOutcome], float]:
    plan = stratified_folds(dataset, folds, seed)
    outcomes = []
    started = time.perf_counter()
    for fold in range(folds):
        train_set = dataset.subset(plan.train_indices(fold))
        test_set = dataset.subset(plan.test_indices(fold))
        model = train_boosted(
            train_set,
            rounds=trees,
            config=config,
            m_weight=m_weight,
            max_retries=max_retries,
            seed=int(np.random.SeedSequence((seed, fold)).generate_state(1)[0]),
        )
        if not model.rounds:
            raise ValueError(
                f"fold {fold}: no tree beat random guessing; adjust the "
                "configuration or the data"
            )
        weighted = model_to_dict(model)
        initial = And(
            tuple(r.formula for r in model.rounds),
            tuple(r.alpha for r in model.rounds),
        )
        outcomes.append(
            FoldOutcome(
                fold=fold,
                train_mcr=ensemble_mcr(model, train_set),
                test_mcr=ensemble_mcr(model, test_set),
                initial_formula=format_formula(initial),
                final_formula=format_formula(model_formula(model)),
                merges=sum(r.merges for r in model.rounds),
                model_doc=weighted,
            )
        )
        logger.info("fold %d: train %.4f test %.4f", fold,
                    outcomes[-1].train_mcr, outcomes[-1].test_mcr)
    return outcomes, time.perf_counter() - started


def _report_doc(trees: int, folds: list[FoldOutcome], seed: int) -> dict:
    tr = [f.train_mcr for f in folds]
    te = [f.test_mcr for f in folds]
    return {
        "trees": trees,
        "seed": seed,
        "trainMeanPct": 100 * float(np.mean(tr)),
        "trainStdPct": 100 * float(np.std(tr)),
        "testMeanPct": 100 * float(np.mean(te)),
        "testStdPct": 100 * float(np.std(te)),
        "merges": sum(f.merges for f in folds),
        "folds": [
            {
                "fold": f.fold,
                "trainMcr": f.train_mcr,
                "testMcr": f.test_mcr,
                "initialFormula": f.initial_formula,
                "finalFormula": f.final_formula,
                "merges": f.merges,
                "model": f.model_doc,
            }
            for f in folds
        ],
    }


def _fmt_duration(seconds: float) -> str:
    minutes, secs = divmod(int(round(seconds)), 60)
    return f"{minutes}m {secs}s" if minutes else f"{secs}s"


def _fmt_alpha(alpha: float, m_weight: float) -> str:
    return "M" if alpha == m_weight else f"{alpha:.2f}"


def _report_text(doc: dict, runtime: float) -> str:
    lines = [
        "K, TR-M, TR-S, TE-M, TE-S, R, CT",
        f"{doc['trees']}, {doc['trainMeanPct']:.2f}, {doc['trainStdPct']:.2f}, "
        f"{doc['testMeanPct']:.2f}, {doc['testStdPct']:.2f}, "
        f"{_fmt_duration(runtime)}, {doc['merges']}",
    ]
    for fold in doc["folds"]:
        lines.append(f"fold {fold['fold']}: "
                     f"train {100 * fold['trainMcr']:.2f}% test {100 * fold['testMcr']:.2f}%")
        lines.append(f"  initial: {fold['initialFormula']}")
        lines.append(f"  final:   {fold['finalFormula']}")
    return "\n".join(lines)


def _cmd_cv(args) -> int:
    settings = _load_settings(args)
    _validate_training(settings)
    if settings["folds"] < 2:
        raise CliError("--folds must be at least 2")
    dataset = _load_dataset(args.data)
    config = _tree_config(settings)
    try:
        outcomes, runtime = run_cross_validation(
            dataset,
            trees=int(settings["trees"]),
            config=config,
            m_weight=float(settings["M"]),
            folds=int(settings["folds"]),
            seed=int(settings["seed"]),
            max_retries=int(settings["retries"]),
        )
    except TooFewSamplesError as exc:
        raise CliError(str(exc))
    doc = _report_doc(int(settings["trees"]), outcomes, int(settings["seed"]))
    # The machine-readable report stays byte-identical for a fixed seed, so
    # the wall clock goes to the text rendering only.
    rendered = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if args.format == "json":
        print(rendered)
    else:
        print(_report_text(doc, runtime))
    return 0


def _cmd_eval(args) -> int:
    try:
        with open(args.model, encoding="utf-8") as handle:
            model = model_from_dict(json.load(handle))
    except FileNotFoundError:
        raise CliError(f"no such file: {args.model}")
    except (OSError, json.JSONDecodeError, ValueError, KeyError, ParseError) as exc:
        raise CliError(f"cannot load model {args.model}: {exc}")
    dataset = _load_dataset(args.data)
    if dataset.dimension != model.dimension or dataset.horizon != model.horizon:
        raise CliError(
            f"dataset shape (n={dataset.dimension}, T={dataset.horizon}) does not "
            f"match model (n={model.dimension}, T={model.horizon})"
        )
    predictions = predict_all(model, dataset.values)
    error = float(np.mean(predictions != dataset.labels))
    phi = model_formula(model)
    if args.format == "json":
        doc = {"mcr": error}
        if args.per_signal:
            rho = robustness_all(phi, dataset.values)
            doc["signals"] = [
                {
                    "id": sid,
                    "label": int(label),
                    "prediction": int(pred),
                    "robustness": _cap(r),
                }
                for sid, label, pred, r in zip(
                    dataset.ids, dataset.labels, predictions, rho
                )
            ]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"MCR: {100 * error:.2f}%")
    if args.per_signal:
        writer = csv.writer(sys.stdout)
        writer.writerow(["id", "label", "prediction", "robustness"])
        rho = robustness_all(phi, dataset.values)
        for sid, label, pred, r in zip(dataset.ids, dataset.labels, predictions, rho):
            writer.writerow([sid, int(label), int(pred), repr(_cap(float(r)))])
    return 0


def _cmd_monitor(args) -> int:
    try:
        phi = parse_formula(args.formula)
    except ParseError as exc:
        raise CliError(_format_parse_error(args.formula, exc))
    dataset = _load_dataset(args.data)
    try:
        rho = robustness_all(phi, dataset.values)
    except Exception as exc:
        raise CliError(f"cannot evaluate formula: {exc}")
    writer = csv.writer(sys.stdout)
    writer.writerow(["id", "label", "robustness"])
    for sid, label, r in zip(dataset.ids, dataset.labels, rho):
        writer.writerow([sid, int(label), repr(_cap(float(r)))])
    return 0


def _format_parse_error(text: str, exc: ParseError) -> str:
    lines = text.splitlines() or [""]
    line = lines[min(exc.line, len(lines)) - 1]
    caret = " " * (exc.column - 1) + "^"
    return f"bad formula: {exc}\n  {line}\n  {caret}"


def _cmd_gen_naval(args) -> int:
    try:
        config = NavalConfig(
            count_per_class=args.count if args.count is not None else 100,
            horizon=args.horizon,
            noise=args.noise,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    dataset = generate_naval(config)
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} signals (T={dataset.horizon}, n={dataset.dimension}) "
          f"to {args.out}")
    return 0


def _cmd_gen_urban(args) -> int:
    try:
        config = UrbanConfig(
            count_per_class=args.count if args.count is not None else 150,
            horizon=args.horizon,
            noise=args.noise,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    dataset = generate_urban(config)
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} signals (T={dataset.horizon}, n={dataset.dimension}) "
          f"to {args.out}")
    return 0


def main(argv=None) -> int:
    level = os.environ.get("STLBOOST_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, TooFewSamplesError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected bugs
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
