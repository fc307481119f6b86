"""Command-line interface: train, cross-validate, evaluate, monitor, generate.

Exit codes: 0 success, 1 user error (bad input, bad flags, an input too
large for memory), 2 internal error.  Set STLBOOST_LOG_LEVEL
(DEBUG/INFO/WARNING/...) to control logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .boosting import (
    M_WEIGHT,
    PSO_KEYS,
    RETRIES,
    ensemble_mcr,
    model_formula,
    model_from_dict,
    model_to_dict,
    predict_all,
    read_json,
    save_model,
    train_boosted,
    training_setting,
)
from .data import (
    LabeledDataset,
    TooFewSamplesError,
    fold_setting,
    load_csv,
    save_csv,
    stratified_folds,
    whole_file,
)
from .fanout import fan_out
from .formula import extent, robustness_all
from .grammar import ParseError, format_formula, parse_formula
from .pso import PsoConfig
from .scenarios import NavalConfig, UrbanConfig, generate_naval, generate_urban
from .templates import ThresholdRangeError
from .tree import TreeConfig, mix_seed

logger = logging.getLogger(__name__)

# Boolean constants have infinite robustness; outputs cap it at a large
# finite value so downstream CSV consumers never see "inf".
ROBUSTNESS_CAP = 1e12


class CliError(Exception):
    """User-facing error: print the message and exit 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise CliError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class Setting:
    """One training setting: its config-file key, its flags, its type, its
    default and its help text.

    The library function or config that owns a setting checks its kind and
    bounds (:func:`_load_settings`), and the tree and swarm settings take
    their defaults from TreeConfig and PsoConfig.
    """

    key: str
    flags: tuple[str, ...]
    kind: type
    default: int | float
    help: str
    commands: tuple[str, ...] = ("train", "cv")


SETTINGS = {s.key: s for s in (
    Setting("trees", ("-K", "--trees"), int, 3, "boosting rounds"),
    Setting("max_depth", ("--max-depth",), int, TreeConfig.max_depth, "depth limit of each tree"),
    Setting("lambda", ("--lambda",), float, TreeConfig.purity_stop,
            "majority fraction that turns a node into a leaf"),
    Setting("M", ("--M",), float, M_WEIGHT,
            "vote weight assigned to trees with zero training error"),
    Setting("seed", ("--seed",), int, 0, "training seed"),
    Setting("folds", ("--folds",), int, 5, "cross-validation folds", commands=("cv",)),
    Setting("retries", ("--retries",), int, RETRIES, "retrain attempts for weak trees"),
    Setting("pso_swarm", ("--pso-swarm",), int, PsoConfig.swarm_size,
            "particles in each swarm search"),
    Setting("pso_iters", ("--pso-iters",), int, PsoConfig.iterations,
            "iterations of each swarm search"),
    Setting("pso_omega", ("--pso-omega",), float, PsoConfig.inertia, "swarm inertia"),
    Setting("pso_c1", ("--pso-c1",), float, PsoConfig.cognitive, "swarm cognitive factor"),
    Setting("pso_c2", ("--pso-c2",), float, PsoConfig.social, "swarm social factor"),
)}

_NO_TREES = "no tree beat random guessing; adjust the configuration or the data"


def _add_training_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV path")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    for setting in SETTINGS.values():
        if command in setting.commands:
            parser.add_argument(*setting.flags, dest=setting.key, type=setting.kind,
                                help=f"{setting.help} (default {setting.default})")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="stlboost", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one model on a full dataset")
    _add_training_flags(train, "train")
    train.add_argument("--out", help="write the model JSON here")
    train.set_defaults(func=_cmd_train)

    cv = sub.add_parser("cv", help="cross-validated training and evaluation")
    _add_training_flags(cv, "cv")
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

    for name, scenario, generate, about in (
        ("gen-naval", NavalConfig, generate_naval, "generate a maritime dataset"),
        ("gen-urban", UrbanConfig, generate_urban, "generate a street-crossing dataset"),
    ):
        gen = sub.add_parser(name, help=about)
        gen.add_argument("--count-per-class", type=int, default=scenario.count_per_class)
        gen.add_argument("--horizon", type=int, default=scenario.horizon)
        gen.add_argument("--noise", type=float, default=scenario.noise)
        gen.add_argument("--seed", type=int, default=scenario.seed)
        gen.add_argument("--out", required=True)
        gen.set_defaults(func=_cmd_generate, scenario=scenario, generate=generate)
    return parser


def _read(path, what: str, load):
    """``load(path)``, for the user's input files.

    The one place where a ValueError means bad input: ``load`` rejecting
    the file's content (bad JSON or CSV, or a document that fails its checks).
    """
    try:
        return load(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load {what} {path}: {exc}")


def _config_values(doc) -> dict:
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    unknown = set(doc) - set(SETTINGS)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _load_settings(args) -> tuple[dict, TreeConfig]:
    """The settings (defaults, then the config file, then explicit flags)
    and the TreeConfig built from them, each checked by the library that
    owns it: TreeConfig and PsoConfig, :func:`training_setting` and
    :func:`fold_setting`.  Their ValueError is a user error."""
    settings = {key: setting.default for key, setting in SETTINGS.items()}
    if args.config:
        settings.update(_read(args.config, "config file", lambda p: _config_values(read_json(p))))
    for key in SETTINGS:
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
    try:
        config = TreeConfig(
            max_depth=settings["max_depth"],
            purity_stop=settings["lambda"],
            pso=PsoConfig(**{name: settings["pso_" + key] for key, name, _ in PSO_KEYS}),
        )
        for key, name in (("trees", "rounds"), ("M", "m_weight"), ("retries", "max_retries"),
                          ("seed", "seed")):
            settings[key] = training_setting(name, settings[key], key)
        settings["folds"] = fold_setting("fold_count", settings["folds"], "folds")
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}")
    return settings, config


def _cap(value: float) -> float:
    return float(min(max(value, -ROBUSTNESS_CAP), ROBUSTNESS_CAP))


def _cmd_train(args) -> int:
    settings, config = _load_settings(args)
    dataset = _read(args.data, "dataset", load_csv)
    started = time.perf_counter()
    try:
        model = train_boosted(
            dataset,
            rounds=settings["trees"],
            config=config,
            m_weight=settings["M"],
            max_retries=settings["retries"],
            seed=settings["seed"],
        )
    except ThresholdRangeError as exc:
        raise CliError(str(exc))
    elapsed = time.perf_counter() - started
    if not model.rounds:
        raise CliError(_NO_TREES)
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


def run_cross_validation(
    dataset: LabeledDataset,
    trees: int,
    config: TreeConfig,
    m_weight: float,
    folds: int,
    seed: int,
    max_retries: int = RETRIES,
) -> tuple[list[dict], float]:
    """Train and score one model per fold; returns each fold's report entry,
    in fold order, and the wall time.

    Each fold's model is trained by :func:`~stlboost.boosting.train_boosted`
    with a seed of its own, so it is the one training that fold alone gives.
    Each fold is one task of :func:`~stlboost.fanout.fan_out`, which deals
    fold k to worker k mod W: this process trains its folds, and a forked
    child per further worker trains the rest.  The folds come back in fold
    order, and a fold whose child sent nothing is trained here, so the first
    error raised is the lowest failing fold's, ``fold k: ...``, as one
    process would report it.  No child outlives this call.
    """
    try:
        plan = stratified_folds(dataset, folds, seed)
    except TooFewSamplesError as exc:
        raise CliError(str(exc))
    started = time.perf_counter()

    def train(fold):
        return _fold(dataset, plan, fold, trees, config, m_weight, max_retries, seed)

    with fan_out(train, range(folds)) as trained:
        entries = list(trained)
    for entry in entries:
        logger.info("fold %d: train %.4f test %.4f", entry["fold"],
                    entry["trainMcr"], entry["testMcr"])
    return entries, time.perf_counter() - started


def _fold(dataset, plan, fold, trees, config, m_weight, max_retries, seed):
    """One fold of :func:`run_cross_validation`, trained; returns the fold's
    entry in the report."""
    train_set = dataset.subset(plan.train_indices(fold))
    test_set = dataset.subset(plan.test_indices(fold))
    try:
        model = train_boosted(
            train_set,
            rounds=trees,
            config=config,
            m_weight=m_weight,
            max_retries=max_retries,
            seed=mix_seed(seed, fold),
        )
    except ThresholdRangeError as exc:
        raise CliError(f"fold {fold}: {exc}")
    if not model.rounds:
        raise CliError(f"fold {fold}: {_NO_TREES}")
    initial = model_formula(replace(model, pruned_index=None))
    return {
        "fold": fold,
        "trainMcr": ensemble_mcr(model, train_set),
        "testMcr": ensemble_mcr(model, test_set),
        "initialFormula": format_formula(initial),
        "finalFormula": format_formula(model_formula(model)),
        "merges": sum(r.merges for r in model.rounds),
        "model": model_to_dict(model),
    }


def _report_doc(trees: int, folds: list[dict], seed: int) -> dict:
    tr = [f["trainMcr"] for f in folds]
    te = [f["testMcr"] for f in folds]
    return {
        "trees": trees,
        "seed": seed,
        "trainMeanPct": 100 * float(np.mean(tr)),
        "trainStdPct": 100 * float(np.std(tr)),
        "testMeanPct": 100 * float(np.mean(te)),
        "testStdPct": 100 * float(np.std(te)),
        "merges": sum(f["merges"] for f in folds),
        "folds": folds,
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
    settings, config = _load_settings(args)
    dataset = _read(args.data, "dataset", load_csv)
    entries, runtime = run_cross_validation(
        dataset,
        trees=settings["trees"],
        config=config,
        m_weight=settings["M"],
        folds=settings["folds"],
        seed=settings["seed"],
        max_retries=settings["retries"],
    )
    doc = _report_doc(settings["trees"], entries, settings["seed"])
    # The machine-readable report stays byte-identical for a fixed seed, so
    # the wall clock goes to the text rendering only.
    rendered = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with whole_file(args.out, encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if args.format == "json":
        print(rendered)
    else:
        print(_report_text(doc, runtime))
    return 0


def _cmd_eval(args) -> int:
    model = _read(args.model, "model", lambda p: model_from_dict(read_json(p)))
    dataset = _read(args.data, "dataset", load_csv)
    if dataset.dimension != model.dimension or dataset.horizon != model.horizon:
        raise CliError(
            f"dataset shape (n={dataset.dimension}, T={dataset.horizon}) does not "
            f"match model (n={model.dimension}, T={model.horizon})"
        )
    predictions = predict_all(model, dataset.values)
    error = float(np.mean(predictions != dataset.labels))
    fields = ["id", "label", "prediction", "robustness"]
    rows = []
    if args.per_signal:
        rho = robustness_all(model_formula(model), dataset.values)
        rows = [[sid, int(label), int(pred), _cap(r)]
                for sid, label, pred, r in zip(dataset.ids, dataset.labels, predictions, rho)]
    if args.format == "json":
        doc = {"mcr": error}
        if args.per_signal:
            doc["signals"] = [dict(zip(fields, row)) for row in rows]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"MCR: {100 * error:.2f}%")
    if args.per_signal:
        writer = csv.writer(sys.stdout)
        writer.writerow(fields)
        writer.writerows(rows)  # csv writes a float as its repr
    return 0


def _cmd_monitor(args) -> int:
    try:
        phi = parse_formula(args.formula)
    except ParseError as exc:
        raise CliError(_format_parse_error(args.formula, exc))
    dataset = _read(args.data, "dataset", load_csv)
    var, end = extent(phi)
    if var > dataset.dimension or end > dataset.horizon:
        raise CliError(
            f"formula reads x{var} and timepoint {end}, past the data's "
            f"n={dataset.dimension}, T={dataset.horizon}"
        )
    rho = robustness_all(phi, dataset.values)
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


def _cmd_generate(args) -> int:
    try:
        config = args.scenario(count_per_class=args.count_per_class, horizon=args.horizon,
                               noise=args.noise, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    dataset = args.generate(config)
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} signals (T={dataset.horizon}, n={dataset.dimension}) "
          f"to {args.out}")
    return 0


def main(argv=None) -> int:
    # getLevelName maps a level's name to its number and any other text to a str.
    level = logging.getLevelName(os.environ.get("STLBOOST_LOG_LEVEL", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, OSError) as exc:  # OSError: writing an output file the user named
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a child's too: fan_out runs the tasks it did not send here
        print("error: not enough memory for this input", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected bugs
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
