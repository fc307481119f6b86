"""Workload definitions: the input files each workload generates and the CLI
commands it runs over them.

Every workload owns a few pinned input sets.  Set ``i`` is generated from
seed ``i`` (unless the workload names other seeds), and the sha256 of every
command's output on it is pinned in ``references.json``.  A run with
``--seed s`` cycles through all of the sets starting at ``s mod sets``: the
same seed always gives the same inputs, every command's output can be
checked against a pinned digest, and every seed measures the same mix of
data, so job times do not spread with the seed.

Workloads:

* ``naval-cv`` -- ``stlboost cv`` on noisy maritime tracks (T=60, n=2).
  Short windows make robustness cheap, so per-particle overhead in the swarm,
  templates and impurity dominates; the noise grows full-depth trees and
  fires merges, so the tree and boosting layers do real work.
* ``urban-train`` -- ``stlboost train`` on separable street data (T=499,
  n=4).  Trees are a single root split, so tree, merge and boosting sit
  nearly idle while windows of up to 500 samples make ``robustness_all``
  the main cost.
* ``urban-monitor`` -- the read path with no search: ``stlboost monitor``
  with two pinned nested-temporal formulas, then ``stlboost eval
  --per-signal`` with a pinned unpruned weighted model, over an urban CSV.
  CSV loading and general (non-primitive) formula evaluation dominate.
* ``naval-baseline`` -- not in BENCHMARK.json: the ROADMAP's baseline, one
  ``stlboost train`` on 200 naval signals, K=3, depth 3, swarm 24x30, data
  seed 1 and training seed 7 (the README's library example).  Run it traced
  with ``run.py --workload naval-baseline --trace 1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
URBAN_MODEL = BENCH_DIR / "urban_model.json"

MONITOR_FORMULAS = (
    "F[0,400](G[0,99]((x3 > 1) & (x1 <= 30)))",
    "G[0,100](F[0,20](x1 > 5))",
)

# An urban generator horizon below 499 would not fit the pinned model or the
# nested monitor formulas, so every urban input keeps T=499.
URBAN_HORIZON = 499


@dataclass(frozen=True)
class Workload:
    name: str
    sets: int  # pinned input sets
    signals: int  # signals in one input set
    generate: Callable[[int, Path], None]  # (set id, work dir) -> writes files
    commands: Callable[[int, Path], list[tuple[str, list[str]]]]  # (key, argv)
    quality: Callable[[str, str], dict[str, float]]  # (key, stdout) -> metrics


def _csv(work: Path, set_id: int) -> Path:
    return work / f"set{set_id}.csv"


def _naval_generator(count: int, noise: float, data_seed: Callable[[int], int]):
    def generate(set_id: int, work: Path) -> None:
        from stlboost import NavalConfig, generate_naval, save_csv

        config = NavalConfig(count_per_class=count, noise=noise, seed=data_seed(set_id))
        save_csv(generate_naval(config), _csv(work, set_id))

    return generate


def _urban_generator(count: int, noise: float):
    def generate(set_id: int, work: Path) -> None:
        from stlboost import UrbanConfig, generate_urban, save_csv

        config = UrbanConfig(
            count_per_class=count, horizon=URBAN_HORIZON, noise=noise, seed=set_id
        )
        save_csv(generate_urban(config), _csv(work, set_id))

    return generate


def _training_flags(trees: int, depth: int, swarm: int, iters: int) -> list[str]:
    return [
        "-K", str(trees), "--max-depth", str(depth),
        "--pso-swarm", str(swarm), "--pso-iters", str(iters),
    ]


def _operator_count(text: str) -> int:
    from stlboost import operator_count, parse_formula

    return operator_count(parse_formula(text))


def _cv_quality(key: str, out: str) -> dict[str, float]:
    doc = json.loads(out)
    ops = [_operator_count(fold["finalFormula"]) for fold in doc["folds"]]
    return {
        "train_mcr_pct": doc["trainMeanPct"],
        "test_mcr_pct": doc["testMeanPct"],
        "formula_ops": sum(ops) / len(ops),
    }


def _train_quality(key: str, out: str) -> dict[str, float]:
    doc = json.loads(out)
    return {
        "train_mcr_pct": 100 * doc["trainMcr"],
        "formula_ops": float(_operator_count(doc["formulaText"])),
    }


def _no_quality(key: str, out: str) -> dict[str, float]:
    return {}


def naval_cv(count: int, swarm: int, iters: int, folds: int, sets: int) -> Workload:
    def commands(set_id, work):
        return [("cv", [
            "cv", "--data", str(_csv(work, set_id)),
            *_training_flags(3, 3, swarm, iters),
            "--folds", str(folds), "--seed", str(set_id), "--format", "json",
        ])]

    return Workload("naval-cv", sets, 2 * count,
                    _naval_generator(count, 2.0, lambda i: i), commands, _cv_quality)


def urban_train(count: int, swarm: int, iters: int, sets: int) -> Workload:
    def commands(set_id, work):
        return [("train", [
            "train", "--data", str(_csv(work, set_id)),
            *_training_flags(2, 3, swarm, iters),
            "--seed", str(set_id), "--format", "json",
        ])]

    return Workload("urban-train", sets, 2 * count,
                    _urban_generator(count, 0.0), commands, _train_quality)


def urban_monitor(count: int, sets: int) -> Workload:
    def commands(set_id, work):
        data = str(_csv(work, set_id))
        monitors = [
            (f"monitor-{k}", ["monitor", "--formula", text, "--data", data])
            for k, text in enumerate(MONITOR_FORMULAS, start=1)
        ]
        evaluate = ("eval", ["eval", "--model", str(URBAN_MODEL), "--data", data, "--per-signal"])
        return monitors + [evaluate]

    return Workload("urban-monitor", sets, 2 * count,
                    _urban_generator(count, 1.0), commands, _no_quality)


def naval_baseline(count: int, swarm: int, iters: int) -> Workload:
    def commands(set_id, work):
        return [("train", [
            "train", "--data", str(_csv(work, set_id)),
            *_training_flags(3, 3, swarm, iters), "--seed", "7", "--format", "json",
        ])]

    return Workload("naval-baseline", 1, 2 * count,
                    _naval_generator(count, 0.0, lambda i: 1), commands, _train_quality)


# Sizes are chosen so one job takes about two seconds on one core, which
# gives a 30-second run a dozen or more jobs, enough to cover every set.
# Job time on naval-cv depends strongly on the data (tree shape, merges),
# hence its larger set count.  "tiny" is for the smoke test.
_FULL = {
    "naval-cv": lambda: naval_cv(count=20, swarm=10, iters=12, folds=2, sets=8),
    "urban-train": lambda: urban_train(count=75, swarm=10, iters=12, sets=4),
    "urban-monitor": lambda: urban_monitor(count=50, sets=4),
    "naval-baseline": lambda: naval_baseline(count=100, swarm=24, iters=30),
}
_TINY = {
    "naval-cv": lambda: naval_cv(count=4, swarm=4, iters=2, folds=2, sets=2),
    "urban-train": lambda: urban_train(count=3, swarm=4, iters=2, sets=2),
    "urban-monitor": lambda: urban_monitor(count=2, sets=2),
    "naval-baseline": lambda: naval_baseline(count=4, swarm=4, iters=2),
}
SCALES = {"full": _FULL, "tiny": _TINY}


def get(name: str, scale: str = "full") -> Workload:
    try:
        return SCALES[scale][name]()
    except KeyError:
        raise SystemExit(f"unknown workload {name!r} at scale {scale!r}") from None

