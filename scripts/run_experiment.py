#!/usr/bin/env python3
"""Cross-validated experiment on a synthetic scenario over a range of
ensemble sizes.

Generates the maritime (``naval``) or street-crossing (``urban``) dataset
and prints the ``cv`` report for each ensemble size.  Unset options take
the scenario's defaults.  The street traces are long (500 samples), so
``urban`` runs a smaller swarm and shallower trees by default; expect
minutes per ensemble size at full scale.

Example:
    python scripts/run_experiment.py --scenario naval --count-per-class 100 \\
        --noise 0 --trees 1 2 3 --seed 7
"""

import argparse
import sys

from stlboost import (
    NavalConfig,
    PsoConfig,
    TreeConfig,
    UrbanConfig,
    generate_naval,
    generate_urban,
)
from stlboost.cli import _report_doc, _report_text, run_cross_validation

SCENARIOS = {
    "naval": (
        NavalConfig,
        generate_naval,
        {"count_per_class": 100, "trees": [1, 2, 3], "max_depth": 3,
         "pso_swarm": 24, "pso_iters": 30},
    ),
    "urban": (
        UrbanConfig,
        generate_urban,
        {"count_per_class": 50, "trees": [1, 2], "max_depth": 2,
         "pso_swarm": 20, "pso_iters": 25},
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    parser.add_argument("--count-per-class", type=int)
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--trees", type=int, nargs="+")
    parser.add_argument("--max-depth", type=int)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pso-swarm", type=int)
    parser.add_argument("--pso-iters", type=int)
    args = parser.parse_args()
    scenario_config, generate, defaults = SCENARIOS[args.scenario]
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)

    dataset = generate(
        scenario_config(count_per_class=args.count_per_class, noise=args.noise, seed=args.seed)
    )
    config = TreeConfig(
        max_depth=args.max_depth,
        pso=PsoConfig(swarm_size=args.pso_swarm, iterations=args.pso_iters),
    )
    print(f"dataset: {len(dataset)} signals, T={dataset.horizon}, noise={args.noise}")
    for trees in args.trees:
        outcomes, runtime = run_cross_validation(
            dataset, trees=trees, config=config, m_weight=100.0,
            folds=args.folds, seed=args.seed,
        )
        print(_report_text(_report_doc(trees, outcomes, args.seed), runtime))
    return 0


if __name__ == "__main__":
    sys.exit(main())
