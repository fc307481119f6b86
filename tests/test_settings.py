"""Every numeric setting has one check, ``formula.checked``.

Through the library, each value of the wrong kind, or not finite, or past
the float range, raises a ValueError that names the setting.  Through the
``train`` and ``cv`` flags and the config file, it exits 1 with one
``error:`` line before the data is read.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    LE,
    POS_LABEL,
    NEG_LABEL,
    Always,
    BoostedModel,
    Leaf,
    NavalConfig,
    PsoConfig,
    Split,
    TreeConfig,
    TreeRound,
    UrbanConfig,
    model_from_dict,
    model_to_dict,
    stratified_folds,
    train_boosted,
)
from stlboost import cli
from stlboost.formula import checked
from helpers import constant_dataset, pred

HUGE = 10**5000  # str() of it raises Python's own digit-limit ValueError
INT_BAD = [True, False, np.True_, np.False_, 2.5, 3.0, math.nan, math.inf, -math.inf, HUGE]
FLOAT_BAD = [True, np.False_, math.nan, math.inf, -math.inf, 10**400, HUGE]
BAD = {int: INT_BAD, float: FLOAT_BAD}


def _model_doc() -> dict:
    tree = Split(Always(0, 1, pred(1, LE, 1.0)), Leaf(POS_LABEL), Leaf(NEG_LABEL))
    model = BoostedModel(rounds=(TreeRound(tree, 2.0, 0.1, 0),), m_weight=100.0,
                         pruned_index=0, dimension=1, horizon=2, config=TreeConfig(),
                         requested_rounds=1)
    return model_to_dict(model)


def _model_field(*path):
    """A loader of a model document whose field at ``path`` is the value."""
    def load(value):
        doc = _model_doc()
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        return model_from_dict(doc)
    return load


DATASET = constant_dataset(range(12), [POS_LABEL] * 6 + [NEG_LABEL] * 6)

# (name the error must hold, kind, a call that passes the value to that setting)
LIBRARY = [
    ("max_depth", int, lambda v: TreeConfig(max_depth=v)),
    ("purity_stop", float, lambda v: TreeConfig(purity_stop=v)),
    ("swarm_size", int, lambda v: PsoConfig(swarm_size=v)),
    ("iterations", int, lambda v: PsoConfig(iterations=v)),
    ("inertia", float, lambda v: PsoConfig(inertia=v)),
    ("cognitive", float, lambda v: PsoConfig(cognitive=v)),
    ("social", float, lambda v: PsoConfig(social=v)),
    ("rounds", int, lambda v: train_boosted(DATASET, rounds=v)),
    ("m_weight", float, lambda v: train_boosted(DATASET, rounds=1, m_weight=v)),
    ("max_retries", int, lambda v: train_boosted(DATASET, rounds=1, max_retries=v)),
    ("seed", int, lambda v: train_boosted(DATASET, rounds=1, seed=v)),
    ("fold_count", int, lambda v: stratified_folds(DATASET, v)),
    ("seed", int, lambda v: stratified_folds(DATASET, 2, seed=v)),
] + [
    (name, kind, lambda v, scenario=scenario, name=name: scenario(**{name: v}))
    for scenario in (NavalConfig, UrbanConfig)
    for name, kind in (("count_per_class", int), ("horizon", int), ("noise", float),
                       ("seed", int))
] + [
    (path[-1], kind, _model_field(*path))
    for path, kind in (
        (("n",), int), (("T",), int), (("M",), float), (("prunedIndex",), int),
        (("config", "maxDepth"), int), (("config", "lambda"), float),
        (("config", "requestedRounds"), int), (("config", "pso", "swarm"), int),
        (("config", "pso", "iters"), int), (("config", "pso", "omega"), float),
        (("config", "pso", "c1"), float), (("config", "pso", "c2"), float),
        (("config", "pso", "velocityClamp"), float), (("config", "pso", "seed"), int),
        (("trees", 0, "alpha"), float), (("trees", 0, "epsilon"), float),
        (("trees", 0, "merges"), int),
    )
]


# Every (setting, value) pair: a space this small is drawn whole.
LIBRARY_CASES = [(name, call, value) for name, kind, call in LIBRARY for value in BAD[kind]]


@settings(max_examples=len(LIBRARY_CASES), deadline=None)
@given(st.sampled_from(LIBRARY_CASES))
def test_the_library_refuses_every_bad_number_by_name(case):
    name, call, value = case
    with pytest.raises(ValueError) as refused:
        call(value)
    assert re.match(rf"{name} (must be|is beyond)", str(refused.value)), str(refused.value)


def _flag_text(value) -> str:
    return "1" + "0" * 5000 if value is HUGE else str(value)


def _config_text(key, value) -> str:
    if value is HUGE:  # json.dumps cannot write it, and json.loads refuses it
        return f'{{"{key}": 1{"0" * 5000}}}'
    return json.dumps({key: bool(value) if isinstance(value, np.bool_) else value})


def never(*args, **kwargs):
    raise AssertionError("reached past the settings check")


CLI_CASES = [(key, command, from_file, value)
             for key, setting in sorted(cli.SETTINGS.items())
             for command in setting.commands
             for from_file in (False, True)
             for value in BAD[setting.kind]]


@settings(max_examples=len(CLI_CASES), deadline=None)
@given(st.sampled_from(CLI_CASES))
def test_the_cli_refuses_every_bad_number_before_reading_data(tmp_path_factory, case):
    """Each value exits 1 with one ``error:`` line: neither the data nor
    training is reached, for ``cli.load_csv`` and ``cli.train_boosted``
    fail if called, which would exit 2."""
    key, command, from_file, value = case
    argv = [command, "--data", "unread.csv"]
    if from_file:
        config = tmp_path_factory.mktemp("config") / "cfg.json"
        config.write_text(_config_text(key, value))
        argv += ["--config", str(config)]
    else:
        argv.append(f"{cli.SETTINGS[key].flags[-1]}={_flag_text(value)}")
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        patch.setattr(cli, "load_csv", never)
        patch.setattr(cli, "train_boosted", never)
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (argv[3:], lines)


@pytest.mark.parametrize("kind, value, message", [
    (int, 2.0, "x must be an integer, got 2.0"),
    (int, np.True_, "x must be an integer, got np.True_"),
    (float, "1", "x must be a number, got '1'"),
    (float, math.nan, "x must be a finite number, got nan"),
    (int, -10**400, "x is beyond the float range"),
    (int, 0, "x must be at least 1 and below 3, got 0"),
    (float, 0.5, "x must be above 0.5 and at most 1, got 0.5"),
])
def test_checked_messages(kind, value, message):
    bounds = {"ge": 1, "lt": 3} if kind is int else {"gt": 0.5, "le": 1}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        checked("x", value, kind, **bounds)


def test_checked_returns_python_numbers():
    assert type(checked("x", np.int64(3), int)) is int
    assert type(checked("x", np.float32(0.5), float)) is float
    assert type(checked("x", 3, float)) is float and checked("x", 3, float) == 3.0
    assert checked("x", 2, int, ge=2, le=2) == 2
