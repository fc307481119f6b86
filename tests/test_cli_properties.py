"""Property test of the CLI's exit-code contract.

Whatever the training flags, the config file, the model file or the dataset
CSV hold, the CLI exits 0 or 1, prints no traceback, and starts a failure's stderr with
``error:``.  Exit 2 is reserved for bugs in the library.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stlboost import (
    NavalConfig,
    PsoConfig,
    TreeConfig,
    generate_naval,
    model_to_dict,
    save_csv,
    save_model,
    train_boosted,
)
from stlboost import cli

EXAMPLES = settings(max_examples=60, deadline=None)

FLAG_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "3", "1e9", "2.5", "0.5", "", "x"]),
    st.integers(-3, 2000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2000),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)

JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small dataset, one model trained on it once, and a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    dataset = generate_naval(NavalConfig(count_per_class=4, seed=1))
    save_csv(dataset, root / "naval.csv")
    config = TreeConfig(max_depth=1, pso=PsoConfig(swarm_size=4, iterations=2))
    model = train_boosted(dataset, rounds=1, config=config, seed=1)
    assert model.rounds
    save_model(model, root / "model.json")
    return root, str(root / "naval.csv"), model


@pytest.fixture(scope="module")
def stubbed(files):
    """``cli.train_boosted`` returns the trained model, so no example runs a search."""
    _, _, model = files
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "train_boosted", lambda *args, **kwargs: model)
        yield


def run(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    assert code in (0, 1), stderr
    assert "Traceback" not in stderr
    if code:
        assert stderr.startswith("error:"), stderr


@EXAMPLES
@given(
    command=st.sampled_from(["train", "cv"]),
    flags=st.dictionaries(
        st.sampled_from([setting.flags[-1] for setting in cli.SETTINGS.values()]),
        FLAG_TEXT,
        max_size=4,
    ),
)
def test_training_flags(files, stubbed, command, flags):
    _, data, _ = files
    run([command, "--data", data] + [f"{flag}={value}" for flag, value in flags.items()])


@EXAMPLES
@given(
    command=st.sampled_from(["train", "cv"]),
    doc=st.one_of(
        st.dictionaries(
            st.sampled_from(list(cli.SETTINGS) + ["bogus", "Trees"]),
            st.one_of(st.integers(-3, 60), st.floats(-2, 2), JSON_VALUES),
            max_size=4,
        ),
        JSON_VALUES,
    ),
)
def test_config_file(files, stubbed, command, doc):
    root, data, _ = files
    path = root / "config.json"
    path.write_text(json.dumps(doc))
    run([command, "--data", data, "--config", str(path)])


def _paths(doc, prefix=()):
    """Every key path into a JSON document, the document itself first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(child, prefix + (key,))


@EXAMPLES
@given(data=st.data(), per_signal=st.booleans(), output=st.sampled_from(["text", "json"]))
def test_model_file(files, data, per_signal, output):
    root, dataset, model = files
    good = model_to_dict(model)
    path = data.draw(st.sampled_from(list(_paths(good))))
    delete = bool(path) and data.draw(st.booleans())
    doc = copy.deepcopy(good)
    if not path:
        doc = data.draw(JSON_VALUES)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    model_path = root / "model.json"
    model_path.write_text(json.dumps(doc))
    run(["eval", "--model", str(model_path), "--data", dataset, "--format", output]
        + (["--per-signal"] if per_signal else []))


CELL_TEXT = st.one_of(
    st.sampled_from([str(10**12), str(10**20), str(-10**20), "", " ", "x", "nan", "inf",
                     "-1", "0", "1", "2", "+1", "1_0", "1e400", "\"", "a,b"]),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)


@EXAMPLES
@given(data=st.data(), command=st.sampled_from(["monitor", "eval"]))
def test_dataset_file(files, data, command):
    root, dataset, _ = files
    lines = Path(dataset).read_text(encoding="utf-8").splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        # Records of the first id set the horizon, so they are drawn more often.
        k = data.draw(st.integers(1, 8) | st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["cell", "time", "drop", "repeat", "line", "bytes"]))
        if kind in ("cell", "time"):
            cells = lines[k].split(",")
            column = 1 if kind == "time" else data.draw(st.integers(0, len(cells) - 1))
            cells[min(column, len(cells) - 1)] = data.draw(CELL_TEXT)
            lines[k] = ",".join(cells)
        elif kind == "drop":
            del lines[k]
        elif kind == "repeat":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[k])
        elif kind == "line":
            lines[k] = data.draw(st.text(max_size=12))
        else:
            lines[k] = "\ufffd" + lines[k]  # replaced by invalid UTF-8 below
    path = root / "mutated.csv"
    path.write_bytes("\n".join(lines).encode("utf-8").replace(b"\xef\xbf\xbd", b"\xff"))
    if command == "monitor":
        run(["monitor", "--formula", "F[0,3](x1 > 40)", "--data", str(path)])
    else:
        run(["eval", "--model", str(root / "model.json"), "--data", str(path), "--per-signal"])
