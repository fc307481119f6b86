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
from stlboost import cli, data

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


@contextlib.contextmanager
def stubbed(model):
    """``cli.train_boosted`` returns ``model``, so the example runs no search."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "train_boosted", lambda *args, **kwargs: model)
        yield


def run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    assert code in (0, 1), stderr
    assert "Traceback" not in stderr
    if code:
        assert stderr.startswith("error:"), stderr
    return code


@EXAMPLES
@given(
    command=st.sampled_from(["train", "cv"]),
    flags=st.dictionaries(
        st.sampled_from([setting.flags[-1] for setting in cli.SETTINGS.values()]),
        FLAG_TEXT,
        max_size=4,
    ),
)
def test_training_flags(files, command, flags):
    _, data, model = files
    with stubbed(model):
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
def test_config_file(files, command, doc):
    root, data, model = files
    path = root / "config.json"
    path.write_text(json.dumps(doc))
    with stubbed(model):
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
    st.sampled_from([str(10**12), str(10**20), str(-10**20), "8.9e307", "-8.9e307", "1.7e308",
                     "-1.7e308", "", " ", "x", "nan", "inf", "-1", "0", "1", "2", "+1", "1_0",
                     "1e400", "\"", "a,b"]),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)


@EXAMPLES
@given(data=st.data(), command=st.sampled_from(["monitor", "eval", "train", "cv"]))
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
    elif command == "eval":
        run(["eval", "--model", str(root / "model.json"), "--data", str(path), "--per-signal"])
    else:  # a real search, unstubbed
        run([command, "--data", str(path), "-K", "1", "--pso-swarm", "4", "--pso-iters", "2"]
            + (["--folds", "2"] if command == "cv" else []))


# Values at the edges of what a swarm searches: +-1.036e307 is about the
# widest symmetric range it accepts, 1.06e307 lies past it.
LOADABLE_VALUES = st.one_of(
    st.sampled_from([1.036e307, -1.036e307, 1.05e307, -1.05e307, 1.06e307, 5e-324, -5e-324,
                     2.2250738585072014e-308, -0.0, 0.0]),
    st.floats(-50, 50),
)


@st.composite
def loadable_csv(draw):
    """``(n, T, text)`` of an unquoted dataset CSV that loads: both classes,
    one to four signals each, every id covering 0..T, rows in any order,
    and each column either constant or drawn cell by cell."""
    dim = draw(st.integers(1, 3))
    horizon = draw(st.integers(0, 6))
    constant = [draw(st.none() | LOADABLE_VALUES) for _ in range(dim)]  # None: varies
    records = []
    for label, prefix in ((1, "p"), (-1, "n")):
        for i in range(draw(st.sampled_from([2, 3, 4, 1]))):
            for t in range(horizon + 1):
                cells = [draw(LOADABLE_VALUES) if c is None else c for c in constant]
                records.append(f"{prefix}{i},{t},{label}," + ",".join(map(repr, cells)))
    header = "id,t,label," + ",".join(f"x{j}" for j in range(1, dim + 1))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return dim, horizon, ending.join([header] + draw(st.permutations(records))) + ending


@EXAMPLES
@given(spec=loadable_csv())
def test_loadable_dataset_file(files, spec):
    """Every command on a file that loads, with the swarm searching for real."""
    root, _, _ = files
    dim, horizon, text = spec
    path = root / "loadable.csv"
    path.write_bytes(text.encode("utf-8"))
    assert data._load_fast(path) is not None  # numpy's parser reads it
    model = root / "loadable-model.json"
    model.unlink(missing_ok=True)
    search = ["-K", "1", "--pso-swarm", "4", "--pso-iters", "2"]
    if run(["train", "--data", str(path), "--out", str(model)] + search) == 0:
        run(["eval", "--model", str(model), "--data", str(path), "--per-signal"])
    run(["cv", "--data", str(path), "--folds", "2"] + search)
    run(["monitor", "--formula", f"G[0,{horizon}](x{dim} > 0)", "--data", str(path)])
