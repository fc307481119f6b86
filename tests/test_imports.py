"""Every name a module imports and never reads is one that the benchmark's
tracer wraps, and no module imports or reads another's private names."""

import ast
import importlib.util
from pathlib import Path

import stlboost

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _unread_imports(source: str) -> dict[str, bool]:
    """The names ``source`` imports and never reads, each mapped to whether
    its import carries ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        kept = any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unread[name] = kept
    return unread


def _tracer_patches() -> set[tuple[str, str]]:
    """(owner, attribute) of every name ``Tracer.install()`` patches."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        return {(owner.__name__, attr) for owner, attr, _ in tracer._patched}
    finally:
        tracer.uninstall()


def test_unused_imports_are_the_tracers():
    """An import that its module never reads fails, unless it
    is under ``# noqa: F401`` and the tracer wraps it on that module, so
    neither a leftover import nor that list can grow unnoticed.  The package
    ``__init__`` imports to export and is not checked."""
    source = ("from __future__ import annotations\nimport os.path\n"
              "from a import b, c  # noqa: F401\nc()\n")
    assert _unread_imports(source) == {"os": False, "b": True}
    patched = _tracer_patches()
    package = Path(stlboost.__file__).parent
    flagged = {
        (f"stlboost.{path.stem}", name)
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
        for name, kept in _unread_imports(path.read_text(encoding="utf-8")).items()
        if not (kept and (f"stlboost.{path.stem}", name) in patched)
    }
    assert flagged == set()


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source: str) -> set[str]:
    """The ``_``-prefixed names (dunders aside) that ``source`` imports from
    an stlboost module, or reads as an attribute of a name it imports from
    one: ``from .pso import _space`` and ``fanout._cpus`` after ``from .
    import fanout``."""
    tree = ast.parse(source)
    imported, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "stlboost"):
            imported.update(alias.asname or alias.name for alias in node.names)
            found.update(alias.name for alias in node.names if _private(alias.name))
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names
                            if alias.name.split(".")[0] == "stlboost")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.add(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    """A module of the package that imports another's ``_`` name, or reads
    one through an imported name, fails: each module's private names are
    its own."""
    source = ("from . import __version__, fanout\nfrom .pso import _space, checked_int\n"
              "import stlboost.tree\nimport numpy as np\n"
              "fanout._cpus()\nstlboost.tree._stop\nnp._x\nself._y\nchecked_int.__name__\n")
    assert _private_reads(source) == {"_space", "fanout._cpus", "stlboost.tree._stop"}
    package = Path(stlboost.__file__).parent
    flagged = {
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        for name in _private_reads(path.read_text(encoding="utf-8"))
    }
    assert flagged == set()
