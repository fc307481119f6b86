"""Every name a module imports and never reads is one that the benchmark's
tracer wraps."""

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
