"""Names a module binds only so that the benchmark's tracer can wrap them."""

import ast
import importlib.util
from pathlib import Path

import stlboost

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _kept_names(source: str) -> set[str]:
    """The names ``source`` imports under ``# noqa: F401`` and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
        ):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


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
    """Every name a module imports under ``# noqa: F401`` and never reads is
    one the tracer wraps on that module, so that list cannot grow unnoticed."""
    assert _kept_names("from a import b, c  # noqa: F401\nc()\n") == {"b"}
    package = Path(stlboost.__file__).parent
    kept = {
        (f"stlboost.{path.stem}", name)
        for path in sorted(package.glob("*.py"))
        for name in _kept_names(path.read_text(encoding="utf-8"))
    }
    assert kept - _tracer_patches() == set()
