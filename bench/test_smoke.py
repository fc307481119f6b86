"""Smoke test of the benchmark itself, at a tiny input size.

    python3 -m pytest -q bench/test_smoke.py

It regenerates tiny reference digests into a temporary file, then checks
that every metric BENCHMARK.json names is emitted with its unit, that a
corrupted digest counts as a failed command, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


@pytest.fixture(scope="module")
def references(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("references") / "references.json"
    subprocess.run(
        [sys.executable, str(BENCH / "regenerate.py"), "--scale", "tiny", "--out", str(path)],
        check=True, timeout=300,
    )
    return path


def bench(references: Path, workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", "--references", str(references)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    return done


def result_of(done) -> tuple[dict, dict]:
    assert done.returncode == 0
    report_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(report_line), json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(references, workload, trace, section):
    report, result = result_of(bench(references, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    context = report["context"]
    assert context["seed"] == SEED and context["workload"] == workload
    for key in ("nproc", "python", "numpy", "thread_env"):
        assert context[key]
    if trace:
        metrics = result["metrics"]
        self_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        assert self_sum == pytest.approx(metrics["trace.job_s"]["value"], rel=1e-6)


def test_corrupted_digest_counts_as_failure(references, tmp_path):
    pinned = json.loads(references.read_text(encoding="utf-8"))
    workload = "urban-monitor"
    set_ids = sorted(pinned[workload])
    for set_id in set_ids:
        pinned[workload][set_id]["eval"] = "0" * 64
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(pinned), encoding="utf-8")
    _, result = result_of(bench(corrupted, workload, 0))
    assert result["correct"] is False
    # One of the three commands in every job fails.
    assert 3 * result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources(references, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(references, WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
