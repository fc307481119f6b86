#!/usr/bin/env python3
"""Benchmark of the stlboost CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload naval-cv --seed 3 --seconds 30 --trace 0

Each workload runs in a fresh process with BLAS/OpenMP threads pinned to one.
That process imports ``stlboost`` from ``src/``, generates its input CSVs from
the seed (see ``workloads.py``), makes a warm-up call on tiny inputs, and then
drives ``stlboost.cli.main`` in-process.  Every command's output is checked
against the sha256 pinned in ``references.json``; a nonzero exit or a
mismatch counts as a failed command.

``--trace 0`` runs jobs back to back (a closed loop with one client) for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs a fixed
job traced in two separate processes, fails if the deterministic counters
differ, and reports the per-layer metrics; ``--seconds`` does not apply.

Standard output: one line with the machine context and a full report (every
metric by name and unit, including those that apply to one workload only),
then the result line ``{"correct", "attempted", "failed", "metrics"}``.

``--references`` and ``--scale tiny`` exist for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
TIME_LIMIT_S = 170
TAIL_SAMPLES = 10  # samples a reported tail percentile must leave beyond it
SETUP_ROUNDS = 3
# Job times are rescaled to a reference CPU speed at which the calibration
# probe (worker.probe) takes this long; see README.md.
REFERENCE_PROBE_S = 0.1


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def spawn(options: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh pinned process; returns its JSON result."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), *options]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        fail("workload process exceeded the time limit")
    if done.returncode != 0:
        fail(f"workload process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def worker(args, trace: int, deadline: float, *extra: str) -> dict:
    return spawn([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", args.scale, "--references", str(args.references), *extra,
    ], deadline - monotonic())


def setup_seconds(args, deadline) -> list[float]:
    """Wall time of fresh processes that only set up: start Python, import
    stlboost, generate one input set and make the warm-up call."""
    samples = []
    for _ in range(SETUP_ROUNDS):
        start = perf_counter()
        worker(args, 0, deadline, "--setup-only")
        samples.append(perf_counter() - start)
    return samples


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it, or
    None when that percentile would not lie above the median."""
    if len(samples) < 2 * TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    index = len(ordered) - TAIL_SAMPLES - 1
    return {"percentile": 100 * (index + 1) / len(ordered), "value": ordered[index], "unit": "s"}


def median_over_sets(jobs: list, column: int) -> float:
    """Median over input sets of each set's median job figure, so that every
    input set weighs the same."""
    by_set = {}
    for job in jobs:
        by_set.setdefault(job[0], []).append(job[column])
    return statistics.median(statistics.median(values) for values in by_set.values())


def end_to_end(args, deadline) -> tuple[dict, dict, dict]:
    setups = setup_seconds(args, deadline)
    run = worker(args, 0, deadline)
    probe_s = statistics.median(run["probe_s"])
    jobs = [REFERENCE_PROBE_S * per_probe for _, _, per_probe in run["jobs"]]
    metrics = {
        "job_s": (REFERENCE_PROBE_S * median_over_sets(run["jobs"], 2), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }
    report = dict(metrics)
    report.update({
        "job_wall_s": (median_over_sets(run["jobs"], 1), "s"),
        "probe_s": (probe_s, "s"),
        "signals_per_s": (run["signals_per_s"], "1/s"),
        "import_s": (run["import_s"], "s"),
        "gen_s": (run["gen_s"], "s"),
        "warmup_s": (run["warmup_s"], "s"),
        "jobs": (len(jobs), "count"),
        "failed_ratio": (run["failed"] / run["attempted"], "ratio"),
    })
    if args.workload == "urban-monitor":
        report["monitor_signals_per_s"] = (run["signals_per_s"], "1/s")
    units = {"train_mcr_pct": "%", "test_mcr_pct": "%", "formula_ops": "count"}
    for name, value in run["quality"].items():
        report[name] = (value, units[name])
    report = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
    report["job_tail_s"] = tail(jobs)
    return run, metrics, report


def per_layer(args, deadline) -> tuple[dict, dict, dict]:
    runs = [worker(args, 1, deadline) for _ in range(2)]
    first, second = (r["layers"] for r in runs)
    differing = sorted(
        name for name, entry in first.items()
        if entry["unit"] in ("count", "ratio") and entry["value"] != second[name]["value"]
    )
    if differing:
        fail(f"deterministic counters differ between two traced runs: {differing}", 1)
    metrics = {}
    for name, entry in first.items():
        value = entry["value"]
        if entry["unit"] not in ("count", "ratio"):
            value = (value + second[name]["value"]) / 2
        metrics[name] = (value, entry["unit"])
    run = dict(runs[0], attempted=sum(r["attempted"] for r in runs),
               failed=sum(r["failed"] for r in runs))
    report = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["untraced_job_s"] = {"value": runs[0]["untraced_job_s"], "unit": "s"}
    report["self_sum_s"] = {"value": sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS),
                            "unit": "s"}
    report["spans"] = {"file": runs[0]["spans"], "count": runs[0]["span_count"]}
    return run, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--references", type=Path, default=BENCH / "references.json")
    args = parser.parse_args(argv)
    deadline = monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "stlboost" / "__init__.py").is_file():
        fail(f"no stlboost sources under {ROOT / 'src'}; run from a full checkout")
    if not args.references.is_file():
        fail(f"no reference digests at {args.references}")

    measure = per_layer if args.trace else end_to_end
    run, metrics, report = measure(args, deadline)
    context = dict(run["context"], workload=args.workload, seed=args.seed,
                   scale=args.scale, input_sets=run["input_sets"],
                   seconds=args.seconds, trace=args.trace, thread_env=PINNED_ENV)
    print(json.dumps({"context": context, "report": report}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
