"""One workload in one process: set up, then either time untraced jobs for
``--seconds`` or run a fixed traced sequence.  Prints one JSON line.

``run.py`` starts this file in a fresh process with BLAS/OpenMP threads
pinned to one and ``src`` on the path; ``regenerate.py`` starts it with
``--record`` to compute reference digests.  It is not meant to be run by
hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()

import numpy as np  # noqa: E402  (after STARTED, so import time includes numpy)


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--references")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    return parser.parse_args(argv)


def run_command(cli, argv):
    """Run one CLI command in-process; returns (exit code, seconds, stdout)."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, perf_counter() - start, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Counts commands and failures against the pinned output digests."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.quality: dict[int, dict[str, float]] = {}

    def check(self, set_id: int, key: str, code: int, out: str) -> None:
        self.attempted += 1
        expected = self.references.get(str(set_id), {}).get(key)
        if code != 0 or digest(out) != expected:
            self.failed += 1
            print(f"{self.workload.name} set {set_id} {key}: exit {code}, "
                  f"digest {digest(out)[:12]} expected {str(expected)[:12]}", file=sys.stderr)
            return
        if set_id not in self.quality:
            self.quality[set_id] = {}
        self.quality[set_id].update(self.workload.quality(key, out))


def run_job(cli, workload, set_id, work, checker) -> float:
    elapsed = 0.0
    for key, argv in workload.commands(set_id, work):
        code, seconds, out = run_command(cli, argv)
        elapsed += seconds
        checker.check(set_id, key, code, out)
    return elapsed


def setup(cli, workloads, workload, args, work: Path, set_ids):
    """Generate the input sets and make the warm-up call; returns set-up timings."""
    gen_s = []
    for set_id in set_ids:
        start = perf_counter()
        workload.generate(set_id, work)
        gen_s.append(perf_counter() - start)
    warm = workloads.get(args.workload, "tiny")
    warm_dir = work / "warmup"
    warm_dir.mkdir()
    start = perf_counter()
    warm.generate(0, warm_dir)
    for _, argv in warm.commands(0, warm_dir):
        code, _, _ = run_command(cli, argv)
        if code != 0:
            raise SystemExit(f"warm-up command failed with exit {code}: {argv}")
    warmup_s = perf_counter() - start
    return gen_s, warmup_s


@dataclass(frozen=True)
class _Face:
    var: int
    threshold: float


def probe(rounds: int = 4000) -> float:
    """Seconds taken by a fixed calibration loop that uses no stlboost code.

    It mixes small frozen-dataclass construction, numpy window reductions
    and Python bookkeeping, as the library does.
    """
    signals = np.linspace(-3.0, 3.0, 40 * 61).reshape(40, 61) % 1.7
    start = perf_counter()
    best = -np.inf
    for i in range(rounds):
        face = _Face(i % 7, (i % 13) / 13)
        window = signals[:, i % 30 : i % 30 + 20]
        rho = np.minimum(window - face.threshold, 1.5 - window).max(axis=1)
        gain = float(np.abs(rho).sum()) / (1.0 + float(rho[rho >= 0].sum()))
        if gain > best:
            best = gain
        record = {"face": face, "top": [k for k in range(8)]}
    del record
    return perf_counter() - start


def timed(cli, workload, args, work, set_ids, checker) -> dict:
    """Closed loop, one client: jobs back to back until --seconds have passed.

    The calibration probe runs before each job and after the last one, and
    each job is also given rescaled by the mean of the two probes around it.
    """
    jobs, probes = [], [probe()]  # jobs: [set id, wall seconds, seconds per probe second]
    command_s = 0.0
    signals = 0
    deadline = perf_counter() + args.seconds
    while not jobs or perf_counter() < deadline:
        set_id = set_ids[len(jobs) % len(set_ids)]
        seconds = run_job(cli, workload, set_id, work, checker)
        probes.append(probe())
        jobs.append([set_id, seconds, seconds / ((probes[-2] + probes[-1]) / 2)])
        command_s += seconds
        signals += workload.signals * len(workload.commands(set_id, work))
    return {"jobs": jobs, "probe_s": probes, "signals_per_s": signals / command_s}


def traced(cli, workload, args, work, set_ids, checker) -> dict:
    """Untraced, traced, untraced, traced: the same job four times.

    The two traced jobs must give identical deterministic counters; their
    timings are averaged, and the untraced pair gives the tracing overhead.
    """
    from tracer import Tracer, deterministic

    set_id = set_ids[0]
    plain, tracers = [], []
    for _ in range(2):
        plain.append(run_job(cli, workload, set_id, work, checker))
        tracer = Tracer()
        tracer.install()
        try:
            run_job(cli, workload, set_id, work, checker)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    first, second = (t.metrics() for t in tracers)
    counters, repeat = deterministic(first), deterministic(second)
    if counters != repeat:
        differing = sorted(k for k in counters if counters[k] != repeat[k])
        raise SystemExit(f"deterministic counters differ between two traced jobs: {differing}")
    traced_s = [t.job_seconds() for t in tracers]
    self_sums = [sum(t.self_s.values()) for t in tracers]
    for total, self_sum in zip(traced_s, self_sums):
        if abs(total - self_sum) > 1e-6 * total:
            raise SystemExit(f"layer self times {self_sum} do not add up to job time {total}")
    layers = {}
    for name, (value, unit) in first.items():
        if unit in ("count", "ratio"):
            layers[name] = (value, unit)
        else:
            layers[name] = ((value + second[name][0]) / 2, unit)
    untraced_s = statistics.fmean(plain)
    layers["trace.job_s"] = (statistics.fmean(traced_s), "s")
    layers["trace.overhead_pct"] = (100 * (layers["trace.job_s"][0] / untraced_s - 1), "%")
    spans_dir = Path(args.root) / ".bench_work" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracers[0].spans))
    return {
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "untraced_job_s": untraced_s,
        "spans": str(spans_path.relative_to(args.root)),
        "span_count": len(tracers[0].spans),
    }


def record(cli, workload, work) -> dict:
    """Digest of every command's output on every pinned input set."""
    digests = {}
    for set_id in range(workload.sets):
        workload.generate(set_id, work)
        digests[str(set_id)] = {}
        for key, argv in workload.commands(set_id, work):
            code, _, out = run_command(cli, argv)
            if code != 0:
                raise SystemExit(f"{workload.name} set {set_id} {key} exited {code}")
            digests[str(set_id)][key] = digest(out)
    return {"digests": digests}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(args.root).resolve()
    import stlboost.cli as cli

    import_s = perf_counter() - STARTED
    src = (root / "src").resolve()
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"stlboost was imported from {cli.__file__}, not from {src}")
    import workloads

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.get(args.workload, args.scale)
        count = 1 if args.trace or args.setup_only else workload.sets
        set_ids = [(args.seed + k) % workload.sets for k in range(count)]
        if args.record:
            result = record(cli, workload, work)
        elif args.setup_only:
            setup(cli, workloads, workload, args, work, set_ids)
            result = {}
        else:
            gen_s, warmup_s = setup(cli, workloads, workload, args, work, set_ids)
            with open(args.references, encoding="utf-8") as handle:
                references = json.load(handle).get(args.workload, {})
            checker = Checker(workload, references)
            run = traced if args.trace else timed
            result = run(cli, workload, args, work, set_ids, checker)
            quality = {}
            for values in checker.quality.values():
                for name, value in values.items():
                    quality.setdefault(name, []).append(value)
            result.update({
                "import_s": import_s,
                "gen_s": statistics.median(gen_s),
                "warmup_s": warmup_s,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "quality": {k: statistics.fmean(v) for k, v in quality.items()},
                "input_sets": set_ids,
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["context"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
