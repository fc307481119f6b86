#!/usr/bin/env python3
"""Regenerate the benchmark's pinned records.  The benchmark never runs this.

Run it by hand only after a change that is meant to alter command output
(and say why in CHANGES.md):

    python3 bench/regenerate.py                      # every workload's digests
    python3 bench/regenerate.py --workload urban-train
    python3 bench/regenerate.py --baseline           # bench/baseline.json
    python3 bench/regenerate.py --scale tiny --out refs.json

Digests go to ``bench/references.json`` (or ``--out``): for each workload,
input set and command, the sha256 of the command's standard output.
``--baseline`` runs the traced ROADMAP baseline case (``naval-baseline``)
and records its per-layer metrics; its digest must already be pinned.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, spawn
from workloads import SCALES

RECORD_TIMEOUT_S = 1800


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--out", default=str(BENCH / "references.json"))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)

    if args.baseline:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "naval-baseline",
             "--seed", "0", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        context_line, result_line = done.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        if not result["correct"]:
            raise SystemExit("baseline output does not match its pinned digest")
        record = {"context": json.loads(context_line)["context"], "metrics": result["metrics"]}
        with open(BENCH / "baseline.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return 0

    try:
        with open(args.out, encoding="utf-8") as handle:
            references = json.load(handle)
    except FileNotFoundError:
        references = {}
    for name in args.workload or SCALES[args.scale]:
        result = spawn(["--workload", name, "--scale", args.scale, "--record"],
                       RECORD_TIMEOUT_S)
        references[name] = result["digests"]
        print(f"{name}: {len(result['digests'])} input sets", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
