"""Smoke test of the experiment script, which drives private CLI helpers
(``run_cross_validation``, ``_report_doc``, ``_report_text``)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_experiment_at_a_tiny_size():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiment.py"), "--scenario", "naval",
         "--count-per-class", "4", "--trees", "1", "--folds", "2", "--max-depth", "1",
         "--pso-swarm", "4", "--pso-iters", "2"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert "K, TR-M, TR-S, TE-M, TE-S, R, CT" in done.stdout.splitlines()
