"""The benchmark harness end to end on its ~30-node smoke workload.

Runs every stage (summarize, fit, gof, knockout) as a user would, and once
more in one traced process, and checks the outputs against the generator, so
neither the harness nor the fit path can break unnoticed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke30_round(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke30", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    # ``correct`` is true only when every round passed every check
    assert result["correct"] is True, proc.stdout


def test_smoke30_round_passes_its_checks():
    _smoke30_round("0")


def test_smoke30_traced_round_passes_its_checks():
    # the traced round wraps package functions by name, so a rename that
    # breaks it shows here
    _smoke30_round("1")
