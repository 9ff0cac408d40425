"""Smoke test of a traced benchmark run.

``bench/layers.install`` wraps functions of the package by name, so a
rename in ``src/fpemu`` can break ``bench/run.py --trace 1`` without any
other test noticing.  This runs one short traced ``train_sweep`` and one
short traced ``dot_verify`` on a copy of the checkout, so the runs'
records go to the copy's ``bench/out``.  ``dot_verify`` also reaches the
five ``fpemu._dyadic`` functions that its check looks up by name.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train_sweep", "dot_verify"])
def test_traced_bench_run_reports_every_per_layer_metric(tmp_path, workload):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["failed"] == 0, proc.stderr
    if workload == "dot_verify":
        # every output is checked against the Fraction oracle, on any seed;
        # train_sweep's convergence check depends on the seed
        assert record["correct"], proc.stdout
    declared = json.loads((tmp_path / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    assert not missing
