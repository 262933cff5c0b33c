"""The traced benchmark pass (perfbench/trace.py) runs against the program as it
stands: it calls the layers' public functions directly, so a change to one of
their call shapes shows here rather than only when the benchmark runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from modaudit.cli import run

from .test_cli import SCENARIO, split_dump, write_scenario

ROOT = Path(__file__).resolve().parent.parent


def test_trace_crosscheck_workload_reports_replication_layers(tmp_path):
    inputs = tmp_path / "inputs"
    assert run(["synth", "--scenario", str(write_scenario(tmp_path, SCENARIO)), "--out", str(inputs)]) == 0
    split_dump(inputs / "dump", 2)  # two files, so the parallel layer forks a child
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "trace.py"),
            "--workload",
            "crosscheck-claims",
            "--inputs",
            str(inputs),
            "--out",
            str(tmp_path / "runs"),
            "--spans",
            str(tmp_path / "spans.json"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    for name in ("aggregate.replicate_s", "crosscheck.check_s", "parallel.replicate_s"):
        assert name in metrics
    assert metrics["ingest.rows"] == 150
