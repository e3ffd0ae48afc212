"""The benchmark's workloads run end to end on the current code.

A workload's set-up and summary run outside the per-op error handling of
perfbench/run.py, so a name they need that the package no longer has ends
the run before its JSON line. Each workload is run briefly here, exactly as
the benchmark runs it, and its last line must report a correct run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train", "pipeline"])
def test_workload_runs_and_reports_a_correct_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout


def test_traced_pipeline_reports_every_boundary_and_stage():
    # the traced run splits a pipeline op into stages at the CLI's
    # boundaries (generate_corpus, read_corpus, train, run_eval_stage)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "missing boundaries" not in proc.stdout, proc.stdout
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    for stage in ("corpus", "dataset", "train", "eval"):
        assert last["metrics"][f"cli.stage.{stage}.s"]["value"] > 0, stage
