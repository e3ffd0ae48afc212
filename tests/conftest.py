"""Shared fixtures.

The expensive artifacts (a full default-scale pipeline run, its replay, and
a diffusion-objective training on the same dataset) are built once per
session and shared between the unit tests and the acceptance suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import pytest

from partgen import nn
from partgen.cli import main as cli_main, run_eval_stage
from partgen.prior import TRAIN_SETTINGS, TrainConfig, train
from partgen.taxonomy import Taxonomy, load_default_taxonomy, read_corpus
from partgen.world import DEFAULT_DIM, DEFAULT_WORLD_SEED, WorldSpec, make_dataset

# acceptance criterion registry, printed once at the end of the run
CRITERIA: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    CRITERIA[number] = (bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not CRITERIA:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(CRITERIA):
        ok, detail = CRITERIA[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"CRITERION {number:2d}: {status} - {detail}")


@pytest.fixture(scope="session")
def taxonomy() -> Taxonomy:
    return load_default_taxonomy()


@pytest.fixture(scope="session")
def world(taxonomy) -> WorldSpec:
    return WorldSpec(taxonomy, world_seed=DEFAULT_WORLD_SEED, d=DEFAULT_DIM)


def library_on(path: str, monkeypatch: pytest.MonkeyPatch) -> Iterator[str]:
    """Runs the caller's code on ``path``: "kernel", the library _kernels.c
    compiled by cc (skipped without cc), or "numpy", what a process falls
    back to when cc cannot build it (here every subprocess.run fails as a
    missing cc would)."""
    if path == "numpy":
        def no_compiler(*args, **kwargs):
            raise FileNotFoundError("cc")

        nn._kernels.cache_clear()
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert nn._kernels() is None
        yield path
        nn._kernels.cache_clear()  # the next test builds the library again
    else:
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH as cc")
        assert nn._kernels() is not None
        yield path


@pytest.fixture(params=["kernel", "numpy"])
def kernel_path(request, monkeypatch) -> Iterator[str]:
    """The path a test runs the compiled library's callers (the Adam update,
    the pair sweep's grid) on: "kernel" or "numpy"; see library_on."""
    yield from library_on(request.param, monkeypatch)


@dataclass
class PipelineRun:
    out_dir: Path
    exit_code: int
    elapsed: float
    manifest: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)


def _load_run(out_dir: Path, exit_code: int, elapsed: float) -> PipelineRun:
    run = PipelineRun(out_dir, exit_code, elapsed)
    manifest_path = out_dir / "manifest.json"
    report_path = out_dir / "report.json"
    if manifest_path.exists():
        run.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if report_path.exists():
        run.report = json.loads(report_path.read_text(encoding="utf-8"))
    return run


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory) -> PipelineRun:
    """Default-scale flow pipeline: 10k-pair corpus, 20k training steps,
    200 held-out condition sets."""
    out_dir = tmp_path_factory.mktemp("pipeline_run")
    start = time.monotonic()
    exit_code = cli_main(["pipeline", "run", "--out", str(out_dir)])
    elapsed = time.monotonic() - start
    assert exit_code == 0, "default pipeline run failed"
    return _load_run(out_dir, exit_code, elapsed)


@pytest.fixture(scope="session")
def pipeline_rerun(pipeline_run, tmp_path_factory) -> PipelineRun:
    """Replay of pipeline_run from its manifest. Exit code 0 means every
    artifact digest matched; the acceptance test asserts on it."""
    out_dir = tmp_path_factory.mktemp("pipeline_rerun")
    manifest_path = pipeline_run.out_dir / "manifest.json"
    start = time.monotonic()
    exit_code = cli_main(["pipeline", "rerun", "--manifest", str(manifest_path), "--out", str(out_dir)])
    elapsed = time.monotonic() - start
    return _load_run(out_dir, exit_code, elapsed)


@dataclass
class DiffusionEval:
    train_elapsed: float
    mean_cosine: float


@pytest.fixture(scope="session")
def diffusion_eval(pipeline_run, taxonomy, world, tmp_path_factory) -> DiffusionEval:
    """Diffusion objective trained on the same 10k pairs as the flow run,
    built from its corpus as its train stage built them, with the training
    settings its manifest records, then scored by the eval stage, with the
    flow run's config, on the same held-out condition sets."""
    dataset = make_dataset(read_corpus(pipeline_run.out_dir / "corpus.jsonl"), taxonomy, world)
    recorded = pipeline_run.manifest["config"]
    config = TrainConfig(objective="diffusion_prior", seed=recorded["train_seed"], **{key: recorded[key] for key in TRAIN_SETTINGS})
    start = time.monotonic()
    result = train(config, dataset)
    train_elapsed = time.monotonic() - start

    eval_records = read_corpus(pipeline_run.out_dir / "eval_corpus.jsonl")
    eval_config = {**recorded, "objective": "diffusion"}
    _, metrics = run_eval_stage(result.net, eval_config, eval_records, world, tmp_path_factory.mktemp("diffusion_eval"))
    return DiffusionEval(train_elapsed=train_elapsed, mean_cosine=metrics["mean_cosine"])
