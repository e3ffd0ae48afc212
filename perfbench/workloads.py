"""The benchmark's two closed-loop workloads.

One client in one process issues the next op only after the previous one
has finished. Every op's output is checked; a failed check or an exception
counts the op as failed. Functions are reached through their modules at call
time (``prior.train``, not a name bound at import), so the traced run's
wrappers see the calls this file makes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from partgen import cli, nn, prior, taxonomy, world
from partgen.manifest import load_manifest
from partgen.report import load_report

# Ops are kept short (about 2 to 5 s on 2 cores) so that a run interleaves
# many of them with passes of the reference kernel (see run.py), and set-up
# stays short enough that 48 runs of 45 s over the two workloads fit in
# under an hour.
PIPELINE_SETTINGS = {"n_train": 2000, "steps": 100, "n_eval": 20}
TRAIN_RECORDS = 2000
TRAIN_STEPS = 120
# Where an op's cost depends on its inputs (pipeline), op i takes its seeds
# from draw i % draws, so every run averages the cost of several draws and
# one unlucky draw cannot set a run's figure. Each op's output is compared
# with the first op of its draw; a run has at least draws + 1 ops.
DRAW_STRIDE = 1_000_000
QUALITY_UNITS = {"compositional_accuracy": "fraction", "mean_cosine": "cosine", "fid_to_oracle": "fid"}


def derive_seeds(seed: int, draw: int = 0) -> dict[str, int]:
    """Named seeds from the benchmark seed and a draw; seed 0, draw 0 gives
    PIPELINE_DEFAULTS."""
    defaults = cli.PIPELINE_DEFAULTS
    offset = seed + DRAW_STRIDE * draw
    return {name: int(defaults[name]) + offset for name in ("master_seed", "eval_seed", "train_seed", "sample_seed")}


def _dataset(master_seed: int) -> list:
    """The training dataset of TRAIN_RECORDS corpus records."""
    tax = taxonomy.load_default_taxonomy()
    records = list(taxonomy.generate_corpus(tax, TRAIN_RECORDS, master_seed))
    return world.make_dataset(records, tax, world.WorldSpec(tax))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """partgen's CLI entry point in this process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _quality(report_path: Path) -> dict[str, float]:
    metrics = load_report(report_path)["metrics"]
    values = {key: float(metrics[key]) for key in QUALITY_UNITS}
    bad = [key for key, value in values.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"report.json has non-finite {', '.join(bad)}")
    return values


class OpFailed(Exception):
    """An op's output did not pass its check."""


class Pipeline:
    """``pipeline run`` at default settings apart from PIPELINE_SETTINGS,
    then ``pipeline verify`` on its manifest."""

    setup_reps = 9
    draws = 3

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.digests: dict[int, dict] = {}
        self.quality: dict[str, float] = {}

    def setup(self, rep: int) -> None:
        # Set-up is the CLI's own start-up: interpreter plus imports.
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        subprocess.run([sys.executable, "-m", "partgen.cli", "--version"], env=env, check=True, capture_output=True)

    def op(self, i: int) -> None:
        out = self.work / f"run{i}"
        draw = i % self.draws
        argv = ["pipeline", "run", "--out", str(out)]
        for key, value in {**PIPELINE_SETTINGS, **derive_seeds(self.seed, draw)}.items():
            argv += ["--set", f"{key}={value}"]
        code, err = _run_cli(argv)
        if code != 0:
            raise OpFailed(f"pipeline run exited {code}: {err}")
        code, err = _run_cli(["pipeline", "verify", "--manifest", str(out / "manifest.json")])
        if code != 0:
            raise OpFailed(f"pipeline verify exited {code}: {err}")
        digests = {name: entry["sha256"] for name, entry in load_manifest(out / "manifest.json")["artifacts"].items()}
        quality = _quality(out / "report.json")
        if i == 0:
            self.quality = quality
        first = self.digests.setdefault(draw, digests)
        if digests != first:
            changed = sorted(name for name in set(digests) | set(first) if digests.get(name) != first.get(name))
            raise OpFailed(f"artifact digests differ from the first op of draw {draw}: {', '.join(changed)}")

    def summary(self, walls: list[float]) -> list[tuple[str, float, str]]:
        return [(name, value, QUALITY_UNITS[name]) for name, value in self.quality.items()]


class Train:
    """Flow then diffusion training on one dataset, each net round-tripped
    through save_checkpoint/load_checkpoint."""

    setup_reps = 3
    draws = 1  # the cost of training does not depend on the seeds

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seeds = derive_seeds(seed)
        self.dataset = None
        self.train_s = 0.0
        self.train_steps = 0
        self.final_loss: dict[str, float] = {}

    def setup(self, rep: int) -> None:
        self.dataset = _dataset(self.seeds["master_seed"])

    def op(self, i: int) -> None:
        for objective in prior.OBJECTIVES:
            config = prior.TrainConfig(objective=objective, steps=TRAIN_STEPS, seed=self.seeds["train_seed"])
            t0 = time.perf_counter()
            result = prior.train(config, self.dataset)
            self.train_s += time.perf_counter() - t0
            self.train_steps += TRAIN_STEPS
            losses = np.asarray(result.losses)
            if losses.size != TRAIN_STEPS or not np.all(np.isfinite(losses)):
                raise OpFailed(f"{objective}: expected {TRAIN_STEPS} finite losses")
            final = float(losses[-100:].mean())
            if not final < losses[0]:
                raise OpFailed(f"{objective}: final loss {final:.6g} is not below the step-1 loss {losses[0]:.6g}")
            self.final_loss.setdefault(objective, final)
            path = self.work / f"op{i}-{objective}.bin"
            nn.save_checkpoint(result.net, path, result.adam)
            net, adam = nn.load_checkpoint(path)
            path.unlink()
            if not _same_checkpoint(result.net, result.adam, net, adam):
                raise OpFailed(f"{objective}: checkpoint round-trip is not bitwise equal")

    def summary(self, walls: list[float]) -> list[tuple[str, float, str]]:
        short = {objective: alias for alias, objective in cli.OBJECTIVE_ALIASES.items()}
        rows = [("train_steps_per_s", self.train_steps / self.train_s, "steps/s")] if self.train_s else []
        return rows + [(f"final_loss.{short[objective]}", loss, "mse") for objective, loss in self.final_loss.items()]


def _same_checkpoint(net, adam, net2, adam2) -> bool:
    if adam2 is None:
        return False
    pairs = list(zip(net.weights + net.biases, net2.weights + net2.biases))
    groups = ("m_weights", "v_weights", "m_biases", "v_biases")
    pairs += [(a, b) for g in groups for a, b in zip(getattr(adam, g), getattr(adam2, g))]
    return (
        net.layer_dims == net2.layer_dims
        and adam.step == adam2.step
        and all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)
    )


WORKLOADS = {"pipeline": Pipeline, "train": Train}
