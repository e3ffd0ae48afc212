"""Command-line surface: help text, exit codes, config handling."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from partgen.errors import PartgenError
from partgen.cli import (
    PIPELINE_DEFAULTS,
    UsageError,
    build_parser,
    main,
    parse_config_file,
    resolve_pipeline_config,
)
from partgen.nn import _ACTIVATION_TAG, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, DenseNet, save_checkpoint
from partgen.prior import TrainConfig, input_dim, train
from partgen.report import write_report
from partgen.taxonomy import default_taxonomy_path, generate_corpus, read_corpus, write_corpus
from partgen.world import DEFAULT_DIM, make_dataset


def _help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    return capsys.readouterr().out


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        out = _help_text(capsys, ["--help"])
        for name in ("taxonomy", "corpus", "prior", "eval", "pipeline", "report"):
            assert name in out

    def test_corpus_gen_flags_documented(self, capsys):
        out = _help_text(capsys, ["corpus", "gen", "--help"])
        for flag in ("--n", "--seed", "--mix-ratio", "--out", "--taxonomy"):
            assert flag in out

    def test_prior_train_flags_documented(self, capsys):
        out = _help_text(capsys, ["prior", "train", "--help"])
        for flag in ("--objective", "--corpus", "--world-seed", "--steps", "--out", "--lr"):
            assert flag in out

    def test_prior_sample_flags_documented(self, capsys):
        out = _help_text(capsys, ["prior", "sample", "--help"])
        for flag in ("--ckpt", "--prompt-id", "--atoms", "--steps", "--cfg"):
            assert flag in out

    def test_pipeline_flags_documented(self, capsys):
        out = _help_text(capsys, ["pipeline", "run", "--help"])
        assert "--out" in out and "--config" in out and "--set" in out


def _main_under_1_gib(argv: list[str]) -> subprocess.CompletedProcess:
    """``main(argv)`` in a child process whose address space is capped at 1 GiB."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from partgen.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True, timeout=120)


class TestStartUp:
    def test_import_leaves_numpy_random_unloaded(self):
        # the benchmark gates start-up time; the package loads numpy.random
        # on its first seeded draw, never on import
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = "import sys, partgen.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        result = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestExitCodes:
    def test_taxonomy_validate_ok(self, capsys):
        assert main(["taxonomy", "validate", str(default_taxonomy_path())]) == 0
        assert "464 atoms" in capsys.readouterr().out

    def test_taxonomy_validate_invalid_file_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("domain creature\nprefix A creature\npart head: lion\n", encoding="utf-8")
        assert main(["taxonomy", "validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        code = main(["pipeline", "run", "--out", str(tmp_path / "r"), "--set", "bogus=1"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_runtime_failure_is_exit_one(self, tmp_path, capsys):
        code = main(["corpus", "gen", "--n", "5", "--out", str(tmp_path / "c.jsonl"),
                     "--taxonomy", str(tmp_path / "nonexistent.txt")])
        assert code == 2  # missing taxonomy file names the flag
        bad_corpus = main(["prior", "train", "--corpus", str(tmp_path / "absent.jsonl"),
                           "--out", str(tmp_path / "ckpt.bin")])
        assert bad_corpus == 1

    @pytest.mark.parametrize("n, mix_ratio, flag", [("0", "0.5", "--n"), ("5", "1.5", "--mix-ratio")], ids=["n", "mix-ratio"])
    def test_corpus_gen_bad_argument_is_usage_error_without_output(self, tmp_path, capsys, n, mix_ratio, flag):
        out = tmp_path / "x.jsonl"
        assert main(["corpus", "gen", "--n", n, "--mix-ratio", mix_ratio, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("n_eval, mix_ratio, flag", [("0", "0.5", "--n-eval"), ("5", "-0.1", "--mix-ratio")], ids=["n-eval", "mix-ratio"])
    def test_eval_bad_argument_is_usage_error_without_output(self, tmp_path, capsys, n_eval, mix_ratio, flag):
        ckpt = tmp_path / "net.bin"
        save_checkpoint(DenseNet.init([input_dim(DEFAULT_DIM), 8, DEFAULT_DIM], seed=0), ckpt)
        out_dir = tmp_path / "eval"
        argv = ["eval", "--ckpt", str(ckpt), "--n-eval", n_eval, "--mix-ratio", mix_ratio, "--out-dir", str(out_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]
        assert not out_dir.exists()

    def test_truncated_checkpoint_is_runtime_error(self, tmp_path, capsys):
        ckpt = tmp_path / "net.bin"
        save_checkpoint(DenseNet.init([input_dim(DEFAULT_DIM), 8, DEFAULT_DIM], seed=0), ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        assert main(["prior", "sample", "--ckpt", str(ckpt), "--atoms", "head:lion"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "truncated checkpoint" in err[0]

    @pytest.mark.parametrize(
        "sizes", [struct.pack("<3I", 2, 100000, 100000), struct.pack("<I", 1 << 31)], ids=["layers-100000x100000", "n-dims-2^31"]
    )
    def test_oversized_checkpoint_header_is_one_line(self, tmp_path, sizes):
        # a 64-byte file whose header claims gigabytes; the child's address
        # space is capped, so reading what the header claims fails this test
        # instead of exhausting the machine
        ckpt = tmp_path / "net.bin"
        ckpt.write_bytes((CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + _ACTIVATION_TAG + sizes).ljust(64, b"\0"))
        proc = _main_under_1_gib(["prior", "sample", "--ckpt", str(ckpt), "--atoms", "head:lion,body:horse"])
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 1 and len(err) == 1 and "truncated checkpoint" in err[0], proc.stderr

    @pytest.mark.parametrize(
        "argv, first_words",
        [
            (["pipeline", "run", "--set", "batch_size=1000000000000"], "pipeline stage 'train' failed: "),
            (["pipeline", "run", "--set", "dim=2000000"], "pipeline stage 'setup' failed: "),
            (["prior", "train", "--batch-size", "1000000000000"], "error: "),
        ],
        ids=["pipeline-batch-size", "pipeline-dim", "prior-train-batch-size"],
    )
    def test_out_of_memory_request_is_one_line(self, tmp_path, argv, first_words):
        # each request asks numpy for terabytes, which the child's capped
        # address space refuses with a MemoryError
        if argv[0] == "pipeline":
            argv = argv + ["--out", str(tmp_path / "run"), "--set", "n_train=20", "--set", "n_eval=2", "--set", "steps=2"]
        else:
            corpus = tmp_path / "corpus.jsonl"
            assert main(["corpus", "gen", "--n", "20", "--out", str(corpus)]) == 0
            argv = argv + ["--corpus", str(corpus), "--out", str(tmp_path / "net.bin"), "--steps", "2"]
        proc = _main_under_1_gib(argv)
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 1 and len(err) == 1 and err[0].startswith(first_words), proc.stderr
        assert not (tmp_path / "run").exists()  # a failed pipeline run takes back its directory

    @pytest.mark.parametrize("dims", [[], [input_dim(DEFAULT_DIM)]], ids=["n-dims-0", "n-dims-1"])
    def test_checkpoint_with_fewer_than_two_dims_is_one_line(self, tmp_path, capsys, dims):
        ckpt = tmp_path / "net.bin"
        header = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + _ACTIVATION_TAG
        ckpt.write_bytes(header + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + struct.pack("<B", 0))
        out = tmp_path / "s.json"
        assert main(["prior", "sample", "--ckpt", str(ckpt), "--atoms", "head:lion,body:horse", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(ckpt) in err[0] and f"at least 2 layer dims, got {len(dims)}" in err[0], err
        assert not out.exists()

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", "gen", "--does-not-exist", "1"])
        assert excinfo.value.code == 2


class TestConfigResolution:
    def test_defaults_then_file_then_overrides(self, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text("steps = 500\nlabel = filelabel\n# comment\n\n", encoding="utf-8")
        config = resolve_pipeline_config(str(config_file), ["label=cli", "n_train=123"])
        assert config["steps"] == 500
        assert config["label"] == "cli"
        assert config["n_train"] == 123
        assert config["dim"] == PIPELINE_DEFAULTS["dim"]

    def test_types_follow_defaults(self, tmp_path):
        config = resolve_pipeline_config(None, ["lr=0.01", "steps=10"])
        assert isinstance(config["lr"], float) and isinstance(config["steps"], int)

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError, match="unknown config key"):
            resolve_pipeline_config(None, ["not_a_key=1"])

    def test_bad_objective_rejected(self):
        with pytest.raises(UsageError, match="objective"):
            resolve_pipeline_config(None, ["objective=gan"])

    def test_config_file_syntax_error(self, tmp_path):
        config_file = tmp_path / "broken.conf"
        config_file.write_text("steps 500\n", encoding="utf-8")
        with pytest.raises(UsageError, match="key=value"):
            parse_config_file(config_file)

    def test_missing_config_file(self):
        with pytest.raises(UsageError, match="--config"):
            resolve_pipeline_config("/absent.conf", [])

    @pytest.mark.parametrize("objective, steps", [("diffusion", "1000"), ("flow", "1001")])
    def test_sample_steps_within_the_objective_cap_pass(self, objective, steps):
        config = resolve_pipeline_config(None, [f"objective={objective}", f"sample_steps={steps}"])
        assert config["sample_steps"] == int(steps)

    def test_readme_key_table_matches_the_defaults(self):
        # README lists every config key with its default, in PIPELINE_DEFAULTS' order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("with their default and allowed range:\n\n```\n", 1)[1].split("```", 1)[0]
        rows = [line.split()[:2] for line in block.splitlines()]
        assert [key for key, _ in rows] == list(PIPELINE_DEFAULTS)
        assert dict(rows) == {key: str(value) if value != "" else '""' for key, value in PIPELINE_DEFAULTS.items()}


class TestCorpusAndSample:
    def test_prior_train_passes_every_training_key_to_train(self, tmp_path, taxonomy, world):
        # each key set away from its default; a key dropped on the way trains a different net
        corpus = tmp_path / "c.jsonl"
        write_corpus(generate_corpus(taxonomy, 20, master_seed=3), corpus)
        assert main(["prior", "train", "--corpus", str(corpus), "--out", str(tmp_path / "cli.bin"), "--objective", "diffusion",
                     "--steps", "3", "--lr", "0.05", "--batch-size", "5", "--cond-dropout", "0.5", "--train-seed", "9"]) == 0
        config = TrainConfig(objective="diffusion_prior", steps=3, lr=0.05, batch_size=5, cond_dropout=0.5, seed=9)
        save_checkpoint(train(config, make_dataset(read_corpus(corpus), taxonomy, world)).net, tmp_path / "direct.bin")
        assert (tmp_path / "cli.bin").read_bytes() == (tmp_path / "direct.bin").read_bytes()

    def test_corpus_gen_writes_records(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert main(["corpus", "gen", "--n", "12", "--seed", "4", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        assert "wrote 12 records" in capsys.readouterr().out

    def test_prior_sample_requires_exactly_one_source(self, tmp_path, capsys):
        ckpt = tmp_path / "net.bin"
        save_checkpoint(DenseNet.init([input_dim(DEFAULT_DIM), 8, DEFAULT_DIM], seed=0), ckpt)
        assert main(["prior", "sample", "--ckpt", str(ckpt)]) == 2
        assert main([
            "prior", "sample", "--ckpt", str(ckpt),
            "--prompt-id", "0", "--atoms", "head:lion,body:horse",
        ]) == 2

    def test_prior_sample_with_atoms(self, tmp_path, capsys):
        ckpt = tmp_path / "net.bin"
        save_checkpoint(DenseNet.init([input_dim(DEFAULT_DIM), 8, DEFAULT_DIM], seed=0), ckpt)
        code = main([
            "prior", "sample", "--ckpt", str(ckpt),
            "--atoms", "head:lion,body:horse", "--steps", "5",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["prompt_id"] is None
        assert [a["part"] for a in record["atoms"]] == ["head", "body"]
        assert len(record["decoded_atoms"]) == 2
        assert -1.0 <= record["cosine_to_oracle"] <= 1.0

    def test_prior_sample_unknown_atom(self, tmp_path, capsys):
        ckpt = tmp_path / "net.bin"
        save_checkpoint(DenseNet.init([input_dim(DEFAULT_DIM), 8, DEFAULT_DIM], seed=0), ckpt)
        code = main(["prior", "sample", "--ckpt", str(ckpt), "--atoms", "head:zzz"])
        assert code == 2
        assert "no atom" in capsys.readouterr().err


    def test_prior_sample_repeated_part(self, tmp_path, capsys):
        ckpt = tmp_path / "net.bin"
        save_checkpoint(DenseNet.init([input_dim(DEFAULT_DIM), 8, DEFAULT_DIM], seed=0), ckpt)
        code = main(["prior", "sample", "--ckpt", str(ckpt), "--atoms", "head:lion,head:horse"])
        assert code == 2
        assert "more than once" in capsys.readouterr().err


class TestReportCommand:
    def test_flattens_reports(self, tmp_path, capsys):
        paths = []
        for k, score in ((2, 0.9), (3, 0.8)):
            path = tmp_path / f"r{k}.json"
            write_report(path, {
                "metric": "parteval", "model": "m", "complexity": k,
                "per_sample": [], "final_score": score,
            })
            paths.append(str(path))
        out_csv, out_svg = tmp_path / "flat.csv", tmp_path / "flat.svg"
        code = main(["report", *paths, "--out-csv", str(out_csv), "--out-svg", str(out_svg)])
        assert code == 0
        assert out_csv.exists() and out_svg.exists()

    def test_conflicting_metrics_exit_one(self, tmp_path, capsys):
        paths = []
        for name, k in (("parteval", 2), ("fid", 3)):
            path = tmp_path / f"{name}.json"
            write_report(path, {
                "metric": name, "model": "m", "complexity": k,
                "per_sample": [], "final_score": 0.1,
            })
            paths.append(str(path))
        code = main(["report", *paths, "--out-csv", str(tmp_path / "x.csv"),
                     "--out-svg", str(tmp_path / "x.svg")])
        assert code == 1
        assert "metric" in capsys.readouterr().err


TINY_RUN = ["--set", "n_train=50", "--set", "steps=5", "--set", "n_eval=4"]


class TestPipelineRun:
    def test_run_writes_ten_artifacts_and_the_manifest(self, tmp_path):
        # the training pairs are a function of the corpus and the world, so no run writes them a second time
        run = tmp_path / "run"
        assert main(["pipeline", "run", "--out", str(run), *TINY_RUN]) == 0
        artifacts = json.loads((run / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
        assert sorted(artifacts) == ["checkpoint", "corpus", "eval_corpus", "loss_curve", "metrics_chart",
                                     "parteval_2part", "parteval_3part", "parteval_4part", "report", "samples"]
        assert sorted(p.name for p in run.iterdir()) == sorted([entry["path"] for entry in artifacts.values()] + ["manifest.json"])
        assert not (run / "dataset.bin").exists()


def _partial_write_then(exc):
    """A stand-in for a writer that leaves part of its file, then raises exc."""
    def write(*args):
        next(Path(a) for a in args if isinstance(a, (str, Path))).write_text("partial", encoding="utf-8")
        raise exc

    return write


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


class TestFailedStagesLeaveNothing:
    """A stage that fails takes back every file the run wrote, and the run
    directory it made; the exit code and the one-line message are those of
    any failed stage."""

    @pytest.mark.parametrize(
        "stage, target, stand_in",
        [
            ("setup", "_world", _raise(MemoryError("Unable to allocate"))),
            ("corpus", "write_corpus", _partial_write_then(OSError("No space left on device"))),
            ("dataset", "make_dataset", _raise(PartgenError("bad record"))),
            ("train", "train", _raise(MemoryError("Unable to allocate"))),
            ("eval", "parteval_grade_many", _raise(PartgenError("grader failed"))),
            ("manifest", "write_manifest", _partial_write_then(OSError("No space left on device"))),
        ],
        ids=["setup", "corpus", "dataset", "train", "eval", "manifest"],
    )
    def test_pipeline_run(self, tmp_path, capsys, monkeypatch, stage, target, stand_in):
        monkeypatch.setattr(f"partgen.cli.{target}", stand_in)
        before = sorted(tmp_path.rglob("*"))
        assert main(["pipeline", "run", "--out", str(tmp_path / "runs" / "run"), *TINY_RUN]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"pipeline stage {stage!r} failed: "), err
        assert sorted(tmp_path.rglob("*")) == before

    def test_pipeline_run_into_an_existing_directory_keeps_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("partgen.cli.write_report", _partial_write_then(OSError("No space left on device")))
        (tmp_path / "notes.txt").write_text("kept\n", encoding="utf-8")
        before = _tree(tmp_path)
        assert main(["pipeline", "run", "--out", str(tmp_path), *TINY_RUN]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert _tree(tmp_path) == before

    def test_eval(self, tmp_path, capsys, monkeypatch):
        ckpt = _tiny_checkpoint(tmp_path)
        monkeypatch.setattr("partgen.cli.write_report", _partial_write_then(OSError("No space left on device")))
        before = sorted(tmp_path.rglob("*"))
        argv = ["eval", "--ckpt", str(ckpt), "--n-eval", "4", "--sample-steps", "3", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: No space left on device"]
        assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A default-config pipeline run, scaled down; returns its manifest."""
    run = tmp_path_factory.mktemp("tiny_run")
    assert main(["pipeline", "run", "--out", str(run), *TINY_RUN]) == 0
    return json.loads((run / "manifest.json").read_text(encoding="utf-8"))


class TestRerunDivergence:
    def test_manifest_records_the_config_as_given(self, tiny_run):
        # "" is the shipped taxonomy, which resolves in whichever checkout replays the run
        assert tiny_run["config"]["taxonomy"] == ""
        assert tiny_run["config"] == resolve_pipeline_config(None, TINY_RUN[1::2])

    @pytest.mark.parametrize("edit", ["digest", "extra-artifact", "dropped-artifact"])
    def test_rerun_names_what_diverged(self, tmp_path, capsys, tiny_run, edit):
        manifest = json.loads(json.dumps(tiny_run))
        if edit == "digest":
            problem = f"checkpoint: digest mismatch (checkpoint.bin: {manifest['artifacts']['checkpoint']['sha256']} != {'0' * 64})"
            manifest["artifacts"]["checkpoint"]["sha256"] = "0" * 64
        elif edit == "extra-artifact":
            problem = "ghost: missing file ghost.bin"
            manifest["artifacts"]["ghost"] = {"path": "ghost.bin", "sha256": "0" * 64}
        else:
            problem = "loss_curve: not in the recorded manifest"
            del manifest["artifacts"]["loss_curve"]
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["pipeline", "rerun", "--manifest", str(manifest_path), "--out", str(tmp_path / "rerun")]) == 1
        assert capsys.readouterr().err.splitlines() == ["rerun diverged from the manifest:", f"  {problem}"]

    def test_rerun_from_a_moved_checkout(self, tmp_path):
        # record a run with the package at A, move A to B, and replay it from B
        checkout_a, checkout_b = tmp_path / "A", tmp_path / "B"
        shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "partgen", checkout_a / "partgen",
                        ignore=shutil.ignore_patterns("__pycache__"))

        def partgen(checkout, *argv):
            env = dict(os.environ, PYTHONPATH=str(checkout), OPENBLAS_NUM_THREADS="1")
            return subprocess.run([sys.executable, "-m", "partgen.cli", *argv], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=300)

        run = partgen(checkout_a, "pipeline", "run", "--out", str(tmp_path / "run"), *TINY_RUN)
        assert run.returncode == 0, run.stderr
        shutil.move(checkout_a, checkout_b)
        rerun = partgen(checkout_b, "pipeline", "rerun", "--manifest", str(tmp_path / "run" / "manifest.json"),
                        "--out", str(tmp_path / "rerun"))
        assert rerun.returncode == 0 and "rerun verified: all 10 artifact digests match" in rerun.stdout, rerun.stderr

    @pytest.mark.parametrize("spelling", ["as-given", "dot-dot"])
    def test_rerun_into_the_recorded_directory_is_refused(self, tmp_path, capsys, spelling):
        run = tmp_path / "run"
        assert main(["pipeline", "run", "--out", str(run), *TINY_RUN]) == 0
        for path in run.iterdir():
            os.utime(path, ns=(10**18, 10**18))  # a rewrite within the same second still shows
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in run.iterdir()}
        out = run if spelling == "as-given" else tmp_path / "elsewhere" / ".." / "run"
        capsys.readouterr()
        assert main(["pipeline", "rerun", "--manifest", str(run / "manifest.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: --out is the directory of --manifest"), err
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in run.iterdir()} == before


def _tiny_checkpoint(tmp_path):
    ckpt = tmp_path / "net.bin"
    save_checkpoint(DenseNet.init([input_dim(DEFAULT_DIM), 8, DEFAULT_DIM], seed=0), ckpt)
    return ckpt


def _tree(root):
    """Every path under ``root``, with a file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


# (id, argv, exit code, text the one stderr line must hold). {tmp} is the
# test's directory, {out} a path in it that must not exist afterwards, and
# {ckpt}, {conf}, {taxonomy}, {manifest_*}, {report*} and {corpus*} are
# inputs the test writes there first, which must not change.
MALFORMED = [
    ("run-n-eval-0", ["pipeline", "run", "--out", "{out}", "--set", "n_eval=0"], 2, "n_eval"),
    ("run-n-eval-1", ["pipeline", "run", "--out", "{out}", "--set", "n_eval=1"], 2, "n_eval"),
    ("run-steps-abc", ["pipeline", "run", "--out", "{out}", "--set", "steps=abc"], 2, "steps"),
    ("run-lr-negative", ["pipeline", "run", "--out", "{out}", "--set", "lr=-1"], 2, "lr"),
    ("run-lr-inf", ["pipeline", "run", "--out", "{out}", "--set", "lr=inf"], 2, "lr"),
    ("run-train-seed-negative", ["pipeline", "run", "--out", "{out}", "--set", "train_seed=-1"], 2, "train_seed"),
    ("run-set-without-value", ["pipeline", "run", "--out", "{out}", "--set", "steps"], 2, "--set"),
    ("run-config-dim-1", ["pipeline", "run", "--out", "{out}", "--config", "{conf}"], 2, "dim"),
    # a missing taxonomy is named as the caller gave it: by the subcommand's flag, or by the config key
    ("corpus-gen-taxonomy-missing", ["corpus", "gen", "--taxonomy", "{tmp}/absent.txt", "--n", "5", "--out", "{out}"], 2,
     "usage error: --taxonomy: file not found: "),
    ("run-set-taxonomy-missing", ["pipeline", "run", "--out", "{out}", "--set", "taxonomy={tmp}/absent.txt"], 2,
     "usage error: taxonomy: file not found: "),
    ("rerun-taxonomy-missing", ["pipeline", "rerun", "--manifest", "{manifest_taxonomy_missing}", "--out", "{out}"], 2,
     "usage error: taxonomy: file not found: "),
    ("run-diffusion-sample-steps-1001", ["pipeline", "run", "--out", "{out}", "--set", "objective=diffusion",
                                        "--set", "sample_steps=1001"], 2, "sample_steps must be <= 1000 for diffusion, got 1001"),
    ("rerun-lacks-taxonomy", ["pipeline", "rerun", "--manifest", "{manifest_lacks_taxonomy}", "--out", "{out}"], 2, "taxonomy"),
    ("rerun-steps-0", ["pipeline", "rerun", "--manifest", "{manifest_steps_0}", "--out", "{out}"], 2, "steps"),
    ("rerun-config-list", ["pipeline", "rerun", "--manifest", "{manifest_config_list}", "--out", "{out}"], 1, "'config'"),
    ("verify-artifacts-list", ["pipeline", "verify", "--manifest", "{manifest_artifacts_list}"], 1, "'artifacts'"),
    # artifact paths that leave the run directory, though the file they name exists and matches its digest
    ("verify-artifact-absolute", ["pipeline", "verify", "--manifest", "{manifest_artifact_absolute}"], 1,
     "leaves the run directory"),
    ("verify-artifact-dotdot", ["pipeline", "verify", "--manifest", "{manifest_artifact_dotdot}"], 1,
     "path 'a_dir/../outside.txt' leaves the run directory"),
    ("rerun-artifact-dotdot", ["pipeline", "rerun", "--manifest", "{manifest_artifact_dotdot}", "--out", "{out}"], 1,
     "path 'a_dir/../outside.txt' leaves the run directory"),
    ("verify-missing-manifest", ["pipeline", "verify", "--manifest", "{tmp}/absent.json"], 1, "absent.json"),
    ("report-missing-file", ["report", "{tmp}/absent.json", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "absent.json"),
    ("taxonomy-validate-missing-file", ["taxonomy", "validate", "{tmp}/absent.txt"], 1, "absent.txt"),
    ("corpus-gen-n-0", ["corpus", "gen", "--n", "0", "--out", "{out}"], 2, "--n"),
    ("corpus-gen-seed-not-int", ["corpus", "gen", "--n", "5", "--seed", "1.5", "--out", "{out}"], 2, "--seed"),
    ("prior-train-batch-size-0", ["prior", "train", "--corpus", "{tmp}/c.jsonl", "--out", "{out}", "--batch-size", "0"], 2, "--batch-size"),
    ("prior-train-cond-dropout-1", ["prior", "train", "--corpus", "{tmp}/c.jsonl", "--out", "{out}", "--cond-dropout", "1"], 2, "--cond-dropout"),
    ("prior-train-objective", ["prior", "train", "--corpus", "{tmp}/c.jsonl", "--out", "{out}", "--objective", "gan"], 2, "--objective"),
    ("prior-sample-steps-0", ["prior", "sample", "--ckpt", "{ckpt}", "--atoms", "head:lion,body:horse", "--steps", "0", "--out", "{out}"], 2, "--steps"),
    ("prior-sample-diffusion-steps-1001", ["prior", "sample", "--ckpt", "{ckpt}", "--atoms", "head:lion,body:horse",
                                          "--objective", "diffusion", "--steps", "1001", "--out", "{out}"], 2,
     "--steps must be <= 1000 for diffusion, got 1001"),
    ("prior-sample-atoms-one", ["prior", "sample", "--ckpt", "{ckpt}", "--atoms", "head:lion", "--out", "{out}"], 2, "--atoms"),
    ("prior-sample-atoms-five", ["prior", "sample", "--ckpt", "{ckpt}", "--atoms",
                                "head:lion,body:horse,tail:fox,wings:eagle,legs:camel", "--out", "{out}"], 2, "--atoms"),
    ("prior-sample-no-selector-missing-ckpt", ["prior", "sample", "--ckpt", "{tmp}/absent.bin", "--out", "{out}"], 2,
     "exactly one of --prompt-id or --atoms"),
    # an output that would overwrite an input or another output
    ("prior-train-same-output", ["prior", "train", "--corpus", "{corpus}", "--out", "{ckpt}", "--loss-csv", "{tmp}/a_dir/../net.bin",
                                 "--steps", "1"], 2, "--out and --loss-csv name the same file"),
    ("prior-sample-same-output", ["prior", "sample", "--ckpt", "{ckpt}", "--atoms", "head:lion,body:horse", "--steps", "2",
                                  "--out", "{tmp}/a_dir/../net.bin"], 2, "--ckpt and --out name the same file"),
    # an output that names an input, through a path that only resolve() matches
    ("corpus-gen-taxonomy-is-out", ["corpus", "gen", "--taxonomy", "{taxonomy}", "--n", "3", "--out", "{tmp}/a_dir/../tax.txt"], 2,
     "--taxonomy and --out name the same file"),
    ("prior-train-corpus-is-out", ["prior", "train", "--corpus", "{corpus}", "--out", "{tmp}/a_dir/../corpus.jsonl", "--steps", "1"],
     2, "--corpus and --out name the same file"),
    ("prior-train-corpus-is-loss-csv", ["prior", "train", "--corpus", "{corpus}", "--out", "{out}",
                                        "--loss-csv", "{tmp}/a_dir/../corpus.jsonl", "--steps", "1"], 2,
     "--corpus and --loss-csv name the same file"),
    ("prior-train-taxonomy-is-out", ["prior", "train", "--corpus", "{corpus}", "--taxonomy", "{taxonomy}",
                                     "--out", "{tmp}/a_dir/../tax.txt", "--steps", "1"], 2, "--taxonomy and --out name the same file"),
    ("prior-train-taxonomy-is-loss-csv", ["prior", "train", "--corpus", "{corpus}", "--taxonomy", "{taxonomy}", "--out", "{out}",
                                          "--loss-csv", "{tmp}/a_dir/../tax.txt", "--steps", "1"], 2,
     "--taxonomy and --loss-csv name the same file"),
    ("prior-sample-corpus-is-out", ["prior", "sample", "--ckpt", "{ckpt}", "--corpus", "{corpus}", "--prompt-id", "0", "--steps", "2",
                                    "--out", "{tmp}/a_dir/../corpus.jsonl"], 2, "--corpus and --out name the same file"),
    ("prior-sample-taxonomy-is-out", ["prior", "sample", "--ckpt", "{ckpt}", "--taxonomy", "{taxonomy}", "--atoms", "head:lion,body:horse",
                                      "--steps", "2", "--out", "{tmp}/a_dir/../tax.txt"], 2, "--taxonomy and --out name the same file"),
    ("prior-sample-cfg-nan", ["prior", "sample", "--ckpt", "{ckpt}", "--atoms", "head:lion,body:horse", "--cfg", "nan", "--out", "{out}"], 2, "--cfg"),
    ("eval-kid-subsets-1", ["eval", "--ckpt", "{ckpt}", "--out-dir", "{out}", "--kid-subsets", "1"], 2, "--kid-subsets"),
    ("eval-sample-steps-0", ["eval", "--ckpt", "{ckpt}", "--out-dir", "{out}", "--sample-steps", "0"], 2, "--sample-steps"),
    ("eval-n-eval-1", ["eval", "--ckpt", "{ckpt}", "--out-dir", "{out}", "--n-eval", "1"], 2, "--n-eval"),
    ("eval-dim-1", ["eval", "--ckpt", "{ckpt}", "--out-dir", "{out}", "--dim", "1"], 2, "--dim"),
    # corpus records that only make_dataset used to refuse, without naming the file, line or record
    ("prior-train-corpus-one-atom", ["prior", "train", "--corpus", "{corpus_one_atom}", "--out", "{out}", "--steps", "1"],
     1, "corpus_one_atom.jsonl:2: bad corpus record: a record holds 2-4 atoms, got 1"),
    ("prior-train-corpus-five-atoms", ["prior", "train", "--corpus", "{corpus_five_atoms}", "--out", "{out}", "--steps", "1"],
     1, "corpus_five_atoms.jsonl:2: bad corpus record: a record holds 2-4 atoms, got 5"),
    ("prior-train-corpus-unknown-atom", ["prior", "train", "--corpus", "{corpus_unknown_atom}", "--out", "{out}", "--steps", "1"],
     1, "record 1: atom ("),
    # outputs that cannot be written
    ("corpus-gen-out-missing-dir", ["corpus", "gen", "--n", "5", "--out", "{tmp}/absent/x.jsonl"], 1, "absent/x.jsonl"),
    ("prior-train-out-missing-dir", ["prior", "train", "--corpus", "{corpus}", "--out", "{tmp}/absent/ck.bin", "--steps", "1"],
     1, "absent/ck.bin"),
    ("prior-sample-out-missing-dir", ["prior", "sample", "--ckpt", "{ckpt}", "--atoms", "head:lion,body:horse", "--steps", "2",
                                     "--out", "{tmp}/absent/s.json"], 1, "absent/s.json"),
    ("eval-out-dir-is-file", ["eval", "--ckpt", "{ckpt}", "--out-dir", "{ckpt}", "--n-eval", "4", "--sample-steps", "2"], 1, "net.bin"),
    ("report-out-csv-missing-dir", ["report", "{report}", "--out-csv", "{tmp}/absent/r.csv", "--out-svg", "{out}"], 1, "absent/r.csv"),
    ("verify-artifact-is-dir", ["pipeline", "verify", "--manifest", "{manifest_artifact_dir}"], 1, "a_dir"),
    # reports whose fields are not what they claim
    ("report-complexity-text", ["report", "{report_complexity_text}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "'two'"),
    ("report-score-text", ["report", "{report_score_text}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "'high'"),
    ("report-not-object", ["report", "{report_string}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "JSON object"),
    ("report-metric-list", ["report", "{report_metric_list}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1,
     "metric must be a string"),
    ("report-complexity-fraction", ["report", "{report_complexity_fraction}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "2.5"),
    ("report-complexity-bool", ["report", "{report_complexity_bool}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "True"),
    ("report-score-nan", ["report", "{report_score_nan}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "nan"),
    ("report-score-bool", ["report", "{report_score_bool}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "True"),
    ("report-out-svg-missing-dir", ["report", "{report}", "--out-csv", "{tmp}/r.csv", "--out-svg", "{tmp}/absent/r.svg"], 1,
     "absent/r.svg"),
    ("report-same-output", ["report", "{report}", "--out-csv", "{tmp}/r.out", "--out-svg", "{tmp}/./r.out"], 2, "same file"),
    ("report-input-is-out-csv", ["report", "{report}", "--out-csv", "{tmp}/a_dir/../report.json", "--out-svg", "{out}.svg"], 2,
     "reports and --out-csv name the same file"),
    ("report-input-is-out-svg", ["report", "{report_score_huge}", "{report}", "--out-csv", "{out}",
                                 "--out-svg", "{tmp}/a_dir/../report.json"], 2, "reports and --out-svg name the same file"),
    ("report-repeated-point", ["report", "{report}", "{report}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1,
     "model 'prior' at complexity 2"),
    ("report-model-list", ["report", "{report_model_list}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "['x']"),
    ("report-complexity-negative", ["report", "{report_complexity_negative}", "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1,
     "got -3"),
    ("report-score-spread-overflow", ["report", "{report_score_huge}", "{report_score_huge_negative}",
                                      "--out-csv", "{out}", "--out-svg", "{out}.svg"], 1, "span more than a float holds"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("argv, code, text", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
    def test_one_line_and_no_output(self, tmp_path, capsys, taxonomy, argv, code, text):
        conf = tmp_path / "run.conf"
        conf.write_text("dim = 1\n", encoding="utf-8")
        (tmp_path / "a_dir").mkdir()
        outside = tmp_path / "outside.txt"
        outside.write_text("outside the run directory\n", encoding="utf-8")
        outside_sha256 = hashlib.sha256(outside.read_bytes()).hexdigest()
        paths = {"tmp": str(tmp_path), "out": str(tmp_path / "out"), "ckpt": str(_tiny_checkpoint(tmp_path)), "conf": str(conf),
                 "taxonomy": str(shutil.copy(default_taxonomy_path(), tmp_path / "tax.txt"))}
        manifests = {
            "lacks_taxonomy": {"config": {k: v for k, v in PIPELINE_DEFAULTS.items() if k != "taxonomy"}},
            "taxonomy_missing": {"config": {**PIPELINE_DEFAULTS, "taxonomy": str(tmp_path / "absent.txt")}},
            "steps_0": {"config": {**PIPELINE_DEFAULTS, "steps": 0}},
            "artifacts_list": {"artifacts": []},
            "config_list": {"config": [1]},
            "artifact_dir": {"artifacts": {"samples": {"path": "a_dir", "sha256": "0" * 64}}},
            "artifact_absolute": {"artifacts": {"samples": {"path": str(outside), "sha256": outside_sha256}}},
            "artifact_dotdot": {"artifacts": {"samples": {"path": "a_dir/../outside.txt", "sha256": outside_sha256}}},
        }
        report = {"metric": "parteval", "model": "prior", "complexity": 2, "per_sample": [], "final_score": 0.5}
        json_inputs = {
            **{f"manifest_{name}": {"version": "0", "config": PIPELINE_DEFAULTS, "seeds": {}, "artifacts": {}, **fields}
               for name, fields in manifests.items()},
            "report": report,
            "report_complexity_text": {**report, "complexity": "two"},
            "report_score_text": {**report, "final_score": "high"},
            "report_string": "metric per_sample final_score",
            "report_metric_list": {**report, "metric": ["parteval"]},
            "report_complexity_fraction": {**report, "complexity": 2.5},
            "report_complexity_bool": {**report, "complexity": True},
            "report_score_nan": {**report, "final_score": float("nan")},
            "report_score_bool": {**report, "final_score": True},
            "report_model_list": {**report, "model": ["x"]},
            "report_complexity_negative": {**report, "complexity": -3},
            "report_score_huge": {**report, "model": "a", "final_score": 1.7e308},
            "report_score_huge_negative": {**report, "model": "b", "final_score": -1.7e308},
        }
        for name, body in json_inputs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(body), encoding="utf-8")
        records = [r.to_dict() for r in generate_corpus(taxonomy, 3, master_seed=0)]
        atoms = [a for r in records for a in r["atoms"]]
        ghost = {**records[1]["atoms"][0], "subject": "unicorn"}
        corpora = {
            "corpus": records,
            "corpus_one_atom": [records[0], {**records[1], "atoms": atoms[:1]}],
            "corpus_five_atoms": [records[0], {**records[1], "atoms": atoms[:5]}],
            "corpus_unknown_atom": [records[0], {**records[1], "atoms": [ghost, *records[1]["atoms"][1:]]}],
        }
        for name, lines in corpora.items():
            paths[name] = str(tmp_path / f"{name}.jsonl")
            (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
        before = _tree(tmp_path)
        assert main([arg.format(**paths) for arg in argv]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and text in err[0], err
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "run", "--config", "{bad}", "--out", "{out}"],
            ["pipeline", "verify", "--manifest", "{bad}"],
            ["pipeline", "rerun", "--manifest", "{bad}", "--out", "{out}"],
            ["report", "{bad}", "--out-csv", "{out}", "--out-svg", "{out}.svg"],
            ["taxonomy", "validate", "{bad}"],
            ["corpus", "gen", "--taxonomy", "{bad}", "--n", "5", "--out", "{out}"],
            ["prior", "train", "--corpus", "{bad}", "--out", "{out}", "--steps", "1"],
            ["prior", "sample", "--ckpt", "{ckpt}", "--corpus", "{bad}", "--prompt-id", "0", "--out", "{out}"],
        ],
        ids=["run-config", "verify-manifest", "rerun-manifest", "report", "taxonomy-validate", "corpus-gen-taxonomy",
             "prior-train-corpus", "prior-sample-corpus"],
    )
    def test_non_utf8_text_is_one_line(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff")
        paths = {"bad": str(bad), "out": str(tmp_path / "out"), "ckpt": str(_tiny_checkpoint(tmp_path))}
        before = sorted(tmp_path.rglob("*"))
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{bad}: not UTF-8 text: byte 0xff at offset 0" in err[0], err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["prior-sample", "eval"])
    def test_non_finite_samples_are_refused(self, tmp_path, capsys, command):
        ckpt, out = str(_tiny_checkpoint(tmp_path)), tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--ckpt", ckpt, "--n-eval", "4", "--sample-steps", "3", "--cfg", "1e308", "--out-dir", str(out)]
        else:
            argv = ["prior", "sample", "--ckpt", ckpt, "--atoms", "head:lion,body:horse", "--cfg", "1e308", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "non-finite" in err[0]
        assert not out.exists() and "NaN" not in captured.out


class TestFlagDefaults:
    @pytest.mark.parametrize("argv, keys", [
        (["corpus", "gen", "--n", "5", "--out", "x"], {"taxonomy", "master_seed", "mix_ratio"}),
        (["prior", "train", "--corpus", "c", "--out", "x"],
         {"objective", "taxonomy", "world_seed", "dim", "steps", "lr", "batch_size", "cond_dropout", "train_seed"}),
        (["prior", "sample", "--ckpt", "x"],
         {"objective", "taxonomy", "world_seed", "dim", "sample_steps", "cfg_scale", "sample_seed"}),
        (["eval", "--ckpt", "x", "--out-dir", "x"],
         {"objective", "taxonomy", "world_seed", "dim", "eval_seed", "n_eval", "mix_ratio", "sample_steps",
          "cfg_scale", "sample_seed", "kid_subsets", "label"}),
    ], ids=["corpus-gen", "prior-train", "prior-sample", "eval"])
    def test_every_flag_default_is_the_pipeline_default(self, argv, keys):
        parsed = vars(build_parser().parse_args(argv))
        assert {key: parsed.get(key) for key in keys} == {key: PIPELINE_DEFAULTS[key] for key in keys}
