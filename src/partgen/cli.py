"""Command-line entry point.

One binary, six subcommands: taxonomy validation, corpus generation, prior
training and sampling, standalone evaluation, the end-to-end pipeline, and
report flattening. Every run's randomness flows from named 64-bit seeds
that are recorded, together with SHA-256 digests of every artifact file,
in a run manifest that later reruns can verify byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PartgenError
from .hashing import combine_seed
from .manifest import build_manifest, load_manifest, sha256_file, verify_artifacts, write_manifest
from .metrics import compositional_accuracy, compositional_accuracy_by_k, fid, gaussian_stats, kid
from .nn import load_checkpoint, save_checkpoint
from .parteval import OracleGrader, parteval_extract, parteval_grade_many, parteval_questions, parteval_score
from .prior import (
    TrainConfig,
    sample_diffusion_batch,
    sample_flow_batch,
    train,
    write_loss_csv,
)
from .report import complexity_report, load_report, svg_bar_chart, write_report
from .taxonomy import (
    HybridPrompt,
    SemanticAtom,
    Taxonomy,
    default_taxonomy_path,
    enumerate_atoms,
    generate_corpus,
    load_taxonomy,
    read_corpus,
    write_corpus,
)
from .world import (
    DEFAULT_DIM,
    DEFAULT_WORLD_SEED,
    WorldSpec,
    compose_target,
    condition_set,
    decode_parts,
    make_dataset,
    save_dataset,
)

OBJECTIVE_ALIASES = {"flow": "rectified_flow", "diffusion": "diffusion_prior"}

PIPELINE_DEFAULTS: dict[str, object] = {
    "taxonomy": "",  # empty string means the shipped default file
    "n_train": 10000,
    "n_eval": 200,
    "master_seed": 0,
    "eval_seed": 1000003,
    "mix_ratio": 0.5,
    "world_seed": DEFAULT_WORLD_SEED,
    "dim": DEFAULT_DIM,
    "objective": "flow",
    "steps": 20000,
    "lr": 1e-3,
    "batch_size": 64,
    "cond_dropout": 0.1,
    "train_seed": 42,
    "sample_steps": 50,
    "cfg_scale": 1.0,
    "sample_seed": 7,
    "kid_subsets": 10,
    "label": "prior",
}


class UsageError(Exception):
    """Raised for bad invocations; mapped to exit code 2."""


def _resolve_taxonomy(path_str: str) -> tuple[Taxonomy, Path]:
    path = Path(path_str) if path_str else default_taxonomy_path()
    if not path.exists():
        raise UsageError(f"--taxonomy: file not found: {path}")
    return load_taxonomy(path), path


def _coerce(key: str, raw: str) -> object:
    default = PIPELINE_DEFAULTS[key]
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def parse_config_file(path: Path) -> dict[str, str]:
    """key=value lines; '#' comments and blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_pipeline_config(config_path: str | None, overrides: list[str]) -> dict:
    """defaults < config file < --set overrides; unknown keys rejected."""
    merged = dict(PIPELINE_DEFAULTS)
    sources: list[tuple[str, str]] = []
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise UsageError(f"--config: file not found: {path}")
        sources.extend(parse_config_file(path).items())
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        sources.append((key.strip(), value.strip()))
    for key, value in sources:
        if key not in PIPELINE_DEFAULTS:
            raise UsageError(f"unknown config key {key!r} (known: {', '.join(sorted(PIPELINE_DEFAULTS))})")
        merged[key] = _coerce(key, value)
    if merged["objective"] not in OBJECTIVE_ALIASES:
        raise UsageError(f"objective must be one of {sorted(OBJECTIVE_ALIASES)}, got {merged['objective']!r}")
    return merged


def _parse_atom_spec(spec: str, taxonomy: Taxonomy) -> list[SemanticAtom]:
    """'head:lion,body:horse' -> atoms; the (part, subject) pair is unique
    within a taxonomy, so the domain is inferred."""
    by_pair = {(a.part, a.subject): a for a in enumerate_atoms(taxonomy)}
    atoms = []
    for chunk in spec.split(","):
        part, sep, subject = chunk.strip().partition(":")
        if not sep:
            raise UsageError(f"--atoms: expected part:subject, got {chunk.strip()!r}")
        atom = by_pair.get((part.strip(), subject.strip()))
        if atom is None:
            raise UsageError(f"--atoms: no atom ({part.strip()}, {subject.strip()}) in the taxonomy")
        if any(a.part == atom.part for a in atoms):
            raise UsageError(f"--atoms: part {atom.part!r} appears more than once")
        atoms.append(atom)
    return atoms


def _sample_batch(objective: str, net, conds, d: int, sample_steps: int, cfg_scale: float, seed: int) -> np.ndarray:
    if objective == "rectified_flow":
        return sample_flow_batch(net, conds, d, n_steps=sample_steps, cfg_scale=cfg_scale, seed=seed)
    return sample_diffusion_batch(net, conds, d, n_steps=sample_steps, cfg_scale=cfg_scale, seed=seed)


# subcommand handlers

def cmd_taxonomy_validate(args) -> int:
    taxonomy = load_taxonomy(args.file)
    atoms = enumerate_atoms(taxonomy)
    print(f"ok: {len(taxonomy.domains)} domains, "
          f"{sum(len(d.parts) for d in taxonomy.domains)} parts, {len(atoms)} atoms")
    return 0


def _check_corpus_flags(n_flag: str, n: int, mix_ratio: float) -> None:
    # checked before any output exists: the lazy generator would reject
    # these only once its caller has created files
    if n < 1:
        raise UsageError(f"{n_flag} must be >= 1, got {n}")
    if not (0.0 <= mix_ratio <= 1.0):
        raise UsageError(f"--mix-ratio must be within [0, 1], got {mix_ratio}")


def cmd_corpus_gen(args) -> int:
    _check_corpus_flags("--n", args.n, args.mix_ratio)
    taxonomy, _ = _resolve_taxonomy(args.taxonomy)
    records = generate_corpus(taxonomy, args.n, master_seed=args.seed, mix_ratio=args.mix_ratio)
    count = write_corpus(records, args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def cmd_prior_train(args) -> int:
    taxonomy, _ = _resolve_taxonomy(args.taxonomy)
    world = WorldSpec(taxonomy, world_seed=args.world_seed, d=args.dim)
    corpus = read_corpus(args.corpus)
    dataset = make_dataset(corpus, taxonomy, world)
    config = TrainConfig(
        objective=OBJECTIVE_ALIASES[args.objective],
        lr=args.lr,
        batch_size=args.batch_size,
        steps=args.steps,
        cond_dropout=args.cond_dropout,
        seed=args.train_seed,
    )
    result = train(config, dataset)
    save_checkpoint(result.net, args.out)
    if args.loss_csv:
        write_loss_csv(result.losses, args.loss_csv)
    final = float(np.mean(result.losses[-100:]))
    print(f"trained {config.steps} steps; step-1 loss {result.losses[0]:.4f}, final-100 mean {final:.4f}")
    print(f"checkpoint: {args.out}")
    return 0


def _sample_record_json(prompt_id, atoms, generated, target, decoded) -> dict:
    return {
        "prompt_id": prompt_id,
        "atoms": [{"part": a.part, "subject": a.subject, "domain": a.domain} for a in atoms],
        "cosine_to_oracle": float(generated @ target),
        "decoded_atoms": [{"part": a.part, "subject": a.subject, "domain": a.domain} for a in decoded],
    }


def cmd_prior_sample(args) -> int:
    taxonomy, _ = _resolve_taxonomy(args.taxonomy)
    world = WorldSpec(taxonomy, world_seed=args.world_seed, d=args.dim)
    net, _ = load_checkpoint(args.ckpt)
    if (args.prompt_id is None) == (args.atoms is None):
        raise UsageError("exactly one of --prompt-id or --atoms is required")
    if args.prompt_id is not None:
        if not args.corpus:
            raise UsageError("--prompt-id needs --corpus to look the prompt up in")
        records = {r.id: r for r in read_corpus(args.corpus)}
        if args.prompt_id not in records:
            raise UsageError(f"--prompt-id: no record {args.prompt_id} in {args.corpus}")
        atoms = records[args.prompt_id].atoms
        prompt_id = args.prompt_id
    else:
        atoms = _parse_atom_spec(args.atoms, taxonomy)
        prompt_id = None
    cond = condition_set(atoms, world)
    generated = _sample_batch(
        OBJECTIVE_ALIASES[args.objective], net, [cond], args.dim, args.steps, args.cfg, args.sample_seed
    )[0]
    target = compose_target(cond, world)
    decoded = decode_parts(generated, cond.k, taxonomy, world)
    record = _sample_record_json(prompt_id, atoms, generated, target, decoded)
    text = json.dumps(record)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def run_eval_stage(
    net,
    objective: str,
    eval_records: list[HybridPrompt],
    taxonomy: Taxonomy,
    world: WorldSpec,
    sample_steps: int,
    cfg_scale: float,
    sample_seed: int,
    kid_subsets: int,
    label: str,
    out_dir: Path,
) -> dict[str, Path]:
    """Sample every eval condition set, score it, and write the report files.

    Returns the artifact paths it wrote. The summary report's final_score is
    the compositional accuracy; FID/KID compare the generated batch to the
    oracle targets; the per-part faithfulness uses the oracle grader (each
    part contributes an object and a part question at desk scale).
    """
    conds = [condition_set(r.atoms, world) for r in eval_records]
    targets = np.stack([compose_target(c, world) for c in conds])
    generated = _sample_batch(objective, net, conds, world.d, sample_steps, cfg_scale, sample_seed)

    samples_path = out_dir / "samples.jsonl"
    decoded_all = []
    with open(samples_path, "w", encoding="utf-8") as fh:
        for record, cond, gen, target in zip(eval_records, conds, generated, targets):
            decoded = decode_parts(gen, cond.k, taxonomy, world)
            decoded_all.append(decoded)
            fh.write(json.dumps(_sample_record_json(record.id, cond.atoms, gen, target, decoded)) + "\n")

    paired = list(zip(generated, conds))
    comp_acc = compositional_accuracy(paired, taxonomy, world)
    comp_by_k = compositional_accuracy_by_k(paired, taxonomy, world)
    cosines = np.sum(generated * targets, axis=1)

    grader = OracleGrader(taxonomy, world)
    jobs = []
    job_owner = []
    for i, (cond, gen) in enumerate(zip(conds, generated)):
        for slot, atom in enumerate(cond.atoms):
            questions = parteval_questions(parteval_extract(atom))
            subject_ref = {"embedding": gen, "k": cond.k, "slot": slot}
            jobs.append((subject_ref, questions))
            job_owner.append(i)
    grades = parteval_grade_many(grader, jobs)
    per_sample_grades: dict[int, list] = {}
    for owner, grade in zip(job_owner, grades):
        per_sample_grades.setdefault(owner, []).append(grade)
    parteval_overall = parteval_score(grades)
    parteval_by_k: dict[int, float] = {}
    for k in sorted({c.k for c in conds}):
        records_k = [g for i, g in enumerate(grades) if conds[job_owner[i]].k == k]
        parteval_by_k[k] = parteval_score(records_k)

    stats_gen = gaussian_stats(generated)
    stats_ref = gaussian_stats(targets)
    fid_value = fid(stats_gen, stats_ref)
    kid_rng = np.random.default_rng(combine_seed(sample_seed, 3210))
    kid_mean, kid_std = kid(generated, targets, subset_size=min(100, len(conds)), n_subsets=kid_subsets, rng=kid_rng)

    per_sample = []
    for i, (record, cond) in enumerate(zip(eval_records, conds)):
        sample_grades = per_sample_grades.get(i, [])
        matches = sum(d.key == a.key for d, a in zip(decoded_all[i], cond.atoms))
        per_sample.append({
            "id": record.id,
            "k": cond.k,
            "cosine": float(cosines[i]),
            "slot_match": matches / cond.k,
            "parteval": float(np.mean([g.normalized for g in sample_grades])),
        })

    metrics = {
        "mean_cosine": float(cosines.mean()),
        "compositional_accuracy": comp_acc,
        "compositional_accuracy_by_k": {str(k): v for k, v in comp_by_k.items()},
        "fid_to_oracle": fid_value,
        "kid_mean": kid_mean,
        "kid_std": kid_std,
        "parteval": parteval_overall,
        "parteval_by_k": {str(k): v for k, v in parteval_by_k.items()},
    }
    artifacts: dict[str, Path] = {"samples": samples_path}

    report = {
        "metric": "eval_summary",
        "model": label,
        "metrics": metrics,
        "per_sample": per_sample,
        "final_score": comp_acc,
    }
    report_path = out_dir / "report.json"
    write_report(report_path, report)
    artifacts["report"] = report_path

    for k, score in parteval_by_k.items():
        k_report = {
            "metric": "parteval",
            "model": label,
            "complexity": k,
            "per_sample": [s for s in per_sample if s["k"] == k],
            "final_score": score,
        }
        k_path = out_dir / f"parteval_{k}part.json"
        write_report(k_path, k_report)
        artifacts[f"parteval_{k}part"] = k_path

    chart_path = out_dir / "metrics.svg"
    chart_path.write_text(
        svg_bar_chart(
            {
                "mean cosine": metrics["mean_cosine"],
                "comp. accuracy": metrics["compositional_accuracy"],
                "parteval": metrics["parteval"],
                "fid": metrics["fid_to_oracle"],
            },
            title=f"{label}: evaluation metrics",
        ),
        encoding="utf-8",
    )
    artifacts["metrics_chart"] = chart_path
    return artifacts


def cmd_eval(args) -> int:
    _check_corpus_flags("--n-eval", args.n_eval, args.mix_ratio)
    taxonomy, _ = _resolve_taxonomy(args.taxonomy)
    world = WorldSpec(taxonomy, world_seed=args.world_seed, d=args.dim)
    net, _ = load_checkpoint(args.ckpt)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    eval_records = list(generate_corpus(taxonomy, args.n_eval, master_seed=args.eval_seed, mix_ratio=args.mix_ratio))
    artifacts = run_eval_stage(
        net,
        OBJECTIVE_ALIASES[args.objective],
        eval_records,
        taxonomy,
        world,
        args.sample_steps,
        args.cfg,
        args.sample_seed,
        args.kid_subsets,
        args.label,
        out_dir,
    )
    report = load_report(artifacts["report"])
    print(f"eval: {json.dumps(report['metrics'], sort_keys=True)}")
    print(f"report: {artifacts['report']}")
    return 0


def cmd_pipeline_run(args) -> int:
    config = resolve_pipeline_config(args.config, args.set or [])
    return _run_pipeline(config, Path(args.out), compare_manifest=None)


def cmd_pipeline_rerun(args) -> int:
    manifest = load_manifest(args.manifest)
    return _run_pipeline(manifest["config"], Path(args.out), compare_manifest=manifest)


def _run_pipeline(config: dict, out_dir: Path, compare_manifest: dict | None) -> int:
    stage = "setup"
    try:
        taxonomy, taxonomy_path = _resolve_taxonomy(str(config["taxonomy"]))
        config = dict(config)
        config["taxonomy"] = str(taxonomy_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        world = WorldSpec(taxonomy, world_seed=int(config["world_seed"]), d=int(config["dim"]))
        objective = OBJECTIVE_ALIASES[str(config["objective"])]
        artifacts: dict[str, Path] = {}

        stage = "corpus"
        corpus_path = out_dir / "corpus.jsonl"
        write_corpus(
            generate_corpus(taxonomy, int(config["n_train"]), int(config["master_seed"]), float(config["mix_ratio"])),
            corpus_path,
        )
        artifacts["corpus"] = corpus_path
        eval_corpus_path = out_dir / "eval_corpus.jsonl"
        eval_records = list(
            generate_corpus(taxonomy, int(config["n_eval"]), int(config["eval_seed"]), float(config["mix_ratio"]))
        )
        write_corpus(eval_records, eval_corpus_path)
        artifacts["eval_corpus"] = eval_corpus_path

        stage = "dataset"
        corpus = read_corpus(corpus_path)
        dataset = make_dataset(corpus, taxonomy, world)
        dataset_path = out_dir / "dataset.bin"
        save_dataset(dataset, dataset_path, world)
        artifacts["dataset"] = dataset_path

        stage = "train"
        train_config = TrainConfig(
            objective=objective,
            lr=float(config["lr"]),
            batch_size=int(config["batch_size"]),
            steps=int(config["steps"]),
            cond_dropout=float(config["cond_dropout"]),
            seed=int(config["train_seed"]),
        )
        result = train(train_config, dataset)
        ckpt_path = out_dir / "checkpoint.bin"
        save_checkpoint(result.net, ckpt_path)
        artifacts["checkpoint"] = ckpt_path
        loss_path = out_dir / "loss.csv"
        write_loss_csv(result.losses, loss_path)
        artifacts["loss_curve"] = loss_path

        stage = "eval"
        artifacts.update(
            run_eval_stage(
                result.net,
                objective,
                eval_records,
                taxonomy,
                world,
                int(config["sample_steps"]),
                float(config["cfg_scale"]),
                int(config["sample_seed"]),
                int(config["kid_subsets"]),
                str(config["label"]),
                out_dir,
            )
        )

        stage = "manifest"
        seeds = {
            "master_seed": int(config["master_seed"]),
            "eval_seed": int(config["eval_seed"]),
            "world_seed": int(config["world_seed"]),
            "train_seed": int(config["train_seed"]),
            "sample_seed": int(config["sample_seed"]),
        }
        manifest = build_manifest(config, seeds, artifacts, out_dir)
        manifest_path = out_dir / "manifest.json"
        write_manifest(manifest, manifest_path)
    except (PartgenError, OSError, ValueError) as exc:
        print(f"pipeline stage {stage!r} failed: {exc}", file=sys.stderr)
        return 1

    report = load_report(out_dir / "report.json")
    print(f"pipeline complete: {out_dir}")
    print(f"metrics: {json.dumps(report['metrics'], sort_keys=True)}")

    if compare_manifest is not None:
        recorded = compare_manifest["artifacts"]
        fresh = manifest["artifacts"]
        problems = []
        for name in sorted(set(recorded) | set(fresh)):
            if name not in recorded or name not in fresh:
                problems.append(f"{name}: present in only one run")
            elif recorded[name]["sha256"] != fresh[name]["sha256"]:
                problems.append(f"{name}: digest mismatch")
        if problems:
            print("rerun diverged from the manifest:", file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        print(f"rerun verified: all {len(fresh)} artifact digests match the manifest")
    return 0


def cmd_pipeline_verify(args) -> int:
    manifest = load_manifest(args.manifest)
    problems = verify_artifacts(manifest, Path(args.manifest).parent)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    print(f"ok: {len(manifest['artifacts'])} artifacts match their digests")
    return 0


def cmd_report(args) -> int:
    reports = [load_report(p) for p in args.reports]
    complexity_report(reports, args.out_csv, args.out_svg)
    print(f"wrote {args.out_csv} and {args.out_svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="partgen", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"partgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tax = sub.add_parser("taxonomy", help="taxonomy file tools")
    tax_sub = p_tax.add_subparsers(dest="subcommand", required=True)
    p_validate = tax_sub.add_parser("validate", help="parse and validate a taxonomy file")
    p_validate.add_argument("file", help="taxonomy text file")
    p_validate.set_defaults(handler=cmd_taxonomy_validate)

    p_corpus = sub.add_parser("corpus", help="prompt corpus tools")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)
    p_gen = corpus_sub.add_parser("gen", help="generate a prompt corpus as JSONL")
    p_gen.add_argument("--taxonomy", default="", help="taxonomy file (default: shipped file)")
    p_gen.add_argument("--n", type=int, required=True, help="number of records")
    p_gen.add_argument("--seed", type=int, default=0, help="master seed")
    p_gen.add_argument("--mix-ratio", type=float, default=0.5, help="cross-domain mixing probability")
    p_gen.add_argument("--out", required=True, help="output JSONL path")
    p_gen.set_defaults(handler=cmd_corpus_gen)

    p_prior = sub.add_parser("prior", help="train or sample the prior")
    prior_sub = p_prior.add_subparsers(dest="subcommand", required=True)
    p_train = prior_sub.add_parser("train", help="train a prior on a corpus")
    p_train.add_argument("--objective", choices=sorted(OBJECTIVE_ALIASES), default="flow")
    p_train.add_argument("--corpus", required=True, help="training corpus JSONL")
    p_train.add_argument("--taxonomy", default="", help="taxonomy file (default: shipped file)")
    p_train.add_argument("--world-seed", type=int, default=DEFAULT_WORLD_SEED)
    p_train.add_argument("--dim", type=int, default=DEFAULT_DIM, help="embedding dimension")
    p_train.add_argument("--steps", type=int, default=20000)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--batch-size", type=int, default=64)
    p_train.add_argument("--cond-dropout", type=float, default=0.1)
    p_train.add_argument("--train-seed", type=int, default=42)
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--loss-csv", default="", help="optional loss curve CSV path")
    p_train.set_defaults(handler=cmd_prior_train)

    p_sample = prior_sub.add_parser("sample", help="sample one condition set from a checkpoint")
    p_sample.add_argument("--ckpt", required=True, help="checkpoint file")
    p_sample.add_argument("--objective", choices=sorted(OBJECTIVE_ALIASES), default="flow")
    p_sample.add_argument("--taxonomy", default="")
    p_sample.add_argument("--world-seed", type=int, default=DEFAULT_WORLD_SEED)
    p_sample.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p_sample.add_argument("--prompt-id", type=int, default=None, help="corpus record id (needs --corpus)")
    p_sample.add_argument("--corpus", default="", help="corpus JSONL for --prompt-id lookup")
    p_sample.add_argument("--atoms", default=None, help="inline condition, e.g. 'head:lion,body:horse'")
    p_sample.add_argument("--steps", type=int, default=50, help="sampler steps")
    p_sample.add_argument("--cfg", type=float, default=1.0, help="guidance scale (1 = off)")
    p_sample.add_argument("--sample-seed", type=int, default=0)
    p_sample.add_argument("--out", default="", help="optional output JSON path")
    p_sample.set_defaults(handler=cmd_prior_sample)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on held-out condition sets")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--objective", choices=sorted(OBJECTIVE_ALIASES), default="flow")
    p_eval.add_argument("--taxonomy", default="")
    p_eval.add_argument("--world-seed", type=int, default=DEFAULT_WORLD_SEED)
    p_eval.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p_eval.add_argument("--eval-seed", type=int, default=int(PIPELINE_DEFAULTS["eval_seed"]))
    p_eval.add_argument("--n-eval", type=int, default=200)
    p_eval.add_argument("--mix-ratio", type=float, default=0.5)
    p_eval.add_argument("--sample-steps", type=int, default=50)
    p_eval.add_argument("--cfg", type=float, default=1.0)
    p_eval.add_argument("--sample-seed", type=int, default=7)
    p_eval.add_argument("--kid-subsets", type=int, default=10)
    p_eval.add_argument("--label", default="prior", help="model label used in reports")
    p_eval.add_argument("--out-dir", required=True)
    p_eval.set_defaults(handler=cmd_eval)

    p_pipe = sub.add_parser("pipeline", help="end-to-end run with manifest")
    pipe_sub = p_pipe.add_subparsers(dest="subcommand", required=True)
    p_run = pipe_sub.add_parser("run", help="corpus -> dataset -> train -> sample -> eval")
    p_run.add_argument("--out", required=True, help="run directory")
    p_run.add_argument("--config", default=None, help="key=value config file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override, repeatable")
    p_run.set_defaults(handler=cmd_pipeline_run)
    p_rerun = pipe_sub.add_parser("rerun", help="replay a manifest and verify digests")
    p_rerun.add_argument("--manifest", required=True, help="manifest.json of the original run")
    p_rerun.add_argument("--out", required=True, help="directory for the replayed run")
    p_rerun.set_defaults(handler=cmd_pipeline_rerun)
    p_verify = pipe_sub.add_parser("verify", help="digest-check the artifacts next to a manifest")
    p_verify.add_argument("--manifest", required=True)
    p_verify.set_defaults(handler=cmd_pipeline_verify)

    p_report = sub.add_parser("report", help="flatten per-complexity reports to CSV and SVG")
    p_report.add_argument("reports", nargs="+", help="report JSON files")
    p_report.add_argument("--out-csv", required=True)
    p_report.add_argument("--out-svg", required=True)
    p_report.set_defaults(handler=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PartgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
