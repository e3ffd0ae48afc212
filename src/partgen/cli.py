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
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .errors import PartgenError, decode_utf8
from .hashing import combine_seed
from .manifest import build_manifest, load_manifest, verify_artifacts, write_manifest
from .metrics import fid, gaussian_stats, kid, slot_match
# unused: perfbench/tracing.py BOUNDARIES pins them until a benchmark PR moves the boundary (ROADMAP item 1)
from .metrics import compositional_accuracy, compositional_accuracy_by_k  # noqa: F401
from .nn import load_checkpoint, save_checkpoint
from .parteval import OracleGrader, parteval_grade_many, parteval_questions, parteval_score
from .prior import DIFFUSION_STEPS, TrainConfig, sample_diffusion_batch, sample_flow_batch, train, write_loss_csv
from .report import complexity_report, load_report, svg_bar_chart, write_report
from .taxonomy import (
    MIN_ATOMS_PER_PROMPT,
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
    SLOT_COUNT,
    WorldSpec,
    compose_target,
    compose_targets,
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

# key -> (allowed range, as messages and --help state it; its test). A key
# missing here takes any value of its default's type.
CONFIG_CHECKS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "n_train": (">= 1", lambda v: v >= 1),
    "n_eval": (">= 2 (FID and KID need 2 rows)", lambda v: v >= 2),
    "mix_ratio": ("within [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "dim": (">= 2", lambda v: v >= 2),
    "objective": (f"one of {', '.join(OBJECTIVE_ALIASES)}", lambda v: v in OBJECTIVE_ALIASES),
    "steps": (">= 1", lambda v: v >= 1),
    "lr": ("> 0 and finite", lambda v: 0.0 < v < math.inf),
    "batch_size": (">= 1", lambda v: v >= 1),
    "cond_dropout": ("within [0, 1)", lambda v: 0.0 <= v < 1.0),
    "train_seed": (">= 0", lambda v: v >= 0),  # it seeds numpy's generator directly
    "sample_steps": (">= 1", lambda v: v >= 1),
    "cfg_scale": ("finite", math.isfinite),
    "kid_subsets": (">= 2", lambda v: v >= 2),
}


class UsageError(Exception):
    """Raised for bad invocations; mapped to exit code 2."""


def _resolve_taxonomy(path_str: str) -> Taxonomy:
    path = Path(path_str) if path_str else default_taxonomy_path()
    if not path.exists():
        raise UsageError(f"--taxonomy: file not found: {path}")
    return load_taxonomy(path)


def check_config(values: dict, flags: dict[str, str] | None = None) -> dict:
    """Every key of PIPELINE_DEFAULTS, each value coerced to its default's
    type and held to CONFIG_CHECKS. Callers run it before they create any
    output. Errors name a key by its flag in ``flags``, else by the key."""
    flags = flags or {}
    unknown = sorted(set(values) - set(PIPELINE_DEFAULTS))
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r} (known: {', '.join(sorted(PIPELINE_DEFAULTS))})")
    missing = [key for key in PIPELINE_DEFAULTS if key not in values]
    if missing:
        raise UsageError(f"config lacks key(s) {', '.join(missing)}")
    config = {}
    for key, raw in values.items():
        name, kind = flags.get(key, key), type(PIPELINE_DEFAULTS[key])
        try:
            value = kind(raw)
            if not isinstance(raw, str) and value != raw:
                raise ValueError  # a lossy conversion, such as 2.5 -> 2
        except (TypeError, ValueError):
            raise UsageError(f"{name}: expected {kind.__name__}, got {raw!r}") from None
        rule, ok = CONFIG_CHECKS.get(key, ("", None))
        if ok is not None and not ok(value):
            raise UsageError(f"{name} must be {rule}, got {value}")
        config[key] = value
    if config["objective"] == "diffusion" and config["sample_steps"] > DIFFUSION_STEPS:
        raise UsageError(f"{flags.get('sample_steps', 'sample_steps')} must be <= {DIFFUSION_STEPS} for diffusion, got {config['sample_steps']}")
    return config


def parse_config_file(path: Path) -> dict[str, str]:
    """key=value lines; '#' comments and blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(decode_utf8(path.read_bytes(), path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_pipeline_config(config_path: str | None, overrides: list[str]) -> dict:
    """defaults < config file < --set overrides, then check_config."""
    merged = dict(PIPELINE_DEFAULTS)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise UsageError(f"--config: file not found: {path}")
        merged.update(parse_config_file(path))
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    return check_config(merged)


def _subcommand_config(args) -> dict:
    """A subcommand's config: its generated flags over PIPELINE_DEFAULTS."""
    flags = args.config_flags
    return check_config({**PIPELINE_DEFAULTS, **{key: getattr(args, key) for key in flags}}, flags)


def _parse_atom_spec(spec: str, world: WorldSpec) -> list[SemanticAtom]:
    """'head:lion,body:horse' -> atoms; the (part, subject) pair is unique
    within a taxonomy, so the domain is inferred."""
    by_pair = {a.key: a for a in world.atoms}
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
    if not MIN_ATOMS_PER_PROMPT <= len(atoms) <= SLOT_COUNT:
        raise UsageError(f"--atoms: a condition set holds {MIN_ATOMS_PER_PROMPT}-{SLOT_COUNT} atoms, got {len(atoms)}")
    return atoms


# stages, shared by the pipeline and the subcommands; each takes a checked config

def _corpus(taxonomy: Taxonomy, config: dict, held_out: bool = False):
    """The lazy training corpus or, with ``held_out``, the eval condition sets."""
    n, seed = ("n_eval", "eval_seed") if held_out else ("n_train", "master_seed")
    return generate_corpus(taxonomy, config[n], config[seed], config["mix_ratio"])


def _world(taxonomy: Taxonomy, config: dict) -> WorldSpec:
    return WorldSpec(taxonomy, world_seed=config["world_seed"], d=config["dim"])


def _train_stage(config: dict, dataset, ckpt_path: str | Path, loss_path: str | Path | None):
    train_config = TrainConfig(
        objective=OBJECTIVE_ALIASES[config["objective"]],
        lr=config["lr"],
        batch_size=config["batch_size"],
        steps=config["steps"],
        cond_dropout=config["cond_dropout"],
        seed=config["train_seed"],
    )
    result = train(train_config, dataset)
    save_checkpoint(result.net, ckpt_path)
    if loss_path:
        write_loss_csv(result.losses, loss_path)
    return result


def _sample_batch(net, config: dict, conds, d: int) -> np.ndarray:
    """The objective's sampler on ``conds``; a batch with a NaN or Inf in it
    raises PartgenError before any caller writes it."""
    flow = OBJECTIVE_ALIASES[config["objective"]] == "rectified_flow"
    sampler = sample_flow_batch if flow else sample_diffusion_batch
    with np.errstate(all="ignore"):  # overflow shows up in the check below
        batch = sampler(net, conds, d, n_steps=config["sample_steps"], cfg_scale=config["cfg_scale"], seed=config["sample_seed"])
    if not np.isfinite(batch).all():
        raise PartgenError(f"the sampler produced non-finite values (cfg_scale {config['cfg_scale']}); no samples written")
    return batch


# subcommand handlers

def cmd_taxonomy_validate(args) -> int:
    taxonomy = load_taxonomy(args.file)
    atoms = enumerate_atoms(taxonomy)
    print(f"ok: {len(taxonomy.domains)} domains, "
          f"{sum(len(d.parts) for d in taxonomy.domains)} parts, {len(atoms)} atoms")
    return 0


def cmd_corpus_gen(args) -> int:
    config = _subcommand_config(args)
    taxonomy = _resolve_taxonomy(config["taxonomy"])
    count = write_corpus(_corpus(taxonomy, config), args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def cmd_prior_train(args) -> int:
    config = _subcommand_config(args)
    taxonomy = _resolve_taxonomy(config["taxonomy"])
    dataset = make_dataset(read_corpus(args.corpus), taxonomy, _world(taxonomy, config))
    result = _train_stage(config, dataset, args.out, args.loss_csv)
    final = float(np.mean(result.losses[-100:]))
    print(f"trained {config['steps']} steps; step-1 loss {result.losses[0]:.4f}, final-100 mean {final:.4f}")
    print(f"checkpoint: {args.out}")
    return 0


def _sample_record_json(prompt_id, atoms, generated, target, decoded) -> dict:
    return {
        "prompt_id": prompt_id,
        "atoms": [a.to_dict() for a in atoms],
        "cosine_to_oracle": float(generated @ target),
        "decoded_atoms": [a.to_dict() for a in decoded],
    }


def cmd_prior_sample(args) -> int:
    config = _subcommand_config(args)
    taxonomy = _resolve_taxonomy(config["taxonomy"])
    world = _world(taxonomy, config)
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
        atoms = _parse_atom_spec(args.atoms, world)
        prompt_id = None
    cond = condition_set(atoms, world)
    generated = _sample_batch(net, config, [cond], world.d)[0]
    target = compose_target(cond, world)
    decoded = decode_parts(generated, cond.k, world)
    text = json.dumps(_sample_record_json(prompt_id, atoms, generated, target, decoded))
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def run_eval_stage(net, config: dict, eval_records: list[HybridPrompt], world: WorldSpec, out_dir: Path) -> tuple[dict[str, Path], dict]:
    """Sample every eval condition set, score it, and write the report files.

    Returns (artifact paths written, the report's metrics). Each sample is
    decoded once, and the slot match, compositional accuracy (the summary's
    final_score) and the oracle grader's PartEval verdicts all read those
    atoms; FID/KID compare the generated batch to the oracle targets.
    """
    conds = [condition_set(r.atoms, world) for r in eval_records]
    targets = compose_targets(conds, world)
    generated = _sample_batch(net, config, conds, world.d)

    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {"samples": out_dir / "samples.jsonl"}
    decoded_all = []
    with open(artifacts["samples"], "w", encoding="utf-8") as fh:
        for record, cond, gen, target in zip(eval_records, conds, generated, targets):
            decoded = decode_parts(gen, cond.k, world)
            decoded_all.append(decoded)
            fh.write(json.dumps(_sample_record_json(record.id, cond.atoms, gen, target, decoded)) + "\n")

    slot_matches, comp_acc, comp_by_k = slot_match(decoded_all, conds)
    cosines = np.sum(generated * targets, axis=1)

    jobs = [
        ({"decoded": decoded, "slot": slot}, parteval_questions(atom))
        for cond, decoded in zip(conds, decoded_all)
        for slot, atom in enumerate(cond.atoms)
    ]
    grades = parteval_grade_many(OracleGrader(), jobs)
    graded = iter(grades)  # k jobs per sample, in sample order
    sample_grades = [[next(graded) for _ in range(cond.k)] for cond in conds]
    parteval_overall = parteval_score(grades)
    parteval_by_k = {
        k: parteval_score([g for cond, gs in zip(conds, sample_grades) if cond.k == k for g in gs])
        for k in sorted({c.k for c in conds})
    }

    fid_value = fid(gaussian_stats(generated), gaussian_stats(targets))
    kid_rng = np.random.default_rng(combine_seed(config["sample_seed"], 3210))
    kid_mean, kid_std = kid(generated, targets, subset_size=min(100, len(conds)), n_subsets=config["kid_subsets"], rng=kid_rng)

    per_sample = []
    for i, (record, cond) in enumerate(zip(eval_records, conds)):
        per_sample.append({
            "id": record.id,
            "k": cond.k,
            "cosine": float(cosines[i]),
            "slot_match": slot_matches[i],
            "parteval": float(np.mean([g.normalized for g in sample_grades[i]])),
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

    report = {
        "metric": "eval_summary",
        "model": config["label"],
        "metrics": metrics,
        "per_sample": per_sample,
        "final_score": comp_acc,
    }
    artifacts["report"] = out_dir / "report.json"
    write_report(artifacts["report"], report)

    for k, score in parteval_by_k.items():
        k_report = {
            "metric": "parteval",
            "model": config["label"],
            "complexity": k,
            "per_sample": [s for s in per_sample if s["k"] == k],
            "final_score": score,
        }
        artifacts[f"parteval_{k}part"] = out_dir / f"parteval_{k}part.json"
        write_report(artifacts[f"parteval_{k}part"], k_report)

    artifacts["metrics_chart"] = out_dir / "metrics.svg"
    artifacts["metrics_chart"].write_text(
        svg_bar_chart(
            {
                "mean cosine": metrics["mean_cosine"],
                "comp. accuracy": metrics["compositional_accuracy"],
                "parteval": metrics["parteval"],
                "fid": metrics["fid_to_oracle"],
            },
            title=f"{config['label']}: evaluation metrics",
        ),
        encoding="utf-8",
    )
    return artifacts, metrics


def cmd_eval(args) -> int:
    config = _subcommand_config(args)
    taxonomy = _resolve_taxonomy(config["taxonomy"])
    world = _world(taxonomy, config)
    net, _ = load_checkpoint(args.ckpt)
    eval_records = list(_corpus(taxonomy, config, held_out=True))
    artifacts, metrics = run_eval_stage(net, config, eval_records, world, Path(args.out_dir))
    print(f"eval: {json.dumps(metrics, sort_keys=True)}")
    print(f"report: {artifacts['report']}")
    return 0


def cmd_pipeline_run(args) -> int:
    config = resolve_pipeline_config(args.config, args.set or [])
    return _run_pipeline(config, Path(args.out))


def cmd_pipeline_rerun(args) -> int:
    """Run the recorded config again, then check the replay's artifacts
    against the recorded digests, as `pipeline verify` does."""
    recorded, out_dir = load_manifest(args.manifest), Path(args.out)
    if _run_pipeline(check_config(recorded["config"]), out_dir):
        return 1
    fresh = load_manifest(out_dir / "manifest.json")["artifacts"]
    problems = verify_artifacts(recorded, out_dir)
    problems += [f"{name}: not in the recorded manifest" for name in sorted(set(fresh) - set(recorded["artifacts"]))]
    if problems:
        print("rerun diverged from the manifest:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    print(f"rerun verified: all {len(recorded['artifacts'])} artifact digests match the manifest")
    return 0


def _run_pipeline(config: dict, out_dir: Path) -> int:
    """Every stage into ``out_dir``, from a config check_config returned;
    the manifest records that config as given."""
    stage = "setup"
    try:
        taxonomy = _resolve_taxonomy(config["taxonomy"])
        out_dir.mkdir(parents=True, exist_ok=True)
        world = _world(taxonomy, config)
        artifacts: dict[str, Path] = {}

        stage = "corpus"
        artifacts["corpus"] = out_dir / "corpus.jsonl"
        write_corpus(_corpus(taxonomy, config), artifacts["corpus"])
        artifacts["eval_corpus"] = out_dir / "eval_corpus.jsonl"
        eval_records = list(_corpus(taxonomy, config, held_out=True))
        write_corpus(eval_records, artifacts["eval_corpus"])

        stage = "dataset"
        dataset = make_dataset(read_corpus(artifacts["corpus"]), taxonomy, world)
        artifacts["dataset"] = out_dir / "dataset.bin"
        save_dataset(dataset, artifacts["dataset"], world)

        stage = "train"
        artifacts["checkpoint"] = out_dir / "checkpoint.bin"
        artifacts["loss_curve"] = out_dir / "loss.csv"
        result = _train_stage(config, dataset, artifacts["checkpoint"], artifacts["loss_curve"])

        stage = "eval"
        eval_artifacts, metrics = run_eval_stage(result.net, config, eval_records, world, out_dir)
        artifacts.update(eval_artifacts)

        stage = "manifest"
        seeds = {key: config[key] for key in ("master_seed", "eval_seed", "world_seed", "train_seed", "sample_seed")}
        manifest = build_manifest(config, seeds, artifacts, out_dir)
        write_manifest(manifest, out_dir / "manifest.json")
    except (PartgenError, OSError, ValueError, MemoryError) as exc:
        print(f"pipeline stage {stage!r} failed: {exc}", file=sys.stderr)
        return 1

    print(f"pipeline complete: {out_dir}")
    print(f"metrics: {json.dumps(metrics, sort_keys=True)}")
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
    if Path(args.out_csv).resolve() == Path(args.out_svg).resolve():
        raise UsageError(f"--out-csv and --out-svg name the same file: {args.out_svg}")
    reports = [load_report(p) for p in args.reports]
    complexity_report(reports, args.out_csv, args.out_svg)
    print(f"wrote {args.out_csv} and {args.out_svg}")
    return 0


def _add_config_flags(parser, keys: list[str], renamed: dict[str, str] | None = None, required: tuple = ()) -> None:
    """One flag per config key, spelled --key-name unless ``renamed``, with
    the key's default. The value stays as typed until _subcommand_config checks it."""
    flags = {}
    for key in keys:
        flag = flags[key] = (renamed or {}).get(key, "--" + key.replace("_", "-"))
        rule = CONFIG_CHECKS.get(key, ("",))[0]
        note = "required" if key in required else f"default: {PIPELINE_DEFAULTS[key]!r}"
        parser.add_argument(flag, dest=key, default=PIPELINE_DEFAULTS[key], required=key in required,
                            help=f"{rule} ({note})" if rule else note)
    parser.set_defaults(config_flags=flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="partgen", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"partgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    world_keys = ["objective", "taxonomy", "world_seed", "dim"]

    p_tax = sub.add_parser("taxonomy", help="taxonomy file tools")
    tax_sub = p_tax.add_subparsers(dest="subcommand", required=True)
    p_validate = tax_sub.add_parser("validate", help="parse and validate a taxonomy file")
    p_validate.add_argument("file", help="taxonomy text file")
    p_validate.set_defaults(handler=cmd_taxonomy_validate)

    p_corpus = sub.add_parser("corpus", help="prompt corpus tools")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)
    p_gen = corpus_sub.add_parser("gen", help="generate a prompt corpus as JSONL")
    _add_config_flags(p_gen, ["taxonomy", "n_train", "master_seed", "mix_ratio"],
                  {"n_train": "--n", "master_seed": "--seed"}, required=("n_train",))
    p_gen.add_argument("--out", required=True, help="output JSONL path")
    p_gen.set_defaults(handler=cmd_corpus_gen)

    p_prior = sub.add_parser("prior", help="train or sample the prior")
    prior_sub = p_prior.add_subparsers(dest="subcommand", required=True)
    p_train = prior_sub.add_parser("train", help="train a prior on a corpus")
    _add_config_flags(p_train, world_keys + ["steps", "lr", "batch_size", "cond_dropout", "train_seed"])
    p_train.add_argument("--corpus", required=True, help="training corpus JSONL")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--loss-csv", default="", help="optional loss curve CSV path")
    p_train.set_defaults(handler=cmd_prior_train)

    p_sample = prior_sub.add_parser("sample", help="sample one condition set from a checkpoint")
    _add_config_flags(p_sample, world_keys + ["sample_steps", "cfg_scale", "sample_seed"],
                  {"sample_steps": "--steps", "cfg_scale": "--cfg"})
    p_sample.add_argument("--ckpt", required=True, help="checkpoint file")
    p_sample.add_argument("--prompt-id", type=int, default=None, help="corpus record id (needs --corpus)")
    p_sample.add_argument("--corpus", default="", help="corpus JSONL for --prompt-id lookup")
    p_sample.add_argument("--atoms", default=None, help="inline condition, e.g. 'head:lion,body:horse'")
    p_sample.add_argument("--out", default="", help="optional output JSON path")
    p_sample.set_defaults(handler=cmd_prior_sample)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on held-out condition sets")
    _add_config_flags(p_eval, world_keys + ["eval_seed", "n_eval", "mix_ratio", "sample_steps", "cfg_scale",
                                        "sample_seed", "kid_subsets", "label"], {"cfg_scale": "--cfg"})
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--out-dir", required=True)
    p_eval.set_defaults(handler=cmd_eval)

    p_pipe = sub.add_parser("pipeline", help="end-to-end run with manifest")
    pipe_sub = p_pipe.add_subparsers(dest="subcommand", required=True)
    p_run = pipe_sub.add_parser("run", help="corpus -> dataset -> train -> sample -> eval")
    p_run.add_argument("--out", required=True, help="run directory")
    p_run.add_argument("--config", default=None, help="key=value config file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override, repeatable")
    p_run.set_defaults(handler=cmd_pipeline_run)
    p_rerun = pipe_sub.add_parser("rerun", help="run a manifest's config again, then verify its digests")
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
    except (PartgenError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
