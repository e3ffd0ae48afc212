"""End-to-end acceptance checks, one test per shipped guarantee.

Each test records a single PASS/FAIL line (printed in the terminal summary)
and then asserts, so a red test and its criterion line always agree. The
heavyweight fixtures in conftest.py are shared across criteria: the default
pipeline run feeds criteria 4, 5, and 9; the diffusion training reuses its
dataset and held-out prompts.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from conftest import record_criterion
from partgen.hashing import fnv1a_64
from partgen.metrics import (
    GaussianStats,
    fid,
    gaussian_stats,
    kid,
    mmd2_unbiased,
    slot_match,
)
from partgen.nn import DenseNet, grad_check, load_checkpoint
from partgen.parteval import GradeRecord, parteval_score
from partgen.prior import (
    DEFAULT_HIDDEN_DIMS,
    input_dim,
    make_diffusion_draws,
    make_flow_draws,
    objective_loss,
)
from partgen.taxonomy import (
    RenderConfig,
    SemanticAtom,
    enumerate_atoms,
    generate_corpus,
    load_default_taxonomy,
    read_corpus,
    render_prompt,
    write_corpus,
)
from partgen.world import compose_target, condition_set, make_dataset
from test_metrics import denman_beavers_sqrt, fid_oracle


def test_criterion_01_taxonomy_fidelity():
    start = time.monotonic()
    taxonomy = load_default_taxonomy()
    atoms = enumerate_atoms(taxonomy)
    elapsed = time.monotonic() - start
    subject_counts = [len(p.subjects) for d in taxonomy.domains for p in d.parts]
    ok = (
        len(taxonomy.domains) == 6
        and all(len(d.parts) == 8 for d in taxonomy.domains)
        and all(6 <= n <= 19 for n in subject_counts)
        and len(atoms) == 464
        and len({a.key for a in atoms}) == 464
        and elapsed < 1.0
    )
    detail = (
        f"6 domains, 8 parts each, subjects/part in [{min(subject_counts)}, {max(subject_counts)}], "
        f"{len(atoms)} unique atoms, loaded in {elapsed:.3f}s (<1s)"
    )
    record_criterion(1, ok, detail)
    assert ok, detail


CORPUS_37K_SEED_17_SHA256 = "ba4ea3cf1f7d0beb5fd043837ed3259da08828b62462edfd07db3590d52347c3"


def test_criterion_02_corpus_fidelity(taxonomy, tmp_path):
    n = 37000
    start = time.monotonic()
    first = tmp_path / "corpus_a.jsonl"
    second = tmp_path / "corpus_b.jsonl"
    count_a = write_corpus(generate_corpus(taxonomy, n, master_seed=17), first)
    count_b = write_corpus(generate_corpus(taxonomy, n, master_seed=17), second)
    identical = first.read_bytes() == second.read_bytes()
    records = read_corpus(first)
    shape_ok = True
    for record in records:
        prefix = taxonomy.domain(record.atoms[0].domain).prefix
        if not (
            2 <= len(record.atoms) <= 4
            and len({a.part for a in record.atoms}) == len(record.atoms)
            and record.text == render_prompt(prefix, record.atoms)
            and record.seed == fnv1a_64(record.text)
            and record.render == RenderConfig(1024, 50, 5.0, 3.0)
        ):
            shape_ok = False
            break
    elapsed = time.monotonic() - start
    # the corpus format is pinned: a change to the draw order or the JSONL layout shows here
    pinned = hashlib.sha256(first.read_bytes()).hexdigest() == CORPUS_37K_SEED_17_SHA256
    ok = count_a == count_b == n and identical and shape_ok and pinned and elapsed < 30.0
    detail = (
        f"{count_a} records, template/seed/render verified, regeneration byte-identical: {identical}, "
        f"pinned digest: {pinned}, {elapsed:.1f}s (<30s)"
    )
    record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_03_gradient_correctness(taxonomy, world):
    start = time.monotonic()
    batch = make_dataset(list(generate_corpus(taxonomy, 8, master_seed=71)), taxonomy, world)
    net = DenseNet.init([input_dim(world.d)] + DEFAULT_HIDDEN_DIMS + [world.d], seed=3)
    flow_draws = make_flow_draws(np.random.default_rng(72), len(batch), world.d, cond_dropout=0.3)
    diff_draws = make_diffusion_draws(np.random.default_rng(73), len(batch), world.d, 0.3)

    def flow_loss(candidate):
        return objective_loss("rectified_flow", candidate, batch, draws=flow_draws, dtype=np.float64)

    def diffusion_loss(candidate):
        return objective_loss("diffusion_prior", candidate, batch, draws=diff_draws, dtype=np.float64)

    flow_err = grad_check(net, flow_loss, probes=12, seed=4)
    diff_err = grad_check(net, diffusion_loss, probes=12, seed=5)
    elapsed = time.monotonic() - start
    ok = flow_err < 1e-4 and diff_err < 1e-4 and elapsed < 60.0
    detail = (
        f"max relative error: flow {flow_err:.2e}, diffusion {diff_err:.2e} (<1e-4, 12 probes each), "
        f"{elapsed:.1f}s (<60s)"
    )
    record_criterion(3, ok, detail)
    assert ok, detail


def test_criterion_04_oracle_recovery(pipeline_run, diffusion_eval):
    metrics = pipeline_run.report["metrics"]
    flow_cosine = metrics["mean_cosine"]
    flow_acc = metrics["compositional_accuracy"]
    total = pipeline_run.elapsed + diffusion_eval.train_elapsed
    ok = (
        flow_cosine >= 0.95
        and flow_acc >= 0.90
        and diffusion_eval.mean_cosine >= 0.90
        and total <= 1800.0
    )
    detail = (
        f"flow: cosine {flow_cosine:.4f} (>=0.95), comp acc {flow_acc:.4f} (>=0.90); "
        f"diffusion: cosine {diffusion_eval.mean_cosine:.4f} (>=0.90); "
        f"train+eval {total:.0f}s (<=1800s)"
    )
    record_criterion(4, ok, detail)
    assert ok, detail


def test_criterion_05_complexity_consistency(pipeline_run, world):
    # scores the atoms the flow run's eval stage decoded into samples.jsonl
    start = time.monotonic()
    eval_records = read_corpus(pipeline_run.out_dir / "eval_corpus.jsonl")
    conds = [condition_set(r.atoms, world) for r in eval_records]
    lines = (pipeline_run.out_dir / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    decoded = [[SemanticAtom(**atom) for atom in json.loads(line)["decoded_atoms"]] for line in lines]
    _, _, by_k = slot_match(decoded, conds)
    elapsed = time.monotonic() - start
    gap = abs(by_k.get(4, 0.0) - by_k.get(2, 0.0))
    ok = 2 in by_k and 4 in by_k and gap <= 0.10 and elapsed <= 300.0
    by_k_text = ", ".join(f"k={k}: {v:.4f}" for k, v in sorted(by_k.items()))
    detail = f"comp acc {by_k_text}; |k4 - k2| = {gap:.4f} (<=0.10), {elapsed:.0f}s (<=300s)"
    record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_06_fid_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(81)
    stats = gaussian_stats(rng.standard_normal((300, 16)))
    identity_err = abs(fid(stats, stats))

    closed_err = 0.0
    for d in (2, 4, 64):
        m = rng.standard_normal((d, d))
        sigma = m @ m.T / d + 0.5 * np.eye(d)
        mu_a, mu_b = rng.standard_normal(d), rng.standard_normal(d)
        expected = float(np.sum((mu_a - mu_b) ** 2))
        got = fid(
            GaussianStats(mu=mu_a, sigma=sigma, n=100),
            GaussianStats(mu=mu_b, sigma=sigma.copy(), n=100),
        )
        closed_err = max(closed_err, abs(got - expected))

    oracle_err = 0.0
    for d in (3, 8, 32):
        m1, m2 = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        a = GaussianStats(mu=rng.standard_normal(d), sigma=m1 @ m1.T / d + 0.5 * np.eye(d), n=100)
        b = GaussianStats(mu=rng.standard_normal(d), sigma=m2 @ m2.T / d + 0.5 * np.eye(d), n=100)
        oracle_err = max(oracle_err, abs(fid(a, b) - fid_oracle(a, b)))
    elapsed = time.monotonic() - start
    ok = identity_err < 1e-8 and closed_err < 1e-8 and oracle_err < 1e-6 and elapsed < 10.0
    detail = (
        f"fid(a,a) {identity_err:.1e} (<1e-8), equal-cov closed form err {closed_err:.1e} (<1e-8), "
        f"vs Newton-iteration oracle err {oracle_err:.1e} (<1e-6), {elapsed:.1f}s (<10s)"
    )
    record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_07_kid_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(91)
    x = rng.standard_normal((1000, 64))
    y = rng.standard_normal((1000, 64))
    mean, std = kid(x, y, subset_size=100, n_subsets=10, rng=np.random.default_rng(92))
    same_dist_ok = abs(mean) <= 3.0 * std

    x3 = rng.standard_normal((3, 4))
    y3 = rng.standard_normal((3, 4))
    d = 4
    kern = lambda u, v: (float(u @ v) / d + 1.0) ** 3
    xx = sum(kern(x3[i], x3[j]) for i in range(3) for j in range(3) if i != j) / 6.0
    yy = sum(kern(y3[i], y3[j]) for i in range(3) for j in range(3) if i != j) / 6.0
    xy = sum(kern(x3[i], y3[j]) for i in range(3) for j in range(3)) / 9.0
    hand_err = abs(mmd2_unbiased(x3, y3) - (xx + yy - 2.0 * xy))
    elapsed = time.monotonic() - start
    ok = same_dist_ok and hand_err < 1e-12 and elapsed < 10.0
    detail = (
        f"same-distribution mean {mean:.2e} within 3*std {3 * std:.2e}: {same_dist_ok}, "
        f"3-sample hand expansion err {hand_err:.1e} (<1e-12), {elapsed:.1f}s (<10s)"
    )
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_08_parteval_arithmetic():
    start = time.monotonic()
    perfect = parteval_score([GradeRecord([1, 1, 1], 3, 3) for _ in range(20)])
    negative = parteval_score([GradeRecord([0, 0, 0], 0, 3) for _ in range(20)])
    seventy = parteval_score([GradeRecord([1], 1, 1)] * 7 + [GradeRecord([0], 0, 1)] * 3)

    rng = np.random.default_rng(101)
    q = 5
    verdict_matrix = (rng.random((1000, q)) < 0.5).astype(int)
    records = [GradeRecord(list(row), int(row.sum()), q) for row in verdict_matrix]
    base = parteval_score(records)
    monotone = True
    for i in range(1000):
        j = int(rng.integers(q))
        flipped = verdict_matrix[i].copy()
        flipped[j] = 1 - flipped[j]
        changed = list(records)
        changed[i] = GradeRecord(list(flipped), int(flipped.sum()), q)
        delta = parteval_score(changed) - base
        if flipped[j] == 1 and delta <= 0:
            monotone = False
            break
        if flipped[j] == 0 and delta >= 0:
            monotone = False
            break
    elapsed = time.monotonic() - start
    ok = perfect == 1.0 and negative == 0.0 and abs(seventy - 0.7) < 1e-12 and monotone and elapsed < 10.0
    detail = (
        f"perfect {perfect}, all-negative {negative}, 7-of-10 {seventy}, "
        f"1000-record single-flip monotonicity: {monotone}, {elapsed:.1f}s (<10s)"
    )
    record_criterion(8, ok, detail)
    assert ok, detail


def test_criterion_09_pipeline_determinism(pipeline_run, pipeline_rerun):
    recorded = pipeline_run.manifest["artifacts"]
    replayed = pipeline_rerun.manifest.get("artifacts", {})
    same_names = set(recorded) == set(replayed)
    digests_equal = same_names and all(
        recorded[name]["sha256"] == replayed[name]["sha256"] for name in recorded
    )
    total = pipeline_run.elapsed + pipeline_rerun.elapsed
    ok = pipeline_rerun.exit_code == 0 and digests_equal and total <= 3600.0
    detail = (
        f"{len(recorded)} artifacts, all digests identical across runs: {digests_equal}, "
        f"rerun exit {pipeline_rerun.exit_code}, both runs {total:.0f}s (<=3600s)"
    )
    record_criterion(9, ok, detail)
    assert ok, detail


def test_criterion_10_oracle_net_zero_loss(taxonomy, world):
    start = time.monotonic()
    batch = make_dataset(list(generate_corpus(taxonomy, 32, master_seed=111)), taxonomy, world)
    targets = np.stack([t for _, t in batch])
    net = DenseNet.init([input_dim(world.d)] + DEFAULT_HIDDEN_DIMS + [world.d], seed=6)

    flow_draws = make_flow_draws(np.random.default_rng(112), len(batch), world.d, 0.0)
    flow_oracle = targets - flow_draws.x0
    flow_loss, _ = objective_loss(
        "rectified_flow", net, batch, draws=flow_draws, want_grads=False, predictor=lambda inputs: flow_oracle
    )

    diff_draws = make_diffusion_draws(np.random.default_rng(113), len(batch), world.d, 0.0)
    diff_loss, _ = objective_loss(
        "diffusion_prior", net, batch, draws=diff_draws, want_grads=False, predictor=lambda inputs: targets
    )
    elapsed = time.monotonic() - start
    ok = flow_loss < 1e-10 and diff_loss < 1e-10 and elapsed < 10.0
    detail = (
        f"oracle-predictor loss: flow {flow_loss:.1e}, diffusion {diff_loss:.1e} (<1e-10), "
        f"{elapsed:.1f}s (<10s)"
    )
    record_criterion(10, ok, detail)
    assert ok, detail


def test_flow_training_loss_drops_below_tenth_of_start(pipeline_run):
    # companion fixture to criterion 4: the recorded loss curve must end an
    # order of magnitude below where it started
    rows = (pipeline_run.out_dir / "loss.csv").read_text(encoding="utf-8").splitlines()[1:]
    losses = {int(s): float(v) for s, v in (row.split(",") for row in rows)}
    first = losses[1]
    tail = [losses[s] for s in sorted(losses)[-10:]]
    tail_mean = float(np.mean(tail))
    assert tail_mean < 0.10 * first, f"tail mean {tail_mean:.3f} vs step-1 {first:.3f}"


def test_conditioning_drives_the_samples(pipeline_run, world):
    # cfg_scale=0 short-circuits to the pure unconditional branch that
    # condition dropout trained; its outputs cannot track per-prompt targets
    from partgen.prior import sample_flow_batch

    net, _ = load_checkpoint(pipeline_run.out_dir / "checkpoint.bin")
    eval_records = read_corpus(pipeline_run.out_dir / "eval_corpus.jsonl")[:16]
    conds = [condition_set(r.atoms, world) for r in eval_records]
    targets = np.stack([compose_target(c, world) for c in conds])
    cond_out = sample_flow_batch(net, conds, world.d, n_steps=25, seed=19)
    uncond_out = sample_flow_batch(net, conds, world.d, n_steps=25, seed=19, cfg_scale=0.0)
    cond_cos = float(np.mean(np.sum(cond_out * targets, axis=1)))
    uncond_cos = float(np.mean(np.sum(uncond_out * targets, axis=1)))
    assert cond_cos > 0.90, f"conditional cosine {cond_cos:.4f}"
    assert uncond_cos < 0.50, f"unconditional cosine {uncond_cos:.4f}"
