"""The eval stage decodes each generated sample once, and every score it
reports equals the score of a fresh decode of the same sample."""

from __future__ import annotations

import json

import numpy as np
import pytest

import partgen.cli
from partgen.metrics import compositional_accuracy, compositional_accuracy_by_k
from partgen.taxonomy import read_corpus
from partgen.world import condition_set, decode_parts

N_EVAL = 40


class DecodedElsewhere(Exception):
    pass


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A short pipeline run with spies on the eval stage's decode and
    grading calls; decoding anywhere but the eval stage itself raises."""
    out_dir = tmp_path_factory.mktemp("short_run")
    decodes, gradings = [], []
    real_decode, real_grade_many = partgen.cli.decode_parts, partgen.cli.parteval_grade_many

    def spy_decode(e, k, taxonomy, world):
        decoded = real_decode(e, k, taxonomy, world)
        decodes.append((np.array(e), k, decoded))
        return decoded

    def spy_grade_many(grader, jobs):
        grades = real_grade_many(grader, jobs)
        gradings.append((jobs, grades))
        return grades

    def refuse(*args, **kwargs):
        raise DecodedElsewhere("a scorer decoded a sample the eval stage had already decoded")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partgen.cli, "decode_parts", spy_decode)
        mp.setattr(partgen.cli, "parteval_grade_many", spy_grade_many)
        mp.setattr("partgen.metrics.decode_parts", refuse)
        mp.setattr("partgen.parteval.decode_parts", refuse)
        argv = ["pipeline", "run", "--out", str(out_dir)]
        for setting in ("n_train=2000", "steps=300", f"n_eval={N_EVAL}"):
            argv += ["--set", setting]
        assert partgen.cli.main(argv) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return out_dir, decodes, gradings, report


@pytest.fixture(scope="module")
def fresh(short_run, taxonomy, world):
    """Per eval sample: (generated, cond, a fresh decode of generated)."""
    out_dir, decodes, _, _ = short_run
    conds = [condition_set(r.atoms, world) for r in read_corpus(out_dir / "eval_corpus.jsonl")]
    return [(e, cond, decode_parts(e, cond.k, taxonomy, world)) for (e, _, _), cond in zip(decodes, conds)]


def test_each_sample_is_decoded_once(short_run, world):
    out_dir, decodes, _, _ = short_run
    conds = [condition_set(r.atoms, world) for r in read_corpus(out_dir / "eval_corpus.jsonl")]
    assert len(decodes) == N_EVAL == len(conds)
    assert [k for _, k, _ in decodes] == [cond.k for cond in conds]


def test_compositional_accuracy_equals_the_decoding_scorers(short_run, fresh, taxonomy, world):
    report = short_run[3]
    paired = [(e, cond) for e, cond, _ in fresh]
    assert report["metrics"]["compositional_accuracy"] == compositional_accuracy(paired, taxonomy, world)
    by_k = {int(k): v for k, v in report["metrics"]["compositional_accuracy_by_k"].items()}
    assert by_k == compositional_accuracy_by_k(paired, taxonomy, world)
    assert report["final_score"] == report["metrics"]["compositional_accuracy"]


def test_slot_match_counts_the_fresh_decode(short_run, fresh):
    out_dir, decodes, _, report = short_run
    samples = [json.loads(line) for line in (out_dir / "samples.jsonl").read_text(encoding="utf-8").splitlines()]
    for (e, cond, decoded), (_, _, staged), row, sample in zip(fresh, decodes, report["per_sample"], samples):
        assert staged == decoded
        assert sample["decoded_atoms"] == [{"part": a.part, "subject": a.subject, "domain": a.domain} for a in decoded]
        assert row["slot_match"] == sum(d.key == a.key for d, a in zip(decoded, cond.atoms)) / cond.k


def test_parteval_verdicts_compare_the_decoded_atom(short_run, fresh):
    (jobs, grades), = short_run[2]
    slots = [(decoded, slot) for _, cond, decoded in fresh for slot in range(cond.k)]
    assert len(jobs) == len(grades) == len(slots)
    for (ref, questions), grade, (decoded, slot) in zip(jobs, grades, slots):
        atom = decoded[slot]
        assert ref["decoded"][ref["slot"]] == atom
        expected = [int((atom.subject if q.attribute == "object" else atom.part) == q.expected) for q in questions]
        assert grade.verdicts == expected
