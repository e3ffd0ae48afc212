"""Run manifests: content hashing, round trips, and artifact verification."""

import json
import re

import pytest

from partgen.errors import ParseError
from partgen.manifest import (
    build_manifest,
    load_manifest,
    sha256_file,
    verify_artifacts,
    write_manifest,
)


@pytest.fixture
def run_dir(tmp_path):
    (tmp_path / "corpus.jsonl").write_text('{"id": 0}\n', encoding="utf-8")
    (tmp_path / "loss.csv").write_text("step,loss\n1,2.0\n", encoding="utf-8")
    return tmp_path


def test_sha256_known_vector(tmp_path):
    path = tmp_path / "abc.txt"
    path.write_text("abc", encoding="utf-8")
    assert sha256_file(path) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_build_records_relative_paths_and_digests(run_dir):
    manifest = build_manifest(
        config={"steps": 10},
        seeds={"master_seed": 0},
        artifact_paths={"corpus": run_dir / "corpus.jsonl", "loss_curve": run_dir / "loss.csv"},
        root=run_dir,
    )
    assert set(manifest["artifacts"]) == {"corpus", "loss_curve"}
    assert manifest["artifacts"]["corpus"]["path"] == "corpus.jsonl"
    assert manifest["artifacts"]["corpus"]["sha256"] == sha256_file(run_dir / "corpus.jsonl")
    assert manifest["config"] == {"steps": 10}
    assert manifest["seeds"] == {"master_seed": 0}
    assert "version" in manifest


def test_write_load_round_trip(run_dir):
    manifest = build_manifest({}, {}, {"corpus": run_dir / "corpus.jsonl"}, run_dir)
    path = run_dir / "manifest.json"
    write_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_load_rejects_missing_sections(run_dir):
    path = run_dir / "broken.json"
    path.write_text(json.dumps({"version": "0", "config": {}}), encoding="utf-8")
    with pytest.raises(ParseError, match="missing"):
        load_manifest(path)


def test_load_rejects_bad_json(run_dir):
    path = run_dir / "junk.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ParseError):
        load_manifest(path)


@pytest.mark.parametrize("fields, text", [
    ({"seeds": None}, "'seeds' must be a JSON object"),
    ({"artifacts": {"corpus": {"path": "corpus.jsonl"}}}, "artifact 'corpus' needs"),
    ({"artifacts": {"corpus": {"path": 3, "sha256": "00"}}}, "artifact 'corpus' needs"),
    ({"artifacts": {"corpus": "corpus.jsonl"}}, "artifact 'corpus' needs"),
], ids=["seeds-null", "artifact-no-sha256", "artifact-path-int", "artifact-str"])
def test_load_rejects_wrong_field_types(run_dir, fields, text):
    path = run_dir / "typed.json"
    path.write_text(json.dumps({"version": "0", "config": {}, "seeds": {}, "artifacts": {}, **fields}), encoding="utf-8")
    with pytest.raises(ParseError, match=text):
        load_manifest(path)


@pytest.mark.parametrize("artifact_path", ["/etc/hostname", "../outside.txt", "sub/../../outside.txt", "sub/.."],
                         ids=["absolute", "parent", "nested-parent", "trailing-parent"])
def test_load_rejects_paths_outside_the_run_directory(run_dir, artifact_path):
    path = run_dir / "escaping.json"
    artifacts = {"corpus": {"path": artifact_path, "sha256": "0" * 64}}
    path.write_text(json.dumps({"version": "0", "config": {}, "seeds": {}, "artifacts": artifacts}), encoding="utf-8")
    with pytest.raises(ParseError, match=f"artifact 'corpus' path '{re.escape(artifact_path)}' leaves the run directory"):
        load_manifest(path)


def test_load_accepts_nested_paths_and_dotted_names(run_dir):
    path = run_dir / "nested.json"
    artifacts = {"corpus": {"path": "sub/corpus..jsonl", "sha256": "0" * 64}, "loss_curve": {"path": "./loss.csv", "sha256": "0" * 64}}
    path.write_text(json.dumps({"version": "0", "config": {}, "seeds": {}, "artifacts": artifacts}), encoding="utf-8")
    assert load_manifest(path)["artifacts"] == artifacts


def test_load_rejects_non_object(run_dir):
    path = run_dir / "list.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ParseError, match="JSON object"):
        load_manifest(path)


def test_verify_clean(run_dir):
    manifest = build_manifest({}, {}, {"corpus": run_dir / "corpus.jsonl"}, run_dir)
    assert verify_artifacts(manifest, run_dir) == []


def test_verify_detects_modification(run_dir):
    manifest = build_manifest({}, {}, {"corpus": run_dir / "corpus.jsonl"}, run_dir)
    (run_dir / "corpus.jsonl").write_text('{"id": 1}\n', encoding="utf-8")
    problems = verify_artifacts(manifest, run_dir)
    assert len(problems) == 1 and "corpus" in problems[0]


def test_verify_detects_missing_file(run_dir):
    manifest = build_manifest({}, {}, {"loss_curve": run_dir / "loss.csv"}, run_dir)
    (run_dir / "loss.csv").unlink()
    problems = verify_artifacts(manifest, run_dir)
    assert len(problems) == 1 and "loss" in problems[0]
