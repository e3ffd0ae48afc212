"""Run manifests: every artifact a run writes is recorded with a SHA-256
digest, and every seed is recorded by name, so a run can be replayed and
byte-compared later."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from .errors import ParseError, decode_utf8


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(config: dict, seeds: dict[str, int], artifact_paths: dict[str, Path], root: Path) -> dict:
    """Artifacts are stored relative to ``root`` (the run directory)."""
    artifacts = {}
    for name in sorted(artifact_paths):
        path = Path(artifact_paths[name])
        artifacts[name] = {
            "path": str(path.relative_to(root)),
            "sha256": sha256_file(path),
        }
    return {
        "version": __version__,
        "config": config,
        "seeds": seeds,
        "artifacts": artifacts,
    }


def write_manifest(manifest: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> dict:
    try:
        manifest = json.loads(decode_utf8(Path(path).read_bytes(), path))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
    for field in ("version", "config", "seeds", "artifacts"):
        if field not in manifest:
            raise ParseError(f"{path}: manifest is missing {field!r}")
        if field != "version" and not isinstance(manifest[field], dict):
            raise ParseError(f"{path}: manifest {field!r} must be a JSON object")
    for name, entry in manifest["artifacts"].items():
        if not (isinstance(entry, dict) and all(isinstance(entry.get(key), str) for key in ("path", "sha256"))):
            raise ParseError(f"{path}: artifact {name!r} needs string 'path' and 'sha256'")
    return manifest


def verify_artifacts(manifest: dict, root: Path) -> list[str]:
    """Digest-check every artifact under ``root``; returns mismatch messages."""
    problems = []
    for name, entry in sorted(manifest["artifacts"].items()):
        path = root / entry["path"]
        if not path.exists():
            problems.append(f"{name}: missing file {entry['path']}")
            continue
        actual = sha256_file(path)
        if actual != entry["sha256"]:
            problems.append(f"{name}: digest mismatch ({entry['path']}: {actual} != {entry['sha256']})")
    return problems
