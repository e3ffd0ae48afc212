"""Deterministic 64-bit hashing used for every derived seed in the package.

FNV-1a is small enough to restate exactly and has published constants, so
seeds reproduce across languages and numpy versions. All randomness anywhere
in the package flows from named 64-bit seeds through these helpers; nothing
reads the wall clock.
"""

from __future__ import annotations

import struct

import numpy as np

FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes | str) -> int:
    """FNV-1a hash of ``data`` as an unsigned 64-bit integer."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV_OFFSET_BASIS
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def fnv1a_64_many(items: list[bytes | str]) -> list[int]:
    """``fnv1a_64`` of each item. The items' bytes are the rows of one matrix,
    longest first, and one uint64 step per byte position j covers the leading
    rows longer than j; uint64 multiplication wraps mod 2^64 as the mask does."""
    data = [x.encode("utf-8") if isinstance(x, str) else bytes(x) for x in items]
    lengths = np.array([len(x) for x in data], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    width = int(lengths[0]) if data else 0
    matrix = np.zeros((len(data), width), dtype=np.uint8)
    matrix[np.arange(width) < lengths[:, None]] = np.frombuffer(b"".join(data[i] for i in order), dtype=np.uint8)
    h = np.full(len(data), FNV_OFFSET_BASIS, dtype=np.uint64)
    for j, m in enumerate(np.searchsorted(-lengths, -np.arange(width))):
        h[:m] ^= matrix[:m, j]
        h[:m] *= np.uint64(FNV_PRIME)
    return h[np.argsort(order)].tolist()


def derive_seeds(texts: list[str]) -> list[int]:
    """Seeds for prompts: FNV-1a of each text's UTF-8 bytes."""
    if not all(texts):
        raise ValueError("derive_seeds requires non-empty text")
    return fnv1a_64_many(texts)


def combine_seed(master_seed: int, index: int) -> int:
    """Per-item seed from a master seed and a record index.

    Hashes the two values' little-endian byte encodings so that record i can
    be regenerated in isolation, in any order, on any worker.
    """
    payload = struct.pack("<QQ", master_seed & _MASK64, index & _MASK64)
    return fnv1a_64(payload)


def tagged_seed(master_seed: int, tag: str) -> int:
    """Named sub-seed, e.g. tagged_seed(seed, "rotation-2")."""
    payload = struct.pack("<Q", master_seed & _MASK64) + tag.encode("utf-8")
    return fnv1a_64(payload)
