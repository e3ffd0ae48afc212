"""Deterministic 64-bit hashing used for every derived seed in the package.

FNV-1a is small enough to restate exactly and has published constants, so
seeds reproduce across languages and numpy versions. All randomness anywhere
in the package flows from named 64-bit seeds through these helpers; nothing
reads the wall clock. Per-item seeds are hashed, and their generators
seeded, a batch at a time: ``seeded_generators`` restates numpy's
SeedSequence hash (O'Neill's seed_seq, which numpy keeps stream-stable) over
uint32 arrays, so each generator is ``np.random.default_rng(seed)`` bit for
bit. ``GeneratorBlock`` goes on to restate the draws themselves, PCG64 and
Generator's bounded integers and doubles, over uint64 arrays, so a block of
records draws from its own streams in one pass; it is checked against numpy
2.4.6, whose streams numpy keeps stable.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, Sequence

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


def _index_payload(master_seed: int, index: int) -> bytes:
    return struct.pack("<QQ", master_seed & _MASK64, index & _MASK64)


def _tag_payload(master_seed: int, tag: str) -> bytes:
    return struct.pack("<Q", master_seed & _MASK64) + tag.encode("utf-8")


def combine_seed(master_seed: int, index: int) -> int:
    """Per-item seed from a master seed and a record index.

    Hashes the two values' little-endian byte encodings so that record i can
    be regenerated in isolation, in any order, on any worker.
    """
    return fnv1a_64(_index_payload(master_seed, index))


def combine_seeds(master_seed: int, indices: Iterable[int]) -> list[int]:
    """``combine_seed(master_seed, i)`` of each index, hashed together."""
    return fnv1a_64_many([_index_payload(master_seed, i) for i in indices])


def tagged_seed(master_seed: int, tag: str) -> int:
    """Named sub-seed, e.g. tagged_seed(seed, "rotation-2")."""
    return fnv1a_64(_tag_payload(master_seed, tag))


def tagged_seeds(master_seed: int, tags: Iterable[str]) -> list[int]:
    """``tagged_seed(master_seed, tag)`` of each tag, hashed together."""
    return fnv1a_64_many([_tag_payload(master_seed, tag) for tag in tags])


# numpy.random.SeedSequence's hash constants. Its hash constant runs through
# INIT * MULT**k (mod 2^32) whatever the data, so the k-th hash of a pass
# xors with power k and multiplies by power k + 1.
_HASH_A = np.array([0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) % (1 << 32) for k in range(17)], dtype=np.uint32)
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) % (1 << 32) for k in range(9)], dtype=np.uint32)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _pcg64_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed, as
    the rows of an (n, 4) uint64 array.

    A seed's entropy is its low uint32 word, then its high word if nonzero.
    The four-word pool hashes a missing word as 0, so the pool (low, high,
    0, 0) covers both cases. uint32 arithmetic wraps as numpy's C code does.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0], pool[1] = seeds & 0xFFFFFFFF, seeds >> 32
    pool = _hashmix(pool, _HASH_A[:4, None], _HASH_A[1:5, None])
    k = 4  # then each word is mixed into every other, in order
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(pool[src], _HASH_A[k], _HASH_A[k + 1])
                pool[dst] = mixed ^ (mixed >> 16)
                k += 1
    # eight uint32 words cycling over the pool, paired low word first
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B[:8, None], _HASH_B[1:, None]).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


class _SeedWords:
    """A seed sequence whose ``generate_state`` returns precomputed words;
    PCG64 asks it for ``(4, np.uint64)`` once, and nothing else does."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def seeded_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(seed)`` of each 64-bit seed, in order: the
    same PCG64 state, so the same draws. The words of every seed are hashed
    on the first ``next``, and each generator is built as it is asked for.
    numpy.random loads then, not on import, so start-up stays as it was."""
    random = np.random
    random.bit_generator.ISeedSequence.register(_SeedWords)
    for words in _pcg64_words(seeds):
        yield random.Generator(random.PCG64(_SeedWords(words)))



_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, as its high and low words
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


class GeneratorBlock:
    """``np.random.default_rng(seed)`` of each seed, restated over uint64
    arrays for ``integers(n)`` and ``random()``. Each method draws for
    ``rows``, an index array, and returns their values in that order, so a
    row sees what its own generator would for the same calls.

    The bit generator is PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit LCG,
    held as high and low words, whose output is XSL-RR of the new state.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        words = _pcg64_words(seeds)
        # numpy's pcg64_set_seed: the increment is (words 2-3) << 1 | 1; the
        # state starts at 0, steps, adds words 0-1 and steps again
        self.inc_hi, self.inc_lo = words[:, 2] << 1 | words[:, 3] >> 63, words[:, 3] << 1 | 1
        self.hi, self.lo = np.zeros_like(self.inc_hi), np.zeros_like(self.inc_lo)
        rows = np.arange(len(words))
        self._next64(rows)
        self.lo += words[:, 1]
        self.hi += words[:, 0] + (self.lo < words[:, 1])
        self._next64(rows)
        self.held, self.has_held = np.zeros_like(self.lo), np.zeros(len(words), dtype=bool)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        """Steps the rows' states, state * multiplier + increment mod 2^128,
        and returns XSL-RR of each new state."""
        hi, lo, inc_lo = self.hi[rows], self.lo[rows], self.inc_lo[rows]
        # the high word of lo times the multiplier's low word, from 32-bit halves
        lo_0, lo_1, mult_0, mult_1 = lo & _M32, lo >> 32, _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
        cross_a, cross_b = lo_0 * mult_1, lo_1 * mult_0
        mid = (lo_0 * mult_0 >> 32) + (cross_a & _M32) + (cross_b & _M32)
        lo_mult_hi = lo_1 * mult_1 + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)
        new_lo = lo * _PCG_MULT_LO + inc_lo
        hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + lo_mult_hi + self.inc_hi[rows] + (new_lo < inc_lo)
        self.hi[rows], self.lo[rows] = hi, new_lo
        x, rot = hi ^ new_lo, hi >> 58
        return x >> rot | x << (64 - rot & 63)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """numpy's buffered 32-bit draw: a row's held half if it has one,
        else the low half of a new 64-bit draw, the high half held."""
        has = self.has_held[rows]
        out, fresh = self.held[rows], rows[~has]
        drawn = self._next64(fresh)
        out[~has], self.held[fresh] = drawn & _M32, drawn >> 32
        self.has_held[rows] = ~has
        return out

    def integers(self, n, rows: np.ndarray) -> np.ndarray:
        """``integers(n)`` of each row, as int64, for 1 <= n < 2^32 (one n,
        or one per row). Lemire's multiply-shift (ACM TOMACS 2019) on 32-bit
        draws: a row redraws while its low word is below (2^32 - n) mod n,
        and n = 1 draws nothing."""
        n = np.broadcast_to(np.asarray(n), rows.shape)
        if n.size and not (n.min() >= 1 and n.max() <= _M32):
            raise ValueError(f"n must be within [1, 2^32), got {n.min()}..{n.max()}")
        n = n.astype(np.uint64)
        threshold, out = (2**32 - n) % n, np.zeros(rows.shape, dtype=np.int64)
        todo = np.flatnonzero(n > 1)
        while todo.size:
            m = self._next32(rows[todo]) * n[todo]
            out[todo] = m >> 32
            todo = todo[(m & _M32) < threshold[todo]]
        return out

    def random(self, rows: np.ndarray) -> np.ndarray:
        """``random()`` of each row: the top 53 bits of a 64-bit draw, times 2^-53."""
        return (self._next64(rows) >> 11) * 2.0**-53
