"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by 20% or more over minutes
while CPU time stays equal to wall time, so the drift is slower execution,
not time spent off the CPU. The benchmark runs this kernel between its ops
and reports each op's wall time in units of the kernel's wall time next to
it. The kernel uses none of partgen's code, so a change to partgen cannot
move it; it mixes the kinds of work partgen does: small float32 dense layers
forward and backward (training), many small float64 matrix-vector products
driven from Python (decoding), string and dict work with JSON (corpus) and
sha256 (manifest).
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import numpy as np

_RNG = np.random.default_rng(20251018)
_X = _RNG.standard_normal((64, 340)).astype(np.float32)
_W1 = (_RNG.standard_normal((256, 340)) * 0.05).astype(np.float32)
_W2 = (_RNG.standard_normal((256, 256)) * 0.05).astype(np.float32)
_E = _RNG.standard_normal((6, 64, 32))
_V = _RNG.standard_normal(32)
_WORDS = [f"w{i:03d}" for i in range(300)]


def _dense(reps: int) -> float:
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(reps):
        h = np.maximum(_X @ w1.T, 0.0)
        y = h @ w2.T
        gy = y * (1.0 / len(y))
        gh = (gy @ w2) * (h > 0)
        w2 -= 1e-3 * (gy.T @ h)
        w1 -= 1e-3 * (gh.T @ _X)
    return float(np.abs(w1).sum() + np.abs(w2).sum())


def _small_products(reps: int) -> int:
    total = 0
    for r in range(reps):
        v = _V + r
        for i in range(len(_E)):
            total += int(np.argmax(_E[i] @ v))
    return total


def _records(n: int) -> str:
    rng = random.Random(7)
    records = [{"id": i, "text": " ".join(rng.choice(_WORDS) for _ in range(6)), "k": rng.randint(2, 6)} for i in range(n)]
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


def run() -> tuple[float, str]:
    """One pass of the kernel: (wall seconds, digest of its outputs)."""
    t0 = time.perf_counter()
    dense = _dense(100)
    products = _small_products(2000)
    text = _records(4000)
    digest = hashlib.sha256(text.encode() * 8).hexdigest()
    wall = time.perf_counter() - t0
    return wall, f"{dense:.3f}:{products}:{digest}"
