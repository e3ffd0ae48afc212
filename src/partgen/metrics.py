"""Distribution metrics over embedding samples: Frechet distance, kernel
MMD with subset resampling, and slot-level compositional accuracy."""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonConvergent, TooFewSamples
from .taxonomy import SemanticAtom
from .world import ConditionSet, WorldSpec, decode_parts

_EIG_CLAMP = -1e-8


@dataclasses.dataclass
class GaussianStats:
    mu: np.ndarray
    sigma: np.ndarray
    n: int


def gaussian_stats(samples: Sequence[np.ndarray] | np.ndarray) -> GaussianStats:
    """Sample mean and unbiased covariance (n - 1 denominator)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise TooFewSamples("need at least 2 samples as rows")
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = centered.T @ centered / (x.shape[0] - 1)
    return GaussianStats(mu=mu, sigma=(sigma + sigma.T) / 2.0, n=x.shape[0])


def _psd_eigh(matrix: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        vals, vecs = np.linalg.eigh((matrix + matrix.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NonConvergent(f"eigendecomposition failed for {label}: {exc}") from exc
    if np.any(vals < _EIG_CLAMP):
        raise NonConvergent(f"{label} has eigenvalue {vals.min():.3e}, below the clamp threshold")
    return np.clip(vals, 0.0, None), vecs


def fid(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + Tr(Sigma_a + Sigma_b - 2 (Sigma_a Sigma_b)^(1/2)).

    The cross term uses the eigendecomposition of the symmetrized product
    Sigma_a^(1/2) Sigma_b Sigma_a^(1/2); eigenvalues in (-1e-8, 0) are
    rounding debris and clamp to zero.
    """
    if a.mu.shape != b.mu.shape:
        raise DimensionMismatch(f"stats dims differ: {a.mu.shape} vs {b.mu.shape}")
    vals_a, vecs_a = _psd_eigh(a.sigma, "Sigma_a")
    root_a = vecs_a @ np.diag(np.sqrt(vals_a)) @ vecs_a.T
    product = root_a @ b.sigma @ root_a
    vals_p, _ = _psd_eigh(product, "Sigma_a^(1/2) Sigma_b Sigma_a^(1/2)")
    trace_sqrt = float(np.sum(np.sqrt(vals_p)))
    diff = a.mu - b.mu
    return float(diff @ diff + np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * trace_sqrt)


def _poly_kernel(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    d = u.shape[1]
    return (u @ v.T / d + 1.0) ** 3


def mmd2_unbiased(x: np.ndarray, y: np.ndarray) -> float:
    """Unbiased squared MMD with the cubic polynomial kernel; the within-set
    sums skip their diagonals."""
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise TooFewSamples("unbiased MMD^2 needs at least 2 samples per side")
    kxx = _poly_kernel(x, x)
    kyy = _poly_kernel(y, y)
    kxy = _poly_kernel(x, y)
    sum_xx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    sum_yy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    sum_xy = kxy.sum() / (m * n)
    return float(sum_xx + sum_yy - 2.0 * sum_xy)


def kid(
    x: np.ndarray,
    y: np.ndarray,
    subset_size: int = 100,
    n_subsets: int = 10,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Mean and sample std (ddof 1) of unbiased MMD^2 over random subset pairs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if subset_size > min(x.shape[0], y.shape[0]):
        raise TooFewSamples(f"subset_size {subset_size} exceeds sample count {min(x.shape[0], y.shape[0])}")
    if n_subsets < 2:
        raise ValueError("n_subsets must be >= 2")
    rng = rng or np.random.default_rng(0)
    values = []
    for _ in range(n_subsets):
        ix = rng.choice(x.shape[0], size=subset_size, replace=False)
        iy = rng.choice(y.shape[0], size=subset_size, replace=False)
        values.append(mmd2_unbiased(x[ix], y[iy]))
    values = np.asarray(values)
    return float(values.mean()), float(values.std(ddof=1))


def slot_match(
    decoded: Sequence[Sequence[SemanticAtom]], conds: Sequence[ConditionSet]
) -> tuple[list[float], float, dict[int, float]]:
    """Per sample, the fraction of slots whose decoded atom matches the
    conditioning atom; their mean (compositional accuracy); and their mean
    per slot count, each group in sample order."""
    if not conds:
        raise ValueError("samples must be non-empty")
    fractions = [sum(d.key == a.key for d, a in zip(atoms, cond.atoms)) / cond.k for atoms, cond in zip(decoded, conds)]
    by_k: dict[int, list[float]] = {}
    for fraction, cond in zip(fractions, conds):
        by_k.setdefault(cond.k, []).append(fraction)
    return fractions, float(np.mean(fractions)), {k: float(np.mean(group)) for k, group in sorted(by_k.items())}


def _decode_and_match(samples, world: WorldSpec):
    conds = [cond for _, cond in samples]
    return slot_match([decode_parts(generated, cond.k, world) for generated, cond in samples], conds)


def compositional_accuracy(samples: Sequence[tuple[np.ndarray, ConditionSet]], world: WorldSpec) -> float:
    """slot_match's mean over (generated, cond) pairs not yet decoded."""
    return _decode_and_match(samples, world)[1]


def compositional_accuracy_by_k(samples: Sequence[tuple[np.ndarray, ConditionSet]], world: WorldSpec) -> dict[int, float]:
    """slot_match's per-k means over (generated, cond) pairs not yet decoded."""
    return _decode_and_match(samples, world)[2]
