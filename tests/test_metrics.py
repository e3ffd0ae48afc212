"""Distribution metrics: Gaussian fits, FID, KID, compositional accuracy."""

import numpy as np
import pytest

from partgen.errors import DimensionMismatch, NonConvergent, TooFewSamples
from partgen.metrics import (
    GaussianStats,
    compositional_accuracy,
    compositional_accuracy_by_k,
    fid,
    gaussian_stats,
    kid,
    mmd2_unbiased,
)
from partgen.taxonomy import generate_corpus
from partgen.world import compose_target, condition_set


def denman_beavers_sqrt(matrix: np.ndarray, iters: int = 60) -> np.ndarray:
    """Independent matrix square root oracle (inverse-pair iteration)."""
    y = matrix.astype(np.float64).copy()
    z = np.eye(matrix.shape[0])
    for _ in range(iters):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        y, z = y_next, z_next
        if np.abs(y @ y - matrix).max() < 1e-13:
            break
    return y


def fid_oracle(a: GaussianStats, b: GaussianStats) -> float:
    """Textbook Frechet distance via the Denman-Beavers square root of the
    covariance product."""
    cross = denman_beavers_sqrt(a.sigma @ b.sigma)
    mean_term = float(np.sum((a.mu - b.mu) ** 2))
    return mean_term + float(np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * np.trace(cross))


def _random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d))
    return m @ m.T / d + 0.5 * np.eye(d)


def _stats(mu, sigma) -> GaussianStats:
    return GaussianStats(mu=np.asarray(mu, dtype=np.float64), sigma=np.asarray(sigma, dtype=np.float64), n=1000)


class TestGaussianStats:
    def test_matches_numpy(self):
        x = np.random.default_rng(0).standard_normal((50, 6))
        stats = gaussian_stats(x)
        assert np.allclose(stats.mu, x.mean(axis=0))
        assert np.allclose(stats.sigma, np.cov(x, rowvar=False))
        assert stats.n == 50

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            gaussian_stats(np.ones((1, 4)))

    def test_sigma_symmetric(self):
        x = np.random.default_rng(1).standard_normal((30, 5))
        stats = gaussian_stats(x)
        assert np.array_equal(stats.sigma, stats.sigma.T)


class TestFid:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(2)
        stats = gaussian_stats(rng.standard_normal((200, 8)))
        assert abs(fid(stats, stats)) < 1e-8

    def test_equal_covariance_closed_form(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 64):
            sigma = _random_spd(rng, d)
            mu_a = rng.standard_normal(d)
            mu_b = rng.standard_normal(d)
            expected = float(np.sum((mu_a - mu_b) ** 2))
            assert abs(fid(_stats(mu_a, sigma), _stats(mu_b, sigma)) - expected) < 1e-8

    def test_diagonal_closed_form(self):
        a_diag = np.array([1.0, 4.0, 9.0])
        b_diag = np.array([16.0, 1.0, 25.0])
        expected = float(np.sum((np.sqrt(a_diag) - np.sqrt(b_diag)) ** 2)) + 3.0
        got = fid(_stats(np.zeros(3), np.diag(a_diag)), _stats(np.ones(3), np.diag(b_diag)))
        assert abs(got - expected) < 1e-10

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(4)
        for d in (3, 8, 32):
            a = _stats(rng.standard_normal(d), _random_spd(rng, d))
            b = _stats(rng.standard_normal(d), _random_spd(rng, d))
            assert fid(a, b) == pytest.approx(fid_oracle(a, b), abs=1e-6)

    def test_dimension_mismatch(self):
        a = _stats(np.zeros(3), np.eye(3))
        b = _stats(np.zeros(4), np.eye(4))
        with pytest.raises(DimensionMismatch):
            fid(a, b)

    def test_non_psd_rejected(self):
        bad = _stats(np.zeros(3), np.diag([1.0, 1.0, -0.5]))
        good = _stats(np.zeros(3), np.eye(3))
        with pytest.raises(NonConvergent):
            fid(bad, good)

    def test_tiny_negative_eigenvalues_clamped(self):
        # round-off level negatives must not raise
        sigma = np.eye(3)
        sigma[2, 2] = -1e-12
        assert np.isfinite(fid(_stats(np.zeros(3), sigma), _stats(np.zeros(3), np.eye(3))))


class TestKid:
    def test_hand_expanded_three_samples(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal((3, 4))
        d = 4

        def kernel(u, v):
            return (float(u @ v) / d + 1.0) ** 3

        xx = sum(kernel(x[i], x[j]) for i in range(3) for j in range(3) if i != j) / 6.0
        yy = sum(kernel(y[i], y[j]) for i in range(3) for j in range(3) if i != j) / 6.0
        xy = sum(kernel(x[i], y[j]) for i in range(3) for j in range(3)) / 9.0
        assert abs(mmd2_unbiased(x, y) - (xx + yy - 2.0 * xy)) < 1e-12

    def test_same_distribution_near_zero(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((500, 16))
        y = rng.standard_normal((500, 16))
        mean, std = kid(x, y, subset_size=100, n_subsets=10, rng=np.random.default_rng(7))
        assert abs(mean) <= 3.0 * std

    def test_separated_distributions_positive(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((300, 8))
        y = rng.standard_normal((300, 8)) + 2.0
        mean, _ = kid(x, y, subset_size=50, n_subsets=8, rng=np.random.default_rng(9))
        assert mean > 1.0

    def test_deterministic_given_rng_seed(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((200, 8))
        y = rng.standard_normal((200, 8))
        a = kid(x, y, subset_size=50, n_subsets=5, rng=np.random.default_rng(11))
        b = kid(x, y, subset_size=50, n_subsets=5, rng=np.random.default_rng(11))
        assert a == b

    def test_minimum_sizes(self):
        with pytest.raises(TooFewSamples):
            mmd2_unbiased(np.ones((1, 3)), np.ones((5, 3)))


class TestCompositionalAccuracy:
    def test_oracle_targets_score_one(self, taxonomy, world):
        records = list(generate_corpus(taxonomy, 40, master_seed=41))
        conds = [condition_set(r.atoms, world) for r in records]
        samples = [(compose_target(c, world), c) for c in conds]
        assert compositional_accuracy(samples, world) == 1.0
        by_k = compositional_accuracy_by_k(samples, world)
        assert set(by_k) <= {2, 3, 4}
        assert all(v == 1.0 for v in by_k.values())

    def test_random_vectors_score_low(self, taxonomy, world):
        rng = np.random.default_rng(12)
        records = list(generate_corpus(taxonomy, 30, master_seed=42))
        conds = [condition_set(r.atoms, world) for r in records]
        samples = []
        for c in conds:
            v = rng.standard_normal(world.d)
            samples.append((v / np.linalg.norm(v), c))
        assert compositional_accuracy(samples, world) < 0.2

    def test_empty_input_rejected(self, world):
        with pytest.raises(ValueError):
            compositional_accuracy([], world)
