"""Gaussian utility tests: construction contracts, hand-evaluated densities
of the test oracle, quadrature oracles for the KL divergence."""

import math

import numpy as np
import pytest

from probeplan.errors import InvalidInputError
from probeplan.gaussmath import Gaussian, kl_divergence

from oracles import density, log_density


def g1(mean, var):
    return Gaussian(np.array([mean]), np.array([[var]]))


def kl_quadrature(p: Gaussian, q: Gaussian, span=60.0, n=400_001) -> float:
    """Independent oracle: integrate p * ln(p/q) on a fine 1-D grid."""
    lo = min(p.mean[0], q.mean[0]) - span / 2
    xs = np.linspace(lo, lo + span, n)
    logp = np.array([log_density(p, np.array([x])) for x in xs[:: n // 4001]])
    # vectorized closed form for speed; same formula as log_density
    def logpdf(g, x):
        v = g.cov[0, 0]
        return -0.5 * (np.log(2 * np.pi * v) + (x - g.mean[0]) ** 2 / v)

    assert np.allclose(logp, logpdf(p, xs[:: n // 4001]), atol=1e-10)
    fp = logpdf(p, xs)
    fq = logpdf(q, xs)
    return float(np.trapezoid(np.exp(fp) * (fp - fq), xs))


class TestConstruction:
    def test_symmetrizes_small_asymmetry(self):
        cov = np.array([[1.0, 0.2 + 4e-10], [0.2, 1.0]])
        g = Gaussian(np.zeros(2), cov)
        assert np.array_equal(g.cov, g.cov.T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(InvalidInputError):
            Gaussian(np.zeros(2), np.array([[1.0, 0.3], [0.1, 1.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            Gaussian(np.zeros(3), np.eye(2))

    def test_rejects_negative_definite(self):
        with pytest.raises(InvalidInputError):
            Gaussian(np.zeros(1), np.array([[-0.5]]))

    def test_accepts_tiny_negative_eigenvalue(self):
        g = Gaussian(np.zeros(1), np.array([[-0.5e-9]]))
        assert g.dim == 1

    def test_immutably_shared(self):
        g = g1(0.0, 1.0)
        with pytest.raises(ValueError):
            g.cov[0, 0] = 5.0


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        assert log_density(g1(0.0, 1.0), np.array([0.0])) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_symmetry_about_zero_mean(self):
        g = g1(0.0, 2.7)
        for x in (0.3, 1.9, 4.2):
            assert log_density(g, np.array([x])) == pytest.approx(
                log_density(g, np.array([-x])), abs=1e-12
            )

    def test_2d_standard_at_mean(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        assert log_density(g, np.zeros(2)) == pytest.approx(
            -math.log(2 * math.pi), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            log_density(g1(0.0, 1.0), np.zeros(2))

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mean = float(rng.normal(0, 3))
            var = float(rng.uniform(0.2, 4.0))
            g = g1(mean, var)
            xs = np.linspace(mean - 30, mean + 30, 20001)
            pdf = np.exp([log_density(g, np.array([x])) for x in xs])
            assert float(np.trapezoid(pdf, xs)) == pytest.approx(1.0, abs=1e-3)

    def test_density_positive(self):
        assert density(g1(0, 1), np.array([10.0])) > 0.0


class TestKL:
    def test_identical_is_zero(self):
        g = Gaussian(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert kl_divergence(g, g) == 0.0

    def test_unit_shift_against_quadrature(self):
        p, q = g1(0.0, 1.0), g1(1.0, 1.0)
        closed = kl_divergence(p, q)
        assert closed == pytest.approx(0.5, abs=1e-12)
        assert closed == pytest.approx(kl_quadrature(p, q), abs=1e-4)

    def test_variance_ratio_against_quadrature(self):
        p, q = g1(0.0, 4.0), g1(0.0, 1.0)
        expected = 0.5 * (4.0 - 1.0 - math.log(4.0))
        closed = kl_divergence(p, q)
        assert closed == pytest.approx(expected, abs=1e-12)
        assert closed == pytest.approx(kl_quadrature(p, q), abs=1e-4)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = g1(rng.normal(0, 5), rng.uniform(0.1, 9))
            q = g1(rng.normal(0, 5), rng.uniform(0.1, 9))
            assert kl_divergence(p, q) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            kl_divergence(g1(0, 1), Gaussian(np.zeros(2), np.eye(2)))

