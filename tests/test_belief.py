"""Hierarchical belief tests.

The central oracle enumerates the joint posterior p(i,k|z) proportional to
pi_i * w_{i,k} * l_{i,k}, then marginalizes: the two-level update must
match it entry by entry.
"""

import math

import numpy as np
import pytest

from probeplan.belief import (
    HierarchicalBelief,
    ModeTarget,
    ModeTargetSet,
    entropy,
    joint_weights,
    max_entropy,
    uniform_belief,
    update,
)
from probeplan.errors import DegenerateEvidenceError, InvalidInputError
from probeplan.gaussmath import Gaussian, density


def make_targets(means, variances=None):
    """means: list of rows, row i holding mode means of intent i+1 (1-D)."""
    targets = []
    for i, row in enumerate(means, start=1):
        for k, mu in enumerate(row, start=1):
            var = variances[i - 1][k - 1] if variances else 1.0
            targets.append(
                ModeTarget(i, k, Gaussian(np.array([float(mu)]), np.array([[var]])))
            )
    return ModeTargetSet(targets)


def oracle_update(b, z):
    """Brute-force joint enumeration of the posterior."""
    joint = {}
    for t in b.targets.targets:
        i, k = t.intent_id, t.mode_id
        lik = density(t.target, z)
        joint[(i, k)] = b.intent_probs[i - 1] * b.mode_weights[i - 1][k - 1] * lik
    total = sum(joint.values())
    pi = np.zeros(b.targets.num_intents)
    for (i, _), v in joint.items():
        pi[i - 1] += v / total
    w = []
    for i, kk in enumerate(b.targets.modes_per_intent, start=1):
        # Mode rows renormalize within the intent regardless of pi_i.
        row = np.array(
            [b.mode_weights[i - 1][k - 1] * density(b.targets.get(i, k).target, z)
             for k in range(1, kk + 1)]
        )
        w.append(row / row.sum())
    return pi, w


def random_belief(rng, num_intents=None, modes=None):
    num_intents = num_intents or int(rng.integers(1, 5))
    modes = modes or [int(rng.integers(1, 4)) for _ in range(num_intents)]
    means = [[rng.normal(0, 4) for _ in range(k)] for k in modes]
    variances = [[rng.uniform(0.3, 3.0) for _ in range(k)] for k in modes]
    targets = make_targets(means, variances)
    pi = rng.dirichlet(np.ones(num_intents))
    w = tuple(rng.dirichlet(np.ones(k)) for k in modes)
    return HierarchicalBelief(pi, w, targets)


class TestUniform:
    def test_three_by_three(self):
        b = uniform_belief(make_targets([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
        assert np.allclose(b.intent_probs, [1 / 3] * 3, atol=1e-15)
        for row in b.mode_weights:
            assert np.allclose(row, [1 / 3] * 3, atol=1e-15)

    def test_degenerate(self):
        b = uniform_belief(make_targets([[0.0]]))
        assert np.array_equal(b.intent_probs, [1.0])
        assert np.array_equal(b.mode_weights[0], [1.0])

    def test_ragged(self):
        b = uniform_belief(make_targets([[0.0], [1.0, 2.0, 3.0]]))
        assert np.allclose(b.intent_probs, [0.5, 0.5])
        assert np.array_equal(b.mode_weights[0], [1.0])
        assert np.allclose(b.mode_weights[1], [1 / 3] * 3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            ModeTargetSet([])


class TestUpdate:
    def test_uninformative_observation_is_identity(self):
        # All targets identical: every mode explains z equally well.
        targets = make_targets([[5.0, 5.0], [5.0, 5.0]])
        rng = np.random.default_rng(0)
        b = random_belief(rng, num_intents=2, modes=[2, 2])
        b = HierarchicalBelief(b.intent_probs, b.mode_weights, targets)
        out = update(b, np.array([1.3]))
        assert np.allclose(out.intent_probs, b.intent_probs, atol=1e-12)
        for r_out, r_in in zip(out.mode_weights, b.mode_weights):
            assert np.allclose(r_out, r_in, atol=1e-12)

    def test_four_to_one_likelihood_ratio(self):
        # z chosen so the density ratio is exactly 4; posterior [0.8, 0.2].
        targets = make_targets([[0.0], [2.0]])
        b = uniform_belief(targets)
        z = np.array([1.0 - 0.5 * math.log(4.0)])
        out = update(b, z)
        assert np.allclose(out.intent_probs, [0.8, 0.2], atol=1e-12)
        assert np.array_equal(out.mode_weights[0], [1.0])
        assert np.array_equal(out.mode_weights[1], [1.0])

    def test_matches_joint_bayes_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            b = random_belief(rng)
            z = np.array([rng.normal(0, 5)])
            out = update(b, z)
            pi, w = oracle_update(b, z)
            assert np.allclose(out.intent_probs, pi, atol=1e-10)
            for r_out, r_or in zip(out.mode_weights, w):
                assert np.allclose(r_out, r_or, atol=1e-10)

    def test_input_unchanged(self):
        b = uniform_belief(make_targets([[0.0, 2.0]]))
        before = b.intent_probs.copy()
        update(b, np.array([0.5]))
        assert np.array_equal(b.intent_probs, before)

    def test_chained_normalization(self):
        rng = np.random.default_rng(1)
        b = random_belief(rng, num_intents=3, modes=[3, 3, 3])
        for _ in range(300):
            b = update(b, np.array([rng.normal(0, 3)]))
            assert abs(b.intent_probs.sum() - 1.0) < 1e-9
            for row in b.mode_weights:
                assert abs(row.sum() - 1.0) < 1e-9

    def test_zero_intent_stays_zero(self):
        targets = make_targets([[0.0], [1.0]])
        b = HierarchicalBelief(
            np.array([1.0, 0.0]), (np.array([1.0]), np.array([1.0])), targets
        )
        out = update(b, np.array([1.0]))  # evidence favors the dead intent
        assert out.intent_probs[1] == 0.0
        assert out.intent_probs[0] == 1.0

    def test_degenerate_belief_is_fixed_point(self):
        targets = make_targets([[0.0, 4.0], [1.0, 5.0]])
        b = HierarchicalBelief(
            np.array([0.0, 1.0]),
            (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            targets,
        )
        out = update(b, np.array([2.2]))
        assert np.array_equal(out.intent_probs, b.intent_probs)
        for r_out, r_in in zip(out.mode_weights, b.mode_weights):
            assert np.array_equal(r_out, r_in)

    def test_degenerate_evidence_raises(self):
        b = uniform_belief(make_targets([[0.0], [0.5]]))
        with pytest.raises(DegenerateEvidenceError):
            update(b, np.array([1.0e160]))

    def test_log_space_matches_naive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = random_belief(rng)
            z = np.array([rng.normal(0, 2)])
            out = update(b, z)
            # Naive linear-scale arithmetic of the same update.
            lik = {
                (t.intent_id, t.mode_id): density(t.target, z)
                for t in b.targets.targets
            }
            intent_liks = np.array(
                [
                    sum(
                        b.mode_weights[i - 1][k - 1] * lik[(i, k)]
                        for k in range(1, b.targets.modes_per_intent[i - 1] + 1)
                    )
                    for i in range(1, b.targets.num_intents + 1)
                ]
            )
            naive_pi = b.intent_probs * intent_liks
            naive_pi = naive_pi / naive_pi.sum()
            assert np.allclose(out.intent_probs, naive_pi, atol=1e-12)


class TestJointWeights:
    def test_uniform_three_by_three(self):
        b = uniform_belief(make_targets([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
        omega = joint_weights(b)
        assert omega.shape == (9,)
        assert np.allclose(omega, 1 / 9, atol=1e-12)

    def test_zero_intent_row(self):
        targets = make_targets([[0.0, 1.0], [2.0, 3.0]])
        b = HierarchicalBelief(
            np.array([1.0, 0.0]),
            (np.array([0.5, 0.5]), np.array([0.5, 0.5])),
            targets,
        )
        # Flat in target order: (1,1), (1,2), (2,1), (2,2).
        assert np.array_equal(joint_weights(b), [0.5, 0.5, 0.0, 0.0])

    def test_single_mode_rows(self):
        targets = make_targets([[0.0], [1.0]])
        b = HierarchicalBelief(
            np.array([0.8, 0.2]), (np.array([1.0]), np.array([1.0])), targets
        )
        omega = joint_weights(b)
        assert omega[0] == pytest.approx(0.8)
        assert omega[1] == pytest.approx(0.2)

    def test_flat_in_target_order(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            b = random_belief(rng)
            expected = [
                b.intent_probs[t.intent_id - 1] * b.mode_weights[t.intent_id - 1][t.mode_id - 1]
                for t in b.targets.targets
            ]
            assert np.array_equal(joint_weights(b), expected)

    def test_total_mass_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            b = random_belief(rng)
            assert float(joint_weights(b).sum()) == pytest.approx(1.0, abs=1e-9)


class TestEntropy:
    def test_degenerate_zero(self):
        targets = make_targets([[0.0, 1.0], [2.0, 3.0]])
        b = HierarchicalBelief(
            np.array([1.0, 0.0]),
            (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            targets,
        )
        assert entropy(b) == 0.0

    def test_uniform_three_by_three(self):
        b = uniform_belief(make_targets([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
        assert entropy(b) == pytest.approx(4 * math.log(3), abs=1e-12)

    def test_unweighted_mode_term(self):
        # pi concentrated, every row uniform over 2 modes: H = 0 + 3 ln 2.
        targets = make_targets([[0, 1], [2, 3], [4, 5]])
        b = HierarchicalBelief(
            np.array([1.0, 0.0, 0.0]),
            tuple(np.array([0.5, 0.5]) for _ in range(3)),
            targets,
        )
        assert entropy(b) == pytest.approx(3 * math.log(2), abs=1e-12)
        assert entropy(b, pi_weighted_modes=True) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_uniform_maximizes(self):
        targets = make_targets([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        h_max = max_entropy(targets)
        assert h_max == pytest.approx(4 * math.log(3), abs=1e-14)
        rng = np.random.default_rng(17)
        for _ in range(500):
            pi = rng.dirichlet(np.ones(3))
            w = tuple(rng.dirichlet(np.ones(3)) for _ in range(3))
            b = HierarchicalBelief(pi, w, targets)
            assert entropy(b) <= h_max + 1e-12


class TestValidation:
    def test_duplicate_mode_rejected(self):
        g = Gaussian(np.array([0.0]), np.array([[1.0]]))
        with pytest.raises(InvalidInputError):
            ModeTargetSet([ModeTarget(1, 1, g), ModeTarget(1, 1, g)])

    def test_noncontiguous_rejected(self):
        g = Gaussian(np.array([0.0]), np.array([[1.0]]))
        with pytest.raises(InvalidInputError):
            ModeTargetSet([ModeTarget(1, 1, g), ModeTarget(3, 1, g)])

    def test_dim_mismatch_rejected(self):
        g1d = Gaussian(np.array([0.0]), np.array([[1.0]]))
        g2d = Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidInputError):
            ModeTargetSet([ModeTarget(1, 1, g1d), ModeTarget(2, 1, g2d)])

    def test_bad_probabilities_rejected(self):
        targets = make_targets([[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            HierarchicalBelief(
                np.array([0.7, 0.7]), (np.array([1.0]), np.array([1.0])), targets
            )
