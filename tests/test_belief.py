"""Hierarchical belief tests.

The central oracle enumerates the joint posterior p(i,k|z) proportional to
pi_i * w_{i,k} * l_{i,k}, then marginalizes: the two-level update must
match it entry by entry.

The belief kernels work on one flat mode-weight vector with segment sums.
Row-by-row loop oracles (one intent at a time, sums by ``row.sum()``) pin
them bit for bit, so a change in summation order fails here even when it
stays within rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeplan.belief import (
    HierarchicalBelief,
    _underflows,
    ModeTarget,
    ModeTargetSet,
    entropy,
    joint_weights,
    posterior_entropies,
    relax_mode_weights,
    uniform_belief,
    update,
)
from probeplan.errors import DegenerateEvidenceError, InvalidInputError
from probeplan.gaussmath import Gaussian

from oracles import density, einsum_log_likelihoods


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
    for t, w_m in zip(b.targets.targets, b.mode_weights):
        i, k = t.intent_id, t.mode_id
        lik = density(t.target, z)
        joint[(i, k)] = b.intent_probs[i - 1] * w_m * lik
    total = sum(joint.values())
    pi = np.zeros(b.targets.num_intents)
    for (i, _), v in joint.items():
        pi[i - 1] += v / total
    w = []
    for i in range(1, b.targets.num_intents + 1):
        # Mode rows renormalize within the intent regardless of pi_i.
        row = np.array(
            [w_m * density(t.target, z)
             for t, w_m in zip(b.targets.targets, b.mode_weights) if t.intent_id == i]
        )
        w.append(row / row.sum())
    return pi, w


def split_rows(b, flat):
    """A per-mode vector of ``b`` cut into one row per intent."""
    return np.split(flat, np.cumsum(b.targets.modes_per_intent)[:-1])


def loop_update(b, z):
    """Row-wise reference for ``update``: one intent at a time, each sum
    taken with ``row.sum()``, the likelihoods from the einsum oracle.
    Returns (pi, rows) or raises like it."""
    rows = split_rows(b, b.mode_weights)
    lls = split_rows(b, einsum_log_likelihoods(b.targets, np.array([[z]], dtype=float))[0])
    row_max = np.array([np.where(w > 0.0, ll, -np.inf).max() for ll, w in zip(lls, rows)])
    global_max = float(row_max.max())
    if not np.all(np.isfinite(row_max)):
        raise DegenerateEvidenceError("row underflow")
    weighted = [
        w * np.exp(np.where(w > 0.0, ll - m, -np.inf)) for ll, w, m in zip(lls, rows, row_max)
    ]
    row_sum = np.array([row.sum() for row in weighted])
    post = b.intent_probs * (np.exp(row_max - global_max) * row_sum)
    z_rel = float(post.sum())
    if z_rel <= 0.0 or global_max + math.log(z_rel) < math.log(1e-300):
        raise DegenerateEvidenceError("evidence underflow")
    return post / z_rel, [row / row.sum() for row in weighted]


def loop_relax(b, forgetting):
    return [(1.0 - forgetting) * row + forgetting / row.shape[0]
            for row in split_rows(b, b.mode_weights)]


def loop_joint(b):
    return [b.intent_probs[i] * w
            for i, row in enumerate(split_rows(b, b.mode_weights)) for w in row]


def loop_entropy(b, pi_weighted_modes=False):
    pi = b.intent_probs
    h = -float(np.sum(pi * np.log(pi, where=pi > 0, out=np.zeros_like(pi))))
    for i, row in enumerate(split_rows(b, b.mode_weights)):
        row_h = -float(np.sum(row * np.log(row, where=row > 0, out=np.zeros_like(row))))
        h += pi[i] * row_h if pi_weighted_modes else row_h
    return max(0.0, h)


def assert_kernels_match_loops(b, z, forgetting=0.02):
    """Every flat kernel equals its row-wise loop oracle exactly."""
    assert np.array_equal(joint_weights(b), loop_joint(b))
    for weighted in (False, True):
        assert entropy(b, weighted) == loop_entropy(b, weighted)
    assert np.array_equal(relax_mode_weights(b, forgetting).mode_weights,
                          np.concatenate(loop_relax(b, forgetting)))
    try:
        pi, rows = loop_update(b, z)
    except DegenerateEvidenceError:
        with pytest.raises(DegenerateEvidenceError):
            update(b, z)
        return
    out = update(b, z)
    assert np.array_equal(out.intent_probs, pi)
    assert np.array_equal(out.mode_weights, np.concatenate(rows))


def random_belief(rng, num_intents=None, modes=None, var_scale=1.0):
    num_intents = num_intents or int(rng.integers(1, 5))
    modes = modes or [int(rng.integers(1, 4)) for _ in range(num_intents)]
    means = [[rng.normal(0, 4) for _ in range(k)] for k in modes]
    variances = [[var_scale * rng.uniform(0.3, 3.0) for _ in range(k)] for k in modes]
    targets = make_targets(means, variances)
    pi = rng.dirichlet(np.ones(num_intents))
    w = np.concatenate([rng.dirichlet(np.ones(k)) for k in modes])
    return HierarchicalBelief(pi, w, targets)


def with_zeros(rng, b):
    """``b`` with, at random, one intent's mass and one mode's weight per
    intent set to zero and the rest renormalized."""
    pi = b.intent_probs.copy()
    if pi.size > 1 and rng.random() < 0.5:
        pi[rng.integers(pi.size)] = 0.0
        pi /= pi.sum()
    rows = []
    for row in b.rows():
        row = row.copy()
        if row.size > 1 and rng.random() < 0.5:
            row[rng.integers(row.size)] = 0.0
            row /= row.sum()
        rows.append(row)
    return HierarchicalBelief(pi, np.concatenate(rows), b.targets)


@st.composite
def beliefs(draw):
    """Ragged beliefs, 1-4 intents x 1-4 modes, zeros included."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    means = [[draw(st.floats(-10.0, 10.0)) for _ in range(k)] for k in counts]
    variances = [[draw(st.floats(0.3, 3.0)) for _ in range(k)] for k in counts]

    def simplex(size):
        raw = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                            min_size=size, max_size=size).filter(lambda r: sum(r) > 0.0))
        return np.array(raw) / sum(raw)

    pi = simplex(len(counts))
    w = np.concatenate([simplex(k) for k in counts])
    return HierarchicalBelief(pi, w, make_targets(means, variances))


class TestUniform:
    def test_three_by_three(self):
        b = uniform_belief(make_targets([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
        assert np.allclose(b.intent_probs, [1 / 3] * 3, atol=1e-15)
        for row in b.rows():
            assert np.allclose(row, [1 / 3] * 3, atol=1e-15)

    def test_degenerate(self):
        b = uniform_belief(make_targets([[0.0]]))
        assert np.array_equal(b.intent_probs, [1.0])
        assert np.array_equal(b.mode_weights, [1.0])

    def test_ragged(self):
        b = uniform_belief(make_targets([[0.0], [1.0, 2.0, 3.0]]))
        assert np.allclose(b.intent_probs, [0.5, 0.5])
        assert np.array_equal(b.rows()[0], [1.0])
        assert np.allclose(b.rows()[1], [1 / 3] * 3)

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
        out = update(b, 1.3)
        assert np.allclose(out.intent_probs, b.intent_probs, atol=1e-12)
        for r_out, r_in in zip(out.rows(), b.rows()):
            assert np.allclose(r_out, r_in, atol=1e-12)

    def test_four_to_one_likelihood_ratio(self):
        # z chosen so the density ratio is exactly 4; posterior [0.8, 0.2].
        targets = make_targets([[0.0], [2.0]])
        b = uniform_belief(targets)
        z = 1.0 - 0.5 * math.log(4.0)
        out = update(b, z)
        assert np.allclose(out.intent_probs, [0.8, 0.2], atol=1e-12)
        assert np.array_equal(out.rows()[0], [1.0])
        assert np.array_equal(out.rows()[1], [1.0])

    def test_matches_joint_bayes_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            b = random_belief(rng)
            z = rng.normal(0, 5)
            out = update(b, z)
            pi, w = oracle_update(b, z)
            assert np.allclose(out.intent_probs, pi, atol=1e-10)
            for r_out, r_or in zip(out.rows(), w):
                assert np.allclose(r_out, r_or, atol=1e-10)

    def test_input_unchanged(self):
        b = uniform_belief(make_targets([[0.0, 2.0]]))
        before = b.intent_probs.copy()
        update(b, 0.5)
        assert np.array_equal(b.intent_probs, before)

    def test_chained_normalization(self):
        rng = np.random.default_rng(1)
        b = random_belief(rng, num_intents=3, modes=[3, 3, 3])
        for _ in range(300):
            b = update(b, rng.normal(0, 3))
            assert abs(b.intent_probs.sum() - 1.0) < 1e-9
            for row in b.rows():
                assert abs(row.sum() - 1.0) < 1e-9

    def test_zero_intent_stays_zero(self):
        targets = make_targets([[0.0], [1.0]])
        b = HierarchicalBelief(np.array([1.0, 0.0]), np.array([1.0, 1.0]), targets)
        out = update(b, 1.0)  # evidence favors the dead intent
        assert out.intent_probs[1] == 0.0
        assert out.intent_probs[0] == 1.0

    def test_degenerate_belief_is_fixed_point(self):
        targets = make_targets([[0.0, 4.0], [1.0, 5.0]])
        b = HierarchicalBelief(np.array([0.0, 1.0]), np.array([1.0, 0.0, 0.0, 1.0]), targets)
        out = update(b, 2.2)
        assert np.array_equal(out.intent_probs, b.intent_probs)
        for r_out, r_in in zip(out.rows(), b.rows()):
            assert np.array_equal(r_out, r_in)

    def test_degenerate_evidence_raises(self):
        b = uniform_belief(make_targets([[0.0], [0.5]]))
        with pytest.raises(DegenerateEvidenceError):
            update(b, 1.0e160)

    def test_log_space_matches_naive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = random_belief(rng)
            z = rng.normal(0, 2)
            out = update(b, z)
            # Naive linear-scale arithmetic of the same update.
            intent_liks = np.zeros(b.targets.num_intents)
            for t, w_m in zip(b.targets.targets, b.mode_weights):
                intent_liks[t.intent_id - 1] += w_m * density(t.target, z)
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
        b = HierarchicalBelief(np.array([1.0, 0.0]), np.array([0.5, 0.5, 0.5, 0.5]), targets)
        # Flat in target order: (1,1), (1,2), (2,1), (2,2).
        assert np.array_equal(joint_weights(b), [0.5, 0.5, 0.0, 0.0])

    def test_single_mode_rows(self):
        targets = make_targets([[0.0], [1.0]])
        b = HierarchicalBelief(np.array([0.8, 0.2]), np.array([1.0, 1.0]), targets)
        omega = joint_weights(b)
        assert omega[0] == pytest.approx(0.8)
        assert omega[1] == pytest.approx(0.2)

    def test_flat_in_target_order(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            b = random_belief(rng)
            expected = [
                b.intent_probs[t.intent_id - 1] * w_m
                for t, w_m in zip(b.targets.targets, b.mode_weights)
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
        b = HierarchicalBelief(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 1.0]), targets)
        assert entropy(b) == 0.0

    def test_uniform_three_by_three(self):
        b = uniform_belief(make_targets([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
        assert entropy(b) == pytest.approx(4 * math.log(3), abs=1e-12)

    def test_unweighted_mode_term(self):
        # pi concentrated, every row uniform over 2 modes: H = 0 + 3 ln 2.
        targets = make_targets([[0, 1], [2, 3], [4, 5]])
        b = HierarchicalBelief(np.array([1.0, 0.0, 0.0]), np.full(6, 0.5), targets)
        assert entropy(b) == pytest.approx(3 * math.log(2), abs=1e-12)
        assert entropy(b, pi_weighted_modes=True) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_uniform_maximizes(self):
        targets = make_targets([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        h_max = entropy(uniform_belief(targets))
        assert h_max == pytest.approx(4 * math.log(3), abs=1e-14)
        rng = np.random.default_rng(17)
        for _ in range(500):
            pi = rng.dirichlet(np.ones(3))
            w = np.concatenate([rng.dirichlet(np.ones(3)) for _ in range(3)])
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

    def test_two_dimensional_target_rejected(self):
        # The observation is the human's speed.
        g1d = Gaussian(np.array([0.0]), np.array([[1.0]]))
        g2d = Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidInputError, match=r"\(2, 1\) must be 1-dimensional"):
            ModeTargetSet([ModeTarget(1, 1, g1d), ModeTarget(2, 1, g2d)])
        with pytest.raises(InvalidInputError, match="1-dimensional"):
            ModeTargetSet([ModeTarget(1, 1, g2d)])

    def test_bad_probabilities_rejected(self):
        targets = make_targets([[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            HierarchicalBelief(np.array([0.7, 0.7]), np.array([1.0, 1.0]), targets)
        # NaN fails both range comparisons and the sum check, and such a
        # belief read as certain (entropy 0).
        three = make_targets([[0.0], [1.0], [2.0, 3.0]])
        with pytest.raises(InvalidInputError, match="intent probabilities"):
            HierarchicalBelief([math.nan, 0.5, 0.5], np.array([1.0, 1.0, 0.5, 0.5]), three)
        with pytest.raises(InvalidInputError, match="mode weights"):
            HierarchicalBelief(np.full(3, 1 / 3), np.array([1.0, 1.0, math.nan, 0.5]), three)
        with pytest.raises(InvalidInputError, match="mode weights must have length 4"):
            HierarchicalBelief(np.full(3, 1 / 3), np.array([1.0, 1.0, 1.0]), three)
        with pytest.raises(InvalidInputError, match="mode weights sum to"):
            HierarchicalBelief(np.full(3, 1 / 3), np.array([1.0, 1.0, 0.5, 0.4]), three)


class TestFlatKernelsMatchLoops:
    """The flat kernels equal the row-wise loops bit for bit, on ragged
    target sets; the golden digests cover only the default 3x3 set."""

    def test_random_ragged(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            num_intents = int(rng.integers(1, 5))
            modes = [int(rng.integers(1, 5)) for _ in range(num_intents)]
            b = with_zeros(rng, random_belief(rng, num_intents, modes))
            # A few filter steps reach the weights the run loop sees.
            for _ in range(3):
                z = rng.normal(0, 5)
                assert_kernels_match_loops(b, z)
                b = relax_mode_weights(update(b, z), 0.02)

    def test_uniform(self):
        for modes in ([1], [3, 3, 3], [1, 4, 2], [4, 1]):
            b = uniform_belief(make_targets([[0.0] * k for k in modes]))
            assert np.array_equal(
                b.mode_weights, np.concatenate([np.full(k, 1.0 / k) for k in modes])
            )

    def test_rows_split_by_intent(self):
        b = random_belief(np.random.default_rng(5), 3, [2, 1, 4])
        rows = b.rows()
        assert [len(r) for r in rows] == [2, 1, 4]
        for row, expected in zip(rows, split_rows(b, b.mode_weights)):
            assert np.array_equal(row, expected)
            assert not row.flags.writeable

    @pytest.mark.parametrize("scale", [1e-3, 1e2])
    def test_band_scale(self, scale):
        # Sharp bands reach the likelihood's far tails and degenerate
        # evidence; wide ones leave nearly flat likelihoods.
        rng = np.random.default_rng(int(1 / scale) + 7)
        for _ in range(200):
            b = with_zeros(rng, random_belief(rng, var_scale=scale))
            assert_kernels_match_loops(b, rng.normal(0.0, 6.0))

    @given(b=beliefs(), z=st.floats(-20.0, 20.0), forgetting=st.floats(0.0, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis(self, b, z, forgetting):
        assert_kernels_match_loops(b, z, forgetting)


class TestLogLikelihoods:
    """The scalar kernel ``inv_std * (z - mu)`` equals the einsum pair over
    inverse Cholesky factors it replaced, bit for bit, on 1-D targets."""

    @given(
        modes=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e2) | st.just(0.0)),
            min_size=1, max_size=9,
        ),
        zs=st.lists(st.floats(-20.0, 20.0) | st.floats(-1e6, 1e6), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_einsum_oracle(self, modes, zs):
        ts = make_targets([[mu for mu, _ in modes]], [[var for _, var in modes]])
        zs = np.array(zs)
        assert np.array_equal(ts.log_likelihoods(zs), einsum_log_likelihoods(ts, zs[:, None]))

    def test_zero_variance_target_takes_the_jitter(self):
        ts = make_targets([[0.0, 3.0]], [[0.0, 1e-3]])
        assert ts.targets[0].target._chol[0, 0] == math.sqrt(1e-9)
        zs = np.array([0.0, 1e-5, -2.5, 1e6, -1e6])
        got = ts.log_likelihoods(zs)
        assert np.array_equal(got, einsum_log_likelihoods(ts, zs[:, None]))
        assert np.isfinite(got).all()


def loop_posterior_entropies(b, zs, h_prior, pi_weighted_modes):
    """One ``loop_update`` and one ``loop_entropy`` per observation;
    degenerate evidence reads ``h_prior``. Also returns the degenerate row
    count."""
    out, degenerate = [], 0
    for z in zs:
        try:
            pi, rows = loop_update(b, z)
        except DegenerateEvidenceError:
            out.append(h_prior)
            degenerate += 1
            continue
        post = HierarchicalBelief(pi, np.concatenate(rows), b.targets)
        out.append(loop_entropy(post, pi_weighted_modes))
    return out, degenerate


class TestPosteriorEntropies:
    """The batched posterior entropies equal the per-observation loop bit
    for bit."""

    def test_random_ragged(self):
        rng = np.random.default_rng(21)
        degenerate = 0
        for _ in range(300):
            b = with_zeros(rng, random_belief(rng))
            zs = rng.normal(0.0, 6.0, int(rng.integers(1, 30)))
            # Far observations underflow the evidence: degenerate rows.
            zs[rng.random(len(zs)) < 0.2] *= 1e3
            for weighted in (False, True):
                h_prior = entropy(b, weighted)
                want, n_bad = loop_posterior_entropies(b, zs, h_prior, weighted)
                assert np.array_equal(posterior_entropies(b, zs, h_prior, weighted), want)
                degenerate += n_bad
        assert degenerate > 0

    def test_filtered_beliefs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            b = random_belief(rng, 3, [3, 3, 3])
            for _ in range(4):
                b = relax_mode_weights(update(b, rng.normal(0, 4)), 0.02)
            zs = rng.normal(0.0, 5.0, 40)
            want, _ = loop_posterior_entropies(b, zs, entropy(b, True), True)
            assert np.array_equal(posterior_entropies(b, zs, entropy(b, True), True), want)

    def test_degenerate_rows_masked_without_fp_errors(self):
        b = random_belief(np.random.default_rng(8), 3, [2, 1, 3])
        zs = np.array([0.5, 1e4, -2.0, -1e5])
        with np.errstate(divide="raise", invalid="raise"):
            got = posterior_entropies(b, zs, 7.5)
        for z, g in zip(zs, got):
            if abs(z) > 100.0:
                with pytest.raises(DegenerateEvidenceError):
                    update(b, z)
                assert g == 7.5
            else:
                assert g == entropy(update(b, z))

    def test_overflowing_likelihood_reads_prior(self):
        # A row whose every log-likelihood is -inf: update's row-underflow
        # branch.
        b = random_belief(np.random.default_rng(9), 2, [2, 2])
        zs = np.array([1.0, 1e200])
        with np.errstate(over="ignore"):
            with pytest.raises(DegenerateEvidenceError):
                update(b, zs[1])
            got = posterior_entropies(b, zs, 3.25, True)
        assert got[0] == entropy(update(b, zs[0]), True)
        assert got[1] == 3.25

    def test_rows_at_the_evidence_floor(self):
        # Two intents of one mode each, both far from the observations: the
        # evidence crosses 1e-300 at some x*. Rows one float apart around x*
        # fall on either side; the last row's evidence is 0: the intent its
        # observation favours has no mass, and the other's term underflows.
        b = HierarchicalBelief(np.array([0.3, 0.7]), np.ones(2),
                               make_targets([[0.0], [1.5]], [[1.0], [2.0]]))

        def degenerate(x):
            try:
                loop_update(b, x)
            except DegenerateEvidenceError:
                return True
            return False

        lo, hi = 10.0, 100.0  # evidence above the floor at lo, below it at hi
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if degenerate(mid) else (mid, hi)
        xs = [lo]
        for _ in range(20):
            xs = [np.nextafter(xs[0], -np.inf), *xs, np.nextafter(xs[-1], np.inf)]
        zs = np.array(xs + [0.0, 1e3])
        want, n_bad = loop_posterior_entropies(b, zs, 9.0, True)
        assert 20 < n_bad < len(zs) - 20
        assert np.array_equal(posterior_entropies(b, zs, 9.0, True), want)
        cut = HierarchicalBelief(np.array([1.0, 0.0]), np.ones(2),
                                 make_targets([[0.0], [100.0]]))
        with pytest.raises(DegenerateEvidenceError):
            loop_update(cut, 100.0)
        assert posterior_entropies(cut, np.array([100.0, 0.0]), 9.0)[0] == 9.0

    def test_underflow_mask_matches_the_scalar_rule(self):
        # Evidence shifts g and sums z one float either side of the floor,
        # z = 0, negative, infinite and NaN: the array decision equals
        # ``not (z > 0 and g + math.log(z) >= ln 1e-300)`` on every row. The
        # sums include ones whose np.log and math.log differ in the last bit.
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.uniform(1e-6, 1.0, 4000), 10.0 ** rng.uniform(-300, 0, 4000)])
        logs = np.array([math.log(v) for v in z])
        z = np.concatenate([z[:100], z[np.log(z) != logs]])
        assert len(z) > 110
        g = np.log(1e-300) - np.array([math.log(v) for v in z])
        g = np.concatenate([g, np.nextafter(g, np.inf), np.nextafter(g, -np.inf)])
        z = np.concatenate([z, z, z, [0.0, -1.0, math.inf, math.nan, 0.5]])
        g = np.concatenate([g, [-5.0, -5.0, -5.0, -5.0, math.nan]])
        want = [not (v > 0.0 and s + math.log(v) >= math.log(1e-300)) for s, v in zip(g, z)]
        with np.errstate(invalid="ignore"):
            got = _underflows(g, z)
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    def test_shape_checked(self):
        b = random_belief(np.random.default_rng(2))
        for bad in (np.float64(0.0), np.zeros((3, 1)), np.zeros((3, 3))):
            with pytest.raises(InvalidInputError, match="observations must have shape"):
                posterior_entropies(b, bad, 0.0)

    @given(
        b=beliefs(),
        zs=st.lists(st.floats(-20.0, 20.0) | st.floats(-1e4, 1e4), min_size=1, max_size=12),
        weighted=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis(self, b, zs, weighted):
        zs = np.array(zs)
        h_prior = entropy(b, weighted)
        want, _ = loop_posterior_entropies(b, zs, h_prior, weighted)
        assert np.array_equal(posterior_entropies(b, zs, h_prior, weighted), want)
