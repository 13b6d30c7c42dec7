import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpbudget import data, nn, selection
from dpbudget.errors import DomainError, UsageError


def probabilities(z_scores, eps):
    """The probabilities that the draw of ``exp_mechanism_select`` reads, as an array."""
    return np.array(selection._probabilities(z_scores, eps))


def oracle_probabilities(z_scores, eps):
    """The mechanism as first written on numpy arrays, the oracle for the
    float computation: it agrees to the last bits, since ``math.exp`` is not
    numpy's ``exp`` and ``sum`` is not numpy's pairwise sum."""
    log_w = -0.5 * eps * np.asarray(z_scores, dtype=np.float64)
    p = np.exp(log_w - log_w.max())
    return p / p.sum()


def oracle_select(z_scores, eps, rng):
    cdf = np.cumsum(oracle_probabilities(z_scores, eps))
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)


class TestSelectionProbabilities:
    def test_eps_zero_is_uniform(self):
        p = probabilities([0, 10, 55], 0.0)
        assert np.allclose(p, 1.0 / 3.0)

    def test_equal_scores_uniform(self):
        p = probabilities([7, 7, 7, 7], 1.0)
        assert np.allclose(p, 0.25)

    def test_probabilities_sum_to_one(self):
        p = probabilities([0, 3, 100, 2000], 0.5)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        a = probabilities([0, 10, 4], 1.0)
        b = probabilities([100, 110, 104], 1.0)
        assert np.allclose(a, b, atol=1e-15)

    def test_two_candidate_ratio(self):
        p = probabilities([0, 10], 1.0)
        assert p[0] / p[1] == pytest.approx(math.exp(5.0), rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            probabilities([], 1.0)
        with pytest.raises(DomainError):
            probabilities([1, 2], -0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(DomainError):
            probabilities([0, 3], eps)
        with pytest.raises(DomainError):
            selection.exp_mechanism_select([0, 3], eps, np.random.default_rng(0))
        with pytest.raises(DomainError):
            selection.selection_rho(eps)

    @settings(max_examples=300, deadline=None)
    @given(
        z_scores=st.one_of(
            st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=64),
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64),
        ),
        eps=st.floats(0.0, 10.0),
    )
    def test_matches_numpy_oracle(self, z_scores, eps):
        p = probabilities(z_scores, eps)
        # relative to the smallest normal double below it, where an ulp is absolute
        np.testing.assert_allclose(p, oracle_probabilities(z_scores, eps), rtol=1e-14, atol=1e-14 * np.finfo(float).tiny)
        assert p.dtype == np.float64 and p.shape == (len(z_scores),)
        assert math.fsum(p) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "z_scores",
        [[0, math.nan], [-math.inf, 0], [0, math.inf], [0, np.float64("nan")], [0, "3"], [0, None], [0, 10**400]],
        ids=["nan", "-inf", "inf", "numpy-nan", "string", "none", "int-beyond-float"],
    )
    def test_non_finite_or_non_numeric_scores_rejected(self, z_scores):
        # a NaN or infinite score would void the eps-DP claim, so nothing is drawn
        with pytest.raises(DomainError):
            probabilities(z_scores, 1.0)
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            selection.exp_mechanism_select(z_scores, 1.0, rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("z_scores", [[1e308, 1.5e308], [0, -1e308]], ids=["all-overflow", "overflow-upward"])
    def test_overflowing_log_weights_rejected(self, z_scores):
        # finite scores whose -eps z / 2 overflows would shift to NaN weights
        with pytest.raises(DomainError):
            probabilities(z_scores, 10.0)
        with pytest.raises(DomainError):
            selection.exp_mechanism_select(z_scores, 10.0, np.random.default_rng(0))
        assert probabilities([0, 1e308], 10.0).tolist() == [1.0, 0.0]

    def test_large_scores_do_not_underflow(self):
        # exp(-eps z / 2) is 0.0 in float64 for both scores; the weights
        # shifted by the largest log weight are not
        p = probabilities([2000, 2002], 1.0)
        assert p[0] / p[1] == pytest.approx(math.e, rel=1e-12)


class TestExpMechanismDraws:
    def test_one_uniform_draw_per_selection(self):
        # the pick is the first cdf entry above one rng.random() value, so a
        # seeded generator's stream fixes the picks
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        cdf = np.cumsum(probabilities([0, 2, 4, 8], 0.5))
        for _ in range(200):
            expected = int(np.searchsorted(cdf, reference.random(), side="right"))
            assert selection.exp_mechanism_select([0, 2, 4, 8], 0.5, rng) == expected

    @pytest.mark.parametrize("z_scores,eps,draws", [([0, 10], 1.0, 100_000), ((0, 2, 4, 8), 0.5, 3000)])
    def test_picks_equal_the_numpy_oracle(self, z_scores, eps, draws):
        rng, reference = np.random.default_rng(110), np.random.default_rng(110)
        picks = [selection.exp_mechanism_select(z_scores, eps, rng) for _ in range(draws)]
        assert picks == [oracle_select(z_scores, eps, reference) for _ in range(draws)]

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(99)
        n = 100_000
        counts = np.bincount(
            [selection.exp_mechanism_select([0, 10], 1.0, rng) for _ in range(n)],
            minlength=2,
        )
        p0 = 1.0 / (1.0 + math.exp(-5.0))
        se = math.sqrt(p0 * (1 - p0) / n)
        assert abs(counts[0] / n - p0) <= 3 * se

    def test_eps_zero_empirical_uniform(self):
        rng = np.random.default_rng(5)
        n = 30_000
        picks = [selection.exp_mechanism_select([4, 9, 1], 0.0, rng) for _ in range(n)]
        freqs = np.bincount(picks, minlength=3) / n
        se = math.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(freqs - 1 / 3) <= 3 * se)


class TestSelectionRho:
    def test_values(self):
        assert selection.selection_rho(0.0) == 0.0
        assert selection.selection_rho(1.0) == 0.5
        assert selection.selection_rho(0.2) == pytest.approx(0.02)

    def test_chargeable_to_rf_ledger(self):
        from dpbudget.accounting import PrivacyLedger
        ledger = PrivacyLedger("rf")
        ledger.rho_sum += selection.selection_rho(1.0)
        assert ledger.rho_sum == 0.5


class TestPartition:
    @pytest.mark.parametrize("n,parts", [(683, 4), (100, 7), (10, 10), (11, 3)])
    def test_balanced_disjoint_cover(self, n, parts):
        portions = selection.partition_indices(n, parts, np.random.default_rng(0))
        sizes = [len(p) for p in portions]
        assert max(sizes) - min(sizes) <= 1
        joined = np.concatenate(portions)
        assert np.array_equal(np.sort(joined), np.arange(n))

    def test_too_many_parts(self):
        with pytest.raises(DomainError):
            selection.partition_indices(3, 4, np.random.default_rng(0))


class TestPartitionTune:
    @staticmethod
    def constant_trainer(label):
        def trainer(index, portion):
            return lambda features: np.full(len(features), label)
        return trainer

    def test_single_candidate_always_selected(self):
        ds = data.synth_blobs(50, 2, 2, seed=1)
        result = selection.partition_tune(ds, 1, self.constant_trainer(0), eps=1.0, seed=3)
        assert result.selected == 0
        assert len(result.portion_sizes) == 2

    def test_equal_scores_select_uniformly(self):
        ds = data.synth_blobs(400, 2, 2, seed=2)
        picks = []
        for seed in range(900):
            result = selection.partition_tune(ds, 3, self.constant_trainer(0), eps=1.0, seed=seed)
            picks.append(result.selected)
        freqs = np.bincount(picks, minlength=3) / len(picks)
        se = math.sqrt((1 / 3) * (2 / 3) / len(picks))
        assert np.all(np.abs(freqs - 1 / 3) <= 3 * se)

    def test_real_training_selects_good_candidate(self):
        ds = data.synth_blobs(240, 2, 2, seed=4, separation=5.0)

        def trainer(index, portion):
            if index == 1:  # only candidate 1 actually trains
                model = nn.MlpModel.init([2, 8, 2], seed=10)
                for _ in range(150):
                    grads = nn.mean_gradients(nn.per_example_gradients(model, portion.features, portion.labels))
                    nn.sgd_step(model, grads, 0.5)
                return lambda features: nn.predict(model, features)
            return lambda features: np.zeros(len(features), dtype=int)

        result = selection.partition_tune(ds, 2, trainer, eps=2.0, seed=6)
        assert result.selected == 1  # overwhelmingly likely at eps=2 given the error gap

    def test_insufficient_data(self):
        ds = data.synth_blobs(3, 2, 2, seed=0)
        with pytest.raises(DomainError):
            selection.partition_tune(ds, 3, self.constant_trainer(0), eps=1.0, seed=0)
