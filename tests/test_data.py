import math

import numpy as np
import pytest

from dpbudget import data, nn
from dpbudget.errors import DomainError, ParseError


class TestCancerLoader:
    def test_canonical_file_counts(self, cancer_file):
        ds = data.load_cancer_csv(cancer_file)
        assert len(ds) == 683
        assert ds.normalization["source_rows"] == 699
        assert ds.normalization["dropped_missing"] == 16
        assert ds.n_features == 9
        assert set(np.unique(ds.labels)) == {0, 1}
        assert ds.features.min() >= 0.1 and ds.features.max() <= 1.0

    def test_split_sizes(self, cancer_splits):
        train, test = cancer_splits
        assert (len(train), len(test)) == (560, 123)

    def test_missing_rows_excluded(self, tmp_path):
        path = tmp_path / "mini.data"
        path.write_text(
            "1000025,5,1,1,1,2,1,3,1,1,2\n"
            "1002945,5,4,4,5,7,?,3,2,1,2\n"
            "1015425,3,1,1,1,2,2,3,1,1,4\n"
        )
        ds = data.load_cancer_csv(str(path))
        assert len(ds) == 2
        assert ds.labels.tolist() == [0, 1]
        assert ds.features[0][0] == pytest.approx(0.5)

    def test_malformed_rows_report_line(self, tmp_path):
        cases = [
            ("1,2,3\n", "11 comma-separated"),
            ("1,5,1,1,1,2,1,3,1,1,9\n", "class"),
            ("1,55,1,1,1,2,1,3,1,1,2\n", "1..10"),
            ("1,x,1,1,1,2,1,3,1,1,2\n", "non-integer"),
        ]
        for content, fragment in cases:
            path = tmp_path / "bad.data"
            path.write_text("1000025,5,1,1,1,2,1,3,1,1,2\n" + content)
            with pytest.raises(ParseError, match="line 2") as err:
                data.load_cancer_csv(str(path))
            assert fragment in str(err.value)

    def test_non_ascii_line_reported(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_bytes(b"1000025,5,1,1,1,2,1,3,1,1,2\n1002945,5,4,4,5,7,\xff,3,2,1,2\n")
        with pytest.raises(ParseError, match="line 2: not ASCII text"):
            data.load_cancer_csv(str(path))

    def test_no_usable_rows(self, tmp_path):
        path = tmp_path / "missing.data"
        path.write_text("1002945,5,4,4,5,7,?,3,2,1,2\n\n")
        with pytest.raises(ParseError, match="no usable rows"):
            data.load_cancer_csv(str(path))


class TestDataset:
    @pytest.mark.parametrize(
        "features,labels,message",
        [
            (np.ones((3, 2)), np.zeros(2), "one label per row"),
            (np.array([[math.nan, 1.0]]), np.zeros(1), "non-finite"),
            (np.ones((1, 2)), np.array([-1]), "nonnegative class ids"),
        ],
        ids=["mismatched-rows", "nan-feature", "label-minus-one"],
    )
    def test_bad_input_rejected(self, features, labels, message):
        with pytest.raises(DomainError, match=message):
            data.Dataset(features, labels)


class TestSplit:
    def test_reproducible_and_disjoint(self, cancer_file):
        ds = data.load_cancer_csv(cancer_file)
        a_train, a_test = data.train_test_split(ds, 560, seed=20)
        b_train, b_test = data.train_test_split(ds, 560, seed=20)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.labels, b_test.labels)
        # disjoint and covering: row multisets of train+test equal the source
        merged = np.vstack([a_train.features, a_test.features])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.features))

    def test_bounds(self, cancer_file):
        ds = data.load_cancer_csv(cancer_file)
        with pytest.raises(DomainError):
            data.train_test_split(ds, 0, seed=0)
        with pytest.raises(DomainError):
            data.train_test_split(ds, len(ds), seed=0)


class TestRfBatches:
    @pytest.mark.parametrize("n,batch", [(600, 600), (601, 100), (64, 7), (10, 1), (5, 5)])
    def test_partition_properties(self, n, batch):
        rng = np.random.default_rng(0)
        batches = data.rf_batches(n, batch, rng)
        assert len(batches) == -(-n // batch)
        joined = np.concatenate(batches)
        assert len(joined) == n
        assert np.array_equal(np.sort(joined), np.arange(n))

    @pytest.mark.parametrize("batch", [0, 6])
    def test_batch_size_outside_one_to_n_rejected(self, batch):
        with pytest.raises(DomainError, match="batch_size must lie in 1..5"):
            data.rf_batches(5, batch, np.random.default_rng(0))

    def test_full_batch_mode(self):
        batches = data.rf_batches(560, 560, np.random.default_rng(1))
        assert len(batches) == 1 and len(batches[0]) == 560

    def test_large_partition(self):
        batches = data.rf_batches(60000, 600, np.random.default_rng(2))
        assert len(batches) == 100
        assert all(len(b) == 600 for b in batches)

    def test_fresh_permutation_each_epoch(self):
        rng = np.random.default_rng(3)
        first = data.rf_batches(100, 10, rng)
        second = data.rf_batches(100, 10, rng)
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))


def hits(n, q, iters, seed):
    """(iters, n) 0/1 matrix: row t marks the indices of sampled batch t."""
    out = np.zeros((iters, n))
    for t, batch in enumerate(data.rs_batches(n, q, iters, np.random.default_rng(seed))):
        out[t, batch] = 1.0
    return out


class TestRsBatches:
    def test_sorted_distinct_indices(self):
        batches = data.rs_batches(30, 0.4, 50, np.random.default_rng(1))
        assert len(batches) == 50
        for batch in batches:
            assert batch.dtype.kind == "i"
            assert np.all(np.diff(batch) > 0) and (len(batch) == 0 or 0 <= batch[0] <= batch[-1] < 30)

    def test_sizes_are_binomial(self):
        n, q, iters = 60000, 0.01, 1000
        sizes = np.array([len(b) for b in data.rs_batches(n, q, iters, np.random.default_rng(4))])
        mean, var = n * q, n * q * (1 - q)
        assert abs(sizes.mean() - mean) <= 3 * math.sqrt(var / iters)
        # the sample variance of iters draws has standard error about var sqrt(2 / iters)
        assert abs(sizes.var(ddof=1) - var) <= 3 * var * math.sqrt(2.0 / iters)

    def test_each_position_included_with_probability_q(self):
        # every (iteration, index) cell of many short epochs, the first and
        # last positions and those at batch boundaries among them, where an
        # off-by-one in the gaps would show
        n, q, iters, calls = 6, 0.3, 3, 4000
        rng = np.random.default_rng(7)
        counts = np.zeros((iters, n))
        for _ in range(calls):
            for t, batch in enumerate(data.rs_batches(n, q, iters, rng)):
                counts[t, batch] += 1
        z = (counts - calls * q) / math.sqrt(calls * q * (1 - q))
        assert np.max(np.abs(z)) < 4

    def test_pairwise_inclusion_independence(self):
        n, q, iters = 40, 0.3, 4000
        h = hits(n, q, iters, seed=6)
        centered = h - h.mean(axis=0)
        cov = centered.T @ centered / iters
        off_diag = cov[~np.eye(n, dtype=bool)]
        se = q * (1 - q) / np.sqrt(iters)
        assert np.max(np.abs(off_diag)) < 4 * se

    def test_consecutive_iterations_independent(self):
        n, q, iters = 30, 0.3, 8000
        h = hits(n, q, iters, seed=8)
        centered = h - h.mean(axis=0)
        cov = centered[:-1].T @ centered[1:] / (iters - 1)  # batch t against batch t+1
        se = q * (1 - q) / np.sqrt(iters)
        assert np.max(np.abs(cov)) < 4 * se
        sizes = h.sum(axis=1)
        assert abs(np.corrcoef(sizes[:-1], sizes[1:])[0, 1]) < 4 / math.sqrt(iters)

    def test_tiny_q_mostly_empty(self):
        sizes = [len(b) for b in data.rs_batches(50, 1e-6, 200, np.random.default_rng(5))]
        assert np.mean(sizes) < 0.01

    def test_no_iterations_draw_nothing(self):
        rng = np.random.default_rng(9)
        assert data.rs_batches(10, 0.5, 0, rng) == []
        assert rng.random() == np.random.default_rng(9).random()

    @pytest.mark.parametrize("n,q,iters", [(10, 0.0, 1), (10, 1.0, 1), (10, math.nan, 1), (0, 0.5, 1), (10, 0.5, -1)])
    def test_domain(self, n, q, iters):
        with pytest.raises(DomainError):
            data.rs_batches(n, q, iters, np.random.default_rng(0))


class TestSynthBlobs:
    def test_deterministic(self):
        a = data.synth_blobs(200, 2, 2, seed=9)
        b = data.synth_blobs(200, 2, 2, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_separable_blobs_learnable(self):
        ds = data.synth_blobs(200, 2, 2, seed=9, separation=4.0)
        model = nn.MlpModel.init([2, 8, 2], seed=1)
        for _ in range(200):
            grads = nn.mean_gradients(nn.per_example_gradients(model, ds.features, ds.labels))
            nn.sgd_step(model, grads, 0.5)
        assert nn.accuracy(model, ds.features, ds.labels) >= 0.99

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            data.synth_blobs(0, 2, 2, seed=0)

    @pytest.mark.parametrize("d,n_classes", [(0, 2), (2, 1)])
    def test_degenerate_shape_rejected(self, d, n_classes):
        with pytest.raises(DomainError, match="d >= 1 and at least two classes"):
            data.synth_blobs(10, d, n_classes, seed=0)
