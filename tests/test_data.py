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


class TestRsBatch:
    def test_mean_size(self):
        rng = np.random.default_rng(4)
        sizes = [len(data.rs_batch(60000, 0.01, rng)) for _ in range(1000)]
        mean = np.mean(sizes)
        se = np.sqrt(60000 * 0.01 * 0.99 / 1000)
        assert abs(mean - 600.0) <= 3 * se

    def test_tiny_q_mostly_empty(self):
        rng = np.random.default_rng(5)
        sizes = [len(data.rs_batch(50, 1e-6, rng)) for _ in range(200)]
        assert np.mean(sizes) < 0.01

    def test_pairwise_inclusion_independence(self):
        rng = np.random.default_rng(6)
        n, q, draws = 40, 0.3, 4000
        hits = np.zeros((draws, n))
        for i in range(draws):
            hits[i, data.rs_batch(n, q, rng)] = 1.0
        centered = hits - hits.mean(axis=0)
        cov = centered.T @ centered / draws
        off_diag = cov[~np.eye(n, dtype=bool)]
        se = q * (1 - q) / np.sqrt(draws)
        assert np.max(np.abs(off_diag)) < 4 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            data.rs_batch(10, 0.0, np.random.default_rng(0))


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
