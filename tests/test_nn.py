import json
import math

import numpy as np
import pytest

from dpbudget import nn
from dpbudget.errors import DomainError, ParseError


def fd_gradient(model, x, label, step=1e-5):
    """Central-finite-difference gradient of the loss for one example."""
    grads = []
    for arr in [p for w, b in zip(model.weights, model.biases) for p in (w, b)]:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = nn.cross_entropy(nn.forward(model, x), np.array([label]))[0]
            arr[idx] = orig - step
            down = nn.cross_entropy(nn.forward(model, x), np.array([label]))[0]
            arr[idx] = orig
            g[idx] = (up - down) / (2 * step)
            it.iternext()
        grads.append(g)
    return grads


class TestForward:
    def test_zero_model_uniform_softmax(self):
        model = nn.MlpModel(
            [np.zeros((4, 8)), np.zeros((8, 2))],
            [np.zeros(8), np.zeros(2)],
        )
        x = np.array([0.3, -0.2, 0.9, 0.1])
        logits = nn.forward(model, x)
        assert np.allclose(logits, 0.0)
        loss = nn.cross_entropy(logits, np.array([1]))[0]
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_identity_layer(self):
        model = nn.MlpModel([np.eye(3)], [np.zeros(3)])
        x = np.array([1.5, -2.0, 0.25])
        assert np.allclose(nn.forward(model, x), x)

    def test_matches_independent_forward(self):
        model = nn.MlpModel.init([5, 7, 3], seed=11)
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        # hand-rolled pass
        h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        logits = h @ model.weights[1] + model.biases[1]
        assert np.allclose(nn.forward(model, x), logits, atol=1e-12)
        # batch path agrees with the single path
        batch = rng.normal(size=(6, 5))
        stacked = np.stack([nn.forward(model, row) for row in batch])
        assert np.allclose(nn.forward(model, batch), stacked, atol=1e-12)

    def test_dimension_mismatch(self):
        model = nn.MlpModel.init([5, 3], seed=0)
        with pytest.raises(DomainError):
            nn.forward(model, np.zeros(4))

    @pytest.mark.parametrize("sizes", [(9, 10, 20, 10, 2), (4, 3), (0, 5, 3)])
    def test_loaded_accuracy_follows_the_parameters(self, sizes):
        # one workspace, loaded once, evaluated after in-place updates as
        # training does: the same value as the mean of fresh predictions
        model = nn.MlpModel.init(sizes, seed=2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(37, sizes[0]))
        labels = rng.integers(0, sizes[-1], size=37)
        loaded = nn.Columns.load(model, x)
        for _ in range(5):
            want = float(np.mean(np.argmax(nn.forward(model, x), axis=1) == labels))
            assert loaded.accuracy(labels) == want == nn.accuracy(model, x, labels)
            model.params += rng.normal(size=model.n_params)

    def test_softmax_normalizes(self):
        model = nn.MlpModel.init([4, 6, 3], seed=5)
        logits = nn.forward(model, np.random.default_rng(1).normal(size=(10, 4)))
        p = nn.softmax(logits)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(nn.cross_entropy(logits, np.zeros(10, dtype=int)) >= 0.0)


class TestPerExampleGradients:
    @pytest.mark.parametrize("sizes", [(9, 10, 20, 10, 2), (2, 8, 2)])
    def test_finite_difference_oracle(self, sizes):
        model = nn.MlpModel.init(sizes, seed=42)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, sizes[0]))
        y = rng.integers(0, sizes[-1], size=3)
        grads = nn.per_example_gradients(model, x, y)
        for i in range(3):
            exact = [g[i] for g in grads]
            approx = fd_gradient(model, x[i], int(y[i]))
            for a, b in zip(exact, approx):
                denom = np.maximum(np.abs(b), 1e-6)
                assert np.max(np.abs(a - b) / denom) < 1e-4

    def test_duplicated_example_identical(self):
        model = nn.MlpModel.init([4, 6, 3], seed=1)
        x = np.array([[0.1, 0.2, 0.3, 0.4]] * 2)
        y = np.array([2, 2])
        grads = nn.per_example_gradients(model, x, y)
        for g in grads:
            assert np.array_equal(g[0], g[1])

    def test_mean_matches_batch_gradient(self):
        model = nn.MlpModel.init([9, 10, 20, 10, 2], seed=3)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(32, 9))
        y = rng.integers(0, 2, size=32)
        mean = nn.mean_gradients(nn.per_example_gradients(model, x, y))
        # whole-batch gradient via finite differences on the mean loss
        step = 1e-6
        for p_idx, arr in enumerate([p for w, b in zip(model.weights, model.biases) for p in (w, b)]):
            flat_idx = np.unravel_index(rng.integers(0, arr.size), arr.shape)
            orig = arr[flat_idx]
            arr[flat_idx] = orig + step
            up = nn.cross_entropy(nn.forward(model, x), y).mean()
            arr[flat_idx] = orig - step
            down = nn.cross_entropy(nn.forward(model, x), y).mean()
            arr[flat_idx] = orig
            fd = (up - down) / (2 * step)
            assert mean[p_idx][flat_idx] == pytest.approx(fd, abs=2e-9)

    def test_empty_batch_rejected(self):
        model = nn.MlpModel.init([4, 2], seed=0)
        with pytest.raises(DomainError):
            nn.per_example_gradients(model, np.empty((0, 4)), np.empty(0, dtype=int))


class TestLoad:
    def test_example_rows_are_one_hot_features_and_ones(self):
        model = nn.MlpModel.init([4, 5, 3], seed=0)
        x, labels = np.random.default_rng(1).normal(size=(6, 4)), np.array([0, 2, 1, 2, 0, 0])
        want = np.vstack([np.eye(3)[labels].T, x.T, np.ones((1, 6))])
        assert np.array_equal(nn.Columns.load(model, x, labels).examples, want)
        assert nn.Columns.load(model, x[:0], labels[:0]).examples.shape == (8, 0)

    @pytest.mark.parametrize(
        "labels", [[0, -1, 1], [0, 3, 1], [0, 1], [[0, 1, 2]], [0.0, 1.0, 2.0]], ids=["-1", "n_classes", "short", "2-d", "float"]
    )
    def test_bad_labels_rejected(self, labels):
        # unchecked, -1 would index the last class and n_classes raise IndexError
        model = nn.MlpModel.init([4, 5, 3], seed=0)
        for load in (nn.Columns.load, nn.per_example_gradients):
            with pytest.raises(DomainError, match="class ids below the model's 3 outputs"):
                load(model, np.ones((3, 4)), np.array(labels))


class TestSgdStep:
    def test_short_gradient_list_rejected(self):
        model = nn.MlpModel.init([3, 4, 2], seed=0)
        with pytest.raises(DomainError, match="does not match the model's parameter list"):
            nn.sgd_step(model, [np.zeros((3, 4)), np.zeros(4)], 0.1)

    def test_zero_eta_no_change(self):
        model = nn.MlpModel.init([3, 2], seed=0)
        before = [w.copy() for w in model.weights]
        grads = [np.ones_like(model.weights[0]), np.ones_like(model.biases[0])]
        nn.sgd_step(model, grads, 0.0)
        assert np.array_equal(model.weights[0], before[0])

    def test_zero_gradient_no_change(self):
        model = nn.MlpModel.init([3, 2], seed=0)
        before = [w.copy() for w in model.weights]
        nn.sgd_step(model, [np.zeros((3, 2)), np.zeros(2)], 0.5)
        assert np.array_equal(model.weights[0], before[0])

    def test_two_half_steps_equal_one(self):
        a = nn.MlpModel.init([3, 2], seed=4)
        b = nn.MlpModel(a.weights, a.biases)
        grads = [np.full((3, 2), 0.25), np.full(2, -0.5)]
        nn.sgd_step(a, grads, 0.2)
        nn.sgd_step(b, grads, 0.1)
        nn.sgd_step(b, grads, 0.1)
        assert np.allclose(a.weights[0], b.weights[0], atol=1e-15)
        assert np.allclose(a.biases[0], b.biases[0], atol=1e-15)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = nn.MlpModel.init([9, 10, 20, 10, 2], seed=8)
        path = str(tmp_path / "model.ckpt")
        nn.save_checkpoint(model, path)
        back = nn.load_checkpoint(path)
        assert back.layer_sizes == model.layer_sizes
        for a, b in zip(back.weights, model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(back.biases, model.biases):
            assert np.array_equal(a, b)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ParseError):
            nn.load_checkpoint(str(path))


class TestFlatStorage:
    @staticmethod
    def assert_views_in_order(model):
        """Writing ``params`` must show through ``weights`` and ``biases`` in
        checkpoint order (W0, b0, W1, b1, ...)."""
        model.params[:] = np.arange(model.n_params)
        seen = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(model.weights, model.biases)])
        assert np.array_equal(seen, np.arange(model.n_params))

    def test_init_copy_and_checkpoint_are_views(self, tmp_path):
        model = nn.MlpModel.init([5, 7, 4, 3], seed=2)
        path = str(tmp_path / "model.ckpt")
        nn.save_checkpoint(model, path)
        copied, loaded = nn.MlpModel(model.weights, model.biases), nn.load_checkpoint(path)
        for m in (model, copied, loaded):
            self.assert_views_in_order(m)

    def test_copy_and_constructor_do_not_alias(self):
        model = nn.MlpModel.init([4, 6, 2], seed=3)
        before = model.params.copy()
        copied = nn.MlpModel(model.weights, model.biases)
        assert not np.shares_memory(copied.params, model.params)
        copied.params += 1.0
        copied.weights[0][0, 0] = 99.0
        assert np.array_equal(model.params, before)

    def test_checkpoint_bytes_layout(self, tmp_path):
        model = nn.MlpModel.init([9, 10, 20, 10, 2], seed=8)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(model, str(path))
        want = b"dpbudget-mlp 1\n" + json.dumps({"layer_sizes": [9, 10, 20, 10, 2]}).encode() + b"\n"
        for w, b in zip(model.weights, model.biases):
            want += np.ascontiguousarray(w).tobytes() + np.ascontiguousarray(b).tobytes()
        assert path.read_bytes() == want

    def test_truncated_checkpoint_rejected(self, tmp_path):
        model = nn.MlpModel.init([3, 2], seed=0)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(model, str(path))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            nn.load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "header",
        [
            b'{"layer_sizes": "abc"}', b'{"layer_sizes": null}', b'{"layer_sizes": 5}', b'{"layer_sizes": {"a": 1}}',
            b"[3, 2]", b"null", b'{"sizes": [3, 2]}', b'{"layer_sizes": [-1, -1]}', b'{"layer_sizes": [9]}',
            b'{"layer_sizes": []}', b'{"layer_sizes": [2, 0]}', b'{"layer_sizes": [3, -2]}', b'{"layer_sizes": [true, 2]}',
            b'{"layer_sizes": [3.0, 2]}', b"\xff\xfe", b"",
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        # no payload: the declared parameter count of most of these is 0
        path = tmp_path / "model.ckpt"
        path.write_bytes(nn.CHECKPOINT_MAGIC.encode() + b"\n" + header + b"\n")
        with pytest.raises(ParseError, match="line 2"):
            nn.load_checkpoint(str(path))

    def test_non_utf8_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"\xff\xfe\n")
        with pytest.raises(ParseError, match="line 1"):
            nn.load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, bad):
        # a NaN or infinite parameter is not saved, and a file holding one does not load
        model = nn.MlpModel.init([3, 2, 3], seed=4)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(model, str(path))
        saved = path.read_bytes()
        model.params[[1, 16]] = bad
        with pytest.raises(DomainError, match="non-finite"):
            nn.save_checkpoint(model, str(tmp_path / "never.ckpt"))
        assert not (tmp_path / "never.ckpt").exists()
        path.write_bytes(saved[: len(saved) - 8 * model.n_params] + model.params.tobytes())
        with pytest.raises(ParseError, match="non-finite"):
            nn.load_checkpoint(str(path))

    @pytest.mark.parametrize("sizes", [[0, 3], [0, 2, 1]])
    def test_no_input_layers_load(self, tmp_path, sizes):
        model = nn.MlpModel.init(sizes, seed=1)
        model.params[:] = np.arange(model.n_params)
        path = str(tmp_path / "model.ckpt")
        nn.save_checkpoint(model, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.layer_sizes == sizes and np.array_equal(loaded.params, model.params)


class TestAlignedEmpty:
    @pytest.mark.parametrize("shape", [1, 7, 552, (3, 5), (158, 560)])
    def test_starts_a_cache_line(self, shape):
        # several in a row, so that the allocator's placements vary
        for _ in range(8):
            a = nn.aligned_empty(shape)
            assert a.shape == np.empty(shape).shape and a.dtype == np.float64 and a.flags.c_contiguous
            assert a.ctypes.data % nn.CACHE_LINE == 0

    def test_evaluation_workspace_is_aligned(self):
        model = nn.MlpModel.init([9, 10, 20, 10, 2], seed=0)
        loaded = nn.Columns.load(model, np.ones((560, 9)))
        assert loaded.inputs.ctypes.data % nn.CACHE_LINE == 0
        assert nn.Columns(model, 560).stacked.ctypes.data % nn.CACHE_LINE == 0


class TestInit:
    def test_seed_reproducible(self):
        a = nn.MlpModel.init([6, 5, 2], seed=77)
        b = nn.MlpModel.init([6, 5, 2], seed=77)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_glorot_range(self):
        model = nn.MlpModel.init([100, 50], seed=0)
        limit = math.sqrt(6.0 / 150.0)
        assert np.all(np.abs(model.weights[0]) <= limit)
        assert np.all(model.biases[0] == 0.0)

    @pytest.mark.parametrize(
        "weights,biases,message",
        [
            ([], [], "nonempty and aligned"),
            ([np.zeros((2, 3))], [], "nonempty and aligned"),
            ([np.zeros((2, 3))], [np.zeros(2)], "inconsistent shapes"),
        ],
        ids=["empty", "misaligned", "inconsistent"],
    )
    def test_bad_layers_rejected(self, weights, biases, message):
        with pytest.raises(DomainError, match=message):
            nn.MlpModel(weights, biases)

    def test_init_needs_an_input_and_an_output_size(self):
        with pytest.raises(DomainError, match="input and an output size"):
            nn.MlpModel.init([3], seed=0)

    def test_chain_validation(self):
        with pytest.raises(DomainError):
            nn.MlpModel([np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)])
