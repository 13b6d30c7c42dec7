import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from dpbudget import data, dpsgd, nn, schedules
from dpbudget.accounting import BUDGET_TOL, LedgerRecord
from dpbudget.dpsgd import TrainConfig, _clip_factors, noisy_mean_gradient, train
from dpbudget.errors import ConfigError, DomainError, PreconditionError


def clipped_sum(model, x, labels, clip_norm, per_layer):
    """The training step's clipped sum on all of ``x``, in a fresh workspace."""
    batch = nn.Columns.load(model, x, labels)
    nn.backward(batch)
    return dpsgd._clipped_sum(batch, clip_norm, per_layer)


def clip_rows(per_example: np.ndarray, clip_norm: float) -> np.ndarray:
    """Row-wise clipping of an (n_examples, n_params) gradient matrix."""
    if not 0.0 < clip_norm < math.inf:
        raise DomainError(f"clip_norm must be positive and finite, got {clip_norm}")
    return per_example * _clip_factors((per_example * per_example).sum(axis=1), clip_norm)[:, None]


class TestClipGradient:
    def test_scales_down(self):
        g = np.zeros((1, 16))
        g[0, 0] = 8.0
        clipped = clip_rows(g, 4.0)
        assert np.linalg.norm(clipped) == pytest.approx(4.0, rel=1e-12)
        assert np.allclose(clipped, g / 2.0)

    def test_short_vector_unchanged(self):
        g = np.array([[3.0, 0.0]])
        assert np.array_equal(clip_rows(g, 4.0), g)

    def test_zero_vector(self):
        assert np.array_equal(clip_rows(np.zeros((1, 5)), 1.0), np.zeros((1, 5)))

    def test_scaling_invariance_above_threshold(self):
        g = np.random.default_rng(0).normal(size=(1, 12))
        g = 10.0 * g / np.linalg.norm(g)
        a = clip_rows(g, 2.0)
        b = clip_rows(3.7 * g, 2.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_rows(self):
        rows = np.array([[6.0, 8.0], [0.3, 0.4]])
        clipped = clip_rows(rows, 5.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(5.0)
        assert np.array_equal(clipped[1], rows[1])

    def test_domain(self):
        with pytest.raises(DomainError):
            clip_rows(np.ones((1, 3)), 0.0)


class TestNoisyMeanGradient:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 64),
        p=st.integers(1, 40),
        n_zero=st.integers(0, 3),
        clip_at=st.sampled_from(["below", "between", "above"]),
        batch_size=st.integers(1, 100),
        seed=st.integers(0, 2**16),
    )
    def test_zero_noise_is_clipped_mean(self, n, p, n_zero, clip_at, batch_size, seed):
        rng = np.random.default_rng(seed)
        per_example = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=(n, 1))
        per_example[:n_zero] = 0.0
        norms = np.linalg.norm(per_example, axis=1)
        positive = norms[norms > 0]
        lo, hi = (positive.min(), positive.max()) if len(positive) else (1.0, 1.0)
        clip_norm = {"below": 0.5 * lo, "between": math.sqrt(lo * hi), "above": 2.0 * hi}[clip_at]
        got = noisy_mean_gradient(per_example, clip_norm, 0.0, batch_size, rng)
        want = clip_rows(per_example, clip_norm).sum(axis=0) / batch_size
        # summation error scales with the summed terms, not with their sum
        assert np.linalg.norm(got - want) <= 1e-12 * np.minimum(norms, clip_norm).sum() / batch_size

    def test_noise_std_calibrated(self):
        rng = np.random.default_rng(123)
        per_example = np.zeros((1, 50))
        sigma, clip, batch = 4.0, 2.0, 16
        draws = np.stack([
            noisy_mean_gradient(per_example, clip, sigma, batch, rng) for _ in range(10_000)
        ])
        target = sigma * clip / batch
        pooled_std = draws.std()
        assert abs(pooled_std - target) / target < 0.02

    def test_coordinates_uncorrelated(self):
        rng = np.random.default_rng(7)
        per_example = np.zeros((1, 8))
        n = 6000
        draws = np.stack([
            noisy_mean_gradient(per_example, 1.0, 2.0, 4, rng) for _ in range(n)
        ])
        centered = draws - draws.mean(axis=0)
        cov = centered.T @ centered / n
        var = float(np.diag(cov).mean())
        off = cov[~np.eye(8, dtype=bool)]
        se = var / math.sqrt(n)  # sd of the empirical covariance of independents
        assert np.max(np.abs(off)) < 3 * se

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            noisy_mean_gradient(np.empty((0, 3)), 1.0, 1.0, 1, np.random.default_rng(0))

    def test_nonpositive_batch_size_rejected(self):
        with pytest.raises(DomainError, match="batch_size must be positive"):
            noisy_mean_gradient(np.ones((2, 3)), 1.0, 1.0, 0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "clip_norm,sigma",
        [(1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (1.0, -3.0),
         (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0)],
    )
    def test_invalid_noise_parameters_rejected(self, clip_norm, sigma):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            noisy_mean_gradient(np.ones((2, 3)), clip_norm, sigma, 2, rng)
        model = nn.MlpModel.init([2, 3, 2], seed=0)
        step = dpsgd._TrainingStep(model, nn.Columns.load(model, np.ones((2, 2)), np.zeros(2, dtype=int)), clip_norm, False)
        # an empty batch releases noise alone, and no batch releases nothing: both are checked alike
        for batches in ([np.arange(2)], [np.arange(0)], []):
            with pytest.raises(DomainError):
                step(batches, sigma, 0.1, None, rng)


def per_example_matrix(model, x, labels):
    """Per-example gradients as the rows of one (n, params) matrix."""
    grads = nn.per_example_gradients(model, x, labels)
    return np.concatenate([g.reshape(len(x), -1) for g in grads], axis=1)


def oracle_clipped_sum(model, x, labels, clip_norm, per_layer):
    """The per-example matrix clipped row by row (per layer block when
    ``per_layer``), then summed."""
    flat = per_example_matrix(model, x, labels)
    return np.concatenate([clip_rows(flat[:, s], clip_norm).sum(axis=0) for s in layer_blocks(model, per_layer)])


def layer_blocks(model, per_layer):
    """Column slices of the per-example matrix: one per layer, or one for the
    whole model."""
    sizes = [w.size + b.size for w, b in zip(model.weights, model.biases)]
    if not per_layer:
        return [slice(0, sum(sizes))]
    edges = np.cumsum([0] + sizes)
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


class TestGhostClipping:
    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        # 140 and 560 are the rf batch sizes of the benchmark's training runs
        batch=st.one_of(st.integers(1, 64), st.sampled_from([140, 560])),
        n_saturated=st.integers(0, 3),
        clip_at=st.sampled_from(["below", "between", "above"]),
        per_layer=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_example_oracle(self, sizes, batch, n_saturated, clip_at, per_layer, seed):
        sizes[-1] = max(sizes[-1], 2)
        model = nn.MlpModel.init(sizes, seed=seed)
        model.params[:] += np.random.default_rng(seed).normal(0.0, 0.1, model.n_params)  # nonzero biases
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(batch, sizes[0]))
        labels = rng.integers(0, sizes[-1], size=batch)
        # A huge input labelled with its own prediction saturates the softmax
        # to exactly one-hot (unless every unit of some layer is dead), which
        # gives the row an exactly zero gradient.
        k = min(n_saturated, batch)
        x[:k] *= 1e6
        labels[:k] = nn.predict(model, x[:k])

        flat = per_example_matrix(model, x, labels)
        norms = np.concatenate([np.linalg.norm(flat[:, s], axis=1) for s in layer_blocks(model, per_layer)])
        positive = norms[norms > 0]
        lo, hi = (positive.min(), positive.max()) if len(positive) else (1.0, 1.0)
        clip_norm = {"below": 0.5 * lo, "between": math.sqrt(lo * hi), "above": 2.0 * hi}[clip_at]

        want = oracle_clipped_sum(model, x, labels, clip_norm, per_layer)
        got = clipped_sum(model, x, labels, clip_norm, per_layer)
        # summation error scales with the summed terms, not with their sum
        scale = np.minimum(norms, clip_norm).sum()
        assert np.linalg.norm(got - want) <= 1e-12 * scale

    def test_saturated_rows_have_zero_gradient(self):
        model = nn.MlpModel.init([3, 5, 2], seed=4)
        x = 1e6 * np.abs(np.random.default_rng(2).normal(size=(4, 3)))
        labels = nn.predict(model, x)
        assert all(np.all(g == 0.0) for g in nn.per_example_gradients(model, x, labels))
        got = clipped_sum(model, x, labels, 1.0, True)
        assert np.array_equal(got, np.zeros(model.n_params))


def small_blobs():
    ds = data.synth_blobs(120, 2, 2, seed=5, separation=4.0)
    return ds


def accounting_cost_just_below(sigma):
    return 0.999 / (2.0 * sigma * sigma)


class TestTrainRf:
    def test_uniform_epoch_count(self):
        ds = small_blobs()
        config = TrainConfig(
            schedule=schedules.uniform(8.0),
            clip_norm=1.0,
            max_epochs=200,
            seed=1,
            rho_total=0.78125,
            batch_size=40,
        )
        model = nn.MlpModel.init([2, 8, 2], seed=1)
        report = train(config, ds, model)
        assert report.epochs_run == 100
        assert report.stop_reason == "budget_exhausted"
        assert report.total_rho == 0.78125

    def test_exp_decay_epoch_count(self):
        ds = small_blobs()
        config = TrainConfig(
            schedule=schedules.exp_decay(10.0, 0.01),
            clip_norm=1.0,
            max_epochs=200,
            seed=2,
            rho_total=0.78125,
            batch_size=60,
        )
        report = train(config, ds, nn.MlpModel.init([2, 8, 2], seed=2))
        assert report.epochs_run == 71
        assert [r.sigma for r in report.records] == [
            schedules.sigma_at(config.schedule, t) for t in range(71)
        ]

    def test_epoch_cost_independent_of_batch_size(self):
        ds = small_blobs()
        totals = {}
        for batch_size in (1, 10, len(ds)):
            config = TrainConfig(
                schedule=schedules.uniform(10.0),
                clip_norm=1.0,
                max_epochs=5,
                seed=3,
                rho_total=1.0,
                batch_size=batch_size,
            )
            report = train(config, ds, nn.MlpModel.init([2, 8, 2], seed=3))
            totals[batch_size] = report.total_rho
        assert totals[1] == totals[10] == totals[len(ds)]

    def test_deterministic_per_seed(self):
        ds = small_blobs()
        def run():
            config = TrainConfig(
                schedule=schedules.uniform(6.0),
                clip_norm=1.0,
                max_epochs=8,
                seed=11,
                rho_total=1.0,
                batch_size=30,
            )
            return train(config, ds, nn.MlpModel.init([2, 8, 2], seed=11))
        a, b = run(), run()
        assert a.records == b.records
        assert a.stop_reason == b.stop_reason

    def test_ledger_replay_matches_report(self):
        ds = small_blobs()
        config = TrainConfig(
            schedule=schedules.step_decay(10.0, 0.6, 10),
            clip_norm=1.0,
            max_epochs=100,
            seed=4,
            rho_total=0.78125,
            batch_size=40,
        )
        report = train(config, ds, nn.MlpModel.init([2, 8, 2], seed=4))
        assert report.epochs_run == 31
        replayed = report.ledger.replay()
        assert replayed.rho_sum == report.total_rho
        assert replayed.to_dp(1e-5) == report.final_privacy

    def test_privacy_before_compute(self):
        # a budget below the first epoch's cost means nothing runs and the
        # model is never touched
        ds = small_blobs()
        model = nn.MlpModel.init([2, 8, 2], seed=12)
        before = [w.copy() for w in model.weights]
        config = TrainConfig(
            schedule=schedules.uniform(8.0),
            clip_norm=1.0,
            max_epochs=10,
            seed=12,
            rho_total=accounting_cost_just_below(8.0),
            batch_size=40,
        )
        report = train(config, ds, model)
        assert report.epochs_run == 0
        assert report.stop_reason == "budget_exhausted"
        assert report.total_rho == 0.0
        assert all(np.array_equal(a, b) for a, b in zip(before, model.weights))

    def test_max_epochs_stop(self):
        ds = small_blobs()
        config = TrainConfig(
            schedule=schedules.uniform(8.0),
            clip_norm=1.0,
            max_epochs=5,
            seed=5,
            rho_total=10.0,
            batch_size=40,
        )
        report = train(config, ds, nn.MlpModel.init([2, 8, 2], seed=5))
        assert report.stop_reason == "max_epochs"
        assert report.epochs_run == 5

    def test_validation_schedule_drives_sigma(self):
        ds = small_blobs()
        train_set, rest = data.train_test_split(ds, 80, seed=0)
        val_set, test_set = data.train_test_split(rest, 20, seed=1)
        sched = schedules.NoiseSchedule("validation", 10.0, k=0.5, period=1, delta_thresh=1.0, m=1)
        # threshold 1.0 means every check triggers: sigma halves each epoch
        config = TrainConfig(
            schedule=sched,
            clip_norm=1.0,
            max_epochs=4,
            seed=6,
            rho_total=100.0,
        )
        report = train(config, train_set, nn.MlpModel.init([2, 8, 2], seed=6), test_data=test_set, validation_data=val_set)
        assert [r.sigma for r in report.records] == [10.0, 5.0, 2.5, 1.25]
        assert all(r.val_acc is not None for r in report.records)

    def test_validation_schedule_requires_data(self):
        ds = small_blobs()
        sched = schedules.NoiseSchedule("validation", 10.0, k=0.5, period=1, delta_thresh=0.01, m=1)
        config = TrainConfig(schedule=sched, clip_norm=1.0, max_epochs=2, seed=0, rho_total=1.0)
        with pytest.raises(ConfigError):
            train(config, ds, nn.MlpModel.init([2, 8, 2], seed=0))

    def test_per_layer_clip_charges_per_layer(self):
        ds = small_blobs()
        config = TrainConfig(
            schedule=schedules.uniform(10.0),
            clip_norm=1.0,
            max_epochs=3,
            seed=7,
            rho_total=1.0,
            batch_size=40,
            per_layer_clip=True,
        )
        model = nn.MlpModel.init([2, 8, 2], seed=7)
        report = train(config, ds, model)
        assert report.total_rho == pytest.approx(3 * 2 * 0.005)  # 2 layers, 3 epochs


class TestTrainRs:
    def test_budget_checked_termination(self):
        ds = small_blobs()
        config = TrainConfig(
            schedule=schedules.uniform(6.0),
            clip_norm=1.0,
            max_epochs=50,
            seed=8,
            batching="rs",
            q=0.01,
            iters_per_epoch=100,
            eps_total=0.5,
            delta=1e-5,
        )
        report = train(config, ds, nn.MlpModel.init([2, 8, 2], seed=8))
        assert report.stop_reason == "budget_exhausted"
        assert report.final_privacy.eps <= 0.5
        replayed = report.ledger.replay()
        assert replayed.rho_hat == report.total_rho

    def test_per_layer_clip_charges_per_layer(self):
        ds = small_blobs()
        config = TrainConfig(
            schedule=schedules.uniform(6.0),
            clip_norm=1.0,
            max_epochs=1,
            seed=10,
            batching="rs",
            q=0.01,
            iters_per_epoch=100,
            eps_total=10.0,
            per_layer_clip=True,
        )
        report = train(config, ds, nn.MlpModel.init([2, 8, 8, 2], seed=10))
        assert report.epochs_run == 1
        # 100 iterations of 3 releases, one per layer
        assert report.ledger.records == [LedgerRecord(0, 0, 100, 3, 0.01, 6.0, 0.01 ** 2 / 36.0)]
        assert report.total_rho == pytest.approx(3 * 100 * 0.01 ** 2 / 36.0, rel=1e-12)

    def test_empty_batch_releases_noise_over_expected_lot_size(self):
        ds = data.synth_blobs(20, 2, 2, seed=0)
        q, sigma, lr, seed = 0.001, 4.0, 0.05, 3
        config = TrainConfig(
            schedule=schedules.uniform(sigma), clip_norm=1.0, max_epochs=1, seed=seed,
            batching="rs", q=q, iters_per_epoch=1, eps_total=10.0, lr=lr,
        )
        model = nn.MlpModel.init([2, 4, 2], seed=0)
        before = flat_params(model)
        # replay the trainer's generator: the epoch's batches are drawn first, then the noise
        rng = np.random.default_rng(seed)
        assert [len(batch) for batch in data.rs_batches(len(ds), q, 1, rng)] == [0]
        noise = rng.normal(0.0, sigma * config.clip_norm, size=model.n_params)
        train(config, ds, model)
        np.testing.assert_allclose(flat_params(model), before - lr * noise / (q * len(ds)), rtol=1e-14, atol=0)

    def test_sigma_floor_aborts_a_decaying_schedule(self):
        config = TrainConfig(
            schedule=schedules.exp_decay(4.0, 1.0),  # sigma 1.47 in epoch 1
            clip_norm=1.0, max_epochs=3, seed=9, batching="rs", q=0.01, iters_per_epoch=10, eps_total=50.0,
        )
        model, first_epoch_only = nn.MlpModel.init([2, 8, 2], seed=9), nn.MlpModel.init([2, 8, 2], seed=9)
        with pytest.raises(PreconditionError, match="sigma >= 2.0"):
            train(config, small_blobs(), model)
        # epoch 0 ran at sigma 4; nothing was released once epoch 1's first charge was refused
        train(dataclasses.replace(config, max_epochs=1), small_blobs(), first_epoch_only)
        assert np.array_equal(model.params, first_epoch_only.params)

    def test_ratio_precondition_aborts(self):
        ds = small_blobs()
        config = TrainConfig(
            schedule=schedules.uniform(6.0),
            clip_norm=1.0,
            max_epochs=2,
            seed=9,
            batching="rs",
            q=0.02,  # violates 0.02 <= 1/96
            iters_per_epoch=10,
            eps_total=5.0,
        )
        with pytest.raises(PreconditionError):
            train(config, ds, nn.MlpModel.init([2, 8, 2], seed=9))


class TestOneRecordPerEpoch:
    """Each epoch is one admission, so it writes one ledger record: rf epochs
    whole, rs epochs from iteration 0, the exhausted one in part."""

    @pytest.mark.parametrize("per_layer_clip", [False, True])
    def test_rf(self, per_layer_clip):
        config = TrainConfig(
            schedule=schedules.exp_decay(8.0, 0.1), clip_norm=1.0, max_epochs=50, seed=3,
            rho_total=0.2, batch_size=40, per_layer_clip=per_layer_clip,
        )
        report = train(config, small_blobs(), nn.MlpModel.init([2, 8, 2], seed=3))
        assert report.stop_reason == "budget_exhausted"
        releases = 2 if per_layer_clip else 1
        assert [(r.epoch, r.iterations, r.releases) for r in report.ledger.records] == [
            (epoch, 1, releases) for epoch in range(report.epochs_run)
        ]

    @pytest.mark.parametrize("per_layer_clip", [False, True])
    def test_rs_epochs_start_at_iteration_0_and_the_last_is_partial(self, per_layer_clip):
        config = TrainConfig(
            schedule=schedules.uniform(6.0), clip_norm=1.0, max_epochs=50, seed=8, batching="rs",
            q=0.01, iters_per_epoch=100, eps_total=0.5, per_layer_clip=per_layer_clip,
        )
        report = train(config, small_blobs(), nn.MlpModel.init([2, 8, 2], seed=8))
        assert report.stop_reason == "budget_exhausted"
        records = report.ledger.records
        assert [r.epoch for r in records] == list(range(report.epochs_run + 1))
        assert all(r.iteration == 0 and r.releases == (2 if per_layer_clip else 1) for r in records)
        assert [r.iterations for r in records[:-1]] == [100] * report.epochs_run
        assert 0 < records[-1].iterations < 100


class TestNonFiniteModelRefused:
    # rf's first step leaves finite parameters near 1e300, its second overflows;
    # rs takes ten steps in epoch 0
    @pytest.mark.parametrize("batching,epoch", [("rf", 1), ("rs", 0)])
    def test_overflowing_step_raises(self, batching, epoch):
        budget = {"rho_total": 1.0} if batching == "rf" else {"q": 0.01, "iters_per_epoch": 10, "eps_total": 1.0}
        config = TrainConfig(
            schedule=schedules.uniform(4.0), clip_norm=1.0, max_epochs=100, seed=1, batching=batching,
            lr=1e300, **budget,
        )
        # the refusal is the one report: numpy warns of no overflow on the way
        with warnings.catch_warnings(), pytest.raises(DomainError, match=f"epoch {epoch} left non-finite"):
            warnings.simplefilter("error", RuntimeWarning)
            train(config, data.synth_blobs(40, 2, 2, seed=0), nn.MlpModel.init([2, 8, 2], seed=1))


def flat_params(model):
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(model.weights, model.biases)])


def assert_replay_exact(ledger):
    replayed = ledger.replay()
    assert (replayed.rho_sum, replayed.rho_hat, replayed.u_alpha_min, replayed.records) == (
        ledger.rho_sum, ledger.rho_hat, ledger.u_alpha_min, ledger.records
    )


def schedule_of(kind, sigma0):
    return schedules.uniform(sigma0) if kind == "uniform" else schedules.exp_decay(sigma0, 0.1)


SPEND_BLOBS = data.synth_blobs(30, 2, 2, seed=1)


class TestSpendProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "exp"]),
        sigma0=st.floats(0.5, 20.0),
        rho_total=st.floats(0.0, 1.0),
        batch_size=st.integers(1, len(SPEND_BLOBS)),
        per_layer_clip=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_rf_spend_within_budget(self, kind, sigma0, rho_total, batch_size, per_layer_clip, seed):
        config = TrainConfig(
            schedule=schedule_of(kind, sigma0), clip_norm=1.0, max_epochs=4, seed=seed,
            rho_total=rho_total, batch_size=batch_size, per_layer_clip=per_layer_clip,
        )
        report = train(config, SPEND_BLOBS, nn.MlpModel.init([2, 4, 2], seed=seed))
        assert report.ledger.rho_sum <= rho_total + BUDGET_TOL
        releases = 2 if per_layer_clip else 1
        assert [(r.epoch, r.iterations, r.releases) for r in report.ledger.records] == [
            (epoch, 1, releases) for epoch in range(report.epochs_run)
        ]
        assert_replay_exact(report.ledger)

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "exp"]),
        # from 2.5, exp decay by 0.1 an epoch stays above RS_SIGMA_MIN for the
        # three epochs: 2.5 e^-0.2 = 2.05
        sigma0=st.floats(2.5, 10.0),
        q_frac=st.floats(0.05, 1.0),
        eps_total=st.floats(0.0, 2.0),
        per_layer_clip=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_rs_spend_within_budget(self, kind, sigma0, q_frac, eps_total, per_layer_clip, seed):
        config = TrainConfig(
            schedule=schedule_of(kind, sigma0), clip_norm=1.0, max_epochs=3, seed=seed,
            batching="rs", q=q_frac / (16.0 * sigma0), iters_per_epoch=10, eps_total=eps_total,
            per_layer_clip=per_layer_clip,
        )
        report = train(config, SPEND_BLOBS, nn.MlpModel.init([2, 4, 2], seed=seed))
        assert report.final_privacy.eps <= eps_total
        releases = 2 if per_layer_clip else 1
        # one record per epoch, of the epoch's admitted iterations from 0
        assert [(r.epoch, r.iteration, r.releases) for r in report.ledger.records] == [
            (epoch, 0, releases) for epoch in range(len(report.ledger.records))
        ]
        assert_replay_exact(report.ledger)


DETERMINISTIC_SCHEDULES = {
    "uniform": lambda sigma0: schedules.uniform(sigma0),
    "time": lambda sigma0: schedules.time_decay(sigma0, 0.2),
    "exp": lambda sigma0: schedules.exp_decay(sigma0, 0.2),
    "step": lambda sigma0: schedules.step_decay(sigma0, 0.5, period=2),
    "poly": lambda sigma0: schedules.poly_decay(sigma0, sigma0 / 4.0, 1.0, period=5),
}


def gaussian_delta(eps, mu):
    """Exact delta(eps) of a mu-GDP mechanism (Balle & Wang 2018,
    arXiv:1805.06530; Dong, Roth & Su 2019, arXiv:1905.02383)."""
    return ndtr(-eps / mu + mu / 2.0) - math.exp(eps) * ndtr(-eps / mu - mu / 2.0)


class TestLedgerAgainstExactGaussianComposition:
    """rf training releases Gaussian mechanisms of sensitivity C and noise
    sigma_i C, one per ledger step; their composition is exactly mu-GDP with
    mu = sqrt(sum 1/sigma_i^2).  The reported (eps, delta) must hold for that
    mechanism: delta(eps_reported) <= delta.  The validation schedule is
    excluded because it picks sigma from data, which makes the composition
    adaptive and this formula no longer the statement to test."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(DETERMINISTIC_SCHEDULES)),
        sigma0=st.floats(0.5, 20.0),
        rho_total=st.floats(0.01, 3.0),
        batch_size=st.integers(1, len(SPEND_BLOBS)),
        per_layer_clip=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_reported_eps_holds_for_exact_gdp(self, kind, sigma0, rho_total, batch_size, per_layer_clip, seed):
        schedule = DETERMINISTIC_SCHEDULES[kind](sigma0)
        config = TrainConfig(
            schedule=schedule, clip_norm=1.0, max_epochs=6, seed=seed,
            rho_total=rho_total, batch_size=batch_size, per_layer_clip=per_layer_clip,
        )
        model = nn.MlpModel.init([2, 4, 2], seed=seed)
        report = train(config, SPEND_BLOBS, model)
        releases = len(model.weights) if per_layer_clip else 1
        sigmas = [r.sigma for r in report.ledger.records for _ in range(r.iterations * r.releases)]
        assert sigmas == [
            schedules.sigma_at(schedule, epoch) for epoch in range(report.epochs_run) for _ in range(releases)
        ]
        if not sigmas:
            return
        mu = math.sqrt(sum(1.0 / (sigma * sigma) for sigma in sigmas))
        assert gaussian_delta(report.final_privacy.eps, mu) <= config.delta


def per_example_update(model, x, labels, sigma, lr, clip_norm, per_layer, rng, lot_size):
    """The trainer's update as it was before ghost clipping: noise first, then
    the per-example gradient matrix clipped row by row, then one SGD step."""
    total = rng.normal(0.0, sigma * clip_norm, size=model.n_params)
    if len(x):
        total += oracle_clipped_sum(model, x, labels, clip_norm, per_layer)
    step, grads, offset = total / lot_size, [], 0
    for w, b in zip(model.weights, model.biases):
        grads += [step[offset:offset + w.size].reshape(w.shape), step[offset + w.size:offset + w.size + b.size]]
        offset += w.size + b.size
    nn.sgd_step(model, grads, lr)


class TestMatchesPerExampleUpdate:
    @pytest.mark.parametrize("per_layer_clip", [False, True])
    @pytest.mark.parametrize(
        "n_examples,batching",
        [
            (120, {"batch_size": None}),
            (120, {"batch_size": 7}),
            (120, {"batching": "rs", "q": 0.02, "iters_per_epoch": 20}),
            # at q n = 1, about a third of the sampled batches are empty
            (50, {"batching": "rs", "q": 0.02, "iters_per_epoch": 20}),
        ],
        ids=["rf-full", "rf-7", "rs", "rs-empty-batches"],
    )
    def test_same_stream_same_parameters(self, monkeypatch, n_examples, batching, per_layer_clip):
        ds = data.synth_blobs(n_examples, 2, 2, seed=5, separation=4.0)
        budget = {"eps_total": 50.0} if "q" in batching else {"rho_total": 50.0}
        # rs accounting admits sigma >= RS_SIGMA_MIN only: 3 e^-0.3 = 2.22 at
        # the last epoch, and q <= 1/(16 * 3)
        sigma0 = 3.0 if "q" in batching else 1.0
        config = TrainConfig(
            schedule=schedules.exp_decay(sigma0, 0.1), clip_norm=0.5, max_epochs=4, seed=21, lr=0.2,
            per_layer_clip=per_layer_clip, **batching, **budget,
        )

        def run():
            model = nn.MlpModel.init([2, 8, 6, 2], seed=21)
            return model, train(config, ds, model)

        batch_sizes = []

        class ReferenceStep:
            """Stands in for the trainer's step: the per-example oracle on
            every batch of an epoch, in order, each dividing by its own size
            when no lot size is given."""

            def __init__(self, model, loaded, clip_norm, per_layer):
                self.model, self.features, self.labels = model, ds.features, ds.labels
                self.clip_norm, self.per_layer = clip_norm, per_layer

            def __call__(self, batches, sigma, lr, lot_size, rng):
                for indices in batches:
                    batch_sizes.append(len(indices))
                    per_example_update(
                        self.model, self.features[indices], self.labels[indices], sigma, lr,
                        self.clip_norm, self.per_layer, rng, len(indices) if lot_size is None else lot_size,
                    )

        ghost, ghost_report = run()
        with monkeypatch.context() as patch:
            patch.setattr(dpsgd, "_TrainingStep", ReferenceStep)
            reference, reference_report = run()
        if "q" in batching:
            assert len(batch_sizes) == sum(r.iterations for r in reference_report.ledger.records) == 4 * 20
        else:
            per_epoch = math.ceil(n_examples / (batching["batch_size"] or n_examples))
            assert len(batch_sizes) == 4 * per_epoch
        assert np.linalg.norm(ghost.params - reference.params) <= 1e-10 * np.linalg.norm(reference.params)
        assert ghost_report.epochs_run == reference_report.epochs_run == 4
        assert ghost_report.ledger.records == reference_report.ledger.records
        assert ghost_report.total_rho == reference_report.total_rho
        assert ghost_report.final_privacy == reference_report.final_privacy
        if n_examples == 50:
            assert 15 <= batch_sizes.count(0) <= 45


def single_batch_update(model, x, labels, clip_norm, sigma, per_layer, lr, lot_size, rng):
    """One release on all of ``x`` in a fresh workspace, with its own noise
    draw, applied as one SGD step: ``params -= lr * (total / lot_size)``,
    with the batch's size for a lot size of None."""
    total = clipped_sum(model, x, labels, clip_norm, per_layer) + rng.standard_normal(model.n_params) * (sigma * clip_norm)
    model.params -= lr * (total / (len(x) if lot_size is None else lot_size))


class TestTrainingStep:
    """The trainer's step runs an epoch's batches in one call, with their
    noise drawn in blocks of rows and one workspace per batch size kept
    across calls; k fresh single-batch releases, each with its own noise
    draw, must agree with it bit for bit, parameters and generator state,
    whatever sizes came before."""

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        n=st.integers(1, 24),
        drawn=st.lists(st.integers(0, 24), min_size=1, max_size=6),
        per_layer=st.booleans(),
        sigma=st.sampled_from([0.0, 0.8]),
        lot_size=st.sampled_from([None, 3.5]),
        # rows of a noise block: fewer than, or at least, the epoch's batches
        block_rows=st.sampled_from([1, 2, 3, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_epoch_matches_single_batch_steps(self, sizes, n, drawn, per_layer, sigma, lot_size, block_rows, seed):
        sizes[-1] = max(sizes[-1], 2)
        model = nn.MlpModel.init(sizes, seed=seed)
        reference = nn.MlpModel(model.weights, model.biases)
        data_rng = np.random.default_rng(seed + 1)
        x = data_rng.normal(size=(n, sizes[0]))
        labels = data_rng.integers(0, sizes[-1], size=n)
        clip_norm, lr = 0.7, 0.3
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dpsgd, "NOISE_BLOCK_BYTES", block_rows * 8 * model.n_params)
            step = dpsgd._TrainingStep(model, nn.Columns.load(model, x, labels), clip_norm, per_layer)
        assert step.block_rows == block_rows
        # each size comes back after the others, with n and (when a lot size
        # is given, as in rs training) 0 among them
        smallest = 0 if lot_size else 1
        batch_sizes = [min(max(b, smallest), n) for b in drawn] + [smallest, n]
        batch_sizes += batch_sizes[::-1]
        epochs = [batch_sizes[: len(batch_sizes) // 2], batch_sizes[len(batch_sizes) // 2 :]]
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for epoch in epochs:
            batches = [np.sort(data_rng.choice(n, size=size, replace=False)) for size in epoch]
            step(batches, sigma, lr, lot_size, rng)
            for indices in batches:
                single_batch_update(
                    reference, x[indices], labels[indices], clip_norm, sigma, per_layer, lr, lot_size, reference_rng
                )
            assert model.params.tobytes() == reference.params.tobytes()
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_noise_block_smaller_than_the_epoch(self):
        # 151,502 parameters: one row takes more than half of the block's bytes
        model = nn.MlpModel.init([300, 500, 2], seed=0)
        reference = nn.MlpModel(model.weights, model.biases)
        data_rng = np.random.default_rng(1)
        x, labels = data_rng.normal(size=(8, 300)), data_rng.integers(0, 2, size=8)
        step = dpsgd._TrainingStep(model, nn.Columns.load(model, x, labels), 1.0, False)
        assert step.block_rows == 1
        batches = [np.arange(3), np.arange(0), np.arange(8)]
        rng, reference_rng = np.random.default_rng(2), np.random.default_rng(2)
        step(batches, 1.5, 0.1, 4.0, rng)
        for indices in batches:
            single_batch_update(reference, x[indices], labels[indices], 1.0, 1.5, False, 0.1, 4.0, reference_rng)
        assert len(step.noise) == 1
        assert model.params.tobytes() == reference.params.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_buffers_start_cache_lines(self):
        model = nn.MlpModel.init([9, 10, 20, 10, 2], seed=0)
        step = dpsgd._TrainingStep(model, nn.Columns.load(model, np.ones((560, 9)), np.zeros(560, dtype=int)), 1.0, False)
        for n in (560, 140, 6):
            step([np.arange(n)] * 3, 1.0, 0.1, None, np.random.default_rng(0))
            batch = step.batches[n]
            assert batch.stacked.ctypes.data % nn.CACHE_LINE == 0
        assert step.loaded.examples.ctypes.data % nn.CACHE_LINE == 0
        # 552 parameters fill whole cache lines, so every noise row starts one
        assert len(step.noise) == 3
        assert all(row.ctypes.data % nn.CACHE_LINE == 0 for row in step.noise)

    @pytest.mark.parametrize("per_layer", [False, True])
    def test_empty_batch_releases_the_noise_alone(self, per_layer):
        # after a nonempty batch, so that the shared buffer holds its values
        model = nn.MlpModel.init([9, 10, 20, 10, 2], seed=0)
        rng = np.random.default_rng(1)
        x, labels = rng.normal(size=(30, 9)), rng.integers(0, 2, size=30)
        step = dpsgd._TrainingStep(model, nn.Columns.load(model, x, labels), 0.7, per_layer)
        step([np.arange(30)], 1.3, 0.1, 2.5, rng)
        before, state = model.params.copy(), rng.bit_generator.state
        step([np.arange(0)], 1.3, 0.1, 2.5, rng)
        replay = np.random.default_rng()
        replay.bit_generator.state = state
        assert model.params.tobytes() == (before - replay.standard_normal(model.n_params) * (1.3 * 0.7) / 2.5 * 0.1).tobytes()

    def test_labels_beyond_the_outputs_rejected(self):
        model = nn.MlpModel.init([2, 3, 2], seed=0)
        for bad in (-1, 2):
            with pytest.raises(DomainError, match="class ids below the model's 2 outputs"):
                clipped_sum(model, np.ones((3, 2)), np.array([0, 1, bad]), 1.0, False)


class TestConfigValidation:
    def test_missing_budget(self):
        with pytest.raises(ConfigError):
            TrainConfig(schedule=schedules.uniform(8.0), clip_norm=1.0, max_epochs=1, seed=0)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"batching": "xs", "rho_total": 3.0}, "batching must be 'rf' or 'rs'"),
            ({"clip_norm": 0.0, "rho_total": 3.0}, "clip_norm must be positive"),
            ({"delta": 0.0, "rho_total": 3.0}, "delta must lie in"),
            ({"delta": 1.0, "rho_total": 3.0}, "delta must lie in"),
            ({"batching": "rs", "q": 0.01}, "requires an eps_total budget"),
        ],
        ids=["batching-xs", "clip-0", "delta-0", "delta-1", "rs-without-eps_total"],
    )
    def test_invalid_values_rejected(self, fields, message):
        common = {"schedule": schedules.uniform(8.0), "clip_norm": 1.0, "max_epochs": 1, "seed": 0}
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{**common, **fields})

    def test_rs_requires_q(self):
        with pytest.raises(ConfigError):
            TrainConfig(
                schedule=schedules.uniform(8.0), clip_norm=1.0, max_epochs=1, seed=0,
                batching="rs", eps_total=1.0,
            )

    @pytest.mark.parametrize(
        "batching,key,value",
        [("rf", "q", 0.01), ("rf", "iters_per_epoch", 100), ("rf", "eps_total", 1.0), ("rs", "batch_size", 50), ("rs", "rho_total", 3.0)],
    )
    def test_other_modes_keys_rejected(self, batching, key, value):
        budget = {"rho_total": 3.0} if batching == "rf" else {"q": 0.01, "eps_total": 1.0}
        common = {"schedule": schedules.uniform(8.0), "clip_norm": 1.0, "max_epochs": 1, "seed": 0, "batching": batching}
        TrainConfig(**common, **budget)
        with pytest.raises(ConfigError, match=rf"{batching} training does not read \['{key}'\]"):
            TrainConfig(**common, **budget, **{key: value})
