import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dpbudget
from dpbudget import __version__, accounting, cli, data, errors, nn, renyi, schedules
from dpbudget.dpsgd import TrainConfig
from dpbudget.errors import ConfigError
from dpbudget.schedules import NoiseSchedule


def run(argv):
    return cli.main(argv)


class TestAccountCommand:
    def test_default_endpoints(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = run([
            "account", "--q", "0.01", "--sigma", "6", "--epochs", "5",
            "--delta", "1e-5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# dpbudget ")
        assert any(l.startswith("# command:") for l in lines[:3])
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "epoch,eps_zcdp_rf,eps_strong,eps_zcdp_rs,eps_ma"
        rows = [l.split(",") for l in lines[header_idx + 1:]]
        assert len(rows) == 5
        # CLI rows equal direct library calls (no CLI-layer arithmetic)
        eps_rf_direct = accounting.zcdp_to_dp(3 * accounting.gaussian_rho(6.0), 1e-5).eps
        assert float(rows[2][1]) == pytest.approx(eps_rf_direct, abs=5e-7)
        eps_rs_direct = accounting.rs_eps(
            300 * 0.01 ** 2 / 36.0, accounting.rs_order_cap(0.01, 6.0), 1e-5
        )
        assert float(rows[2][3]) == pytest.approx(eps_rs_direct, abs=5e-7)
        eps_ma_direct = renyi.moments_accountant_eps(0.01, 6.0, 300, 1e-5).eps
        assert float(rows[2][4]) == pytest.approx(eps_ma_direct, abs=5e-7)

    def test_zero_epochs_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run(["account", "--epochs", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "epoch,eps_zcdp_rf,eps_strong,eps_zcdp_rs,eps_ma"

    def test_six_decimal_formatting(self, tmp_path):
        out = tmp_path / "fmt.csv"
        run(["account", "--epochs", "1", "--out", str(out)])
        data_row = out.read_text().splitlines()[-1].split(",")
        for cell in data_row[1:]:
            whole, frac = cell.split(".")
            assert len(frac) == 6

    def test_full_default_run_endpoints(self, tmp_path):
        out = tmp_path / "full.csv"
        assert run(["account", "--out", str(out)]) == 0  # defaults: q=0.01, sigma=6, 400 epochs
        final = out.read_text().splitlines()[-1].split(",")
        assert final[0] == "400"
        assert float(final[1]) == pytest.approx(21.5, abs=0.1)
        assert float(final[3]) == pytest.approx(2.37, abs=0.01)
        assert float(final[4]) == pytest.approx(1.67, abs=0.05)


class TestSolveKCommand:
    def test_exp_cell(self, capsys):
        code = run(["solve-k", "--kind", "exp", "--sigma0", "10", "--rho-total", "0.78125", "--target", "60"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.0138"

    def test_step_cell_coarse_grid(self, capsys):
        code = run([
            "solve-k", "--kind", "step", "--sigma0", "10", "--rho-total", "0.78125",
            "--target", "100", "--period", "10", "--grid", "1e-3",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.9560"

    def test_period_selects_per_period_exp_decay(self, capsys):
        code = run(["solve-k", "--kind", "exp", "--sigma0", "10", "--rho-total", "0.78125", "--target", "60", "--period", "10"])
        assert code == 0
        k = float(capsys.readouterr().out)
        assert k == 0.1556  # decays once per 10 epochs, so about ten times the per-epoch 0.0138
        assert schedules.epochs_until_exhaustion(schedules.exp_decay(10.0, k, period=10), 0.78125) == 60

    def test_infeasible_exit_code(self, capsys):
        code = run(["solve-k", "--kind", "exp", "--sigma0", "10", "--rho-total", "0.78125", "--target", "100000"])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err


class TestValidateBoundCommand:
    def test_single_point(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["validate-bound", "--point", "0.01", "4.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["points_checked"] > 0
        assert payload["violations"] == []
        assert payload["worst_slack"] >= 0

    @pytest.mark.parametrize("q", ["1e-13", "0.0123456789012345"])
    def test_point_is_checked_unrounded(self, tmp_path, q):
        # the point is the grid's first q, which is not rounded to 12 decimals
        out = tmp_path / "report.json"
        assert run(["validate-bound", "--point", q, "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        want = renyi.validate_moment_bound([4.0], q_step=1.0, q_start=float(q))
        assert payload["points_checked"] == want.n_points > 0
        assert payload["worst_slack"] == want.worst_slack

    def test_violation_reports_the_unrounded_point(self, tmp_path):
        out = tmp_path / "point.json"
        assert run(["validate-bound", "--point", "0.0497123456789012", "1.0", "--out", str(out)]) == 0
        [violation] = json.loads(out.read_text())["violations"]
        assert (violation["q"], violation["sigma"], violation["alpha"]) == (0.0497123456789012, 1.0, 4)

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "empty.json"
        code = run([
            "validate-bound", "--sigma-min", "30", "--sigma-max", "30",
            "--q-step", "0.005", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["points_checked"] == 0
        assert payload["violations"] == []

    def test_overwrites_longer_file_and_device(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("x" * 100_000)
        assert run(["validate-bound", "--point", "0.01", "4.0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["points_checked"] > 0  # no stale tail
        assert run(["validate-bound", "--point", "0.01", "4.0", "--out", os.devnull]) == 0

    def test_smoke_grid(self, tmp_path):
        out = tmp_path / "smoke.json"
        assert run(["validate-bound", "--smoke", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["points_checked"] == 1911
        assert payload["violations"] == []
        assert payload["worst_slack"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["validate-bound", "--point", "0.01", "nan"],
        ["validate-bound", "--q-step", "0"],
        ["validate-bound", "--point", "nan", "4"],
        ["validate-bound", "--point", "0.01", "-4"],
        ["validate-bound", "--point", "0.01", "inf"],
        ["validate-bound", "--point", "1.0", "0.01"],
        ["validate-bound", "--alpha-cap", "-3"],
        ["validate-bound", "--sigma-min", "3", "--sigma-max", "2"],
        ["validate-bound", "--sigma-step", "0"],
        ["account", "--epochs", "-5"],
        ["account", "--epochs", "0", "--iters-per-epoch", "-3"],
        ["account", "--iters-per-epoch", "0"],
        ["account", "--q", "nan"],
        ["solve-k", "--kind", "exp", "--sigma0", "10", "--target", "60", "--rho-total", "nan"],
        ["solve-k", "--kind", "exp", "--sigma0", "10", "--target", "60", "--rho-total", "inf"],
        ["solve-k", "--kind", "exp", "--sigma0", "10", "--target", "60", "--rho-total", "0.78125", "--grid", "0"],
        ["solve-k", "--kind", "exp", "--sigma0", "10", "--target", "60", "--rho-total", "0.78125", "--grid", "nan"],
        ["solve-k", "--kind", "step", "--sigma0", "10", "--target", "60", "--rho-total", "0.78125"],
        ["solve-k", "--kind", "poly", "--sigma0", "10", "--target", "60", "--rho-total", "0.78125", "--period", "100"],
        ["solve-k", "--kind", "time", "--sigma0", "10", "--target", "60", "--rho-total", "0.78125", "--sigma-end", "2"],
        # 2 sigma0^2 underflows to 0
        ["solve-k", "--kind", "time", "--sigma0", "1e-300", "--rho-total", "0.78125", "--target", "1"],
    ],
)
def test_invalid_numeric_argument_exits_2(tmp_path, capsys, argv):
    out = [] if argv[0] == "solve-k" else ["--out", str(tmp_path / "out")]
    assert run(argv + out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate-bound", "account"])
@pytest.mark.parametrize("point", [["0.5", "2.0"], ["0.01", "8.0"], ["0.0021", "30"]])
def test_point_outside_ratio_bound_exits_3(tmp_path, capsys, command, point):
    # q > 1/(16 sigma): the moment bound is not claimed there, so validate-bound
    # would check nothing and account's rs column would be uncertified
    out = tmp_path / "x.json"
    q, sigma = point
    args = ["--point", q, sigma] if command == "validate-bound" else ["--q", q, "--sigma", sigma]
    assert run([command, *args, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("infeasible: ")
    assert not out.exists()


class TestRsSigmaFloor:
    """rs accounting stops at accounting.RS_SIGMA_MIN, where the validated
    region of the moment bound ends; validate-bound still probes below it."""

    def test_account_below_floor_exits_3(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert run(["account", "--sigma", "1.5", "--q", "0.01", "--out", str(out)]) == 3
        assert "sigma >= 2.0" in capsys.readouterr().err
        assert not out.exists()

    def test_point_below_floor_reports_the_violation(self, tmp_path):
        out = tmp_path / "point.json"
        assert run(["validate-bound", "--point", "0.0497", "1.0", "--out", str(out)]) == 0
        [violation] = json.loads(out.read_text())["violations"]
        assert (violation["alpha"], round(violation["divergence"], 5), round(violation["bound"], 5)) == (4, 0.01126, 0.00988)

    def test_grid_starts_at_the_floor(self):
        args = cli.build_parser().parse_args(["validate-bound", "--out", "x"])
        assert args.sigma_min == accounting.RS_SIGMA_MIN
        assert args.alpha_cap == renyi.ORDER_CAP

    def test_grid_below_floor_skips_pairs_with_no_integer_order(self, tmp_path):
        # 89 of the 125 pairs at sigma 0.5 have an order cap below 2; the other
        # 36 check order 2 alone and break the bound
        out = tmp_path / "grid.json"
        assert run(["validate-bound", "--sigma-min", "0.5", "--sigma-max", "0.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["points_checked"] == len(payload["violations"]) == 36
        assert {v["alpha"] for v in payload["violations"]} == {2}
        assert len({(v["q"], v["sigma"]) for v in payload["violations"]}) == 36

    def test_decaying_rs_train_exits_3_when_sigma_crosses_the_floor(self, tmp_path, capsys):
        # sigma 4 e^-t falls below 2 in epoch 1; the budget would allow far more
        cfg = {
            "data": {"kind": "synth", "n": 100, "d": 2},
            "schedule": {"kind": "exp", "sigma0": 4.0, "k": 1.0},
            "train": {"batching": "rs", "q": 0.01, "clip_norm": 1.0, "max_epochs": 5, "seed": 1, "eps_total": 50.0},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["train", "--config", str(path), "--out", str(out)]) == 3
        assert "sigma >= 2.0" in capsys.readouterr().err
        assert not os.path.exists(str(out) + ".json")


def test_train_with_underflowing_sigma_exits_2(tmp_path, capsys):
    # 2 sigma0^2 underflows to 0, so the first epoch's cost has no value
    cfg = {
        "data": {"kind": "synth", "n": 40, "d": 2},
        "schedule": {"kind": "uniform", "sigma0": 1e-300},
        "train": {"clip_norm": 1.0, "max_epochs": 1, "seed": 1, "rho_total": 1.0},
    }
    path, out = tmp_path / "config.json", tmp_path / "run"
    path.write_text(json.dumps(cfg))
    assert run(["train", "--config", str(path), "--out", str(out)]) == 2
    assert "underflow" in capsys.readouterr().err
    assert not os.path.exists(str(out) + ".json")


@pytest.mark.parametrize("schedule,train", [
    ({"sigma0": 4.0}, {"lr": 1e300}),  # 32 epochs fit rho_total; the step overflows in the second
    ({"sigma0": 1e200}, {}),  # costs no rho, so it would run to max_epochs
])
def test_train_refuses_a_non_finite_model(tmp_path, capsys, schedule, train):
    cfg = {
        "data": {"kind": "synth", "n": 40, "d": 2},
        "schedule": {"kind": "uniform", **schedule},
        "train": {"clip_norm": 1.0, "max_epochs": 100, "seed": 1, "rho_total": 1.0, **train},
    }
    path, out, ckpt = tmp_path / "config.json", tmp_path / "run", tmp_path / "m.ckpt"
    path.write_text(json.dumps(cfg))
    # the refusal is the run's one report: numpy warns of no overflow on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["train", "--config", str(path), "--out", str(out), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == [
        "error: epoch 1 left non-finite model parameters; no model is published"
    ]
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


class TestTrainCommand:
    def make_config(self, tmp_path, cancer_file, schedule, max_epochs=3, rho_total=1.0):
        cfg = {
            "data": {"kind": "cancer", "path": cancer_file},
            "split": {"n_train": 560, "seed": 20},
            "model": {"hidden": [10, 20, 10]},
            "schedule": schedule,
            "train": {
                "clip_norm": 3.0,
                "max_epochs": max_epochs,
                "seed": 101,
                "rho_total": rho_total,
                "lr": 0.3,
            },
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_budget_exhausted_run(self, tmp_path, cancer_file):
        cfg = self.make_config(
            tmp_path, cancer_file,
            {"kind": "uniform", "sigma0": 10.0},
            max_epochs=100, rho_total=0.05,  # 10 epochs at rho 0.005
        )
        out = str(tmp_path / "exhausted")  # not "run": run.json is the config
        code = run(["train", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads(open(out + ".json").read())
        assert report["stop_reason"] == "budget_exhausted"
        assert report["epochs_run"] == 10
        assert report["total_rho"] == pytest.approx(0.05)
        lines = open(out + ".csv").read().splitlines()
        assert lines[0].startswith("# dpbudget ")
        assert "# seed: 101" in lines
        assert [l for l in lines if not l.startswith("#")][0] == "epoch,sigma,train_acc,test_acc,val_acc,cum_rho,cum_eps"

    def test_max_epochs_exit_code(self, tmp_path, cancer_file):
        cfg = self.make_config(tmp_path, cancer_file, {"kind": "uniform", "sigma0": 10.0}, max_epochs=2, rho_total=5.0)
        code = run(["train", "--config", cfg, "--out", str(tmp_path / "m")])
        assert code == 5

    def test_deterministic_bytes(self, tmp_path, cancer_file):
        cfg = self.make_config(tmp_path, cancer_file, {"kind": "exp", "sigma0": 10.0, "k": 0.01}, max_epochs=4, rho_total=1.0)
        out = str(tmp_path / "a")
        writes = []
        for _ in range(2):  # the same command twice, so the recorded command matches too
            run(["train", "--config", cfg, "--out", out])
            writes.append([open(out + suffix, "rb").read() for suffix in (".csv", ".json")])
        assert writes[0] == writes[1]

    def test_checkpoint_written(self, tmp_path, cancer_file):
        cfg = self.make_config(tmp_path, cancer_file, {"kind": "uniform", "sigma0": 10.0}, max_epochs=1, rho_total=1.0)
        ckpt = str(tmp_path / "model.ckpt")
        run(["train", "--config", cfg, "--out", str(tmp_path / "c"), "--checkpoint", ckpt])
        model = nn.load_checkpoint(ckpt)
        assert model.layer_sizes == [9, 10, 20, 10, 2]

    def test_rs_summary_accuracies_are_the_checkpoints(self, tmp_path):
        # the budget runs out mid-epoch, after updates the last epoch record does not see
        cfg = {
            "data": {"kind": "synth", "n": 200, "d": 2, "separation": 1.0},
            "split": {"n_train": 150},
            "schedule": {"kind": "uniform", "sigma0": 4.0},
            "train": {
                "batching": "rs", "q": 0.01, "clip_norm": 1.0, "max_epochs": 1000,
                "seed": 1, "eps_total": 1.0, "lr": 0.5,
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out, ckpt = str(tmp_path / "run"), str(tmp_path / "model.ckpt")
        assert run(["train", "--config", str(path), "--out", out, "--checkpoint", ckpt]) == 0
        summary = json.loads(open(out + ".json").read())
        model = nn.load_checkpoint(ckpt)
        train_set, test_set = data.train_test_split(data.synth_blobs(200, 2, 2, 0, separation=1.0), 150, 0)
        assert summary["final_train_acc"] == nn.accuracy(model, train_set.features, train_set.labels)
        assert summary["final_test_acc"] == nn.accuracy(model, test_set.features, test_set.labels)

    def test_bad_config_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": {"kind": "nope"}}))
        assert run(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "section,override",
        [
            ("train", {"rho_total": -1}),
            ("schedule", {"k": "0.01"}),
            ("train", {"max_epochs": 2.5}),
            ("train", {"lr": -1}),
            ("train", {"batching": "rs", "q": 0.005, "eps_total": math.inf, "rho_total": None}),
            ("train", {"clip_norm": math.nan}),
            ("schedule", {"k": math.nan}),
            ("train", {"batch_size": 0}),
            ("train", {"batching": "rs", "q": 0.005, "eps_total": 1.0, "iters_per_epoch": 0, "rho_total": None}),
            ("train", {"batching": "rs", "q": 0.005, "eps_total": 1.0, "rho_total": None, "batch_size": 50}),
            ("train", {"q": 0.005}),
            ("schedule", {"period": 10, "per_period": True}),
            ("schedule", {"delta_thresh": 0.1}),
        ],
    )
    def test_invalid_value_exits_2(self, tmp_path, cancer_file, section, override):
        path = self.make_config(tmp_path, cancer_file, {"kind": "exp", "sigma0": 10.0, "k": 0.01})
        with open(path) as fh:
            cfg = json.load(fh)
        cfg[section].update(override)
        with open(path, "w") as fh:
            json.dump(cfg, fh)  # writes NaN and Infinity as JSON extensions
        assert run(["train", "--config", path, "--out", str(tmp_path / "bad")]) == 2

    def test_validation_schedule_with_split(self, tmp_path, cancer_file):
        cfg = {
            "data": {"kind": "cancer", "path": cancer_file},
            "split": {"n_train": 560, "seed": 20, "n_validation": 60},
            "model": {"hidden": [10, 20, 10]},
            "schedule": {
                "kind": "validation", "sigma0": 20.0, "k": 0.5,
                "period": 2, "delta_thresh": 1.0, "m": 1,
            },
            "train": {"clip_norm": 3.0, "max_epochs": 6, "seed": 55, "rho_total": 5.0, "lr": 0.3},
        }
        path = tmp_path / "val.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "val-run")  # not "val": val.json is the config
        assert run(["train", "--config", path.as_posix(), "--out", out]) == 5
        lines = [l for l in open(out + ".csv") if not l.startswith("#")]
        rows = [l.strip().split(",") for l in lines[1:]]
        # threshold 1.0 triggers a decay at every period-2 check
        assert [float(r[1]) for r in rows] == [20.0, 20.0, 10.0, 10.0, 5.0, 5.0]
        assert all(r[4] != "" for r in rows)  # val_acc column populated

    def test_validation_schedule_without_split_is_usage_error(self, tmp_path, cancer_file):
        cfg = {
            "data": {"kind": "cancer", "path": cancer_file},
            "split": {"n_train": 560, "seed": 20},
            "schedule": {
                "kind": "validation", "sigma0": 20.0, "k": 0.5,
                "period": 2, "delta_thresh": 0.01, "m": 1,
            },
            "train": {"clip_norm": 3.0, "max_epochs": 3, "seed": 55, "rho_total": 5.0},
        }
        path = tmp_path / "noval.json"
        path.write_text(json.dumps(cfg))
        assert run(["train", "--config", path.as_posix(), "--out", str(tmp_path / "x")]) == 2


def config_keys(cls, skip=()):
    """(key, annotation) for every field of a config dataclass."""
    return [(f.name, f.type) for f in dataclasses.fields(cls) if f.name not in skip]


INVALID_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None, True, False, "1", "", [1.0], {"x": 1}]),
    st.floats(max_value=-1e-300, allow_infinity=False),
    st.integers(max_value=-1),
)


# keys of the synth data, split and model sections
DATASET_KEYS = (
    [("data", key) for key in config_keys(cli.SynthData, skip={"kind"})]
    + [("split", key) for key in config_keys(cli.SplitConfig)]
    + [("model", key) for key in config_keys(cli.ModelConfig)]
)


class TestInvalidTrainConfigs:
    @settings(max_examples=80, deadline=None)
    @given(
        section_key=st.one_of(
            st.tuples(st.just("train"), st.sampled_from(config_keys(TrainConfig, skip={"schedule"}))),
            st.tuples(st.just("schedule"), st.sampled_from(config_keys(NoiseSchedule))),
            st.sampled_from(DATASET_KEYS),
        ),
        value=INVALID_VALUES,
        batching=st.sampled_from(["rf", "rs"]),
    )
    # a non-string schedule kind once escaped as a TypeError from the kind lookup
    @example(section_key=("schedule", ("kind", "str")), value=[1.0], batching="rf")
    def test_invalid_value_exits_2(self, tmp_path_factory, section_key, value, batching):
        section, (key, annotation) = section_key
        # None is a valid Optional value, and a boolean a valid bool one
        assume(not (value is None and annotation.startswith("Optional[")))
        assume(not (isinstance(value, bool) and annotation == "bool"))
        train = {"clip_norm": 1.0, "max_epochs": 2, "seed": 3, "lr": 0.1}
        if batching == "rf":
            train.update(rho_total=1.0)
        else:
            train.update(batching="rs", q=0.01, iters_per_epoch=5, eps_total=1.0)
        cfg = {
            "data": {"kind": "synth", "n": 40, "d": 2},
            "split": {"n_train": 30},
            "model": {"hidden": [4]},
            "schedule": {"kind": "exp", "sigma0": 4.0, "k": 0.1},
            "train": train,
        }
        if key == "hidden" and not isinstance(value, (list, dict, str, type(None))):
            value = [4, value]  # a bad layer width inside the list
        cfg[section][key] = value
        workdir = tmp_path_factory.mktemp("invalid")
        path, out = str(workdir / "config.json"), str(workdir / "run")
        with open(path, "w") as fh:
            json.dump(cfg, fh)  # writes NaN and Infinity as JSON extensions
        assert run(["train", "--config", path, "--out", out]) == 2
        assert not os.path.exists(out + ".json")


TRAIN_CONFIG = {
    "data": {"kind": "synth", "n": 40, "d": 2},
    "split": {"n_train": 30},
    "model": {"hidden": [4]},
    "schedule": {"kind": "uniform", "sigma0": 4.0},
    "train": {"clip_norm": 1.0, "max_epochs": 2, "seed": 3, "rho_total": 1.0},
}
TUNE_MANIFEST = {
    "data": {"kind": "synth", "n": 40, "d": 2},
    "eps": 1.0,
    "seed": 7,
    "candidates": [{"kind": "uniform", "sigma0": 8.0}, {"kind": "uniform", "sigma0": 4.0}],
    "train": {"clip_norm": 1.0, "max_epochs": 1, "rho_total": 1.0},
}
VALIDATION_SCHEDULE = {"kind": "validation", "sigma0": 20.0, "k": 0.5, "period": 2, "delta_thresh": 1.0, "m": 1}


class TestRefusedBeforeData:
    """Config faults that ``train`` and ``tune`` refuse before they read any
    data: the data file named is missing and training never starts, so the
    config's own message is the one report."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(cli.dpsgd, "train", never)

    def refused(self, tmp_path, capsys, command, document):
        document = {**document, "data": {"kind": "cancer", "path": str(tmp_path / "missing.data")}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        option = "--config" if command == "train" else "--manifest"
        assert run([command, option, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and sorted(os.listdir(tmp_path)) == ["config.json"]
        return err

    @pytest.mark.parametrize("override,message", [
        ({"schedule": VALIDATION_SCHEDULE}, "the validation schedule requires split.n_validation"),
        ({"schedule": VALIDATION_SCHEDULE, "split": None}, "the validation schedule requires split.n_validation"),
        ({"split": {"n_train": 30, "n_validation": 30}}, "split.n_validation must be below split.n_train, got 30 of 30"),
        ({"split": {"n_train": 30, "n_validation": 45}}, "split.n_validation must be below split.n_train, got 45 of 30"),
    ])
    def test_train(self, tmp_path, capsys, override, message):
        assert message in self.refused(tmp_path, capsys, "train", {**TRAIN_CONFIG, **override})

    @pytest.mark.parametrize("override,message", [
        ({"candidates": [{"kind": "uniform", "sigma0": 8.0}, VALIDATION_SCHEDULE]},
         "candidates[1] is a validation schedule, and a candidate's portion has no validation split"),
        ({"candidates": [{"kind": "uniform", "sigma0": 8.0}, {"kind": "exp", "sigma0": 8.0}]}, "exp decay requires 0 < k"),
        ({"model": {"hidden": [0]}}, "model.hidden must be a list of positive integers"),
        ({"train": {"clip_norm": 0.0, "max_epochs": 1, "rho_total": 1.0}}, "clip_norm must be positive"),
        ({"train": {"clip_norm": 1.0, "max_epochs": 1, "rho_total": 1.0, "q": 0.01}}, "rf training does not read ['q']"),
    ])
    def test_tune(self, tmp_path, capsys, override, message):
        assert message in self.refused(tmp_path, capsys, "tune", {**TUNE_MANIFEST, **override})


@pytest.mark.parametrize(
    "command,document,message",
    [
        pytest.param(
            "train", {**TRAIN_CONFIG, "train": {"clip_norm": 1.0, "max_epochs": 2, "rho_total": 1.0}},
            "train requires keys: ['seed']", id="train-without-seed",
        ),
        pytest.param("train", {**TRAIN_CONFIG, "schedule": 5}, "schedule must be a JSON object", id="schedule-not-object"),
        pytest.param(
            "train", {k: v for k, v in TRAIN_CONFIG.items() if k != "schedule"}, "requires keys: ['schedule']",
            id="train-without-schedule",
        ),
        pytest.param("train", [TRAIN_CONFIG], "must be a JSON object", id="config-is-list"),
        pytest.param("train", {**TRAIN_CONFIG, "split": 5}, "split must be a JSON object", id="split-not-object"),
        pytest.param("train", {**TRAIN_CONFIG, "model": 5}, "model must be a JSON object", id="model-not-object"),
        pytest.param("train", {**TRAIN_CONFIG, "split": {}}, "split requires keys: ['n_train']", id="split-without-n_train"),
        pytest.param(
            "train", {**TRAIN_CONFIG, "split": {"n_train": 30, "seed": -1}}, "split.seed must be a finite nonnegative",
            id="split-seed-negative",
        ),
        pytest.param(
            "train", {**TRAIN_CONFIG, "split": {"n_train": 30, "sed": 4}}, "unknown split keys: ['sed']",
            id="split-unknown-key",
        ),
        pytest.param(
            "train", {**TRAIN_CONFIG, "model": {"hiden": [50, 50]}}, "unknown model keys: ['hiden']",
            id="model-unknown-key",
        ),
        pytest.param(
            "train", {**TRAIN_CONFIG, "splitt": {"n_train": 30}}, "keys: ['splitt']", id="unknown-top-level-section",
        ),
        pytest.param(
            "train", {**TRAIN_CONFIG, "data": {**TRAIN_CONFIG["data"], "path": "x.csv"}}, "unknown data keys: ['path']",
            id="synth-data-with-path",
        ),
        pytest.param(
            "train", {**TRAIN_CONFIG, "train": {**TRAIN_CONFIG["train"], "lr_end": 0.01, "lr_ramp_epochs": 10}},
            "unknown train keys: ['lr_end', 'lr_ramp_epochs']", id="train-lr-ramp-keys",
        ),
        pytest.param(
            "tune", {**TUNE_MANIFEST, "candidate": []}, "keys: ['candidate']", id="tune-unknown-top-level-key",
        ),
        pytest.param(
            "train", {**TRAIN_CONFIG, "data": {"kind": "cancer", "path": 0}}, "data.path must be a string",
            id="data-path-not-string",
        ),
        pytest.param(
            "train", {**TRAIN_CONFIG, "data": {"kind": "mnist", "n": 40}}, "data must be a JSON object of kind",
            id="data-kind-mnist",
        ),
        pytest.param(
            "tune", {k: v for k, v in TUNE_MANIFEST.items() if k != "data"}, "requires keys: ['data']",
            id="tune-without-data",
        ),
        pytest.param("tune", {**TUNE_MANIFEST, "seed": "abc"}, "manifest.seed", id="tune-seed-string"),
        pytest.param("tune", {**TUNE_MANIFEST, "seed": -1}, "manifest.seed", id="tune-seed-negative"),
        pytest.param("tune", {**TUNE_MANIFEST, "eps": "abc"}, "manifest.eps", id="tune-eps-string"),
        pytest.param("tune", {**TUNE_MANIFEST, "candidates": 5}, "candidates must be a list", id="tune-candidates-not-list"),
        pytest.param("tune", {**TUNE_MANIFEST, "train": 5}, "train must be a JSON object", id="tune-train-not-object"),
        pytest.param(
            "tune", {**TUNE_MANIFEST, "train": {**TUNE_MANIFEST["train"], "seed": 1}}, "unknown train keys: ['seed']",
            id="tune-train-with-seed",
        ),
    ],
)
def test_bad_config_structure_exits_2(tmp_path, capsys, command, document, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    flag = "--config" if command == "train" else "--manifest"
    assert run([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.iterdir()) == [path]  # no run summary, CSV or selection file


def test_outputs_record_the_arguments_main_was_given(tmp_path):
    config, manifest = tmp_path / "config.json", tmp_path / "tune.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    manifest.write_text(json.dumps(TUNE_MANIFEST))
    out = {name: str(tmp_path / name) for name in ("curves.csv", "bound.json", "run", "selection.json")}
    account = ["account", "--epochs", "2", "--out", out["curves.csv"]]
    bound = ["validate-bound", "--point", "0.01", "4.0", "--out", out["bound.json"]]
    train = ["train", "--config", str(config), "--out", out["run"]]
    tune = ["tune", "--manifest", str(manifest), "--out", out["selection.json"]]
    assert [run(argv) for argv in (account, bound, train, tune)] == [0, 0, 5, 0]

    def comments(path):
        return [line for line in open(path).read().splitlines() if line.startswith("#")]

    def recorded(path):
        return json.loads(open(path).read())["manifest"]

    assert comments(out["curves.csv"])[1:] == ["# command: " + " ".join(account)]
    assert recorded(out["bound.json"])["command"] == bound
    assert comments(out["run"] + ".csv")[1:] == ["# command: " + " ".join(train), "# seed: 3"]
    assert recorded(out["run"] + ".json") == {"version": __version__, "command": train, "seed": 3}
    assert recorded(out["selection.json"]) == {"version": __version__, "command": tune, "seed": 7}


NUMPY_ONLY = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from dpbudget import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: every command exits 0 with scipy unimportable
    rf = {**TRAIN_CONFIG, "train": {"clip_norm": 1.0, "max_epochs": 10, "seed": 3, "rho_total": 0.0625}}
    rs = {**TRAIN_CONFIG, "train": {"batching": "rs", "q": 0.01, "clip_norm": 1.0, "max_epochs": 1000, "seed": 3, "eps_total": 0.5}}
    for name, document in (("rf.json", rf), ("rs.json", rs), ("tune.json", TUNE_MANIFEST)):
        (tmp_path / name).write_text(json.dumps(document))
    out = str(tmp_path / "out")
    argvs = [
        ["account", "--out", out],
        ["validate-bound", "--point", "0.01", "6", "--out", out],
        ["solve-k", "--kind", "exp", "--sigma0", "10", "--rho-total", "0.78125", "--target", "60"],
        ["train", "--config", str(tmp_path / "rf.json"), "--out", out],
        ["train", "--config", str(tmp_path / "rs.json"), "--out", out],
        ["tune", "--manifest", str(tmp_path / "tune.json"), "--out", out],
    ]
    src = os.path.dirname(os.path.dirname(dpbudget.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(argvs)


class TestTuneCommand:
    def test_selection_record(self, tmp_path, cancer_file, capsys):
        manifest = {
            "data": {"kind": "cancer", "path": cancer_file},
            "eps": 1.0,
            "seed": 7,
            "model": {"hidden": [4]},
            "candidates": [
                {"kind": "uniform", "sigma0": 8.0},
                {"kind": "exp", "sigma0": 10.0, "k": 0.01},
            ],
            "train": {"clip_norm": 1.0, "max_epochs": 2, "rho_total": 1.0, "lr": 0.1},
        }
        mpath = tmp_path / "tune.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "selection.json"
        code = run(["tune", "--manifest", str(mpath), "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["selected"] in (0, 1)
        assert "z_scores" not in record  # exact error counts on private data
        assert capsys.readouterr().out == f"selected candidate {record['selected']}\n"
        assert len(record["portion_sizes"]) == 3
        assert max(record["portion_sizes"]) - min(record["portion_sizes"]) <= 1
        assert record["selection_rho"] == 0.5
        assert record["manifest"]["seed"] == 7

    def test_non_finite_candidate_model_exits_2(self, tmp_path, capsys):
        manifest = {
            "data": {"kind": "synth", "n": 40, "d": 2},
            "eps": 1.0,
            "candidates": [{"kind": "uniform", "sigma0": 8.0}, {"kind": "uniform", "sigma0": 4.0}],
            "train": {"clip_norm": 1.0, "max_epochs": 3, "rho_total": 1.0, "lr": 1e300},
        }
        mpath = tmp_path / "tune.json"
        mpath.write_text(json.dumps(manifest))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["tune", "--manifest", str(mpath), "--out", str(tmp_path / "sel.json")]) == 2
        assert "left non-finite model parameters" in capsys.readouterr().err
        assert not (tmp_path / "sel.json").exists()

    def test_candidate_i_trains_at_seed_plus_1_plus_i(self, tmp_path, monkeypatch):
        trained, real_train = [], cli.dpsgd.train
        monkeypatch.setattr(cli.dpsgd, "train", lambda config, *rest: trained.append(config) or real_train(config, *rest))
        path = tmp_path / "tune.json"
        path.write_text(json.dumps({**TUNE_MANIFEST, "candidates": [{"kind": "uniform", "sigma0": 8.0}] * 3}))
        assert run(["tune", "--manifest", str(path), "--out", str(tmp_path / "sel.json")]) == 0
        assert [config.seed for config in trained] == [8, 9, 10]

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_exits_2(self, tmp_path, eps):
        manifest = {
            "data": {"kind": "synth", "n": 40, "d": 2},
            "eps": eps,
            "candidates": [{"kind": "uniform", "sigma0": 8.0}, {"kind": "uniform", "sigma0": 4.0}],
            "train": {"clip_norm": 1.0, "max_epochs": 1, "rho_total": 1.0},
        }
        mpath = tmp_path / "tune.json"
        mpath.write_text(json.dumps(manifest))
        assert run(["tune", "--manifest", str(mpath), "--out", str(tmp_path / "sel.json")]) == 2
        assert not (tmp_path / "sel.json").exists()


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["bogus"])
        assert err.value.code == 2

    def test_missing_file(self, tmp_path, capsys):
        assert run(["train", "--config", str(tmp_path / "none.json"), "--out", "x"]) == 2

    def test_non_ascii_data_file_exits_2(self, tmp_path, capsys):
        data_path = tmp_path / "cancer.data"
        data_path.write_bytes(b"1000025,5,1,1,1,2,1,3,1,1,2\n\xff\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, "data": {"kind": "cancer", "path": str(data_path)}}))
        assert run(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: line 2: not ASCII text\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "case",
        ["config-not-utf8", "manifest-not-utf8", "config-is-dir", "out-is-dir", "out-under-file",
         "checkpoint-is-dir", "checkpoint-under-file"],
    )
    def test_path_that_cannot_be_read_or_written_exits_2(self, tmp_path, capsys, case):
        config, undecodable, regular = tmp_path / "run.json", tmp_path / "latin1.json", tmp_path / "file"
        config.write_text(json.dumps(TRAIN_CONFIG))
        undecodable.write_bytes(b'{"data": "\xff"}')
        regular.write_text("")
        train = ["train", "--config", str(config), "--out", str(tmp_path / "run")]
        argv = {
            "config-not-utf8": ["train", "--config", str(undecodable), "--out", str(tmp_path / "run")],
            "manifest-not-utf8": ["tune", "--manifest", str(undecodable), "--out", str(tmp_path / "sel.json")],
            "config-is-dir": ["train", "--config", str(tmp_path), "--out", str(tmp_path / "run")],
            "out-is-dir": ["account", "--epochs", "2", "--out", str(tmp_path)],
            "out-under-file": ["account", "--epochs", "2", "--out", str(regular / "curves.csv")],
            "checkpoint-is-dir": [*train, "--checkpoint", str(tmp_path)],
            "checkpoint-under-file": [*train, "--checkpoint", str(regular / "model.ckpt")],
        }[case]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,case",
        [("train", "out-under-file"), ("train", "out-in-missing-dir"), ("train", "checkpoint-under-file"),
         ("train", "checkpoint-is-dir"), ("train", "checkpoint-in-missing-dir"), ("tune", "out-under-file")],
    )
    def test_unwritable_output_refused_before_training(self, tmp_path, capsys, monkeypatch, command, case):
        def never(*args, **kwargs):
            raise AssertionError("trained before its outputs were checked")

        monkeypatch.setattr(cli.dpsgd, "train", never)
        regular = tmp_path / "file"
        regular.write_text("")
        bad = {"out-under-file": regular / "out", "out-in-missing-dir": tmp_path / "none" / "out",
               "checkpoint-under-file": regular / "m.ckpt", "checkpoint-is-dir": tmp_path,
               "checkpoint-in-missing-dir": tmp_path / "none" / "m.ckpt"}[case]
        out = tmp_path / "run" if case.startswith("checkpoint") else bad
        if command == "train":
            config = tmp_path / "run.json"
            config.write_text(json.dumps(TRAIN_CONFIG))
            argv = ["train", "--config", str(config), "--out", str(out)]
            argv += ["--checkpoint", str(bad)] if case.startswith("checkpoint") else []
        else:
            manifest = tmp_path / "tune.json"
            manifest.write_text(json.dumps(TUNE_MANIFEST))
            argv = ["tune", "--manifest", str(manifest), "--out", str(out)]
        before = sorted(tmp_path.iterdir())
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "case",
        ["summary-is-config", "csv-is-config", "checkpoint-is-summary", "checkpoint-is-csv", "checkpoint-is-config",
         "checkpoint-is-data", "summary-is-data", "checkpoint-links-to-config", "tune-out-is-manifest",
         "tune-out-is-data"],
    )
    def test_output_naming_an_input_or_another_output_refused(self, tmp_path, capsys, monkeypatch, cancer_file, case):
        """An output that would overwrite the run's config, manifest or data
        file, or another of its outputs, exits 2 before any data is read;
        every file is left as it was."""

        def never(*args, **kwargs):
            raise AssertionError("read data before the outputs were checked")

        monkeypatch.setattr(cli.data, "load_cancer_csv", never)
        monkeypatch.setattr(cli.data, "synth_blobs", never)
        # the data file under a name that a summary could take
        cancer = tmp_path / "cancer.json"
        cancer.write_bytes(open(cancer_file, "rb").read())
        config, manifest, link = tmp_path / "rs.json", tmp_path / "m.json", tmp_path / "link.json"
        data_spec = {"kind": "cancer", "path": str(cancer)} if case.endswith("-is-data") else TRAIN_CONFIG["data"]
        config.write_text(json.dumps({**TRAIN_CONFIG, "data": data_spec, "split": {"n_train": 500}}))
        (tmp_path / "c.csv").write_text(config.read_text())
        manifest.write_text(json.dumps({**TUNE_MANIFEST, "data": data_spec}))
        link.symlink_to(config)
        train, run_prefix = ["train", "--config", str(config), "--out"], str(tmp_path / "run")
        argv = {
            "summary-is-config": [*train, str(tmp_path / "rs")],
            "csv-is-config": ["train", "--config", str(tmp_path / "c.csv"), "--out", str(tmp_path / "c")],
            "checkpoint-is-summary": [*train, run_prefix, "--checkpoint", run_prefix + ".json"],
            "checkpoint-is-csv": [*train, run_prefix, "--checkpoint", run_prefix + ".csv"],
            "checkpoint-is-config": [*train, run_prefix, "--checkpoint", str(config)],
            "checkpoint-is-data": [*train, run_prefix, "--checkpoint", str(cancer)],
            "summary-is-data": [*train, str(tmp_path / "cancer")],
            "checkpoint-links-to-config": [*train, run_prefix, "--checkpoint", str(link)],
            "tune-out-is-manifest": ["tune", "--manifest", str(manifest), "--out", str(manifest)],
            "tune-out-is-data": ["tune", "--manifest", str(manifest), "--out", str(cancer)],
        }[case]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output ") and "is the same file as the " in err and err.count("\n") == 1
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("case", ["out-under-file", "out-in-missing-dir", "out-is-dir"])
    @pytest.mark.parametrize(
        "command,computation",
        [(["validate-bound", "--smoke"], "validate_moment_bound"), (["account", "--epochs", "2"], "moments_accountant_curve")],
        ids=["validate-bound", "account"],
    )
    def test_unwritable_output_refused_before_computing(self, tmp_path, capsys, monkeypatch, command, computation, case):
        def never(*args, **kwargs):
            raise AssertionError("computed before its output was checked")

        monkeypatch.setattr(cli.renyi, computation, never)
        regular = tmp_path / "file"
        regular.write_text("")
        out = {"out-under-file": regular / "x.json", "out-in-missing-dir": tmp_path / "none" / "x.json",
               "out-is-dir": tmp_path}[case]
        before = sorted(tmp_path.iterdir())
        assert run([*command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before


class TestConfigFieldKinds:
    """A dataclass's field kinds are read once and kept: its first and its
    second construction with a bad value give the same ConfigError text."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: NoiseSchedule(3, 10.0), "kind must be a string, got 3"),
            (lambda: NoiseSchedule("exp", "10"), "sigma0 must be a finite nonnegative number, got '10'"),
            (lambda: NoiseSchedule("exp", 10.0, k=-0.5), "k must be a finite nonnegative number, got -0.5"),
            (lambda: NoiseSchedule("step", 10.0, k=0.5, period=2.5), "period must be a finite nonnegative integer, got 2.5"),
            (lambda: TrainConfig(NoiseSchedule("uniform", 4.0), 1.0, -1, 0, rho_total=1.0),
             "max_epochs must be a finite nonnegative integer, got -1"),
            (lambda: TrainConfig(NoiseSchedule("uniform", 4.0), math.nan, 1, 0, rho_total=1.0),
             "clip_norm must be a finite nonnegative number, got nan"),
            (lambda: TrainConfig(NoiseSchedule("uniform", 4.0), 1.0, 1, 0, rho_total=1.0, per_layer_clip=1),
             "per_layer_clip must be true or false, got 1"),
            (lambda: TrainConfig(NoiseSchedule("uniform", 4.0), 1.0, 1, 0, batching=1), "batching must be a string, got 1"),
            (lambda: TrainConfig(NoiseSchedule("uniform", 4.0), 1.0, 1, 0, batching="rs", q=math.inf, eps_total=1.0),
             "q must be a finite nonnegative number, got inf"),
            (lambda: TrainConfig(NoiseSchedule("uniform", 4.0), 1.0, 1, 0, rho_total=True),
             "rho_total must be a finite nonnegative number, got True"),
            (lambda: cli.TuneManifest({}, [], {}, eps="abc"), "manifest.eps must be a finite nonnegative number, got 'abc'"),
            (lambda: cli.TuneManifest({}, [], {}, eps=1.0, seed=-1), "manifest.seed must be a finite nonnegative integer, got -1"),
            (lambda: errors.config_from_json(cli.RunConfig, "run.json", {**TRAIN_CONFIG, "splitt": {}}),
             "unknown run.json keys: ['splitt']"),
            (lambda: errors.config_from_json(cli.RunConfig, "run.json", {"data": {}, "train": {}}),
             "run.json requires keys: ['schedule']"),
        ],
    )
    def test_same_message_on_first_and_second_construction(self, build, message):
        errors._checked_fields.cache_clear()
        texts = []
        for _ in range(2):
            with pytest.raises(ConfigError) as err:
                build()
            texts.append(str(err.value))
        assert texts == [message, message]
