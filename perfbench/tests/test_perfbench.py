"""Tests of the benchmark itself: smoke runs of every workload at reduced
size, the input generators, and the checks catching corrupted outputs.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from dpbudget import accounting, data, renyi  # noqa: E402

SMOKE_SCALE = 0.02


def bench(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return done


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    done = bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--scale", str(SMOKE_SCALE))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in metrics.values())
    elif name.startswith("train"):
        assert metrics["renyi.divergence.calls"] == 0
        assert metrics["nn.per_example_gradients.calls"] > 0
    else:
        assert metrics["nn.per_example_gradients.calls"] == 0
        assert metrics["renyi.divergence.calls"] > 0


def test_run_fails_without_the_package(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (copy / name).write_text(open(os.path.join(BENCH, name), encoding="utf-8").read())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "train-rf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_cancer_file_shape(tmp_path):
    path = str(tmp_path / "cancer.data")
    workloads.write_cancer_file(path, seed=5)
    lines = open(path, encoding="ascii").read().splitlines()
    assert len(lines) == 699
    classes = [ln.split(",")[-1] for ln in lines]
    assert classes.count("2") == 458 and classes.count("4") == 241
    missing = [ln for ln in lines if "?" in ln]
    assert len(missing) == 16 and sum(ln.endswith(",2") for ln in missing) == 14
    dataset = data.load_cancer_csv(path)
    assert len(dataset) == 683 and dataset.normalization["dropped_missing"] == 16
    again = str(tmp_path / "again.data")
    workloads.write_cancer_file(again, seed=5)
    assert open(again).read() == open(path).read()


def test_grid_points_are_valid_and_seeded():
    for seed in (0, 1, 2):
        points = workloads.slice_points(seed, workloads.SLICE_PAIRS, workloads.SLICE_CHECKS)
        assert points == workloads.slice_points(seed, workloads.SLICE_PAIRS, workloads.SLICE_CHECKS)
        assert all(q <= 1.0 / (16.0 * s) for q, s, _ in points)
        total = sum(math.floor(min(accounting.rs_order_cap(q, s), cap)) - 1 for q, s, cap in points)
        assert total == workloads.SLICE_CHECKS
        accounts = workloads.account_points(seed, workloads.ACCOUNT_EXTRA)
        assert accounts[0] == (0.01, 6.0)
        for q, s in accounts[1:]:
            assert q <= 1.0 / (16.0 * s)
            assert renyi.default_lambda_max(q, s) == workloads.ALPHA_CAP


def test_slice_never_falls_short():
    q, sigma = workloads.default_grid()
    assert len(q) == 155_973
    orders = np.floor(np.minimum(sigma * sigma * np.log(1.0 / (q * sigma)) + 1.0, workloads.ALPHA_CAP)) - 1
    stride = len(q) / workloads.SLICE_PAIRS
    worst = min(
        orders[(offset + np.arange(workloads.SLICE_PAIRS) * stride).astype(int)].sum()
        for offset in np.linspace(0.0, stride, 2001)[:-1]
    )
    assert worst >= workloads.SLICE_CHECKS


def test_expected_counts_match_the_configurations():
    assert workloads.rf_epochs(25.0, 1, 0.4)[0] == 500
    assert workloads.rf_epochs(25.0, 4, 0.4)[0] == 125
    steps = workloads.rs_steps(0.01, 4.0, 3.0, 1e-5)
    assert 27_000 < steps < 28_500
    rho = steps * 0.01 ** 2 / 16.0
    assert accounting.rs_eps(rho, accounting.rs_order_cap(0.01, 4.0), 1e-5) <= 3.0


@pytest.fixture(scope="module")
def small_units(tmp_path_factory):
    """One executed unit per workload at smoke size."""
    units = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(7, str(tmp_path_factory.mktemp(name)), SMOKE_SCALE)
        workload.setup()
        try:
            units[name] = (workload, workload.execute())
        finally:
            workload.close()
    return units


def error_rate(workload, ops):
    return sum(1 for op in ops if workload.failures(op)) / len(ops)


def test_outputs_pass_unchanged(small_units):
    for workload, result in small_units.values():
        assert error_rate(workload, result.ops) == 0


def test_perturbed_final_eps_is_caught(small_units):
    for name in ("train-rf", "train-rs"):
        workload, result = small_units[name]
        op = result.ops[0]
        report = op.payload["report"]
        bumped = report.final_privacy._replace(eps=report.final_privacy.eps + 1e-9)
        corrupted = workloads.Op(op.kind, op.label, {**op.payload, "report": _with(report, final_privacy=bumped)})
        assert error_rate(workload, result.ops[1:] + [corrupted]) == 1 / len(result.ops)


def test_wrong_solve_k_cell_is_caught(small_units):
    workload, result = small_units["privacy-analysis"]
    ops = [op for op in result.ops if op.kind == "solve_k"]
    assert len(ops) == 32
    first = ops[0]
    wrong = workloads.Op(first.kind, first.label, {**first.payload, "stdout": f"{first.payload['published'] + 3e-4:.4f}\n"})
    assert error_rate(workload, ops[1:] + [wrong]) == 1 / 32


def test_broken_ledger_replay_and_bound_violation_are_caught(small_units):
    workload, result = small_units["train-rf"]
    op = result.ops[0]
    report = op.payload["report"]
    ledger = accounting.PrivacyLedger("rf", rho_sum=report.ledger.rho_sum, steps=report.ledger.steps[:-1])
    assert workload.failures(workloads.Op(op.kind, op.label, {**op.payload, "report": _with(report, ledger=ledger)}))

    workload, result = small_units["privacy-analysis"]
    op = next(op for op in result.ops if op.kind == "bound")
    payload = json.loads(op.payload["text"])
    payload["violations"] = [{"q": op.payload["q"], "sigma": op.payload["sigma"], "alpha": 2}]
    assert workload.failures(workloads.Op(op.kind, op.label, {**op.payload, "text": json.dumps(payload)}))


def _with(report, **changes):
    return dataclasses.replace(report, **changes)


def test_self_times_sum_to_the_root_span():
    t = tracer.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = t.wrap("nn.leaf", leaf)
    wrapped_middle = t.wrap("dpsgd.middle", middle)
    t.run_unit(0, wrapped_middle)
    m = t.layer_metrics(0, refused=0)
    assert m["trace.spans"] == 4
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["nn.self_frac"] + m["dpsgd.self_frac"] + m["bench.self_frac"] == pytest.approx(1.0, rel=1e-9)
    assert m["nn.per_example_gradients.calls"] == 0 and m["renyi.self_frac"] == 0.0


def test_errors_are_counted_per_layer():
    t = tracer.Tracer()

    def fail():
        raise ValueError("boom")

    wrapped = t.wrap("renyi.subsampled_renyi_divergence", fail)

    def body():
        with pytest.raises(ValueError):
            wrapped()

    t.run_unit(0, body)
    m = t.layer_metrics(0, refused=0)
    assert m["renyi.errors"] == 1 and m["renyi.divergence.errors"] == 1


def test_renyi_caches_are_cleared():
    cache = getattr(renyi, "_log_renyi_power", None)
    if cache is None or not hasattr(cache, "cache_info"):
        pytest.skip("renyi keeps no functools cache")
    renyi.subsampled_renyi_divergence(0.01, 6.0, 3.0)
    assert cache.cache_info().currsize > 0
    workloads.clear_renyi_caches()
    assert cache.cache_info().currsize == 0


def test_unreadable_output_fails_its_operation(small_units):
    workload, result = small_units["privacy-analysis"]
    op = next(op for op in result.ops if op.kind == "bound")
    broken = workloads.Op(op.kind, op.label, {**op.payload, "text": "not json"})
    assert workload.failures(broken)
