"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks on every output.

All three workloads drive the ``dpbudget`` command line in this process
through ``cli.main(argv)``, as a user's ``dpbudget ...`` invocation would,
and see only the files and arguments generated here.

* ``train-rf``: two ``dpbudget train`` runs under reshuffled batches on a
  cancer-format file: the full-batch 500-epoch configuration of acceptance
  criterion 10, and a per-layer-clipped run with B=140.  Large batches put
  the time into per-example gradients and clipping; accounting is one
  charge per epoch.
* ``train-rs``: one ``dpbudget train`` run under Bernoulli sampling
  (q=0.01, about 5.6 examples a step for some 28k steps).  The same model
  code runs on tiny batches, so per-step overhead, per-iteration admission
  and sampling carry a large share.
* ``privacy-analysis``: no training.  ``account`` curves, a slice of the
  ``validate-bound`` grid, the 32-cell ``solve-k`` table and an audit of
  exponential-mechanism frequencies.  It drives ``renyi``, which neither
  training workload calls, plus ``schedules`` and ``selection``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from dpbudget import accounting, cli, data, dpsgd, nn, renyi, selection

DELTA = 1e-5
N_TRAIN = 560
MODEL_HIDDEN = [10, 20, 10]  # with 9 inputs and 2 classes: [9, 10, 20, 10, 2]

# Lowest final test accuracy of the full-size criterion-10 run.  Seeds 0-39
# give 0.82 to 0.96 (mean 0.89, sd 0.03); always guessing benign scores
# about 0.65.
ACCURACY_FLOOR = 0.75

RS_Q, RS_SIGMA, RS_EPS_TOTAL = 0.01, 4.0, 3.0

# Audit of the exponential mechanism: fixed scores, privacy parameter and
# number of draws, and a fixed generator seed, so that the 3-SE frequency
# check is the same deterministic test in every run.
AUDIT_SCORES = (0, 2, 4, 8)
AUDIT_EPS = 0.5
AUDIT_DRAWS = 3000
AUDIT_RNG_SEED = 110

# The validate-bound slice: SLICE_PAIRS (q, sigma) points of the default
# 0.001 grid picked by systematic sampling from a seeded offset, cut to
# exactly SLICE_CHECKS moment-bound checks.  Every offset yields at least
# 3650 checks from 30 points, so the count never falls short.
SLICE_PAIRS = 30
SLICE_CHECKS = 3500
ALPHA_CAP = 200
# Extra account curves besides (0.01, 6): points whose order cap reaches
# ALPHA_CAP, so each curve evaluates the same 200 moment orders.
ACCOUNT_EXTRA = 3

# Decay rates published with the paper for sigma0=10, rho_total=0.78125.
# The solver must land within one 1e-4 grid step of 27 of them, as
# acceptance criterion 3 asks; five step-decay cells are 3-decimal roundings
# of the grid boundary and may be off by up to 7e-4.
SOLVE_K_TABLE = {
    "time": {30: 0.076, 40: 0.0441, 50: 0.0281, 60: 0.019, 70: 0.0132, 80: 0.0093, 90: 0.0067, 100: 0.0048},
    "step": {30: 0.5459, 40: 0.7008, 50: 0.7922, 60: 0.851, 70: 0.891, 80: 0.919, 90: 0.94, 100: 0.956},
    "exp": {30: 0.0442, 40: 0.0282, 50: 0.0193, 60: 0.0138, 70: 0.0101, 80: 0.0075, 90: 0.0056, 100: 0.0041},
    "poly": {30: 6.2077, 40: 3.5277, 50: 2.1948, 60: 1.4317, 70: 0.9549, 80: 0.6382, 90: 0.4167, 100: 0.1626},
}
SOLVE_K_COARSE = {("step", t) for t in (60, 70, 80, 90, 100)}
SOLVE_K_EXTRA_ARGS = {"step": ["--period", "10"], "poly": ["--period", "100", "--sigma-end", "2"]}


def write_cancer_file(path: str, seed: int) -> None:
    """A file in the Wisconsin breast-cancer format: 699 rows, 458 benign
    (class 2) and 241 malignant (class 4), 16 of them (14 benign, 2
    malignant) with '?' in the bare-nuclei column.  Each row's nine 1..10
    features scatter around a per-row severity drawn from its class, so the
    classes overlap and a small classifier stays below perfect accuracy."""
    rng = np.random.default_rng(seed)
    classes = np.array([2] * 458 + [4] * 241)
    rng.shuffle(classes)
    severity = np.where(classes == 2, rng.normal(2.3, 1.0, 699), rng.normal(6.0, 1.9, 699))
    features = np.clip(np.rint(severity[:, None] + rng.normal(0.0, 1.4, (699, 9))), 1, 10).astype(int)
    ids = rng.integers(1_000_000, 9_999_999, 699)
    missing = set(np.flatnonzero(classes == 2)[:14]) | set(np.flatnonzero(classes == 4)[:2])
    with open(path, "w", encoding="ascii") as fh:
        for i in range(699):
            fields = [str(v) for v in features[i]]
            if i in missing:
                fields[5] = "?"
            fh.write(f"{ids[i]}," + ",".join(fields) + f",{classes[i]}\n")


def order_cap(q: float, sigma: float) -> float:
    """The rs order cap sigma^2 log(1/(q sigma)) + 1, in the package's
    float operation order so that counts derived from it match exactly."""
    return sigma * sigma * math.log(1.0 / (q * sigma)) + 1.0


def default_grid() -> Tuple[np.ndarray, np.ndarray]:
    """Every (q, sigma) point of the default validate-bound grid: sigma
    2..30 and q from 0.001 in steps of 0.001, both on 3 decimals, with
    q <= 1/(16 sigma)."""
    sigmas = np.round(2.0 + np.arange(28001) * 0.001, 3)
    per_sigma = np.floor(1.0 / (16.0 * sigmas) / 0.001).astype(int) + 1
    sigma = np.repeat(sigmas, per_sigma)
    starts = np.cumsum(per_sigma) - per_sigma
    k = np.arange(len(sigma)) - np.repeat(starts, per_sigma) + 1
    q = np.round(k * 0.001, 3)
    keep = q <= 1.0 / (16.0 * sigma) + 1e-12
    return q[keep], sigma[keep]


def slice_points(seed: int, n_pairs: int, n_checks: int) -> List[Tuple[float, float, int]]:
    """(q, sigma, alpha_cap) points whose moment-bound checks number exactly
    ``n_checks``: a systematic sample of ``n_pairs`` grid points, visited in
    seeded order, the last one's order cap lowered to hit the count."""
    q, sigma = default_grid()
    rng = np.random.default_rng([seed, 1])
    stride = len(q) / n_pairs
    picks = (rng.uniform(0.0, stride) + np.arange(n_pairs) * stride).astype(int)
    rng.shuffle(picks)
    points, total = [], 0
    for i in picks:
        qi, si = float(q[i]), float(sigma[i])
        orders = math.floor(min(order_cap(qi, si), ALPHA_CAP)) - 1
        take = min(orders, n_checks - total)
        points.append((qi, si, take + 1 if take < orders else ALPHA_CAP))
        total += take
        if total == n_checks:
            return points
    raise ValueError(f"{n_pairs} grid points hold fewer than {n_checks} checks")


def account_points(seed: int, n_extra: int) -> List[Tuple[float, float]]:
    """(0.01, 6), whose endpoints are known, plus ``n_extra`` seeded grid
    points whose order cap reaches ALPHA_CAP."""
    q, sigma = default_grid()
    capped = np.flatnonzero(sigma * sigma * np.log(1.0 / (q * sigma)) >= ALPHA_CAP)
    picks = np.random.default_rng([seed, 2]).choice(capped, size=n_extra, replace=False)
    return [(0.01, 6.0)] + [(float(q[i]), float(sigma[i])) for i in picks]


def rf_epochs(sigma: float, releases: int, rho_total: float) -> Tuple[int, float]:
    """Epochs an rf run at constant ``sigma`` is admitted for: each epoch is
    ``releases`` charges of 1/(2 sigma^2), admitted while the spend stays
    within the budget plus the ledger's tolerance.  Returns the epochs and
    the rho they spend."""
    cost = 1.0 / (2.0 * sigma * sigma)
    epoch_cost = releases / (2.0 * sigma * sigma)
    rho, epochs = 0.0, 0
    while rho + epoch_cost <= rho_total + accounting.BUDGET_TOL:
        for _ in range(releases):
            rho += cost
        epochs += 1
    return epochs, rho


def rs_steps(q: float, sigma: float, eps_total: float, delta: float) -> int:
    """Iterations an rs run at constant (q, sigma) is admitted for."""
    cost = q * q / (sigma * sigma)
    u = order_cap(q, sigma)
    rho, steps = 0.0, 0
    while True:
        candidate = rho + cost
        if math.log(delta) >= -candidate * (u - 1.0) ** 2:
            eps = candidate + 2.0 * math.sqrt(candidate * math.log(1.0 / delta))
        else:
            eps = candidate * u - math.log(delta) / (u - 1.0)
        if eps > eps_total:
            return steps
        rho, steps = candidate, steps + 1


def zcdp_eps(rho: float, delta: float) -> float:
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def clear_renyi_caches() -> None:
    """Empty every functools cache in ``renyi``, so that each CLI call starts
    from a cold quadrature cache, as a fresh ``dpbudget`` process does."""
    for value in list(vars(renyi).values()):
        # the cache may sit under a span wrapper of the traced run
        for candidate in (value, getattr(value, "__wrapped__", None)):
            clear = getattr(candidate, "cache_clear", None)
            if callable(clear):
                clear()


@dataclass
class Op:
    """One operation of a unit and what the checks need of its output."""

    kind: str
    label: str
    payload: dict = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class UnitResult:
    wall_s: float   # the whole unit
    items: int      # items of the workload's primary work
    item_s: float   # wall time of that work
    ops: List[Op]
    refused: int    # budget checks refused by the unit's training runs
    parts: Dict[str, Tuple[float, str]]  # named sub-measurements for the report


class TrainRecorder:
    """Records each ``dpsgd.train`` call the CLI makes: config, model,
    report and wall time.  Installed for the whole run; it adds one call
    per training run and nothing inside the training loop."""

    def __init__(self) -> None:
        self.calls: List[dict] = []
        self._train = dpsgd.train

    def install(self) -> None:
        def train(config, train_data, model, *args, **kwargs):
            started = time.perf_counter()
            report = self._train(config, train_data, model, *args, **kwargs)
            wall = time.perf_counter() - started
            self.calls.append({"config": config, "model": model, "report": report, "wall_s": wall,
                               "examples": examples_processed(config, report, len(train_data))})
            return report

        dpsgd.train = train

    def uninstall(self) -> None:
        dpsgd.train = self._train


def examples_processed(config, report, n: int) -> float:
    """Examples passed through clipped, noised updates: every example once
    per rf epoch, and the expected lot size q*n per admitted rs step."""
    if config.batching == "rf":
        return report.epochs_run * n
    return len(report.ledger.steps) * config.q * n


class Workload:
    """Base: ``setup`` writes the inputs, ``execute`` runs one unit of
    operations, ``failures`` checks one operation's output."""

    name = ""
    item = ""

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self) -> UnitResult:
        raise NotImplementedError

    def close(self) -> None:
        """Undo what ``setup`` installed in the package."""

    def failures(self, op: Op) -> List[str]:
        """Why ``op`` failed; empty if it ran and every check on it held."""
        if op.error is not None:
            return [op.error]
        try:
            return getattr(self, "_check_" + op.kind)(op)
        except Exception as exc:  # an output the check cannot read fails it
            return [f"{op.label}: check raised {type(exc).__name__}: {exc}"]

    def _cli_op(self, op: Op, argv: List[str]) -> Op:
        """Run ``dpbudget <argv>`` for ``op``, recording its exit code and
        standard output, or the exception that escaped."""
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            op.error = f"{op.label}: {type(exc).__name__}: {exc}"
            return op
        op.payload.update(code=code, stdout=stdout.getvalue())
        return op


class TrainWorkload(Workload):
    """Shared by both training workloads: the data file, its split and the
    model, set up the way ``dpbudget train`` sets them up."""

    item = "examples passed through clipped, noised updates"

    def setup(self) -> None:
        self.data_path = self.path("breast-cancer-wisconsin.data")
        write_cancer_file(self.data_path, self.seed)
        self.split_seed = int(np.random.default_rng([self.seed, 3]).integers(0, 2**31))
        dataset = data.load_cancer_csv(self.data_path)
        train_set, test_set = data.train_test_split(dataset, N_TRAIN, self.split_seed)
        # loading and model init count towards set-up time; each ``dpbudget
        # train`` call repeats both for itself
        nn.MlpModel.init([train_set.n_features] + MODEL_HIDDEN + [2], seed=self.seed)
        self.configs = self.make_configs()
        for name, cfg in self.configs.items():
            with open(self.path(f"config-{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        self.recorder = TrainRecorder()
        self.recorder.install()

    def close(self) -> None:
        if hasattr(self, "recorder"):
            self.recorder.uninstall()

    def config(self, schedule: dict, train: dict) -> dict:
        return {
            "data": {"kind": "cancer", "path": self.data_path},
            "split": {"n_train": N_TRAIN, "seed": self.split_seed},
            "schedule": schedule,
            "model": {"hidden": MODEL_HIDDEN},
            "train": train,
        }

    def make_configs(self) -> Dict[str, dict]:
        raise NotImplementedError

    def expected(self, name: str) -> dict:
        raise NotImplementedError

    def execute(self) -> UnitResult:
        ops: List[Op] = []
        started = time.perf_counter()
        for name in self.configs:
            self.recorder.calls.clear()
            out = self.path(f"run-{name}")
            op = self._cli_op(Op("train", name), ["train", "--config", self.path(f"config-{name}.json"), "--out", out])
            if op.error is None:
                if len(self.recorder.calls) != 1:
                    op.error = f"{name}: expected one training run, saw {len(self.recorder.calls)}"
                else:
                    op.payload.update(self.recorder.calls[0])
                    with open(out + ".json", encoding="utf-8") as fh:
                        op.payload["summary"] = json.load(fh)
            ops.append(op)
        wall = time.perf_counter() - started
        trained = [op for op in ops if op.error is None]
        return UnitResult(
            wall_s=wall,
            items=sum(op.payload["examples"] for op in trained),
            item_s=sum(op.payload["wall_s"] for op in trained),
            ops=ops,
            refused=sum(op.payload["report"].stop_reason == "budget_exhausted" for op in trained),
            parts={f"{op.label}_train_s": (op.payload["wall_s"], "s") for op in trained},
        )

    def _check_train(self, op: Op) -> List[str]:
        p, want = op.payload, self.expected(op.label)
        report, ledger, config = p["report"], p["report"].ledger, p["config"]
        bad = []
        if p["code"] != 0:
            bad.append(f"exit code {p['code']}")
        if report.stop_reason != "budget_exhausted":
            bad.append(f"stop reason {report.stop_reason}")
        for key, got in (("epochs_run", report.epochs_run), ("steps", len(ledger.steps))):
            if key in want and got != want[key]:
                bad.append(f"{key} {got}, want {want[key]}")
        if config.batching == "rf":
            if abs(report.total_rho - want["rho"]) > 1e-12:
                bad.append(f"rho {report.total_rho!r}, want {want['rho']!r}")
            if report.final_privacy.eps != zcdp_eps(report.total_rho, config.delta):
                bad.append(f"final eps {report.final_privacy.eps!r} is not zcdp_to_dp(total_rho)")
        elif report.final_privacy.eps > config.eps_total:
            bad.append(f"final eps {report.final_privacy.eps!r} exceeds {config.eps_total}")
        replayed = ledger.replay()
        if (replayed.rho_sum, replayed.rho_hat, replayed.u_alpha_min, replayed.steps) != (
            ledger.rho_sum, ledger.rho_hat, ledger.u_alpha_min, ledger.steps
        ):
            bad.append("ledger replay differs")
        if p["summary"]["final_eps"] != report.final_privacy.eps or p["summary"]["epochs_run"] != report.epochs_run:
            bad.append("run summary disagrees with the training report")
        params = p["model"].weights + p["model"].biases
        if not all(np.all(np.isfinite(w)) for w in params):
            bad.append("non-finite model parameters")
        floor = want.get("accuracy_floor")
        if floor is not None and not report.records[-1].test_acc >= floor:
            bad.append(f"test accuracy {report.records[-1].test_acc} below {floor}")
        return [f"{op.label}: {b}" for b in bad]


class TrainRf(TrainWorkload):
    name = "train-rf"

    def make_configs(self) -> Dict[str, dict]:
        rho_total = 0.4 * self.scale
        common = {"clip_norm": 3.0, "max_epochs": 600, "rho_total": rho_total, "lr": 0.3}
        return {
            # acceptance criterion 10's uniform run: full batch, 500 epochs
            "criterion10": self.config({"kind": "uniform", "sigma0": 25.0}, {**common, "seed": self.seed}),
            "per_layer_b140": self.config(
                {"kind": "uniform", "sigma0": 25.0},
                {**common, "seed": self.seed + 1, "batch_size": 140, "per_layer_clip": True},
            ),
        }

    def expected(self, name: str) -> dict:
        rho_total = self.configs[name]["train"]["rho_total"]
        releases = len(MODEL_HIDDEN) + 1 if name == "per_layer_b140" else 1
        epochs, rho = rf_epochs(25.0, releases, rho_total)
        want = {"epochs_run": epochs, "rho": rho}
        if name == "criterion10" and self.scale == 1.0:
            want["accuracy_floor"] = ACCURACY_FLOOR
        return want


class TrainRs(TrainWorkload):
    name = "train-rs"

    def make_configs(self) -> Dict[str, dict]:
        train = {
            "batching": "rs", "q": RS_Q, "clip_norm": 1.0, "max_epochs": 1000,
            "seed": self.seed, "eps_total": self.eps_total(), "delta": DELTA, "lr": 0.05,
        }
        return {"rs": self.config({"kind": "uniform", "sigma0": RS_SIGMA}, train)}

    def eps_total(self) -> float:
        # the spend grows about as eps^2, so this scales the steps by ``scale``
        return RS_EPS_TOTAL * math.sqrt(self.scale)

    def expected(self, name: str) -> dict:
        steps = rs_steps(RS_Q, RS_SIGMA, self.eps_total(), DELTA)
        return {"steps": steps, "epochs_run": steps // round(1.0 / RS_Q)}


class PrivacyAnalysis(Workload):
    name = "privacy-analysis"
    item = "moment-bound checks (q, sigma, alpha) on a cold quadrature cache"

    def setup(self) -> None:
        n_checks = max(1, round(SLICE_CHECKS * self.scale))
        self.slice = slice_points(self.seed, SLICE_PAIRS, n_checks)
        self.accounts = account_points(self.seed, max(1, round(ACCOUNT_EXTRA * self.scale)))
        self.audit_draws = max(100, round(AUDIT_DRAWS * self.scale))

    def expected_checks(self, q: float, sigma: float, cap: int) -> int:
        return math.floor(min(order_cap(q, sigma), float(cap))) - 1

    def execute(self) -> UnitResult:
        ops: List[Op] = []
        started = time.perf_counter()
        for i, (q, sigma) in enumerate(self.accounts):
            clear_renyi_caches()
            out = self.path(f"account{i}.csv")
            ops.append(self._cli_op(
                Op("account", f"account q={q} sigma={sigma}", {"q": q, "sigma": sigma, "out": out}),
                ["account", "--q", repr(q), "--sigma", repr(sigma), "--epochs", "400", "--delta", repr(DELTA), "--out", out],
            ))
        accounted = time.perf_counter()
        for i, (q, sigma, cap) in enumerate(self.slice):
            clear_renyi_caches()
            out = self.path(f"bound{i}.json")
            ops.append(self._cli_op(
                Op("bound", f"validate-bound q={q} sigma={sigma}", {"q": q, "sigma": sigma, "cap": cap, "out": out}),
                ["validate-bound", "--point", repr(q), repr(sigma), "--alpha-cap", str(cap), "--out", out],
            ))
        validated = time.perf_counter()
        for kind, row in SOLVE_K_TABLE.items():
            for target, published in row.items():
                ops.append(self._cli_op(
                    Op("solve_k", f"solve-k {kind} {target}", {"kind": kind, "target": target, "published": published}),
                    ["solve-k", "--kind", kind, "--sigma0", "10", "--rho-total", "0.78125", "--target", str(target)]
                    + SOLVE_K_EXTRA_ARGS.get(kind, []),
                ))
        solved = time.perf_counter()
        rng = np.random.default_rng(AUDIT_RNG_SEED)
        picks = [selection.exp_mechanism_select(AUDIT_SCORES, AUDIT_EPS, rng) for _ in range(self.audit_draws)]
        audited = time.perf_counter()
        ops.append(Op("audit", "exp-mechanism audit", {"picks": picks}))

        for op in ops:
            if op.kind in ("account", "bound") and op.error is None:
                with open(op.payload["out"], encoding="utf-8") as fh:
                    op.payload["text"] = fh.read()
        checks = sum(self.expected_checks(q, s, cap) for q, s, cap in self.slice)
        return UnitResult(
            wall_s=audited - started,
            items=checks,
            item_s=validated - accounted,
            ops=ops,
            refused=0,
            parts={
                "bound_checks_per_s": (checks / (validated - accounted), "1/s"),
                "account_s": (accounted - started, "s"),
                "solve_k_s": (solved - validated, "s"),
                "selection_draws_per_s": (self.audit_draws / (audited - solved), "1/s"),
            },
        )

    def _check_account(self, op: Op) -> List[str]:
        p = op.payload
        q, sigma = p["q"], p["sigma"]
        lines = [ln for ln in p["text"].splitlines() if not ln.startswith("#")]
        if p["code"] != 0 or lines[0] != "epoch,eps_zcdp_rf,eps_strong,eps_zcdp_rs,eps_ma":
            return [f"{op.label}: exit code {p['code']}, header {lines[0]!r}"]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        bad = []
        if rows.shape != (400, 5) or not np.array_equal(rows[:, 0], np.arange(1, 401)):
            return [f"{op.label}: expected 400 epoch rows, got shape {rows.shape}"]
        if not (np.all(np.isfinite(rows)) and np.all(rows[:, 1:] > 0) and np.all(np.diff(rows[:, 1:], axis=0) >= 0)):
            bad.append("curves not finite, positive and nondecreasing")
        iters = max(1, round(1.0 / q))
        epochs = rows[:, 0]
        rf = [zcdp_eps(e / (2.0 * sigma * sigma), DELTA) for e in epochs]
        u = order_cap(q, sigma)
        rs = []
        for e in epochs:
            rho_hat = e * iters * q * q / (sigma * sigma)
            if math.log(DELTA) >= -rho_hat * (u - 1.0) ** 2:
                rs.append(zcdp_eps(rho_hat, DELTA))
            else:
                rs.append(rho_hat * u - math.log(DELTA) / (u - 1.0))
        if np.max(np.abs(rows[:, 1] - rf)) > 5.1e-7 or np.max(np.abs(rows[:, 3] - rs)) > 5.1e-7:
            bad.append("rf or rs curve differs from the closed form")
        if (q, sigma) == (0.01, 6.0):
            for col, want, tol in ((1, 21.5, 0.1), (3, 2.37, 0.01), (4, 1.67, 0.05)):
                if abs(rows[-1, col] - want) > tol:
                    bad.append(f"endpoint column {col} is {rows[-1, col]}, want {want} +- {tol}")
        return [f"{op.label}: {b}" for b in bad]

    def _check_bound(self, op: Op) -> List[str]:
        p = op.payload
        result = json.loads(p["text"])
        want = self.expected_checks(p["q"], p["sigma"], p["cap"])
        bad = []
        if p["code"] != 0:
            bad.append(f"exit code {p['code']}")
        if result["points_checked"] != want:
            bad.append(f"{result['points_checked']} points checked, want {want}")
        if result["violations"]:
            bad.append(f"{len(result['violations'])} violations")
        return [f"{op.label}: {b}" for b in bad]

    def _check_solve_k(self, op: Op) -> List[str]:
        p = op.payload
        if p["code"] != 0:
            return [f"{op.label}: exit code {p['code']}"]
        printed = p["stdout"].strip()
        tolerance = 7e-4 if (p["kind"], p["target"]) in SOLVE_K_COARSE else 1e-4
        if abs(float(printed) - p["published"]) > tolerance + 1e-12:
            return [f"{op.label}: k={printed}, more than {tolerance:g} from {p['published']}"]
        return []

    def _check_audit(self, op: Op) -> List[str]:
        picks = np.asarray(op.payload["picks"])
        weights = np.exp(-0.5 * AUDIT_EPS * np.asarray(AUDIT_SCORES, dtype=float))
        probs = weights / weights.sum()
        n = len(picks)
        bad = []
        for i, p in enumerate(probs):
            observed = np.mean(picks == i)
            se = math.sqrt(p * (1.0 - p) / n)
            if abs(observed - p) > 3.0 * se:
                bad.append(f"candidate {i} drawn {observed:.4f} of the time, want {p:.4f} +- {3 * se:.4f}")
        return [f"{op.label}: {b}" for b in bad]


WORKLOADS: Dict[str, Callable[..., Workload]] = {w.name: w for w in (TrainRf, TrainRs, PrivacyAnalysis)}

