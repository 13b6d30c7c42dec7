"""Command-line surface.

Subcommands
-----------
account         per-epoch accountant comparison curves (CSV)
train           budget-checked DP-SGD run from a JSON config (CSV + summary)
solve-k         decay-rate solving for a target training time
validate-bound  numerical sweep of the sampled-Gaussian moment bound
tune            private schedule selection via the exponential mechanism

Exit codes: 0 success (for ``train``: budget exhausted), 2 usage error
(a file that cannot be opened, decoded or written included), 3
precondition violation or infeasible target, 5 ``train`` stopped at max
epochs with budget left.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import __version__, accounting, data, dpsgd, nn, renyi, schedules, selection
from .errors import (
    ConfigError,
    DomainError,
    InfeasibleTargetError,
    ParseError,
    PreconditionError,
    UsageError,
    check_config_fields,
    config_from_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_MAX_EPOCHS = 5


def _manifest(args: argparse.Namespace, seed: Optional[int] = None) -> dict:
    """Provenance of an output: the tool version, the arguments ``main`` was
    given and, for a seeded command, the seed."""
    record = {"version": __version__, "command": args.argv}
    if seed is not None:
        record["seed"] = seed
    return record


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file: the same existing file,
    links included, or the same place if either does not exist yet."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _check_writable(*paths: str, inputs: Sequence[str] = ()) -> None:
    """Raise the ``OSError`` that writing each of ``paths`` would meet from a
    directory in its place, a parent directory that is missing or is not one,
    or a lack of write permission, and a :class:`UsageError` if it names one
    of the files in ``inputs`` or another of ``paths``, without creating
    anything, so that a command refuses its outputs before the work that
    produces them."""
    for i, path in enumerate(paths):
        for kind, others in (("input", inputs), ("output", paths[:i])):
            clash = next((other for other in others if _same_file(path, other)), None)
            if clash is not None:
                raise UsageError(f"output {path} is the same file as the {kind} {clash}")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        parent = os.path.dirname(path) or "."
        if not stat.S_ISDIR(os.stat(parent).st_mode):  # a missing parent raises here
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _write_text(path: str, text: str, encoding: str) -> None:
    """Write ``text`` to ``path``, overwriting a regular file in place and then
    cutting it to length: on ext4 a truncate to zero before a rewrite forces a
    writeback on close (``auto_da_alloc``), so each rewrite would wait on the disk."""
    with open(path, "w", encoding=encoding, opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(text)
        if os.path.isfile(path):
            fh.truncate()


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[object]], manifest: dict) -> None:
    def fmt(v: object) -> str:
        return "" if v is None else f"{v:.6f}" if isinstance(v, float) else str(v)

    version, command, *seed = manifest.values()
    lines = [f"# dpbudget {version}", f"# command: {' '.join(command)}", *(f"# seed: {s}" for s in seed), ",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    _write_text(path, "".join(line + "\n" for line in lines), "ascii")


def _cmd_account(args: argparse.Namespace) -> int:
    delta, sigma, q = args.delta, args.sigma, args.q
    accounting.check_rs_release(q, sigma)  # the eps_zcdp_rs column holds only where the moment bound does
    u_alpha = accounting.rs_order_cap(q, sigma)
    iters = round(1.0 / q) if args.iters_per_epoch is None else args.iters_per_epoch
    if iters < 1:
        raise DomainError(f"--iters-per-epoch must be at least 1, got {iters}")
    _check_writable(args.out)

    classic = accounting.classic_gaussian_dp(sigma, delta)
    per_epoch_rho = accounting.gaussian_rho(sigma)
    eps_ma = renyi.moments_accountant_curve(q, sigma, iters, args.epochs, delta)

    rows: List[List[object]] = []
    for epoch in range(1, args.epochs + 1):
        k = epoch * iters
        eps_rf = accounting.zcdp_to_dp(epoch * per_epoch_rho, delta).eps
        eps_strong = accounting.amplified_strong_composition(classic.eps, delta, q, k, delta).eps
        rho_hat = k * q * q / (sigma * sigma)
        eps_rs = accounting.rs_eps(rho_hat, u_alpha, delta)
        rows.append([epoch, eps_rf, eps_strong, eps_rs, float(eps_ma[epoch - 1])])

    _write_csv(
        args.out,
        ["epoch", "eps_zcdp_rf", "eps_strong", "eps_zcdp_rs", "eps_ma"],
        rows,
        _manifest(args),
    )
    print(f"wrote {len(rows)} epochs to {args.out}")
    return EXIT_OK


@dataclass(frozen=True)
class CancerData:
    """``data`` section of kind ``cancer``: a Wisconsin-format CSV file."""

    kind: str
    path: str

    def __post_init__(self) -> None:
        check_config_fields(self, "data")

    @property
    def inputs(self) -> Tuple[str, ...]:
        """The files read by :meth:`load`."""
        return (self.path,)

    def load(self) -> data.Dataset:
        return data.load_cancer_csv(self.path)


@dataclass(frozen=True)
class SynthData:
    """``data`` section of kind ``synth``: seeded Gaussian blobs."""

    kind: str
    n: int
    d: int
    classes: int = 2
    seed: int = 0
    separation: float = 4.0

    def __post_init__(self) -> None:
        check_config_fields(self, "data")

    @property
    def inputs(self) -> Tuple[str, ...]:
        """The files read by :meth:`load`: none."""
        return ()

    def load(self) -> data.Dataset:
        return data.synth_blobs(self.n, self.d, self.classes, self.seed, separation=float(self.separation))


@dataclass(frozen=True)
class SplitConfig:
    """``split`` section: ``n_train`` examples for training and the rest for
    testing; ``n_validation`` of the training examples, fewer than
    ``n_train``, are held out for validation."""

    n_train: int
    seed: int = 0
    n_validation: int = 0

    def __post_init__(self) -> None:
        check_config_fields(self, "split")
        if self.n_validation and self.n_validation >= self.n_train:
            raise ConfigError(
                f"split.n_validation must be below split.n_train, got {self.n_validation} of {self.n_train}"
            )


@dataclass(frozen=True)
class ModelConfig:
    """``model`` section: the MLP's hidden layer widths."""

    hidden: Tuple[int, ...] = (10, 20, 10)

    def __post_init__(self) -> None:
        if type(self.hidden) not in (list, tuple) or not all(type(h) is int and h >= 1 for h in self.hidden):
            raise ConfigError(f"model.hidden must be a list of positive integers, got {self.hidden!r}")

    def build(self, dataset: data.Dataset, seed: int) -> nn.MlpModel:
        """MLP with these hidden layers between the dataset's features and (at
        least two) classes."""
        return nn.MlpModel.init([dataset.n_features, *self.hidden, max(2, dataset.n_classes)], seed=seed)


@dataclass(frozen=True)
class RunConfig:
    """A ``train`` config file: the JSON values of its sections."""

    data: dict
    schedule: dict
    train: dict
    split: Optional[dict] = None
    model: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TuneManifest:
    """A ``tune`` manifest: the JSON values of its sections, the selection's ``eps`` and the seed."""

    data: dict
    candidates: list
    train: dict
    eps: float
    seed: int = 0
    model: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_config_fields(self, "manifest")
        if type(self.candidates) is not list:
            raise ConfigError(f"candidates must be a list, got {self.candidates!r}")


def _read_data(spec: object) -> CancerData | SynthData:
    kind = spec.get("kind") if type(spec) is dict else None
    if kind not in ("cancer", "synth"):
        raise ConfigError(f"data must be a JSON object of kind 'cancer' or 'synth', got {spec!r}")
    return config_from_json(CancerData if kind == "cancer" else SynthData, "data", spec)


def _cmd_train(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = config_from_json(RunConfig, args.config, json.load(fh))
    schedule = schedules.NoiseSchedule.from_dict(cfg.schedule)
    config = config_from_json(dpsgd.TrainConfig, "train", cfg.train, schedule=schedule)
    data_config = _read_data(cfg.data)
    split = None if cfg.split is None else config_from_json(SplitConfig, "split", cfg.split)
    if schedule.kind == "validation" and (split is None or not split.n_validation):
        raise ConfigError("the validation schedule requires split.n_validation held-out examples")
    model_config = config_from_json(ModelConfig, "model", cfg.model)
    _check_writable(
        args.out + ".csv", args.out + ".json", *([args.checkpoint] if args.checkpoint else []),
        inputs=(args.config, *data_config.inputs),
    )

    dataset = data_config.load()
    validation = None
    if split is not None:
        train_set, test_set = data.train_test_split(dataset, split.n_train, split.seed)
        if split.n_validation:
            train_set, validation = data.train_test_split(train_set, len(train_set) - split.n_validation, split.seed + 1)
    else:
        train_set, test_set = dataset, None

    model = model_config.build(train_set, config.seed)

    report = dpsgd.train(config, train_set, model, test_data=test_set, validation_data=validation)
    # accuracies of the published model: an rs run can stop mid-epoch, after its last record
    with dpsgd.quiet_overflow():
        train_acc = nn.accuracy(model, train_set.features, train_set.labels)
        test_acc = None if test_set is None else nn.accuracy(model, test_set.features, test_set.labels)

    manifest = _manifest(args, config.seed)
    _write_csv(args.out + ".csv", dpsgd.EpochRecord._fields, report.records, manifest)
    summary = {
        "manifest": manifest,
        "epochs_run": report.epochs_run,
        "stop_reason": report.stop_reason,
        "total_rho": report.total_rho,
        "final_eps": report.final_privacy.eps,
        "final_delta": report.final_privacy.delta,
        "final_train_acc": train_acc,
        "final_test_acc": test_acc,
    }
    _write_text(args.out + ".json", json.dumps(summary, indent=2), "utf-8")
    if args.checkpoint:
        nn.save_checkpoint(model, args.checkpoint)
    print(
        f"{report.epochs_run} epochs ({report.stop_reason}), "
        f"rho={report.total_rho:.6f}, eps={report.final_privacy.eps:.4f} at delta={config.delta:g}"
    )
    return EXIT_OK if report.stop_reason == "budget_exhausted" else EXIT_MAX_EPOCHS


def _cmd_solve_k(args: argparse.Namespace) -> int:
    k = schedules.solve_decay_rate(
        args.kind,
        args.sigma0,
        args.rho_total,
        args.target,
        grid=args.grid,
        period=args.period,
        sigma_end=args.sigma_end,
    )
    print(f"{k:.4f}")
    return EXIT_OK


def _cmd_validate_bound(args: argparse.Namespace) -> int:
    if args.point is not None:
        q, sigma = args.point
        accounting.check_rs_ratio(q, sigma)  # a point outside the grid's range would check nothing
        report = renyi.validate_moment_bound([sigma], q_step=1.0, q_start=q, alpha_cap=args.alpha_cap)
    else:
        if args.smoke:
            sigma_step, q_step = 1.0, 0.005
        else:
            sigma_step, q_step = args.sigma_step, args.q_step
        span = (args.sigma_max - args.sigma_min) / sigma_step if sigma_step > 0.0 else math.nan
        if not 0.0 <= span < math.inf:
            raise DomainError("need finite sigma_min <= sigma_max and a positive sigma step")
        sigmas = [args.sigma_min + i * sigma_step for i in range(int(round(span)) + 1)]
        _check_writable(args.out)  # not on the --point path: a point takes under 1 ms
        report = renyi.validate_moment_bound(sigmas, q_step=q_step, alpha_cap=args.alpha_cap)

    payload = {
        "manifest": _manifest(args),
        "points_checked": report.n_points,
        "violations": [
            {"q": c.q, "sigma": c.sigma, "alpha": c.alpha, "divergence": c.divergence, "bound": c.bound}
            for c in report.violations
        ],
        "worst_slack": report.worst_slack if report.n_points else None,
    }
    _write_text(args.out, json.dumps(payload, indent=2), "utf-8")
    print(f"{report.n_points} points checked, {len(report.violations)} violations")
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = config_from_json(TuneManifest, args.manifest, json.load(fh))
    data_config = _read_data(manifest.data)
    model_config = config_from_json(ModelConfig, "model", manifest.model)
    eps, seed = float(manifest.eps), manifest.seed
    rho = selection.selection_rho(eps)
    # every candidate's config, checked before any data is read
    configs = []
    for index, spec in enumerate(manifest.candidates):
        schedule = schedules.NoiseSchedule.from_dict(spec)
        if schedule.kind == "validation":
            raise ConfigError(f"candidates[{index}] is a validation schedule, and a candidate's portion has no validation split")
        configs.append(config_from_json(dpsgd.TrainConfig, "train", manifest.train, seed=seed + 1 + index, schedule=schedule))
    _check_writable(args.out, inputs=(args.manifest, *data_config.inputs))
    dataset = data_config.load()

    def train_candidate(index: int, portion: data.Dataset):
        model = model_config.build(portion, configs[index].seed)
        dpsgd.train(configs[index], portion, model)
        return lambda features: nn.predict(model, features)

    with dpsgd.quiet_overflow():
        result = selection.partition_tune(dataset, len(configs), train_candidate, eps, seed)
    payload = {
        "manifest": _manifest(args, seed),
        "selected": result.selected,
        "selected_schedule": configs[result.selected].schedule.to_dict(),
        "portion_sizes": result.portion_sizes,
        "selection_rho": rho,
    }
    _write_text(args.out, json.dumps(payload, indent=2), "utf-8")
    print(f"selected candidate {result.selected}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpbudget", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("account", help="accountant comparison curves")
    p.add_argument("--q", type=float, default=0.01, help="sampling ratio (default 0.01)")
    p.add_argument("--sigma", type=float, default=6.0, help="noise multiplier (default 6)")
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--iters-per-epoch", type=int, default=None, help="default: round(1/q)")
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_account)

    p = sub.add_parser("train", help="run DP-SGD from a JSON config")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", required=True, help="output prefix (.csv and .json are appended)")
    p.add_argument("--checkpoint", default=None, help="optional model checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("solve-k", help="solve a decay rate for a target training time")
    p.add_argument("--kind", required=True, choices=schedules.DECAY_KINDS)
    p.add_argument("--sigma0", type=float, required=True)
    p.add_argument("--rho-total", type=float, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--grid", type=float, default=1e-4)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--sigma-end", type=float, default=None)
    p.set_defaults(func=_cmd_solve_k)

    p = sub.add_parser("validate-bound", help="sweep the sampled-Gaussian moment bound")
    p.add_argument("--sigma-min", type=float, default=accounting.RS_SIGMA_MIN)
    p.add_argument("--sigma-max", type=float, default=30.0)
    p.add_argument("--sigma-step", type=float, default=0.001)
    p.add_argument("--q-step", type=float, default=0.001)
    p.add_argument("--alpha-cap", type=int, default=renyi.ORDER_CAP)
    p.add_argument("--smoke", action="store_true", help="coarse grid: sigma step 1.0, q step 0.005")
    p.add_argument("--point", nargs=2, type=float, metavar=("Q", "SIGMA"), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate_bound)

    p = sub.add_parser("tune", help="private schedule selection")
    p.add_argument("--manifest", required=True, help="JSON tuning manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tune)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv, argparse.Namespace(argv=argv))
    try:
        return args.func(args)
    except (
        DomainError, UsageError, ConfigError, ParseError, json.JSONDecodeError, UnicodeDecodeError,
        FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, InfeasibleTargetError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
