"""Span recording for the traced run, and the per-layer metrics derived from it.

Wrappers are placed where each module's callers look a function up: on the
module object when callers go through the module (``nn.per_example_gradients``,
``renyi.subsampled_renyi_divergence``), in the importing module's namespace
when callers imported the name (``dpsgd.rf_batches``, ``dpsgd.rs_eps``), and
on the class for methods (``PrivacyLedger.within_budget``).  Nothing inside
the ``dpbudget`` package changes; the wrappers are removed after each traced
unit, so the checks and the untraced units run the bare code.

Every wrapped call becomes one span: name, start, end, parent span and run
id, kept in flat in-memory arrays and written out once the run ends.  Calls
in one thread nest, so a span's children never overlap and its self time is
its duration minus the sum of its children's durations.  The self times of
all spans of one run therefore add up to the duration of that run's root
span.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT_SPAN = "bench.unit"

LAYERS = ("accounting", "renyi", "schedules", "nn", "data", "dpsgd", "selection", "cli")

# (owner, attribute, span name).  The owner is a module of the dpbudget
# package or a class in one; the span name's prefix is the layer that
# implements the function, not the module whose namespace holds the wrapper.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "main", "cli.main"),
    ("dpsgd", "train", "dpsgd.train"),
    ("dpsgd", "clip_rows", "dpsgd.clip_rows"),
    ("dpsgd", "rf_batches", "data.rf_batches"),
    ("dpsgd", "rs_batch", "data.rs_batch"),
    ("dpsgd", "sigma_at", "schedules.sigma_at"),
    ("dpsgd", "rs_eps", "accounting.rs_eps"),
    ("dpsgd", "rs_order_cap", "accounting.rs_order_cap"),
    ("dpsgd", "zcdp_to_dp", "accounting.zcdp_to_dp"),
    ("accounting.PrivacyLedger", "within_budget", "accounting.within_budget"),
    ("accounting.PrivacyLedger", "charge_rf_epoch", "accounting.charge_rf_epoch"),
    ("accounting.PrivacyLedger", "charge_rs_iteration", "accounting.charge_rs_iteration"),
    ("accounting.PrivacyLedger", "to_dp", "accounting.to_dp"),
    ("nn", "per_example_gradients", "nn.per_example_gradients"),
    ("nn", "flatten_per_example", "nn.flatten_per_example"),
    ("nn", "unflatten_gradient", "nn.unflatten_gradient"),
    ("nn", "sgd_step", "nn.sgd_step"),
    ("nn", "accuracy", "nn.accuracy"),
    ("data", "load_cancer_csv", "data.load_cancer_csv"),
    ("data", "train_test_split", "data.train_test_split"),
    ("renyi", "subsampled_renyi_divergence", "renyi.subsampled_renyi_divergence"),
    ("renyi", "moments_accountant_curve", "renyi.moments_accountant_curve"),
    ("renyi", "validate_moment_bound", "renyi.validate_moment_bound"),
    ("schedules", "sigma_at", "schedules.sigma_at"),
    ("schedules", "epochs_until_exhaustion", "schedules.epochs_until_exhaustion"),
    ("schedules", "solve_decay_rate", "schedules.solve_decay_rate"),
    ("selection", "exp_mechanism_select", "selection.exp_mechanism_select"),
)

# Span names summed into one metric group.  ``admission`` is every budget
# check and charge the trainer makes; ``to_dp`` every conversion to (eps, delta).
GROUPS: Dict[str, Tuple[str, ...]] = {
    "accounting.admission": (
        "accounting.within_budget",
        "accounting.charge_rf_epoch",
        "accounting.charge_rs_iteration",
        "accounting.rs_eps",
        "accounting.rs_order_cap",
    ),
    "accounting.to_dp": ("accounting.to_dp", "accounting.zcdp_to_dp"),
    "renyi.divergence": ("renyi.subsampled_renyi_divergence",),
}

# Budget checks: one per rf epoch (within_budget) or rs iteration (rs_eps).
CHECK_SPANS = ("accounting.within_budget", "accounting.rs_eps")

# (metric, unit) in the order the traced run reports them.  Self times are
# given as shares of the traced unit's wall time (``trace.wall_s``): a layer
# that a workload never calls then reads 0 as a ratio, not as a time.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("nn.per_example_gradients.calls", "count"),
    ("nn.per_example_gradients.self_frac", "ratio"),
    ("nn.per_example_gradients.rows", "count"),
    ("nn.per_example_gradients.out_mb", "MB"),
    ("nn.flatten_per_example.self_frac", "ratio"),
    ("dpsgd.clip_rows.calls", "count"),
    ("dpsgd.clip_rows.self_frac", "ratio"),
    ("dpsgd.train.self_frac", "ratio"),
    ("nn.sgd_step.self_frac", "ratio"),
    ("nn.unflatten_gradient.self_frac", "ratio"),
    ("data.rs_batch.self_frac", "ratio"),
    ("data.rs_batch.empty_frac", "ratio"),
    ("accounting.admission.calls", "count"),
    ("accounting.admission.self_frac", "ratio"),
    ("accounting.admitted_frac", "ratio"),
    ("accounting.to_dp.self_frac", "ratio"),
    ("nn.accuracy.calls", "count"),
    ("nn.accuracy.self_frac", "ratio"),
    ("data.rf_batches.self_frac", "ratio"),
    ("renyi.divergence.calls", "count"),
    ("renyi.divergence.self_frac", "ratio"),
    ("renyi.divergence.distinct_frac", "ratio"),
    ("renyi.divergence.errors", "count"),
    ("renyi.moments_accountant_curve.self_frac", "ratio"),
    ("renyi.validate_moment_bound.self_frac", "ratio"),
    ("schedules.sigma_at.calls", "count"),
    ("schedules.epochs_until_exhaustion.calls", "count"),
    ("schedules.solve_decay_rate.self_frac", "ratio"),
    ("selection.exp_mechanism_select.calls", "count"),
    ("selection.exp_mechanism_select.self_frac", "ratio"),
    ("data.load_cancer_csv.self_frac", "ratio"),
    ("cli.main.self_frac", "ratio"),
) + tuple((f"{layer}.self_frac", "ratio") for layer in LAYERS) + tuple(
    (f"{layer}.errors", "count") for layer in LAYERS
) + (
    ("bench.self_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Dict[int, Counter] = defaultdict(Counter)
        self.divergence_keys: Dict[int, set] = defaultdict(set)
        self.run_id = 0
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self.name_id(name)
        stack = self._stack
        error_key = "errors:" + name
        name_add, parent_add, run_add = self.name.append, self.parent.append, self.run.append
        start_add, end_add, ends = self.start.append, self.end.append, self.end
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(ends)
            name_add(nid)
            parent_add(stack[-1])
            run_add(tracer.run_id)
            end_add(0)
            stack.append(sid)
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[tracer.run_id][error_key] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_unit(self, run_id: int, body: Callable):
        """Call ``body()`` under the root span of traced unit ``run_id``."""
        self.run_id = run_id
        return self.wrap(ROOT_SPAN, body)()

    def install(self, package) -> None:
        """Wrap every function in :data:`TARGETS` that the package has."""
        observers = {
            "nn.per_example_gradients": self._observe_gradients,
            "data.rs_batch": self._observe_rs_batch,
            "renyi.subsampled_renyi_divergence": self._observe_divergence,
        }
        for owner_path, attr, span in TARGETS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                # a function the package no longer has: its metrics read 0
                continue
            setattr(owner, attr, self.wrap(span, original, observers.get(span)))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _observe_gradients(self, args, kwargs, result) -> None:
        counts = self.counters[self.run_id]
        counts["rows"] += len(result[0])
        counts["out_bytes"] += sum(g.nbytes for g in result)

    def _observe_rs_batch(self, args, kwargs, result) -> None:
        if len(result) == 0:
            self.counters[self.run_id]["rs_empty"] += 1

    def _observe_divergence(self, args, kwargs, result) -> None:
        reverse = kwargs.get("reverse", args[3] if len(args) > 3 else False)
        self.divergence_keys[self.run_id].add((float(args[0]), float(args[1]), float(args[2]), bool(reverse)))

    def spans(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (times in ns)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def layer_metrics(self, run_id: int, refused: int) -> Dict[str, float]:
        """Per-layer metrics of one traced unit; ``refused`` is the number of
        budget checks the unit's training runs refused (one per run that
        stopped on an exhausted budget)."""
        s = self.spans()
        index = np.flatnonzero(s["run"] == run_id)
        if len(index) == 0:
            raise ValueError(f"no spans recorded for run {run_id}")
        names, parent = s["name"][index], s["parent"][index]
        duration = s["end_ns"][index] - s["start_ns"][index]
        # parents are global span ids; map them onto positions in ``index``
        has_parent = parent >= 0
        local = np.searchsorted(index, parent[has_parent])
        child = np.bincount(local, weights=duration[has_parent], minlength=len(index))
        self_ns = duration - child

        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        self_s = np.bincount(names, weights=self_ns, minlength=n_names) / 1e9
        counts = self.counters[run_id]
        wall = float(duration[names == self._ids[ROOT_SPAN]].sum()) / 1e9

        def total(values, spans) -> float:
            return sum(values[self._ids[sp]] for sp in spans if sp in self._ids)

        def layer_spans(layer: str) -> List[str]:
            return [n for n in self.names if n.split(".")[0] == layer]

        out: Dict[str, float] = {}
        for metric, _ in PER_LAYER:
            base, _, field = metric.rpartition(".")
            spans = layer_spans(base) if base in LAYERS else GROUPS.get(base, (base,))
            if field == "calls":
                out[metric] = int(total(calls, spans))
            elif field == "self_frac":
                out[metric] = float(total(self_s, spans)) / wall
            elif field == "errors":
                out[metric] = sum(counts["errors:" + sp] for sp in spans)
        out["bench.self_frac"] = float(total(self_s, [ROOT_SPAN])) / wall
        out["nn.per_example_gradients.rows"] = counts["rows"]
        out["nn.per_example_gradients.out_mb"] = counts["out_bytes"] / 1e6
        rs_calls = total(calls, ["data.rs_batch"])
        out["data.rs_batch.empty_frac"] = counts["rs_empty"] / rs_calls if rs_calls else 0.0
        checks = total(calls, CHECK_SPANS)
        out["accounting.admitted_frac"] = (checks - refused) / checks if checks else 0.0
        divergences = total(calls, GROUPS["renyi.divergence"])
        out["renyi.divergence.distinct_frac"] = (
            len(self.divergence_keys[run_id]) / divergences if divergences else 0.0
        )
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(index)
        out["trace.self_sum_s"] = float(self_ns.sum()) / 1e9
        return out

