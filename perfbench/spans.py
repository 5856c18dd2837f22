"""In-memory span tracer for the traced benchmark run.

Hooks replace a layer's function under the name its caller looks it up by
(a module global, a class attribute or a property), so the program itself is
not edited.  Each call becomes a span: name, start, end, parent span and
experiment id.  Spans stay in memory until ``write`` is called at the end.

A hook whose target no longer exists is recorded in ``Tracer.missing``; the
metrics that depend on it are then left out of the report, never set to 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# (span name, "module" or "module:Class", attribute).  The attribute is
# replaced where the caller looks it up, e.g. harness._estimate resolves
# shift_debias through harness's globals, so that is the name hooked.
HOOKS = (
    ("core.shift", "debias.harness", "shift_debias"),
    ("core.scale", "debias.harness", "scale_debias"),
    ("core.cov", "debias.harness", "covariance_debias"),
    ("core.counts", "debias.core", "_resample_counts"),
    ("core.resample_means", "debias.core", "_euclidean_resample_means"),
    ("core.bootstrap_means", "debias.core", "bootstrap_means"),
    ("observations.mixture", "debias.core", "mixture"),
    ("observations.mean", "debias.harness", "mean_observation"),
    ("observations.mean", "debias.core", "mean_observation"),
    ("linalg.cholesky_solve", "debias.problems", "cholesky_solve"),
    ("transport.solve", "debias.transport", "solve_transport"),
    ("objectives.evaluate", "debias.objectives:Objective", "evaluate"),
    ("objectives.evaluate_batch", "debias.objectives:Objective", "evaluate_batch"),
    ("problems.sample", "debias.problems:NoiseModel", "sample"),
    ("resampling.stream_init", "debias.resampling:RandomStream", "generator"),
    ("harness.trial", "debias.harness", "run_trial"),
    ("harness.reduce", "debias.harness", "_reduce_records"),
    ("problems.generate", "debias.harness", "generate_instance"),
    ("cli.emit_results", "debias.cli", "emit_results"),
    ("cli.emit_plot", "debias.cli", "emit_plot"),
)

EXPERIMENT = "experiment"


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


def tail(values) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile that leaves at
    least ten samples above it, by nearest rank; the maximum, at 100, when
    there are too few samples, and (0.0, 100) when there are none."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), 100
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100), 1-based
    return ordered[rank - 1], pct


class Tracer:
    """Spans as parallel lists, plus counters keyed by name."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.exps: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counters: Counter = Counter()
        self.missing: set[str] = set()
        self.exp_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.exps.append(self.exp_id)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(tracer.counters, args)
            i = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(i)

        return wrapper

    def _stream_property(self, name, prop):
        tracer = self

        def fget(stream):
            if stream._gen is not None:  # only the first access builds the generator
                return prop.fget(stream)
            i = tracer.begin(name)
            try:
                return prop.fget(stream)
            finally:
                tracer.end(i)

        return property(fget, doc=prop.__doc__)

    def install(self) -> None:
        """Replace every hooked attribute; targets that are gone go to ``missing``."""
        for name, target, attr in HOOKS:
            owner = _resolve(target)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.add(name)
                continue
            if isinstance(original, property):
                if "_gen" not in getattr(owner, "__slots__", ()):
                    self.missing.add(name)
                    continue
                replacement = self._stream_property(name, original)
            elif callable(original):
                count = _count_rows if attr == "evaluate_batch" else None
                replacement = self._wrap(name, original, count)
            else:
                self.missing.add(name)
                continue
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def experiment(self, exp_id: int, fn, *args):
        """Run one experiment under a root span carrying its id."""
        self.exp_id = exp_id
        i = self.begin(EXPERIMENT)
        try:
            return fn(*args)
        finally:
            self.end(i)

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: total self time (ns), call count and durations (ns).

        Self time is a span's duration minus the time covered by its child
        spans; spans are nested and one thread records them, so the children
        of a span never overlap.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durations[i]
        self_ns, calls, per_call = Counter(), Counter(), defaultdict(list)
        for i, name in enumerate(self.names):
            self_ns[name] += durations[i] - child[i]
            calls[name] += 1
            per_call[name].append(durations[i])
        return self_ns, calls, per_call

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent, experiment, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\texperiment\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{self.exps[i]}\t{name}\t"
                         f"{self.starts[i]}\t{self.ends[i]}\n")


def _count_rows(counters, args):
    objective, points = args[0], args[1]
    rows = len(points)
    if objective.fn_many is None:
        counters["objectives.rowloop_rows"] += rows
    if objective.domain_check is not None:
        counters["objectives.domain_rows"] += rows


# metric -> span whose self time it sums, normalised per trial
PER_TRIAL_MS = {
    "resampling.stream_init_ms": "resampling.stream_init",
    "problems.sample_ms": "problems.sample",
    "core.shift_ms": "core.shift",
    "core.scale_ms": "core.scale",
    "core.cov_ms": "core.cov",
    "core.counts_ms": "core.counts",
    "core.resample_means_ms": "core.resample_means",
    "core.bootstrap_means_ms": "core.bootstrap_means",
    "objectives.evaluate_ms": "objectives.evaluate",
    "objectives.evaluate_batch_ms": "objectives.evaluate_batch",
    "linalg.cholesky_solve_ms": "linalg.cholesky_solve",
    "observations.mixture_ms": "observations.mixture",
    "observations.mean_ms": "observations.mean",
}
# metric -> span whose calls it counts, normalised per trial
PER_TRIAL_CALLS = {
    "resampling.streams": "resampling.stream_init",
    "objectives.evaluate_calls": "objectives.evaluate",
    "linalg.cholesky_solves": "linalg.cholesky_solve",
    "transport.solves": "transport.solve",
    "observations.mixtures": "observations.mixture",
}
# metric -> span whose self time it sums, normalised per experiment
PER_EXPERIMENT_MS = {
    "harness.reduce_ms": "harness.reduce",
    "problems.generate_ms": "problems.generate",
    "cli.emit_results_ms": "cli.emit_results",
    "cli.emit_plot_ms": "cli.emit_plot",
}
# metric -> hook-maintained counter, normalised per trial
PER_TRIAL_COUNTERS = {
    "objectives.rowloop_rows": "objectives.evaluate_batch",
    "objectives.domain_rows": "objectives.evaluate_batch",
}


def layer_metrics(tracer: Tracer, trials: int, experiments: int) -> dict:
    """Per-layer metrics from the recorded spans; a span that never ran reads 0.

    Returns {name: (value, unit)}.  Metrics whose hook is missing are absent.
    """
    self_ns, calls, per_call = tracer.self_times()
    ms = 1e-6
    out = {}
    for metric, span in PER_TRIAL_MS.items():
        if span not in tracer.missing:
            out[metric] = (self_ns[span] * ms / trials, "ms/trial")
    for metric, span in PER_TRIAL_CALLS.items():
        if span not in tracer.missing:
            out[metric] = (calls[span] / trials, "count/trial")
    for metric, span in PER_EXPERIMENT_MS.items():
        if span not in tracer.missing:
            out[metric] = (self_ns[span] * ms / experiments, "ms/experiment")
    for metric, span in PER_TRIAL_COUNTERS.items():
        if span not in tracer.missing:
            out[metric] = (tracer.counters[metric] / trials, "count/trial")
    if "transport.solve" not in tracer.missing:
        solves = per_call["transport.solve"]
        p50 = statistics.median(solves) * ms if solves else 0.0
        out["transport.solve_ms.p50"] = (p50, "ms/solve")
        out["transport.solve_ms.tail"] = (tail(solves)[0] * ms, "ms/solve")
        if "harness.trial" not in tracer.missing:
            trial_ns = sum(per_call["harness.trial"])
            share = sum(solves) / trial_ns if trial_ns else 0.0
            out["transport.share"] = (share, "ratio")
    return out
