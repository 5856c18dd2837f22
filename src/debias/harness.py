"""Trial runner, relative error metrics, parameter sweeps, and result files.

An experiment repeats sample -> estimate over R independent trials and
reports, per method,

    RMSE_r = sqrt(sum_t (F_debias - F*)^2) / sqrt(sum_t (F_naive - F*)^2)
    Bias_r = sum_t (F_debias - F*) / sum_t (F_naive - F*)

and the paired mean of (F_debias - F*)^2 - (F_naive - F*)^2 with its
standard error, all from the one reduce of the trial records.

Trial t draws every random quantity from ``master.split(t)``, so records
and summaries are a pure function of (config, master seed) regardless of
which process runs a trial.  The trials are cut into one block, or into W
blocks with W workers and R >= 4: the calling process runs the first block
on the instance it already holds, and one child process per later block
runs it on an instance it regenerates.  Records, summaries and CSV bytes do
not depend on W.

A record carries its sample's fingerprint, a BLAKE2b digest of the sample's
bytes; this module owns that digest format.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import BootstrapPlan, NonFiniteEstimateError, block_for, estimates, why_not
# hooked by perfbench/spans.py
from .core import covariance_debias, scale_debias, shift_debias  # noqa: F401
from .observations import ContractError
from .observations import mean_observation  # noqa: F401  hooked by perfbench/spans.py
from .problems import (ProblemInstance, check_counts, check_trial_cells, generate_instance,
                       get_family, named, trial_width)
from .resampling import RandomStream, block_streams

# Trials run in blocks of at most this many resample cells, trials x K x
# problems.trial_width: a block's count and resample-mean arrays each stay
# within 512 KiB of 8-byte values.  A P1-P5 preset experiment of up to 50
# trials is one block.
BLOCK_CELLS = 65536
MAX_TRIALS = 2**32  # the most trials an experiment runs: the indices block keys cover

# An experiment whose every naive error is within this many ulps of its truth
# compares rounding noise, not estimators, and is refused.
ROUNDING_ULPS = 4

@dataclass
class TrialRecord:
    """One trial: naive and per-method debiased values on a shared sample.
    In an experiment, its trial index is ``seed_path[-1]``; its truth is
    the instance's."""

    naive_value: float
    debiased: dict[str, float]
    seed_path: tuple
    fingerprint: int


@dataclass(kw_only=True)
class ExperimentSummary:
    """Per-method relative metrics plus the raw sums they derive from, with
    the fields in the key order of the JSON results and SVG metadata.

    ``mse_diff[m]`` is the paired mean over trials of
    (F_debias - F*)^2 - (F_naive - F*)^2, and ``mse_diff_se[m]`` its standard
    error (ddof=1 standard deviation over sqrt(R); nan at R = 1), so a
    negative ``mse_diff`` several SEs below 0 says method m strictly reduced
    the squared error.  Both are in the JSON results and the SVG metadata,
    not in the CSV.
    """

    problem: str
    params: dict
    axis: Optional[str] = None
    axis_value: Optional[float] = None
    n: int
    K: int
    R: int
    seed: int
    methods: list[str]
    rmse_r: dict[str, float]
    bias_r: dict[str, float]
    debias_sq_sum: dict[str, float]
    debias_err_sum: dict[str, float]
    naive_sq_sum: float
    naive_err_sum: float
    mse_diff: dict[str, float]
    mse_diff_se: dict[str, float]


def run_trial(instance: ProblemInstance, n: int, plan: BootstrapPlan,
              methods, stream: RandomStream) -> TrialRecord:
    """One fresh observation set (or pair), all requested methods evaluated on it."""
    _check_methods(instance, methods)
    return _trials(instance, n, plan, methods,
                   [[stream.split(j)] for j in range(1 + len(methods))])[0]


def _trials(instance: ProblemInstance, n: int, plan: BootstrapPlan, methods,
            streams) -> list[TrialRecord]:
    """The trials of one block, ``streams[j][b]`` being trial b's stream
    split(j): one draw samples every trial's input from its split(0), and
    each method j runs once over the block, trial b resampling from
    ``streams[1 + j][b]``.  A debiased value that is not finite is refused
    naming the instance, its parameters and the trial."""
    inputs = instance.noise.sample(n, streams[0])
    block = block_for(instance.objective, inputs)
    paths = [s.path[:-1] for s in streams[0]]
    values = {}
    for m, rngs in zip(methods, streams[1:]):
        try:
            values[m] = estimates(m, block, plan, rngs)[1]
        except NonFiniteEstimateError as exc:
            raise ContractError(f"{instance.id} at {named(instance.params)}: "
                                f"trial {paths[exc.index]}: {exc}") from exc
    fingerprints = _fingerprints(inputs, instance.objective.paired)
    return [TrialRecord(naive, {m: v[b] for m, v in values.items()}, path, fingerprint)
            for b, (naive, path, fingerprint) in enumerate(zip(block.naive, paths, fingerprints))]


def _check_methods(instance: ProblemInstance, methods) -> None:
    """Refuse a method ``why_not`` rules out, or one listed twice: a record keys values by name."""
    for m in methods:
        reason = why_not(m, instance.objective)
        if not reason and methods.count(m) > 1:
            reason = f"method {m!r} is listed more than once"
        if reason:
            raise ContractError(f"{instance.id}: {reason}")


def _fingerprints(inputs, paired: bool) -> list[int]:
    """Each trial's sample digest: for a (B, n, d) stack of Euclidean sets,
    the digest of each set's points' bytes; for pairs of clouds (``paired``),
    the digest of the two clouds' digests."""
    if not paired:
        return [_stable_digest([points.tobytes()]) for points in inputs]
    return [_stable_digest(_cloud_digest(s).to_bytes(8, "big") for s in pair) for pair in inputs]


def _cloud_digest(points: np.ndarray) -> int:
    """A cloud's digest: its points' bytes, each point followed by its weight 1.0."""
    return _stable_digest([np.hstack([points, np.ones((len(points), 1))]).tobytes()])


def _stable_digest(chunks) -> int:
    """64-bit BLAKE2b digest of a sequence of byte strings, as an int; unlike
    ``hash()``, it does not depend on the process's hash seed."""
    return int.from_bytes(hashlib.blake2b(b"".join(chunks), digest_size=8).digest(), "big")


def run_trials(instance: ProblemInstance, n: int, plan: BootstrapPlan, methods,
               root: RandomStream, lo: int, hi: int) -> list[TrialRecord]:
    """Trials lo..hi-1 in order, trial t on root.split(t).

    The methods are checked (``_check_methods``) before any trial runs.
    Trials run in blocks of at most ``BLOCK_CELLS`` resample cells, on the
    streams ``block_streams`` keys at once for the block; a block that
    raises runs again trial by trial, on lone streams, so the error is the
    one of the first failing trial, in method order.  No record depends on
    the block size.
    """
    if hi <= lo:
        raise ContractError(f"R must be >= 1, got {hi - lo}")
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    _check_methods(instance, methods)
    size = max(1, BLOCK_CELLS // (plan.rounds * trial_width(instance, n)))
    records = []
    for start in range(lo, hi, size):
        end = min(start + size, hi)
        try:  # block keys stop at trial 2**32 - 1; later trials run one at a time
            records += _trials(instance, n, plan, methods,
                               block_streams(root, start, end, 1 + len(methods)))
        except (ValueError, ArithmeticError):  # every error class a trial raises
            records += [run_trial(instance, n, plan, methods, root.split(t))
                        for t in range(start, end)]
    return records


def _reduce_records(instance, n, plan, methods, seed, records) -> ExperimentSummary:
    """The summary of an experiment's records, one a trial (R of them).

    Naive errors whose sums are 0 leave the ratios 0/0, naive errors each
    within ``ROUNDING_ULPS`` ulps of the truth leave ratios of rounding
    noise, and errors too large to square, sum or take the variance of in
    floats leave them inf or nan; each is refused, naming the experiment."""
    R = len(records)
    experiment = f"{instance.id} at {named({'n': n, 'K': plan.rounds, **instance.params})}"
    truth = instance.truth_value
    naive_err = [rec.naive_value - truth for rec in records]
    naive_sq = [e * e for e in naive_err]
    naive_sq_sum = math.fsum(naive_sq)
    naive_err_sum = math.fsum(naive_err)
    if naive_sq_sum == 0 or naive_err_sum == 0:
        raise ContractError(f"{experiment}: the naive errors sum to 0, so every ratio is 0/0")
    if all(abs(e) <= ROUNDING_ULPS * math.ulp(truth) for e in naive_err):
        raise ContractError(f"{experiment}: every naive error is within {ROUNDING_ULPS} ulps "
                            "of the truth, so every ratio compares rounding noise")
    rmse_r, bias_r, sq_sums, err_sums, mse_diff, mse_diff_se = {}, {}, {}, {}, {}, {}
    try:
        for m in methods:
            err = [rec.debiased[m] - truth for rec in records]
            sq = math.fsum(e * e for e in err)
            es = math.fsum(err)
            sq_sums[m] = sq
            err_sums[m] = es
            rmse_r[m] = math.sqrt(sq) / math.sqrt(naive_sq_sum)
            bias_r[m] = es / naive_err_sum
            diff = [e * e - s for e, s in zip(err, naive_sq)]
            mse_diff[m] = mean = math.fsum(diff) / R
            var = math.fsum((x - mean) ** 2 for x in diff) / (R - 1) if R > 1 else float("nan")
            mse_diff_se[m] = math.sqrt(var / R)
        finite = all(map(math.isfinite, [
            naive_sq_sum, naive_err_sum, *sq_sums.values(), *err_sums.values(),
            *rmse_r.values(), *bias_r.values(), *mse_diff.values(),
            *(mse_diff_se.values() if R > 1 else ())]))
    except (OverflowError, ValueError):  # fsum raises on inf + -inf too
        finite = False
    if not finite:
        raise ContractError(f"{experiment}: the errors overflow float64 when squared or summed")
    return ExperimentSummary(
        problem=instance.id,
        params=dict(instance.params),
        n=n, K=plan.rounds, R=R, seed=seed, methods=list(methods), rmse_r=rmse_r, bias_r=bias_r,
        debias_sq_sum=sq_sums, debias_err_sum=err_sums, naive_sq_sum=naive_sq_sum,
        naive_err_sum=naive_err_sum, mse_diff=mse_diff, mse_diff_se=mse_diff_se)


def _lineage(family, params, seed, exp_index, K):
    """An experiment's instance, plan and trial root: with master the
    stream of path (exp_index,) under ``seed``, the instance comes from
    master.split(0) and trial t from master.split(1).split(t)."""
    master = RandomStream(seed).split(exp_index)
    instance = generate_instance(family, params, master.split(0))
    return instance, BootstrapPlan(rounds=K), master.split(1)


def _trial_block(family, params, seed, exp_index, n, K, methods, t_lo, t_hi):
    """Worker entry: regenerate the instance and run trials t_lo..t_hi-1."""
    instance, plan, root = _lineage(family, params, seed, exp_index, K)
    return run_trials(instance, n, plan, methods, root, t_lo, t_hi)


def run_experiment_spec(family: str, params: dict, n: Optional[int], K: Optional[int],
                        methods, R: int, seed: int, exp_index: int = 0,
                        workers: int = 1) -> ExperimentSummary:
    """Experiment from a declarative spec (lineage: ``_lineage``); safe to
    parallelize because each child process regenerates the instance and
    draws trial t from the same lineage.  An ``n``, ``K`` or ``methods`` of
    None is the family's preset, P6's n being 5 * d of the instance built.
    More than ``MAX_TRIALS`` trials, workers below 1, a method list that
    ``_check_methods`` refuses, and sizes that would give a trial an array
    above ``problems.MAX_CELLS`` are refused before any trial runs."""
    if R > MAX_TRIALS:
        raise ContractError(f"R (--trials) must be at most MAX_TRIALS = 2**32, got {R}")
    if workers < 1:
        raise ContractError(f"workers must be >= 1, got {workers}")
    spec = get_family(family)
    K = spec.K if K is None else K
    methods = list(spec.methods if methods is None else methods)
    instance, plan, root = _lineage(family, params, seed, exp_index, K)
    _check_methods(instance, methods)  # in this process, before any child starts
    n = spec.preset_n(instance.params["d"]) if n is None else n
    check_trial_cells(instance, n, K)
    blocks = 1 if R < 4 else min(workers, R)
    bounds = np.linspace(0, R, blocks + 1).astype(int).tolist()
    block = functools.partial(_trial_block, family, params, seed, exp_index, n, K, methods)
    records = _run_blocks(block, bounds, functools.partial(
        run_trials, instance, n, plan, methods, root))
    return _reduce_records(instance, n, plan, methods, seed, records)


def _run_blocks(block, bounds, own_block) -> list[TrialRecord]:
    """The records of trial blocks bounds[i]..bounds[i+1]-1, in order.

    This process runs the first block with ``own_block(lo, hi)`` while one
    child process per later block runs ``block(lo, hi)`` and sends back its
    records; ``multiprocessing`` is imported only to start a child.  The
    error raised is the first failing block's, in block order.  A child that
    exits without sending raises ``ChildProcessError``.  Every child is
    joined; one whose outcome was not received is terminated first.
    """
    children, received = [], 0
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            import multiprocessing
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_block, args=(sender, block, lo, hi))
            child.start()
            sender.close()
            children.append((child, receiver, lo, hi))
        records = own_block(bounds[0], bounds[1])
        for child, receiver, lo, hi in children:
            try:
                ok, result = receiver.recv()
            except EOFError:
                child.join()
                ok, result = False, ChildProcessError(
                    f"trials {lo}..{hi - 1}: worker process exited with code "
                    f"{child.exitcode} without sending its records")
            received += 1
            if not ok:
                raise result
            records += result
        return records
    finally:
        for child, _, _, _ in children[received:]:
            child.terminate()
        for child, receiver, _, _ in children:
            child.join()
            receiver.close()


def _send_block(sender, block, lo, hi) -> None:
    """Child entry: send (True, records) or (False, exception) of one block."""
    try:
        outcome = (True, block(lo, hi))
    except Exception as exc:
        outcome = (False, exc)
    sender.send(outcome)


def default_workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def run_sweep(family: str, axis: str, values, fixed: dict, R: int, seed: int,
              methods=None, workers: int = 1) -> list[ExperimentSummary]:
    """One experiment per axis value; value i uses experiment index i of the
    shared master seed, so sweeps are reproducible point by point.  An n, K
    or ``methods`` that neither the axis nor ``fixed`` sets is the preset."""
    spec = get_family(family)
    if axis not in spec.axes:
        raise ContractError(f"axis {axis} must be a {family} parameter, n or K; "
                            f"valid: {', '.join(spec.axes)}")
    if axis in fixed:  # one value, two channels
        raise ContractError(f"a sweep over {axis} cannot also fix {named({axis: fixed[axis]})}")
    summaries = []
    for i, value in enumerate(values):
        params = {**fixed, axis: value}
        check_counts(params, ("n", "K"))
        n, K = (None if v is None else int(v) for v in (params.pop("n", None),
                                                         params.pop("K", None)))
        summary = run_experiment_spec(family, params, n, K, methods, R, seed, exp_index=i,
                                      workers=workers)
        summary.axis = axis
        summary.axis_value = float(value)
        summaries.append(summary)
    return summaries


# ---------------------------------------------------------------------------
# result files

CSV_COLUMNS = "problem,method,axis,axis_value,n,K,R,seed,rmse_r,bias_r"


def _fmt(x) -> str:
    return "" if x is None else repr(x)


def summary_rows(summaries) -> list[str]:
    return [",".join([s.problem, m, s.axis or "", _fmt(s.axis_value), str(s.n), str(s.K),
                      str(s.R), str(s.seed), _fmt(s.rmse_r[m]), _fmt(s.bias_r[m])])
            for s in summaries for m in s.methods]


def emit_results(summaries, fmt: str, path: str, header_lines=()) -> None:
    """Write summaries as CSV (schema above) or JSON, full-precision floats."""
    summaries = list(summaries)
    if not summaries:
        raise ContractError("emit_results needs at least one summary")
    if fmt == "csv":
        lines = [f"# {h}" for h in header_lines]
        lines.append(CSV_COLUMNS)
        lines.extend(summary_rows(summaries))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {"header": list(header_lines), "results": [summary_dict(s) for s in summaries]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ContractError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


def summary_dict(s: ExperimentSummary) -> dict:
    return asdict(s)


_SVG_W, _SVG_H, _SVG_PAD = 420, 300, 45
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _panel(summaries, metric, methods, x0):
    values = [s.axis_value if s.axis_value is not None else i for i, s in enumerate(summaries)]
    ys = {m: [getattr(s, metric)[m] for s in summaries] for m in methods}
    all_y = [y for v in ys.values() for y in v if math.isfinite(y)] or [0.0, 1.0]
    ymin, ymax = min(all_y + [0.0]), max(all_y + [1.0])  # so ymax - ymin >= 1
    xmin, xmax = min(values), max(values)
    if xmax == xmin:
        xmax = xmin + 1.0
    span_x = _SVG_W - 2 * _SVG_PAD
    span_y = _SVG_H - 2 * _SVG_PAD

    def sx(x):
        return x0 + _SVG_PAD + (x - xmin) / (xmax - xmin) * span_x

    def sy(y):
        return _SVG_H - _SVG_PAD - (y - ymin) / (ymax - ymin) * span_y

    parts = [
        f'<rect x="{x0 + _SVG_PAD}" y="{_SVG_PAD}" width="{span_x}" height="{span_y}" '
        'fill="none" stroke="#999"/>',
        f'<text x="{x0 + _SVG_W / 2}" y="{_SVG_H - 8}" text-anchor="middle" '
        f'font-size="12">{metric}</text>',
    ]
    for i, m in enumerate(methods):
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(values, ys[m]) if math.isfinite(y)
        )
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{x0 + _SVG_PAD + 4}" y="{_SVG_PAD + 14 + 13 * i}" font-size="11" '
            f'fill="{color}">{m}</text>'
        )
    return "".join(parts)


def emit_plot(summaries, path: str) -> None:
    """Two-panel SVG line chart (RMSE_r, Bias_r), one polyline per method,
    with the numeric table embedded as JSON metadata."""
    summaries = list(summaries)
    if not summaries:
        raise ContractError("emit_plot needs at least one summary")
    methods = summaries[0].methods
    table = [summary_dict(s) for s in summaries]
    meta = json.dumps(table)
    body = _panel(summaries, "rmse_r", methods, 0) + _panel(summaries, "bias_r", methods, _SVG_W)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * _SVG_W}" height="{_SVG_H}">'
        f"<metadata id=\"debias-data\">{meta}</metadata>{body}</svg>\n"
    )
    with open(path, "w") as fh:
        fh.write(svg)
