"""Trial runner, relative error metrics, parameter sweeps, and result files.

An experiment repeats sample -> estimate over R independent trials and
reports, per method,

    RMSE_r = sqrt(sum_t (F_debias - F*)^2) / sqrt(sum_t (F_naive - F*)^2)
    Bias_r = sum_t (F_debias - F*) / sum_t (F_naive - F*)

Trial t draws every random quantity from ``master.split(t)``, so records
and summaries are a pure function of (config, master seed) regardless of
which process runs a trial.  With W workers the trials are cut into W
blocks: the calling process runs the last block on the instance it already
holds, and W - 1 child processes run the others, each on an instance it
regenerates.  Records, summaries and CSV bytes do not depend on W.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BootstrapPlan, block_for, corrections, debiased, why_not
# hooked by perfbench/spans.py
from .core import covariance_debias, scale_debias, shift_debias  # noqa: F401
from .observations import ContractError, stable_digest
from .observations import mean_observation  # noqa: F401  hooked by perfbench/spans.py
from .problems import ProblemInstance, check_counts, generate_instance, get_family
from .resampling import RandomStream

# Trials run in blocks of at most this many resample count cells
# (trials x K x n), which bounds the memory a block's arrays take.
BLOCK_CELLS = 4096

@dataclass
class TrialRecord:
    """One trial: naive and per-method debiased values on a shared sample."""

    trial_index: int
    truth_value: float
    naive_value: float
    debiased: dict[str, float]
    seed_path: tuple
    fingerprint: int


@dataclass
class ExperimentSummary:
    """Per-method relative metrics plus the raw sums they derive from."""

    problem: str
    params: dict
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
    axis: Optional[str] = None
    axis_value: Optional[float] = None


def method_applicable(method: str, instance: ProblemInstance) -> Optional[str]:
    """None if the method applies to this instance, else the reason it doesn't."""
    return why_not(method, instance.objective, not instance.paired)


def run_trial(instance: ProblemInstance, n: int, plan: BootstrapPlan,
              methods, stream: RandomStream) -> TrialRecord:
    """One fresh observation set (or pair), all requested methods evaluated on it."""
    return _trials(instance, n, plan, methods, [stream])[0]


def _trials(instance: ProblemInstance, n: int, plan: BootstrapPlan, methods,
            streams) -> list[TrialRecord]:
    """The trials on ``streams`` as one block: the trial on stream s samples
    its input from ``s.split(0)``, and each method j runs once over the
    block, the trial on s resampling from ``s.split(1 + j)``."""
    inputs = [instance.sample_observations(n, s.split(0)) for s in streams]
    block = block_for(instance.objective, inputs)
    debiased_values = [{} for _ in streams]
    for j, m in enumerate(methods):
        corr, _ = corrections(m, block, plan, [s.split(1 + j) for s in streams])
        for trial, naive, c, stream in zip(debiased_values, block.naive, corr, streams):
            trial[m] = debiased(m, naive, c)
            if not math.isfinite(trial[m]):
                raise ContractError(f"trial {stream.path}: method {m} produced {trial[m]}")
    return [TrialRecord(stream.path[-1] if stream.path else 0, instance.truth_value, naive,
                        trial, stream.path, _fingerprint(obs))
            for naive, trial, stream, obs in zip(block.naive, debiased_values, streams, inputs)]


def _fingerprint(obs) -> int:
    if isinstance(obs, tuple):
        return stable_digest(s.fingerprint().to_bytes(8, "big") for s in obs)
    return obs.fingerprint()


def run_trials(instance: ProblemInstance, n: int, plan: BootstrapPlan, methods,
               root: RandomStream, lo: int, hi: int) -> list[TrialRecord]:
    """Trials lo..hi-1 in order, trial t on root.split(t).

    The methods are checked against the instance once, before any trial runs.
    Trials run in blocks of at most ``BLOCK_CELLS`` count cells; a block that
    raises runs again trial by trial, so the error is the one of the first
    failing trial, in method order.  No record depends on the block size.
    """
    if hi <= lo:
        raise ContractError(f"R must be >= 1, got {hi - lo}")
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    for m in methods:
        reason = method_applicable(m, instance)
        if reason:
            raise ContractError(f"{instance.id}: {reason}")
    size = max(1, BLOCK_CELLS // (plan.rounds * n))
    records = []
    for start in range(lo, hi, size):
        streams = [root.split(t) for t in range(start, min(start + size, hi))]
        try:
            records += _trials(instance, n, plan, methods, streams)
        except (ValueError, ArithmeticError):  # every error class a trial raises
            records += [run_trial(instance, n, plan, methods, s) for s in streams]
    return records


def _reduce_records(instance, n, plan, methods, R, seed, records) -> ExperimentSummary:
    truth = instance.truth_value
    naive_err = [rec.naive_value - truth for rec in records]
    naive_sq_sum = math.fsum(e * e for e in naive_err)
    naive_err_sum = math.fsum(naive_err)
    rmse_r, bias_r, sq_sums, err_sums = {}, {}, {}, {}
    for m in methods:
        err = [rec.debiased[m] - truth for rec in records]
        sq = math.fsum(e * e for e in err)
        es = math.fsum(err)
        sq_sums[m] = sq
        err_sums[m] = es
        rmse_r[m] = math.sqrt(sq) / math.sqrt(naive_sq_sum) if naive_sq_sum > 0 else float("nan")
        bias_r[m] = es / naive_err_sum if naive_err_sum != 0 else float("nan")
    return ExperimentSummary(
        problem=instance.id,
        params={k: v for k, v in instance.params.items() if np.isscalar(v) or v is None},
        n=n,
        K=plan.rounds,
        R=R,
        seed=seed,
        methods=list(methods),
        rmse_r=rmse_r,
        bias_r=bias_r,
        debias_sq_sum=sq_sums,
        debias_err_sum=err_sums,
        naive_sq_sum=naive_sq_sum,
        naive_err_sum=naive_err_sum,
    )


def _trial_block(family, params, seed, exp_index, n, K, m_size, methods, t_lo, t_hi):
    """Worker entry: regenerate the instance and run trials t_lo..t_hi-1."""
    master = RandomStream(seed).split(exp_index)
    instance = generate_instance(family, params, master.split(0))
    plan = BootstrapPlan(rounds=K, size=m_size)
    return run_trials(instance, n, plan, methods, master.split(1), t_lo, t_hi)


def run_experiment_spec(family: str, params: dict, n: int, K: int, methods, R: int,
                        seed: int, exp_index: int = 0, workers: int = 1,
                        m_size: Optional[int] = None) -> ExperimentSummary:
    """Experiment from a declarative spec; safe to parallelize because each
    child process regenerates the instance and draws trial t from the same
    lineage.

    Lineage: master = RandomStream(seed).split(exp_index); the instance comes
    from master.split(0) and trial t from master.split(1).split(t).
    """
    master = RandomStream(seed).split(exp_index)
    instance = generate_instance(family, params, master.split(0))
    plan = BootstrapPlan(rounds=K, size=m_size)
    if workers <= 1 or R < 4:
        records = run_trials(instance, n, plan, methods, master.split(1), 0, R)
    else:
        bounds = np.linspace(0, R, min(workers, R) + 1).astype(int).tolist()
        block = functools.partial(_trial_block, family, params, seed, exp_index, n, K,
                                  m_size, list(methods))
        records = _run_blocks(block, bounds, functools.partial(
            run_trials, instance, n, plan, methods, master.split(1)))
    return _reduce_records(instance, n, plan, methods, R, seed, records)


def _run_blocks(block, bounds, own_block) -> list[TrialRecord]:
    """The records of trial blocks bounds[i]..bounds[i+1]-1, in order.

    This process runs the last block with ``own_block(lo, hi)`` while one
    child process per other block runs ``block(lo, hi)`` and sends back its
    records.  The error raised is the first failing block's, in block order,
    so an error in this process's block waits for the children's outcomes.
    A child that exits without sending raises ``ChildProcessError``.  Every
    child is joined; one whose outcome was not received is terminated first.
    """
    import multiprocessing

    children, received = [], 0
    try:
        for lo, hi in zip(bounds[:-2], bounds[1:-1]):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_block, args=(sender, block, lo, hi))
            child.start()
            sender.close()
            children.append((child, receiver, lo, hi))
        try:
            own = (True, own_block(bounds[-2], bounds[-1]))
        except Exception as exc:  # an earlier block's error wins over this one
            own = (False, exc)
        records = []
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
        ok, result = own
        if not ok:
            raise result
        return records + result
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
    shared master seed, so sweeps are reproducible point by point."""
    spec = get_family(family)
    if axis not in spec.axes:
        raise ContractError(f"invalid axis {axis!r} for {family}; valid: {', '.join(spec.axes)}")
    methods = list(methods if methods is not None else spec.methods)
    summaries = []
    for i, value in enumerate(values):
        params = {**fixed, axis: value}
        check_counts(params, ("n", "K"))
        n = params.pop("n", None)
        K = int(params.pop("K", spec.K))
        n = spec.resolve_n(None if n is None else int(n), params)
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
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def summary_rows(summaries) -> list[str]:
    rows = []
    for s in summaries:
        for m in s.methods:
            rows.append(",".join([
                s.problem, m, s.axis or "", _fmt(s.axis_value), str(s.n), str(s.K),
                str(s.R), str(s.seed), _fmt(s.rmse_r[m]), _fmt(s.bias_r[m]),
            ]))
    return rows


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
    return {
        "problem": s.problem,
        "params": s.params,
        "axis": s.axis,
        "axis_value": s.axis_value,
        "n": s.n,
        "K": s.K,
        "R": s.R,
        "seed": s.seed,
        "methods": s.methods,
        "rmse_r": s.rmse_r,
        "bias_r": s.bias_r,
        "debias_sq_sum": s.debias_sq_sum,
        "debias_err_sum": s.debias_err_sum,
        "naive_sq_sum": s.naive_sq_sum,
        "naive_err_sum": s.naive_err_sum,
    }


_SVG_W, _SVG_H, _SVG_PAD = 420, 300, 45
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _panel(summaries, metric, methods, x0):
    values = [s.axis_value if s.axis_value is not None else i for i, s in enumerate(summaries)]
    ys = {m: [getattr(s, metric)[m] for s in summaries] for m in methods}
    all_y = [y for v in ys.values() for y in v if math.isfinite(y)] or [0.0, 1.0]
    ymin, ymax = min(all_y + [0.0]), max(all_y + [1.0])
    if ymax == ymin:
        ymax = ymin + 1.0
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
