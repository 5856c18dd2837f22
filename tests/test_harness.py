import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import debias
from _oracles import (
    paired_mse_reference,
    paired_trial_reference,
    parse_results_csv,
    run_trial_reference,
)
from debias import harness
from debias.core import METHODS, BootstrapPlan, DegenerateDenominatorError, why_not
from debias.harness import (
    CSV_COLUMNS,
    TrialRecord,
    _reduce_records,
    _trial_block,
    emit_plot,
    emit_results,
    run_experiment_spec,
    run_sweep,
    run_trial,
    run_trials,
    summary_dict,
)
from debias.objectives import DomainError, EvaluationError
from debias.observations import ContractError
from debias.problems import FAMILIES, NoiseModel, generate_instance
from debias.resampling import RandomStream


def stub_instance(truth=0.0):
    return SimpleNamespace(id="S", params={}, truth_value=truth)


def make_records(naive_residuals, debias_residuals, truth=0.0):
    return [
        TrialRecord(truth + nr, {"m": truth + dr}, (t,), 0)
        for t, (nr, dr) in enumerate(zip(naive_residuals, debias_residuals))
    ]


# ---------------------------------------------------------------------------
# metric definitions on hand-made records


def test_identity_debias_gives_unit_ratios():
    recs = make_records([1.0, -2.0, 0.5], [1.0, -2.0, 0.5])
    s = _reduce_records(stub_instance(), 5, BootstrapPlan(rounds=3), ["m"], 0, recs)
    assert s.rmse_r["m"] == 1.0
    assert s.bias_r["m"] == 1.0


def test_oracle_debias_gives_zero_ratios():
    recs = make_records([1.0, -2.0, 0.5], [0.0, 0.0, 0.0])
    s = _reduce_records(stub_instance(), 5, BootstrapPlan(rounds=3), ["m"], 0, recs)
    assert s.rmse_r["m"] == 0.0
    assert s.bias_r["m"] == 0.0


def test_hand_made_residuals_example():
    # naive residuals {1, 1}, debias {1, -1}: RMSE_r = 1, Bias_r = 0
    recs = make_records([1.0, 1.0], [1.0, -1.0])
    s = _reduce_records(stub_instance(), 5, BootstrapPlan(rounds=3), ["m"], 0, recs)
    assert s.rmse_r["m"] == 1.0
    assert s.bias_r["m"] == 0.0


def test_hand_made_paired_mse_difference():
    # squared-error differences {0, -3, 1}: mean -2/3, sample variance 13/3
    recs = make_records([1.0, -2.0, 0.0], [1.0, 1.0, 1.0])
    s = _reduce_records(stub_instance(), 5, BootstrapPlan(rounds=3), ["m"], 0, recs)
    assert s.mse_diff["m"] == pytest.approx(-2 / 3, rel=1e-15)
    assert s.mse_diff_se["m"] == pytest.approx(math.sqrt(13 / 9), rel=1e-15)
    one = _reduce_records(stub_instance(), 5, BootstrapPlan(rounds=3), ["m"], 0, recs[:1])
    assert one.mse_diff["m"] == 0.0 and math.isnan(one.mse_diff_se["m"])


@pytest.mark.parametrize("naive, debiased, message", [
    ([0.0, 0.0], [1.0, 1.0], "the naive errors sum to 0"),  # rmse_r and bias_r were nan
    ([1.0, -1.0], [1.0, 1.0], "the naive errors sum to 0"),  # bias_r was nan
    ([1e-170, 1e-170], [1.0, 1.0], "the naive errors sum to 0"),  # squares underflow to 0
    ([1e160, 1.0], [1.0, 1.0], "the errors overflow"),  # a naive square is inf
    ([1e100, 1.0], [1.0, 1.0], "the errors overflow"),  # the variance raised OverflowError
])
def test_undefined_ratios_refused_naming_the_experiment(naive, debiased, message):
    recs = make_records(naive, debiased)
    with pytest.raises(ContractError, match=f"^S at n=5, K=3: {message}"):
        _reduce_records(stub_instance(), 5, BootstrapPlan(rounds=3), ["m"], 0, recs)


@pytest.mark.parametrize("family,params,n,K,R,methods", [
    ("P1", {"d": 3}, 10, 10, 200, ["shift", "scale", "cov"]),
    ("P6", {"d": 4}, 8, 12, 60, ["shift", "scale", "cov"]),
])
def test_paired_mse_difference_matches_numpy(family, params, n, K, R, methods):
    master = RandomStream(17).split(0)
    instance = generate_instance(family, params, master.split(0))
    plan = BootstrapPlan(rounds=K)
    records = run_trials(instance, n, plan, methods, master.split(1), 0, R)
    s = _reduce_records(instance, n, plan, methods, 17, records)
    for m in methods:
        mean, se = paired_mse_reference(records, m, instance.truth_value)
        assert s.mse_diff[m] == pytest.approx(mean, rel=1e-12)
        assert s.mse_diff_se[m] == pytest.approx(se, rel=1e-12)
        assert s.mse_diff[m] * R == pytest.approx(s.debias_sq_sum[m] - s.naive_sq_sum,
                                                  rel=1e-12)


def test_raw_sum_reconstruction_bit_exact():
    s = run_experiment_spec("P1", {"d": 3}, 10, 10, ["shift", "cov"], 40, seed=1)
    for m in s.methods:
        assert s.rmse_r[m] == math.sqrt(s.debias_sq_sum[m]) / math.sqrt(s.naive_sq_sum)
        assert s.bias_r[m] == s.debias_err_sum[m] / s.naive_err_sum


# ---------------------------------------------------------------------------
# trials


def test_run_trial_no_methods_records_naive():
    inst = generate_instance("P1", {"d": 2}, RandomStream(2))
    rec = run_trial(inst, 6, BootstrapPlan(rounds=4), [], RandomStream(3))
    assert rec.debiased == {}
    assert math.isfinite(rec.naive_value)


def test_run_trial_deterministic():
    inst = generate_instance("P1", {"d": 2}, RandomStream(4))
    a = run_trial(inst, 6, BootstrapPlan(rounds=4), ["shift", "scale"], RandomStream(5))
    b = run_trial(inst, 6, BootstrapPlan(rounds=4), ["shift", "scale"], RandomStream(5))
    assert a.naive_value == b.naive_value
    assert a.debiased == b.debiased
    assert a.fingerprint == b.fingerprint


def test_fingerprints_stable_across_processes():
    # hash() of bytes changes with PYTHONHASHSEED; the fingerprints must not
    script = (
        "from debias.core import BootstrapPlan\n"
        "import numpy as np\n"
        "from debias.harness import _fingerprints, run_trial\n"
        "from debias.problems import generate_instance\n"
        "from debias.resampling import RandomStream\n"
        "print(_fingerprints(np.array([[[1.0, 2.0], [3.0, 4.5]]]), False)[0])\n"
        "print(_fingerprints([(np.array([[0.5], [1.5]]), np.array([[2.0]]))], True)[0])\n"
        "inst = generate_instance('P7', {'d': 2}, RandomStream(1))\n"
        "print(run_trial(inst, 4, BootstrapPlan(rounds=3), ['shift'], RandomStream(2)).fingerprint)\n"
    )
    src = str(Path(debias.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


def test_paired_design_same_observations():
    # the sampled set does not depend on which methods run
    inst = generate_instance("P1", {"d": 2}, RandomStream(6))
    a = run_trial(inst, 6, BootstrapPlan(rounds=4), ["shift"], RandomStream(7))
    b = run_trial(inst, 6, BootstrapPlan(rounds=4), ["shift", "cov"], RandomStream(7))
    assert a.fingerprint == b.fingerprint
    assert a.naive_value == b.naive_value
    assert a.debiased["shift"] == b.debiased["shift"]


def test_method_applicability_checked_before_trials(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran before the methods were checked")

    # every trial path samples its observations: the per-trial loop, a block
    # of Euclidean trials, and a block's rerun trial by trial
    monkeypatch.setattr(NoiseModel, "sample", no_trial)
    monkeypatch.setattr(harness, "run_trial", no_trial)
    inst4 = generate_instance("P4", {"d": 3}, RandomStream(8))
    assert why_not("cov", inst4.objective) is not None
    with pytest.raises(ContractError, match="hessian"):
        run_experiment_spec("P4", {"d": 3}, 5, 4, ["shift", "cov"], 3, seed=9)
    inst7 = generate_instance("P7", {"d": 2}, RandomStream(10))
    assert why_not("cov", inst7.objective) is not None
    assert why_not("shift", inst7.objective) is None
    with pytest.raises(ContractError, match="nonsense"):
        run_experiment_spec("P7", {"d": 2}, 5, 4, ["shift", "nonsense"], 3, seed=11)


@pytest.mark.parametrize("family, methods, message", [
    ("P1", ["bogus"], "unknown method 'bogus'; valid: shift, scale, cov"),  # was KeyError
    # was AttributeError: 'EmpiricalBlock' object has no attribute 'covariance'
    ("P7", ["cov"], "covariance needs Euclidean observations"),
    # a trial keeps one value a name: both rows held the second stream's values
    ("P1", ["shift", "shift"], "method 'shift' is listed more than once"),
    ("P1", ["scale", "shift", "scale"], "method 'scale' is listed more than once"),
])
def test_method_lists_refused_before_any_trial(monkeypatch, family, methods, message):
    def no_trial(*args):
        raise AssertionError("a trial ran before the methods were checked")

    inst = generate_instance(family, {"d": 2}, RandomStream(8))
    plan, expected = BootstrapPlan(rounds=3), f"^{family}: {re.escape(message)}$"
    monkeypatch.setattr(NoiseModel, "sample", no_trial)
    with pytest.raises(ContractError, match=expected):
        run_trial(inst, 4, plan, methods, RandomStream(9))
    with pytest.raises(ContractError, match=expected):
        run_trials(inst, 4, plan, methods, RandomStream(9), 0, 3)
    monkeypatch.setattr(harness, "_run_blocks", no_trial)  # no child starts
    with pytest.raises(ContractError, match=expected):
        run_experiment_spec(family, {"d": 2}, 4, 3, methods, 8, seed=9, workers=2)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_1_refused(monkeypatch, workers):
    # each ran serially
    def no_experiment(*args):
        raise AssertionError("an instance was built before workers were checked")

    monkeypatch.setattr(harness, "_lineage", no_experiment)
    message = f"^workers must be >= 1, got {workers}$"
    with pytest.raises(ContractError, match=message):
        run_experiment_spec("P1", {}, None, None, None, 5, 1, workers=workers)
    with pytest.raises(ContractError, match=message):
        run_sweep("P1", "sigma", [0.5, 1.0], {}, 5, 1, workers=workers)


@pytest.mark.parametrize("axis, fixed, message", [
    # each ran the swept values and dropped the fixed one without a word
    ("n", {"n": 20}, "a sweep over n cannot also fix n=20"),
    ("K", {"d": 2, "K": 4}, "a sweep over K cannot also fix K=4"),
    ("sigma", {"sigma": 2.5}, "a sweep over sigma cannot also fix sigma=2.5"),
])
def test_sweep_axis_also_fixed_refused(monkeypatch, axis, fixed, message):
    def no_experiment(*args, **kwargs):
        raise AssertionError("an experiment ran before the axis was checked")

    monkeypatch.setattr(harness, "run_experiment_spec", no_experiment)
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        run_sweep("P1", axis, [4, 6], fixed, 5, 1)


def test_p7_trial_runs():
    inst = generate_instance("P7", {"d": 2}, RandomStream(12))
    rec = run_trial(inst, 5, BootstrapPlan(rounds=6), ["shift", "scale"], RandomStream(13))
    assert set(rec.debiased) == {"shift", "scale"}


@pytest.mark.parametrize("params, n, K", [
    ({}, 10, 50),  # the preset
    ({"m_samples": 7}, 10, 50),
    ({"d": 1}, 10, 50),
    ({"d": 32}, 10, 50),
    ({"d": 2, "m_samples": 4}, 3, 5),
])
def test_p7_records_match_per_resample_reference(params, n, K):
    # the batched resamples give the records of the mixture-per-resample loop
    instance = generate_instance("P7", params, RandomStream(5).split(0))
    plan = BootstrapPlan(rounds=K)
    root = RandomStream(5).split(1)
    got = run_trials(instance, n, plan, ["shift", "scale"], root, 0, 3)
    want = [paired_trial_reference(instance, n, plan, ["shift", "scale"], root.split(t))
            for t in range(3)]
    assert record_bits(got) == record_bits(want)


# ---------------------------------------------------------------------------
# experiments


def test_run_experiment_deterministic():
    s1 = run_experiment_spec("P1", {"d": 2}, 8, 6, ["shift"], 25, seed=15, exp_index=3)
    s2 = run_experiment_spec("P1", {"d": 2}, 8, 6, ["shift"], 25, seed=15, exp_index=3)
    assert s1.rmse_r == s2.rmse_r
    assert s1.bias_r == s2.bias_r
    assert s1.naive_sq_sum == s2.naive_sq_sum


def test_run_experiment_spec_workers_identical():
    kwargs = dict(family="P1", params={"d": 3}, n=8, K=6, methods=["shift", "cov"],
                  R=30, seed=99)
    s1 = run_experiment_spec(**kwargs, workers=1)
    s2 = run_experiment_spec(**kwargs, workers=2)
    s3 = run_experiment_spec(**kwargs, workers=4)
    assert s1.rmse_r == s2.rmse_r == s3.rmse_r
    assert s1.bias_r == s2.bias_r == s3.bias_r
    assert s1.naive_sq_sum == s2.naive_sq_sum == s3.naive_sq_sum
    assert multiprocessing.active_children() == []


# BLAKE2b digests of the trial records run_experiment_spec reduces for each
# family at its preset n, K and methods, seed 3, R = 6 (P7: 4): seed paths,
# sample fingerprints, naive and debiased values as hex floats.  Frozen from
# the implementation that built a numpy SeedSequence for every stream; the
# keys of every method stream, not only the samples, enter them.
RECORD_DIGESTS = {
    "P1": "2842f085d14ff4263fe1f9546ec5b793",
    "P2": "9de84c9528b8c890bce2c27615839e11",
    "P3": "901f65c7bcbf456e29f7961ecf88066e",
    "P4": "0de09967c83d1dcd53fee9508ac2af26",
    "P5": "32b755c0de9fd354314545ad571d4d34",
    "P6": "ddef41349f09bf5dff75db873bb82c93",
    "P7": "7cf8874fb4d1657757a5530fe33a627f",
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(RECORD_DIGESTS))
def test_trial_record_digests(monkeypatch, family, workers):
    spec, records = FAMILIES[family], []

    def keep(*args):
        records.extend(args[-1])
        return _reduce_records(*args)

    monkeypatch.setattr(harness, "_reduce_records", keep)
    # n, K and methods of None: the family's preset
    run_experiment_spec(family, {}, None, None, None, 4 if family == "P7" else 6, seed=3,
                        workers=workers)
    chunks = []
    for rec in records:
        chunks += [repr(rec.seed_path).encode(), rec.fingerprint.to_bytes(8, "big"),
                   rec.naive_value.hex().encode()]
        chunks += [f"{m}={rec.debiased[m].hex()}".encode() for m in spec.methods]
    digest = hashlib.blake2b(b"|".join(chunks), digest_size=16).hexdigest()
    assert digest == RECORD_DIGESTS[family]


def test_run_experiment_validates_r():
    for R in (0, -3):
        for workers in (1, 2):
            with pytest.raises(ContractError, match="R must be >= 1"):
                run_experiment_spec("P1", {"d": 2}, 8, 6, ["shift"], R, seed=17, workers=workers)


# a test that patches what the children call reaches them only through fork
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="children see a patch only when forked")


@needs_fork
@pytest.mark.parametrize("workers,first,last", [(2, 6, 11), (3, 4, 7)])
def test_child_exit_without_records_raises(monkeypatch, workers, first, last):
    # the blocks of R = 12 are 0..5 | 6..11 at 2 workers and
    # 0..3 | 4..7 | 8..11 at 3; the caller runs the first one itself
    inner = harness._trial_block

    def dies(*args):
        if args[-2] == first:  # args end with the block's bounds
            os._exit(1)
        return inner(*args)

    def hangs(signum, frame):
        raise TimeoutError("no error 60 s after a child exited")

    monkeypatch.setattr(harness, "_trial_block", dies)
    previous = signal.signal(signal.SIGALRM, hangs)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError, match=rf"^trials {first}\.\.{last}: worker "
                           "process exited with code 1 "):
            run_experiment_spec("P1", {"d": 2}, 8, 6, ["shift"], 12, seed=5, workers=workers)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_default_workers_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert harness.default_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness.default_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness.default_workers() == 1


def check_worker_blocks(family, params, methods):
    """The records of two blocks run in a real process pool (--workers 2)
    by ``_trial_block`` equal the in-process records (--workers 1)."""
    seed, exp_index, n, K, R = 21, 1, 5, 4, 6
    master = RandomStream(seed).split(exp_index)
    instance = generate_instance(family, params, master.split(0))
    local = run_trials(instance, n, BootstrapPlan(rounds=K), methods, master.split(1), 0, R)
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        halves = [pool.submit(_trial_block, family, params, seed, exp_index, n, K, methods,
                              lo, hi)
                  for lo, hi in ((0, R // 2), (R // 2, R))]
        remote = [rec for half in halves for rec in half.result(timeout=120)]
    assert remote == local
    assert [rec.seed_path for rec in remote] == [master.split(1).split(t).path for t in range(R)]
    assert all(rec.fingerprint != 0 for rec in remote)


@pytest.mark.parametrize("family,params,methods", [
    ("P1", {"d": 3}, ["shift", "scale", "cov"]),
    ("P7", {"d": 2}, ["shift", "scale"]),
])
def test_worker_blocks_carry_lineage(family, params, methods):
    check_worker_blocks(family, params, methods)


@pytest.mark.parametrize("family,params,methods", [
    ("P2", {"d": 2}, ["shift", "scale", "cov"]),
    ("P3", {"d": 4}, ["shift", "scale", "cov"]),
    ("P4", {"d": 2}, ["shift", "scale"]),
    ("P5", {"d": 3}, ["shift", "scale"]),
    ("P6", {"d": 4}, ["shift", "scale", "cov"]),
])
def test_worker_blocks_match_for_each_euclidean_family(family, params, methods):
    check_worker_blocks(family, params, methods)


# ---------------------------------------------------------------------------
# blocks of trials


def record_bits(records):
    """Records with every float as its hex string, so -0.0 != 0.0."""
    return [(r.naive_value.hex(), {m: v.hex() for m, v in r.debiased.items()}, r.seed_path,
             r.fingerprint)
            for r in records]


def block_sizes(monkeypatch):
    """Record the number of trials of each block run_trials runs."""
    sizes = []
    inner = harness._trials

    def spy(instance, n, plan, methods, streams):  # streams[j][b]: trial b's split(j)
        assert len(streams) == 1 + len(methods)
        sizes.append(len(streams[0]))
        return inner(instance, n, plan, methods, streams)

    monkeypatch.setattr(harness, "_trials", spy)
    return sizes


@pytest.mark.parametrize("family,params,n,K,methods", [
    ("P1", {"d": 3}, 6, 5, ["shift", "scale", "cov"]),
    ("P1", {"d": 2}, 1, 3, ["shift", "scale"]),
    ("P2", {"d": 2}, 5, 4, ["shift", "scale", "cov"]),
    ("P3", {"d": 4}, 7, 6, ["shift", "scale", "cov"]),
    ("P3", {"d": 1}, 4, 3, ["shift", "scale", "cov"]),
    ("P4", {"d": 2}, 5, 5, ["shift", "scale"]),
    ("P5", {"d": 2}, 6, 2, ["shift", "scale"]),
    ("P5", {"d": 3}, 4, 7, ["shift", "scale"]),
    ("P6", {"d": 4}, 8, 5, ["shift", "scale", "cov"]),
    ("P7", {"d": 2}, 5, 6, ["shift", "scale"]),
    ("P7", {"d": 3, "m_samples": 4}, 3, 5, ["scale", "shift"]),
    # 3000 cells a trial: the default BLOCK_CELLS runs R = 7 as one block
    ("P2", {"d": 2}, 50, 60, ["shift", "scale", "cov"]),
    # a 3x3 matrix point: 9 coordinates against n = 5, so a trial is K x 9 cells
    ("P4", {"d": 3}, 5, 4, ["shift", "scale"]),
    # 30000 cells a trial: the default BLOCK_CELLS cuts R = 7 into 2 + 2 + 2 + 1
    ("P2", {"d": 2}, 150, 200, ["shift", "scale", "cov"]),
])
def test_block_size_does_not_change_records(monkeypatch, family, params, n, K, methods):
    R = 7
    master = RandomStream(31).split(2)
    instance = generate_instance(family, params, master.split(0))
    plan = BootstrapPlan(rounds=K)
    root = master.split(1)
    want = record_bits([run_trial_reference(instance, n, plan, methods, root.split(t))
                        for t in range(R)])
    assert record_bits([run_trial(instance, n, plan, methods, root.split(t))
                        for t in range(R)]) == want
    sizes = block_sizes(monkeypatch)
    assert harness.BLOCK_CELLS == 65536
    # a trial's resample cells: K x n counts or K x d resample means, and for
    # P7 the K x n and K x m_samples counts of its two clouds
    if instance.objective.paired:
        width = K * max(n, instance.params["m_samples"] or n)
    else:
        width = K * max(n, instance.truth_input.size)
    for cells in (width, 2 * width, 3 * width, R * width, 65536):
        trials = min(R, cells // width)
        sizes.clear()
        monkeypatch.setattr(harness, "BLOCK_CELLS", cells)
        assert record_bits(run_trials(instance, n, plan, methods, root, 0, R)) == want
        assert sizes == [trials] * (R // trials) + [R % trials] * (R % trials > 0)
    # blocks that start past trial 0: 2..4 and 5..6
    sizes.clear()
    monkeypatch.setattr(harness, "BLOCK_CELLS", 3 * width)
    assert record_bits(run_trials(instance, n, plan, methods, root, 2, R)) == want[2:]
    assert sizes == [3, 2]


def test_trials_past_one_word_indices_run_one_at_a_time(monkeypatch):
    # block keys cover trial indices below 2**32; a block past them runs on
    # lone streams, trial by trial, with the same records
    instance = generate_instance("P1", {"d": 2}, RandomStream(0))
    plan, methods, lo = BootstrapPlan(rounds=3), ["shift", "scale", "cov"], 2**32 - 2
    root = RandomStream(4).split(1)
    want = record_bits([run_trial_reference(instance, 4, plan, methods, root.split(t))
                        for t in range(lo, lo + 4)])
    sizes = block_sizes(monkeypatch)
    monkeypatch.setattr(harness, "BLOCK_CELLS", 2 * 3 * 4)
    assert record_bits(run_trials(instance, 4, plan, methods, root, lo, lo + 4)) == want
    assert sizes == [2, 1, 1]


def test_p7_block_size_counts_the_second_cloud(monkeypatch):
    # m_samples = 100 against n = 2 is K x 100 = 5000 count cells a trial,
    # so R = 40 runs in blocks of 13 (it ran as one block of 200000 cells);
    # the records, and so the ratios, do not depend on the block size.
    # m_samples is given as a sweep gives it, a float
    sizes = block_sizes(monkeypatch)
    summary = run_experiment_spec("P7", {"m_samples": 100.0}, 2, 50, ["shift"], 40, 0)
    assert sizes == [13, 13, 13, 1]
    assert max(sizes) * 50 * 100 <= harness.BLOCK_CELLS
    assert summary.rmse_r["shift"].hex() == (0.8569713937571535).hex()


def crafted_instance(family, params, sets, **objective_changes):
    """An instance whose trial t observes ``sets[t]``, with its objective's
    fields replaced by ``objective_changes``."""
    instance = generate_instance(family, params, RandomStream(0))

    def draw(n, streams):  # trial t samples from split(t).split(0)
        observed = [sets[s.path[-2]] for s in streams]
        if instance.objective.paired:
            return [tuple(np.asarray(c, dtype=float) for c in pair) for pair in observed]
        return np.array(observed, dtype=float)

    return dataclasses.replace(
        instance, objective=dataclasses.replace(instance.objective, **objective_changes),
        noise=NoiseModel(draw))


def domain_below(limit):
    """Objective fields for a domain that ends at x_0 = limit."""
    return {"domain_check": lambda X: np.asarray(X)[..., 0] < limit}


def p1_inf_beyond(limit):
    """Objective fields for P1 at d = 1 with F = inf beyond x = limit."""
    F = generate_instance("P1", {"d": 1}, RandomStream(0)).objective
    return {"fn": lambda x: float("inf") if x[0] > limit else F.fn(x),
            "fn_many": lambda X: np.where(X[:, 0] > limit, np.inf, F.fn_many(X))}


FINE = [[0.5], [1.0], [1.5], [2.0]]
PAIR = ([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]], [[1.0, 1.0], [0.5, 0.5], [3.0, 0.0]])

ERROR_CASES = {
    # trial 3 draws resamples at 0, outside P3's open orthant
    "p3-domain": ("P3", [FINE, FINE, FINE, [[1e-310]] * 3 + [[3.0]], FINE, FINE], {},
                  DomainError),
    # trial 3's one-hot set has entropy 0 at every resample
    "p6-degenerate-scale": ("P6", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]] * 3
                            + [[[1.0, 0.0, 0.0]] * 2] + [[[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]] * 2,
                            {}, DegenerateDenominatorError),
    # trial 2 has resample means beyond 3, where F is inf
    "p1-non-finite": ("P1", [FINE, FINE, [[0.0]] * 3 + [[8.0]], FINE, FINE, FINE],
                      p1_inf_beyond(3.0), EvaluationError),
    # trial 1 fails in scale (F = 0 everywhere), trial 2 in shift (out of the
    # domain): trial order, not method order across the block, decides
    "p1-trial-order": ("P1", [FINE, [[0.0]] * 4, [[0.0]] * 3 + [[8.0]], FINE, FINE, FINE],
                       domain_below(3.0), DegenerateDenominatorError),
    # trial 1's clouds are one point, so W2^2 is 0 at every resample and
    # scale fails; trial 2 has an atom whose costs overflow, so its naive
    # value fails while the block is built, before any method runs
    "p7-trial-order": ("P7", [PAIR, ([[1.0, 1.0]] * 3, [[1.0, 1.0]] * 3),
                              ([[0.0, 0.0], [1e200, 0.0], [1.0, 1.0]], PAIR[1]), PAIR, PAIR, PAIR],
                       {}, DegenerateDenominatorError),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_block_errors_match_per_trial_loop(monkeypatch, case):
    family, sets, changes, error = ERROR_CASES[case]
    first = np.asarray(sets[0][0] if family == "P7" else sets[0])
    instance = crafted_instance(family, {"d": first.shape[1]}, sets, **changes)
    n, K, R = len(first), 20, len(sets)
    plan = BootstrapPlan(rounds=K)
    methods = [m for m in METHODS if why_not(m, instance.objective) is None]
    root = RandomStream(3)
    with pytest.raises(error) as want:
        for t in range(R):
            run_trial_reference(instance, n, plan, methods, root.split(t))
    assert t > 0  # a trial in the middle of the block
    for trials in (1, 2, R):
        monkeypatch.setattr(harness, "BLOCK_CELLS", trials * K * n)
        with pytest.raises(error) as got:
            run_trials(instance, n, plan, methods, root, 0, R)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


ZERO, FAR = [[0.0]] * 4, [[0.0]] * 3 + [[8.0]]


@needs_fork
@pytest.mark.parametrize("failing,error", [
    ({1: ZERO}, DegenerateDenominatorError),  # the caller's block
    ({5: FAR}, DomainError),  # a child's block
    ({1: ZERO, 5: FAR}, DegenerateDenominatorError),  # the caller's error wins
    ({1: FAR, 5: ZERO}, DomainError),
    ({3: ZERO, 5: FAR}, DegenerateDenominatorError),  # the first child's at 3 workers
])
def test_worker_errors_match_one_worker(monkeypatch, failing, error):
    # R = 6 runs as 0..2 | 3..5 at 2 workers and 0..1 | 2..3 | 4..5 at 3,
    # the caller running the first block; ZERO fails in scale, FAR in shift
    sets = [failing.get(t, FINE) for t in range(6)]
    instance = crafted_instance("P1", {"d": 1}, sets, **domain_below(3.0))
    monkeypatch.setattr(harness, "generate_instance", lambda *args: instance)
    raised = []
    for workers in (1, 2, 3):
        with pytest.raises(error) as got:
            run_experiment_spec("P1", {"d": 1}, 4, 20, ["shift", "scale", "cov"], 6, seed=3,
                                workers=workers)
        raised.append((type(got.value), str(got.value)))
        assert multiprocessing.active_children() == []
    assert raised == raised[:1] * 3


def test_bench_presets():
    presets = {name: (f.n, f.K, f.methods) for name, f in FAMILIES.items()}
    all3, boot = ("shift", "scale", "cov"), ("shift", "scale")
    assert presets == {"P1": (10, 10, all3), "P2": (10, 10, all3), "P3": (10, 10, all3),
                       "P4": (10, 100, boot), "P5": (10, 100, boot), "P6": (None, 100, all3),
                       "P7": (10, 50, boot)}


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_cardinality_and_axis_values():
    summaries = run_sweep("P1", "sigma", [0.5, 1.0, 2.0], {"d": 3}, R=10, seed=1)
    assert len(summaries) == 3
    assert [s.axis_value for s in summaries] == [0.5, 1.0, 2.0]
    assert all(s.axis == "sigma" for s in summaries)


def test_sweep_invalid_axis_lists_valid():
    with pytest.raises(ContractError, match="kappa"):
        run_sweep("P1", "bogus", [1.0], {}, R=5, seed=0)


def test_sweep_k_axis():
    summaries = run_sweep("P1", "K", [4, 8], {"d": 2, "n": 6}, R=8, seed=2, methods=["shift"])
    assert [s.K for s in summaries] == [4, 8]


def test_sweep_p6_n_resolution():
    # P6's n is the swept n, not its 5 * d preset
    summaries = run_sweep("P6", "n", [6, 12], {"d": 6}, R=5, seed=3, methods=["shift"])
    assert [s.n for s in summaries] == [6, 12]
    assert all("n_ratio" not in s.params for s in summaries)


# ---------------------------------------------------------------------------
# result files


def test_emit_results_empty_rejected(tmp_path):
    with pytest.raises(ContractError, match="^emit_results needs at least one summary$"):
        emit_results([], "csv", tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


def test_emit_results_unknown_format_rejected(tmp_path):
    summaries = run_sweep("P1", "sigma", [1.0], {"d": 2}, R=2, seed=6, methods=["shift"])
    with pytest.raises(ContractError, match="^unknown format 'xml'$"):
        emit_results(summaries, "xml", tmp_path / "x.xml")
    assert not (tmp_path / "x.xml").exists()


def test_emit_plot_empty_rejected(tmp_path):
    with pytest.raises(ContractError, match="^emit_plot needs at least one summary$"):
        emit_plot([], tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


def test_csv_round_trip_bit_exact(tmp_path):
    summaries = run_sweep("P1", "sigma", [0.5, 1.0], {"d": 2}, R=10, seed=4, methods=["shift", "cov"])
    path = tmp_path / "out.csv"
    emit_results(summaries, "csv", path, header_lines=["config: {}"])
    rows = parse_results_csv(path)
    assert len(rows) == 4
    by_key = {(r["method"], r["axis_value"]): r for r in rows}
    for s in summaries:
        for m in s.methods:
            row = by_key[(m, s.axis_value)]
            assert row["rmse_r"] == s.rmse_r[m]
            assert row["bias_r"] == s.bias_r[m]
            assert row["n"] == s.n and row["K"] == s.K and row["R"] == s.R


def test_json_format(tmp_path):
    summaries = run_sweep("P1", "sigma", [1.0], {"d": 2}, R=5, seed=5, methods=["shift"])
    path = tmp_path / "out.json"
    emit_results(summaries, "json", path)
    payload = json.loads(path.read_text())
    assert payload["results"][0]["problem"] == "P1"
    assert payload["results"][0]["rmse_r"]["shift"] == summaries[0].rmse_r["shift"]


SUMMARY_KEYS = ["problem", "params", "axis", "axis_value", "n", "K", "R", "seed", "methods",
                "rmse_r", "bias_r", "debias_sq_sum", "debias_err_sum", "naive_sq_sum",
                "naive_err_sum", "mse_diff", "mse_diff_se"]


def test_summary_key_order_in_json_and_svg(tmp_path):
    # the key order is part of the output bytes
    summaries = run_sweep("P1", "sigma", [1.0], {"d": 2}, R=5, seed=5, methods=["shift"])
    assert list(summary_dict(summaries[0])) == SUMMARY_KEYS
    emit_results(summaries, "json", tmp_path / "out.json")
    emit_plot(summaries, tmp_path / "out.svg")
    meta = (tmp_path / "out.svg").read_text().split('<metadata id="debias-data">')[1]
    table = json.loads(meta.split("</metadata>")[0])
    payload = json.loads((tmp_path / "out.json").read_text())
    assert list(payload["results"][0]) == list(table[0]) == SUMMARY_KEYS
    assert payload["results"][0] == table[0] == summary_dict(summaries[0])


def test_csv_schema_header(tmp_path):
    summaries = run_sweep("P1", "sigma", [1.0], {"d": 2}, R=5, seed=6, methods=["shift"])
    path = tmp_path / "o.csv"
    emit_results(summaries, "csv", path)
    first = path.read_text().splitlines()[0]
    assert first == CSV_COLUMNS == "problem,method,axis,axis_value,n,K,R,seed,rmse_r,bias_r"


def test_svg_structure(tmp_path):
    summaries = run_sweep("P1", "sigma", [0.5, 1.0], {"d": 2}, R=5, seed=7,
                          methods=["shift", "scale", "cov"])
    path = tmp_path / "plot.svg"
    emit_plot(summaries, path)
    text = path.read_text()
    assert text.count("<polyline") == 3 * 2  # one per method per panel
    meta = text.split('<metadata id="debias-data">')[1].split("</metadata>")[0]
    table = json.loads(meta)
    assert len(table) == 2
    assert table[0]["rmse_r"]["shift"] == summaries[0].rmse_r["shift"]


def test_svg_single_summary(tmp_path):
    summaries = run_sweep("P1", "sigma", [1.0], {"d": 2}, R=5, seed=8, methods=["shift"])
    path = tmp_path / "one.svg"
    emit_plot(summaries, path)
    assert path.read_text().count("<polyline") == 2
