"""Every documented refusal, in one table, and one driver for each kind of case.

A CLI row runs ``cli.main`` in process and checks its exit code and stderr;
a library row calls the library and checks the exception it raises.  Every
run, of either kind, records no warning, and a CLI run prints no
``Traceback`` or ``Warning``.

A row's key is the id of the test it was first written as, and the table is
keyed by that test's module.  ``folded(module)`` gives the module one test a
name, parametrized over its rows, so every case keeps its id where it was;
each test module takes its own with ``globals().update(folded(...))``.  The
rows keyed by this module are the cases no earlier test held.
"""

import dataclasses
import math
import re
import warnings
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from _oracles import (crafted_pair, exact_expectation_debias, kkt_solve, moments_from_samples,
                      quadratic_form)
from debias import cli, harness
from debias.cli import main
from debias.core import (BootstrapPlan, DegenerateDenominatorError, UnsupportedMethodError,
                         _shift_correction, covariance_debias, debias, scale_debias,
                         shift_debias)
from debias.harness import (TrialRecord, _reduce_records, emit_plot, emit_results,
                            run_experiment_spec, run_sweep, run_trial, run_trials)
from debias.linalg import FactorizationError, cholesky_solve, random_orthogonal, spd_with_condition
from debias.objectives import DomainError, EvaluationError, Objective
from debias.observations import ContractError, ObservationSet, mean_observation, mixture
from debias.problems import (FAMILIES, MAX_CELLS, NoiseModel, generate_instance, p1_quadratic,
                             p2_quartic, p3_rational, p4_opt_value, p6_entropy, p7_wasserstein)
from debias.resampling import RandomStream
from debias.theory import MomentTensors, moments_gaussian, sigma_set
from debias.transport import TransportError, TransportProblem, solve_transport


class Cli(NamedTuple):
    """One ``debias`` run, or a tuple of runs that each refuse alike.

    ``argv`` is split on spaces after ``{tmp}`` becomes the test's directory.
    ``err`` (one a run, in a tuple) is stderr: the whole of it (``how`` "=="),
    its start ("^"), both after the exit's "error: " or "numeric failure: ",
    or a fragment ("in"); None checks no message.  Columns: ``files`` are
    written into ``{tmp}`` first; ``quiet``: nothing on stdout; ``no_files``:
    no file beside ``files``; ``no_trials``: no trial block runs
    (``harness.run_trials`` fails the test); ``no_instance``: no instance is
    built (``harness._lineage`` fails the test).
    """
    argv: object
    code: int
    err: object = None
    how: str = "=="
    files: dict = {}
    quiet: bool = False
    no_files: bool = False
    no_trials: bool = False
    no_instance: bool = False


class Lib(NamedTuple):
    """Calls that each raise ``error`` with a message ``match`` finds by
    ``re.search`` (a tuple: one pattern a call; None: any message), run in
    an empty directory that stays empty, with each (owner, name) of
    ``forbid`` failing the test if it is called.  An ``error`` of None: each
    call returns, and ``match`` is the repr of what it returns."""
    error: object
    match: object
    calls: tuple
    forbid: tuple = ()


def exactly(message):
    return f"^{re.escape(message)}\\Z"


def forbidden(*args, **kwargs):
    pytest.fail("a refused call ran past its refusal")


def check_cli(row, tmp_path, capfd, monkeypatch):
    for name, text in row.files.items():
        path = tmp_path / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    given = sorted(tmp_path.iterdir())
    if row.no_trials:
        monkeypatch.setattr(harness, "run_trials", forbidden)
    if row.no_instance:
        monkeypatch.setattr(harness, "_lineage", forbidden)
    argvs = (row.argv,) if isinstance(row.argv, str) else row.argv
    errs = row.err if isinstance(row.err, tuple) else (row.err,) * len(argvs)
    prefix = "numeric failure: " if row.code == 4 else "error: "
    for argv, want in zip(argvs, errs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = main(argv.replace("{tmp}", str(tmp_path)).split())
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        # capfd also sees the stderr of forked trial children
        out, err = capfd.readouterr()
        assert rc == row.code, err
        assert [str(w.message) for w in caught] == []
        assert "Traceback" not in err and "Warning" not in err
        if want is not None:
            want = want.replace("{tmp}", str(tmp_path))
            if row.how == "==":
                assert err == f"{prefix}{want}\n"
            elif row.how == "^":
                assert err.startswith(prefix + want), err
            else:
                assert want in err, err
        if row.quiet:
            assert out == ""
        if row.no_files:
            assert sorted(tmp_path.iterdir()) == given


def check_library(row, tmp_path, monkeypatch):
    for owner, name in row.forbid:
        monkeypatch.setattr(owner, name, forbidden)
    monkeypatch.chdir(tmp_path)
    matches = row.match if isinstance(row.match, tuple) else (row.match,) * len(row.calls)
    for call, match in zip(row.calls, matches):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if row.error is None:
                assert repr(call()) == match
            else:
                with pytest.raises(row.error, match=match):
                    call()
        assert [str(w.message) for w in caught] == []
    assert list(tmp_path.iterdir()) == []


def check(row, tmp_path, capfd, monkeypatch):
    if isinstance(row, Cli):
        check_cli(row, tmp_path, capfd, monkeypatch)
    else:
        check_library(row, tmp_path, monkeypatch)


def folded(module):
    """{test name: test} for the rows of ``module``: a test parametrized over
    its rows by their ids, or a plain test where a row's key has no id."""
    cases = {}
    for key, row in TABLE[module].items():
        name, _, case = key.partition("[")
        cases.setdefault(name, {})[case[:-1]] = row
    return {name: _test(rows) for name, rows in cases.items()}


def _test(rows):
    if list(rows) == [""]:
        def test(tmp_path, capfd, monkeypatch):
            check(rows[""], tmp_path, capfd, monkeypatch)
        return test

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(row, tmp_path, capfd, monkeypatch):
        check(row, tmp_path, capfd, monkeypatch)
    return test


# ---------------------------------------------------------------------------
# CLI rows

EUCLID = {"obs.csv": "# dim=1 variant=euclidean\n0.0\n2.0\n", "A.csv": "1\n"}
ESTIMATE = "estimate {tmp}/obs.csv --function quadratic:{tmp}/A.csv"
PAIRS = "# dim=2 variant=euclidean\n1,2\n2,1\n"
NEAR_1E154 = "# dim=1 variant=euclidean\n1.1e154\n1.2e154\n0.9e154\n1.3e154\n"
BENCH, SWEEP = "bench P1", "sweep P1 --axis sigma --values 1"
# test_bad_parameter_exit_3's run: 8 trials on 2 workers
EIGHT = "--trials 8 --workers 2 --no-header --out {tmp}/o.csv"


def bad(argv, name, follows):
    """test_bad_parameter_exit_3's row for ``argv``: the message names the
    parameter, followed by "=" or " must"."""
    shown = argv.replace("1" + "0" * 400, "10**400")
    row = Cli(f"{argv} {EIGHT}", 3, name + follows, "in")
    return f"test_bad_parameter_exit_3[{shown}-{name}]", row


def theory_valid(problem):
    return sorted(cli.QUAD if problem == "quad" else FAMILIES[problem].params)


CLI = {
    "test_estimate_malformed_row_exit_2": Cli(
        "estimate {tmp}/bad.csv --function entropy", 2, "line 3", "in",
        files={"bad.csv": "# dim=2 variant=euclidean\n1.0,2.0\n1.0\n"}),
    "test_estimate_missing_header_exit_2": Cli(
        "estimate {tmp}/noheader.csv --function entropy", 2, files={"noheader.csv": "1.0,2.0\n"}),
    **{f"test_estimate_bad_rows_exit_2[{case}]": Cli(
        "estimate {tmp}/obs.csv --function entropy", 2, f"{{tmp}}/obs.csv: {message}", "in",
        files={"obs.csv": text})
       for case, text, message in [
           ("dim 0", "# dim=0 variant=euclidean\n1.0\n", "line 2: expected 0 values, got 1"),
           ("no rows", "# dim=2 variant=euclidean\n\n# no rows\n", "no numeric rows"),
           ("bad value", "# dim=2 variant=euclidean\n1.0,x\n", "line 2: could not convert")]},
    # exited 1 with a UnicodeDecodeError traceback under a UTF-8 locale
    **{f"test_undecodable_file_exit_2[argv{i}]": Cli(
        argv, 2, "{tmp}/bad.bin: ", "in",
        files={"bad.bin": b"# dim=1 variant=euclidean\n\xff\xfe\n",
               "ok.csv": "# dim=1 variant=euclidean\n1.0\n"})
       for i, argv in enumerate(["estimate {tmp}/bad.bin --function entropy",
                                 "estimate {tmp}/ok.csv --function quadratic:{tmp}/bad.bin",
                                 "transport --cost {tmp}/bad.bin",
                                 "bench P1 --config {tmp}/bad.bin"])},
    **{f"test_transport_ragged_matrix_exit_2[{option}]": Cli(
        "transport --cost {tmp}/" + ("ragged" if option == "--cost" else "c")
        + ".csv --supply {tmp}/" + ("ragged" if option == "--supply" else "s")
        + ".csv --demand {tmp}/d.csv --no-header",
        2, "{tmp}/ragged.csv: line 4: expected 2 values, got 1", "in",
        files={"c.csv": "0 1\n1 0\n", "s.csv": "0.5\n0.5\n", "d.csv": "0.5\n0.5\n",
               "ragged.csv": "# ragged\n0.5, 0.25\n\n0.25\n"})
       for option in ("--cost", "--supply")},
    "test_estimate_unknown_function_exit_3": Cli(
        "estimate {tmp}/obs.csv --function mystery", 3, files=EUCLID),
    **{f"test_estimate_bad_rational_spec_exit_3[vectors{i}-{message}]": Cli(
        "estimate {tmp}/obs.csv --function rational"
        + "".join(f":{{tmp}}/v{j}.csv" for j in range(len(vectors))),
        3, message, quiet=True,
        files={"obs.csv": PAIRS, **{f"v{j}.csv": text for j, text in enumerate(vectors)}})
       for i, (vectors, message) in enumerate([
           (["1 1\n"], "rational spec needs two vector files: rational:b.csv:c.csv"),
           (["1 1\n", "1 1\n", "1 1\n"],
            "rational spec needs two vector files: rational:b.csv:c.csv"),
           (["1 1 1\n", "1 1\n"], "rational vectors must have length 2"),
           (["1 1\n", "1\n"], "rational vectors must have length 2")])},
    **{f"test_estimate_non_finite_function_file_exit_3[{kind}-files{i}-{bad_file}]": Cli(
        "estimate {tmp}/obs.csv --function " + kind
        + "".join(f":{{tmp}}/f{j}.csv" for j in range(len(texts))) + " --method shift",
        3, f"{{tmp}}/f{bad_file}.csv: non-finite value ", "^", quiet=True,
        files={"obs.csv": PAIRS, **{f"f{j}.csv": text for j, text in enumerate(texts)}})
       for i, (kind, texts, bad_file) in enumerate([("quadratic", ["1 0\n0 nan\n"], 0),
                                                    ("quartic", ["1 -inf\n0 1\n"], 0),
                                                    ("rational", ["1 1\n", "1, inf\n"], 1)])},
    # F = x'Ax with A = diag(1, -1) is neither convex nor positive, yet scale
    # exited 0 with debiased 0.018 against naive 0.315
    **{f"test_estimate_indefinite_matrix_exit_3[{method}-{kind}]": Cli(
        f"estimate {{tmp}}/obs.csv --function {kind}:{{tmp}}/A.csv --method {method}", 3,
        f"matrix {{tmp}}/A.csv is not positive definite; {kind} needs an SPD matrix", quiet=True,
        files={"obs.csv": "# dim=2 variant=euclidean\n1,0.2\n0.3,-0.5\n-0.2,0.4\n",
               "A.csv": "1 0\n0 -1\n"})
       for method in ("shift", "scale", "cov") for kind in ("quadratic", "quartic")},
    # finite rows whose mean overflows: exited 3 after a numpy RuntimeWarning,
    # with a message about a point class rather than the mean
    "test_estimate_overflowing_mean_exit_3": Cli(
        ESTIMATE, 3, "observation mean is not finite", quiet=True,
        files={**EUCLID, "obs.csv": "# dim=1 variant=euclidean\n-1e308\n1e308\n"}),
    # ran every trial, then exited 1 with a FileNotFoundError traceback
    **{f"test_unwritable_out_exit_3[{command}]": Cli(
        f"{ESTIMATE if command == 'estimate' else command} --no-header"
        " --out {tmp}/missing/r.csv",
        3, "cannot write {tmp}/missing/r.csv: No such file or directory", files=EUCLID)
       for command in (f"{BENCH} --trials 4 --workers 1", f"{SWEEP} --trials 4 --workers 1",
                       "estimate")},
    # the plot overwrote the results, and the CLI printed "wrote r.svg and r.svg"
    **{f"test_svg_out_refused_before_trials[{command}]": Cli(
        f"{command} --trials 4 --workers 1 --out {{tmp}}/r.svg", 3, "--out {tmp}/r.svg: ", "^",
        quiet=True, no_files=True, no_trials=True)
       for command in (BENCH, SWEEP)},
    # the config's format was checked after every ratio line was printed
    **{f"test_config_format_checked_before_trials[{command}]": Cli(
        f"{command} --trials 4 --workers 1 --config {{tmp}}/f.cfg --out {{tmp}}/r.csv", 3,
        "unknown format 'xml'; use csv or json", files={"f.cfg": "format=xml\n"},
        quiet=True, no_files=True, no_trials=True)
       for command in (BENCH, SWEEP)},
    # bench ran its default 1000 trials and exited 0 with trails=3 in the file
    **{f"test_unknown_config_key_exit_2[{command.split()[0]}]": Cli(
        f"{command} --config {{tmp}}/c.cfg", 2,
        f"{{tmp}}/c.cfg: line 3: unknown key {key!r}; valid: {valid}",
        files={**EUCLID, "c.cfg": f"# run\nseed=3\n{key}=3\n"}, quiet=True, no_files=True)
       for command, key, valid in [
           (f"{BENCH} --workers 1 --out {{tmp}}/r.csv", "trails",
            "seed, trials, workers, n, k, method, format"),
           (f"{SWEEP} --workers 1 --out {{tmp}}/r.csv", "K",
            "seed, trials, workers, n, k, method, format"),
           (ESTIMATE, "trials", "seed, k, method"),
           ("theory", "k", "seed")]},
    # transport declares no setting, so argparse refuses --config and --seed
    # (both were taken, and the seed ignored)
    "test_unknown_config_key_exit_2[transport]": Cli(
        ("transport --cost {tmp}/cost.csv --config {tmp}/c.cfg",
         "transport --cost {tmp}/cost.csv --seed 5"), 2,
        ("unrecognized arguments: --config {tmp}/c.cfg", "unrecognized arguments: --seed 5"),
        "in", files={"cost.csv": "0 1\n1 0\n", "c.cfg": "# run\nseed=3\nseed=3\n"}),
    "test_estimate_unknown_method_exit_3": Cli(
        f"{ESTIMATE} --method bogus", 3, "bogus", "in", files=EUCLID, quiet=True),
    "test_estimate_empirical_variant_unsupported": Cli(
        "estimate {tmp}/emp.csv --function entropy", 3,
        files={"emp.csv": "# dim=1 variant=empirical\n0.5\n"}),
    # scale method on an objective that is exactly zero on this data
    "test_estimate_numeric_failure_exit_4": Cli(
        "estimate {tmp}/zero.csv --function entropy --method scale --no-header", 4,
        files={"zero.csv": "# dim=2 variant=euclidean\n1,0\n1,0\n"}),
    "test_bench_unknown_problem_exit_3": Cli("bench P9 --trials 5", 3, "P1", "in"),
    **{f"test_nonpositive_trials_exit_3[command{c}-extra{e}]": Cli(
        f"{command} {extra} --no-header --out {{tmp}}/r.csv", 3, "R must be >= 1", "in",
        no_files=True)
       for c, command in enumerate([BENCH, "sweep P1 --axis d --values 2"])
       for e, extra in enumerate(["--trials 0", "--trials -3 --workers 2"])},
    **{f"test_bench_inapplicable_method_exit_3[argv{i}-{reason}]": Cli(
        f"{argv} --trials 8 --no-header --out {{tmp}}/m.csv", 3, reason, "in",
        no_files=True, no_trials=True)
       for i, (argv, reason) in enumerate([("bench P4 --method cov --workers 1", "hessian"),
                                           ("bench P7 --method cov --workers 2", "Euclidean")])},
    "test_sweep_invalid_axis_exit_3": Cli(
        "sweep P1 --axis bogus --values 1 --trials 5 --workers 1", 3, "valid", "in"),
    **dict([
        bad("bench P1 --n 0", "n", " must"),
        bad("sweep P1 --axis n --values 0", "n", " must"),
        bad("bench P4 --param k_shape=0", "k_shape", " must"),
        bad("bench P4 --param kappa=0", "kappa", " must"),
        bad("bench P6 --param alpha=0", "alpha", " must"),
        bad("bench P6 --param alpha=1e-300", "alpha", "="),  # every gamma draw underflows to 0
        bad("bench P1 --param xstar_norm2=-1", "xstar_norm2", " must"),
        bad("bench P3 --param xstar_norm2=-1", "xstar_norm2", " must"),
        bad("bench P3 --param xstar_norm2=0", "xstar_norm2", " must"),  # x* = 0: off P3's domain
        bad("sweep P3 --axis xstar_norm2 --values 2,0", "xstar_norm2", " must"),
        bad("bench P3 --param d=0", "d", " must"),
        bad("bench P5 --param d=0", "d", " must"),
        bad("bench P7 --param d=0", "d", " must"),
        bad("bench P7 --param m_samples=-1", "m_samples", " must"),
        bad("bench P1 --param d=2.5", "d", " must"),  # integer parameters: ran d=2, recorded 2.5
        bad("bench P5 --param p_dim=11.5", "p_dim", " must"),
        bad("bench P7 --param m_samples=0.5", "m_samples", " must"),  # ran m_samples = n
        bad("sweep P1 --axis d --values 2,2.5", "d", " must"),
        bad("sweep P1 --axis K --values 2.5", "K", " must"),  # sweep counts: ran K=2
        bad("sweep P1 --axis n --values 3.5", "n", " must"),  # ran n=3
        bad("bench P7 --param m_samples=0", "m_samples", " must"),  # ran m_samples = n
        bad("bench P1 --param sigma=0", "sigma", " must"),  # ran, with rmse_r = nan
        bad("bench P2 --param sigma=-1", "sigma", " must"),  # ran as sigma = 1 in distribution
        bad("bench P5 --param sigma=0", "sigma", " must"),
        bad("bench P7 --param sigma=-1", "sigma", " must"),
        bad("bench P5 --param p_dim=0", "p_dim", "="),  # ran the default p_dim
        # ratio_dp set P5's p_dim until p_dim took its place: refused by name
        bad("bench P5 --param ratio_dp=0", "ratio_dp", "="),
        bad("bench P5 --param ratio_dp=1e-308", "ratio_dp", "="),  # round(d / ratio_dp) overflowed
        bad("sweep P5 --axis p_dim --values 0,20", "p_dim", "="),
        bad("bench P3 --param c_norm=0", "c_norm", " must"),  # refused without naming c_norm
        bad("bench P7 --param mu2_norm=-1", "mu2_norm", " must"),  # ran with the mean mirrored
        # non-finite values: exit 4 after numpy RuntimeWarnings
        bad("bench P1 --param kappa=1e999", "kappa", " must"),
        bad("sweep P1 --axis kappa --values nan", "kappa", " must"),
        bad("sweep P1 --axis kappa --values inf", "kappa", " must"),
        bad("sweep P6 --axis alpha --values 1e999", "alpha", " must"),
        # exit 1 with a traceback while n_ratio set P6's n; now no P6 axis
        bad("sweep P6 --axis n_ratio --values inf", "n_ratio", " must"),
        # exit 1 with an OverflowError traceback
        bad("bench P2 --param kappa=1e300", "kappa", "="),  # the truth value's square
        bad("bench P2 --param xstar_norm2=1e300", "xstar_norm2", "="),
        bad("bench P3 --param xstar_norm2=1e300", "xstar_norm2", "="),  # the error's variance
        # exit 0 with nan ratios: every naive error underflows to 0
        bad("bench P1 --param sigma=1e-308", "sigma", "="),
        bad("bench P2 --param sigma=1e-308", "sigma", "="),
        bad("bench P5 --param sigma=1e-308", "sigma", "="),
        bad("bench P7 --param sigma=1e-308 --seed 1", "sigma", "="),
        bad("sweep P1 --axis sigma --values 1,1e-308", "sigma", "="),
        # exit 0 with ratios of rounding noise: each naive error is at most 1 ulp
        bad("bench P7 --param sigma=1e-308 --seed 0", "sigma", "="),
        bad("bench P7 --param sigma=1e-308 --seed 2", "sigma", "="),
        # exit 3 after numpy's overflow warning, with a message naming the costs
        bad("bench P7 --param mu2_norm=1e300", "mu2_norm", " must"),
        # n and K are sweep axes, not family parameters: ran n = 6 and K = 3,
        # while bench refuses --param n=6
        bad("sweep P1 --axis sigma --values 1 --param n=6", "n", "="),
        bad("sweep P1 --axis sigma --values 1 --param K=3", "K", "="),
        # exit 3 after numpy overflow warnings from the scale correction's products
        bad("bench P1 --param kappa=1e300", "kappa", "="),
        bad("bench P3 --param c_norm=1e200", "c_norm", "="),
        # exit 1 with an OverflowError traceback: an integer too large for a float
        bad("bench P1 --param kappa=1" + "0" * 400, "kappa", " must"),
        bad("sweep P1 --axis sigma --values 1 --param kappa=-1" + "0" * 400, "kappa", " must"),
    ]),
    # so is sweep P6 --axis n_ratio, a test_bad_parameter_exit_3 row
    **{f"test_removed_parameter_exit_3[{argv}]": Cli(
        f"{argv} {EIGHT}", 3,
        f"{argv.split()[1]} does not take {argv.split()[3]}; "
        f"valid: {sorted(FAMILIES[argv.split()[1]].params)}", no_files=True)
       for argv in ("bench P6 --param n_ratio=5",  # P6's n is --n, or 5 * d
                    "bench P5 --param ratio_dp=0.5")},  # P5's p_dim is p_dim, or 2 * d
    # exited 1 with numpy's "ValueError: Maximum allowed dimension exceeded"
    # traceback; each size is one numpy refuses without allocating
    **{f"test_size_above_cell_limit_exit_3[{argv}-{name}]": Cli(
        f"{argv} {EIGHT}", 3, f"{name} must be at most MAX_CELLS = {MAX_CELLS} cells",
        no_trials=True)
       for argv, name in [
           ("bench P1 --n 1000000000000000000000", "K x max(n, d)"),
           ("bench P1 --k 1000000000000000000000", "K x max(n, d)"),
           *[(f"sweep {family} --axis {axis} --values 1e300",
              {"n": "n x m_samples", "K": "K x max(n, m_samples)"}[axis] if family == "P7"
              else "K x max(n, d)")
             for family in sorted(FAMILIES) for axis in ("n", "K")],
           ("bench P5 --param p_dim=1e300", "p_dim x p_dim"),
           ("bench P5 --param p_dim=1e150", "p_dim x p_dim"),
           ("bench P7 --param m_samples=1e300", "n x m_samples"),
           ("bench P7 --param m_samples=1e150", "n x m_samples"),
           ("bench P1 --param d=1e300", "d x d")]},
    # one check of a problem's parameters serves bench, sweep and theory
    **{f"test_bench_sweep_theory_refuse_a_parameter_alike[{param}-{start}]": Cli(
        (f"bench P1 --param {param} {EIGHT}",
         f"sweep P1 --axis kappa --values 2 --param {param} {EIGHT}",
         f"theory --problem P1 --param {param}"), 3, start + rest, quiet=True)
       for param, start, rest in [
           ("bogus=3", "P1 does not take bogus=3; valid: ", str(theory_valid("P1"))),
           ("sigma=nan", "sigma must be finite, got nan", ""),
           ("d=2.5", "d must be an integer, got 2.5", ""),
           ("d=0", "d must be >= 1, got 0", "")]},
    # 10**24 exited 1 with numpy's _UFuncInputCastingError traceback from
    # np.linspace; each count is refused before any instance is built
    **{f"test_trials_above_bound_exit_3[command{c}-{trials}]": Cli(
        f"{command} --trials {trials} --workers 1 --no-header --out {{tmp}}/r.csv", 3,
        f"R (--trials) must be at most MAX_TRIALS = 2**32, got {trials}",
        quiet=True, no_files=True, no_trials=True, no_instance=True)
       for c, command in enumerate([BENCH, "sweep P1 --axis d --values 2"])
       for trials in (10**24, 2**32 + 1)},
    # exited 4 after numpy's "overflow encountered in matmul" warning
    **{f"test_overflowing_noise_exit_4[{family}]": Cli(
        f"bench {family} --param sigma=1e300 {EIGHT}", 4, "", "^")
       for family in ("P1", "P2", "P5")},
    # ran serially and wrote the bad value into the header and JSON config
    **{f"test_workers_below_1_exit_3[{workers}-{source}-{command}]": Cli(
        f"{command} --trials 8 --format json --out {{tmp}}/o.json "
        + ("--config {tmp}/w.cfg" if source == "config" else f"--workers {workers}"),
        3, f"workers must be >= 1, got {workers}", "in",
        files={"w.cfg": f"workers={workers}\n"} if source == "config" else {},
        no_files=True, no_trials=True)
       for workers, source in [("0", "flag"), ("-5", "flag"), ("0", "config")]
       for command in (BENCH, SWEEP)},
    # printed two shift rows, each holding the second stream's values
    **{f"test_repeated_method_exit_3[{workers}]": Cli(
        f"bench P1 --method shift,shift --trials 8 --seed 7 --workers {workers} --no-header"
        " --out {tmp}/o.csv", 3, "P1: method 'shift' is listed more than once",
        quiet=True, no_files=True, no_trials=True)
       for workers in ("1", "2")},
    # each ran the swept value and dropped the fixed one without a word
    **{f"test_sweep_axis_given_a_fixed_value_exit_3[{argv}-{message}]": Cli(
        f"sweep P1 {argv} --trials 4 --workers 1 --no-header --out {{tmp}}/o.csv", 3, message,
        quiet=True, no_files=True, no_trials=True)
       for argv, message in [
           ("--axis n --values 6 --n 5", "a sweep over n cannot also fix n=5"),
           ("--axis K --values 2,3 --k 4", "a sweep over K cannot also fix K=4"),
           ("--axis d --values 2 --param d=3", "a sweep over d cannot also fix d=3"),
           ("--axis sigma --values 0.5 --param sigma=2.5",
            "a sweep over sigma cannot also fix sigma=2.5")]},
    "test_theory_unknown_problem_exit_3": Cli("theory --problem cubic?", 3),
    # d=0 ran d=1; d=-3 reached np.eye(-3) and exited 1 with a traceback
    **{f"test_theory_d_below_1_exit_3[{d}]": Cli(
        f"theory --problem quad --param d={d}", 3, f"d must be >= 1, got {d}", "in", quiet=True)
       for d in ("0", "-3")},
    # exited 1 with numpy's _ArrayMemoryError: the d x d arrays were built
    # before the moment tensors' d <= 20 check
    **{f"test_theory_d_cap_before_any_array[{problem}]": Cli(
        f"theory --problem {problem} --param d=100000000", 3,
        "moment tensors limited to d <= 20, got d=100000000", quiet=True)
       for problem in ("quad", "P2")},
    # each problem takes every parameter it declares through --param, as bench
    # does, and refuses any other key (quad --param d=5 once ran d = 1, and
    # P1 --param sigma=3 printed the bytes of sigma = 1)
    **{f"test_theory_unknown_param_exit_3[{problem}]": Cli(
        f"theory --problem {problem} --param d=2 --param bogus=3", 3,
        f"{problem} does not take bogus=3; valid: {theory_valid(problem)}", quiet=True)
       for problem in ("quad", "P1", "P2", "P5")},
    # d, x* and sigma are problem parameters, given with --param
    **{f"test_theory_problem_flags_removed[argv{i}]": Cli(
        f"theory {argv}", 2, f"unrecognized arguments: {argv}", "in")
       for i, argv in enumerate(["--d 3", "--xstar 0.5", "--sigma 2"])},
    **{f"test_theory_bad_noise_exit_3[{case}-{problem}]": Cli(
        f"theory --problem {problem} {argv}", 3, message, quiet=True)
       for case, argv, message in [
           # printed margin_shift = nan; refused as bench refuses any non-finite parameter
           ("argv0-sigma", "--param sigma=nan", "sigma must be finite, got nan"),
           # ran as sigma = 1
           ("argv1-sigma", "--param sigma=-1", "sigma must be finite and > 0, got -1.0"),
           ("argv2-sigma", "--param sigma=0", "sigma must be finite and > 0, got 0.0"),
           ("argv3-c_k", "--ck nan", "c_k must be finite and > 0, got nan"),
           ("argv4-c_k", "--ck inf", "c_k must be finite and > 0, got inf")]
       for problem in ("quad", "P2")},
    # debias.theory refuses these itself; each id is the case's name from when
    # cli.py refused them, with its message of then, so the names stay put
    **{f"test_theory_overflow_exit_3[argv{i}-{name}]": Cli(
        f"theory {argv}", 3, message, "^", quiet=True)
       for i, (name, argv, message) in enumerate([
           # exit 1 with an OverflowError traceback from sigma**2
           ("sigma must have a finite fourth power, got 1e+300", "--param sigma=1e300",
            "a moment tensor of sigma = 1e+300 is outside float64"),
           ("sigma must have a finite fourth power", "--problem quad --param sigma=1e300",
            "a moment tensor of sigma = 1e+300 is outside float64"),
           ("sigma must have a finite fourth power", "--problem P1 --param sigma=1e300",
            "a moment tensor of sigma = 1e+300 is outside float64"),
           # printed margins of -inf at exit 0
           ("c_k must leave sigma1 / c_k finite, got 1e-308", "--problem P2 --ck 1e-308",
            "margin_shift = -inf at F(x*) = 7.856081866987556 and c_k = 1e-308 is outside"),
           # exit 0 printing margin_shift_alt = -inf
           ("sigma 1e+60 at --ck 1.0 leaves a sigma or a margin outside float64",
            "--param sigma=1e60",
            "margin_shift_alt = -inf at F(x*) = 0.0 and c_k = 1.0 is outside float64"),
           # exit 1 with an OverflowError traceback from sigma2**2
           ("sigma 1e+77 at --ck 1.0 leaves a sigma or a margin outside float64",
            "--param sigma=1e77", "a moment tensor of sigma = 1e+77 is outside float64"),
           # exit 1 with an OverflowError traceback: an integer too large for a
           # float, refused by problems.resolve_params, which generate_instance calls too
           ("sigma must fit in a float, got an integer of 401 digits",
            "--param sigma=1" + "0" * 400,
            "sigma must fit in a float, got an integer of 401 digits"),
           ("xstar must fit in a float, got an integer of 401 digits",
            "--param xstar=-1" + "0" * 400,
            "xstar must fit in a float, got an integer of 401 digits"),
           ("kappa must fit in a float, got an integer of 401 digits",
            "--problem P2 --param kappa=1" + "0" * 400,
            "kappa must fit in a float, got an integer of 401 digits"),
           # exit 1 with a ZeroDivisionError traceback: margin_scale's F(x*)**2 underflows to 0
           ("xstar_norm2=1e-308 leaves F(x*) = ", "--problem P1 --param xstar_norm2=1e-308",
            "a sigma or a margin at F(x*) = 1.4014351453944947e-308 and c_k = 1.0 is outside"),
           ("xstar=1e-160 leaves F(x*) = 1e-320, whose square underflows",
            "--param xstar=1e-160",
            "a sigma or a margin at F(x*) = 1e-320 and c_k = 1.0 is outside float64")])},
    # exited 4 with "numeric failure: quadratic: non-finite value"
    **{f"test_theory_non_finite_xstar_exit_3[quad-{xstar}]": Cli(
        f"theory --problem quad --param xstar={xstar}", 3,
        f"xstar must be finite, got {float(xstar)}", quiet=True)
       for xstar in ("nan", "inf", "-inf")},
    # printed value and pivots, then exited 3
    **{f"test_transport_brute_force_preconditions_exit_3[{case}]": Cli(
        "transport --cost {tmp}/c.csv --brute-force", 3, "brute force needs", "^",
        files={"c.csv": rows + "\n"}, quiet=True)
       for case, rows in [("3x4", "0 1 2 3\n1 0 2 3\n2 1 0 3"),
                          ("8x8", "\n".join(["1 " * 8] * 8))]},
    # a nan weight was taken as 0
    **{f"test_transport_non_finite_marginal_exit_3[{cost}-{supply}-{demand}]": Cli(
        "transport --cost {tmp}/c.csv --supply {tmp}/s.csv --demand {tmp}/d.csv", 3,
        "marginal weights must be finite", files={"c.csv": cost, "s.csv": supply, "d.csv": demand},
        quiet=True)
       for cost, supply, demand in [
           ("0 1\n1 0\n1 1\n", "0.5\n0.5\nnan\n", "0.5\n0.5\n"),  # printed value = 0.75, exit 0
           ("0 1\n1 0\n", "0.5\n0.5\n", "nan\n1\n")]},
    **{f"test_transport_one_marginal_exit_3[{option}]": Cli(
        f"transport --cost {{tmp}}/c.csv {option} {{tmp}}/m.csv", 3,
        "--supply and --demand must be given together",
        files={"c.csv": "0 1\n1 0\n", "m.csv": "0.5\n0.5\n"}, quiet=True)
       for option in ("--supply", "--demand")},
    "test_transport_unbalanced_exit_3": Cli(
        "transport --cost {tmp}/c.csv --supply {tmp}/s.csv --demand {tmp}/d.csv", 3,
        files={"c.csv": "0 1\n1 0\n", "s.csv": "0.9\n0.5\n", "d.csv": "0.5\n0.5\n"}),
    # an empty value meant the default, as if none had been given
    **{f"test_empty_method_or_format_exit_3[{command}-{option}-{key}]": Cli(
        (ESTIMATE if command == "estimate"
         else f"{command} --trials 4 --workers 1 --out {{tmp}}/r.csv")
        + (f" --{key}=" if option == "flag" else " --config {tmp}/e.cfg"), 3,
        f"{'P1: ' if key == 'method' and command != 'estimate' else ''}unknown {key} ''", "^",
        files={**EUCLID, "e.cfg": f"{key}=\n"}, quiet=True, no_files=True,
        no_trials=command != "estimate")
       for command, option, key in [
           ("estimate", "flag", "method"),
           ("estimate", "config", "method"),
           (BENCH, "flag", "method"),
           (BENCH, "config", "method"),
           (BENCH, "config", "format"),  # an empty --format is not among argparse's choices
           (SWEEP, "config", "method"),
           (SWEEP, "config", "format")]},
    **{f"test_extreme_parameter_exit_3[{argv}-{message}]": Cli(
        f"{argv} --no-header --out {{tmp}}/o.csv", 3, message, quiet=True)
       for argv, message in [
           # exit 1, ValueError: array must not contain infs or NaNs, from the SPD
           # solve of F(x*), after numpy's overflow warning in P4's symmetrisation
           ("bench P4 --param kappa=1e308 --param d=2 --trials 3",
            "F(x*) is not finite at d=2, kappa=1e+308, k_shape=1.0"),
           # exit 1, OverflowError: intermediate overflow in fsum, in the shift
           # correction, and then refused as nan; that correction is now the
           # mean of its terms, which fits, and the scale correction's sums are
           # taken rescaled, so every estimate fits, but not the squared errors
           ("bench P5 --param kappa=1e16 --param sigma=1e150 --param d=3 --trials 3",
            "P5 at n=10, K=100, d=3, p_dim=6, kappa=1e+16, sigma=1e+150: the errors overflow "
            "float64 when squared or summed"),
           # exit 3 after numpy's overflow and invalid value warnings, evaluating F(x*)
           ("bench P1 --param kappa=1e150 --param xstar_norm2=1e300",
            "F(x*) is not finite at d=20, kappa=1e+150, sigma=1.0, xstar_norm2=1e+300"),
           # exit 3 after numpy's divide by zero warning: P3's Hessian where x^3 underflows
           ("bench P3 --param xstar_norm2=1e-300 --trials 5",
            "P3 at d=20, c_norm=1.0, xstar_norm2=1e-300: trial (0, 1, 0): "
            "method cov produced -inf"),
           ("bench P3 --param c_norm=1e-300 --param xstar_norm2=1e-250 --param d=1",
            "P3 at d=1, c_norm=1e-300, xstar_norm2=1e-250: trial (0, 1, 0): "
            "method cov produced -inf"),
           # exit 3 after numpy's overflow warning in the SPD matrix's symmetrisation
           ("bench P1 --param kappa=1e308 --param d=2",
            "kappa must leave the 2 x 2 SPD matrix finite, got 1e+308"),
           # exit 1, ValueError: array must not contain infs or NaNs, from P5's solve
           ("bench P5 --param kappa=1e308 --param d=1",
            "kappa must leave the 2 x 2 SPD matrix finite, got 1e+308"),
           # exit 1, OverflowError: intermediate overflow in fsum, in the scale
           # correction, then refused as nan; its sums are now taken rescaled,
           # and noise of sigma 1 leaves x* = 1e77 as it is
           ("bench P1 --param d=1 --param kappa=1e308 --param xstar_norm2=1e154 --method scale",
            "P1 at n=10, K=10, d=1, kappa=1e+308, sigma=1.0, xstar_norm2=1e+154: the naive "
            "errors sum to 0, so every ratio is 0/0"),
           # exit 1, ValueError: categorical needs a probability vector summing to
           # 1, after numpy's overflow warning in the Dirichlet draw's sum
           ("bench P6 --param d=2 --param alpha=1e308",
            "dirichlet alpha=1e+308 is too large: the sum of 2 gamma draws overflows float64")]},
    **{f"test_estimate_non_finite_exit_4[{method}-{data}-{shown}]": Cli(
        f"{ESTIMATE} --method {method}", 4, f"method {method} produced {shown}",
        files={**EUCLID, "obs.csv": data}, quiet=True)
       for method, data, shown in [
           # scale printed debiased_value = nan at exit 0 on NEAR_1E154; it now
           # exits 0 with finite values, test_cli.test_extreme_estimate_grid[scale-0]
           # printed debiased_value = -inf at exit 0: the squared deviations overflow
           ("cov", "# dim=1 variant=euclidean\n-1e200\n1e200\n", "-inf")]},
}


# ---------------------------------------------------------------------------
# library rows


def undefined_ratios(naive, debiased):
    """The reduce of hand-made records, truth 0, of an instance named S."""
    records = [TrialRecord(nr, {"m": dr}, (t,), 0)
               for t, (nr, dr) in enumerate(zip(naive, debiased))]
    return _reduce_records(SimpleNamespace(id="S", params={}, truth_value=0.0), 5,
                           BootstrapPlan(rounds=3), ["m"], 0, records)


def quad(d, xstar=0.0):
    return p1_quadratic(np.eye(d)), np.full(d, xstar)


def family(name, params):
    inst = generate_instance(name, params, RandomStream(0))
    return inst.objective, inst.truth_input


def outside_float64(sigma, d, problem, c_k):
    F, x_star = problem
    return sigma_set(F, x_star, moments_gaussian(sigma, d), c_k)


def never_evaluated(objective):
    return dataclasses.replace(objective, fn=forbidden, fn_many=forbidden)


def wrong_kind(method, family_name, given):
    xs, ys = crafted_pair(False)
    obs = {"array": xs.points[:4], "list": xs.points[:4].tolist(), "pair": (xs, ys),
           "set": xs, "list of sets": [xs, ys], "three sets": (xs, ys, xs)}[given]
    F = p1_quadratic(np.eye(2)) if family_name == "P1" else p7_wasserstein()
    return lambda: debias(method, never_evaluated(F), obs, BootstrapPlan(rounds=5))


def wrong_kind_message(method, family_name, kind):
    if family_name == "P1":
        return ("a Euclidean objective's input is an ObservationSet (pairs of point "
                f"clouds need a paired objective); got {kind}")
    if method == "cov":  # the method's own rule refuses it first
        return "covariance needs Euclidean observations"
    return ("a paired objective's inputs are pairs of point clouds, tuples of two "
            f"ObservationSets; got {kind}")


INF = np.array([[np.inf, 0.0], [0.0, 1.0]])
# finite, but l31 = 1e300 / 1e-150 overflows, l32 = (0 - inf * 0) / 1 is nan
# and so is the last pivot
OVERFLOWING3 = np.array([[1e-300, 0.0, 1e300], [0.0, 1.0, 0.0], [1e300, 0.0, 1.0]])
# finite and SPD, but 1 / (l11 * l11) overflows: l11 = sqrt(5e-324)
SUBNORMAL_PIVOT = np.array([[5e-324, 0.0], [0.0, 1.0]])

CHOLESKY_MESSAGES = [
    (np.eye(2), np.array([1.0, np.nan]), "array must not contain infs or NaNs"),
    (INF, np.ones(2), "array must not contain infs or NaNs"),
    (np.ones((2, 3)), np.ones(2), "expected a square matrix or a stack of them, got shape (2, 3)"),
    (np.eye(2), np.ones(3), "incompatible dimensions ((2, 2) and (3,))"),
    (np.eye(2), np.ones((2, 2, 1)), "incompatible dimensions ((2, 2) and (2, 2, 1))"),
    (np.ones((4, 2, 3)), np.ones(2),
     "expected a square matrix or a stack of them, got shape (4, 2, 3)"),
    (np.ones((1, 4, 2, 2)), np.ones(2),
     "expected a square matrix or a stack of them, got shape (1, 4, 2, 2)"),
    # a stack's right-hand side is one vector
    (np.ones((4, 2, 2)), np.ones((2, 1)), "incompatible dimensions ((4, 2, 2) and (2, 1))"),
    (np.ones((4, 2, 2)), np.ones(3), "incompatible dimensions ((4, 2, 2) and (3,))"),
]


TABLE = {
    "test_cli": CLI,
    "test_harness": {
        **{f"test_undefined_ratios_refused_naming_the_experiment[naive{i}-debiased{i}-{message}]":
           Lib(ContractError, f"^S at n=5, K=3: {message}",
               (lambda naive=naive, debiased=debiased: undefined_ratios(naive, debiased),))
           for i, (naive, debiased, message) in enumerate([
               ([0.0, 0.0], [1.0, 1.0], "the naive errors sum to 0"),  # rmse_r and bias_r were nan
               ([1.0, -1.0], [1.0, 1.0], "the naive errors sum to 0"),  # bias_r was nan
               ([1e-170, 1e-170], [1.0, 1.0], "the naive errors sum to 0"),  # squares underflow
               ([1e160, 1.0], [1.0, 1.0], "the errors overflow"),  # a naive square is inf
               ([1e100, 1.0], [1.0, 1.0], "the errors overflow")])},  # the variance overflowed
        # every trial path samples its observations, and no child starts
        **{f"test_method_lists_refused_before_any_trial[{family_name}-methods{i}-{message}]": Lib(
            ContractError, exactly(f"{family_name}: {message}"),
            (lambda f=family_name, m=methods: run_trial(
                generate_instance(f, {"d": 2}, RandomStream(8)), 4, BootstrapPlan(rounds=3), m,
                RandomStream(9)),
             lambda f=family_name, m=methods: run_trials(
                 generate_instance(f, {"d": 2}, RandomStream(8)), 4, BootstrapPlan(rounds=3), m,
                 RandomStream(9), 0, 3),
             lambda f=family_name, m=methods: run_experiment_spec(f, {"d": 2}, 4, 3, m, 8, seed=9,
                                                                  workers=2)),
            forbid=((NoiseModel, "sample"), (harness, "_run_blocks")))
           for i, (family_name, methods, message) in enumerate([
               ("P1", ["bogus"], "unknown method 'bogus'; valid: shift, scale, cov"),  # KeyError
               # was AttributeError: 'EmpiricalBlock' object has no attribute 'covariance'
               ("P7", ["cov"], "covariance needs Euclidean observations"),
               # a trial keeps one value a name: both rows held the second stream's values
               ("P1", ["shift", "shift"], "method 'shift' is listed more than once"),
               ("P1", ["scale", "shift", "scale"], "method 'scale' is listed more than once")])},
        # each ran serially
        **{f"test_workers_below_1_refused[{workers}]": Lib(
            ContractError, exactly(f"workers must be >= 1, got {workers}"),
            (lambda w=workers: run_experiment_spec("P1", {}, None, None, None, 5, 1, workers=w),
             lambda w=workers: run_sweep("P1", "sigma", [0.5, 1.0], {}, 5, 1, workers=w)),
            forbid=((harness, "_lineage"),))
           for workers in (0, -3)},
        # each ran the swept values and dropped the fixed one without a word
        **{f"test_sweep_axis_also_fixed_refused[{axis}-fixed{i}-{message}]": Lib(
            ContractError, exactly(message), (lambda a=axis, f=fixed: run_sweep("P1", a, [4, 6],
                                                                                 f, 5, 1),),
            forbid=((harness, "run_experiment_spec"),))
           for i, (axis, fixed, message) in enumerate([
               ("n", {"n": 20}, "a sweep over n cannot also fix n=20"),
               ("K", {"d": 2, "K": 4}, "a sweep over K cannot also fix K=4"),
               ("sigma", {"sigma": 2.5}, "a sweep over sigma cannot also fix sigma=2.5")])},
        "test_run_experiment_validates_r": Lib(
            ContractError, "R must be >= 1",
            tuple(lambda R=R, w=workers: run_experiment_spec("P1", {"d": 2}, 8, 6, ["shift"], R,
                                                             seed=17, workers=w)
                  for R in (0, -3) for workers in (1, 2))),
        "test_sweep_invalid_axis_lists_valid": Lib(
            ContractError, "kappa", (lambda: run_sweep("P1", "bogus", [1.0], {}, R=5, seed=0),)),
        "test_emit_results_empty_rejected": Lib(
            ContractError, "^emit_results needs at least one summary$",
            (lambda: emit_results([], "csv", "x.csv"),)),
        "test_emit_results_unknown_format_rejected": Lib(
            ContractError, "^unknown format 'xml'$",
            (lambda: emit_results(run_sweep("P1", "sigma", [1.0], {"d": 2}, R=2, seed=6,
                                            methods=["shift"]), "xml", "x.xml"),)),
        "test_emit_plot_empty_rejected": Lib(
            ContractError, "^emit_plot needs at least one summary$",
            (lambda: emit_plot([], "x.svg"),)),
    },
    "test_problems": {
        "test_p3_requires_positive_coefficients": Lib(
            ContractError, None, (lambda: p3_rational(np.array([1.0, -1.0]),
                                                      np.array([1.0, 1.0])),)),
        "test_p4_rejects_non_spd": Lib(
            Exception, None,
            (lambda: p4_opt_value(np.array([1.0, 1.0])).fn(np.array([[1.0, 2.0],
                                                                     [2.0, 1.0]]).ravel()),)),
        "test_generate_instance_rejects_unknown_params": Lib(
            ContractError, None, (lambda: generate_instance("P1", {"bogus": 1}, RandomStream(0)),
                                  lambda: generate_instance("P9", {}, RandomStream(0)))),
        # raised OverflowError from math.isfinite
        "test_generate_instance_refuses_an_integer_no_float_holds": Lib(
            ContractError, "^kappa must fit in a float, got an integer of 401 digits$",
            (lambda: generate_instance("P1", {"kappa": 10**400}, RandomStream(0)),)),
        # raised ValueError: Python's int-to-str conversion stops at 4300 digits
        "test_generate_instance_refuses_an_integer_past_the_str_limit": Lib(
            ContractError, "^kappa must fit in a float, got an integer of 5001 digits$",
            (lambda: generate_instance("P1", {"kappa": 10**5000}, RandomStream(0)),)),
        # raised ValueError from formatting the value into the message
        "test_generate_instance_names_an_unknown_integer_past_the_str_limit": Lib(
            ContractError, r"^P1 does not take bogus=an integer of 5001 digits; valid: "
                           r"\['d', 'kappa', 'sigma', 'xstar_norm2'\]$",
            (lambda: generate_instance("P1", {"bogus": 10**5000}, RandomStream(0)),)),
        "test_p5_needs_enough_columns": Lib(
            ContractError, None,
            (lambda: generate_instance("P5", {"d": 10, "p_dim": 5}, RandomStream(0)),)),
        **{f"test_sweep_axes_are_parameters_n_and_K[{name}]": Lib(
            ContractError, f"valid: {re.escape(', '.join([*spec.params, 'n', 'K']))}\\Z",
            (lambda f=name: run_sweep(f, "bogus", [1.0], {}, R=1, seed=0),))
           for name, spec in sorted(FAMILIES.items())},
    },
    "test_theory": {
        # a zero, negative or non-finite sigma is no Gaussian noise level
        # (sigma = -1 used to run as 1, nan to print nan margins)
        "test_gaussian_moments_zero_sigma": Lib(
            ContractError, "sigma must be finite and > 0",
            tuple(lambda s=sigma: moments_gaussian(s, 3)
                  for sigma in (0.0, -1.0, math.nan, math.inf))),
        "test_moments_dimension_guard": Lib(
            ContractError, None, (lambda: moments_from_samples(np.zeros((10, 21)), np.zeros(21)),
                                  lambda: moments_gaussian(1.0, 21))),
        "test_sigma_psd_violation_detected": Lib(
            ContractError, None,
            (lambda: sigma_set(p1_quadratic(np.array([[1.0]])), np.array([1.0]),
                               MomentTensors(m2=-np.eye(1), m4=np.zeros((1, 1, 1, 1))), c_k=1.0),)),
        # a missing third derivative is refused as well
        "test_sigma_requires_oracles": Lib(
            ContractError, (None, "third derivative"),
            (lambda: sigma_set(Objective(fn=lambda x: float(x[0])), np.zeros(1),
                               moments_gaussian(1.0, 1), c_k=1.0),
             lambda: sigma_set(Objective(fn=p2_quartic(np.eye(1)).fn,
                                         gradient=p2_quartic(np.eye(1)).gradient,
                                         hessian=p2_quartic(np.eye(1)).hessian),
                               np.ones(1), moments_gaussian(1.0, 1), c_k=1.0))),
        # the inputs of test_theory_overflow_exit_3 that reach debias.theory, as
        # the CLI passes them (its integers past float64 are refused before, by
        # problems.resolve_params), and such integers given to the library,
        # which raised OverflowError from math.isfinite; called as a library
        # these raised ZeroDivisionError or OverflowError after a
        # RuntimeWarning, or returned margin_shift_alt = -inf
        **{f"test_results_outside_float64_refused[{case}]": Lib(
            ContractError, exactly(message),
            (lambda s=sigma, d=d, p=problem, c=c_k: outside_float64(s, d, p(), c),))
           for case, sigma, d, problem, c_k, message in [
               ("sigma-1e300", 1e300, 1, lambda: quad(1), 1.0,
                "a moment tensor of sigma = 1e+300 is outside float64"),
               ("P1-sigma-1e300", 1e300, 20, lambda: family("P1", {}), 1.0,
                "a moment tensor of sigma = 1e+300 is outside float64"),
               ("sigma-1e77", 1e77, 1, lambda: quad(1), 1.0,
                "a moment tensor of sigma = 1e+77 is outside float64"),
               ("P2-ck-1e-308", 1.0, 20, lambda: family("P2", {}), 1e-308,
                "margin_shift = -inf at F(x*) = 7.856081866987556 and c_k = 1e-308 is outside "
                "float64"),
               ("sigma-1e60", 1e60, 1, lambda: quad(1), 1.0,
                "margin_shift_alt = -inf at F(x*) = 0.0 and c_k = 1.0 is outside float64"),
               ("P1-xstar_norm2-1e-308", 1.0, 20, lambda: family("P1", {"xstar_norm2": 1e-308}),
                1.0, "a sigma or a margin at F(x*) = 1.4014351453944947e-308 and c_k = 1.0 is "
                     "outside float64"),
               ("xstar-1e-160", 1.0, 1, lambda: quad(1, 1e-160), 1.0,
                "a sigma or a margin at F(x*) = 1e-320 and c_k = 1.0 is outside float64"),
               ("sigma-int-1e400", 10**400, 1, lambda: quad(1), 1.0,
                "a moment tensor of sigma = an integer of 401 digits is outside float64"),
               # past the 4300 digits str() takes
               ("sigma-int-1e5000", 10**5000, 1, lambda: quad(1), 1.0,
                "a moment tensor of sigma = an integer of 5001 digits is outside float64")]},
    },
    "test_linalg": {
        "test_cholesky_rejects_indefinite": Lib(
            FactorizationError, None,
            (lambda: cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0])),)),
        "test_cholesky_solve_error_messages": Lib(
            ValueError, tuple(exactly(message) for _, _, message in CHOLESKY_MESSAGES),
            tuple(lambda A=A, b=b: cholesky_solve(A, b) for A, b, _ in CHOLESKY_MESSAGES)),
        "test_kkt_rank_deficient": Lib(
            FactorizationError, None,
            (lambda: kkt_solve(np.eye(3), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                               np.array([1.0, 2.0])),)),  # a repeated constraint
        "test_kkt_shape_guard": Lib(
            ContractError, None, (lambda: kkt_solve(np.eye(2), np.eye(3), np.ones(3)),)),
        "test_quadratic_form_dimension_mismatch": Lib(
            ContractError, None, (lambda: quadratic_form(np.eye(2), np.ones(3)),)),
    },
    "test_observations": {
        "test_heterogeneous_set_rejected": Lib(
            ContractError, "an \\(n, d\\) array",
            (lambda: ObservationSet.from_points([[1.0], [1.0, 2.0]]),  # ragged
             lambda: ObservationSet.from_points(np.zeros((2, 2, 2))))),
        "test_empty_set_rejected": Lib(
            ContractError, "nonempty",
            tuple(lambda e=empty: ObservationSet.from_points(e)
                  for empty in ([], [[]], np.empty((0, 3))))),
        "test_euclidean_point_requires_finite": Lib(
            ContractError, "finite", (lambda: ObservationSet.from_points([[np.nan]]),
                                      lambda: ObservationSet.from_points([[np.inf, 0.0]]))),
        "test_overflowing_mean_refused_without_warning": Lib(
            ContractError, "observation mean is not finite",
            (lambda: mean_observation(ObservationSet.from_points([[-1e308], [1e308]])),)),
        "test_mixture_contracts": Lib(
            ContractError, ("no mass", "one coefficient per observation",
                            "one coefficient per observation", "coefficients must be finite"),
            tuple(lambda c=coeffs: mixture(np.array([[1.0], [2.0]]), c)
                  for coeffs in (np.array([0.0, 0.0]), np.array([1.0]), np.ones((2, 2)) / 2,
                                 np.array([np.inf, 1.0])))),
    },
    "test_core": {
        # scale refuses an unsigned F before evaluating it
        "test_scale_rejects_unsigned_before_evaluation": Lib(
            UnsupportedMethodError, None,
            (lambda: scale_debias(Objective(fn=forbidden, sign_constraint="none"),
                                  ObservationSet.from_points([[1.0]]), BootstrapPlan(rounds=3)),)),
        "test_scale_degenerate_denominator": Lib(
            DegenerateDenominatorError, None,
            (lambda: scale_debias(Objective(fn=lambda x: 0.0, sign_constraint="positive"),
                                  ObservationSet.from_points([[1.0], [2.0]]),
                                  BootstrapPlan(rounds=5)),)),
        "test_covariance_requires_hessian": Lib(
            UnsupportedMethodError, None,
            (lambda: covariance_debias(Objective(fn=lambda x: float(x[0])),
                                       ObservationSet.from_points([[1.0], [2.0]])),)),
        "test_covariance_unbiased_needs_two": Lib(
            ContractError, None, (lambda: covariance_debias(p1_quadratic(np.array([[1.0]])),
                                                            ObservationSet.from_points([[1.0]])),)),
        "test_exact_size_guard": Lib(
            ContractError, None,
            (lambda: exact_expectation_debias(
                p1_quadratic(np.array([[1.0]])),
                ObservationSet.from_points(np.random.default_rng(10).normal(size=(30, 1))),
                "shift"),)),
        "test_exact_mode_validation": Lib(
            ContractError, None, (lambda: exact_expectation_debias(
                p1_quadratic(np.array([[1.0]])), ObservationSet.from_points([[1.0]]), "wiggle"),)),
        # the sample mean (1.0) passes; the all-twos resample does not
        "test_domain_violation_identifies_resample": Lib(
            DomainError, "resample",
            (lambda: shift_debias(Objective(fn=lambda x: float(x[0] ** 2),
                                            domain_check=lambda x: x[..., 0] < 1.9,
                                            name="guarded"),
                                  ObservationSet.from_points([[0.0], [2.0]]),
                                  BootstrapPlan(rounds=200), RandomStream(18)),)),
        "test_nonfinite_value_aborts": Lib(
            EvaluationError, "resample",
            (lambda: shift_debias(Objective(fn=lambda x: float("inf") if x[0] > 1.9 else 1.0),
                                  ObservationSet.from_points([[0.0], [2.0]]),
                                  BootstrapPlan(rounds=200), RandomStream(19)),)),
        # an ndarray given to P1 was refused with "pairs of point clouds need a
        # paired objective"; each wrong kind is now named, before F is evaluated
        **{f"test_debias_names_an_input_of_the_wrong_kind[{method}-{family_name}-{given}-{kind}]":
           Lib(UnsupportedMethodError, exactly(wrong_kind_message(method, family_name, kind)),
               (wrong_kind(method, family_name, given),))
           for method in ("shift", "scale", "cov")
           for family_name, given, kind in [
               ("P1", "array", "ndarray"),
               ("P1", "list", "list of 4: list"),
               ("P1", "pair", "tuple of 2: ObservationSet"),
               ("P7", "set", "ObservationSet"),
               ("P7", "list of sets", "list of 2: ObservationSet"),
               ("P7", "three sets", "tuple of 3: ObservationSet")]},
    },
    "test_refusals": {
        # returned [inf, 1.0]: the solution was not checked
        "test_cholesky_solve_refuses_a_non_finite_solution": Lib(
            FactorizationError, exactly("the solution is not finite"),
            (lambda: cholesky_solve(SUBNORMAL_PIVOT, np.ones(2)),)),
        "test_cholesky_solve_names_the_matrix_of_a_non_finite_solution": Lib(
            FactorizationError, exactly("the solution for matrix 1 of the stack is not finite"),
            (lambda: cholesky_solve(np.stack([np.eye(2), SUBNORMAL_PIVOT, np.eye(2)]),
                                    np.ones(2)),)),
        # was ValueError: array must not contain infs or NaNs, the message of a
        # non-finite input (a LAPACK that flags the nan pivot fails the
        # factorisation instead)
        "test_cholesky_solve_names_a_non_finite_factor": Lib(
            FactorizationError,
            "^(the Cholesky factor is not finite|matrix is not positive definite: .*)\\Z",
            (lambda: cholesky_solve(OVERFLOWING3, np.array([1.0, -2.0, 0.5])),)),
        # was nan: the fsum of the 100 terms overflows, their mean does not
        "test_shift_correction_of_a_sum_that_overflows_is_its_mean": Lib(
            None, "9e+307", (lambda: _shift_correction(0.0, np.full(100, -9e307)),)),
        **{f"test_estimate_bad_header_exit_2[{case}]": Cli(
            "estimate {tmp}/obs.csv --function entropy", 2, f"{{tmp}}/obs.csv: line 1: {message}",
            files={"obs.csv": header + "\n1.0\n"}, quiet=True)
           for case, header, message in [
               ("no fields", "# one column", "header must carry dim= and variant="),
               ("no variant", "# dim=1", "header must carry dim= and variant="),
               ("bad dim", "# dim=one variant=euclidean", "bad dim 'one'"),
               ("unknown variant", "# dim=1 variant=tabular", "unknown variant 'tabular'")]},
        **{f"test_estimate_bad_quadratic_spec_exit_3[{case}]": Cli(
            argv, 3, message, files={**EUCLID, "A2.csv": "1 0\n0 1\n"}, quiet=True)
           for case, argv, message in [
               ("no file", "estimate {tmp}/obs.csv --function quartic",
                "quartic spec needs a matrix file: quartic:A.csv"),
               ("wrong shape", "estimate {tmp}/obs.csv --function quadratic:{tmp}/A2.csv",
                "matrix {tmp}/A2.csv is (2, 2), data dimension is 1")]},
        **{f"test_bad_config_line_exit_2[{case}]": Cli(
            f"{command} --config {{tmp}}/c.cfg --no-header --out {{tmp}}/o.csv", 2, message,
            files={**EUCLID, "c.cfg": text}, quiet=True, no_files=True, no_instance=True)
           for case, command, text, message in [
               ("no equals", BENCH, "seed=1\ntrials 5\n",
                "{tmp}/c.cfg: line 2: expected key=value"),
               ("wrong type", BENCH, "trials=many\n",
                "config key trials: invalid literal for int() with base 10: 'many'"),
               ("estimate wrong type", ESTIMATE, "k=1.5\n",
                "config key k: invalid literal for int() with base 10: '1.5'")]},
        **{f"test_bad_param_token_exit_3[{command.split()[0]}-{case}]": Cli(
            f"{command} --param {token} {EIGHT}", 3, message, quiet=True, no_files=True,
            no_instance=True)
           for command in (BENCH, SWEEP)
           for case, token, message in [
               ("no equals", "sigma", "--param needs key=value, got 'sigma'"),
               ("not a number", "sigma=two", "--param sigma: cannot parse 'two' as a number")]},
        **{f"test_bad_sweep_values_exit_3[{case}]": Cli(
            f"sweep P1 --axis sigma --values {values} {EIGHT}", 3, message, quiet=True,
            no_files=True, no_instance=True)
           for case, values, message in [
               ("bad float", "1,x", "--values: could not convert string to float: 'x'"),
               ("empty", ",", "--values needs a comma-separated list")]},
        # the matrices refuse before any normal draw
        **{f"test_dimension_below_1_refused[{name}-{d}]": Lib(
            error, exactly(message), (call,), forbid=((RandomStream, "normal"),))
           for d in (0, -2)
           for name, error, call, message in [
               ("random_orthogonal", ContractError,
                lambda d=d: random_orthogonal(d, RandomStream(0)), f"d must be >= 1, got {d}"),
               ("spd_with_condition", ContractError,
                lambda d=d: spd_with_condition(d, 2.0, RandomStream(0)),
                f"d must be >= 1, got {d}"),
               ("dirichlet", ValueError, lambda d=d: RandomStream(0).dirichlet(1.0, d),
                f"dirichlet dimension must be >= 1, got {d}"),
               ("p6_entropy", ContractError, lambda d=d: p6_entropy(d + 1),
                f"entropy needs d >= 2, got {d + 1}")]},
        **{f"test_objective_settings_refused[{field}]": Lib(
            ValueError, exactly(f"bad {field} 'up'"),
            (lambda f=field: Objective(fn=forbidden, **{f: "up"}),))
           for field in ("sign_constraint", "cov_denominator")},
        "test_evaluate_batch_refuses_a_domain_check_of_the_wrong_shape": Lib(
            ContractError,
            exactly("box: domain_check gave shape (1,) for points of shape (3, 2)"),
            (lambda: Objective(fn=forbidden, fn_many=forbidden, name="box",
                               domain_check=lambda X: np.ones(1, dtype=bool)
                               ).evaluate_batch(np.zeros((3, 2))),)),
        "test_noise_sample_needs_an_observation": Lib(
            ContractError, exactly("need n >= 1 observations, got 0"),
            (lambda: NoiseModel(forbidden).sample(0, [RandomStream(0)]),)),
        # TransportProblem.build refuses such marginals as not summing to 1
        "test_transport_refuses_empty_marginals": Lib(
            TransportError, exactly("a balanced problem cannot have empty marginals"),
            tuple(lambda s=supply, t=demand: solve_transport(
                TransportProblem(np.ones((2, 2)), np.array(s), np.array(t)))
                  for supply, demand in [([0.0, 0.0], [0.5, 0.5]), ([0.5, 0.5], [0.0, 0.0])])),
    },
}

globals().update(folded("test_refusals"))
