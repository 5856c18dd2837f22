import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import debias
from _oracles import parse_results_csv
from debias import cli, harness, transport
from debias.cli import CliParseError, main
from debias.core import DegenerateDenominatorError, UnsupportedMethodError
from debias.harness import default_workers, run_experiment_spec, run_sweep
from debias.linalg import FactorizationError
from debias.objectives import DomainError, EvaluationError
from debias.observations import ContractError
from debias.problems import FAMILIES, MAX_CELLS
from debias.transport import IterationCapError, TransportError, squared_distance_cost


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def euclid_file(tmp_path):
    return write(tmp_path / "obs.csv", "# dim=1 variant=euclidean\n0.0\n2.0\n")


def test_estimate_single_row_zero_correction(tmp_path, capsys):
    data = write(tmp_path / "one.csv", "# dim=2 variant=euclidean\n1.0,2.0\n")
    A = write(tmp_path / "A.csv", "1 0\n0 1\n")
    rc = main(["estimate", data, "--function", f"quadratic:{A}", "--method", "shift",
               "--k", "20", "--seed", "1", "--no-header"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "correction = 0.0" in out
    assert "debiased_value = 5.0" in out


def test_estimate_entropy_covariance_miller_madow(tmp_path, capsys):
    rows = ["# dim=3 variant=euclidean", "1,0,0", "0,1,0", "1,0,0", "0,0,1"]
    data = write(tmp_path / "onehot.csv", "\n".join(rows) + "\n")
    rc = main(["estimate", data, "--function", "entropy", "--method", "cov", "--no-header"])
    out = capsys.readouterr().out
    assert rc == 0
    p = np.array([0.5, 0.25, 0.25])
    expected = float(-(p * np.log(p)).sum()) + (3 - 1) / (2 * 4)
    assert f"correction = {(3 - 1) / (2 * 4)!r}" in out
    assert f"debiased_value = {expected!r}" in out


def test_estimate_json_output(tmp_path, euclid_file):
    out_path = tmp_path / "est.json"
    A = write(tmp_path / "A.csv", "1\n")
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}", "--method", "cov",
               "--no-header", "--out", str(out_path)])
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["naive_value"] == 1.0
    assert payload["correction"] == -1.0


@pytest.mark.parametrize("method", ["shift", "scale", "cov"])
def test_estimate_json_method_is_config_method(tmp_path, euclid_file, method):
    # was shift_bootstrap, scale_bootstrap or covariance beside the config's name
    out_path = tmp_path / "est.json"
    A = write(tmp_path / "A.csv", "1\n")
    assert main(["estimate", euclid_file, "--function", f"quadratic:{A}", "--method", method,
                 "--no-header", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["method"] == payload["config"]["method"] == method


def test_estimate_malformed_row_exit_2(tmp_path, capsys):
    data = write(tmp_path / "bad.csv", "# dim=2 variant=euclidean\n1.0,2.0\n1.0\n")
    rc = main(["estimate", data, "--function", "entropy"])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_estimate_missing_header_exit_2(tmp_path, capsys):
    data = write(tmp_path / "noheader.csv", "1.0,2.0\n")
    rc = main(["estimate", data, "--function", "entropy"])
    assert rc == 2


@pytest.mark.parametrize("text, message", [
    ("# dim=0 variant=euclidean\n1.0\n", "line 2: expected 0 values, got 1"),
    ("# dim=2 variant=euclidean\n\n# no rows\n", "no numeric rows"),
    ("# dim=2 variant=euclidean\n1.0,x\n", "line 2: could not convert"),
], ids=["dim 0", "no rows", "bad value"])
def test_estimate_bad_rows_exit_2(tmp_path, capsys, text, message):
    data = write(tmp_path / "obs.csv", text)
    rc = main(["estimate", data, "--function", "entropy"])
    assert rc == 2
    assert f"{data}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["estimate", "{f}", "--function", "entropy"],
    ["estimate", "{ok}", "--function", "quadratic:{f}"],
    ["transport", "--cost", "{f}"],
    ["bench", "P1", "--config", "{f}"],
])
def test_undecodable_file_exit_2(tmp_path, capsys, argv):
    # exited 1 with a UnicodeDecodeError traceback under a UTF-8 locale
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"# dim=1 variant=euclidean\n\xff\xfe\n")
    ok = write(tmp_path / "ok.csv", "# dim=1 variant=euclidean\n1.0\n")
    rc = main([a.format(f=bad, ok=ok) for a in argv])
    assert rc == 2
    assert f"{bad}: " in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--cost", "--supply"])
def test_transport_ragged_matrix_exit_2(tmp_path, capsys, option):
    files = {"--cost": write(tmp_path / "c.csv", "0 1\n1 0\n"),
             "--supply": write(tmp_path / "s.csv", "0.5\n0.5\n"),
             "--demand": write(tmp_path / "d.csv", "0.5\n0.5\n")}
    files[option] = write(tmp_path / "ragged.csv", "# ragged\n0.5, 0.25\n\n0.25\n")
    rc = main(["transport", *[x for kv in files.items() for x in kv], "--no-header"])
    assert rc == 2
    assert f"{files[option]}: line 4: expected 2 values, got 1" in capsys.readouterr().err


def test_estimate_unknown_function_exit_3(tmp_path, euclid_file):
    assert main(["estimate", euclid_file, "--function", "mystery"]) == 3


@pytest.mark.parametrize("vectors, message", [
    (["1 1\n"], "rational spec needs two vector files: rational:b.csv:c.csv"),
    (["1 1\n", "1 1\n", "1 1\n"],
     "rational spec needs two vector files: rational:b.csv:c.csv"),
    (["1 1 1\n", "1 1\n"], "rational vectors must have length 2"),
    (["1 1\n", "1\n"], "rational vectors must have length 2"),
])
def test_estimate_bad_rational_spec_exit_3(tmp_path, capsys, vectors, message):
    data = write(tmp_path / "obs.csv", "# dim=2 variant=euclidean\n1,2\n2,1\n")
    paths = [write(tmp_path / f"v{i}.csv", text) for i, text in enumerate(vectors)]
    rc = main(["estimate", data, "--function", ":".join(["rational", *paths])])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("kind, files, bad", [
    ("quadratic", ["1 0\n0 nan\n"], 0),
    ("quartic", ["1 -inf\n0 1\n"], 0),
    ("rational", ["1 1\n", "1, inf\n"], 1),
])
def test_estimate_non_finite_function_file_exit_3(tmp_path, capsys, kind, files, bad):
    data = write(tmp_path / "obs.csv", "# dim=2 variant=euclidean\n1,2\n2,1\n")
    paths = [write(tmp_path / f"f{i}.csv", text) for i, text in enumerate(files)]
    rc = main(["estimate", data, "--function", ":".join([kind, *paths]), "--method", "shift"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith(f"error: {paths[bad]}: non-finite value ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["quadratic", "quartic"])
@pytest.mark.parametrize("method", ["shift", "scale", "cov"])
def test_estimate_indefinite_matrix_exit_3(tmp_path, capsys, kind, method):
    # F = x'Ax with A = diag(1, -1) is neither convex nor positive, yet scale
    # exited 0 with debiased 0.018 against naive 0.315
    data = write(tmp_path / "obs.csv", "# dim=2 variant=euclidean\n1,0.2\n0.3,-0.5\n-0.2,0.4\n")
    A = write(tmp_path / "A.csv", "1 0\n0 -1\n")
    rc = main(["estimate", data, "--function", f"{kind}:{A}", "--method", method])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == (f"error: matrix {A} is not positive definite; "
                            f"{kind} needs an SPD matrix\n")
    assert captured.out == ""


def test_estimate_asymmetric_matrix_with_spd_part_runs(tmp_path):
    # x'Ax only sees the symmetric part (A + A')/2, which here is the identity
    data = write(tmp_path / "obs.csv", "# dim=2 variant=euclidean\n1,0.2\n0.3,-0.5\n")
    A = write(tmp_path / "A.csv", "1 3\n-3 1\n")
    assert main(["estimate", data, "--function", f"quadratic:{A}", "--no-header"]) == 0


def run_cli(args):
    """``debias`` in a fresh interpreter, whose warnings and tracebacks reach stderr."""
    src = str(Path(debias.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "debias.cli", *args], capture_output=True,
                          text=True, timeout=20, env=dict(os.environ, PYTHONPATH=src))


def test_estimate_overflowing_mean_exit_3(tmp_path):
    # finite rows whose mean overflows: exited 3 after a numpy RuntimeWarning,
    # with a message about a point class rather than the mean
    data = write(tmp_path / "big.csv", "# dim=1 variant=euclidean\n-1e308\n1e308\n")
    A = write(tmp_path / "A.csv", "1\n")
    done = run_cli(["estimate", data, "--function", f"quadratic:{A}"])
    assert done.returncode == 3, done.stderr
    assert done.stderr == "error: observation mean is not finite\n"
    assert done.stdout == ""


@pytest.mark.parametrize("command", ["bench P1 --trials 4 --workers 1",
                                     "sweep P1 --axis sigma --values 1 --trials 4 --workers 1",
                                     "estimate"])
def test_unwritable_out_exit_3(tmp_path, euclid_file, command):
    # ran every trial, then exited 1 with a FileNotFoundError traceback
    out = tmp_path / "missing" / "r.csv"
    args = command.split()
    if command == "estimate":
        A = write(tmp_path / "A.csv", "1\n")
        args += [euclid_file, "--function", f"quadratic:{A}"]
    done = run_cli([*args, "--no-header", "--out", str(out)])
    assert done.returncode == 3, done.stderr
    assert done.stderr == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("command", ["bench P1", "sweep P1 --axis sigma --values 1"])
def test_svg_out_refused_before_trials(tmp_path, capsys, command):
    # the plot overwrote the results, and the CLI printed "wrote r.svg and r.svg"
    out = tmp_path / "r.svg"
    rc = main([*command.split(), "--trials", "4", "--workers", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith(f"error: --out {out}: ")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bench P1", "sweep P1 --axis sigma --values 1"])
def test_config_format_checked_before_trials(tmp_path, capsys, command):
    # --format is checked by argparse; the config's value was checked after
    # every ratio line was printed
    cfg = write(tmp_path / "f.cfg", "format=xml\n")
    out = tmp_path / "r.csv"
    rc = main([*command.split(), "--trials", "4", "--workers", "1", "--config", cfg,
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "error: unknown format 'xml'; use csv or json\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, key, valid", [
    ("bench P1", "trails", "seed, trials, workers, n, k, method, format"),
    ("sweep P1 --axis sigma --values 1", "K", "seed, trials, workers, n, k, method, format"),
    ("estimate", "trials", "seed, k, method"),
    ("theory", "k", "seed"),
    ("transport", "seed", None),
], ids=["bench", "sweep", "estimate", "theory", "transport"])
def test_unknown_config_key_exit_2(tmp_path, euclid_file, capsys, command, key, valid):
    # bench ran its default 1000 trials and exited 0 with trails=3 in the file
    cfg = write(tmp_path / "c.cfg", f"# run\nseed=3\n{key}=3\n")
    args = command.split()
    if command == "estimate":
        args += [euclid_file, "--function", "quadratic:" + write(tmp_path / "A.csv", "1\n")]
    if command == "transport":
        # it declares no setting, so argparse refuses --config and --seed
        # (both were taken, and the seed ignored)
        args += ["--cost", write(tmp_path / "cost.csv", "0 1\n1 0\n")]
        for flag in (["--config", cfg], ["--seed", "5"]):
            with pytest.raises(SystemExit) as exc:
                main([*args, *flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        return
    if command.split()[0] in ("bench", "sweep"):
        args += ["--workers", "1", "--out", str(tmp_path / "r.csv")]
    rc = main([*args, "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {cfg}: line 3: unknown key {key!r}; valid: {valid}\n"
    assert captured.out == "" and not (tmp_path / "r.csv").exists()


def test_estimate_unknown_method_exit_3(tmp_path, euclid_file, capsys):
    A = write(tmp_path / "A.csv", "1\n")
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}", "--method", "bogus"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "bogus" in captured.err and "Traceback" not in captured.err
    assert "debiased_value" not in captured.out


def test_estimate_empirical_variant_unsupported(tmp_path, capsys):
    data = write(tmp_path / "emp.csv", "# dim=1 variant=empirical\n0.5\n")
    assert main(["estimate", data, "--function", "entropy"]) == 3


def test_estimate_numeric_failure_exit_4(tmp_path):
    # scale method on an objective that is exactly zero on this data
    data = write(tmp_path / "zero.csv", "# dim=2 variant=euclidean\n1,0\n1,0\n")
    rc = main(["estimate", data, "--function", "entropy", "--method", "scale", "--no-header"])
    assert rc == 4


def test_bench_unknown_problem_exit_3(capsys):
    rc = main(["bench", "P9", "--trials", "5"])
    assert rc == 3
    assert "P1" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--trials", "0"], ["--trials", "-3", "--workers", "2"]])
@pytest.mark.parametrize("command", [["bench", "P1"],
                                     ["sweep", "P1", "--axis", "d", "--values", "2"]])
def test_nonpositive_trials_exit_3(tmp_path, capsys, command, extra):
    out = tmp_path / "r.csv"
    rc = main(command + extra + ["--no-header", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "R must be >= 1" in err
    assert not out.exists() and not (tmp_path / "r.svg").exists()


@pytest.mark.parametrize("argv,reason", [
    (["bench", "P4", "--method", "cov", "--workers", "1"], "hessian"),
    (["bench", "P7", "--method", "cov", "--workers", "2"], "Euclidean"),
])
def test_bench_inapplicable_method_exit_3(tmp_path, capsys, argv, reason):
    out = tmp_path / "m.csv"
    rc = main(argv + ["--trials", "8", "--no-header", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert reason in err and "Traceback" not in err
    assert not out.exists()


def test_bench_writes_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "b.csv"
    rc = main(["bench", "P1", "--trials", "10", "--seed", "3", "--param", "d=3",
               "--n", "6", "--k", "5", "--out", str(out), "--workers", "1", "--no-header"])
    assert rc == 0
    assert out.exists() and (tmp_path / "b.svg").exists()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("problem,method")
    assert len(lines) == 1 + 3  # header + shift/scale/cov rows


# `debias bench P1 --trials 6 --seed 7 --param d=2 --n 5 --k 4 --no-header`
BENCH_P1_CSV = """\
problem,method,axis,axis_value,n,K,R,seed,rmse_r,bias_r
P1,shift,,,5,4,6,7,1.5868780551053976,2.2262257028330277
P1,scale,,,5,4,6,7,1.5535730157512142,1.9846769778060707
P1,cov,,,5,4,6,7,1.3869491747743476,1.7858969337248354
"""


def test_bench_json_and_svg_carry_paired_mse_difference(tmp_path):
    # the paired MSE difference and its SE are in the JSON results and the
    # SVG metadata; the CSV keeps its schema and its bytes
    argv = ["bench", "P1", "--trials", "6", "--seed", "7", "--param", "d=2", "--n", "5",
            "--k", "4", "--workers", "1", "--no-header"]
    summary = run_experiment_spec("P1", {"d": 2}, 5, 4, FAMILIES["P1"].methods, 6, seed=7)
    assert main([*argv, "--format", "json", "--out", str(tmp_path / "b.json")]) == 0
    (result,) = json.loads((tmp_path / "b.json").read_text())["results"]
    svg = (tmp_path / "b.svg").read_text()
    (meta,) = json.loads(svg.split('<metadata id="debias-data">')[1].split("</metadata>")[0])
    for written in (result, meta):
        assert written["mse_diff"] == summary.mse_diff
        assert written["mse_diff_se"] == summary.mse_diff_se
    assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_text() == BENCH_P1_CSV


def test_p6_n_rule_shared_by_sweep_and_bench(tmp_path):
    # P6 observations scale with dimension: its preset n is 5 * d
    over_d = run_sweep("P6", "d", [6, 4], {}, R=2, seed=0, methods=["shift"])
    over_alpha = run_sweep("P6", "alpha", [1.0], {"d": 6}, R=2, seed=0, methods=["shift"])
    out = tmp_path / "p6.csv"
    assert main(["bench", "P6", "--param", "d=6", "--trials", "2", "--method", "shift",
                 "--workers", "1", "--no-header", "--out", str(out)]) == 0
    bench_n = parse_results_csv(out)[0]["n"]
    assert over_d[0].n == over_alpha[0].n == bench_n == 5 * 6
    assert over_d[1].n == 5 * 4


def test_bench_seed_determinism_and_workers(tmp_path):
    a, b, c = (tmp_path / f"{x}.csv" for x in "abc")
    base = ["bench", "P1", "--trials", "12", "--seed", "7", "--param", "d=3",
            "--n", "6", "--k", "5", "--no-header"]
    assert main(base + ["--out", str(a), "--workers", "1"]) == 0
    assert main(base + ["--out", str(b), "--workers", "1"]) == 0
    assert main(base + ["--out", str(c), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_sweep_rows_per_method(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "P1", "--axis", "sigma", "--values", "0.5,1,2", "--trials", "6",
               "--seed", "2", "--param", "d=2", "--method", "shift,scale", "--out", str(out),
               "--workers", "1", "--no-header"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 * 2  # header + 3 values x 2 methods


def test_sweep_invalid_axis_exit_3(tmp_path, capsys):
    rc = main(["sweep", "P1", "--axis", "bogus", "--values", "1", "--trials", "5",
               "--workers", "1"])
    assert rc == 3
    assert "valid" in capsys.readouterr().err


def test_sweep_p5_kappa(tmp_path):
    # kappa is a P5 parameter, so it is a P5 sweep axis
    out = tmp_path / "k.csv"
    assert main(["sweep", "P5", "--axis", "kappa", "--values", "2,4", "--trials", "3",
                 "--workers", "1", "--no-header", "--out", str(out)]) == 0
    assert [r["axis_value"] for r in parse_results_csv(out)] == [2.0, 2.0, 4.0, 4.0]


@pytest.mark.parametrize("argv, name", [
    ("bench P1 --n 0", "n"),
    ("sweep P1 --axis n --values 0", "n"),
    ("bench P4 --param k_shape=0", "k_shape"),
    ("bench P4 --param kappa=0", "kappa"),
    ("bench P6 --param alpha=0", "alpha"),
    ("bench P6 --param alpha=1e-300", "alpha"),  # every gamma draw underflows to 0
    ("bench P1 --param xstar_norm2=-1", "xstar_norm2"),
    ("bench P3 --param xstar_norm2=-1", "xstar_norm2"),
    ("bench P3 --param xstar_norm2=0", "xstar_norm2"),  # exit 4: x* = 0 is off P3's domain
    ("sweep P3 --axis xstar_norm2 --values 2,0", "xstar_norm2"),
    ("bench P3 --param d=0", "d"),
    ("bench P5 --param d=0", "d"),
    ("bench P7 --param d=0", "d"),
    ("bench P7 --param m_samples=-1", "m_samples"),
    ("bench P1 --param d=2.5", "d"),  # integer parameters: ran d=2, recorded 2.5
    ("bench P5 --param p_dim=11.5", "p_dim"),
    ("bench P7 --param m_samples=0.5", "m_samples"),  # ran m_samples = n
    ("sweep P1 --axis d --values 2,2.5", "d"),
    ("sweep P1 --axis K --values 2.5", "K"),  # sweep counts: ran K=2, labelled K=2.5
    ("sweep P1 --axis n --values 3.5", "n"),  # ran n=3
    ("bench P7 --param m_samples=0", "m_samples"),  # ran m_samples = n, recorded 0
    ("bench P1 --param sigma=0", "sigma"),  # ran, with rmse_r = nan
    ("bench P2 --param sigma=-1", "sigma"),  # ran as sigma = 1 in distribution
    ("bench P5 --param sigma=0", "sigma"),
    ("bench P7 --param sigma=-1", "sigma"),
    ("bench P5 --param p_dim=0", "p_dim"),  # ran the default p_dim
    # ratio_dp set P5's p_dim until p_dim took its place: refused by name
    ("bench P5 --param ratio_dp=0", "ratio_dp"),
    ("bench P5 --param ratio_dp=1e-308", "ratio_dp"),  # round(d / ratio_dp) overflowed
    ("sweep P5 --axis p_dim --values 0,20", "p_dim"),
    ("bench P3 --param c_norm=0", "c_norm"),  # refused without naming c_norm
    ("bench P7 --param mu2_norm=-1", "mu2_norm"),  # ran with the mean mirrored
    # non-finite values: exit 4 after numpy RuntimeWarnings
    ("bench P1 --param kappa=1e999", "kappa"),
    ("sweep P1 --axis kappa --values nan", "kappa"),
    ("sweep P1 --axis kappa --values inf", "kappa"),
    ("sweep P6 --axis alpha --values 1e999", "alpha"),
    # exit 1 with a traceback while n_ratio set P6's n; now no P6 axis
    ("sweep P6 --axis n_ratio --values inf", "n_ratio"),
    # exit 1 with an OverflowError traceback
    ("bench P2 --param kappa=1e300", "kappa"),  # the truth value's square
    ("bench P2 --param xstar_norm2=1e300", "xstar_norm2"),
    ("bench P3 --param xstar_norm2=1e300", "xstar_norm2"),  # the squared-error variance
    # exit 0 with nan ratios: every naive error underflows to 0
    ("bench P1 --param sigma=1e-308", "sigma"),
    ("bench P2 --param sigma=1e-308", "sigma"),
    ("bench P5 --param sigma=1e-308", "sigma"),
    ("bench P7 --param sigma=1e-308 --seed 1", "sigma"),
    ("sweep P1 --axis sigma --values 1,1e-308", "sigma"),
    # exit 0 with ratios of rounding noise: each naive error is at most 1 ulp
    ("bench P7 --param sigma=1e-308 --seed 0", "sigma"),
    ("bench P7 --param sigma=1e-308 --seed 2", "sigma"),
    # exit 3 after numpy's overflow warning, with a message naming the costs
    ("bench P7 --param mu2_norm=1e300", "mu2_norm"),
    # n and K are sweep axes, not family parameters: ran n = 6 and K = 3,
    # while bench refuses --param n=6
    ("sweep P1 --axis sigma --values 1 --param n=6", "n"),
    ("sweep P1 --axis sigma --values 1 --param K=3", "K"),
    # exit 3 after numpy overflow warnings from the scale correction's products
    ("bench P1 --param kappa=1e300", "kappa"),
    ("bench P3 --param c_norm=1e200", "c_norm"),
    # exit 1 with an OverflowError traceback: an integer too large for a float
    pytest.param("bench P1 --param kappa=1" + "0" * 400, "kappa",
                 id="bench P1 --param kappa=10**400-kappa"),
    pytest.param("sweep P1 --axis sigma --values 1 --param kappa=-1" + "0" * 400, "kappa",
                 id="sweep P1 --axis sigma --values 1 --param kappa=-10**400-kappa"),
])
def test_bad_parameter_exit_3(tmp_path, capfd, argv, name):
    # capfd also sees the stderr of forked trial children
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(bad_parameter_args(argv, tmp_path))
    err = capfd.readouterr().err
    assert rc == 3, err
    assert [str(w.message) for w in caught] == []
    assert_names_bad_parameter(err, name)


def bad_parameter_args(argv, tmp_path):
    return [*argv.split(), "--trials", "8", "--workers", "2", "--no-header",
            "--out", str(tmp_path / "o.csv")]


def assert_names_bad_parameter(err, name):
    assert "Traceback" not in err and "Warning" not in err
    assert f"{name}=" in err or f"{name} must" in err


@pytest.mark.parametrize("argv", [
    "bench P6 --param n_ratio=5",  # P6's n is --n, or 5 * d
    "bench P5 --param ratio_dp=0.5",  # P5's p_dim is p_dim, or 2 * d
])
def test_removed_parameter_exit_3(tmp_path, capfd, argv):
    # so is sweep P6 --axis n_ratio, a case of test_bad_parameter_exit_3
    _, family, _, param = argv.split()
    rc = main(bad_parameter_args(argv, tmp_path))
    err = capfd.readouterr().err
    assert rc == 3, err
    assert err == f"error: {family} does not take {param}; valid: {sorted(FAMILIES[family].params)}\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv, name", [
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
    ("bench P1 --param d=1e300", "d x d"),
])
def test_size_above_cell_limit_exit_3(tmp_path, capfd, argv, name):
    # exited 1 with numpy's "ValueError: Maximum allowed dimension exceeded"
    # traceback; each size is one numpy refuses without allocating
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(bad_parameter_args(argv, tmp_path))
    err = capfd.readouterr().err
    assert rc == 3, err
    assert [str(w.message) for w in caught] == []
    assert err == f"error: {name} must be at most MAX_CELLS = {MAX_CELLS} cells\n"


@pytest.mark.parametrize("param, message", [
    ("bogus=3", "P1 does not take bogus=3; valid: "),
    ("sigma=nan", "sigma must be finite, got nan"),
    ("d=2.5", "d must be an integer, got 2.5"),
    ("d=0", "d must be >= 1, got 0"),
])
def test_bench_sweep_theory_refuse_a_parameter_alike(tmp_path, capfd, param, message):
    # one check of a problem's parameters serves bench, sweep and theory
    for argv in (bad_parameter_args(f"bench P1 --param {param}", tmp_path),
                 bad_parameter_args(f"sweep P1 --axis kappa --values 2 --param {param}",
                                    tmp_path),
                 ["theory", "--problem", "P1", "--param", param]):
        assert main(argv) == 3
        captured = capfd.readouterr()
        assert captured.err.startswith(f"error: {message}"), argv
        assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("trials", [10**24, 2**32 + 1])
@pytest.mark.parametrize("command", [["bench", "P1"],
                                     ["sweep", "P1", "--axis", "d", "--values", "2"]])
def test_trials_above_bound_exit_3(tmp_path, capsys, monkeypatch, command, trials):
    # 10**24 exited 1 with numpy's _UFuncInputCastingError traceback from
    # np.linspace; each count is refused before any instance is built
    monkeypatch.setattr(harness, "_lineage", lambda *args: pytest.fail("an experiment started"))
    out = tmp_path / "r.csv"
    rc = main(command + ["--trials", str(trials), "--workers", "1", "--no-header",
                         "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == f"error: R (--trials) must be at most MAX_TRIALS = 2**32, got {trials}\n"
    assert not out.exists() and captured.out == ""


@pytest.mark.parametrize("family", ["P1", "P2", "P5"])
def test_overflowing_noise_exit_4(tmp_path, capfd, family):
    # exited 4 after numpy's "overflow encountered in matmul" warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(bad_parameter_args(f"bench {family} --param sigma=1e300", tmp_path))
    err = capfd.readouterr().err
    assert rc == 4, err
    assert [str(w.message) for w in caught] == []
    assert err.startswith("numeric failure: ")
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("argv, name", [
    ("bench P6 --param alpha=1e-300", "alpha"),
    ("sweep P6 --axis n_ratio --values inf", "n_ratio"),
])
def test_bad_parameter_exit_3_from_python_m(tmp_path, argv, name):
    # the exit path of ``python -m debias.cli``, in a fresh interpreter
    done = run_cli(bad_parameter_args(argv, tmp_path))
    assert done.returncode == 3, done.stderr
    assert_names_bad_parameter(done.stderr, name)


@pytest.mark.parametrize("command", ["bench P1", "sweep P1 --axis sigma --values 1"])
@pytest.mark.parametrize("workers, source", [("0", "flag"), ("-5", "flag"), ("0", "config")])
def test_workers_below_1_exit_3(tmp_path, capsys, command, workers, source):
    # ran serially and wrote the bad value into the header and JSON config
    if source == "flag":
        extra = ["--workers", workers]
    else:
        extra = ["--config", write(tmp_path / "w.cfg", f"workers={workers}\n")]
    out = tmp_path / "o.json"
    rc = main([*command.split(), "--trials", "8", "--format", "json", "--out", str(out), *extra])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"workers must be >= 1, got {workers}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_repeated_method_exit_3(tmp_path, capfd, workers):
    # printed two shift rows, each holding the second stream's values
    out = tmp_path / "o.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["bench", "P1", "--method", "shift,shift", "--trials", "8", "--seed", "7",
                   "--workers", workers, "--no-header", "--out", str(out)])
    captured = capfd.readouterr()
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    assert captured.err == "error: P1: method 'shift' is listed more than once\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv, message", [
    # each ran the swept value and dropped the fixed one without a word
    ("--axis n --values 6 --n 5", "a sweep over n cannot also fix n=5"),
    ("--axis K --values 2,3 --k 4", "a sweep over K cannot also fix K=4"),
    ("--axis d --values 2 --param d=3", "a sweep over d cannot also fix d=3"),
    ("--axis sigma --values 0.5 --param sigma=2.5", "a sweep over sigma cannot also fix sigma=2.5"),
])
def test_sweep_axis_given_a_fixed_value_exit_3(tmp_path, capsys, argv, message):
    out = tmp_path / "o.csv"
    rc = main(["sweep", "P1", *argv.split(), "--trials", "4", "--workers", "1",
               "--no-header", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_integral_sweep_counts_kept_as_given(tmp_path):
    # 2.0 is a valid count and is written as given, like d
    out = tmp_path / "k.csv"
    assert main(["sweep", "P1", "--axis", "K", "--values", "2.0,3", "--trials", "4",
                 "--param", "d=2", "--workers", "1", "--no-header", "--out", str(out)]) == 0
    rows = parse_results_csv(out)
    assert [(r["axis_value"], r["K"]) for r in rows[::3]] == [(2.0, 2), (3.0, 3)]


def test_theory_quad1d_example(capsys):
    # x'x at x* = 0 in one dimension, quad's default d
    rc = main(["theory", "--problem", "quad", "--param", "xstar=0", "--param", "sigma=1",
               "--ck", "1", "--no-header"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sigma2 = 2.0" in out
    assert "margin_shift = 1.0" in out


# `debias theory --problem quad --d 3 --xstar 0.5 --sigma 2 --ck 3 --no-header`
# and `debias theory --problem P2 --param d=4 --sigma 2 --no-header`, as they
# printed when d, x* and sigma were flags of theory's own
THEORY_QUAD_D3 = """\
sigma1 = 12.0
sigma2 = 24.0
sigma3 = 0.0
sigma4 = 960.0
sigma4_prime = 6591.999999999996
f_star = 0.75
margin_shift = 32.66873708001009
margin_shift_alt = -11.78932768808221
margin_scale = 626.745666700049
"""
THEORY_P2_D4 = """\
sigma1 = 2597.2630318065753
sigma2 = 395.11985487380747
sigma3 = 61091.296712401396
sigma4 = 282847.6619876773
sigma4_prime = 2398522.730302519
f_star = 8.639046100945917
margin_shift = 70419.904002944
margin_shift_alt = 86952.35858128233
margin_scale = 222597.76012965033
"""


@pytest.mark.parametrize("argv, expected", [
    ("--problem quad --param d=3 --param xstar=0.5 --param sigma=2 --ck 3", THEORY_QUAD_D3),
    ("--problem P2 --param d=4 --param sigma=2", THEORY_P2_D4),
], ids=["quad", "P2"])
def test_theory_param_form_keeps_bytes(capsys, argv, expected):
    assert main(["theory", *argv.split(), "--no-header"]) == 0
    assert capsys.readouterr().out == expected


def test_theory_unknown_problem_exit_3():
    assert main(["theory", "--problem", "cubic?"]) == 3


@pytest.mark.parametrize("d", ["0", "-3"])
def test_theory_d_below_1_exit_3(d):
    # d=0 ran d=1; d=-3 reached np.eye(-3) and exited 1 with a traceback
    done = run_cli(["theory", "--problem", "quad", "--param", f"d={d}"])
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert f"d must be >= 1, got {d}" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("problem", ["quad", "P2"])
def test_theory_d_cap_before_any_array(problem):
    # exited 1 with numpy's _ArrayMemoryError: the d x d arrays were built
    # before the moment tensors' d <= 20 check
    done = run_cli(["theory", "--problem", problem, "--param", "d=100000000"])
    assert done.returncode == 3, done.stderr
    assert done.stderr == "error: moment tensors limited to d <= 20, got d=100000000\n"
    assert done.stdout == ""


@pytest.mark.parametrize("problem", ["quad", "P1", "P2", "P5"])
def test_theory_unknown_param_exit_3(capsys, problem):
    # each problem takes every parameter it declares through --param, as bench
    # does, and refuses any other key (quad --param d=5 once ran d = 1, and
    # P1 --param sigma=3 printed the bytes of sigma = 1)
    valid = sorted(cli.QUAD if problem == "quad" else FAMILIES[problem].params)
    assert main(["theory", "--problem", problem, "--param", "d=2", "--param", "bogus=3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {problem} does not take bogus=3; valid: {valid}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--d", "3"], ["--xstar", "0.5"], ["--sigma", "2"]])
def test_theory_problem_flags_removed(capsys, argv):
    # d, x* and sigma are problem parameters, given with --param
    with pytest.raises(SystemExit) as exc:
        main(["theory", *argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


def test_theory_family_header_has_no_xstar(capsys):
    assert main(["theory", "--problem", "P1", "--param", "d=3", "--param", "kappa=2.5"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    config = json.loads(header.removeprefix("# config: "))
    assert config == {"ck": 1.0, "d": 3, "params": {"d": 3, "kappa": 2.5}, "problem": "P1",
                      "sigma": 1.0}


@pytest.mark.parametrize("problem", ["quad", "P2"])
@pytest.mark.parametrize("argv, message", [
    # printed margin_shift = nan; refused as bench refuses any non-finite parameter
    pytest.param(["--param", "sigma=nan"], "sigma must be finite, got nan", id="argv0-sigma"),
    # ran as sigma = 1
    pytest.param(["--param", "sigma=-1"], "sigma must be finite and > 0, got -1.0",
                 id="argv1-sigma"),
    pytest.param(["--param", "sigma=0"], "sigma must be finite and > 0, got 0.0",
                 id="argv2-sigma"),
    pytest.param(["--ck", "nan"], "c_k must be finite and > 0, got nan", id="argv3-c_k"),
    pytest.param(["--ck", "inf"], "c_k must be finite and > 0, got inf", id="argv4-c_k"),
])
def test_theory_bad_noise_exit_3(capsys, problem, argv, message):
    assert main(["theory", "--problem", problem, *argv]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# debias.theory refuses these itself; each id is the case's name from when
# cli.py refused them, with its message of then, so the names stay put
@pytest.mark.parametrize("argv, message", [
    # exit 1 with an OverflowError traceback from sigma**2
    pytest.param(["--param", "sigma=1e300"],
                 "a moment tensor of sigma = 1e+300 is outside float64",
                 id="argv0-sigma must have a finite fourth power, got 1e+300"),
    pytest.param(["--problem", "quad", "--param", "sigma=1e300"],
                 "a moment tensor of sigma = 1e+300 is outside float64",
                 id="argv1-sigma must have a finite fourth power"),
    pytest.param(["--problem", "P1", "--param", "sigma=1e300"],
                 "a moment tensor of sigma = 1e+300 is outside float64",
                 id="argv2-sigma must have a finite fourth power"),
    # printed margins of -inf at exit 0
    pytest.param(["--problem", "P2", "--ck", "1e-308"],
                 "margin_shift = -inf at F(x*) = 7.856081866987556 and c_k = 1e-308 is outside",
                 id="argv3-c_k must leave sigma1 / c_k finite, got 1e-308"),
    # exit 0 printing margin_shift_alt = -inf
    pytest.param(["--param", "sigma=1e60"],
                 "margin_shift_alt = -inf at F(x*) = 0.0 and c_k = 1.0 is outside float64",
                 id="argv4-sigma 1e+60 at --ck 1.0 leaves a sigma or a margin outside float64"),
    # exit 1 with an OverflowError traceback from sigma2**2
    pytest.param(["--param", "sigma=1e77"], "a moment tensor of sigma = 1e+77 is outside float64",
                 id="argv5-sigma 1e+77 at --ck 1.0 leaves a sigma or a margin outside float64"),
    # exit 1 with an OverflowError traceback: an integer too large for a float,
    # refused by problems.resolve_params, which generate_instance calls too
    (["--param", "sigma=1" + "0" * 400], "sigma must fit in a float, got an integer of 401 digits"),
    (["--param", "xstar=-1" + "0" * 400], "xstar must fit in a float, got an integer of 401 digits"),
    (["--problem", "P2", "--param", "kappa=1" + "0" * 400],
     "kappa must fit in a float, got an integer of 401 digits"),
    # exit 1 with a ZeroDivisionError traceback: margin_scale's F(x*)**2 underflows to 0
    pytest.param(["--problem", "P1", "--param", "xstar_norm2=1e-308"],
                 "a sigma or a margin at F(x*) = 1.4014351453944947e-308 and c_k = 1.0 is outside",
                 id="argv9-xstar_norm2=1e-308 leaves F(x*) = "),
    pytest.param(["--param", "xstar=1e-160"],
                 "a sigma or a margin at F(x*) = 1e-320 and c_k = 1.0 is outside float64",
                 id="argv10-xstar=1e-160 leaves F(x*) = 1e-320, whose square underflows"),
])
def test_theory_overflow_exit_3(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["theory", *argv])
    captured = capsys.readouterr()
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    assert captured.err.startswith(f"error: {message}") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("xstar", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("problem", ["quad"])
def test_theory_non_finite_xstar_exit_3(capsys, problem, xstar):
    # exited 4 with "numeric failure: quadratic: non-finite value"
    assert main(["theory", "--problem", problem, "--param", f"xstar={xstar}"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: xstar must be finite, got {float(xstar)}\n"
    assert captured.out == ""


# the theory slice of the extreme-value fuzzing: zero, negative, fractional
# and over-cap counts, non-finite values, the smallest normal float, the
# values whose squares under- or overflow float64, and an integer no float holds
THEORY_VALUES = (0, -1, 0.5, 1, 33, math.nan, math.inf, -math.inf, 1e-308, 1e-160, 1e60,
                 1e77, 1e300, 10**400)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_theory_fuzz_exits_cleanly(data):
    # any of a problem's declared parameters, and --ck, at any of the values:
    # a documented exit, no numpy warning, no traceback, finite output at 0;
    # d is refused above 20 before any array is built, so no value allocates
    problem = data.draw(st.sampled_from(["quad", "P1", "P2", "P5"]))
    names = sorted(cli.QUAD if problem == "quad" else FAMILIES[problem].params) + ["--ck"]
    chosen = data.draw(st.dictionaries(st.sampled_from(names), st.sampled_from(THEORY_VALUES),
                                       max_size=3))
    argv = ["theory", "--problem", problem, "--no-header"]
    argv += [f"--ck={v!r}" if k == "--ck" else f"--param={k}={v!r}" for k, v in chosen.items()]
    rc, stdout, stderr, caught = run_quietly(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, stderr)
    assert caught == [] and "Traceback" not in stderr, (argv, caught, stderr)
    if rc == 0:
        values = [line.split(" = ")[1] for line in stdout.splitlines()]
        assert all(math.isfinite(float(v)) for v in values if v != "None"), (argv, stdout)


def test_transport_single_cell(tmp_path, capsys):
    cost = write(tmp_path / "c.csv", "4.25\n")
    rc = main(["transport", "--cost", cost, "--no-header"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value = 4.25" in out


def test_transport_with_marginals_and_oracle(tmp_path, capsys):
    cost = write(tmp_path / "c.csv", "0 1\n1 0\n")
    sup = write(tmp_path / "s.csv", "0.5\n0.5\n")
    dem = write(tmp_path / "d.csv", "0.5\n0.5\n")
    rc = main(["transport", "--cost", cost, "--supply", sup, "--demand", dem,
               "--brute-force", "--no-header"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value = 0.0" in out
    assert "brute_force_value = 0.0" in out


def test_transport_large_costs_exit_0(tmp_path, capsys):
    # squared distances of about 1e6, at which the solver used to cycle to
    # its iteration cap and exit 3
    x, y = np.random.default_rng(5).normal(size=(2, 6, 3)) * 1e3
    rows = [",".join(repr(float(c)) for c in row) for row in squared_distance_cost(x, y)]
    cost = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
    rc = main(["transport", "--cost", cost, "--brute-force", "--no-header"])
    out = capsys.readouterr().out
    assert rc == 0
    value = float(out.split("value = ")[1].split()[0])
    brute = float(out.split("brute_force_value = ")[1].split()[0])
    assert value == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("rows", ["0 1 2 3\n1 0 2 3\n2 1 0 3", "\n".join(["1 " * 8] * 8)],
                         ids=["3x4", "8x8"])
def test_transport_brute_force_preconditions_exit_3(tmp_path, capsys, rows):
    # printed value and pivots, then exited 3
    cost = write(tmp_path / "c.csv", rows + "\n")
    assert main(["transport", "--cost", cost, "--brute-force"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: brute force needs")
    assert captured.out == ""


@pytest.mark.parametrize("cost, supply, demand", [
    ("0 1\n1 0\n1 1\n", "0.5\n0.5\nnan\n", "0.5\n0.5\n"),  # printed value = 0.75, exit 0
    ("0 1\n1 0\n", "0.5\n0.5\n", "nan\n1\n"),
])
def test_transport_non_finite_marginal_exit_3(tmp_path, capsys, cost, supply, demand):
    # a nan weight was taken as 0
    cost = write(tmp_path / "c.csv", cost)
    sup, dem = write(tmp_path / "s.csv", supply), write(tmp_path / "d.csv", demand)
    assert main(["transport", "--cost", cost, "--supply", sup, "--demand", dem]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: marginal weights must be finite\n"
    assert captured.out == ""


@pytest.mark.parametrize("option", ["--supply", "--demand"])
def test_transport_one_marginal_exit_3(tmp_path, capsys, option):
    cost = write(tmp_path / "c.csv", "0 1\n1 0\n")
    marginal = write(tmp_path / "m.csv", "0.5\n0.5\n")
    assert main(["transport", "--cost", cost, option, marginal]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: --supply and --demand must be given together\n"
    assert captured.out == ""


def test_transport_unbalanced_exit_3(tmp_path):
    cost = write(tmp_path / "c.csv", "0 1\n1 0\n")
    sup = write(tmp_path / "s.csv", "0.9\n0.5\n")
    dem = write(tmp_path / "d.csv", "0.5\n0.5\n")
    assert main(["transport", "--cost", cost, "--supply", sup, "--demand", dem]) == 3


@pytest.mark.parametrize("command,supply,code", [
    ("transport", None, 4),
    ("transport", "0.9\n0.5\n", 3),  # an invalid problem is still a configuration error
    ("bench", None, 4),
])
def test_iteration_cap_exit_codes(tmp_path, capsys, monkeypatch, command, supply, code):
    # the simplex hits its iteration cap on every solve: a numeric failure
    def capped(cost, supply, demand, tol):
        m, n = cost.shape
        return np.zeros((m, n)), np.zeros(m), np.zeros(n), 1, 1234

    monkeypatch.setattr(transport, "_simplex", capped)
    if command == "transport":
        argv = ["transport", "--cost", write(tmp_path / "c.csv", "0 1\n1 0\n")]
        if supply:
            argv += ["--supply", write(tmp_path / "s.csv", supply),
                     "--demand", write(tmp_path / "d.csv", "0.5\n0.5\n")]
    else:
        argv = ["bench", "P7", "--trials", "2", "--n", "4", "--k", "3", "--workers", "1",
                "--out", str(tmp_path / "b.csv")]
    rc = main(argv + ["--no-header"])
    err = capsys.readouterr().err
    assert rc == code
    assert ("iteration cap after 1234 pivots" in err) == (code == 4)
    assert "Traceback" not in err


@pytest.mark.parametrize("error,code", [
    (CliParseError, 2),
    (EvaluationError, 4),
    (DomainError, 4),
    (DegenerateDenominatorError, 4),
    (FactorizationError, 4),
    (IterationCapError, 4),  # a TransportError, but a numeric failure
    (ContractError, 3),
    (UnsupportedMethodError, 3),
    (TransportError, 3),
])
def test_exit_code_per_error_class(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_theory", fail)
    assert main(["theory"]) == code
    err = capsys.readouterr().err
    assert err == ("numeric failure: boom\n" if code == 4 else "error: boom\n")
    assert "Traceback" not in err


def test_config_file_and_flag_override(tmp_path, euclid_file, capsys):
    A = write(tmp_path / "A.csv", "1\n")
    cfg = write(tmp_path / "cfg.ini", "seed=5\nk=40\n")
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}",
               "--method", "shift", "--config", cfg, "--no-header"])
    cfg_out = capsys.readouterr().out
    assert rc == 0
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}",
               "--method", "shift", "--seed", "5", "--k", "40", "--no-header"])
    explicit_out = capsys.readouterr().out
    assert cfg_out == explicit_out
    # an explicit flag beats the config file
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}",
               "--method", "shift", "--config", cfg, "--seed", "6", "--no-header"])
    override_out = capsys.readouterr().out
    assert override_out != cfg_out


# Every key a --config file may set, per subcommand, with a value to give as
# a flag, one to give in the file, and the value a run uses when nothing sets
# it.
SETTINGS = [
    ("estimate", "seed", 5, 6, 0),
    ("estimate", "k", 7, 8, 100),
    ("estimate", "method", "scale", "cov", "shift"),
    ("theory", "seed", 5, 6, 0),
    *[(command, key, flag, config, default)
      for command, trials, preset in (("bench", 1000, 10), ("sweep", 200, None))
      for key, flag, config, default in [
          ("seed", 5, 6, 0),
          ("trials", 5, 6, trials),
          ("workers", 2, 3, default_workers()),
          ("n", 3, 4, preset),
          ("k", 3, 4, preset),
          ("method", "scale", "cov", "shift,scale,cov"),
          ("format", "csv", "json", "csv"),
      ]],
]


@pytest.mark.parametrize("argv", [["estimate", "obs.csv", "--function", "entropy"],
                                  ["bench", "P1"], ["sweep", "P1", "--axis", "d", "--values", "2"],
                                  ["theory"], ["transport", "--cost", "c.csv"]])
def test_settings_lists_every_settable_key(argv):
    declared = cli.build_parser().parse_args(argv).settings
    assert [key for command, key, *_ in SETTINGS if command == argv[0]] == list(declared)


def _used(command, key, stdout, out):
    """The value a run used for ``key``: its results file's format, or what
    its header's config records (a sweep's n and K among the fixed axes)."""
    if key == "format":
        return "json" if out.read_text().startswith("{") else "csv"
    config = json.loads(stdout.splitlines()[0].removeprefix("# config: "))
    if command == "estimate":
        return config[key]
    field = {"trials": "R", "k": "K", "method": "methods"}.get(key, key)
    if command == "sweep" and key in ("n", "k"):
        return config["fixed"].get(field)
    return ",".join(config[field]) if key == "method" else config[field]


@pytest.mark.parametrize("given", ["nothing", "DEBIAS_SEED", "config", "flag"])
@pytest.mark.parametrize("command, key, flag, config, default", SETTINGS,
                         ids=[f"{c}-{k}" for c, k, *_ in SETTINGS])
def test_setting_precedence(tmp_path, euclid_file, capsys, monkeypatch,
                            command, key, flag, config, default, given):
    # flag > config file > the declared default; DEBIAS_SEED, once the seed's
    # fallback after the config file, is 9 in every case but "nothing" and
    # sets nothing
    out = tmp_path / "r.out"
    fast = {"trials": 4, "workers": 1} if command in ("bench", "sweep") else {}
    argv = {
        "estimate": [euclid_file, "--function", "quadratic:" + write(tmp_path / "A.csv", "1\n")],
        "theory": ["--problem", "P1", "--param", "d=2"],
        "bench": ["P1", "--param", "d=2", "--out", str(out)],
        "sweep": ["P1", "--axis", "sigma", "--values", "1", "--param", "d=2", "--out", str(out)],
    }[command]
    argv = [command, *argv, *(f"--{k}={v}" for k, v in fast.items() if k != key)]
    if given in ("config", "flag"):
        argv += ["--config", write(tmp_path / "c.cfg", f"{key}={config}\n")]
    if given == "flag":
        argv += [f"--{key}={flag}"]
    expected = {"nothing": default, "DEBIAS_SEED": default, "config": config,
                "flag": flag}[given]

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    monkeypatch.delenv("DEBIAS_SEED", raising=False)
    if command == "theory":  # its header has no seed: it must print a --seed run's sigmas
        reference = run(["theory", "--problem", "P1", "--param", "d=2", f"--seed={expected}"])
    if given != "nothing":
        monkeypatch.setenv("DEBIAS_SEED", "9")
    stdout = run(argv)
    if command == "theory":
        assert stdout == reference
    else:
        assert _used(command, key, stdout, out) == expected


@pytest.mark.parametrize("command, option, key", [
    ("estimate", "flag", "method"),
    ("estimate", "config", "method"),
    ("bench P1", "flag", "method"),
    ("bench P1", "config", "method"),
    ("bench P1", "config", "format"),  # an empty --format is not among argparse's choices
    ("sweep P1 --axis sigma --values 1", "config", "method"),
    ("sweep P1 --axis sigma --values 1", "config", "format"),
])
def test_empty_method_or_format_exit_3(tmp_path, euclid_file, capsys, command, option, key):
    # an empty value meant the default, as if none had been given
    argv = command.split()
    if command == "estimate":
        argv += [euclid_file, "--function", "quadratic:" + write(tmp_path / "A.csv", "1\n")]
    else:
        argv += ["--trials", "4", "--workers", "1", "--out", str(tmp_path / "r.csv")]
    if option == "flag":
        argv += [f"--{key}="]
    else:
        argv += ["--config", write(tmp_path / "e.cfg", f"{key}=\n")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    problem = "P1: " if key == "method" and command != "estimate" else ""  # the library's refusal
    assert captured.err.startswith(f"error: {problem}unknown {key} ''")
    assert captured.out == "" and not (tmp_path / "r.csv").exists()


def test_header_contains_config(tmp_path, euclid_file, capsys):
    A = write(tmp_path / "A.csv", "1\n")
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}", "--method", "cov"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# config:")
    assert '"method": "cov"' in out.splitlines()[0]


# ---------------------------------------------------------------------------
# extreme parameter values


@pytest.mark.parametrize("argv, message", [
    # exit 1, ValueError: array must not contain infs or NaNs, from the SPD
    # solve of F(x*), after numpy's overflow warning in P4's symmetrisation
    ("bench P4 --param kappa=1e308 --param d=2 --trials 3",
     "F(x*) is not finite at d=2, kappa=1e+308, k_shape=1.0"),
    # exit 1, OverflowError: intermediate overflow in fsum, in the shift correction
    ("bench P5 --param kappa=1e16 --param sigma=1e150 --param d=3 --trials 3",
     "P5 at d=3, p_dim=6, kappa=1e+16, sigma=1e+150: trial (0, 1, 0): method shift produced nan"),
    # exit 3 after numpy's overflow and invalid value warnings, evaluating F(x*)
    ("bench P1 --param kappa=1e150 --param xstar_norm2=1e300",
     "F(x*) is not finite at d=20, kappa=1e+150, sigma=1.0, xstar_norm2=1e+300"),
    # exit 3 after numpy's divide by zero warning: P3's Hessian where x^3 underflows
    ("bench P3 --param xstar_norm2=1e-300 --trials 5",
     "P3 at d=20, c_norm=1.0, xstar_norm2=1e-300: trial (0, 1, 0): method cov produced -inf"),
    ("bench P3 --param c_norm=1e-300 --param xstar_norm2=1e-250 --param d=1",
     "P3 at d=1, c_norm=1e-300, xstar_norm2=1e-250: trial (0, 1, 0): method cov produced -inf"),
    # exit 3 after numpy's overflow warning in the SPD matrix's symmetrisation
    ("bench P1 --param kappa=1e308 --param d=2",
     "kappa must leave the 2 x 2 SPD matrix finite, got 1e+308"),
    # exit 1, ValueError: array must not contain infs or NaNs, from P5's solve
    ("bench P5 --param kappa=1e308 --param d=1",
     "kappa must leave the 2 x 2 SPD matrix finite, got 1e+308"),
    # exit 1, OverflowError: intermediate overflow in fsum, in the scale correction
    ("bench P1 --param d=1 --param kappa=1e308 --param xstar_norm2=1e154 --method scale",
     "P1 at d=1, kappa=1e+308, sigma=1.0, xstar_norm2=1e+154: trial (0, 1, 0): "
     "method scale produced nan"),
    # exit 1, ValueError: categorical needs a probability vector summing to 1,
    # after numpy's overflow warning in the Dirichlet draw's sum
    ("bench P6 --param d=2 --param alpha=1e308",
     "dirichlet alpha=1e+308 is too large: the sum of 2 gamma draws overflows float64"),
])
def test_extreme_parameter_exit_3(tmp_path, capfd, argv, message):
    # capfd also sees the stderr of forked trial children
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*argv.split(), "--no-header", "--out", str(tmp_path / "o.csv")])
    captured = capfd.readouterr()
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


NEAR_1E154 = "# dim=1 variant=euclidean\n1.1e154\n1.2e154\n0.9e154\n1.3e154\n"


@pytest.mark.parametrize("method, data, shown", [
    # exited 1 with OverflowError: intermediate overflow in fsum
    ("shift", NEAR_1E154, "nan"),
    # printed debiased_value = nan at exit 0
    ("scale", NEAR_1E154, "nan"),
    # printed debiased_value = -inf at exit 0: the squared deviations overflow
    ("cov", "# dim=1 variant=euclidean\n-1e200\n1e200\n", "-inf"),
])
def test_estimate_non_finite_exit_4(tmp_path, capsys, method, data, shown):
    data = write(tmp_path / "big.csv", data)
    A = write(tmp_path / "A.csv", "1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["estimate", data, "--function", f"quadratic:{A}", "--method", method])
    captured = capsys.readouterr()
    assert rc == 4
    assert [str(w.message) for w in caught] == []
    assert captured.err == f"numeric failure: method {method} produced {shown}\n"
    assert captured.out == ""


# the extreme values of the grid: the largest float64s, the square-overflow
# threshold near 1e154 and the smallest normal floats, with values beside them
EXTREMES = (1e308, 1.7e308, 1e300, 1e150, 1.3e154, 1e-250, 1e-300, 1e-308)


def fuzz_grid():
    """(family, params) of the extreme-value grid: for each family, every
    pair of its parameters other than d at every two extremes, and every
    triple at the first four extremes, at d = 1, 2, 3 (P6: 2, 3) by turns;
    a fixed list, so every run checks the same cases."""
    cases = []
    for family, spec in FAMILIES.items():
        names = [name for name in spec.params if name != "d"]
        dims = (2, 3) if family == "P6" else (1, 2, 3)
        combos = [(pair, values) for pair in itertools.combinations(names, 2)
                  for values in itertools.product(EXTREMES, repeat=2)]
        combos += [(triple, values) for triple in itertools.combinations(names, 3)
                   for values in itertools.product(EXTREMES[:4], EXTREMES[4:6], EXTREMES[:2])]
        combos += [((name,), (value,)) for name in names for value in EXTREMES]
        for i, (keys, values) in enumerate(combos):
            cases.append((family, {"d": dims[i % len(dims)], **dict(zip(keys, values))}))
    return cases


def run_quietly(argv):
    """main(argv) with its warnings recorded: (exit code or the exception's
    name, stdout, stderr, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback
            rc = type(exc).__name__
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_extreme_parameter_grid(tmp_path, family):
    # 201 of the grid's 1096 cases exited 1 with a traceback, or printed
    # numpy warnings before their exit 3
    bad = []
    out = tmp_path / "o.csv"
    for fam, params in fuzz_grid():
        if fam != family:
            continue
        argv = ["bench", family, "--trials", "3", "--workers", "1", "--no-header",
                "--out", str(out)]
        argv += [tok for name, value in params.items() for tok in ("--param", f"{name}={value!r}")]
        rc, stdout, stderr, caught = run_quietly(argv)
        finite = rc != 0 or all(math.isfinite(row[key]) for row in parse_results_csv(out)
                                for key in ("rmse_r", "bias_r"))
        if rc not in (0, 2, 3, 4) or caught or "Traceback" in stderr or not finite:
            bad.append((params, rc, caught[:1], stderr[-120:]))
        out.unlink(missing_ok=True)
    assert bad == []


@pytest.mark.parametrize("method, code", [("shift", 4), ("scale", 4), ("cov", 0)])
def test_extreme_estimate_grid(tmp_path, method, code):
    data = write(tmp_path / "big.csv", NEAR_1E154)
    A = write(tmp_path / "A.csv", "1\n")
    rc, stdout, stderr, caught = run_quietly(["estimate", data, "--function", f"quadratic:{A}",
                                              "--method", method, "--no-header"])
    assert (rc, caught) == (code, [])
    assert "Traceback" not in stderr
    values = [float(line.split(" = ")[1]) for line in stdout.splitlines()]
    assert len(values) == (3 if code == 0 else 0) and all(map(math.isfinite, values))
