import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import debias
from _oracles import parse_results_csv
from debias import cli, transport
from debias.cli import CliParseError, main
from debias.core import DegenerateDenominatorError, UnsupportedMethodError
from debias.harness import run_sweep
from debias.linalg import FactorizationError
from debias.objectives import DomainError, EvaluationError
from debias.observations import ContractError
from debias.problems import FAMILIES
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


def test_estimate_malformed_row_exit_2(tmp_path, capsys):
    data = write(tmp_path / "bad.csv", "# dim=2 variant=euclidean\n1.0,2.0\n1.0\n")
    rc = main(["estimate", data, "--function", "entropy"])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_estimate_missing_header_exit_2(tmp_path, capsys):
    data = write(tmp_path / "noheader.csv", "1.0,2.0\n")
    rc = main(["estimate", data, "--function", "entropy"])
    assert rc == 2


def test_estimate_unknown_function_exit_3(tmp_path, euclid_file):
    assert main(["estimate", euclid_file, "--function", "mystery"]) == 3


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


def test_p6_n_rule_shared_by_sweep_and_bench(tmp_path):
    # P6 observations scale with dimension: n = n_ratio * d, n_ratio from the family's defaults
    over_d = run_sweep("P6", "d", [6], {}, R=2, seed=0, methods=["shift"])
    over_alpha = run_sweep("P6", "alpha", [1.0], {"d": 6}, R=2, seed=0, methods=["shift"])
    out = tmp_path / "p6.csv"
    assert main(["bench", "P6", "--param", "d=6", "--trials", "2", "--method", "shift",
                 "--workers", "1", "--no-header", "--out", str(out)]) == 0
    bench_n = parse_results_csv(out)[0]["n"]
    assert over_d[0].n == over_alpha[0].n == bench_n == FAMILIES["P6"].params["n_ratio"] * 6


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
    ("bench P6 --param n_ratio=0", "n"),
    ("sweep P1 --axis n --values 0", "n"),
    ("bench P4 --param k_shape=0", "k_shape"),
    ("bench P4 --param kappa=0", "kappa"),
    ("bench P5 --param ratio_dp=0", "ratio_dp"),
    ("bench P6 --param alpha=0", "alpha"),
    ("bench P6 --param alpha=1e-300", "alpha"),  # every gamma draw underflows to 0
    ("bench P1 --param xstar_norm2=-1", "xstar_norm2"),
    ("bench P3 --param xstar_norm2=-1", "xstar_norm2"),
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
])
def test_bad_parameter_exit_3(tmp_path, argv, name):
    src = str(Path(debias.__file__).resolve().parents[1])
    args = [*argv.split(), "--trials", "8", "--workers", "2", "--no-header",
            "--out", str(tmp_path / "o.csv")]
    done = subprocess.run([sys.executable, "-m", "debias.cli", *args], capture_output=True,
                          text=True, timeout=10, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert f"{name}=" in done.stderr or f"{name} must" in done.stderr


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


def test_integral_sweep_counts_kept_as_given(tmp_path):
    # 2.0 is a valid count and is written as given, like d
    out = tmp_path / "k.csv"
    assert main(["sweep", "P1", "--axis", "K", "--values", "2.0,3", "--trials", "4",
                 "--param", "d=2", "--workers", "1", "--no-header", "--out", str(out)]) == 0
    rows = parse_results_csv(out)
    assert [(r["axis_value"], r["K"]) for r in rows[::3]] == [(2.0, 2), (3.0, 3)]


def test_theory_quad1d_example(capsys):
    rc = main(["theory", "--problem", "quad1d", "--xstar", "0", "--sigma", "1",
               "--ck", "1", "--no-header"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sigma2 = 2.0" in out
    assert "margin_shift = 1.0" in out


def test_theory_unknown_problem_exit_3():
    assert main(["theory", "--problem", "cubic?"]) == 3


@pytest.mark.parametrize("d", ["0", "-3"])
def test_theory_d_below_1_exit_3(d):
    # --d 0 ran d=1; --d -3 reached np.eye(-3) and exited 1 with a traceback
    src = str(Path(debias.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "debias.cli", "theory", "--problem", "quad",
                           "--d", d], capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert f"d must be >= 1, got {d}" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("argv,flag", [
    (["--problem", "quad1d", "--d", "5"], "--d"),  # ran d=1
    (["--problem", "P1", "--xstar", "5"], "--xstar"),  # x* is the instance's truth
    (["--problem", "P2", "--d", "7"], "--d"),  # d is the family parameter
    (["--problem", "quad", "--param", "d=5", "--param", "bogus=3"], "--param"),  # ran d=1
    (["--problem", "quad1d", "--param", "d=2"], "--param"),
])
def test_theory_unused_flags_exit_3(argv, flag, capsys):
    assert main(["theory", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} does not apply to {argv[1]}")
    assert captured.out == ""


def test_theory_family_header_has_no_xstar(capsys):
    assert main(["theory", "--problem", "P1", "--param", "d=3"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    config = json.loads(header.removeprefix("# config: "))
    assert config == {"ck": 1.0, "d": 3, "problem": "P1", "sigma": 1.0}


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
    def fail(args, cfg):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_theory", fail)
    assert main(["theory"]) == code
    err = capsys.readouterr().err
    assert err == ("numeric failure: boom\n" if code == 4 else "error: boom\n")
    assert "Traceback" not in err


def test_seed_env_fallback(tmp_path, euclid_file, monkeypatch, capsys):
    A = write(tmp_path / "A.csv", "1\n")
    monkeypatch.setenv("DEBIAS_SEED", "123")
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}",
               "--method", "shift", "--k", "50", "--no-header"])
    env_out = capsys.readouterr().out
    assert rc == 0
    monkeypatch.delenv("DEBIAS_SEED")
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}",
               "--method", "shift", "--k", "50", "--seed", "123", "--no-header"])
    flag_out = capsys.readouterr().out
    assert env_out == flag_out


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


def test_header_contains_config(tmp_path, euclid_file, capsys):
    A = write(tmp_path / "A.csv", "1\n")
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}", "--method", "cov"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# config:")
    assert '"method": "cov"' in out.splitlines()[0]
