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
from debias import cli, core, transport
from debias.cli import CliParseError, main
from debias.core import BootstrapPlan, DegenerateDenominatorError, UnsupportedMethodError
from debias.harness import default_workers, run_experiment_spec, run_sweep
from debias.linalg import FactorizationError
from debias.objectives import DomainError, EvaluationError
from debias.observations import ContractError, ObservationSet
from debias.problems import FAMILIES, p3_rational
from debias.resampling import RandomStream
from debias.transport import IterationCapError, TransportError, squared_distance_cost
from test_refusals import NEAR_1E154, folded

# this module's single-refusal cases, each under its own id, are rows of
# test_refusals.TABLE
globals().update(folded("test_cli"))


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


@pytest.mark.parametrize("method", ["shift", "scale", "cov"])
def test_estimate_rational_is_p3(tmp_path, capsys, method):
    # the rational spec's vectors, b from the first file and c from the
    # second, give the library's P3 estimate at the same seed and K
    rows = ["# dim=2 variant=euclidean", "1,2", "2,1", "0.5,1.5"]
    data = write(tmp_path / "obs.csv", "\n".join(rows) + "\n")
    b = write(tmp_path / "b.csv", "1 2\n")
    c = write(tmp_path / "c.csv", "0.5\n3\n")
    rc = main(["estimate", data, "--function", f"rational:{b}:{c}", "--method", method,
               "--k", "20", "--seed", "3", "--no-header"])
    est = core.debias(method, p3_rational(np.array([1.0, 2.0]), np.array([0.5, 3.0])),
                      ObservationSet.from_points([[1, 2], [2, 1], [0.5, 1.5]]),
                      BootstrapPlan(rounds=20), RandomStream(3))
    assert rc == 0
    assert capsys.readouterr().out == "".join(
        f"{key} = {getattr(est, key)!r}\n"
        for key in ("naive_value", "correction", "debiased_value"))


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


def test_sweep_p5_kappa(tmp_path):
    # kappa is a P5 parameter, so it is a P5 sweep axis
    out = tmp_path / "k.csv"
    assert main(["sweep", "P5", "--axis", "kappa", "--values", "2,4", "--trials", "3",
                 "--workers", "1", "--no-header", "--out", str(out)]) == 0
    assert [r["axis_value"] for r in parse_results_csv(out)] == [2.0, 2.0, 4.0, 4.0]


def bad_parameter_args(argv, tmp_path):
    return [*argv.split(), "--trials", "8", "--workers", "2", "--no-header",
            "--out", str(tmp_path / "o.csv")]


def assert_names_bad_parameter(err, name):
    assert "Traceback" not in err and "Warning" not in err
    assert f"{name}=" in err or f"{name} must" in err


@pytest.mark.parametrize("argv, name", [
    ("bench P6 --param alpha=1e-300", "alpha"),
    ("sweep P6 --axis n_ratio --values inf", "n_ratio"),
])
def test_bad_parameter_exit_3_from_python_m(tmp_path, argv, name):
    # the exit path of ``python -m debias.cli``, in a fresh interpreter
    done = run_cli(bad_parameter_args(argv, tmp_path))
    assert done.returncode == 3, done.stderr
    assert_names_bad_parameter(done.stderr, name)


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


def test_theory_family_header_has_no_xstar(capsys):
    assert main(["theory", "--problem", "P1", "--param", "d=3", "--param", "kappa=2.5"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    config = json.loads(header.removeprefix("# config: "))
    assert config == {"ck": 1.0, "d": 3, "params": {"d": 3, "kappa": 2.5}, "problem": "P1",
                      "sigma": 1.0}


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


def test_header_contains_config(tmp_path, euclid_file, capsys):
    A = write(tmp_path / "A.csv", "1\n")
    rc = main(["estimate", euclid_file, "--function", f"quadratic:{A}", "--method", "cov"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# config:")
    assert '"method": "cov"' in out.splitlines()[0]


# ---------------------------------------------------------------------------
# extreme parameter values


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


# shift's correction sum overflows, but its mean, and so the estimate, is
# finite; scale's sums overflow, but taken rescaled their ratio is finite
@pytest.mark.parametrize("method, code", [("shift", 0), ("scale", 0), ("cov", 0)])
def test_extreme_estimate_grid(tmp_path, method, code):
    data = write(tmp_path / "big.csv", NEAR_1E154)
    A = write(tmp_path / "A.csv", "1\n")
    rc, stdout, stderr, caught = run_quietly(["estimate", data, "--function", f"quadratic:{A}",
                                              "--method", method, "--no-header"])
    assert (rc, caught) == (code, [])
    assert "Traceback" not in stderr
    values = [float(line.split(" = ")[1]) for line in stdout.splitlines()]
    assert len(values) == (3 if code == 0 else 0) and all(map(math.isfinite, values))
