"""scipy is loaded only where an SPD factorisation needs it (P4 and P5),
and then only as ``import scipy`` plus a private copy of its compiled LAPACK
module ``scipy.linalg._flapack``: the ``scipy.linalg`` package stays
unloaded, ``sys.modules`` holds no ``_flapack``, and a later
``import scipy.linalg`` binds its own, with the same compiled routines. multiprocessing is
loaded only where trials run in child processes. ``debias.theory`` loads
none of the trial modules. The benchmark's span hooks resolve and fire.

Each case runs a fresh interpreter: this test process has all of these
loaded already through other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import debias

SRC = str(Path(debias.__file__).resolve().parents[1])
SPANS = Path(SRC).parent / "perfbench" / "spans.py"

SCRIPT = """
import json, sys
from debias import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = [m for m in ("scipy", "scipy.linalg", "scipy.linalg._flapack") if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def run_fresh(argvs, tmp_path):
    """Run each argv through ``cli.main`` in one new interpreter; return the
    exit codes and which of scipy, its ``linalg`` package and ``_flapack``
    ended up in ``sys.modules``."""
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    return result["codes"], result["loaded"], done.stderr


def run_script(script):
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    return done.stdout


def bench(problem, workers, tmp_path, *extra):
    return ["bench", problem, "--trials", "4", "--seed", "5", "--no-header",
            "--workers", str(workers), "--out", str(tmp_path / f"{problem}-w{workers}.csv"),
            *extra]


def test_factorisation_free_commands_leave_scipy_unloaded(tmp_path):
    cost = tmp_path / "c.csv"
    cost.write_text("0 1 4\n1 0 1\n4 1 0\n")
    argvs = [bench(p, w, tmp_path) for p in ("P1", "P6", "P7") for w in (1, 2)]
    argvs += [["transport", "--cost", str(cost), "--no-header"],
              ["theory", "--problem", "quad", "--param", "d=2", "--no-header"]]
    codes, loaded, _ = run_fresh(argvs, tmp_path)
    assert codes == [0] * len(argvs)
    assert loaded == []


def test_spd_families_load_scipy(tmp_path):
    for problem in ("P4", "P5"):
        codes, loaded, _ = run_fresh([bench(problem, 1, tmp_path), bench(problem, 2, tmp_path)],
                                     tmp_path)
        assert codes == [0, 0]
        assert loaded == ["scipy"]


def test_later_scipy_linalg_import_reuses_lapack_module(tmp_path):
    script = ("import sys, numpy as np\n"
              "from debias import cli, linalg\n"
              "from debias.linalg import cholesky_solve\n"
              f"assert cli.main({bench('P4', 1, tmp_path)!r}) == 0\n"
              f"assert cli.main({bench('P5', 1, tmp_path)!r}) == 0\n"
              "own = linalg._lapack()\n"
              "rng = np.random.default_rng(3)\n"
              "G = rng.normal(size=(7, 7))\n"
              "A = G @ G.T + np.eye(7) + np.triu(G, 1)\n"
              "b = rng.normal(size=7)\n"
              "x = cholesky_solve(A, b)\n"
              "X = cholesky_solve(A, G)\n"
              "assert 'scipy.linalg' not in sys.modules\n"
              "assert 'scipy.linalg._flapack' not in sys.modules\n"
              "import scipy.linalg\n"
              "from scipy.linalg import lapack\n"
              "assert scipy.linalg._flapack.dposv is own.dposv is lapack.dposv\n"
              "assert linalg._lapack() is scipy.linalg._flapack\n"
              "ref = scipy.linalg.cho_factor(A, lower=True)\n"
              "assert np.array_equal(x, scipy.linalg.cho_solve(ref, b))\n"
              "assert np.array_equal(X, scipy.linalg.cho_solve(ref, G))\n"
              "print('same bits')\n")
    assert run_script(script).splitlines()[-1] == "same bits"


def test_non_spd_exits_4_on_first_scipy_use(tmp_path):
    # every Gamma(1e-300) draw underflows to 0, so P4's first solve fails
    codes, loaded, err = run_fresh([bench("P4", 1, tmp_path, "--param", "k_shape=1e-300")],
                                   tmp_path)
    assert codes == [4]
    assert "not positive definite" in err
    assert loaded == ["scipy"]


def test_cholesky_solve_raises_factorization_error_on_first_use():
    script = ("import sys, numpy as np\n"
              "from debias.linalg import FactorizationError, cholesky_solve\n"
              "assert 'scipy' not in sys.modules\n"
              "try:\n"
              "    cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))\n"
              "except FactorizationError as exc:\n"
              "    print(exc)\n")
    assert "not positive definite" in run_script(script)


def test_process_modules_load_only_for_parallel_trials():
    # multiprocessing is imported where a run forks its children, so a
    # one-worker run does not pay for it at start-up
    script = ("import sys\n"
              "from debias import harness\n"
              "loaded = lambda: [m for m in ('multiprocessing', 'concurrent.futures')\n"
              "                  if m in sys.modules]\n"
              "print(loaded())\n"
              "harness.run_experiment_spec('P1', {'d': 2}, 4, 3, ['shift'], 4, seed=1)\n"
              "print(loaded())\n"
              "harness.run_experiment_spec('P1', {'d': 2}, 4, 3, ['shift'], 4, seed=1, workers=2)\n"
              "print(loaded())\n")
    assert run_script(script).splitlines() == ["[]", "[]", "['multiprocessing']"]


def test_theory_loads_no_trial_modules():
    # theory is the math of the conditions; the Monte Carlo check of them is
    # the harness's reduce, so importing theory runs through no trial code
    script = ("import sys\n"
              "import debias.theory\n"
              "print([m for m in ('debias.harness', 'debias.core', 'debias.problems',\n"
              "                   'debias.resampling') if m in sys.modules])\n")
    assert run_script(script).splitlines() == ["[]"]


def test_benchmark_span_hooks_resolve_and_fire():
    # perfbench/spans.py times a layer by replacing the attribute its caller
    # looks up (HOOKS); a target that is gone drops the layer's metrics, and
    # one the trials no longer call through reads 0 (sampling and stream
    # set-up are the layers trial blocks batch).  Stream set-up fires once
    # per stream that draws: a P1 trial's sample, shift and scale streams
    script = ("import importlib.util, json\n"
              f"spec = importlib.util.spec_from_file_location('spans', {str(SPANS)!r})\n"
              "spans = importlib.util.module_from_spec(spec)\n"
              "spec.loader.exec_module(spans)\n"
              "tracer = spans.Tracer()\n"
              "tracer.install()\n"
              "from debias import harness\n"
              "from debias.core import BootstrapPlan\n"
              "from debias.problems import generate_instance\n"
              "from debias.resampling import RandomStream\n"
              "for family in ('P1', 'P3', 'P4', 'P6', 'P7'):\n"
              "    harness.run_experiment_spec(family, {'d': 2}, 4, 3, ['shift'], 3, seed=1)\n"
              "instance = generate_instance('P1', {'d': 2}, RandomStream(2))\n"
              "before = tracer.names.count('resampling.stream_init')\n"
              "harness.run_trials(instance, 4, BootstrapPlan(rounds=3),\n"
              "                   ['shift', 'scale', 'cov'], RandomStream(2).split(1), 0, 5)\n"
              "inits = tracer.names.count('resampling.stream_init') - before\n"
              "print(json.dumps([len(spans.HOOKS), sorted(tracer.missing),\n"
              "                  sorted(set(tracer.names)), inits]))\n")
    hooks, missing, fired, inits = json.loads(run_script(script).splitlines()[-1])
    assert hooks > 0 and missing == []
    assert inits == 3 * 5
    assert {"problems.sample", "resampling.stream_init", "core.counts",
            "core.resample_means", "objectives.evaluate_batch", "transport.solve",
            "harness.reduce", "problems.generate", "linalg.cholesky_solve"} <= set(fired)
