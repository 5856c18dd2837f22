"""scipy is loaded only where an SPD factorisation needs it (P4 and P5).

Each case runs a fresh interpreter: this test process has scipy loaded
already through other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import debias

SRC = str(Path(debias.__file__).resolve().parents[1])

SCRIPT = """
import json, sys
from debias import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def run_fresh(argvs, tmp_path):
    """Run each argv through ``cli.main`` in one new interpreter; return the
    exit codes and whether scipy ended up in ``sys.modules``."""
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    return result["codes"], result["scipy"], done.stderr


def bench(problem, workers, tmp_path, *extra):
    return ["bench", problem, "--trials", "4", "--seed", "5", "--no-header",
            "--workers", str(workers), "--out", str(tmp_path / f"{problem}-w{workers}.csv"),
            *extra]


def test_factorisation_free_commands_leave_scipy_unloaded(tmp_path):
    cost = tmp_path / "c.csv"
    cost.write_text("0 1 4\n1 0 1\n4 1 0\n")
    argvs = [bench(p, w, tmp_path) for p in ("P1", "P6", "P7") for w in (1, 2)]
    argvs += [["transport", "--cost", str(cost), "--no-header"],
              ["theory", "--problem", "quad", "--d", "2", "--no-header"]]
    codes, scipy_loaded, _ = run_fresh(argvs, tmp_path)
    assert codes == [0] * len(argvs)
    assert not scipy_loaded


def test_spd_families_load_scipy(tmp_path):
    codes, scipy_loaded, _ = run_fresh([bench("P4", 2, tmp_path), bench("P5", 2, tmp_path)],
                                       tmp_path)
    assert codes == [0, 0]
    assert scipy_loaded


def test_non_spd_exits_4_on_first_scipy_use(tmp_path):
    # every Gamma(1e-300) draw underflows to 0, so P4's first solve fails
    codes, scipy_loaded, err = run_fresh([bench("P4", 1, tmp_path, "--param", "k_shape=1e-300")],
                                         tmp_path)
    assert codes == [4]
    assert "not positive definite" in err
    assert scipy_loaded


def test_cholesky_factor_raises_factorization_error_on_first_use():
    script = ("import sys, numpy as np\n"
              "from debias.linalg import FactorizationError, cholesky_factor\n"
              "assert 'scipy' not in sys.modules\n"
              "try:\n"
              "    cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))\n"
              "except FactorizationError as exc:\n"
              "    print(exc)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert "not positive definite" in done.stdout
