"""Trial-throughput benchmark for the debias package.

Usage (from the repository root):

    python3 perfbench/run.py --workload euclid-small --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: a *round* is one experiment
per listed family, and the next experiment starts when the previous one
returns.  Round i of seed s runs ``harness.run_experiment_spec(...,
seed=s, exp_index=i)`` (``cli.main(["bench", ..., "--seed", s * 2**20 + i])``
for cli-parallel), so every round gets a fresh instance and fresh trials.

Only the calls into those two entry points are timed.  Set-up (fresh
interpreters importing the package), the output checks, the default-seed
digest check and the host-speed probe between rounds run untimed.  ``--trace 0`` prints the end-to-end metrics and
installs no wrappers; ``--trace 1`` measures untraced rounds first, then the
same rounds with the span hooks of ``spans.py`` installed, and prints the
per-layer metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: one BLAS thread in this process and in every child it
# starts.  On the 2-core machine the benchmark was written on, pinning cut the
# five-run spread of euclid-small trials_per_s from about 25% to about 10%.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics, tail  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
CLI_WORKERS = 2
# Time of reference_loop() on a quiet host of the 2-core Xeon VM the benchmark
# was written on; the unit in which host_slowness() reports the host's speed.
REFERENCE_LOOP_S = 0.006


@dataclass(frozen=True)
class Family:
    """One experiment of a round: family at its preset (n, K), R trials."""

    name: str
    n: int
    K: int
    methods: tuple
    R: int


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple
    check_rounds: int  # default-seed rounds compared with expected.json
    cli: bool = False  # run through cli.main with --workers 2


ALL3 = ("shift", "scale", "cov")
BOOT = ("shift", "scale")

# R is sized so a round is 0.1-0.7 s: enough rounds for a stable median and
# tail in one run, and each family's instance generation amortised over R.
WORKLOADS = {
    w.name: w for w in (
        Workload("euclid-small", (
            Family("P1", 10, 10, ALL3, 50),
            Family("P2", 10, 10, ALL3, 50),
            Family("P3", 10, 10, ALL3, 50),
            Family("P5", 10, 100, BOOT, 50),
        ), check_rounds=3),
        Workload("euclid-heavy", (
            Family("P4", 10, 100, BOOT, 10),
            Family("P6", 150, 100, ALL3, 10),
        ), check_rounds=3),
        Workload("wasserstein", (
            Family("P7", 10, 50, BOOT, 2),
        ), check_rounds=1),
        # n, K and methods are the CLI's presets; listed for the output check
        Workload("cli-parallel", (
            Family("P1", 10, 10, ALL3, 500),
            Family("P6", 150, 100, ALL3, 50),
        ), check_rounds=1, cli=True),
    )
}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import {module}
from debias.problems import generate_instance
from debias.resampling import RandomStream
for family in sys.argv[3:]:
    generate_instance(family, {{}}, RandomStream(int(sys.argv[2])).split(0).split(0))
"""


def reference_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def host_slowness() -> float:
    """How much slower than quiet the host runs right now: the time of a fixed
    pure-Python loop, which no change to the package can touch, over its
    quiet-host time.  Other tenants of a shared host slow stretches of
    several seconds by half or more, and the timed work slows with them."""
    t0 = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t0) / REFERENCE_LOOP_S


def cli_seed(seed: int, round_index: int) -> int:
    """The CLI has no experiment index, so round i gets its own master seed."""
    return seed * 2**20 + round_index


@dataclass
class Outcome:
    family: str
    R: int
    wall: float  # seconds spent inside the entry point
    digest: str | None  # SHA-256 of the --no-header CSV; None if it failed


class Runner:
    """Runs experiments through the public entry points and checks their output."""

    def __init__(self, workload: Workload):
        import debias.cli
        import debias.harness
        self.workload = workload
        self.harness = debias.harness
        self.cli = debias.cli
        self.sink = io.StringIO()
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def _call(self, fam: Family, seed: int, i: int, workers: int) -> tuple[float, bytes]:
        if self.workload.cli:
            out = OUT_DIR / f"{fam.name}.csv"
            argv = ["bench", fam.name, "--workers", str(workers), "--no-header",
                    "--trials", str(fam.R), "--seed", str(cli_seed(seed, i)), "--out", str(out)]
            self.sink.seek(0)
            self.sink.truncate()
            with contextlib.redirect_stdout(self.sink):
                t0 = time.perf_counter()
                rc = self._timed(self.cli.main, argv)
                wall = time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"cli exit code {rc}")
            return wall, out.read_bytes()
        h = self.harness
        t0 = time.perf_counter()
        summary = self._timed(h.run_experiment_spec, fam.name, {}, fam.n, fam.K,
                              list(fam.methods), fam.R, seed, i, workers)
        wall = time.perf_counter() - t0
        return wall, ("\n".join([h.CSV_COLUMNS, *h.summary_rows([summary])]) + "\n").encode()

    def _timed(self, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.experiment(self.attempted, fn, *args)

    def attempt(self, fam: Family, seed: int, i: int, workers: int) -> Outcome:
        """One experiment; a raise or a wrong output counts as a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            wall, csv = self._call(fam, seed, i, workers)
            check_csv(csv, fam)
        except Exception:  # a failed experiment is counted and the loop goes on
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return Outcome(fam.name, fam.R, time.perf_counter() - t0, None)
        return Outcome(fam.name, fam.R, wall, hashlib.sha256(csv).hexdigest())

    def round(self, seed: int, i: int, workers: int) -> list[Outcome]:
        return [self.attempt(fam, seed, i, workers) for fam in self.workload.families]

    def rounds(self, seed: int, seconds: float, max_rounds: int | None = None,
               paired_workers: int | None = None):
        """Closed loop from round 0 until ``seconds`` pass or ``max_rounds`` ran.

        With ``paired_workers``, every round is repeated at that worker count
        right after, and its CSV must be byte-identical.  Also returns the
        host slowness measured before the first round and after each round.
        """
        workers = CLI_WORKERS if self.workload.cli else 1
        main, paired = [], []
        slowness = [host_slowness()]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and (max_rounds is None or len(main) < max_rounds):
            i = len(main)
            main.append(self.round(seed, i, workers))
            slowness.append(host_slowness())
            if paired_workers is not None:
                paired.append(self.round(seed, i, paired_workers))
                self.compare(paired[-1], [o.digest for o in main[-1]])
        return main, paired, slowness

    def compare(self, outcomes: list[Outcome], digests: list) -> None:
        """Count each experiment whose digest differs from the wanted one."""
        for got, want in zip(outcomes, digests):
            if got.digest is not None and got.digest != want:
                self.failed += 1
                print(f"digest mismatch {got.family}: {got.digest} != {want}", file=sys.stderr)

    def check_default_seed(self, expected: dict) -> None:
        """Untimed: default-seed rounds against the committed digests (also a
        warm-up).  cli-parallel runs them at --workers 2 and at --workers 1."""
        counts = [CLI_WORKERS, 1] if self.workload.cli else [1]
        for workers in counts:
            for i in range(self.workload.check_rounds):
                outcomes = self.round(DEFAULT_SEED, i, workers)
                self.compare(outcomes, [expected.get(f"{i}/{o.family}") for o in outcomes])


def check_csv(csv: bytes, fam: Family) -> None:
    """The summary rows name the right experiment and carry finite ratios."""
    lines = csv.decode().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    if lines[0].split(",")[-2:] != ["rmse_r", "bias_r"] or len(rows) != len(fam.methods):
        raise ValueError(f"{fam.name}: unexpected CSV layout")
    for row, method in zip(rows, fam.methods):
        problem, got_method, _, _, n, K, R = row[:7]
        if (problem, got_method, int(n), int(K), int(R)) != (fam.name, method, fam.n, fam.K, fam.R):
            raise ValueError(f"{fam.name}: row {row[:7]} does not match the experiment")
        rmse_r, bias_r = float(row[-2]), float(row[-1])
        if not (math.isfinite(rmse_r) and rmse_r >= 0 and math.isfinite(bias_r)):
            raise ValueError(f"{fam.name} {method}: rmse_r={rmse_r}, bias_r={bias_r}")


def round_walls(rounds) -> list[float]:
    return [sum(o.wall for o in r) for r in rounds]


def trials_of(rounds) -> int:
    return sum(o.R for r in rounds for o in r if o.digest is not None)


def prefix_digest(rounds, count: int) -> str:
    """Digest of the first ``count`` rounds, comparable between commits."""
    h = hashlib.sha256()
    for r in rounds[:count]:
        for o in r:
            h.update(f"{o.family}:{o.digest}\n".encode())
    return h.hexdigest()


def round_stats(rounds, slowness) -> dict:
    """Round statistics as {name: (value, unit)}.

    ``trials_per_s`` is all trials / all wall time, times the median host
    slowness between the rounds: the throughput the run would have had on a
    quiet host.  The raw throughput and round times, which the host moves as
    much as the program does, are kept as diagnostics.
    """
    walls = round_walls(rounds)
    raw = trials_of(rounds) / sum(walls)
    tail_ms, pct = tail([w * 1000.0 for w in walls])
    return {
        "trials_per_s": (raw * statistics.median(slowness), "1/s"),
        "trials_per_s.mean": (raw, "1/s"),
        "round_ms.p50": (statistics.median(walls) * 1000.0, "ms"),
        "round_ms.tail": (tail_ms, "ms"),
        "round_ms.tail_percentile": (pct, "%"),
        "round_ms.rounds": (len(rounds), "count"),
        "host.slowness": (statistics.median(slowness), "ratio"),
    }


def setup_seconds(workload: Workload, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the package and generate
    the instances of round 0, and the host slowness before and after each."""
    module = "debias.cli" if workload.cli else "debias.harness"
    master = cli_seed(seed, 0) if workload.cli else seed
    cmd = [sys.executable, "-c", SETUP_CODE.format(module=module), str(SRC), str(master),
           *(f.name for f in workload.families)]
    times, slowness = [], [host_slowness()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        slowness.append(host_slowness())
    return times, slowness


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_threads_why": "pinned to 1: in a prototype on a 2-core machine, the five-run "
                            "spread of euclid-small trials_per_s fell from about 25% to "
                            "about 10% with pinning",
        "git_revision": git_revision(),
    }


def median_ms_per_trial(rounds) -> dict:
    per_family: dict[str, list[float]] = {}
    for r in rounds:
        for o in r:
            if o.digest is not None:
                per_family.setdefault(o.family, []).append(o.wall * 1000.0 / o.R)
    return {f: statistics.median(v) for f, v in per_family.items()}


def end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    wl = runner.workload
    setup, setup_slowness = setup_seconds(wl, args.seed)
    runner.check_default_seed(load_expected()[wl.name])
    rounds, _, slowness = runner.rounds(args.seed, args.seconds)
    stats = round_stats(rounds, slowness)
    metrics = {
        "trials_per_s": stats.pop("trials_per_s"),
        "setup_s": (statistics.median(setup) / statistics.median(setup_slowness), "s"),
        "peak_rss_mb": (peak_rss_mb(include_children=wl.cli), "MiB"),
    }
    details = {
        **{k: v for k, (v, _) in stats.items()},
        "round_ms": [w * 1000.0 for w in round_walls(rounds)],
        "setup_s.samples": setup,
        "setup_s.slowness": setup_slowness,
        "ms_per_trial": median_ms_per_trial(rounds),
        "digest": {"seed": args.seed, "rounds": min(len(rounds), wl.check_rounds),
                   "sha256": prefix_digest(rounds, wl.check_rounds)},
    }
    return metrics, details


def per_layer(runner: Runner, args) -> tuple[dict, dict]:
    wl = runner.workload
    runner.check_default_seed(load_expected()[wl.name])
    # untraced rounds first: ms/trial, the pool speed-up and the trace baseline
    plain, serial, slowness = runner.rounds(args.seed, 0.4 * args.seconds,
                                  paired_workers=1 if wl.cli else None)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced, _, _ = runner.rounds(args.seed, 0.6 * args.seconds, max_rounds=len(plain))
    finally:
        runner.tracer = None
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}.tsv"
    tracer.write(spans_path)

    common = min(len(plain), len(traced))
    experiments = sum(len(r) for r in traced)
    metrics = layer_metrics(tracer, max(1, trials_of(traced)), max(1, experiments))
    ms_per_trial = median_ms_per_trial(plain)
    for fam in ("P1", "P2", "P3", "P4", "P5", "P6", "P7"):
        metrics[f"harness.ms_per_trial.{fam}"] = (ms_per_trial.get(fam, 0.0), "ms/trial")
    speedup = 0.0
    if serial:
        speedup = (trials_of(plain) / sum(round_walls(plain))) / (
            trials_of(serial) / sum(round_walls(serial)))
    metrics["harness.pool_speedup"] = (speedup, "ratio")
    overhead = sum(round_walls(traced[:common])) / sum(round_walls(plain[:common])) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    stats = round_stats(plain, slowness)
    del stats["trials_per_s"]
    metrics.update(stats)
    details = {
        "rounds_untraced": len(plain),
        "rounds_traced": len(traced),
        "spans": len(tracer.names),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "missing_hooks": sorted(tracer.missing),
    }
    return metrics, details


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["digests"]


def update_expected() -> None:
    """Recompute the default-seed digests of every workload into expected.json."""
    digests = {}
    for wl in WORKLOADS.values():
        runner = Runner(wl)
        digests[wl.name] = {}
        for i in range(wl.check_rounds):
            for o in runner.round(DEFAULT_SEED, i, CLI_WORKERS if wl.cli else 1):
                if o.digest is None:
                    raise SystemExit(f"{wl.name} round {i} {o.family} failed")
                digests[wl.name][f"{i}/{o.family}"] = o.digest
    payload = {"seed": DEFAULT_SEED, "digests": digests}
    EXPECTED_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")


def import_package() -> None:
    """Import debias from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "debias" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'debias'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import debias
    if Path(debias.__file__).resolve().parent != SRC / "debias":
        sys.exit(f"error: imported debias from {debias.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-expected", action="store_true",
                        help="recompute the default-seed digests and exit")
    args = parser.parse_args(argv)
    import_package()
    OUT_DIR.mkdir(exist_ok=True)
    if args.update_expected:
        update_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runner = Runner(WORKLOADS[args.workload])
    measure = per_layer if args.trace else end_to_end
    metrics, details = measure(runner, args)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "details": details,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    brief = {k: v for k, v in details.items() if k != "round_ms"}
    print(json.dumps({"machine": record["machine"], "details": brief}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
