"""Command-line front end.

Subcommands: ``estimate`` (debias a data file), ``bench`` (run a benchmark
preset), ``sweep`` (parameter sweep), ``theory`` (sigma quantities and
condition margins), ``transport`` (solve a transport LP from a cost matrix).
A problem parameter is given with ``--param`` (bench, sweep and theory
alike), and a run setting with its flag or its key in the ``--config`` file.

Exit codes: 0 success, 2 input parse error, 3 configuration error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys

import numpy as np

from .core import BootstrapPlan, UnsupportedMethodError, debias
from .harness import default_workers, emit_plot, emit_results, run_experiment_spec, run_sweep
from .linalg import FactorizationError
from .objectives import DomainError, EvaluationError
from .observations import ContractError, ObservationSet
from .problems import (generate_instance, get_family, p1_quadratic, p2_quartic,
                       p3_rational, p6_entropy, resolve_params)
from .resampling import RandomStream
from .theory import moments_gaussian, sigma_set
from .transport import (IterationCapError, TransportError, TransportProblem,
                        brute_force_transport, solve_transport)


FORMATS = ("csv", "json")  # of bench and sweep results
# theory's own problem, x'x at x* = (xstar, ..., xstar), and its parameters
QUAD = {"d": 1, "xstar": 0.0, "sigma": 1.0}


class CliParseError(Exception):
    """Bad input file contents (exit code 2)."""


def _lines(path: str):
    """(line number, text) of each line of ``path`` that is neither blank
    nor a ``#`` comment, stripped."""
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc


def _read_matrix(path: str, width=None) -> np.ndarray:
    """Rows of numbers separated by commas or spaces; every row has
    ``width`` values, by default the first row's count."""
    rows = []
    for lineno, line in _lines(path):
        try:
            row = [float(tok) for tok in line.replace(",", " ").split()]
        except ValueError as exc:
            raise CliParseError(f"{path}: line {lineno}: {exc}") from exc
        if width is None:
            width = len(row)
        if len(row) != width:
            raise CliParseError(f"{path}: line {lineno}: expected {width} values, got {len(row)}")
        rows.append(row)
    if not rows:
        raise CliParseError(f"{path}: no numeric rows")
    return np.asarray(rows)


def _read_parameters(path: str) -> np.ndarray:
    """A function spec's matrix or vector file, whose entries must be finite."""
    values = _read_matrix(path)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise ContractError(f"{path}: non-finite value {values[row, col]} "
                            f"in row {row + 1}, column {col + 1}")
    return values


def read_observations(path: str) -> ObservationSet:
    """Observation CSV: header '# dim=<d> variant=<euclidean|empirical>',
    then one observation per row (d comma-separated floats)."""
    try:
        with open(path) as fh:
            first = fh.readline()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    if not first.startswith("#"):
        raise CliParseError(f"{path}: line 1: expected header '# dim=<d> variant=<...>'")
    fields = dict(tok.split("=", 1) for tok in first.lstrip("#").split() if "=" in tok)
    if "dim" not in fields or "variant" not in fields:
        raise CliParseError(f"{path}: line 1: header must carry dim= and variant=")
    try:
        dim = int(fields["dim"])
    except ValueError as exc:
        raise CliParseError(f"{path}: line 1: bad dim {fields['dim']!r}") from exc
    variant = fields["variant"]
    if variant == "empirical":
        raise ContractError("empirical observation files are not supported; "
                            "functional inputs come from the built-in generators")
    if variant != "euclidean":
        raise CliParseError(f"{path}: line 1: unknown variant {variant!r}")
    return ObservationSet.from_points(_read_matrix(path, dim))


def build_objective(spec: str, dim: int):
    """Objective from a CLI function spec: quadratic:A.csv, quartic:A.csv,
    rational:b.csv:c.csv, or entropy."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "entropy":
        return p6_entropy(dim)
    if kind in ("quadratic", "quartic"):
        if len(parts) != 2:
            raise ContractError(f"{kind} spec needs a matrix file: {kind}:A.csv")
        A = _read_parameters(parts[1])
        if A.shape != (dim, dim):
            raise ContractError(f"matrix {parts[1]} is {A.shape}, data dimension is {dim}")
        try:
            np.linalg.cholesky((A + A.T) / 2)
        except np.linalg.LinAlgError:
            raise ContractError(f"matrix {parts[1]} is not positive definite; "
                                f"{kind} needs an SPD matrix") from None
        return p1_quadratic(A) if kind == "quadratic" else p2_quartic(A)
    if kind == "rational":
        if len(parts) != 3:
            raise ContractError("rational spec needs two vector files: rational:b.csv:c.csv")
        b = _read_parameters(parts[1]).ravel()
        c = _read_parameters(parts[2]).ravel()
        if b.size != dim or c.size != dim:
            raise ContractError(f"rational vectors must have length {dim}")
        return p3_rational(b, c)
    raise ContractError(
        f"unknown function spec {spec!r}; use quadratic:A.csv, quartic:A.csv, "
        "rational:b.csv:c.csv, or entropy")


def _load_config(path: str, valid) -> dict:
    """The key=value lines of ``path``; a key not in ``valid`` is refused."""
    cfg = {}
    for lineno, line in _lines(path):
        if "=" not in line:
            raise CliParseError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in valid:
            raise CliParseError(f"{path}: line {lineno}: unknown key {key!r}; "
                                f"valid: {', '.join(valid)}")
        cfg[key] = value
    return cfg


def _settle(args) -> None:
    """Give each setting of the subcommand that no flag set its value from
    the --config file, read with its flag's type, else its declared
    default."""
    cfg = _load_config(args.config, args.settings) if vars(args).get("config") else {}
    for key, (cast, default) in args.settings.items():
        if getattr(args, key) is not None:
            continue
        if key not in cfg:
            setattr(args, key, default)
            continue
        try:
            setattr(args, key, cast(cfg[key]))
        except ValueError as exc:
            raise CliParseError(f"config key {key}: {exc}") from exc


def _parse_param(tokens) -> dict:
    """Each key=value token's value: an int if int() reads one, else a float
    (nan, inf too)."""
    out = {}
    for tok in tokens or ():
        if "=" not in tok:
            raise ContractError(f"--param needs key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                raise ContractError(f"--param {key}: cannot parse {value!r} as a number") from None
    return out


def _methods_for(arg: str):
    """The methods of a --method value; None for all, the family's methods."""
    if arg == "all":
        return None
    return [tok.strip() for tok in arg.split(",")]


def _header_lines(config: dict) -> list[str]:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    return [f"generated: {stamp}", f"config: {json.dumps(config, sort_keys=True)}"]


@contextlib.contextmanager
def _writing(path: str):
    """Report a failed write of ``path`` as a configuration error (exit 3)."""
    try:
        yield
    except OSError as exc:
        raise ContractError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _outputs(args, default_out: str):
    """The results path and the SVG path beside it, checked with the
    results format before any trial runs."""
    out = args.out or default_out
    svg = os.path.splitext(out)[0] + ".svg"
    if svg == out:
        raise ContractError(f"--out {out}: the SVG plot is written to the .svg path beside "
                            "the results, so the results need another extension")
    if args.format not in FORMATS:
        raise ContractError(f"unknown format {args.format!r}; use {' or '.join(FORMATS)}")
    return out, svg


def _print_header(config: dict, no_header: bool):
    if not no_header:
        print(f"# config: {json.dumps(config, sort_keys=True)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_estimate(args) -> int:
    obs = read_observations(args.data)
    F = build_objective(args.function, obs.dimension)
    est = debias(args.method, F, obs, BootstrapPlan(rounds=args.k), RandomStream(args.seed))
    config = {"data": args.data, "function": args.function, "method": args.method,
              "k": args.k, "seed": args.seed, "n": len(obs)}
    _print_header(config, args.no_header)
    values = {key: getattr(est, key) for key in ("naive_value", "correction", "debiased_value")}
    for key, value in values.items():
        print(f"{key} = {value!r}")
    if args.out:
        payload = {"config": config, **values, "method": est.method}
        with _writing(args.out), open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def _emit(args, config: dict, summaries, outputs) -> int:
    """Print the config header and each method's ratios, write the summaries
    and the SVG plot to the ``_outputs`` paths, and say where."""
    out, svg = outputs
    _print_header(config, args.no_header)
    for s in summaries:
        where = f" {s.axis}={s.axis_value!r}" if s.axis else ""
        for m in s.methods:
            print(f"{s.problem}{where} {m}: rmse_r = {s.rmse_r[m]!r}, bias_r = {s.bias_r[m]!r}")
    header = () if args.no_header else _header_lines(config)
    with _writing(out):
        emit_results(summaries, args.format, out, header_lines=header)
    with _writing(svg):
        emit_plot(summaries, svg)
    print(f"wrote {out} and {svg}")
    return 0


def cmd_bench(args) -> int:
    family = args.problem
    params = _parse_param(args.param)
    outputs = _outputs(args, f"bench_{family}.csv")
    summary = run_experiment_spec(family, params, args.n, args.k, _methods_for(args.method),
                                  args.trials, args.seed, workers=args.workers)
    config = {"problem": family, "n": summary.n, "K": summary.K, "R": args.trials,
              "seed": args.seed, "methods": summary.methods, "params": params,
              "workers": args.workers}
    return _emit(args, config, [summary], outputs)


def cmd_sweep(args) -> int:
    family = args.problem
    fixed = _parse_param(args.param)
    for key in sorted({"n", "K"} & set(fixed)):  # axes, not family parameters
        raise ContractError(f"--param {key}={fixed[key]!r}: set n and K with --n, --k or --axis")
    if args.n is not None:
        fixed["n"] = args.n
    if args.k is not None:
        fixed["K"] = args.k
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ContractError(f"--values: {exc}")
    if not values:
        raise ContractError("--values needs a comma-separated list")
    outputs = _outputs(args, f"sweep_{family}_{args.axis}.csv")
    summaries = run_sweep(family, args.axis, values, fixed, args.trials, args.seed,
                          methods=_methods_for(args.method), workers=args.workers)
    config = {"problem": family, "axis": args.axis, "values": values, "R": args.trials,
              "seed": args.seed, "methods": summaries[0].methods, "fixed": fixed,
              "workers": args.workers}
    return _emit(args, config, summaries, outputs)


def cmd_theory(args) -> int:
    """Sigmas and margins of a Gaussian-noise problem at its truth x*: x'x at
    x* = (xstar, ..., xstar) in d dimensions (quad), or a family's instance
    (P1, P2, P5).  Each takes its parameters, sigma among them, through
    --param, checked as bench checks them; debias.theory refuses the rest."""
    problem = args.problem
    if problem not in ("quad", "P1", "P2", "P5"):
        raise ContractError(f"theory takes a Gaussian-noise problem, quad, P1, P2 or P5; "
                            f"got {problem!r}")
    params = _parse_param(args.param)
    p = resolve_params(problem, QUAD if problem == "quad" else get_family(problem).params,
                       params)
    d, sigma = int(p["d"]), float(p["sigma"])
    moments = moments_gaussian(sigma, d)  # refuses d > 20 before any d x d array
    if problem == "quad":
        F, x_star = p1_quadratic(np.eye(d)), np.full(d, float(p["xstar"]))
    else:
        inst = generate_instance(problem, params, RandomStream(args.seed))
        F, x_star = inst.objective, inst.truth_input
    ss = vars(sigma_set(F, x_star, moments, args.ck))
    config = {"problem": problem, "params": params, "sigma": sigma, "ck": args.ck, "d": d}
    _print_header(config, args.no_header)
    for key, value in ss.items():  # SigmaSet's fields in order, but its input c_k
        if key != "c_k":
            print(f"{key} = {value!r}")
    return 0


def cmd_transport(args) -> int:
    cost = _read_matrix(args.cost)
    supply = demand = None
    if args.supply or args.demand:
        if not (args.supply and args.demand):
            raise ContractError("--supply and --demand must be given together")
        supply = _read_matrix(args.supply).ravel()
        demand = _read_matrix(args.demand).ravel()
    problem = TransportProblem.build(cost, supply, demand)
    plan = solve_transport(problem)
    brute = brute_force_transport(problem) if args.brute_force else None  # before any output
    config = {"cost": args.cost, "shape": list(cost.shape),
              "uniform": supply is None}
    _print_header(config, args.no_header)
    print(f"value = {plan.value!r}")
    print(f"pivots = {plan.iterations}")
    if args.brute_force:
        print(f"brute_force_value = {brute!r}")
    print("coupling:")
    for row in plan.coupling:
        print(",".join(repr(float(x)) for x in row))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="debias",
                                     description="Convexity-bias correction toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, handler, settings, out_default=True):
        """The options every subcommand takes and its handler.  ``settings``
        maps each key its --config file may set, in the order the keys are
        listed, to the value it takes when nothing sets it (see ``_settle``);
        --seed is taken only with a seed setting, --config only with any."""
        if "seed" in settings:
            p.add_argument("--seed", type=int, default=None, help="master seed")
        if settings:
            p.add_argument("--config", default=None, help="key=value config file; flags override it")
        p.add_argument("--no-header", action="store_true", help="suppress config/timestamp headers")
        if out_default:
            p.add_argument("--out", default=None, help="output path")
        types = {action.dest: action.type or str for action in p._actions}
        p.set_defaults(handler=handler,
                       settings={key: (types[key], value) for key, value in settings.items()})

    p = sub.add_parser("estimate", help="debias one data file")
    p.add_argument("data", help="observation CSV (header: # dim=<d> variant=euclidean)")
    p.add_argument("--function", required=True,
                   help="quadratic:A.csv | quartic:A.csv | rational:b.csv:c.csv | entropy")
    p.add_argument("--method", default=None, help="shift | scale | cov")
    p.add_argument("--k", type=int, default=None, help="bootstrap rounds")
    common(p, cmd_estimate, {"seed": 0, "k": 100, "method": "shift"})

    for name, handler in (("bench", cmd_bench), ("sweep", cmd_sweep)):
        p = sub.add_parser(name, help=f"run a benchmark {name}")
        p.add_argument("problem", help="P1..P7")
        if name == "sweep":
            p.add_argument("--axis", required=True, help="parameter to sweep")
            p.add_argument("--values", required=True, help="comma-separated axis values")
        p.add_argument("--n", type=int, default=None, help="observations per trial")
        p.add_argument("--k", type=int, default=None, help="bootstrap rounds")
        p.add_argument("--trials", type=int, default=None, help="number of trials R")
        p.add_argument("--method", default=None, help="shift|scale|cov|all or comma list")
        p.add_argument("--format", default=None, choices=FORMATS)
        p.add_argument("--workers", type=int, default=None, help="parallel workers")
        p.add_argument("--param", action="append", help="problem parameter key=value")
        # n and K of None: the family's preset; method all: the family's methods
        common(p, handler, {"seed": 0, "trials": 1000 if name == "bench" else 200,
                            "workers": default_workers(), "n": None, "k": None,
                            "method": "all", "format": "csv"})

    p = sub.add_parser("theory", help="sigma quantities and condition margins")
    p.add_argument("--problem", default="quad", help="quad | P1 | P2 | P5")
    p.add_argument("--ck", type=float, default=1.0, help="the ratio C_K = K/n")
    p.add_argument("--param", action="append",
                   help="problem parameter key=value (quad: d, xstar, sigma)")
    common(p, cmd_theory, {"seed": 0}, out_default=False)

    p = sub.add_parser("transport", help="solve a transport LP from a cost CSV")
    p.add_argument("--cost", required=True)
    p.add_argument("--supply", default=None)
    p.add_argument("--demand", default=None)
    p.add_argument("--brute-force", action="store_true", help="also print the oracle value")
    common(p, cmd_transport, {}, out_default=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _settle(args)
        return args.handler(args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, DomainError, FactorizationError, IterationCapError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ContractError, UnsupportedMethodError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
