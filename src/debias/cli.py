"""Command-line front end.

Subcommands: ``estimate`` (debias a data file), ``bench`` (run a benchmark
preset), ``sweep`` (parameter sweep), ``theory`` (sigma quantities and
condition margins), ``transport`` (solve a transport LP from a cost matrix).

Exit codes: 0 success, 2 input parse error, 3 configuration error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

import numpy as np

from .core import METHODS, BootstrapPlan, DegenerateDenominatorError, UnsupportedMethodError, debias
from .harness import default_workers, emit_plot, emit_results, run_experiment_spec, run_sweep
from .linalg import FactorizationError
from .objectives import DomainError, EvaluationError
from .observations import ContractError, ObservationSet
from .problems import (FAMILIES, generate_instance, get_family, p1_quadratic, p2_quartic,
                       p3_rational, p6_entropy)
from .resampling import RandomStream
from .theory import moments_gaussian, sigma_set
from .transport import (IterationCapError, TransportError, TransportProblem,
                        brute_force_transport, solve_transport)


class CliParseError(Exception):
    """Bad input file contents (exit code 2)."""


def _read_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            rows = []
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append([float(tok) for tok in line.replace(",", " ").split()])
                except ValueError as exc:
                    raise CliParseError(f"{path}: line {lineno}: {exc}") from exc
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CliParseError(f"{path}: no numeric rows")
    width = len(rows[0])
    for i, r in enumerate(rows, 1):
        if len(r) != width:
            raise CliParseError(f"{path}: row {i} has {len(r)} fields, expected {width}")
    return np.asarray(rows)


def read_observations(path: str) -> ObservationSet:
    """Observation CSV: header '# dim=<d> variant=<euclidean|empirical>',
    then one observation per row (d comma-separated floats)."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("#"):
        raise CliParseError(f"{path}: line 1: expected header '# dim=<d> variant=<...>'")
    header = lines[0].lstrip("#").split()
    fields = dict(tok.split("=", 1) for tok in header if "=" in tok)
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
    points = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip() or line.startswith("#"):
            continue
        toks = [t for t in line.replace(",", " ").split() if t]
        if len(toks) != dim:
            raise CliParseError(f"{path}: line {lineno}: expected {dim} values, got {len(toks)}")
        try:
            points.append([float(t) for t in toks])
        except ValueError as exc:
            raise CliParseError(f"{path}: line {lineno}: {exc}") from exc
    if not points:
        raise CliParseError(f"{path}: no observation rows")
    return ObservationSet.from_points(np.asarray(points))


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
        A = _read_matrix(parts[1])
        if A.shape != (dim, dim):
            raise ContractError(f"matrix {parts[1]} is {A.shape}, data dimension is {dim}")
        return p1_quadratic(A) if kind == "quadratic" else p2_quartic(A)
    if kind == "rational":
        if len(parts) != 3:
            raise ContractError("rational spec needs two vector files: rational:b.csv:c.csv")
        b = _read_matrix(parts[1]).ravel()
        c = _read_matrix(parts[2]).ravel()
        if b.size != dim or c.size != dim:
            raise ContractError(f"rational vectors must have length {dim}")
        return p3_rational(b, c)
    raise ContractError(
        f"unknown function spec {spec!r}; use quadratic:A.csv, quartic:A.csv, "
        "rational:b.csv:c.csv, or entropy")


def _load_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliParseError(f"{path}: line {lineno}: expected key=value")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    return cfg


def _resolve(args, key, cfg, cast, fallback):
    """flag > config file > environment (seed only) > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError as exc:
            raise CliParseError(f"config key {key}: {exc}") from exc
    if key == "seed":
        env = os.environ.get("DEBIAS_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise CliParseError(f"DEBIAS_SEED: {exc}") from exc
    return fallback


def _resolve_workers(args, cfg) -> int:
    """``--workers`` or the config's ``workers``, else one a CPU; below 1 is refused."""
    workers = _resolve(args, "workers", cfg, int, default_workers())
    if workers < 1:
        raise ContractError(f"workers must be >= 1, got {workers}")
    return workers


def _parse_param(tokens) -> dict:
    out = {}
    for tok in tokens or ():
        if "=" not in tok:
            raise ContractError(f"--param needs key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        try:
            out[key] = float(value) if "." in value or "e" in value.lower() else int(value)
        except ValueError:
            raise ContractError(f"--param {key}: cannot parse {value!r} as a number")
    return out


def _methods_for(arg: str, family: str):
    if arg in (None, "all"):
        return list(get_family(family).methods)
    out = [tok.strip() for tok in arg.split(",")]
    for tok in out:
        if tok not in METHODS:
            raise ContractError(f"unknown method {tok!r}; use {', '.join(METHODS)}, or all")
    return out


def _header_lines(config: dict) -> list[str]:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    return [f"generated: {stamp}", f"config: {json.dumps(config, sort_keys=True)}"]


def _print_header(config: dict, no_header: bool):
    if not no_header:
        print(f"# config: {json.dumps(config, sort_keys=True)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_estimate(args, cfg) -> int:
    seed = _resolve(args, "seed", cfg, int, 0)
    k = _resolve(args, "k", cfg, int, 100)
    obs = read_observations(args.data)
    F = build_objective(args.function, obs.dimension)
    method = args.method or cfg.get("method") or "shift"
    est = debias(method, F, obs, BootstrapPlan(rounds=k), RandomStream(seed))
    config = {"data": args.data, "function": args.function, "method": method,
              "k": k, "seed": seed, "n": len(obs)}
    _print_header(config, args.no_header)
    print(f"naive_value = {est.naive_value!r}")
    print(f"correction = {est.correction!r}")
    print(f"debiased_value = {est.debiased_value!r}")
    if args.out:
        payload = {"config": config, "naive_value": est.naive_value,
                   "correction": est.correction, "debiased_value": est.debiased_value,
                   "method": est.method}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def _emit(args, cfg, config: dict, summaries, default_out: str) -> int:
    """Print the config header and each method's ratios, write the summaries
    (CSV unless --format says otherwise) to --out or ``default_out`` and the
    SVG plot beside them, and say where."""
    _print_header(config, args.no_header)
    for s in summaries:
        where = f" {s.axis}={s.axis_value!r}" if s.axis else ""
        for m in s.methods:
            print(f"{s.problem}{where} {m}: rmse_r = {s.rmse_r[m]!r}, bias_r = {s.bias_r[m]!r}")
    out = args.out or default_out
    fmt = args.format or cfg.get("format") or "csv"
    header = () if args.no_header else _header_lines(config)
    emit_results(summaries, fmt, out, header_lines=header)
    svg = os.path.splitext(out)[0] + ".svg"
    emit_plot(summaries, svg)
    print(f"wrote {out} and {svg}")
    return 0


def cmd_bench(args, cfg) -> int:
    family = args.problem
    spec = get_family(family)
    seed = _resolve(args, "seed", cfg, int, 0)
    trials = _resolve(args, "trials", cfg, int, 1000)
    workers = _resolve_workers(args, cfg)
    params = _parse_param(args.param)
    n = spec.resolve_n(_resolve(args, "n", cfg, int, None), params)
    k = _resolve(args, "k", cfg, int, spec.K)
    methods = _methods_for(args.method or cfg.get("method"), family)
    summary = run_experiment_spec(family, params, n, k, methods, trials, seed, workers=workers)
    config = {"problem": family, "n": n, "K": k, "R": trials, "seed": seed,
              "methods": methods, "params": params, "workers": workers}
    return _emit(args, cfg, config, [summary], f"bench_{family}.csv")


def cmd_sweep(args, cfg) -> int:
    family = args.problem
    seed = _resolve(args, "seed", cfg, int, 0)
    trials = _resolve(args, "trials", cfg, int, 200)
    workers = _resolve_workers(args, cfg)
    fixed = _parse_param(args.param)
    n = _resolve(args, "n", cfg, int, None)
    k = _resolve(args, "k", cfg, int, None)
    if n is not None:
        fixed["n"] = n
    if k is not None:
        fixed["K"] = k
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ContractError(f"--values: {exc}")
    if not values:
        raise ContractError("--values needs a comma-separated list")
    methods = _methods_for(args.method or cfg.get("method"), family)
    summaries = run_sweep(family, args.axis, values, fixed, trials, seed,
                          methods=methods, workers=workers)
    config = {"problem": family, "axis": args.axis, "values": values, "R": trials,
              "seed": seed, "methods": methods, "fixed": fixed, "workers": workers}
    return _emit(args, cfg, config, summaries, f"sweep_{family}_{args.axis}.csv")


def cmd_theory(args, cfg) -> int:
    """Sigmas and margins of x'x at x* = (xstar, ..., xstar) in d dimensions
    (quad; quad1d is d = 1), or of a Gaussian-noise family's instance at its
    truth, whose dimension is a family parameter (``--param d=...``)."""
    seed = _resolve(args, "seed", cfg, int, 0)
    config = {"problem": args.problem}
    if args.problem in ("quad1d", "quad"):
        if args.param:
            raise ContractError(f"--param does not apply to {args.problem}, which has no "
                                "family parameters")
        if args.problem == "quad1d" and args.d is not None:
            raise ContractError("--d does not apply to quad1d, which has d = 1; use quad")
        d = 1 if args.d is None else args.d
        if d < 1:
            raise ContractError(f"d must be >= 1, got {d}")
        config["xstar"] = 0.0 if args.xstar is None else args.xstar
        F = p1_quadratic(np.eye(d))
        x_star = np.full(d, config["xstar"])
    elif args.problem in ("P1", "P2", "P5"):
        for flag, value in (("--xstar", args.xstar), ("--d", args.d)):
            if value is not None:
                raise ContractError(f"{flag} does not apply to {args.problem}, whose x* is its "
                                    "instance's truth; set its dimension with --param d=...")
        inst = generate_instance(args.problem, _parse_param(args.param), RandomStream(seed))
        F = inst.objective
        x_star = inst.truth_input.coords
    elif args.problem in FAMILIES:
        raise ContractError(f"theory subcommand supports Gaussian-noise problems, not {args.problem}")
    else:
        raise ContractError(f"unknown theory problem {args.problem!r}; use quad1d, quad, P1, P2, or P5")
    moments = moments_gaussian(args.sigma, x_star.size)
    ss = sigma_set(F, x_star, moments, args.ck)
    config.update(sigma=args.sigma, ck=args.ck, d=int(x_star.size))
    _print_header(config, args.no_header)
    print(f"sigma1 = {ss.sigma1!r}")
    print(f"sigma2 = {ss.sigma2!r}")
    print(f"sigma3 = {ss.sigma3!r}")
    print(f"sigma4 = {ss.sigma4!r}")
    print(f"sigma4_prime = {ss.sigma4_prime!r}")
    print(f"f_star = {ss.f_star!r}")
    print(f"margin_shift = {ss.margin_shift!r}")
    print(f"margin_shift_alt = {ss.margin_shift_alt!r}")
    print(f"margin_scale = {ss.margin_scale!r}")
    return 0


def cmd_transport(args, cfg) -> int:
    cost = _read_matrix(args.cost)
    supply = demand = None
    if args.supply or args.demand:
        if not (args.supply and args.demand):
            raise ContractError("--supply and --demand must be given together")
        supply = _read_matrix(args.supply).ravel()
        demand = _read_matrix(args.demand).ravel()
    problem = TransportProblem.build(cost, supply, demand)
    plan = solve_transport(problem)
    config = {"cost": args.cost, "shape": list(cost.shape),
              "uniform": supply is None}
    _print_header(config, args.no_header)
    print(f"value = {plan.value!r}")
    print(f"pivots = {plan.iterations}")
    if args.brute_force:
        print(f"brute_force_value = {brute_force_transport(problem)!r}")
    print("coupling:")
    for row in plan.coupling:
        print(",".join(repr(float(x)) for x in row))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="debias",
                                     description="Convexity-bias correction toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, out_default=True):
        p.add_argument("--seed", type=int, default=None, help="master seed (env DEBIAS_SEED as fallback)")
        p.add_argument("--config", default=None, help="key=value config file; flags override it")
        p.add_argument("--no-header", action="store_true", help="suppress config/timestamp headers")
        if out_default:
            p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("estimate", help="debias one data file")
    p.add_argument("data", help="observation CSV (header: # dim=<d> variant=euclidean)")
    p.add_argument("--function", required=True,
                   help="quadratic:A.csv | quartic:A.csv | rational:b.csv:c.csv | entropy")
    p.add_argument("--method", default=None, help="shift | scale | cov")
    p.add_argument("--k", type=int, default=None, help="bootstrap rounds")
    common(p)

    for name in ("bench", "sweep"):
        p = sub.add_parser(name, help=f"run a benchmark {name}")
        p.add_argument("problem", help="P1..P7")
        if name == "sweep":
            p.add_argument("--axis", required=True, help="parameter to sweep")
            p.add_argument("--values", required=True, help="comma-separated axis values")
        p.add_argument("--n", type=int, default=None, help="observations per trial")
        p.add_argument("--k", type=int, default=None, help="bootstrap rounds")
        p.add_argument("--trials", type=int, default=None, help="number of trials R")
        p.add_argument("--method", default=None, help="shift|scale|cov|all or comma list")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--workers", type=int, default=None, help="parallel workers")
        p.add_argument("--param", action="append", help="problem parameter key=value")
        common(p)

    p = sub.add_parser("theory", help="sigma quantities and condition margins")
    p.add_argument("--problem", default="quad1d", help="quad1d | quad | P1 | P2 | P5")
    p.add_argument("--xstar", type=float, default=None,
                   help="coordinate of x* for quad and quad1d (default 0)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--ck", type=float, default=1.0, help="the ratio C_K = K/n")
    p.add_argument("--d", type=int, default=None, help="dimension for quad (default 1)")
    p.add_argument("--param", action="append", help="problem parameter key=value")
    common(p, out_default=False)

    p = sub.add_parser("transport", help="solve a transport LP from a cost CSV")
    p.add_argument("--cost", required=True)
    p.add_argument("--supply", default=None)
    p.add_argument("--demand", default=None)
    p.add_argument("--brute-force", action="store_true", help="also print the oracle value")
    common(p, out_default=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        handler = {
            "estimate": cmd_estimate,
            "bench": cmd_bench,
            "sweep": cmd_sweep,
            "theory": cmd_theory,
            "transport": cmd_transport,
        }[args.subcommand]
        return handler(args, cfg)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, DomainError, DegenerateDenominatorError, FactorizationError,
            IterationCapError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ContractError, UnsupportedMethodError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
