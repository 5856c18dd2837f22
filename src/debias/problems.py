"""The seven benchmark families P1-P7: objectives, ground-truth generators,
and the noise models that produce observation sets whose mean is the truth.

P1  quadratic x'Ax, isotropic Gaussian noise
P2  quartic (x'Ax)^2, isotropic Gaussian noise
P3  rational sum(b_i x_i + c_i / x_i) on x > 0, coordinatewise exponential noise
P4  optimal value of min .5 x'Ax + b'x over random SPD A (gamma eigenvalue noise)
P5  optimal value of min x'Bx s.t. Ax = b over Gaussian-noisy b
P6  discrete entropy, one-hot single-sample observations of a Dirichlet truth
P7  squared 2-Wasserstein distance between two empirical distributions

``FAMILIES`` maps each name to its parameters and their defaults, its bench
preset and the builder that draws an instance; ``get_family`` looks one up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import transport
from .linalg import cholesky_solve, random_orthogonal, spd_with_condition
from .objectives import EvaluationError, Objective
from .observations import ContractError, described, mixture_row
from .resampling import RandomStream, categorical_cdf, normals, uniforms

# ---------------------------------------------------------------------------
# objectives


def p1_quadratic(A: np.ndarray) -> Objective:
    """F(x) = x' A x for SPD A."""
    A = np.asarray(A, dtype=float)

    return Objective(
        fn=lambda x: float(x @ A @ x),
        fn_many=lambda X: np.einsum("ki,ij,kj->k", X, A, X),
        gradient=lambda x: 2.0 * (A @ x),
        hessian=lambda x: 2.0 * A,
        third_derivative=lambda x: np.zeros((A.shape[0],) * 3),
        sign_constraint="positive",
        name="quadratic",
    )


def p2_quartic(A: np.ndarray) -> Objective:
    """F(x) = (x' A x)^2 for SPD A."""
    A = np.asarray(A, dtype=float)

    def hessian(x):
        g = A @ x
        return 8.0 * np.outer(g, g) + 4.0 * (x @ g) * A

    def third(x):
        g = A @ x
        return 8.0 * (
            A[:, :, None] * g[None, None, :]
            + A[:, None, :] * g[None, :, None]
            + A[None, :, :] * g[:, None, None]
        )

    def fn(x):
        q = float(x @ A @ x)
        try:
            return q ** 2
        except OverflowError:  # a Python float's square raises where numpy's is inf
            return math.inf

    return Objective(
        fn=fn,
        fn_many=lambda X: np.einsum("ki,ij,kj->k", X, A, X) ** 2,
        gradient=lambda x: 4.0 * (x @ A @ x) * (A @ x),
        hessian=hessian,
        third_derivative=third,
        sign_constraint="positive",
        name="quartic",
    )


def p3_rational(b: np.ndarray, c: np.ndarray) -> Objective:
    """F(x) = sum_i (b_i x_i + c_i / x_i) on the open positive orthant."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(b <= 0) or np.any(c <= 0):
        raise ContractError("p3 requires b > 0 and c > 0 componentwise")

    def in_domain(X):
        X = np.asarray(X, dtype=float)
        if X.shape[-1:] != b.shape:
            return np.zeros(X.shape[:-1], dtype=bool)
        with np.errstate(over="ignore", divide="ignore"):
            return np.all(X > 0.0, axis=-1) & np.all(np.isfinite(c / X), axis=-1)

    def hessian(x):
        # where x^3 overflows, 2c / x^3 is 0; where it underflows to 0, inf
        with np.errstate(over="ignore", divide="ignore"):
            return np.diag(2.0 * c / x**3)

    def third(x):
        T = np.zeros((b.size,) * 3)
        idx = np.arange(b.size)
        T[idx, idx, idx] = -6.0 * c / x**4
        return T

    def fn_many(X):
        return np.sum(b * X + c / X, axis=1)

    return Objective(
        fn=lambda x: fn_many([x])[0],
        fn_many=fn_many,
        gradient=lambda x: b - c / x**2,
        hessian=hessian,
        third_derivative=third,
        sign_constraint="positive",
        domain_check=in_domain,
        name="rational",
    )


def p4_opt_value(b: np.ndarray) -> Objective:
    """F(A) = min_x .5 x'Ax + b'x = -.5 b' A^-1 b over flattened SPD matrices.

    Concave in A (a minimum of affine functions); no Hessian oracle is
    exposed, so only the bootstrap methods apply.
    """
    b = np.asarray(b, dtype=float)
    d = b.size

    def fn_many(X):
        X = np.asarray(X, dtype=float)
        mats = X.reshape(X.shape[0], d, d)
        with np.errstate(over="ignore"):  # F is nan at a finite row whose sum overflows
            mats = (mats + mats.transpose(0, 2, 1)) / 2.0
        # a row given non-finite is solved, and fails as a lone solve fails
        solved = (slice(None) if np.isfinite(mats).all()
                  else np.isfinite(mats).all(axis=(1, 2)) | ~np.isfinite(X).all(axis=1))
        values = np.full(len(mats), np.nan)
        # matmul takes each (1, d) @ (d, 1) product as the 1-d dot ``b @ x``
        # computes, so every row sums in the same order as a lone evaluation
        sol = cholesky_solve(mats[solved], b)
        values[solved] = -0.5 * np.matmul(sol[:, None, :], b[:, None])[:, 0, 0]
        return values

    return Objective(
        fn=lambda aflat: fn_many([aflat])[0],
        fn_many=fn_many,
        sign_constraint="negative",
        name="opt_value",
    )


def p5_constraint_value(B: np.ndarray, A: np.ndarray) -> Objective:
    """F(b) = min {x' B x : A x = b} = b' (A B^-1 A')^-1 b.

    A lone evaluation solves with the Schur complement A B^-1 A'; the
    batched values and the analytic derivatives use its symmetrised inverse.
    """
    B = np.asarray(B, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    schur = A @ cholesky_solve(B, A.T)
    M = cholesky_solve(schur, np.eye(A.shape[0]))
    M = (M + M.T) / 2.0

    return Objective(
        fn=lambda bv: float(bv @ cholesky_solve(schur, bv)),
        fn_many=lambda X: np.einsum("ki,ij,kj->k", X, M, X),
        gradient=lambda bv: 2.0 * (M @ bv),
        hessian=lambda bv: 2.0 * M,
        third_derivative=lambda bv: np.zeros((A.shape[0],) * 3),
        sign_constraint="positive",
        name="constraint_value",
    )


def p6_entropy(d: int) -> Objective:
    """Discrete entropy H(p) = -sum p_i ln p_i on the d-simplex, 0 ln 0 = 0.

    Concave.  The Hessian oracle diag(-1/p_i) (zero off the support) plus
    the plug-in covariance denominator make the covariance correction equal
    (support size - 1) / (2n) exactly.
    """
    if d < 2:
        raise ContractError(f"entropy needs d >= 2, got {d}")

    def fn(p):
        p = np.asarray(p, dtype=float)
        pos = p[p > 0.0]
        return float(-np.sum(pos * np.log(pos)))

    def fn_many(P):
        P = np.asarray(P, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(P > 0.0, P * np.log(np.where(P > 0.0, P, 1.0)), 0.0)
        return -terms.sum(axis=1)

    def in_domain(P):
        P = np.asarray(P, dtype=float)
        if P.shape[-1:] != (d,):
            return np.zeros(P.shape[:-1], dtype=bool)
        return (np.abs(P.sum(axis=-1) - 1.0) <= 1e-9) & np.all(P >= -1e-9, axis=-1)

    def hessian(p):
        diag = np.where(p > 0.0, -1.0 / np.where(p > 0.0, p, 1.0), 0.0)
        return np.diag(diag)

    return Objective(
        fn=fn,
        fn_many=fn_many,
        hessian=hessian,
        sign_constraint="positive",
        domain_check=in_domain,
        cov_denominator="plugin",
        name="entropy",
    )


def p7_wasserstein() -> Objective:
    """Squared 2-Wasserstein distance between a pair of weighted empirical
    distributions, each given as its (points, weights) arrays, via the exact
    transport LP."""

    def fn(pair):
        (x, wx), (y, wy) = pair
        return transport.transport_value(x, y, wx, wy)

    def fn_many(clouds, coeffs):
        # each resample pair's costs are a submatrix of the costs between the
        # two clouds, so those are computed and checked once; if the check
        # fails, each pair's own costs are checked as fn checks them
        cost = transport.squared_distance_cost(*clouds)
        problem = (transport.TransportProblem
                   if np.all(np.isfinite(cost)) and not np.any(cost < 0)
                   else transport.TransportProblem.build)
        for cx, cy in zip(*coeffs):
            (ix, wx), (iy, wy) = mixture_row(clouds[0], cx), mixture_row(clouds[1], cy)
            yield transport.solve_transport(problem(cost[ix][:, iy], wx, wy)).value

    return Objective(fn=fn, fn_many=fn_many, paired=True, sign_constraint="positive",
                     name="wasserstein_sq")


# ---------------------------------------------------------------------------
# noise models


@dataclass
class NoiseModel:
    """Draws, for each of a block of B streams, n observations whose mean is
    the instance's truth input: a (B, n, d) stack of Euclidean sets, or for
    a paired objective (P7) a list of B pairs of (n_i, d) point clouds.  Set
    b is drawn from ``streams[b]`` alone, with the bits a block of that
    stream alone gives; ``sample`` refuses a non-finite coordinate in any
    draw."""

    draw: Callable[[int, list], object]

    def sample(self, n: int, streams):
        if n < 1:
            raise ContractError(f"need n >= 1 observations, got {n}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            sets = self.draw(n, streams)
        clouds = [sets] if isinstance(sets, np.ndarray) else [c for pair in sets for c in pair]
        if not all(np.isfinite(points).all() for points in clouds):
            raise ContractError("observation coordinates must be finite")
        return sets


def _gaussian(mean: np.ndarray, p: dict) -> NoiseModel:
    sigma = _positive(p, "sigma")
    return NoiseModel(lambda n, streams: mean + sigma * normals(streams, (n, mean.size)))


@dataclass
class ProblemInstance:
    """One concrete benchmark problem: objective, truth, and noise.

    ``truth_input`` is the (d,) point F is estimated at (None for P7).
    ``params`` holds only the scalar configuration; generated matrices and
    vectors live in ``matrices``.
    """

    id: str
    objective: Objective
    truth_input: Optional[np.ndarray]
    truth_value: float
    noise: NoiseModel
    params: dict
    matrices: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the families: each builder draws its matrices and truth from the stream and
# returns (objective, noise, truth input, truth value, matrices); the order of
# the draws is part of every recorded number


def _unit_vector(d: int, stream: RandomStream, positive: bool = False) -> np.ndarray:
    g = stream.normal(d)
    if positive:
        g = np.abs(g) + 1e-3  # keep strictly inside the positive orthant
    return g / np.linalg.norm(g)


def _truth_point(p: dict, d: int, stream: RandomStream, positive: bool = False) -> np.ndarray:
    """x* of squared norm ``xstar_norm2``; with ``positive``, inside the open
    positive orthant, which the origin is not, so there it must be > 0."""
    norm2 = _positive(p, "xstar_norm2") if positive else _nonnegative(p, "xstar_norm2")
    return math.sqrt(norm2) * _unit_vector(d, stream, positive)


def resolve_params(problem: str, declared: dict, params: dict) -> dict:
    """``problem``'s declared parameters and defaults, overridden by
    ``params``.  Refused, each by name: a parameter ``problem`` does not
    declare (named as given, key=value), a value that is not a finite float,
    a count (d, p_dim, m_samples) that is not an integer, and d < 1.  An
    integer that no float holds is named by its number of digits."""
    unknown = sorted(set(params) - set(declared))
    if unknown:
        given = ", ".join(f"{key}={described(params[key])}" for key in unknown)
        raise ContractError(f"{problem} does not take {given}; valid: {sorted(declared)}")
    p = {**declared, **params}
    for name, value in p.items():
        try:
            if value is not None and not math.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")
        except OverflowError:  # an int that no float holds
            raise ContractError(f"{name} must fit in a float, got {described(value)}") from None
    check_counts(p, ("d", "p_dim", "m_samples"))
    if p["d"] < 1:
        raise ContractError(f"d must be >= 1, got {p['d']}")
    return p


def check_counts(p: dict, names) -> None:
    """Counts must be integral: 2.0 is taken as 2; 2.5, nan and inf are refused."""
    for name in names:
        if p.get(name) is not None and p[name] % 1 != 0:
            raise ContractError(f"{name} must be an integer, got {p[name]}")


# The most cells one array of an experiment may hold: 2**28, 2 GiB of
# float64, far above every preset.  Larger sizes are refused before the
# array is built, where numpy would refuse its shape or run out of memory.
MAX_CELLS = 2**28


def check_cells(shape: str, *sizes: int) -> None:
    """Refuse an array of ``sizes``, named by ``shape`` (as "d x d"), whose
    cells would exceed ``MAX_CELLS``."""
    if math.prod(sizes) > MAX_CELLS:
        raise ContractError(f"{shape} must be at most MAX_CELLS = {MAX_CELLS} cells")


def _positive(p: dict, name: str) -> float:
    if not p[name] > 0:
        raise ContractError(f"{name} must be > 0, got {p[name]}")
    return float(p[name])


def _nonnegative(p: dict, name: str) -> float:
    if not p[name] >= 0:
        raise ContractError(f"{name} must be >= 0, got {p[name]}")
    return float(p[name])


def named(params: dict) -> str:
    """``name=value`` of each parameter, to name them in a message."""
    return ", ".join(f"{name}={value!r}" for name, value in params.items())


def _euclidean(p: dict, objective: Objective, noise: NoiseModel, x_star: np.ndarray,
               matrices: dict):
    """A Euclidean family's build; parameters that leave the truth value
    F(x*) non-finite are refused, naming them."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused as not finite
            truth_value = objective.evaluate(x_star)
    except EvaluationError:
        raise ContractError(f"F(x*) is not finite at {named(p)}") from None
    return objective, noise, x_star, truth_value, matrices


def _quadratic_form(objective):
    def build(p, d, stream):
        A = spd_with_condition(d, p["kappa"], stream)
        x_star = _truth_point(p, d, stream)
        return _euclidean(p, objective(A), _gaussian(x_star, p), x_star, {"A": A})
    return build


def _build_p3(p, d, stream):
    b = np.abs(_unit_vector(d, stream, positive=True))
    c = _positive(p, "c_norm") * np.abs(_unit_vector(d, stream, positive=True))
    x_star = _truth_point(p, d, stream, positive=True)
    # coordinatewise exponential with mean x_star, by inverse CDF
    noise = NoiseModel(lambda n, streams: -np.log1p(-uniforms(streams, (n, d))) * x_star)
    return _euclidean(p, p3_rational(b, c), noise, x_star, {"b": b, "c": c})


def _build_p4(p, d, stream):
    k = _positive(p, "k_shape")
    U = random_orthogonal(d, stream)
    lam = np.empty(d)
    lam[0] = 1.0
    if d > 1:
        lam[1] = _positive(p, "kappa")
    if d > 2:
        lam[2:] = np.exp(stream.uniform(d - 2) * np.log(p["kappa"]))
    b = _unit_vector(d, stream)

    def draw(n, streams):  # U diag(lam * xi) U' with xi ~ Gamma(k, 1/k), mean U diag(lam) U'
        # one einsum a trial: its summation order depends on the number of rows
        mats = [np.einsum("ij,nj,kj->nik", U, s.gamma(k, 1.0 / k, (n, d)) * lam, U)
                for s in streams]
        return np.stack(mats).reshape(len(streams), n, d * d)

    a_star = ((U * lam) @ U.T).ravel()
    return _euclidean(p, p4_opt_value(b), NoiseModel(draw), a_star, {"b": b, "U": U, "lam": lam})


def _build_p5(p, d, stream):
    p_dim = 2 * d if p["p_dim"] is None else int(p["p_dim"])
    if d > p_dim:
        raise ContractError(f"P5 needs d <= p_dim, got d={d}, p_dim={p_dim}")
    check_cells("p_dim x p_dim", p_dim, p_dim)
    p["p_dim"] = p_dim  # the instance's params record the p_dim it used
    B = spd_with_condition(p_dim, p["kappa"], stream)
    A = stream.normal((d, p_dim))
    b_star = _unit_vector(d, stream)
    return _euclidean(p, p5_constraint_value(B, A), _gaussian(b_star, p), b_star,
                      {"B": B, "A": A})


def _build_p6(p, d, stream):
    p_star = stream.dirichlet(_positive(p, "alpha"), d)
    cdf = categorical_cdf(p_star)

    def draw(n, streams):  # one-hot categories, by inverse CDF
        onehot = np.zeros((len(streams), n, d))
        categories = np.searchsorted(cdf, uniforms(streams, (n,)), side="right")
        np.put_along_axis(onehot, categories[..., None], 1.0, axis=-1)
        return onehot

    return _euclidean(p, p6_entropy(d), NoiseModel(draw), p_star, {})


def _build_p7(p, d, stream):
    if d > 32:
        raise ContractError("P7 is capped at d <= 32; the distance is not "
                            "meaningfully estimable from small samples beyond that")
    mu1 = np.zeros(d)
    mu2 = _nonnegative(p, "mu2_norm") * _unit_vector(d, stream)
    sigma = _positive(p, "sigma")
    m_samples = None if p["m_samples"] is None else int(_positive(p, "m_samples"))

    def draw(n, streams):  # n draws around mu1 and m_samples (default n) around mu2
        return [(mu1 + sigma * s.normal((n, d)), mu2 + sigma * s.normal((m_samples or n, d)))
                for s in streams]

    # W2^2 between the true isotropic Gaussians: ||mu1-mu2||^2 + d (s1-s2)^2
    with np.errstate(over="ignore"):
        truth_value = float(np.sum((mu1 - mu2) ** 2))
    if not math.isfinite(truth_value):
        raise ContractError(f"mu2_norm must leave the truth ||mu2||^2 finite, got {p['mu2_norm']}")
    return p7_wasserstein(), NoiseModel(draw), None, truth_value, {"mu2": mu2}


@dataclass(frozen=True)
class Family:
    """A family's parameters with their defaults, its bench preset (``n`` of
    None means 5 * d, see ``preset_n``) and the builder of its instances."""

    params: dict
    n: Optional[int]
    K: int
    methods: tuple
    build: Callable

    @property
    def axes(self) -> tuple:
        """What a sweep may vary: the parameters, then ``n`` and ``K``."""
        return (*self.params, "n", "K")

    def preset_n(self, d) -> int:
        """Observations per trial at the preset: ``n``, else 5 * d (P6)."""
        return self.n or int(5 * d)


_ALL, _BOOTSTRAP = ("shift", "scale", "cov"), ("shift", "scale")
_GAUSSIAN = {"d": 20, "kappa": 2.0, "sigma": 1.0, "xstar_norm2": 2.0}
FAMILIES = {
    "P1": Family(dict(_GAUSSIAN), 10, 10, _ALL, _quadratic_form(p1_quadratic)),
    "P2": Family(dict(_GAUSSIAN), 10, 10, _ALL, _quadratic_form(p2_quartic)),
    "P3": Family({"d": 20, "c_norm": 1.0, "xstar_norm2": 2.0}, 10, 10, _ALL, _build_p3),
    "P4": Family({"d": 6, "kappa": 2.0, "k_shape": 1.0}, 10, 100, _BOOTSTRAP, _build_p4),
    "P5": Family({"d": 10, "p_dim": None, "kappa": 2.0, "sigma": 1.0}, 10, 100, _BOOTSTRAP,
                 _build_p5),
    "P6": Family({"d": 30, "alpha": 1.0}, None, 100, _ALL, _build_p6),
    "P7": Family({"d": 5, "mu2_norm": 1.0, "sigma": 1.0, "m_samples": None}, 10, 50, _BOOTSTRAP,
                 _build_p7),
}


def get_family(name: str) -> Family:
    """The family called ``name``; the one place an unknown name is rejected."""
    if name not in FAMILIES:
        raise ContractError(f"unknown problem family {name!r}; valid: {', '.join(FAMILIES)}")
    return FAMILIES[name]


def generate_instance(family: str, params: Optional[dict] = None,
                      stream: Optional[RandomStream] = None) -> ProblemInstance:
    """Build a deterministic ProblemInstance for one of P1-P7.

    All randomness (matrices, truth inputs) comes from ``stream``; identical
    (family, params, stream) triples give identical instances.
    """
    spec = get_family(family)
    p = resolve_params(family, spec.params, params or {})
    d = int(p["d"])
    check_cells("d x d", d, d)  # the d x d matrices and Hessians
    built = spec.build(p, d, stream if stream is not None else RandomStream(0))
    objective, noise, truth_input, truth_value, matrices = built
    return ProblemInstance(family, objective, truth_input, truth_value, noise, p, matrices)


def trial_width(instance: ProblemInstance, n: int) -> int:
    """The width of a trial's widest K-row array: max(n, d) for a Euclidean
    set (K x n counts, K x d means), max(n, m_samples) for a P7 pair."""
    if instance.objective.paired:
        return max(n, int(instance.params["m_samples"] or n))  # a sweep's 7.0 counts as 7
    return max(n, instance.truth_input.size)


def check_trial_cells(instance: ProblemInstance, n: int, K: int) -> None:
    """Refuse, before any trial array is built, an experiment one of whose
    trials would hold an array above ``MAX_CELLS``: its K-row resample
    counts or means (``trial_width``) and its n x d sample; for P7 its
    n x m_samples costs and the larger cloud's points."""
    width = trial_width(instance, n)
    if instance.objective.paired:
        check_cells("n x m_samples", n, instance.params["m_samples"] or n)
        check_cells("K x max(n, m_samples)", K, width)
        check_cells("n x d", width, instance.params["d"])
    else:
        check_cells("K x max(n, d)", K, width)
        check_cells("n x d", n, instance.truth_input.size)
