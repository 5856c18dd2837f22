"""The seven benchmark families P1-P7: objectives, ground-truth generators,
and the noise models that produce observation sets whose mean is the truth.

P1  quadratic x'Ax, isotropic Gaussian noise
P2  quartic (x'Ax)^2, isotropic Gaussian noise
P3  rational sum(b_i x_i + c_i / x_i) on x > 0, coordinatewise exponential noise
P4  optimal value of min .5 x'Ax + b'x over random SPD A (gamma eigenvalue noise)
P5  optimal value of min x'Bx s.t. Ax = b over Gaussian-noisy b
P6  discrete entropy, one-hot single-sample observations of a Dirichlet truth
P7  squared 2-Wasserstein distance between two empirical distributions
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from . import transport
from .linalg import (cholesky_factor, cholesky_solve, cholesky_solve_each, random_orthogonal,
                     spd_with_condition)
from .objectives import Objective
from .observations import ContractError, EuclideanPoint, ObservationSet, mixture_weights
from .resampling import RandomStream

FAMILIES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")


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

    return Objective(
        fn=lambda x: float(x @ A @ x) ** 2,
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

    def third(x):
        T = np.zeros((b.size,) * 3)
        idx = np.arange(b.size)
        T[idx, idx, idx] = -6.0 * c / x**4
        return T

    return Objective(
        fn=lambda x: float(np.sum(b * x + c / x)),
        fn_many=lambda X: np.sum(b * X + c / X, axis=1),
        gradient=lambda x: b - c / x**2,
        hessian=lambda x: np.diag(2.0 * c / x**3),
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
        mats = (mats + mats.transpose(0, 2, 1)) / 2.0
        # one 1-d dot per row: a batched product would sum in another order
        return np.array([-0.5 * float(b @ x) for x in cholesky_solve_each(mats, b)])

    return Objective(
        fn=lambda aflat: fn_many([aflat])[0],
        fn_many=fn_many,
        sign_constraint="negative",
        name="opt_value",
    )


def p5_constraint_value(B: np.ndarray, A: np.ndarray) -> Objective:
    """F(b) = min {x' B x : A x = b} = b' (A B^-1 A')^-1 b.

    The Schur complement is factored once, so evaluations and the analytic
    derivatives share one solve path.
    """
    B = np.asarray(B, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    schur = A @ cholesky_solve(B, A.T)
    factor = cholesky_factor(schur)
    M = scipy.linalg.cho_solve(factor, np.eye(A.shape[0]))
    M = (M + M.T) / 2.0

    return Objective(
        fn=lambda bv: float(bv @ scipy.linalg.cho_solve(factor, bv)),
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
    distributions, via the exact transport LP."""

    def fn(pair):
        p, q = pair
        return transport.transport_value(p.support, q.support, p.weights, q.weights)

    def fn_many(sets, coeffs):
        # each mixture pair's costs are a submatrix of the costs between the
        # two atom tables, so those are computed and checked once; if the
        # check fails, each pair's own costs are checked as fn checks them
        cost = transport.squared_distance_cost(sets[0].atom_table[0], sets[1].atom_table[0])
        problem = (transport.TransportProblem
                   if np.all(np.isfinite(cost)) and not np.any(cost < 0)
                   else transport.TransportProblem.build)
        mixtures = [mixture_weights(s, c) for s, c in zip(sets, coeffs)]
        return (transport.solve_transport(problem(cost[lx][:, ly], wx, wy)).value
                for (lx, wx), (ly, wy) in zip(*mixtures))

    return Objective(fn=fn, fn_many=fn_many, sign_constraint="positive", name="wasserstein_sq")


# ---------------------------------------------------------------------------
# noise models


@dataclass
class NoiseModel:
    """Sampling recipe with mean equal to the instance's truth input."""

    kind: str
    params: dict = field(default_factory=dict)

    def sample(self, n: int, stream: RandomStream):
        if n < 1:
            raise ContractError(f"need n >= 1 observations, got {n}")
        p = self.params
        if self.kind == "isotropic_gaussian":
            x = p["x_star"] + p["sigma"] * stream.normal((n, p["x_star"].size))
            return ObservationSet.from_points(x)
        if self.kind == "coordinate_exponential":
            means = p["means"]
            u = stream.generator.random((n, means.size))
            return ObservationSet.from_points(-np.log1p(-u) * means)
        if self.kind == "gamma_eigen":
            U, lam, k = p["U"], p["lam"], p["k_shape"]
            d = lam.size
            xi = stream.gamma(k, 1.0 / k, (n, d))
            mats = np.einsum("ij,nj,kj->nik", U, xi * lam, U)
            return ObservationSet.from_points(mats.reshape(n, d * d))
        if self.kind == "categorical_onehot":
            p_star = p["p_star"]
            idx = stream.categorical(p_star, n)
            onehot = np.zeros((n, p_star.size))
            onehot[np.arange(n), idx] = 1.0
            return ObservationSet.from_points(onehot)
        if self.kind == "iid_dirac_pair":
            d = p["mu1"].size
            m = p["m_samples"] or n
            xs = p["mu1"] + p["sigma"] * stream.normal((n, d))
            ys = p["mu2"] + p["sigma"] * stream.normal((m, d))
            return (
                ObservationSet.from_dirac_points(xs),
                ObservationSet.from_dirac_points(ys),
            )
        raise ContractError(f"unknown noise kind {self.kind!r}")

    @property
    def mean(self) -> Optional[np.ndarray]:
        """Analytic mean of one observation, where it is a finite vector."""
        p = self.params
        if self.kind == "isotropic_gaussian":
            return p["x_star"]
        if self.kind == "coordinate_exponential":
            return p["means"]
        if self.kind == "gamma_eigen":
            return ((p["U"] * p["lam"]) @ p["U"].T).ravel()
        if self.kind == "categorical_onehot":
            return p["p_star"]
        return None


@dataclass
class ProblemInstance:
    """One concrete benchmark problem: objective, truth, and noise.

    ``params`` holds only the scalar configuration; generated matrices and
    vectors live in ``matrices``.
    """

    id: str
    objective: Objective
    truth_input: object
    truth_value: float
    noise: NoiseModel
    params: dict
    matrices: dict = field(default_factory=dict)

    @property
    def paired(self) -> bool:
        """True if an observation is a pair of empirical sets (P7), False if
        it is one Euclidean set (P1-P6)."""
        return self.noise.kind == "iid_dirac_pair"

    def sample_observations(self, n: int, stream: RandomStream):
        """n i.i.d. observations from the instance's noise model."""
        return self.noise.sample(n, stream)


# ---------------------------------------------------------------------------
# instance generation

DEFAULTS = {
    "P1": {"d": 20, "kappa": 2.0, "sigma": 1.0, "xstar_norm2": 2.0},
    "P2": {"d": 20, "kappa": 2.0, "sigma": 1.0, "xstar_norm2": 2.0},
    "P3": {"d": 20, "c_norm": 1.0, "xstar_norm2": 2.0},
    "P4": {"d": 6, "kappa": 2.0, "k_shape": 1.0},
    "P5": {"d": 10, "p_dim": None, "ratio_dp": 0.5, "kappa": 2.0, "sigma": 1.0},
    "P6": {"d": 30, "alpha": 1.0, "n_ratio": 5},
    "P7": {"d": 5, "mu2_norm": 1.0, "sigma": 1.0, "m_samples": None},
}


def dimension_scaled_n(family: str, params: dict) -> int:
    """Observation count of a family whose n grows with dimension (P6):
    ``n = n_ratio * d``, each factor from ``params`` or else ``DEFAULTS``."""
    p = {**DEFAULTS[family], **params}
    return int(p["n_ratio"] * p["d"])


def _unit_vector(d: int, stream: RandomStream, positive: bool = False) -> np.ndarray:
    g = stream.normal(d)
    if positive:
        g = np.abs(g) + 1e-3  # keep strictly inside the positive orthant
    return g / np.linalg.norm(g)


def _resolve_params(family: str, params: dict) -> dict:
    base = dict(DEFAULTS[family])
    unknown = set(params) - set(base)
    if unknown:
        raise ContractError(f"{family} does not take parameters {sorted(unknown)}; valid: {sorted(base)}")
    base.update(params)
    return base


def generate_instance(family: str, params: Optional[dict] = None,
                      stream: Optional[RandomStream] = None) -> ProblemInstance:
    """Build a deterministic ProblemInstance for one of P1-P7.

    All randomness (matrices, truth inputs) comes from ``stream``; identical
    (family, params, stream) triples give identical instances.
    """
    if family not in FAMILIES:
        raise ContractError(f"unknown problem family {family!r}; valid: {', '.join(FAMILIES)}")
    p = _resolve_params(family, params or {})
    stream = stream if stream is not None else RandomStream(0)
    d = int(p["d"])

    if family in ("P1", "P2"):
        A = spd_with_condition(d, p["kappa"], stream)
        x_star = math.sqrt(p["xstar_norm2"]) * _unit_vector(d, stream)
        objective = p1_quadratic(A) if family == "P1" else p2_quartic(A)
        noise = NoiseModel("isotropic_gaussian", {"x_star": x_star, "sigma": float(p["sigma"])})
        truth_input = EuclideanPoint(x_star)
        truth_value = objective.evaluate(truth_input)
        extra = {"A": A}

    elif family == "P3":
        b = np.abs(_unit_vector(d, stream, positive=True))
        c = p["c_norm"] * np.abs(_unit_vector(d, stream, positive=True))
        x_star = math.sqrt(p["xstar_norm2"]) * _unit_vector(d, stream, positive=True)
        objective = p3_rational(b, c)
        noise = NoiseModel("coordinate_exponential", {"means": x_star})
        truth_input = EuclideanPoint(x_star)
        truth_value = objective.evaluate(truth_input)
        extra = {"b": b, "c": c}

    elif family == "P4":
        U = random_orthogonal(d, stream)
        lam = np.empty(d)
        lam[0] = 1.0
        if d > 1:
            lam[1] = p["kappa"]
        if d > 2:
            lam[2:] = np.exp(stream.uniform(d - 2) * np.log(p["kappa"]))
        b = _unit_vector(d, stream)
        objective = p4_opt_value(b)
        a_star = (U * lam) @ U.T
        noise = NoiseModel("gamma_eigen", {"U": U, "lam": lam, "k_shape": float(p["k_shape"])})
        truth_input = EuclideanPoint(a_star.ravel())
        truth_value = objective.evaluate(truth_input)
        extra = {"b": b}

    elif family == "P5":
        p_dim = int(p["p_dim"]) if p["p_dim"] else max(d + 1, round(d / p["ratio_dp"]))
        if d > p_dim:
            raise ContractError(f"P5 needs d <= p_dim, got d={d}, p_dim={p_dim}")
        B = spd_with_condition(p_dim, p["kappa"], stream)
        A = stream.normal((d, p_dim))
        b_star = _unit_vector(d, stream)
        objective = p5_constraint_value(B, A)
        noise = NoiseModel("isotropic_gaussian", {"x_star": b_star, "sigma": float(p["sigma"])})
        truth_input = EuclideanPoint(b_star)
        truth_value = objective.evaluate(truth_input)
        p = dict(p, p_dim=p_dim)
        extra = {"B": B, "A": A}

    elif family == "P6":
        p_star = stream.dirichlet(p["alpha"], d)
        objective = p6_entropy(d)
        noise = NoiseModel("categorical_onehot", {"p_star": p_star})
        truth_input = EuclideanPoint(p_star)
        truth_value = objective.evaluate(truth_input)
        extra = {}

    elif family == "P7":
        if d > 32:
            raise ContractError("P7 is capped at d <= 32; the distance is not "
                                "meaningfully estimable from small samples beyond that")
        mu1 = np.zeros(d)
        mu2 = p["mu2_norm"] * _unit_vector(d, stream)
        sigma = float(p["sigma"])
        m_samples = int(p["m_samples"]) if p["m_samples"] else None
        objective = p7_wasserstein()
        noise = NoiseModel(
            "iid_dirac_pair",
            {"mu1": mu1, "mu2": mu2, "sigma": sigma, "m_samples": m_samples},
        )
        # W2^2 between the true isotropic Gaussians: ||mu1-mu2||^2 + d (s1-s2)^2
        truth_value = float(np.sum((mu1 - mu2) ** 2))
        truth_input = None
        extra = {"mu2": mu2}

    return ProblemInstance(family, objective, truth_input, truth_value, noise, dict(p), extra)
