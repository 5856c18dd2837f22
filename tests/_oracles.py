"""Test-only helpers: a quadratic form, an independent KKT solve for P5's
equality-constrained minimum, stacked iterative oracles for P4's and P5's
optimal values, finite-difference gradients and Hessians, one stream's draw
of an instance's observations, inverse-CDF categorical draws, a random
symmetric third-order tensor, a point-by-point reference mixture of a point
cloud, a per-trial reference trial, a per-set reference of the covariance
corrections, a per-resample reference of P7's
bootstrap values and trials, a transport plan's dual objective, a reader for
the results CSV, the exact resample enumeration, the jackknife, sampled
moment tensors, a finite-difference third derivative and the negation of an
objective."""

import dataclasses
import math

import numpy as np

from debias.core import (
    DebiasEstimate,
    DegenerateDenominatorError,
    UnsupportedMethodError,
    _resample_counts,
    _uniform,
    debias,
    debiased,
    why_not,
)
from debias.harness import CSV_COLUMNS, TrialRecord, _fingerprints
from debias.linalg import FactorizationError, cholesky_solve
from debias.objectives import Objective
from debias.observations import (
    ContractError,
    ObservationSet,
    mean_observation,
    mixture,
)
from debias.problems import named
from debias.resampling import RandomStream, categorical_cdf
from debias.theory import _MAX_M4_DIM, MomentTensors
from debias.transport import transport_value


def quadratic_form(A: np.ndarray, y: np.ndarray) -> float:
    """y^T A y."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.shape != (y.shape[0], y.shape[0]):
        raise ContractError(f"dimension mismatch: A {A.shape}, y {y.shape}")
    return float(y @ A @ y)


def kkt_solve(B: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Minimize x^T B x subject to A x = b, for SPD B and full-row-rank A.

    Solved through the Schur complement: x = B^{-1} A^T (A B^{-1} A^T)^{-1} b,
    with optimal value b^T (A B^{-1} A^T)^{-1} b.

    Returns
    -------
    (x, value) : minimizer and minimum value.
    """
    B = np.asarray(B, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    d, p = A.shape
    if d > p:
        raise ContractError(f"A must have full row rank, needs d <= p, got {A.shape}")
    if B.shape != (p, p) or b.shape != (d,):
        raise ContractError(f"shape mismatch: B {B.shape}, A {A.shape}, b {b.shape}")
    Binv_At = cholesky_solve(B, A.T)
    schur = A @ Binv_At
    try:
        lam = cholesky_solve(schur, b)
    except FactorizationError as exc:
        raise FactorizationError(f"A B^-1 A^T is rank deficient: {exc}") from exc
    x = Binv_At @ lam
    value = float(b @ lam)
    residual = np.linalg.norm(A @ x - b)
    if residual > 1e-9 * max(1.0, np.linalg.norm(b)):
        raise FactorizationError(f"KKT solve lost feasibility, |Ax-b| = {residual:.3e}")
    return x, value


def gradient_descent_values(As, bs, steps, iters: int) -> np.ndarray:
    """P4's oracle: for each instance i, min_x .5 x'A_i x + b_i'x after
    ``iters`` gradient steps of length ``steps[i]`` from x = 0.  The
    instances of one dimension iterate as one stack."""
    dims = np.array([len(b) for b in bs])
    values = np.empty(len(bs))
    for d in np.unique(dims):
        idx = np.flatnonzero(dims == d)
        A, b = np.stack([As[i] for i in idx]), np.stack([bs[i] for i in idx])
        step = np.asarray(steps, dtype=float)[idx, None]
        x = np.zeros_like(b)
        for _ in range(iters):
            x = x - step * (np.einsum("nij,nj->ni", A, x) + b)
        values[idx] = 0.5 * np.einsum("ni,nij,nj->n", x, A, x) + np.einsum("ni,ni->n", b, x)
    return values


def projected_gradient_values(Bs, As, bs, steps, iters: int) -> np.ndarray:
    """P5's oracle: for each instance i, min x'B_i x s.t. A_i x = b_i after
    ``iters`` projected gradient steps of length ``steps[i]`` from the
    least-norm feasible point.  All instances iterate as one stack, padded
    to the largest p: B_i with an identity block and A_i with zero columns,
    so the padded coordinates of x start at 0 and stay 0."""
    p = max(len(B) for B in Bs)
    B_pad = np.tile(np.eye(p), (len(Bs), 1, 1))
    proj, x = np.empty_like(B_pad), np.zeros((len(Bs), p))
    for i, (B, A, b) in enumerate(zip(Bs, As, bs)):
        A_pad = np.hstack([A, np.zeros((len(A), p - len(B)))])
        B_pad[i, :len(B), :len(B)] = B
        x[i, :len(B)] = np.linalg.lstsq(A, b, rcond=None)[0]
        proj[i] = np.eye(p) - A_pad.T @ np.linalg.solve(A @ A.T, A_pad)
    step = np.asarray(steps, dtype=float)[:, None]
    for _ in range(iters):
        x = x - step * np.einsum("nij,nj->ni", proj, 2.0 * np.einsum("nij,nj->ni", B_pad, x))
    return np.einsum("ni,nij,nj->n", x, B_pad, x)


def fd_derivatives(F: Objective, x: np.ndarray, h: float = 1e-6):
    """Central differences at x, step h along each axis: of ``F.fn``, the
    gradient, and of ``F.gradient``, the Hessian, column i the difference
    along axis i (not symmetrised)."""
    up, down = x + h * np.eye(x.size), x - h * np.eye(x.size)
    g = np.array([F.fn(u) - F.fn(v) for u, v in zip(up, down)]) / (2 * h)
    H = np.stack([np.asarray(F.gradient(u)) - np.asarray(F.gradient(v))
                  for u, v in zip(up, down)], axis=1) / (2 * h)
    return g, H


def sample_observations(instance, n: int, stream: RandomStream):
    """n i.i.d. observations from the instance's noise model: the block
    draw of one stream, as an ObservationSet (P7: a tuple of two)."""
    (obs,) = instance.noise.sample(n, [stream])
    if instance.objective.paired:
        return tuple(map(ObservationSet.from_points, obs))
    return ObservationSet.from_points(obs)


def covariance_reference(F: Objective, means, deviations) -> list[float]:
    """Each set's covariance correction ``-(1 / (2 n q)) sum_i (x_i - xbar)^T
    H (x_i - xbar)``, one set at a time: one ``einsum`` over the set's d x d
    Hessian, or over its diagonal when H is diagonal."""
    n = deviations.shape[1]
    q = n - 1 if F.cov_denominator == "unbiased" else n
    out = []
    for mean, centered in zip(means, deviations):
        H = np.asarray(F.hessian(mean), dtype=float)
        h = np.diag(H)
        if np.count_nonzero(H) == np.count_nonzero(h):
            forms = np.einsum("ij,j,ij->i", centered, h, centered)
        else:
            forms = np.einsum("ij,jk,ik->i", centered, H, centered)
        out.append(-math.fsum(forms) / (2.0 * n * q))
    return out


def categorical(stream: RandomStream, p, size=None):
    """Category indices distributed as ``p``, by inverse CDF on one uniform each."""
    return np.searchsorted(categorical_cdf(p), stream.generator.random(size), side="right")


def random_symmetric_tensor3(d: int, stream: RandomStream) -> np.ndarray:
    """Random rank-3 tensor symmetrized over all index permutations."""
    T = stream.normal((d, d, d))
    out = np.zeros_like(T)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out += np.transpose(T, perm)
    return out / 6.0


def mixture_reference(points, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """sum_i coeffs_i * delta_{points_i} as (points, weights) arrays, built
    point by point: each point of positive coefficient is its own atom, in
    order (equal points are not merged), and the kept coefficients are
    renormalised to sum to 1."""
    keep = [(p, c) for p, c in zip(points, coeffs) if c > 0]
    if not keep:
        raise ContractError("mixture has no mass")
    w = np.array([c for _, c in keep])
    return np.stack([p for p, _ in keep]), w / w.sum()


def run_trial_reference(instance, n, plan, methods, stream) -> TrialRecord:
    """One trial on its own: its set (or pair of sets) from split(0), then
    each method's public single-input estimator ``debias`` on split(1 + j),
    in method order."""
    obs = sample_observations(instance, n, stream.split(0))
    paired = isinstance(obs, tuple)
    naive = instance.objective.evaluate(tuple(uniform_mixture(s.points) for s in obs) if paired
                                        else mean_observation(obs))
    debiased = {}
    for j, m in enumerate(methods):
        value = debias(m, instance.objective, obs, plan, stream.split(1 + j)).debiased_value
        if not math.isfinite(value):
            raise ContractError(f"{instance.id} at {named(instance.params)}: "
                                f"trial {stream.path}: method {m} produced {value}")
        debiased[m] = value
    fingerprint = _fingerprints([tuple(s.points for s in obs)] if paired
                                else obs.points[None], paired)[0]
    return TrialRecord(naive, debiased, stream.path, fingerprint)


def uniform_mixture(points) -> tuple[np.ndarray, np.ndarray]:
    """A cloud's mean: the mixture of weight 1/n on each of its n points."""
    return mixture(points, np.full(len(points), 1.0 / len(points)))


def wasserstein_reference(p, q) -> float:
    """Squared W2 between two (points, weights) distributions, costs built
    from their points."""
    (x, wx), (y, wy) = p, q
    return transport_value(x, y, wx, wy)


def paired_coefficients_reference(clouds, plan, stream) -> list[np.ndarray]:
    """The (K, n_i) resample coefficients of each of a pair of (n_i, d) point
    clouds: cloud i draws its counts from ``stream.split(i)``, and row k is
    count vector k divided by n_i, its total."""
    out = []
    for i, points in enumerate(clouds):
        n = len(points)
        counts = _resample_counts(_uniform(n), plan, stream.split(i))
        out.append(np.stack([counts[k] / n for k in range(plan.rounds)]))
    return out


def paired_values_reference(clouds, coeffs):
    """W2^2 at each resample pair of a pair of (n_i, d) point clouds, one at
    a time: each resample is built on its own with ``mixture_reference`` and
    solved from its own cost matrix."""
    for cx, cy in zip(*coeffs):
        yield wasserstein_reference(mixture_reference(clouds[0], cx),
                                    mixture_reference(clouds[1], cy))


def paired_naive_reference(clouds) -> float:
    """W2^2 between the uniform mixtures of the two clouds."""
    p, q = (mixture_reference(c, np.full(len(c), 1.0 / len(c))) for c in clouds)
    return wasserstein_reference(p, q)


def paired_debiased_reference(method, naive, values) -> float:
    """The shift or scale debiased value from the naive value and the K
    bootstrap values."""
    if method == "shift":
        return naive + math.fsum((naive - values).tolist()) / len(values)
    s = math.fsum((naive * values).tolist()) / math.fsum((values * values).tolist())
    return s * naive


def paired_trial_reference(instance, n, plan, methods, stream) -> TrialRecord:
    """One P7 trial resample by resample: the pair from split(0), then each
    method's bootstrap values from split(1 + j), in method order."""
    clouds = tuple(s.points for s in sample_observations(instance, n, stream.split(0)))
    naive = paired_naive_reference(clouds)
    debiased = {}
    for j, m in enumerate(methods):
        coeffs = paired_coefficients_reference(clouds, plan, stream.split(1 + j))
        values = np.array(list(paired_values_reference(clouds, coeffs)))
        debiased[m] = paired_debiased_reference(m, naive, values)
    fingerprint = _fingerprints([clouds], paired=True)[0]
    return TrialRecord(naive, debiased, stream.path, fingerprint)


def paired_mse_reference(records, method, truth) -> tuple[float, float]:
    """The mean paired difference of squared errors (debiased - naive) over
    the records of an instance of value ``truth``, and its standard error
    (nan for one record), with numpy."""
    naive_sq = np.array([(rec.naive_value - truth) ** 2 for rec in records])
    deb_sq = np.array([(rec.debiased[method] - truth) ** 2 for rec in records])
    diff = deb_sq - naive_sq
    R = len(records)
    se = float(diff.std(ddof=1) / math.sqrt(R)) if R > 1 else math.nan
    return float(diff.mean()), se


def dual_value(plan, problem) -> float:
    """Dual objective u . supply + v . demand of a transport plan's potentials."""
    return float(plan.dual_row @ problem.supply + plan.dual_col @ problem.demand)


def parse_results_csv(path: str) -> list[dict]:
    """Read back a CSV written by emit_results; floats via full-precision parse."""
    rows = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != CSV_COLUMNS:
        raise ContractError(f"{path}: missing expected CSV header row")
    cols = CSV_COLUMNS.split(",")
    for ln in body[1:]:
        parts = ln.split(",")
        rec = dict(zip(cols, parts))
        rec["axis_value"] = float(rec["axis_value"]) if rec["axis_value"] else None
        for k in ("n", "K", "R", "seed"):
            rec[k] = int(rec[k])
        rec["rmse_r"] = float(rec["rmse_r"])
        rec["bias_r"] = float(rec["bias_r"])
        rows.append(rec)
    return rows


def negated(F: Objective) -> Objective:
    """-F: its value, batch value and Hessian negated, its sign flipped."""
    def neg(f):
        return None if f is None else lambda *args: -f(*args)
    flip = {"positive": "negative", "negative": "positive", "none": "none"}
    return dataclasses.replace(F, fn=neg(F.fn), fn_many=neg(F.fn_many), hessian=neg(F.hessian),
                               sign_constraint=flip[F.sign_constraint])


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def resample_distribution(obs_set: ObservationSet):
    """Yield (probability, mean observation) over all resamples of the set's
    n points.

    There are n^n equally likely index draws; draws sharing a count vector
    share a mean, so the enumeration runs over count vectors weighted by
    multinomial coefficients.  Guarded to n^n <= 1e6.
    """
    n = len(obs_set)
    if n ** n > 1_000_000:
        raise ContractError(f"exact enumeration needs n^n <= 1e6, got {n}^{n}")
    n_factorial = math.factorial(n)
    n_pow_n = n ** n
    center = mean_observation(obs_set)
    deviations = obs_set.points - center
    for counts in _compositions(n, n):
        coeff = n_factorial
        for k in counts:
            coeff //= math.factorial(k)  # exact: multinomial coefficients are integers
        weight = coeff / n_pow_n
        yield weight, center + np.asarray(counts, dtype=float) @ deviations / n


def exact_resample_expectation(obs_set: ObservationSet, statistic) -> float:
    """E[statistic(resample mean)] by exact enumeration."""
    return math.fsum(w * statistic(obs) for w, obs in resample_distribution(obs_set))


def exact_expectation_debias(F: Objective, obs_set: ObservationSet, mode: str) -> DebiasEstimate:
    """Bootstrap debiasing with the K-average replaced by the exact expectation.

    Deterministic; serves as the oracle for the randomized estimators in the
    large-K limit.
    """
    if mode not in ("shift", "scale"):
        raise ContractError(f"mode must be 'shift' or 'scale', got {mode!r}")
    reason = why_not(mode, F)
    if reason:
        raise UnsupportedMethodError(reason)
    mean = mean_observation(obs_set)
    naive = F.evaluate(mean)
    terms = [(w, F.evaluate(obs)) for w, obs in resample_distribution(obs_set)]
    if mode == "shift":
        correction = math.fsum(w * (naive - v) for w, v in terms)
    else:
        ef2 = math.fsum(w * (v * v) for w, v in terms)
        if ef2 < 1e-300:
            raise DegenerateDenominatorError("exact expectation of F^2 vanished")
        correction = math.fsum(w * (naive * v) for w, v in terms) / ef2
    return DebiasEstimate(naive, mode, correction,
                          debiased(mode, naive, correction), mean)


def jackknife_value(F: Objective, obs_set: ObservationSet) -> float:
    """The jackknife's bias-corrected value n F(xbar) - (n - 1) mean_i F(xbar_(-i)),
    each leave-one-out mean the plain average of the other n - 1 points; it
    draws no random numbers (Quenouille 1956)."""
    points = obs_set.points
    n = len(points)
    loo = [F.evaluate(np.delete(points, i, axis=0).mean(axis=0)) for i in range(n)]
    return n * F.evaluate(mean_observation(obs_set)) - (n - 1) * math.fsum(loo) / n


def moments_from_samples(samples: np.ndarray, center: np.ndarray) -> MomentTensors:
    """Empirical centered moment tensors about the given center."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    center = np.asarray(center, dtype=float)
    d = samples.shape[1]
    if d > _MAX_M4_DIM:
        raise ContractError(f"moment tensors limited to d <= {_MAX_M4_DIM}, got d={d}")
    c = samples - center
    n = samples.shape[0]
    m2 = c.T @ c / n
    m4 = np.einsum("na,nb,nc,nd->abcd", c, c, c, c) / n
    return MomentTensors(m2, m4)


def third_derivative_fd(F: Objective, x: np.ndarray) -> np.ndarray:
    """Central finite differences of the Hessian with step
    h = cbrt(eps) * max(1, |x|), symmetrized over the three indices."""
    x = np.asarray(x, dtype=float)
    if F.hessian is None:
        raise ContractError("third derivative needs a hessian oracle to difference")
    d = x.size
    h = float(np.finfo(float).eps) ** (1.0 / 3.0) * max(1.0, float(np.linalg.norm(x)))
    T = np.empty((d, d, d))
    for c in range(d):
        e = np.zeros(d)
        e[c] = h
        T[:, :, c] = (np.asarray(F.hessian(x + e)) - np.asarray(F.hessian(x - e))) / (2.0 * h)
    return (T + T.transpose(0, 2, 1) + T.transpose(2, 1, 0)
            + T.transpose(1, 0, 2) + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)) / 6.0


def crafted_pair(far, kept=None):
    """Two point clouds with a duplicate point and a -0.0 point beside 0.0;
    with ``far``, also a point whose squared distances to the other cloud
    overflow to inf.  With ``kept``, the first cloud keeps only its last
    ``kept`` points before the far one."""
    tail = [[1e200, 0.0]] if far else []
    head = [[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [2.0, -1.0], [-0.0, 0.0]]
    xs = ObservationSet.from_points(head[-kept:] + tail if kept else head + tail)
    ys = ObservationSet.from_points([[1.0, 1.0], [0.0, 2.0], [1.0, 1.0], [3.0, 0.0]])
    return xs, ys
