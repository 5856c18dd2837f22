"""The three debiasing estimators for plug-in values F(sample mean).

A convex F evaluated at a noisy sample average carries systematic positive
bias (Jensen's inequality).  Three corrections are provided:

* **shift**: additive, ``c_hat = F(xbar) - mean_k F(xtilde_k)`` over K
  bootstrap resample means; debiased value ``F(xbar) + c_hat``.
* **scale**: multiplicative, for sign-definite F,
  ``s_hat = F(xbar) * sum_k F(xtilde_k) / sum_k F(xtilde_k)^2``;
  debiased value ``s_hat * F(xbar)``.
* **covariance**: analytic second-order correction
  ``c_hat = -(1 / (2 n)) tr(C_hat H)`` from the sample covariance and a
  Hessian surrogate evaluated at the sample mean; no bootstrap needed.

All three apply unchanged to concave F: the algebra is sign-symmetric, so
debiasing -F and negating gives identical results.

``exact_expectation_debias`` replaces the K-round bootstrap average by the
exact expectation over all resamples (enumerated through multinomial count
vectors); it is the deterministic oracle the bootstrap estimators are tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objectives import DomainError, EvaluationError, Objective
from .observations import (
    ContractError,
    EuclideanPoint,
    Observation,
    ObservationSet,
    mean_observation,
    mixture,
)
from .resampling import RandomStream


class UnsupportedMethodError(ValueError):
    """The requested method does not apply to this objective or data."""


class DegenerateDenominatorError(EvaluationError):
    """The scaling denominator sum_k F(xtilde_k)^2 vanished."""


@dataclass(frozen=True)
class BootstrapPlan:
    """Resampling plan: K rounds of resamples of size m (default m = n)."""

    rounds: int
    size: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ContractError(f"rounds must be >= 1, got {self.rounds}")
        if self.size is not None and self.size < 1:
            raise ContractError(f"size must be >= 1, got {self.size}")


@dataclass
class DebiasEstimate:
    """Result of one debiasing run.

    ``debiased_value`` reconstructs exactly as ``naive_value + correction``
    for the shift and covariance methods and ``correction * naive_value``
    for the scale method.
    """

    naive_value: float
    method: str
    correction: float
    debiased_value: float
    mean_observation: object
    bootstrap_values: Optional[list[float]] = None


def bootstrap_means(obs_set: ObservationSet, plan: BootstrapPlan, rng: RandomStream) -> list[Observation]:
    """K resample means: the k-th is the mean of m draws with replacement.

    Each resample is represented by its multinomial count vector over the n
    observations; the mean is the count-weighted average.  Deterministic
    given (set order, plan, rng state).
    """
    counts = _resample_counts(len(obs_set), plan, rng)
    if obs_set.variant == "euclidean":
        points = _euclidean_resample_means(obs_set, counts)
        return [EuclideanPoint(p) for p in points]
    m = counts.sum(axis=1)
    return [mixture(obs_set, counts[k] / m[k]) for k in range(counts.shape[0])]


def _resample_counts(n: int, plan: BootstrapPlan, rng: RandomStream) -> np.ndarray:
    """(K, n) multinomial count matrix for the plan."""
    m = plan.size if plan.size is not None else n
    if n == 1:
        return np.full((plan.rounds, 1), m, dtype=np.int64)
    counts = rng.generator.multinomial(m, np.full(n, 1.0 / n), size=plan.rounds)
    return counts.astype(np.int64)


def _euclidean_resample_means(obs_set: ObservationSet, counts: np.ndarray) -> np.ndarray:
    # centered form: a set of identical observations yields means bit-equal
    # to the sample mean for every count vector
    center = mean_observation(obs_set).coords
    m = counts.sum(axis=1, keepdims=True)
    return center + (counts @ (obs_set.points - center)) / m


def _mean_and_resample_values(F, obs, plan, rng):
    """naive mean(s), F there, and F at the K resample means.

    ``obs`` may be one ObservationSet or a tuple of sets (paired functional
    inputs); tuple components are resampled independently, each with its own
    size, from split child streams.
    """
    if isinstance(obs, tuple):
        means = tuple(mean_observation(s) for s in obs)
        naive = F.evaluate(means)
        per_component = []
        for i, component in enumerate(obs):
            per_component.append(bootstrap_means(component, plan, rng.split(i)))
        values = []
        for k, resample in enumerate(zip(*per_component)):
            values.append(_evaluate_indexed(F, resample, k))
        return means, naive, np.asarray(values)

    mean = mean_observation(obs)
    naive = F.evaluate(mean)
    if obs.variant == "euclidean":
        counts = _resample_counts(len(obs), plan, rng)
        points = _euclidean_resample_means(obs, counts)
        try:
            values = F.evaluate_batch(points)
        except DomainError as exc:
            raise DomainError(f"bootstrap resample: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise EvaluationError(f"non-finite F at bootstrap resample {bad[0]}")
        return mean, naive, values
    values = [_evaluate_indexed(F, r, k) for k, r in enumerate(bootstrap_means(obs, plan, rng))]
    return mean, naive, np.asarray(values)


def _evaluate_indexed(F, observation, k):
    try:
        return F.evaluate(observation)
    except (EvaluationError, ValueError) as exc:
        raise type(exc)(f"bootstrap resample {k}: {exc}") from exc


def shift_debias(F: Objective, obs, plan: BootstrapPlan, rng: Optional[RandomStream] = None) -> DebiasEstimate:
    """Additive bootstrap debiasing: F(xbar) + [F(xbar) - mean_k F(xtilde_k)]."""
    if rng is None:
        rng = RandomStream(plan.seed)
    mean, naive, values = _mean_and_resample_values(F, obs, plan, rng)
    # paired differences: exactly zero for a degenerate observation set
    correction = math.fsum(naive - v for v in values) / len(values)
    return DebiasEstimate(
        naive_value=naive,
        method="shift_bootstrap",
        correction=correction,
        debiased_value=naive + correction,
        mean_observation=mean,
        bootstrap_values=list(map(float, values)),
    )


def scale_debias(F: Objective, obs, plan: BootstrapPlan, rng: Optional[RandomStream] = None) -> DebiasEstimate:
    """Multiplicative bootstrap debiasing for sign-definite F.

    A negative-signed F is handled by debiasing -F and negating, which
    reduces to the same formula: s_hat and s_hat * F(xbar) are invariant
    under F -> -F.
    """
    if F.sign_constraint not in ("positive", "negative"):
        raise UnsupportedMethodError("scale_debias requires a sign-definite objective")
    if rng is None:
        rng = RandomStream(plan.seed)
    mean, naive, values = _mean_and_resample_values(F, obs, plan, rng)
    denom = math.fsum(v * v for v in values)
    if denom < 1e-300:
        raise DegenerateDenominatorError("sum of squared bootstrap values vanished")
    # per-term products: s is exactly 1 for a degenerate observation set
    s = math.fsum(naive * v for v in values) / denom
    return DebiasEstimate(
        naive_value=naive,
        method="scale_bootstrap",
        correction=s,
        debiased_value=s * naive,
        mean_observation=mean,
        bootstrap_values=list(map(float, values)),
    )


def covariance_debias(F: Objective, obs_set: ObservationSet, denominator: Optional[str] = None) -> DebiasEstimate:
    """Second-order analytic debiasing from the sample covariance.

    ``c_hat = -(1 / (2 n q)) sum_i (x_i - xbar)^T H (x_i - xbar)`` where H is
    the Hessian oracle at the sample mean and q is n-1 (``"unbiased"``) or n
    (``"plugin"``).  The entropy objective uses the plug-in form, for which
    the correction equals (support size - 1) / (2 n) exactly.
    """
    if F.hessian is None:
        raise UnsupportedMethodError("covariance_debias requires a hessian oracle")
    if not isinstance(obs_set, ObservationSet) or obs_set.variant != "euclidean":
        raise UnsupportedMethodError("covariance_debias requires one Euclidean observation set")
    denominator = denominator or F.cov_denominator
    if denominator not in ("unbiased", "plugin"):
        raise ContractError(f"bad denominator {denominator!r}")
    n = len(obs_set)
    if denominator == "unbiased" and n < 2:
        raise ContractError("unbiased covariance needs n >= 2")
    mean = mean_observation(obs_set)
    naive = F.evaluate(mean)
    H = np.asarray(F.hessian(mean.coords), dtype=float)
    centered = obs_set.points - mean.coords
    forms = np.einsum("ij,jk,ik->i", centered, H, centered)
    q = n - 1 if denominator == "unbiased" else n
    correction = -math.fsum(forms) / (2.0 * n * q)
    return DebiasEstimate(
        naive_value=naive,
        method="covariance",
        correction=correction,
        debiased_value=naive + correction,
        mean_observation=mean,
    )


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def resample_distribution(obs_set: ObservationSet, resample_size: Optional[int] = None):
    """Yield (probability, mean observation) over all size-m resamples.

    There are n^m equally likely index draws; draws sharing a count vector
    share a mean, so the enumeration runs over count vectors weighted by
    multinomial coefficients.  Guarded to n^m <= 1e6.
    """
    n = len(obs_set)
    m = resample_size if resample_size is not None else n
    if n ** m > 1_000_000:
        raise ContractError(f"exact enumeration needs n^m <= 1e6, got {n}^{m}")
    m_factorial = math.factorial(m)
    n_pow_m = n ** m
    if obs_set.variant == "euclidean":
        center = mean_observation(obs_set).coords
        deviations = obs_set.points - center
    for counts in _compositions(m, n):
        coeff = m_factorial
        for k in counts:
            coeff //= math.factorial(k)  # exact: multinomial coefficients are integers
        weight = coeff / n_pow_m
        arr = np.asarray(counts, dtype=float)
        if obs_set.variant == "euclidean":
            obs = EuclideanPoint(center + arr @ deviations / m)
        else:
            obs = mixture(obs_set, arr / m)
        yield weight, obs


def exact_resample_expectation(obs_set: ObservationSet, statistic, resample_size: Optional[int] = None) -> float:
    """E[statistic(resample mean)] by exact enumeration."""
    total = math.fsum(w * statistic(obs) for w, obs in resample_distribution(obs_set, resample_size))
    return total


def exact_expectation_debias(F: Objective, obs_set: ObservationSet, mode: str,
                             resample_size: Optional[int] = None) -> DebiasEstimate:
    """Bootstrap debiasing with the K-average replaced by the exact expectation.

    Deterministic; serves as the oracle for the randomized estimators in the
    large-K limit.
    """
    if mode not in ("shift", "scale"):
        raise ContractError(f"mode must be 'shift' or 'scale', got {mode!r}")
    if mode == "scale" and F.sign_constraint not in ("positive", "negative"):
        raise UnsupportedMethodError("scale mode requires a sign-definite objective")
    mean = mean_observation(obs_set)
    naive = F.evaluate(mean)
    diff_terms = []
    num_terms = []
    ef2_terms = []
    for w, obs in resample_distribution(obs_set, resample_size):
        v = F.evaluate(obs)
        diff_terms.append(w * (naive - v))
        num_terms.append(w * (naive * v))
        ef2_terms.append(w * (v * v))
    if mode == "shift":
        correction = math.fsum(diff_terms)
        return DebiasEstimate(naive, "shift_bootstrap", correction, naive + correction, mean)
    ef2 = math.fsum(ef2_terms)
    if ef2 < 1e-300:
        raise DegenerateDenominatorError("exact expectation of F^2 vanished")
    s = math.fsum(num_terms) / ef2
    return DebiasEstimate(naive, "scale_bootstrap", s, s * naive, mean)
