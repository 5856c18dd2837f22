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
    sample_means,
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
        center = mean_observation(obs_set).coords
        points = _euclidean_resample_means(center[None], (obs_set.points - center)[None],
                                           counts[None])[0]
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


def _euclidean_resample_means(centers: np.ndarray, deviations: np.ndarray,
                              counts: np.ndarray) -> np.ndarray:
    """(B, K, d) resample means of B sets from their means (B, d), their
    deviations from those means (B, n, d) and their counts (B, K, n)."""
    # centered form: a set of identical observations yields means bit-equal
    # to the sample mean for every count vector
    m = counts.sum(axis=-1, keepdims=True)
    return centers[:, None] + (counts @ deviations) / m


def _euclidean_resample_values(F: Objective, centers: np.ndarray, deviations: np.ndarray,
                              counts: np.ndarray) -> np.ndarray:
    """(B, K) values of F at the resample means of B Euclidean sets.

    One ``evaluate_batch`` call checks the domain of, and evaluates, all
    B*K rows (one call per set when K < 3, see below); each row's value is
    the one its set alone would give.  Errors name the first bad row of the
    call, which for a block of one is the resample of that set.
    """
    points = _euclidean_resample_means(centers, deviations, counts)
    sets, rounds, d = points.shape
    # numpy's einsum (fn_many of P1, P2, P5) sums a batch of one or two rows
    # of two coordinates in another order than a longer batch, so sets with
    # fewer than three resamples are evaluated one call each
    batches = [points.reshape(-1, d)] if rounds >= 3 else list(points)
    try:
        values = np.concatenate([F.evaluate_batch(rows) for rows in batches])
    except DomainError as exc:
        raise DomainError(f"bootstrap resample: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise EvaluationError(f"non-finite F at bootstrap resample {bad[0]}")
    return values.reshape(sets, rounds)


class EuclideanBlock:
    """B Euclidean observation sets of one shape, debiased together.

    The means, the deviations and the resample means of all B sets are
    computed at once, and each estimator evaluates F at the B*K resample
    means in one call (see ``_euclidean_resample_values``).  Every value is
    bit for bit what the single-set estimator gives on that set with the
    same stream.
    """

    def __init__(self, F: Objective, points: np.ndarray):
        self.F = F
        self.means = sample_means(points)
        if not np.all(np.isfinite(self.means)):
            raise ContractError("EuclideanPoint coordinates must be finite")
        self.naive = [F.evaluate(mean) for mean in self.means]
        self.deviations = points - self.means[:, None]

    def _resample_values(self, plan: BootstrapPlan, rngs) -> np.ndarray:
        n = self.deviations.shape[1]
        counts = np.stack([_resample_counts(n, plan, rng) for rng in rngs])
        return _euclidean_resample_values(self.F, self.means, self.deviations, counts)

    def shift(self, plan: BootstrapPlan, rngs) -> list[float]:
        """Each set's shift-debiased value; set b resamples from ``rngs[b]``."""
        values = self._resample_values(plan, rngs)
        return [naive + _shift_correction(naive, v) for naive, v in zip(self.naive, values)]

    def scale(self, plan: BootstrapPlan, rngs) -> list[float]:
        """Each set's scale-debiased value; set b resamples from ``rngs[b]``."""
        _require_sign_definite(self.F)
        values = self._resample_values(plan, rngs)
        return [_scale_correction(naive, v) * naive for naive, v in zip(self.naive, values)]

    def covariance(self) -> list[float]:
        """Each set's covariance-debiased value."""
        q = _covariance_q(self.F, self.deviations.shape[1], None)
        return [naive + _covariance_correction(self.F, mean, dev, q)
                for naive, mean, dev in zip(self.naive, self.means, self.deviations)]


def _mean_and_resample_values(F, obs, plan, rng, at_mean=None):
    """naive mean(s), F there, and F at the K resample means.

    ``obs`` may be one ObservationSet or a tuple of sets (paired functional
    inputs); tuple components are resampled independently, each with its own
    size, from split child streams, and F's paired ``fn_many`` (when it has
    one) evaluates all K resample pairs from their count vectors in one call.
    ``at_mean`` is (mean, F(mean)) when the caller has them already.
    """
    if at_mean is None:
        mean = (tuple(mean_observation(s) for s in obs) if isinstance(obs, tuple)
                else mean_observation(obs))
        at_mean = (mean, F.evaluate(mean))
    mean, naive = at_mean
    if isinstance(obs, tuple) and F.fn_many is not None:
        counts = [_resample_counts(len(s), plan, rng.split(i)) for i, s in enumerate(obs)]
        coeffs = [c / c.sum(axis=1, keepdims=True) for c in counts]
        values = _indexed(map(F.finite, F.fn_many(obs, coeffs)))
    elif isinstance(obs, tuple):
        per_component = [bootstrap_means(s, plan, rng.split(i)) for i, s in enumerate(obs)]
        values = _indexed(F.evaluate(r) for r in zip(*per_component))
    elif obs.variant == "euclidean":
        counts = _resample_counts(len(obs), plan, rng)
        center = mean.coords
        values = _euclidean_resample_values(F, center[None], (obs.points - center)[None],
                                           counts[None])[0]
    else:
        values = _indexed(F.evaluate(r) for r in bootstrap_means(obs, plan, rng))
    return mean, naive, values


def _indexed(values) -> np.ndarray:
    """The values an iterator over the resamples yields, in order; an error
    raised while computing value k is raised again naming resample k."""
    out = []
    values = iter(values)
    while True:
        try:
            out.append(next(values))
        except StopIteration:
            return np.asarray(out)
        except (EvaluationError, ValueError) as exc:
            raise type(exc)(f"bootstrap resample {len(out)}: {exc}") from exc


def _shift_correction(naive: float, values) -> float:
    # A degenerate set's resample means equal its mean bit for bit, so each
    # difference is fn(mean) - fn_many's value there: exactly 0 where the two
    # sum alike (P3, P4), a few ulps of F where they do not (P1, P2, P5).
    return math.fsum((naive - values).tolist()) / len(values)


def _scale_correction(naive: float, values) -> float:
    denom = math.fsum((values * values).tolist())
    if denom < 1e-300:
        raise DegenerateDenominatorError("sum of squared bootstrap values vanished")
    # per-term products: on a degenerate set s is exactly 1 where fn and
    # fn_many sum alike, and within a few ulps of 1 where they do not
    return math.fsum((naive * values).tolist()) / denom


def _require_sign_definite(F: Objective) -> None:
    if F.sign_constraint not in ("positive", "negative"):
        raise UnsupportedMethodError("scale_debias requires a sign-definite objective")


def shift_debias(F: Objective, obs, plan: BootstrapPlan, rng: Optional[RandomStream] = None,
                 at_mean=None) -> DebiasEstimate:
    """Additive bootstrap debiasing: F(xbar) + [F(xbar) - mean_k F(xtilde_k)].

    ``at_mean`` is (mean, F(mean)) of ``obs`` when the caller has them.
    """
    if rng is None:
        rng = RandomStream(plan.seed)
    mean, naive, values = _mean_and_resample_values(F, obs, plan, rng, at_mean)
    correction = _shift_correction(naive, values)
    return DebiasEstimate(
        naive_value=naive,
        method="shift_bootstrap",
        correction=correction,
        debiased_value=naive + correction,
        mean_observation=mean,
        bootstrap_values=list(map(float, values)),
    )


def scale_debias(F: Objective, obs, plan: BootstrapPlan, rng: Optional[RandomStream] = None,
                 at_mean=None) -> DebiasEstimate:
    """Multiplicative bootstrap debiasing for sign-definite F.

    A negative-signed F is handled by debiasing -F and negating, which
    reduces to the same formula: s_hat and s_hat * F(xbar) are invariant
    under F -> -F.  ``at_mean`` is (mean, F(mean)) of ``obs`` when the
    caller has them.
    """
    _require_sign_definite(F)
    if rng is None:
        rng = RandomStream(plan.seed)
    mean, naive, values = _mean_and_resample_values(F, obs, plan, rng, at_mean)
    s = _scale_correction(naive, values)
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
    if not isinstance(obs_set, ObservationSet) or obs_set.variant != "euclidean":
        raise UnsupportedMethodError("covariance_debias requires one Euclidean observation set")
    q = _covariance_q(F, len(obs_set), denominator)
    mean = mean_observation(obs_set)
    naive = F.evaluate(mean)
    correction = _covariance_correction(F, mean.coords, obs_set.points - mean.coords, q)
    return DebiasEstimate(
        naive_value=naive,
        method="covariance",
        correction=correction,
        debiased_value=naive + correction,
        mean_observation=mean,
    )


def _covariance_q(F: Objective, n: int, denominator: Optional[str]) -> int:
    """The covariance denominator q for n observations, once the method applies."""
    if F.hessian is None:
        raise UnsupportedMethodError("covariance_debias requires a hessian oracle")
    denominator = denominator or F.cov_denominator
    if denominator not in ("unbiased", "plugin"):
        raise ContractError(f"bad denominator {denominator!r}")
    if denominator == "unbiased" and n < 2:
        raise ContractError("unbiased covariance needs n >= 2")
    return n - 1 if denominator == "unbiased" else n


def _covariance_correction(F: Objective, mean: np.ndarray, centered: np.ndarray, q: int) -> float:
    H = np.asarray(F.hessian(mean), dtype=float)
    forms = np.einsum("ij,jk,ik->i", centered, H, centered)
    return -math.fsum(forms) / (2.0 * centered.shape[0] * q)


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
