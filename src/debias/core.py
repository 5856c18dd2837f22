"""The three debiasing estimators for plug-in values F(sample mean).

A convex F evaluated at a noisy sample average carries systematic positive
bias (Jensen's inequality).  Three corrections are provided:

* **shift**: additive, ``c_hat = F(xbar) - mean_k F(xtilde_k)`` over K
  bootstrap resample means, each of n draws from the input's n points (a
  cloud's own n_i); debiased value ``F(xbar) + c_hat``.
* **scale**: multiplicative, for sign-definite F,
  ``s_hat = F(xbar) * sum_k F(xtilde_k) / sum_k F(xtilde_k)^2``;
  debiased value ``s_hat * F(xbar)``.
* **covariance**: analytic second-order correction
  ``c_hat = -(1 / (2 n)) tr(C_hat H)`` from the sample covariance and a
  Hessian surrogate evaluated at the sample mean; no bootstrap needed.

All three apply unchanged to concave F: the algebra is sign-symmetric, so
debiasing -F and negating gives identical results.

Every estimate runs on a block of B inputs of the kind ``F.paired`` names
(``block_for``): ``EuclideanBlock`` (a (B, n, d) stack of Euclidean sets) or,
for a paired F, ``EmpiricalBlock`` (pairs of (n_i, d) point clouds, evaluated
and resampled through F's paired ``fn_many``).  A block exposes ``naive`` (F
at each input's mean), ``mean(b)`` and ``resample_values(plan, rngs)`` (F at
each input's K resample means, input b resampling from ``rngs[b]``); a
Euclidean block also ``covariance()``.  ``why_not`` says from F alone whether
a method applies, ``estimates`` is the method table over a block and its one
finiteness check, and ``debiased`` combines a naive value with its
correction.  ``debias`` runs a block of one input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objectives import DomainError, EvaluationError, Objective
from .observations import ContractError, ObservationSet, mixture, sample_means
from .observations import mean_observation  # noqa: F401  hooked by perfbench/spans.py
from .resampling import RandomStream


class UnsupportedMethodError(ValueError):
    """The requested method does not apply to this objective or data."""


class DegenerateDenominatorError(EvaluationError):
    """The scaling denominator sum_k F(xtilde_k)^2 vanished."""


class NonFiniteEstimateError(EvaluationError):
    """A debiased value that is not finite, of input ``index`` of its block."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class BootstrapPlan:
    """K resamples, each of the input's own n points (a P7 cloud's own n_i),
    drawn from the stream passed with the plan, not from the plan."""

    rounds: int

    def __post_init__(self):
        if self.rounds < 1:
            raise ContractError(f"rounds must be >= 1, got {self.rounds}")


@dataclass
class DebiasEstimate:
    """Result of one debiasing run by ``method``, "shift", "scale" or "cov".

    ``debiased_value`` reconstructs exactly as ``naive_value + correction``
    for the shift and covariance methods and ``correction * naive_value``
    for the scale method.  ``mean_observation`` is the input's mean: a (d,)
    array, or for a pair of clouds a pair of (points, weights) arrays.
    """

    naive_value: float
    method: str
    correction: float
    debiased_value: float
    mean_observation: object
    bootstrap_values: Optional[list[float]] = None


def bootstrap_means(points: np.ndarray, plan: BootstrapPlan,
                    rng: RandomStream) -> list[tuple[np.ndarray, np.ndarray]]:
    """The K resample mixtures of a point cloud's (n, d) points, as
    (points, weights) arrays: the k-th puts on each point its share of n
    draws with replacement, from its multinomial count vector.

    Deterministic given (point order, plan, rng state).
    """
    counts = _resample_counts(_uniform(len(points)), plan, rng)
    return [mixture(points, row / len(points)) for row in counts]


def _uniform(n: int) -> np.ndarray:
    """The uniform category vector of n points that resampling draws from."""
    return np.full(n, 1.0 / n)


def _resample_counts(p: np.ndarray, plan: BootstrapPlan, rng: RandomStream) -> np.ndarray:
    """(K, n) multinomial count matrix for the plan: n draws over the n
    categories of ``p = _uniform(n)``, which a block builds once for all its
    draws (``multinomial`` only reads it).  Over one category every row is
    1, and ``multinomial`` draws nothing from the stream to say so."""
    counts = rng.generator.multinomial(len(p), p, size=plan.rounds)
    return counts.astype(np.int64, copy=False)


def _euclidean_resample_means(centers: np.ndarray, deviations: np.ndarray,
                              counts: np.ndarray) -> np.ndarray:
    """(B, K, d) resample means of B sets from their means (B, d), their
    deviations from those means (B, n, d) and their counts (B, K, n)."""
    # centered form: a set of identical observations yields means bit-equal
    # to the sample mean for every count vector
    return centers[:, None] + (counts @ deviations) / counts.shape[-1]


class EuclideanBlock:
    """B Euclidean observation sets of one shape, as one (B, n, d) stack,
    debiased together.

    The means, the deviations and the resample means of all B sets are
    computed at once, and F is evaluated at the B*K resample means in one
    call (see ``resample_values``).  Every value is bit for bit what a block
    of that set alone gives with the same stream.
    """

    def __init__(self, F: Objective, points: np.ndarray):
        self.F = F
        self.means = sample_means(points)
        F.check_domain(self.means)  # one check for all B means
        with np.errstate(over="ignore", invalid="ignore"):  # F.finite refuses what overflows
            self.naive = [F.finite(F.fn(mean)) for mean in self.means]
        self.deviations = points - self.means[:, None]
        self.uniform = _uniform(points.shape[1])

    def mean(self, b: int) -> np.ndarray:
        return self.means[b]

    def resample_values(self, plan: BootstrapPlan, rngs) -> np.ndarray:
        """(B, K) values of F at the resample means, set b resampling from
        ``rngs[b]``.

        One ``evaluate_batch`` call checks the domain of, and evaluates, all
        B*K rows (one call per set when K < 3, see below); each row's value
        is the one its set alone would give.  Errors name the first bad row
        of the call, which for a block of one is the resample of that set.
        """
        counts = np.stack([_resample_counts(self.uniform, plan, rng) for rng in rngs])
        points = _euclidean_resample_means(self.means, self.deviations, counts)
        sets, rounds, d = points.shape
        # numpy's einsum (fn_many of P1, P2, P5) sums a batch of one or two
        # rows of two coordinates in another order than a longer batch, so
        # sets with fewer than three resamples are evaluated one call each
        batches = [points.reshape(-1, d)] if rounds >= 3 else list(points)
        try:  # a value that overflows is refused below; ``estimates`` silences numpy's warning
            values = np.concatenate([self.F.evaluate_batch(rows) for rows in batches])
        except DomainError as exc:
            raise DomainError(f"bootstrap resample: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise EvaluationError(f"non-finite F at bootstrap resample {bad[0]}")
        return values.reshape(sets, rounds)

    def covariance(self) -> list[float]:
        """Each set's ``-(1 / (2 n q)) sum_i (x_i - xbar)^T H (x_i - xbar)``, H
        the Hessian at its mean, q = n - 1 or n by ``F.cov_denominator``."""
        n = self.deviations.shape[1]
        q = n - 1 if self.F.cov_denominator == "unbiased" else n
        if q < 1:
            raise ContractError("unbiased covariance needs n >= 2")
        H = np.stack([np.asarray(self.F.hessian(mean), dtype=float) for mean in self.means])
        h = np.diagonal(H, axis1=1, axis2=2)
        # a block whose every H is diagonal (P3, P6) contracts the diagonals:
        # that kernel adds the terms in j order, the full contraction's order
        # less its zero terms, so either kernel gives a diagonal H's forms the
        # same bits, each set's forms being those of that set alone
        centered = self.deviations
        if np.count_nonzero(H) == np.count_nonzero(h):
            forms = np.einsum("bij,bj,bij->bi", centered, h, centered)
        else:
            forms = np.einsum("bij,bjk,bik->bi", centered, H, centered)
        return [-_fsum(row) / (2.0 * n * q) for row in forms.tolist()]


class EmpiricalBlock:
    """B pairs of (n_i, d) point clouds, the inputs of a paired functional
    such as P7's W2^2.

    F is evaluated only through its paired ``fn_many``: each pair's naive
    value at one uniform coefficient row per cloud, when the block is built,
    and all K resample pairs of an input from their coefficient rows in one
    call.  The two clouds of a pair are resampled independently, cloud i of
    n_i points with n_i draws from ``rng.split(i)``.
    """

    def __init__(self, F: Objective, inputs):
        self.F = F
        self.inputs = list(inputs)
        self.naive = [self._naive(obs) for obs in self.inputs]
        self.uniform = {len(s): _uniform(len(s)) for obs in self.inputs for s in obs}

    def _naive(self, obs) -> float:
        (value,) = self.F.fn_many(obs, [np.full((1, len(s)), 1.0 / len(s)) for s in obs])
        return self.F.finite(value)

    def mean(self, b: int):
        """The uniform mixtures of input b's two clouds."""
        return tuple(mixture(s, self.uniform[len(s)]) for s in self.inputs[b])

    def resample_values(self, plan: BootstrapPlan, rngs) -> list[np.ndarray]:
        """The K values of F at the resample means of each input, input b
        resampling from ``rngs[b]``; an error in value k names resample k."""
        return [self._values(obs, plan, rng) for obs, rng in zip(self.inputs, rngs)]

    def _values(self, obs, plan, rng) -> np.ndarray:
        coeffs = [_resample_counts(self.uniform[len(s)], plan, rng.split(i)) / len(s)
                  for i, s in enumerate(obs)]
        return _indexed(map(self.F.finite, self.F.fn_many(obs, coeffs)))


def block_for(F: Objective, inputs):
    """The block for a (B, n, d) stack of Euclidean sets or, for a paired F,
    for a list of pairs of (n_i, d) point clouds."""
    return (EmpiricalBlock if F.paired else EuclideanBlock)(F, inputs)


def _indexed(values) -> np.ndarray:
    """The values an iterator over the resamples yields, in order; an error
    raised while computing value k is raised again naming resample k."""
    out = []
    try:
        for value in values:
            out.append(value)
    except (EvaluationError, ValueError) as exc:
        raise type(exc)(f"bootstrap resample {len(out)}: {exc}") from exc
    return np.asarray(out)


def _fsum(terms) -> float:
    """``math.fsum`` of the terms, nan where it overflows (or adds inf to -inf)."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _shift_correction(naive: float, values) -> float:
    # A degenerate set's resample means equal its mean bit for bit, so each
    # difference is fn(mean) - fn_many's value there: exactly 0 where the two
    # sum alike (P3, P4), a few ulps of F where they do not (P1, P2, P5).
    return _fsum((naive - values).tolist()) / len(values)


def _scale_correction(naive: float, values) -> float:
    # per-term Python float products: numpy's bits without its overflow
    # warning.  On a degenerate set s is exactly 1 where fn and fn_many sum
    # alike, and within a few ulps of 1 where they do not
    values = values.tolist()
    denom = _fsum([v * v for v in values])
    if denom < 1e-300:
        raise DegenerateDenominatorError("sum of squared bootstrap values vanished")
    return _fsum([naive * v for v in values]) / denom


# method -> correction from (naive, K bootstrap values); None: the covariance correction
_TABLE = {"shift": _shift_correction, "scale": _scale_correction, "cov": None}
METHODS = tuple(_TABLE)


def why_not(method: str, F: Objective) -> Optional[str]:
    """None if the method applies to F, by its oracles and ``paired``, else why not."""
    if method not in _TABLE:
        return f"unknown method {method!r}; valid: {', '.join(METHODS)}"
    if method == "scale" and F.sign_constraint not in ("positive", "negative"):
        return "scale needs a sign-definite objective"
    if method == "cov":
        if F.paired:
            return "covariance needs Euclidean observations"
        if F.hessian is None:
            return "covariance needs a hessian oracle"
    elif F.paired and F.fn_many is None:
        return f"{method} on point clouds needs a paired fn_many"
    return None


def estimates(method: str, block, plan: Optional[BootstrapPlan], rngs):
    """The method table over a block: each input's correction and debiased
    value under ``method``, and the bootstrap values behind them (None for
    cov); input b resamples from ``rngs[b]``.  The first debiased value that
    is not finite (a correction sum that overflows is nan) raises
    NonFiniteEstimateError."""
    correction = _TABLE[method]
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        if correction is None:
            corr, values = block.covariance(), None
        else:
            values = block.resample_values(plan, rngs)
            corr = [correction(naive, v) for naive, v in zip(block.naive, values)]
    out = [debiased(method, naive, c) for naive, c in zip(block.naive, corr)]
    for b, value in enumerate(out):
        if not math.isfinite(value):
            raise NonFiniteEstimateError(f"method {method} produced {value}", b)
    return corr, out, values


def debiased(method: str, naive: float, correction: float) -> float:
    """The debiased value: scale multiplies the naive value by its
    correction, shift and cov add theirs to it."""
    return correction * naive if method == "scale" else naive + correction


def debias(method: str, F: Objective, obs, plan: Optional[BootstrapPlan] = None,
           rng: Optional[RandomStream] = None) -> DebiasEstimate:
    """Debias F at the mean of one input, an ObservationSet or, for a paired
    F (P7), a tuple of two of them, with "shift", "scale" or "cov", as a
    block of one.

    The bootstrap methods need ``plan`` and resample from ``rng`` (default
    ``RandomStream(0)``).  Before F is evaluated, a method ``why_not`` rules
    out and an input of another kind raise UnsupportedMethodError, and a
    bootstrap method without a plan raises ContractError.
    """
    reason = why_not(method, F)
    if reason:
        raise UnsupportedMethodError(reason)
    if plan is None and _TABLE[method] is not None:
        raise ContractError(f"{method} resamples, so it needs a BootstrapPlan")
    block = block_for(F, _one_input(F, obs))
    (correction,), (value,), values = estimates(method, block, plan,
                                                [RandomStream(0) if rng is None else rng])
    return DebiasEstimate(block.naive[0], method, correction, value, block.mean(0),
                          None if values is None else list(map(float, values[0])))


def _one_input(F: Objective, obs):
    """``obs`` as a block's input: a set's points as a (1, n, d) stack or, for
    a paired F, a pair of sets' points in a list; refused, named, otherwise."""
    pair = isinstance(obs, tuple) and len(obs) == 2
    if pair == F.paired and all(isinstance(s, ObservationSet) for s in (obs if pair else [obs])):
        return [tuple(s.points for s in obs)] if pair else obs.points[None]
    given = type(obs).__name__
    if isinstance(obs, (tuple, list)):
        given += f" of {len(obs)}: {', '.join(sorted({type(s).__name__ for s in obs}))}"
    want = ("a paired objective's inputs are pairs of point clouds, tuples of two "
            "ObservationSets" if F.paired else "a Euclidean objective's input is an "
            "ObservationSet (pairs of point clouds need a paired objective)")
    raise UnsupportedMethodError(f"{want}; got {given}")


def shift_debias(F: Objective, obs, plan: BootstrapPlan, rng=None) -> DebiasEstimate:
    """Additive bootstrap debiasing: F(xbar) + [F(xbar) - mean_k F(xtilde_k)]."""
    return debias("shift", F, obs, plan, rng)


def scale_debias(F: Objective, obs, plan: BootstrapPlan, rng=None) -> DebiasEstimate:
    """Multiplicative bootstrap debiasing for sign-definite F; s_hat and
    s_hat * F(xbar) are unchanged under F -> -F."""
    return debias("scale", F, obs, plan, rng)


def covariance_debias(F: Objective, obs_set: ObservationSet) -> DebiasEstimate:
    """Analytic debiasing from the sample covariance of one Euclidean set."""
    return debias("cov", F, obs_set)
