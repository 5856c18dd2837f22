"""Observation containers: Euclidean points, finitely supported
distributions, and homogeneous sets of observations.

An observation is the averageable unit the estimators work on.  A set is
one (n, d) array of points.  In a Euclidean set each point is an
observation in R^d, averaged coordinatewise.  In an empirical set (a point
cloud) each point is a Dirac delta, and the set averages as a mixture: the
distribution that puts each point's coefficient on it.  Equal points are
kept as separate atoms, not merged.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


class ContractError(ValueError):
    """An input violated a documented precondition."""


class EuclideanPoint:
    """A point in R^d with finite coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.atleast_1d(np.asarray(coords, dtype=float))
        if c.ndim != 1:
            raise ContractError(f"EuclideanPoint needs a 1-d vector, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ContractError("EuclideanPoint coordinates must be finite")
        self.coords = c

    @property
    def dimension(self) -> int:
        return self.coords.shape[0]

    def __eq__(self, other):
        return isinstance(other, EuclideanPoint) and np.array_equal(self.coords, other.coords)

    def __repr__(self):
        return f"EuclideanPoint({self.coords!r})"


class WeightedEmpirical:
    """A finitely supported distribution sum_j w_j * delta_{s_j} on R^p: the
    mean or a resample of a point cloud.

    Weights are nonnegative and sum to 1 (within 1e-12).
    """

    __slots__ = ("support", "weights")

    def __init__(self, support, weights):
        s = np.atleast_2d(np.asarray(support, dtype=float))
        if s.shape[0] == 0:
            raise ContractError("WeightedEmpirical support must be nonempty")
        if not np.all(np.isfinite(s)):
            raise ContractError("WeightedEmpirical support points must be finite")
        w = np.asarray(weights, dtype=float)
        if w.shape != (s.shape[0],):
            raise ContractError("weights length must match number of support points")
        if np.any(w < 0):
            raise ContractError("WeightedEmpirical weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ContractError(f"WeightedEmpirical weights must sum to 1, got {w.sum()!r}")
        self.support = s
        self.weights = w

    def __repr__(self):
        return f"WeightedEmpirical({self.support.shape[0]} atoms in R^{self.support.shape[1]})"


Observation = EuclideanPoint | WeightedEmpirical


class ObservationSet:
    """A nonempty set of n observations of one dimension, stored as one
    (n, d) array ``points``, so means and bootstrap means reduce to matrix
    operations.  ``variant`` is ``"euclidean"`` (points in R^d) or
    ``"empirical"`` (a cloud of Dirac points, see ``from_dirac_points``).
    """

    def __init__(self, observations):
        obs = list(observations)
        if not all(isinstance(o, EuclideanPoint) for o in obs):
            raise ContractError("ObservationSet takes EuclideanPoints; build a point cloud "
                                "with from_dirac_points")
        if len({o.dimension for o in obs}) > 1:
            raise ContractError("ObservationSet must be homogeneous in dimension")
        self._hold(np.stack([o.coords for o in obs]) if obs else np.empty((0, 0)), "euclidean")

    def _hold(self, points, variant: str) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise ContractError("ObservationSet must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ContractError("observation coordinates must be finite")
        self.variant = variant
        self.points = pts
        self.dimension = pts.shape[1]

    @classmethod
    def from_points(cls, points) -> "ObservationSet":
        """Euclidean set from an (n, d) array without per-row wrapping."""
        out = cls.__new__(cls)
        out._hold(points, "euclidean")
        return out

    @classmethod
    def from_dirac_points(cls, points) -> "ObservationSet":
        """Empirical set: the point cloud of Dirac deltas at the given (n, p)
        sample points."""
        out = cls.__new__(cls)
        out._hold(points, "empirical")
        return out

    def __len__(self) -> int:
        return self.points.shape[0]

    def fingerprint(self) -> int:
        """Digest of the raw data, used to assert paired trial designs; the
        same in every process.  A cloud's digest covers each point's bytes
        followed by the bytes of its weight 1.0."""
        if self.variant == "euclidean":
            return stable_digest([self.points.tobytes()])
        return stable_digest([np.hstack([self.points, np.ones((len(self), 1))]).tobytes()])


def stable_digest(chunks) -> int:
    """64-bit BLAKE2b digest of a sequence of byte strings, as an int.

    Unlike ``hash()``, it does not depend on the process's hash seed.
    """
    return int.from_bytes(hashlib.blake2b(b"".join(chunks), digest_size=8).digest(), "big")


def mixture_row(cloud: ObservationSet, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The row rule of every mixture of a point cloud: the indices of the
    points whose coefficient is positive, in order, and those coefficients
    divided by their sum.  Equal points are not merged."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(cloud),):
        raise ContractError(f"need one coefficient per observation, got shape {coeffs.shape}")
    kept = (coeffs > 0).nonzero()[0]
    if kept.size == 0:
        raise ContractError("mixture has no mass")
    w = coeffs[kept]
    total = w.sum()
    if not math.isfinite(total):
        raise ContractError(f"mixture coefficients must be finite, got a sum of {total!r}")
    return kept, w / total


def mixture(cloud: ObservationSet, coeffs) -> WeightedEmpirical:
    """The mixture sum_i coeffs_i * delta_{x_i} of a point cloud, renormalised
    to sum to 1 (see ``mixture_row``)."""
    if cloud.variant != "empirical":
        raise ContractError("a mixture needs an empirical observation set")
    kept, w = mixture_row(cloud, coeffs)
    return WeightedEmpirical(cloud.points[kept], w)


def mean_observation(obs_set: ObservationSet) -> Observation:
    """The sample average of an observation set.

    Euclidean sets average coordinatewise.  A point cloud averages as its
    uniform mixture: weight 1/n on each of its n points.
    """
    n = len(obs_set)
    if obs_set.variant == "euclidean":
        return EuclideanPoint(sample_means(obs_set.points[None])[0])
    return mixture(obs_set, np.full(n, 1.0 / n))


def sample_means(points: np.ndarray) -> np.ndarray:
    """The means of a stack of Euclidean sets of one shape, (B, n, d) -> (B, d).

    Each set is averaged about its first point, so the mean is exact when all
    its observations coincide; a set's mean does not depend on the others.
    """
    anchor = points[:, 0]
    return anchor + (points - anchor[:, None]).mean(axis=1)
