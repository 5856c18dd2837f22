"""Observation sets, their means and the mixtures of a point cloud, all as
plain arrays.

An observation is the averageable unit the estimators work on.  A set is
one (n, d) array of points.  In a Euclidean set each point is an
observation in R^d, averaged coordinatewise.  In an empirical set (a point
cloud) each point is a Dirac delta, and the set averages as a mixture: the
distribution that puts each point's coefficient on it, held as its
(points, weights) arrays.  Equal points are kept as separate atoms, not
merged.  A Euclidean mean is a (d,) array.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


class ContractError(ValueError):
    """An input violated a documented precondition."""


class ObservationSet:
    """A nonempty set of n observations of one dimension, stored as one
    (n, d) array ``points``, so means and bootstrap means reduce to matrix
    operations.  ``variant`` is ``"euclidean"`` (points in R^d) or
    ``"empirical"`` (a cloud of Dirac points); build one with ``from_points``
    or ``from_dirac_points``.
    """

    def __init__(self, points, variant: str):
        try:
            pts = np.atleast_2d(np.asarray(points, dtype=float))
        except ValueError as exc:  # ragged rows, or not numbers
            raise ContractError(f"observations must form an (n, d) array: {exc}") from exc
        if pts.ndim != 2:
            raise ContractError(f"observations must form an (n, d) array, got shape {pts.shape}")
        if pts.size == 0:
            raise ContractError("ObservationSet must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ContractError("observation coordinates must be finite")
        self.variant = variant
        self.points = pts
        self.dimension = pts.shape[1]

    @classmethod
    def from_points(cls, points) -> "ObservationSet":
        """Euclidean set: the n points of an (n, d) array in R^d."""
        return cls(points, "euclidean")

    @classmethod
    def from_dirac_points(cls, points) -> "ObservationSet":
        """Empirical set: the point cloud of Dirac deltas at the given (n, p)
        sample points."""
        return cls(points, "empirical")

    def __len__(self) -> int:
        return self.points.shape[0]

    def fingerprint(self) -> int:
        """Digest of the raw data, used to assert paired trial designs; the
        same in every process.  A cloud's digest covers each point's bytes
        followed by the bytes of its weight 1.0."""
        if self.variant == "euclidean":
            return fingerprints(self.points[None])[0]
        return stable_digest([np.hstack([self.points, np.ones((len(self), 1))]).tobytes()])


def fingerprints(points: np.ndarray) -> list[int]:
    """The fingerprint of each Euclidean set of a (B, n, d) stack: the digest
    of its points' bytes."""
    return [stable_digest([row.tobytes()]) for row in points]


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


def mixture(cloud: ObservationSet, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The mixture sum_i coeffs_i * delta_{x_i} of a point cloud, renormalised
    to sum to 1 (see ``mixture_row``), as its (points, weights) arrays."""
    if cloud.variant != "empirical":
        raise ContractError("a mixture needs an empirical observation set")
    kept, w = mixture_row(cloud, coeffs)
    return cloud.points[kept], w


def mean_observation(obs_set: ObservationSet) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The sample average of an observation set.

    A Euclidean set averages coordinatewise, to a (d,) array.  A point cloud
    averages as its uniform mixture: weight 1/n on each of its n points.
    """
    n = len(obs_set)
    if obs_set.variant == "euclidean":
        return sample_means(obs_set.points[None])[0]
    return mixture(obs_set, np.full(n, 1.0 / n))


def sample_means(points: np.ndarray) -> np.ndarray:
    """The means of a stack of Euclidean sets of one shape, (B, n, d) -> (B, d).

    Each set is averaged about its first point, so the mean is exact when all
    its observations coincide; a set's mean does not depend on the others.
    Finite points whose mean overflows raise ContractError.
    """
    anchor = points[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        means = anchor + (points - anchor[:, None]).mean(axis=1)
    if not np.all(np.isfinite(means)):
        raise ContractError("observation mean is not finite")
    return means
