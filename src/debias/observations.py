"""Observation sets, their means and the mixtures of a point cloud, all as
plain arrays.

An observation is the averageable unit the estimators work on.  A set is
one (n, d) array of points, each an observation in R^d, and its mean is the
coordinatewise (d,) average.  A paired input (P7) is a tuple of two sets,
each a point cloud of Dirac deltas.  A cloud averages as a mixture: the
distribution that puts each point's coefficient on it, held as its
(points, weights) arrays.  Equal points are kept as separate atoms, not
merged.  A sample's digest is not an observation's concern: the harness
fingerprints its trials' samples.
"""

from __future__ import annotations

import math

import numpy as np


class ContractError(ValueError):
    """An input violated a documented precondition."""


def described(value) -> str:
    """``value`` as an error message names it: an integer that no float holds
    by its number of digits, since str() refuses one of over 4300 digits."""
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            from decimal import Decimal
            return f"an integer of {Decimal(value).adjusted() + 1} digits"
    return str(value)


class ObservationSet:
    """A nonempty set of n observations of one dimension, stored as one
    validated (n, d) array ``points`` of finite coordinates, so means and
    bootstrap means reduce to matrix operations.  Build one with
    ``from_points``.
    """

    def __init__(self, points):
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
        self.points = pts
        self.dimension = pts.shape[1]

    @classmethod
    def from_points(cls, points) -> "ObservationSet":
        """The set of the n points of an (n, d) array."""
        return cls(points)

    def __len__(self) -> int:
        return self.points.shape[0]


def mixture_row(points: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The row rule of every mixture of a point cloud's (n, d) points: the
    indices of the points whose coefficient is positive, in order, and those
    coefficients divided by their sum.  Equal points are not merged."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(points),):
        raise ContractError(f"need one coefficient per observation, got shape {coeffs.shape}")
    kept = (coeffs > 0).nonzero()[0]
    if kept.size == 0:
        raise ContractError("mixture has no mass")
    w = coeffs[kept]
    total = w.sum()
    if not math.isfinite(total):
        raise ContractError(f"mixture coefficients must be finite, got a sum of {total!r}")
    return kept, w / total


def mixture(points: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The mixture sum_i coeffs_i * delta_{x_i} of a point cloud's (n, d)
    points, renormalised to sum to 1 (see ``mixture_row``), as its
    (points, weights) arrays."""
    points = np.asarray(points, dtype=float)
    kept, w = mixture_row(points, coeffs)
    return points[kept], w


def mean_observation(obs_set: ObservationSet) -> np.ndarray:
    """The sample average of an observation set: its coordinatewise (d,) mean."""
    return sample_means(obs_set.points[None])[0]


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
