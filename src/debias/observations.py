"""Observation containers: Euclidean points, weighted empirical distributions,
and homogeneous sets of either.

An observation is the averageable unit the estimators work on.  Euclidean
points average coordinatewise; weighted empirical distributions (finitely
supported measures) average as mixtures, merging duplicate support points.
"""

from __future__ import annotations

import functools
import hashlib

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
    """A finitely supported distribution sum_j w_j * delta_{s_j} on R^p.

    Weights are nonnegative and sum to 1 (within 1e-12).  A Dirac delta is
    the special case of a single support point with weight 1.
    """

    __slots__ = ("support", "weights")

    def __init__(self, support, weights=None):
        s = np.atleast_2d(np.asarray(support, dtype=float))
        if s.shape[0] == 0:
            raise ContractError("WeightedEmpirical support must be nonempty")
        if not np.all(np.isfinite(s)):
            raise ContractError("WeightedEmpirical support points must be finite")
        if weights is None:
            w = np.full(s.shape[0], 1.0 / s.shape[0])
        else:
            w = np.asarray(weights, dtype=float)
        if w.shape != (s.shape[0],):
            raise ContractError("weights length must match number of support points")
        if np.any(w < 0):
            raise ContractError("WeightedEmpirical weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ContractError(f"WeightedEmpirical weights must sum to 1, got {w.sum()!r}")
        self.support = s
        self.weights = w

    @classmethod
    def dirac(cls, point) -> "WeightedEmpirical":
        return cls(np.atleast_2d(np.asarray(point, dtype=float)), np.array([1.0]))

    @property
    def dimension(self) -> int:
        return self.support.shape[1]

    def __repr__(self):
        return f"WeightedEmpirical({self.support.shape[0]} atoms in R^{self.dimension})"


Observation = EuclideanPoint | WeightedEmpirical


class ObservationSet:
    """A nonempty, homogeneous collection of observations.

    Euclidean sets are stored as one (n, d) array so means and bootstrap
    means reduce to matrix operations; empirical sets keep the observation
    list.  ``variant`` is ``"euclidean"`` or ``"empirical"``.
    """

    def __init__(self, observations):
        obs = list(observations)
        if len(obs) == 0:
            raise ContractError("ObservationSet must be nonempty")
        first = obs[0]
        if isinstance(first, EuclideanPoint):
            self.variant = "euclidean"
            dim = first.dimension
            for o in obs:
                if not isinstance(o, EuclideanPoint) or o.dimension != dim:
                    raise ContractError("ObservationSet must be homogeneous in variant and dimension")
            self.points = np.stack([o.coords for o in obs])
            self._obs = None
        elif isinstance(first, WeightedEmpirical):
            self.variant = "empirical"
            dim = first.dimension
            for o in obs:
                if not isinstance(o, WeightedEmpirical) or o.dimension != dim:
                    raise ContractError("ObservationSet must be homogeneous in variant and dimension")
            self.points = None
            self._obs = obs
        else:
            raise ContractError(f"unsupported observation type {type(first).__name__}")
        self.dimension = dim

    @classmethod
    def from_points(cls, points) -> "ObservationSet":
        """Euclidean set from an (n, d) array without per-row wrapping."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise ContractError("ObservationSet must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ContractError("observation coordinates must be finite")
        out = cls.__new__(cls)
        out.variant = "euclidean"
        out.points = pts
        out._obs = None
        out.dimension = pts.shape[1]
        return out

    @classmethod
    def from_dirac_points(cls, points) -> "ObservationSet":
        """Empirical set of Dirac deltas at the given (n, p) sample points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cls([WeightedEmpirical.dirac(p) for p in pts])

    def __len__(self) -> int:
        return self.points.shape[0] if self.variant == "euclidean" else len(self._obs)

    @functools.cached_property
    def atom_table(self):
        """The atoms of an empirical set, built once for all its mixtures:
        (support, owner, base weight, group, number of groups), where an
        atom's owner is the index of its observation and its group numbers
        the distinct atom bytes in order of first occurrence."""
        if self.variant != "empirical":
            raise ContractError("atom_table needs an empirical observation set")
        support = np.concatenate([o.support for o in self._obs])
        if not np.all(np.isfinite(support)):
            raise ContractError("WeightedEmpirical support points must be finite")
        owner = np.repeat(np.arange(len(self._obs)), [o.support.shape[0] for o in self._obs])
        base = np.concatenate([o.weights for o in self._obs])
        ids: dict[bytes, int] = {}
        group = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in support])
        return support, owner, base, group, len(ids)

    def fingerprint(self) -> int:
        """Digest of the raw data, used to assert paired trial designs; the
        same in every process."""
        if self.variant == "euclidean":
            return stable_digest([self.points.tobytes()])
        return stable_digest(part for o in self._obs
                             for part in (o.support.tobytes(), o.weights.tobytes()))


def stable_digest(chunks) -> int:
    """64-bit BLAKE2b digest of a sequence of byte strings, as an int.

    Unlike ``hash()``, it does not depend on the process's hash seed.
    """
    return int.from_bytes(hashlib.blake2b(b"".join(chunks), digest_size=8).digest(), "big")


def mixture(obs_set: ObservationSet, coeffs) -> WeightedEmpirical:
    """The mixture sum_i coeffs_i * obs_i of an empirical set's members.

    Atoms of nonpositive weight are dropped.  Atoms with the same bytes are
    merged into the first of them that is kept, their weights summed in atom
    order; the merged weights are then renormalised to sum to 1.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(obs_set),):
        raise ContractError(f"need one coefficient per observation, got shape {coeffs.shape}")
    (lead, w), = mixture_weights(obs_set, coeffs[None])
    return WeightedEmpirical(obs_set.atom_table[0][lead], w)


def mixture_weights(obs_set: ObservationSet, coeffs) -> list[tuple[np.ndarray, np.ndarray]]:
    """The mixtures of an empirical set for each row of a (K, n) coefficient
    matrix, as (indices of their atoms in ``atom_table``, weights).

    Each row is merged with ``mixture``'s arithmetic, bit for bit; the
    weights of all K rows are checked as ``WeightedEmpirical`` checks them,
    once for the batch.
    """
    _, owner, base, group, groups = obs_set.atom_table
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != len(obs_set):
        raise ContractError(f"need one coefficient per observation, got shape {coeffs.shape}")
    rounds = coeffs.shape[0]
    weights = coeffs[:, owner] * base
    row, atom = np.nonzero(weights > 0)  # the kept atoms, row by row in atom order
    # one key per (row, group); bincount adds each key's weights in atom order
    key = row * groups + group[atom]
    merged = np.bincount(key, weights=weights[row, atom], minlength=rounds * groups)
    lead = np.sort(np.unique(key, return_index=True)[1])  # the first kept atom of each group
    bounds = np.searchsorted(row[lead], np.arange(rounds + 1))
    if np.any(bounds[1:] == bounds[:-1]):
        raise ContractError("mixture has no mass")
    rows = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    w = merged[key[lead]]
    # a row's total is at least its largest kept weight, so it is positive
    totals = np.array([w[lo:hi].sum() for lo, hi in rows])
    w = w / np.repeat(totals, np.diff(bounds))  # renormalize away accumulated rounding
    if np.any(w < 0):
        raise ContractError("WeightedEmpirical weights must be nonnegative")
    bad = np.flatnonzero(~(np.abs(np.add.reduceat(w, bounds[:-1]) - 1.0) <= 1e-12))
    if bad.size:
        lo, hi = rows[bad[0]]
        raise ContractError(f"WeightedEmpirical weights must sum to 1, got {w[lo:hi].sum()!r}")
    lead = atom[lead]
    return [(lead[lo:hi], w[lo:hi]) for lo, hi in rows]


def mean_observation(obs_set: ObservationSet) -> Observation:
    """The sample average of an observation set.

    Euclidean sets average coordinatewise.  Empirical sets average as the
    uniform mixture of the member distributions: for n Dirac observations
    this is the empirical distribution with weight (count)/n on each
    distinct point.
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
