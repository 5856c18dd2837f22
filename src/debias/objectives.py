"""The Objective type: an evaluatable target function with optional
derivative oracles, a sign constraint, and a domain predicate.

The callables take plain arrays: a (d,) coordinate vector for a Euclidean
objective, or for a paired functional a pair of ``(points, weights)``
mixtures (the means or resamples of two point clouds).  ``evaluate`` adds
domain checking and finiteness checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .observations import ContractError


class DomainError(ValueError):
    """Evaluation was requested outside the objective's domain."""


class EvaluationError(ArithmeticError):
    """The objective produced a non-finite value."""


@dataclass
class Objective:
    """An estimation target F with whatever oracles the problem provides.

    ``fn`` maps an observation value to a float.  ``gradient``, ``hessian``
    and ``third_derivative`` (when present) map a coordinate vector to the
    corresponding derivative array.  ``sign_constraint`` is one of
    ``"none"``, ``"positive"``, ``"negative"``; the scaling method requires a
    sign-definite objective.

    For Euclidean objectives, ``fn_many`` maps a (K, d) array of points to
    the K values of ``fn`` (to rounding; it may sum in another order);
    without it ``evaluate_batch`` falls back to calling ``fn`` row by row.
    A ``paired`` objective is a functional of a pair of point clouds (P7),
    and its input is a tuple of two sets.  Its ``fn_many(clouds, coeffs)``
    takes a pair of (n_i, d) point clouds and a pair of (K, n_i) coefficient
    matrices and returns an iterator over the K values of ``fn`` at the
    mixture pairs
    ``(mixture(clouds[0], coeffs[0][k]), mixture(clouds[1], coeffs[1][k]))``,
    bit for bit; an error in value k is raised by the k-th step, so the
    caller can name the resample.  F is evaluated on point clouds only
    through it, at the means too (the uniform coefficient rows).
    ``domain_check`` is a function of the last axis: a (..., d) array in,
    one boolean per point out, so one call checks a whole batch and the
    same function checks a single point.
    """

    fn: Callable
    gradient: Optional[Callable] = None
    hessian: Optional[Callable] = None
    third_derivative: Optional[Callable] = None
    sign_constraint: str = "none"
    domain_check: Optional[Callable] = None
    fn_many: Optional[Callable] = None
    paired: bool = False
    cov_denominator: str = "unbiased"
    name: str = ""

    def __post_init__(self):
        if self.sign_constraint not in ("none", "positive", "negative"):
            raise ValueError(f"bad sign_constraint {self.sign_constraint!r}")
        if self.cov_denominator not in ("unbiased", "plugin"):
            raise ValueError(f"bad cov_denominator {self.cov_denominator!r}")

    def evaluate(self, x) -> float:
        """F at one observation value; raises DomainError / EvaluationError."""
        self.check_domain(x)
        return self.finite(self.fn(x))

    def check_domain(self, points) -> None:
        """Raise DomainError unless every point (along the last axis) is inside."""
        if self.domain_check is not None and not np.all(self.domain_check(points)):
            raise DomainError(f"{self.name or 'objective'}: point outside domain")

    def finite(self, y) -> float:
        """y as a float; raises EvaluationError if it is not finite."""
        y = float(y)
        if not math.isfinite(y):
            raise EvaluationError(f"{self.name or 'objective'}: non-finite value {y}")
        return y

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """F at each row of an (K, d) array of Euclidean points."""
        points = np.asarray(points, dtype=float)
        if self.domain_check is not None:
            inside = np.asarray(self.domain_check(points), dtype=bool)
            if inside.shape != points.shape[:-1]:
                raise ContractError(f"{self.name or 'objective'}: domain_check gave shape "
                                    f"{inside.shape} for points of shape {points.shape}")
            bad = np.flatnonzero(~inside)
            if bad.size:
                raise DomainError(f"{self.name or 'objective'}: row {bad[0]} outside domain")
        if self.fn_many is not None:
            out = np.asarray(self.fn_many(points), dtype=float)
        else:
            out = np.array([float(self.fn(row)) for row in points])
        return out
