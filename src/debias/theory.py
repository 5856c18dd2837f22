"""Moment tensors, the sigma quantities, and the sufficient conditions under
which the shift/scale corrections provably reduce expected squared error.

With M2 and M4 the centered second and fourth moment tensors of the noise,
gradient g, Hessian H, and third-derivative tensor T of F at the truth:

    sigma1 = g' M2 g
    sigma2 = tr(M2 H)
    sigma3 = g_a (M2)^{ab} T_{bcd} (M2)^{cd}
    sigma4 = H_ab H_cd (M4)^{abcd}
    sigma4' like sigma4 with H replaced by H + 2 g g' / F(x*)

The shift condition margin is

    margin_shift = sigma2^2/4 - (sigma1/C_K + sqrt(sigma1 sigma4) - sigma3)

and the scale condition margin is

    margin_scale = sigma2^2/4 - (sigma1/C_K + sqrt(sigma1 sigma4')
                   - sigma3 - 4 sigma1 sigma2 / F* + 3 sigma1^2 / F*^2).

The source derivation also admits a form with sqrt(sigma2 sigma4) in the
shift condition; both margins are reported (``margin_shift_alt``) and
neither is asserted as the unique truth.

This module is the math only.  Its Monte Carlo counterpart, the paired
squared-error difference of a method against the naive estimate and its
standard error, comes from the harness's reduce
(``ExperimentSummary.mse_diff`` and ``mse_diff_se``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objectives import Objective
from .observations import ContractError, described

_MAX_M4_DIM = 20
_PSD_SLOP = 1e-10


@dataclass
class MomentTensors:
    """Centered second (d, d) and fourth (d, d, d, d) moment tensors."""

    m2: np.ndarray
    m4: np.ndarray


@dataclass
class SigmaSet:
    """The five sigma contractions and the condition margins at a given C_K."""

    sigma1: float
    sigma2: float
    sigma3: float
    sigma4: float
    sigma4_prime: Optional[float]
    f_star: float
    c_k: float
    margin_shift: float
    margin_shift_alt: float
    margin_scale: Optional[float]


@contextmanager
def _within_float64(results: str):
    """Run the block with numpy's overflow and invalid operations raised; refuse
    each float overflow, invalid result or division by 0 as a ContractError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError, ZeroDivisionError):
        raise ContractError(f"{results} is outside float64") from None


def moments_gaussian(sigma: float, d: int) -> MomentTensors:
    """Analytic tensors for N(x*, sigma^2 I): M2 = sigma^2 I and the Isserlis
    fourth moment sigma^4 (d_ab d_cd + d_ac d_bd + d_ad d_bc).  A sigma whose
    tensors leave float64 is refused."""
    if not 0 < sigma < math.inf:  # an int that no float holds is refused below
        raise ContractError(f"sigma must be finite and > 0, got {described(sigma)}")
    if d > _MAX_M4_DIM:
        raise ContractError(f"moment tensors limited to d <= {_MAX_M4_DIM}, got d={d}")
    with _within_float64(f"a moment tensor of sigma = {described(sigma)}"):
        eye = np.eye(d)
        m2 = sigma**2 * eye
        m4 = sigma**4 * (
            np.einsum("ab,cd->abcd", eye, eye)
            + np.einsum("ac,bd->abcd", eye, eye)
            + np.einsum("ad,bc->abcd", eye, eye)
        )
    return MomentTensors(m2, m4)


def _nonnegative(value: float, label: str) -> float:
    if value < -_PSD_SLOP * (1.0 + abs(value)):
        raise ContractError(f"{label} = {value} violates its PSD sign invariant")
    return max(value, 0.0)


def sigma_set(F: Objective, x_star: np.ndarray, moments: MomentTensors, c_k: float) -> SigmaSet:
    """All sigma quantities of F at x_star under the given noise moments,
    plus the shift/scale condition margins for the ratio C_K = K/n.

    F needs gradient, hessian and third derivative oracles.  The scale
    margin needs a strictly positive F(x*); otherwise
    ``sigma4_prime`` and ``margin_scale`` are None.  Results that leave
    float64, an F(x*) whose square underflows to 0 among them, are refused.
    """
    if F.gradient is None or F.hessian is None or F.third_derivative is None:
        raise ContractError("sigma_set needs gradient, hessian and third derivative oracles")
    if not (math.isfinite(c_k) and c_k > 0):
        raise ContractError(f"c_k must be finite and > 0, got {c_k}")
    x_star = np.asarray(x_star, dtype=float)
    with _within_float64("F(x*)"):
        f_star = F.evaluate(x_star)
    at = f"at F(x*) = {f_star!r} and c_k = {c_k!r}"
    with _within_float64(f"a sigma or a margin {at}"):
        g = np.asarray(F.gradient(x_star), dtype=float)
        H = np.asarray(F.hessian(x_star), dtype=float)
        T = np.asarray(F.third_derivative(x_star), dtype=float)
        m2, m4 = moments.m2, moments.m4
        sigma1 = _nonnegative(float(g @ m2 @ g), "sigma1")
        sigma2 = _nonnegative(float(np.einsum("ab,ab->", m2, H)), "sigma2")
        sigma3 = float(np.einsum("a,ab,bcd,cd->", g, m2, T, m2))
        sigma4 = _nonnegative(float(np.einsum("ab,cd,abcd->", H, H, m4)), "sigma4")
        sigma1_ck = sigma1 / c_k
        margin_shift = sigma2**2 / 4.0 - (sigma1_ck + math.sqrt(sigma1 * sigma4) - sigma3)
        margin_shift_alt = sigma2**2 / 4.0 - (sigma1_ck + math.sqrt(sigma2 * sigma4) - sigma3)
        if F.sign_constraint == "positive" and f_star > 0:
            Ap = H + 2.0 * np.outer(g, g) / f_star
            sigma4_prime = _nonnegative(float(np.einsum("ab,cd,abcd->", Ap, Ap, m4)),
                                        "sigma4_prime")
            margin_scale = sigma2**2 / 4.0 - (
                sigma1_ck
                + math.sqrt(sigma1 * sigma4_prime)
                - sigma3
                - 4.0 * sigma1 * sigma2 / f_star
                + 3.0 * sigma1**2 / f_star**2
            )
        else:
            sigma4_prime = margin_scale = None

    result = SigmaSet(sigma1, sigma2, sigma3, sigma4, sigma4_prime, f_star, c_k, margin_shift,
                      margin_shift_alt, margin_scale)
    for name, value in vars(result).items():  # Python's * and + overflow to inf silently
        if value is not None and not math.isfinite(value):
            raise ContractError(f"{name} = {value!r} {at} is outside float64")
    return result
