"""Convexity-bias correction for plug-in estimates of convex functions and
functionals: shifting and scaling corrections estimated by bootstrap, the
analytic covariance correction, benchmark problem families, and numeric
checks of the theory's sufficient conditions."""

from .core import (
    BootstrapPlan,
    DebiasEstimate,
    DegenerateDenominatorError,
    UnsupportedMethodError,
    bootstrap_means,
    covariance_debias,
    debias,
    scale_debias,
    shift_debias,
)
from .objectives import DomainError, EvaluationError, Objective
from .observations import ContractError, ObservationSet, mean_observation
from .resampling import RandomStream

__all__ = [
    "BootstrapPlan",
    "ContractError",
    "DebiasEstimate",
    "DegenerateDenominatorError",
    "DomainError",
    "EvaluationError",
    "Objective",
    "ObservationSet",
    "RandomStream",
    "UnsupportedMethodError",
    "bootstrap_means",
    "covariance_debias",
    "debias",
    "mean_observation",
    "scale_debias",
    "shift_debias",
]

__version__ = "0.1.0"
