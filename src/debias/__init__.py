"""Convexity-bias correction for plug-in estimates of convex functions and
functionals: shifting and scaling corrections estimated by bootstrap, the
analytic covariance correction, benchmark problem families, and numeric
checks of the theory's sufficient conditions.

The names below load their module on first use, so importing one submodule
(``debias.theory``, say) loads only the modules it imports itself."""

import importlib

_EXPORTS = {
    "core": ("BootstrapPlan", "DebiasEstimate", "DegenerateDenominatorError",
             "UnsupportedMethodError", "bootstrap_means", "covariance_debias", "debias",
             "scale_debias", "shift_debias"),
    "objectives": ("DomainError", "EvaluationError", "Objective"),
    "observations": ("ContractError", "ObservationSet", "mean_observation"),
    "resampling": ("RandomStream",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
