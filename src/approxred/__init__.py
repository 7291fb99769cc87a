"""approxred: approximate reduction of ODE systems.

Build reduced models by slicing out fiber coordinates, measure how far the
projected full dynamics drift from the reduced ones, test exact reducibility,
and falsify incremental-stability Lyapunov certificates by quasi-random
sampling.

Importing the package loads no numpy: each public name is looked up in its
defining module when first read (PEP 562), so the command line's front can
answer ``--version`` and ``--help`` at interpreter speed. The names are never
stored here, so ``approxred.Box`` is always ``approxred.core.Box``, even while
a tool has patched that module's attribute.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it holds
_EXPORTS = {
    "base": ("DivergenceError", "EvaluationError", "InputError", "NumericalError",
             "StepBudgetError"),
    "core": ("Box", "ComparisonFunction", "ControlSystemDef", "SystemEntry", "Trajectory",
             "VectorFieldDef"),
    "integrate": ("IntegratorConfig", "integrate_field", "resample"),
    "reduction": ("DeviationReport", "ReducibilityReport", "check_exact_reducible",
                  "construct_reduced", "estimate_delta", "measure_deviation"),
    "stability": ("CertificateReport", "IncrementalCertificate", "check_fiberwise",
                  "check_iiss", "check_iubibss", "estimate_lipschitz"),
    "systems": ("lookup", "make_ball_in_hoop", "make_cart_pendulum"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
