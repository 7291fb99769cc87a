"""approxred: approximate reduction of ODE systems.

Build reduced models by slicing out fiber coordinates, measure how far the
projected full dynamics drift from the reduced ones, test exact reducibility,
and falsify incremental-stability Lyapunov certificates by quasi-random
sampling.
"""

__version__ = "0.1.0"

from .core import (
    Box,
    ComparisonFunction,
    ControlSystemDef,
    Decomposition,
    DivergenceError,
    InputError,
    NumericalError,
    StepBudgetError,
    SystemEntry,
    Trajectory,
    VectorFieldDef,
    project,
)
from .integrate import (
    IntegratorConfig,
    integrate_field,
    resample,
)
from .reduction import (
    DeviationReport,
    ReducibilityReport,
    check_exact_reducible,
    construct_reduced,
    estimate_delta,
    measure_deviation,
)
from .stability import (
    CertificateReport,
    FiberwiseCertificate,
    IISSCertificate,
    IUBIBSSCertificate,
    check_fiberwise,
    check_iiss,
    check_iubibss,
    estimate_lipschitz,
)
from .systems import lookup, make_ball_in_hoop, make_cart_pendulum

__all__ = [
    "__version__",
    "Box",
    "ComparisonFunction",
    "ControlSystemDef",
    "Decomposition",
    "DivergenceError",
    "InputError",
    "NumericalError",
    "StepBudgetError",
    "Trajectory",
    "VectorFieldDef",
    "project",
    "IntegratorConfig",
    "integrate_field",
    "resample",
    "DeviationReport",
    "ReducibilityReport",
    "check_exact_reducible",
    "construct_reduced",
    "estimate_delta",
    "measure_deviation",
    "CertificateReport",
    "FiberwiseCertificate",
    "IISSCertificate",
    "IUBIBSSCertificate",
    "check_fiberwise",
    "check_iiss",
    "check_iubibss",
    "estimate_lipschitz",
    "SystemEntry",
    "lookup",
    "make_ball_in_hoop",
    "make_cart_pendulum",
]
