"""What the command line needs before any computation: the exception classes
every failure raises and the defaults its help text shows.

This module imports nothing, so that ``--version``, ``--help`` and usage
errors answer without loading numpy. Every module takes these names from
here.
"""

from __future__ import annotations

DEFAULT_SEED = 42  # Sobol scramble seed
DEFAULT_RTOL = 1e-9  # integrator tolerances
DEFAULT_ATOL = 1e-9
DEFAULT_TOL = 1e-6  # exact-reducibility tolerance
DEFAULT_GRID_POINTS = 2001  # deviation grid
DEFAULT_EXACT_SAMPLES = 512  # check-exact samples
DEFAULT_LYAPUNOV_SAMPLES = 4096  # check-lyapunov samples


class InputError(ValueError):
    """Invalid argument: wrong dimension, out-of-domain value, bad name,
    violated parameter constraint. The CLI exits 1 on it."""


class NumericalError(RuntimeError):
    """Failure of a numerical procedure; the CLI exits 2 on it.

    ``t_last`` is the last time at which an integration was still finite, or
    None where no integration failed.
    """

    t_last = None

    def __init__(self, message: str, t_last: float | None = None):
        super().__init__(message)
        self.t_last = t_last


class DivergenceError(NumericalError):
    """State became non-finite during integration."""


class StepBudgetError(NumericalError):
    """Integration exceeded its step budget before reaching the horizon."""


class EvaluationError(InputError, NumericalError):
    """A function evaluation produced a non-finite value.

    Doubles as an input error (the supplied function misbehaves) and a
    numerical failure (the CLI reports it with the numerical exit code).
    """
