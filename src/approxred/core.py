"""Core domain types: vector fields, control systems, trajectories,
comparison functions, axis-aligned boxes and system entries.

All types are immutable after construction and all operations are pure, so
instances can be shared freely between threads or processes.

Conventions fixed here and relied on everywhere else:

* States are 1-d float arrays; batched evaluation uses arrays of shape
  ``(N, n)`` with the state on the last axis.
* A reduction splits the state as ``x = (y, z)``: the *retained*
  coordinates ``y`` are the first ``m``, the *fiber* coordinates ``z`` the
  other ``n - m``. The retained dimension ``m`` is the whole split, and
  :func:`check_retained` is its one validity check.
* All distances are Euclidean.
* Every failure raises one of two classes: :class:`InputError` for bad input
  (CLI exit 1) or :class:`NumericalError` for a failed computation (exit 2).
  :class:`EvaluationError` is both and counts as numerical. They live in the
  numpy-free :mod:`base`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .base import InputError


def as_state(x, n: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-d float64 array, optionally checking its length."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InputError(f"expected a 1-d state vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise InputError(f"expected a state of dimension {n}, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True)
class VectorFieldDef:
    """An autonomous vector field on R^n.

    ``rhs`` maps a lone state ``(n,)`` to a velocity ``(n,)`` and a block of
    states ``(..., n)`` to the block of their velocities ``(..., n)``, with
    the same bits for a row whether it comes alone or in a block. Batched
    callers evaluate it once per block and reject an output of another shape
    with :class:`InputError`.
    """

    n: int
    rhs: Callable[[np.ndarray], np.ndarray]
    name: str = "field"

    def __post_init__(self):
        if self.n < 1:
            raise InputError("state dimension must be >= 1")

    def __call__(self, x) -> np.ndarray:
        x = as_state(x, self.n)
        out = np.asarray(self.rhs(x), dtype=float)
        if out.shape != (self.n,):
            raise InputError(
                f"rhs of '{self.name}' returned shape {out.shape}, expected ({self.n},)"
            )
        return out


@dataclass(frozen=True)
class ControlSystemDef:
    """A controlled vector field on R^n with inputs in R^m_in.

    ``rhs`` maps ``(state, input)`` to a velocity under the contract of
    :class:`VectorFieldDef`: a lone pair ``(n,), (m_in,)`` gives ``(n,)``,
    and paired blocks ``(..., n), (..., m_in)`` give ``(..., n)``.
    """

    n: int
    m_in: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.n < 1 or self.m_in < 1:
            raise InputError("state and input dimensions must be >= 1")


def check_retained(m, n: int) -> None:
    """Reject a retained dimension that leaves the retained block or the fiber
    of R^n empty: ``m`` must be an integer, not a bool, with 1 <= m < n."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 1 <= m < n:
        raise InputError(f"retained dimension m={m!r} must be an integer with 1 <= m < {n}")


@dataclass(frozen=True)
class Trajectory:
    """A sampled solution curve: strictly increasing times, one state per time.

    Integrator output always starts at t=0 with states[0] equal to the initial
    condition. ``derivs`` optionally stores the vector field evaluated at each
    node, enabling cubic Hermite resampling.
    """

    times: np.ndarray
    states: np.ndarray
    dim: int
    derivs: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or times.shape[0] < 2:
            raise InputError("a trajectory needs at least two time points")
        if not np.all(np.diff(times) > 0):
            raise InputError("trajectory times must be strictly increasing")
        if times[0] != 0.0:
            raise InputError("trajectory times must start at 0")
        if states.shape != (times.shape[0], self.dim):
            raise InputError(
                f"states shape {states.shape} inconsistent with "
                f"{times.shape[0]} times and dimension {self.dim}"
            )
        if self.derivs is not None:
            derivs = np.asarray(self.derivs, dtype=float)
            object.__setattr__(self, "derivs", derivs)
            if derivs.shape != states.shape:
                raise InputError("derivs must have the same shape as states")


@dataclass(frozen=True)
class ComparisonFunction:
    """The class-K-infinity function r -> a*r**p.

    A positive coefficient a and exponent p make it strictly increasing,
    zero at zero and unbounded, so class membership holds by construction.
    The default power 1 keeps the bits of a*r: r**1.0 is exactly r.
    """

    a: float
    p: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.a, self.p])):
            raise InputError(f"comparison function a*r**p needs finite coefficients, "
                             f"got a={self.a}, p={self.p}")
        if not (self.a > 0):
            raise InputError("coefficient a must be positive")
        if not (self.p > 0):
            raise InputError("exponent p must be positive")

    def value(self, r):
        """Evaluate at a nonnegative scalar or array of radii."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise InputError("comparison functions are defined for r >= 0 only")
        out = self.a * r**self.p
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Box:
    """A nonempty axis-aligned box, used as compact set and sampling region.

    Its bounds and widths are finite, so sampling it never overflows.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise InputError("box bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise InputError(
                f"box bounds must be finite, got {lower.tolist()} to {upper.tolist()}"
            )
        if not np.all(lower <= upper):
            raise InputError("box lower bounds must not exceed upper bounds")
        with np.errstate(over="ignore"):
            widths = upper - lower
        if not np.all(np.isfinite(widths)):
            raise InputError(f"box widths must be finite, got {widths.tolist()}")

    @classmethod
    def from_pairs(cls, pairs) -> "Box":
        pairs = [(float(lo), float(hi)) for lo, hi in pairs]
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def diameter(self) -> float:
        """Euclidean diameter (length of the main diagonal); inf, without a
        warning, only where the diameter itself is beyond float range."""
        w = self.widths
        with np.errstate(over="ignore"):
            d = np.linalg.norm(w)
            if np.isinf(d):  # the squares overflowed: scale by the largest width
                s = w.max()
                d = s * np.linalg.norm(w / s)
        return float(d)

    def corners(self) -> np.ndarray:
        """The ``2**dim`` vertices, one per row, the first coordinate slowest."""
        grids = np.meshgrid(*zip(self.lower, self.upper), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.dim)

    def concat(self, other: "Box") -> "Box":
        return Box(
            np.concatenate([self.lower, other.lower]),
            np.concatenate([self.upper, other.upper]),
        )


@dataclass(frozen=True)
class SystemEntry:
    """A registered system and everything the CLI needs to drive it: ``m`` is
    its retained dimension, and ``default_box`` maps an optional level to its
    bundled check box, if any."""

    name: str
    params: dict
    field: VectorFieldDef
    m: int
    default_ic: np.ndarray
    reduced_override: VectorFieldDef | None = None
    certificates: dict = field(default_factory=dict)
    default_box: Callable[..., Box] | None = None
