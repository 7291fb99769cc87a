"""Exact and approximate reduction machinery.

``construct_reduced`` builds the reduced field by freezing the fiber block at
zero and projecting the velocity onto the retained block. ``check_phi_related``
and ``check_exact_reducible`` decide (by sampling) whether a reduction is
exact; ``measure_deviation`` and ``estimate_delta`` quantify how far an
inexact reduction drifts from the projected full dynamics.

All verdicts here are sampling based: a REDUCIBLE_UP_TO_TOL verdict is
evidence on the sampled box, not a proof, and every negative verdict carries a
re-evaluatable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Box,
    Decomposition,
    DivergenceError,
    EvaluationError,
    InputError,
    NumericalError,
    StepBudgetError,
    VectorFieldDef,
    project,
)
from .integrate import (
    IntegratorConfig,
    integrate_field,
    integrate_on_grid,
    resample,
    sup_distance_on_grid,
)
from .numdiff import batch_eval, jacobian_batch
from .sampling import DEFAULT_SEED, row_blocks, sobol_points

DEFAULT_TOL = 1e-6
DEFAULT_GRID_POINTS = 2001
# initial conditions integrated together; bounds the grid arrays held at once
BLOCK_ROWS = 128

REDUCIBLE = "REDUCIBLE_UP_TO_TOL"
NOT_REDUCIBLE = "NOT_REDUCIBLE"


@dataclass(frozen=True)
class ReducedField:
    """The reduced vector field y -> pi_m(f(y, 0)) packaged as a field of its own."""

    parent: VectorFieldDef
    decomp: Decomposition
    field_def: VectorFieldDef

    @property
    def n(self) -> int:
        return self.decomp.m

    @property
    def rhs(self):
        return self.field_def.rhs

    def __call__(self, y) -> np.ndarray:
        return self.field_def(y)


def construct_reduced(f: VectorFieldDef, d: Decomposition) -> ReducedField:
    """Slice the field at fiber = 0 and keep the retained velocity components."""
    if d.n != f.n:
        raise InputError(f"decomposition is on R^{d.n} but field lives on R^{f.n}")
    m, k = d.m, d.k

    def rhs(y):
        y = np.asarray(y, dtype=float)
        full = np.concatenate([y, np.zeros(y.shape[:-1] + (k,))], axis=-1)
        return np.asarray(f.rhs(full), dtype=float)[..., :m]

    red = VectorFieldDef(
        n=m, rhs=rhs, params=dict(f.params), name=f"{f.name}_reduced"
    )
    return ReducedField(parent=f, decomp=d, field_def=red)


@dataclass(frozen=True)
class ReducibilityWitness:
    """A sample at which a reducibility check failed, with enough data to re-check."""

    point: np.ndarray
    magnitude: float
    component: int | None = None
    fiber_index: int | None = None


@dataclass(frozen=True)
class ReducibilityReport:
    verdict: str
    samples: int
    tol: float
    max_residual: float
    witness: ReducibilityWitness | None = None

    @property
    def reducible(self) -> bool:
        return self.verdict == REDUCIBLE


@dataclass(frozen=True)
class SmoothMap:
    """A smooth map R^n -> R^m with an optional analytic Jacobian."""

    n_in: int
    n_out: int
    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def projection(cls, d: Decomposition) -> "SmoothMap":
        P = np.zeros((d.m, d.n))
        P[: d.m, : d.m] = np.eye(d.m)
        return cls(
            n_in=d.n,
            n_out=d.m,
            fn=lambda x: np.asarray(x, dtype=float)[..., : d.m],
            jacobian=lambda _x: P,
        )


def check_phi_related(
    f: VectorFieldDef,
    g: VectorFieldDef,
    phi: SmoothMap,
    box: Box,
    n_samples: int = 512,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> ReducibilityReport:
    """Sample the relatedness residual |Dphi(x) f(x) - g(phi(x))| over a box.

    The Jacobian of ``phi`` comes from ``phi.jacobian`` when given, central
    finite differences otherwise.
    """
    if phi.n_in != f.n or phi.n_out != g.n:
        raise InputError("phi dimensions are inconsistent with the two fields")
    if box.dim != f.n:
        raise InputError("sampling box dimension does not match the full field")
    if not (tol > 0):
        raise InputError("tol must be positive")
    X = sobol_points(box, n_samples, seed)
    FX = batch_eval(f.rhs, X, f.n)
    PHIX = batch_eval(phi.fn, X, phi.n_out)
    GPHIX = batch_eval(g.rhs, PHIX, g.n)
    if phi.jacobian is not None:
        push = np.stack(
            [np.asarray(phi.jacobian(x), dtype=float) @ fx for x, fx in zip(X, FX)]
        )
    else:
        J = jacobian_batch(phi.fn, X, phi.n_out)
        push = np.einsum("nij,nj->ni", J, FX)
    residuals = np.linalg.norm(push - GPHIX, axis=1)
    if not np.all(np.isfinite(residuals)):
        bad = int(np.argmax(~np.isfinite(residuals)))
        raise EvaluationError(
            f"non-finite relatedness residual at sample {X[bad].tolist()}"
        )
    worst = int(np.argmax(residuals))
    max_res = float(residuals[worst])
    if max_res <= tol:
        return ReducibilityReport(
            verdict=REDUCIBLE, samples=n_samples, tol=tol, max_residual=max_res
        )
    return ReducibilityReport(
        verdict=NOT_REDUCIBLE,
        samples=n_samples,
        tol=tol,
        max_residual=max_res,
        witness=ReducibilityWitness(point=X[worst].copy(), magnitude=max_res),
    )


def check_exact_reducible(
    f: VectorFieldDef,
    d: Decomposition,
    box: Box,
    n_samples: int = 512,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> ReducibilityReport:
    """Test whether the retained velocity block is independent of the fiber.

    For the canonical projection the bracket-invariance condition for an exact
    reduction collapses to d f_j / d z_i = 0 for every retained component j
    and fiber coordinate i; these partials are estimated at Sobol samples by
    central differences along the fiber coordinates only, one row block of
    samples at a time.
    """
    if d.n != f.n:
        raise InputError(f"decomposition is on R^{d.n} but field lives on R^{f.n}")
    if box.dim != f.n:
        raise InputError("sampling box dimension does not match the field")
    if not (tol > 0):
        raise InputError("tol must be positive")
    X = sobol_points(box, n_samples, seed)
    fiber = range(d.m, d.n)
    best = None  # (max partial, sample index, flat entry index)
    for block in row_blocks(n_samples):
        Xb = X[block]
        J = jacobian_batch(f.rhs, Xb, f.n, cols=fiber)  # (b, n, k)
        flat = np.abs(J[:, : d.m]).reshape(len(Xb), -1)  # (b, m*k)
        if not np.all(np.isfinite(flat)):
            bad = int(np.argmax((~np.isfinite(flat)).any(axis=1)))
            raise EvaluationError(
                f"non-finite partial derivative at sample {Xb[bad].tolist()}"
            )
        row_max = flat.max(axis=1)
        i = int(np.argmax(row_max))
        # strict: a tie with an earlier block keeps the lower sample index
        if best is None or row_max[i] > best[0]:
            best = (row_max[i], block.start + i, int(np.argmax(flat[i])))
    max_partial, worst_sample, worst_entry = float(best[0]), best[1], best[2]
    comp, fib = divmod(worst_entry, d.k)
    if max_partial <= tol:
        return ReducibilityReport(
            verdict=REDUCIBLE, samples=n_samples, tol=tol, max_residual=max_partial
        )
    return ReducibilityReport(
        verdict=NOT_REDUCIBLE,
        samples=n_samples,
        tol=tol,
        max_residual=max_partial,
        witness=ReducibilityWitness(
            point=X[worst_sample].copy(),
            magnitude=max_partial,
            component=comp,
            fiber_index=fib,
        ),
    )


@dataclass(frozen=True)
class DeviationReport:
    """Pointwise and supremum distance between projected full and reduced runs."""

    sup_dev: float
    t_of_sup: float
    times: np.ndarray
    dev_series: np.ndarray
    full_projected: np.ndarray
    reduced_states: np.ndarray
    x0: np.ndarray
    horizon: float


def _grid(t_end: float, n_grid: int) -> np.ndarray:
    """The shared uniform comparison grid on [0, t_end]."""
    if n_grid < 2:
        raise InputError(f"n_grid needs at least two time points, got {n_grid}")
    return np.linspace(0.0, t_end, n_grid)


def measure_deviation(
    f: VectorFieldDef,
    d: Decomposition,
    x0,
    cfg: IntegratorConfig,
    reduced: VectorFieldDef | None = None,
    n_grid: int = DEFAULT_GRID_POINTS,
) -> DeviationReport:
    """Integrate the full field and its reduction from matched initial states.

    The full system starts at ``x0``, the reduced one at the projection of
    ``x0``; both are resampled onto a shared uniform grid of ``n_grid`` points
    and compared in the Euclidean norm of the retained block. ``reduced``
    overrides the slice construction when a system ships its own reduced form.
    """
    x0 = np.asarray(x0, dtype=float)
    grid = _grid(cfg.t_end, n_grid)
    if reduced is None:
        reduced = construct_reduced(f, d).field_def
    y0 = project(x0, d, "m")

    def labeled(which: str, fld, ic):
        try:
            return integrate_field(fld, ic, cfg)
        except (DivergenceError, StepBudgetError) as err:
            raise type(err)(f"{which} system: {err}", err.t_last) from err

    full_traj = labeled("full", f, x0)
    red_traj = labeled("reduced", reduced, y0)
    full_rs = resample(full_traj, grid)
    red_rs = resample(red_traj, grid)
    full_proj = full_rs.states[:, : d.m]
    dev = np.linalg.norm(full_proj - red_rs.states, axis=1)
    i_sup = int(np.argmax(dev))
    return DeviationReport(
        sup_dev=float(dev[i_sup]),
        t_of_sup=float(grid[i_sup]),
        times=grid,
        dev_series=dev,
        full_projected=full_proj,
        reduced_states=red_rs.states,
        x0=x0.copy(),
        horizon=cfg.t_end,
    )


@dataclass(frozen=True)
class DeltaEstimate:
    """Sampled lower estimate of the uniform deviation bound over a box.

    ``delta_hat`` is a max over finitely many sampled initial conditions, so
    it can only underestimate the true uniform bound.
    """

    delta_hat: float
    mode: str
    n_ic: int
    failures: int
    seed: int
    box: Box
    note: str = "sample-based lower estimate of the uniform deviation bound"


def estimate_delta(
    f: VectorFieldDef,
    d: Decomposition,
    S: Box,
    n_ic: int,
    cfg: IntegratorConfig,
    pair_mode: str = "projected",
    reduced: VectorFieldDef | None = None,
    seed: int = DEFAULT_SEED,
    n_grid: int = DEFAULT_GRID_POINTS,
) -> DeltaEstimate:
    """Estimate the uniform deviation bound over initial conditions in S.

    ``projected`` mode pairs each sampled full-state x0 with its own
    projection; ``cross`` mode samples independent pairs (x0 in S, y0 in the
    projection of S) and compares the projected full run against the reduced
    run from y0. Integrator failures are counted and skipped.
    """
    if pair_mode not in ("projected", "cross"):
        raise InputError(f"pair_mode must be 'projected' or 'cross', got {pair_mode!r}")
    if n_ic < 1:
        raise InputError("n_ic must be at least 1")
    grid = _grid(cfg.t_end, n_grid)
    if S.dim != f.n:
        raise InputError("sampling box dimension does not match the field")
    if reduced is None:
        reduced = construct_reduced(f, d).field_def
    if pair_mode == "projected":
        X0 = sobol_points(S, n_ic, seed)
        Y0 = X0[:, : d.m]
    else:
        P = sobol_points(S.concat(S.project(d, "m")), n_ic, seed)
        X0, Y0 = P[:, : f.n], P[:, f.n :]
    sups = []
    for start in range(0, n_ic, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        full = integrate_on_grid(f, X0[block], cfg, grid, keep=d.m)[0]
        # NaN where either run failed, as a failed full run leaves NaN values
        sups.append(sup_distance_on_grid(reduced, Y0[block], cfg, grid, full)[0])
    sups = np.concatenate(sups)
    ok = ~np.isnan(sups)
    failures = n_ic - int(ok.sum())
    if failures == n_ic:
        raise NumericalError(
            f"all {n_ic} sampled initial conditions failed to integrate"
        )
    best = sups[ok].max()
    return DeltaEstimate(
        delta_hat=float(best),
        mode=pair_mode,
        n_ic=n_ic,
        failures=failures,
        seed=seed,
        box=S,
    )
