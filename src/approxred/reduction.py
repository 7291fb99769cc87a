"""Exact and approximate reduction machinery.

``construct_reduced`` builds the reduced field by freezing the fiber block at
zero and projecting the velocity onto the retained block.
``check_exact_reducible`` decides (by sampling) whether that reduction is
exact; ``measure_deviation``, ``sweep_deviation`` and ``estimate_delta``
quantify how far an inexact reduction drifts from the projected full dynamics.

All verdicts here are sampling based: a REDUCIBLE_UP_TO_TOL verdict is
evidence on the sampled box, not a proof, and every negative verdict carries a
re-evaluatable witness.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .numdiff import jacobian_batch
from .sampling import DEFAULT_SEED, sobol_blocks, sobol_points

DEFAULT_TOL = 1e-6
DEFAULT_GRID_POINTS = 2001
MAX_GRID_POINTS = 100_000
# initial conditions (or swept fields) integrated together, fewer where the
# grid values a block holds, (rows, n_grid, m) float64 for the full runs and
# for a sweep's reduced runs as well, would pass _STORE_BYTES
BLOCK_ROWS = 128
_STORE_BYTES = 8 << 20

REDUCIBLE = "REDUCIBLE_UP_TO_TOL"
NOT_REDUCIBLE = "NOT_REDUCIBLE"


def construct_reduced(f: VectorFieldDef, d: Decomposition) -> VectorFieldDef:
    """The reduced field y -> pi_m(f(y, 0)): slice the field at fiber = 0 and
    keep the retained velocity components."""
    if d.n != f.n:
        raise InputError(f"decomposition is on R^{d.n} but field lives on R^{f.n}")
    m, k = d.m, d.k

    def rhs(y):
        y = np.asarray(y, dtype=float)
        full = np.concatenate([y, np.zeros(y.shape[:-1] + (k,))], axis=-1)
        return np.asarray(f.rhs(full), dtype=float)[..., :m]

    return VectorFieldDef(n=m, rhs=rhs, params=dict(f.params), name=f"{f.name}_reduced")


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
    central differences along the fiber coordinates only, one streamed block
    of samples at a time.
    """
    if d.n != f.n:
        raise InputError(f"decomposition is on R^{d.n} but field lives on R^{f.n}")
    if box.dim != f.n:
        raise InputError("sampling box dimension does not match the field")
    if not (tol > 0):
        raise InputError("tol must be positive")
    m, fiber = d.m, range(d.m, d.n)

    def retained(X):  # each FD difference keeps the m retained rows only
        return np.asarray(f.rhs(X), dtype=float)[..., :m]

    best = None  # (max partial, flat entry index, sample)
    with np.errstate(all="ignore"):  # a non-finite partial raises EvaluationError
        for _start, Xb in sobol_blocks(box, n_samples, seed):
            J = jacobian_batch(retained, Xb, m, cols=fiber)  # (b, m, k)
            flat = np.abs(J).reshape(len(Xb), -1)  # (b, m*k)
            if not np.all(np.isfinite(flat)):
                bad = int(np.argmax((~np.isfinite(flat)).any(axis=1)))
                raise EvaluationError(
                    f"non-finite partial derivative at sample {Xb[bad].tolist()}"
                )
            row_max = flat.max(axis=1)
            i = int(np.argmax(row_max))
            # strict: a tie with an earlier block keeps the lower sample index
            if best is None or row_max[i] > best[0]:
                best = (row_max[i], int(np.argmax(flat[i])), Xb[i].copy())
    max_partial, worst_entry, worst_point = float(best[0]), best[1], best[2]
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
            point=worst_point,
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


def _grid(t_end: float, n_grid: int) -> np.ndarray:
    """The shared uniform comparison grid on [0, t_end]."""
    if n_grid < 2:
        raise InputError(f"n_grid needs at least two time points, got {n_grid}")
    if n_grid > MAX_GRID_POINTS:
        raise InputError(f"n_grid must be at most {MAX_GRID_POINTS}, got {n_grid}")
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
        reduced = construct_reduced(f, d)
    y0 = project(x0, d, "m")

    def labeled(which: str, fld, ic):
        try:
            return integrate_field(fld, ic, cfg)
        except (DivergenceError, StepBudgetError) as err:
            raise _labeled(which, err) from err

    full_traj = labeled("full", f, x0)
    red_traj = labeled("reduced", reduced, y0)
    # both runs are finite at their nodes, so a non-finite value here comes
    # from the interpolation overflowing (steps too short to divide by)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        full_rs = resample(full_traj, grid)
        red_rs = resample(red_traj, grid)
        full_proj = full_rs.states[:, : d.m]
        dev = np.linalg.norm(full_proj - red_rs.states, axis=1)
    if not np.all(np.isfinite(dev)):
        raise _overflow(dev, grid, cfg.t_end)
    i_sup = int(np.argmax(dev))
    return DeviationReport(
        sup_dev=float(dev[i_sup]),
        t_of_sup=float(grid[i_sup]),
        times=grid,
        dev_series=dev,
        full_projected=full_proj,
        reduced_states=red_rs.states,
    )


def sweep_deviation(
    fields: list,
    d: Decomposition,
    x0,
    cfg: IntegratorConfig,
    reduced: list | None = None,
    n_grid: int = DEFAULT_GRID_POINTS,
):
    """Yield ``(sup_dev, t_of_sup)`` for each field of ``fields`` in turn,
    those of :func:`measure_deviation` from the same ``x0``, bit for bit.

    ``reduced`` lists each field's reduced field, or None for the slice
    construction. The full runs of a block of fields are integrated as one
    batch, and so are their reduced runs, each field on its lone state, and
    evaluated on the grid with the values ``resample`` gives; the grid
    values a block holds stay within ``_STORE_BYTES``. When a run, an
    evaluation or the interpolation fails, the first field that fails raises
    the error :func:`measure_deviation` would raise for it, once the fields
    before it are yielded.
    """
    grid = _grid(cfg.t_end, n_grid)
    reduced = [
        construct_reduced(f, d) if r is None else r
        for f, r in zip(fields, reduced or [None] * len(fields))
    ]
    x0 = np.asarray(x0, dtype=float)
    y0 = project(x0, d, "m")
    rows = max(1, min(BLOCK_ROWS, _STORE_BYTES // (16 * grid.size * d.m)))
    for start in range(0, len(fields), rows):
        block = slice(start, start + rows)
        count = len(fields[block])
        try:
            full, full_errors = integrate_on_grid(
                fields[block], np.tile(x0, (count, 1)), cfg, grid, keep=d.m
            )
            red, red_errors = integrate_on_grid(reduced[block], np.tile(y0, (count, 1)), cfg, grid)
        except Exception:
            # an evaluation raised, perhaps for a later field than the first
            # one that fails: the block field by field raises as a loop would
            for f, r in zip(fields[block], reduced[block]):
                rep = measure_deviation(f, d, x0, cfg, r, n_grid)
                yield rep.sup_dev, rep.t_of_sup
            raise
        for j in range(count):
            for which, err in (("full", full_errors[j]), ("reduced", red_errors[j])):
                if err is not None:
                    raise _labeled(which, err) from err
            with np.errstate(over="ignore", invalid="ignore"):
                dev = np.linalg.norm(full[j] - red[j], axis=1)
            if not np.all(np.isfinite(dev)):
                raise _overflow(dev, grid, cfg.t_end)
            i_sup = int(np.argmax(dev))
            yield float(dev[i_sup]), float(grid[i_sup])


def _labeled(which: str, err: NumericalError) -> NumericalError:
    """An integration failure of the ``which`` ("full" or "reduced") run."""
    return type(err)(f"{which} system: {err}", err.t_last)


def _overflow(dev: np.ndarray, grid: np.ndarray, t_end: float) -> NumericalError:
    """The error for a deviation series on ``grid`` that is not finite
    everywhere, though both runs are finite at their nodes."""
    bad = int(np.argmax(~np.isfinite(dev)))
    return NumericalError(
        f"non-finite deviation at t={grid[bad]:.6g}: interpolating the "
        f"steps of the runs over [0, {t_end:.6g}] overflowed"
    )


@dataclass(frozen=True)
class DeltaEstimate:
    """Sampled lower estimate of the uniform deviation bound over a box.

    ``delta_hat`` is a max over finitely many sampled initial conditions, so
    it can only underestimate the true uniform bound. The fields, in order,
    are the keys that ``bound`` writes after its config.
    """

    delta_hat: float
    mode: str
    n_ic: int
    failures: int
    seed: int
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
        reduced = construct_reduced(f, d)
    if pair_mode == "projected":
        X0 = sobol_points(S, n_ic, seed)
        Y0 = X0[:, : d.m]
    else:
        P = sobol_points(S.concat(S.project(d, "m")), n_ic, seed)
        X0, Y0 = P[:, : f.n], P[:, f.n :]
    rows = max(1, min(BLOCK_ROWS, _STORE_BYTES // (8 * grid.size * d.m)))
    sups = []
    for start in range(0, n_ic, rows):
        block = slice(start, start + rows)
        full, full_errors = integrate_on_grid(f, X0[block], cfg, grid, keep=d.m)
        # NaN where either run failed, as a failed full run leaves NaN values
        block_sups, errors = sup_distance_on_grid(reduced, Y0[block], cfg, grid, full)
        for j in np.flatnonzero(~np.isfinite(block_sups)):
            if full_errors[j] is None and errors[j] is None:
                # both runs reached the horizon: their interpolation overflowed
                red = integrate_on_grid(reduced, Y0[start + j][None], cfg, grid)[0][0]
                with np.errstate(over="ignore", invalid="ignore"):
                    raise _overflow(np.linalg.norm(full[j] - red, axis=1), grid, cfg.t_end)
        sups.append(block_sups)
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
    )
