"""Exact and approximate reduction machinery.

``construct_reduced`` builds the reduced field by freezing the fiber block at
zero and projecting the velocity onto the retained block.
``check_exact_reducible`` decides (by sampling) whether that reduction is
exact, as one condition of ``stability._falsify``; ``measure_deviation``,
``sweep_deviation`` and ``estimate_delta`` quantify how far an inexact
reduction drifts from the projected full dynamics. The last two share one
block loop, ``_deviations``, which holds the full runs on the grid and
streams the reduced runs into each row's sup and its time.

All verdicts here are sampling based: a REDUCIBLE_UP_TO_TOL verdict is
evidence on the sampled box, not a proof, and every negative verdict carries a
re-evaluatable witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    DEFAULT_EXACT_SAMPLES,
    DEFAULT_GRID_POINTS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    DivergenceError,
    InputError,
    NumericalError,
    StepBudgetError,
)
from .core import Box, VectorFieldDef, as_state, check_retained
from .integrate import (
    IntegratorConfig,
    integrate_field,
    integrate_on_grid,
    resample,
    sup_distance_on_grid,
)
from .numdiff import jacobian_batch
from .sampling import sobol_points
from .stability import _falsify, _require_finite

MAX_GRID_POINTS = 100_000
# rows (initial conditions or swept fields) integrated together, fewer where
# a block's full-run grid values, (rows, n_grid, m) float64, would pass _STORE_BYTES
BLOCK_ROWS = 128
_STORE_BYTES = 8 << 20

REDUCIBLE = "REDUCIBLE_UP_TO_TOL"
NOT_REDUCIBLE = "NOT_REDUCIBLE"


def construct_reduced(f: VectorFieldDef, m: int) -> VectorFieldDef:
    """The reduced field y -> pi_m(f(y, 0)) of retained dimension ``m``: slice
    the field at fiber = 0 and keep the first m velocity components."""
    check_retained(m, f.n)
    k = f.n - m

    def rhs(y):
        y = np.asarray(y, dtype=float)
        full = np.concatenate([y, np.zeros(y.shape[:-1] + (k,))], axis=-1)
        return np.asarray(f.rhs(full), dtype=float)[..., :m]

    return VectorFieldDef(n=m, rhs=rhs, name=f"{f.name}_reduced")


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
    m: int,
    box: Box,
    n_samples: int = DEFAULT_EXACT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> ReducibilityReport:
    """Test whether the first ``m`` velocity components are independent of
    the fiber, the other n - m coordinates.

    For the canonical projection the bracket-invariance condition for an exact
    reduction collapses to d f_j / d z_i = 0 for every retained component j
    and fiber coordinate i. These partials are estimated at Sobol samples by
    central differences along the fiber coordinates only. One condition of
    ``stability._falsify`` finds the largest |d f_j / d z_i|, ties going to
    the lowest sample, then the lowest (j, i); it is 0.0 if none is positive.
    """
    check_retained(m, f.n)
    if box.dim != f.n:
        raise InputError("sampling box dimension does not match the field")
    if not (0 < tol < np.inf):  # an infinite tolerance would pass any field
        raise InputError(f"tol must be finite and positive, got {tol}")

    def retained(X):  # each FD difference keeps the m retained rows only
        return np.asarray(f.rhs(X), dtype=float)[..., :m]

    def conditions(X):
        A = np.abs(jacobian_batch(retained, X, m, cols=range(m, f.n)))
        # each sample's largest entry, NaN if any entry is, and its flat index
        # j * k + i, one contiguous column A[:, j, i] at a time; only a
        # strictly larger entry moves the index, so a tie keeps the lowest
        top, flat = np.full(len(X), -np.inf), np.zeros(len(X), dtype=np.intp)
        for index, (j, i) in enumerate(np.ndindex(m, f.n - m)):
            np.copyto(flat, index, where=A[:, j, i] > top)
            np.maximum(top, A[:, j, i], out=top)
        _require_finite(top, "non-finite partial derivative at sample {x}", x=X)
        # the bound column carries the flat index of each sample's largest entry
        return [("partial", np.ones(len(X), bool), top, top, flat)]

    ce = _falsify(box, {"x": slice(None)}, n_samples, seed, conditions, {}, dict).counterexample
    max_partial = 0.0 if ce is None else ce.magnitude
    if max_partial <= tol:
        return ReducibilityReport(REDUCIBLE, n_samples, tol, max_partial)
    comp, fib = divmod(int(ce.bound), f.n - m)
    witness = ReducibilityWitness(ce.point["x"], max_partial, comp, fib)
    return ReducibilityReport(NOT_REDUCIBLE, n_samples, tol, max_partial, witness)


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
    m: int,
    x0,
    cfg: IntegratorConfig,
    reduced: VectorFieldDef | None = None,
    n_grid: int = DEFAULT_GRID_POINTS,
) -> DeviationReport:
    """Integrate the full field and its reduction from matched initial states.

    The full system starts at ``x0``, the reduced one at ``x0[:m]``; both
    are resampled onto a shared uniform grid of ``n_grid`` points and compared
    in the Euclidean norm of the first m coordinates. ``reduced`` overrides
    the slice construction when a system ships its own reduced form.
    """
    check_retained(m, f.n)
    x0 = as_state(x0, f.n)
    grid = _grid(cfg.t_end, n_grid)
    if reduced is None:
        reduced = construct_reduced(f, m)

    def labeled(which: str, fld, ic):
        try:
            return integrate_field(fld, ic, cfg)
        except (DivergenceError, StepBudgetError) as err:
            raise _labeled(which, err) from err

    full_traj = labeled("full", f, x0)
    red_traj = labeled("reduced", reduced, x0[:m])
    # both runs are finite at their nodes, so a non-finite value here comes
    # from the interpolation overflowing (steps too short to divide by)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        full_rs = resample(full_traj, grid)
        red_rs = resample(red_traj, grid)
        full_proj = full_rs.states[:, :m]
        dev = np.linalg.norm(full_proj - red_rs.states, axis=1)
    if not np.all(np.isfinite(dev)):
        raise _overflow(grid[np.argmax(~np.isfinite(dev))], cfg.t_end)
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
    m: int,
    x0,
    cfg: IntegratorConfig,
    reduced: list | None = None,
    n_grid: int = DEFAULT_GRID_POINTS,
):
    """Yield ``(sup_dev, t_of_sup)`` for each field of ``fields`` in turn,
    those of :func:`measure_deviation` from the same ``x0``, bit for bit.

    ``reduced`` lists each field's reduced field, or None for the slice
    construction; each field is evaluated on its lone state. When a run, an
    evaluation or the interpolation fails, the first field that fails raises
    the error :func:`measure_deviation` would raise for it, once the fields
    before it are yielded.
    """
    x0 = as_state(x0)  # each field's run checks its dimension
    check_retained(m, x0.size)
    grid = _grid(cfg.t_end, n_grid)
    reduced = reduced or [None] * len(fields)
    reduced = [r or construct_reduced(f, m) for f, r in zip(fields, reduced)]
    X0 = np.tile(x0, (len(fields), 1))
    for sup, t, err in _deviations(fields, X0, reduced, X0[:, :m], cfg, grid, m):
        if err is not None:
            raise err
        yield sup, t


def _deviations(full, X0, reduced, Y0, cfg: IntegratorConfig, grid, m: int):
    """Yield ``(sup, t_of_sup, error)`` for each row in turn: the largest
    distance over ``grid`` from the leading m coordinates of the run of
    ``full`` from X0 to the run of ``reduced`` from Y0, the first grid time
    that reaches it, and None or the error that stops the row, labelled as
    :func:`measure_deviation` labels it.

    ``full`` and ``reduced`` are one field or one per row, as
    :func:`integrate_on_grid` takes them. A block of rows holds only its full
    runs' grid values, within ``_STORE_BYTES``; its reduced runs stream into
    their sups. A block in which an evaluation raises runs again row by row,
    so the first row that fails decides.
    """

    def run(block: slice) -> list:
        one = isinstance(full, VectorFieldDef)  # for every row, as in estimate_delta
        f, r = (full, reduced) if one else (full[block], reduced[block])
        target, full_errors = integrate_on_grid(f, X0[block], cfg, grid, keep=m)
        sups, times, red_errors = sup_distance_on_grid(r, Y0[block], cfg, grid, target)
        return [
            (sup, t, _labeled("full", a) or _labeled("reduced", b)
             or (_overflow(t, cfg.t_end) if sup == np.inf else None))
            for sup, t, a, b in zip(sups.tolist(), times.tolist(), full_errors, red_errors)
        ]

    rows = max(1, min(BLOCK_ROWS, _STORE_BYTES // (8 * grid.size * m)))
    for start in range(0, len(X0), rows):
        stop = min(start + rows, len(X0))
        try:
            out = run(slice(start, stop))
        except Exception:
            if stop - start == 1:
                raise
            # perhaps for a later row than the first one that fails
            out = (item for i in range(start, stop) for item in run(slice(i, i + 1)))
        yield from out


def _labeled(which: str, err: NumericalError | None) -> NumericalError | None:
    """The failure of the ``which`` ("full" or "reduced") run, labelled; None stays None."""
    return err and type(err)(f"{which} system: {err}", err.t_last)


def _overflow(t: float, t_end: float) -> NumericalError:
    """The error for a deviation that is not finite from grid time ``t`` on,
    though both runs are finite at their nodes."""
    return NumericalError(f"non-finite deviation at t={t:.6g}: interpolating the steps "
                          f"of the runs over [0, {t_end:.6g}] overflowed")


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
    m: int,
    S: Box,
    n_ic: int,
    cfg: IntegratorConfig,
    pair_mode: str = "projected",
    reduced: VectorFieldDef | None = None,
    seed: int = DEFAULT_SEED,
    n_grid: int = DEFAULT_GRID_POINTS,
) -> DeltaEstimate:
    """Estimate the uniform deviation bound over initial conditions in S.

    ``projected`` mode pairs each sampled full-state x0 with its own first m
    coordinates; ``cross`` mode samples independent pairs (x0 in S, y0 in the
    first m factors of S) and compares the first m coordinates of the full run
    against the reduced run from y0. Integrator failures are counted and
    skipped; when every run fails, the ``NumericalError`` names the first.
    """
    check_retained(m, f.n)
    if pair_mode not in ("projected", "cross"):
        raise InputError(f"pair_mode must be 'projected' or 'cross', got {pair_mode!r}")
    if n_ic < 1:
        raise InputError("n_ic must be at least 1")
    grid = _grid(cfg.t_end, n_grid)
    if S.dim != f.n:
        raise InputError("sampling box dimension does not match the field")
    if reduced is None:
        reduced = construct_reduced(f, m)
    if pair_mode == "projected":
        X0 = sobol_points(S, n_ic, seed)
        Y0 = X0[:, :m]
    else:
        P = sobol_points(S.concat(Box(S.lower[:m], S.upper[:m])), n_ic, seed)
        X0, Y0 = P[:, : f.n], P[:, f.n :]
    sups, failed = [], []
    for sup, _t, err in _deviations(f, X0, reduced, Y0, cfg, grid, m):
        if err is None:
            sups.append(sup)
        elif isinstance(err, (DivergenceError, StepBudgetError)):
            failed.append(err)
        else:  # both runs reached the horizon: their interpolation overflowed
            raise err
    if not sups:
        raise NumericalError(f"all {n_ic} sampled initial conditions failed to integrate; "
                             f"the first: {failed[0]}")
    return DeltaEstimate(max(sups), pair_mode, n_ic, len(failed), seed)
