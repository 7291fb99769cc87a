"""Batched explicit Runge-Kutta integration.

One engine advances a batch of initial states, shape ``(N, n)``, from t = 0 to
``t_end`` with one of two tableaus:

* ``rk4``: classical fixed-step RK4 on a grid shared by every row;
* ``rk45``: Dormand-Prince 5(4) with the step-size controller and initial
  step selection of Hairer, Norsett & Wanner, *Solving ODEs I*, section II.4
  (the controller of scipy's ``RK45``), applied per row: each row keeps its
  own time, step size, rejection flag, step budget and failure state.

Stage sums are written out elementwise (never a dot product), so a row's
numbers are bit-identical whichever rows share its batch; nested Sobol samples
therefore give nested estimates.

A row stops with :class:`DivergenceError` when its state turns non-finite or
its adaptive step falls below ten ulps of ``t_end`` (a pace of over 4e14 steps
to the horizon), and with :class:`StepBudgetError` after ``MAX_STEPS``
accepted steps; the other rows carry on. ``_solve`` owns a run from set-up
to errors: it builds the right-hand side and labels each row with its
field's name, and the batch records a dropped row's error, so labelled, from
one of three ``(error class, message)`` failures.

A batch holds one field for every row, or one field per row (the values of a
parameter sweep, say). Each evaluation of the right-hand side receives the
indices of the rows still integrating along with their states, so that each
row can be evaluated with its own field; the fields are autonomous, so no
stage time is passed. One field for N > 1 rows is evaluated on the whole
block ``(N, n)``, which every field takes (see ``core.VectorFieldDef``); a
first output of another shape raises :class:`InputError`. A lone row, and
every row of a batch of fields, is evaluated on its 1-d state ``(n,)``,
exactly as a run of that row alone is.

``_solve`` hands each row's initial node, then each accepted step, to a sink
in one call ``sink(rows, t, y, f)``, with the nodes' states and derivatives.
``integrate_field`` keeps them as the nodes of a batch of one.
``integrate_on_grid`` and ``sup_distance_on_grid`` only append each node to
a buffer of at most ``_BUFFER_ROW_STEPS`` (row, step) entries.
When it fills, and at the end of the run, the buffered steps of every row are
evaluated at once on the stretch of a shared time grid they cover, at most
``_GRID_CHUNK`` points at a time, and dropped, each row keeping its last node;
``sup_distance_on_grid`` keeps of their values only each row's largest
distance to a target and the first grid time that reaches it. So neither
full trajectories nor more than a fixed number of steps are ever held,
however long the horizon or fine the grid. ``resample`` feeds a stored
trajectory's nodes to the same sink, so its values are those of the batched
runs bit for bit, and the cubic Hermite interpolant has one evaluator.

Downstream tolerances: every comparison made on integrated trajectories adds
slack of ten times the integrator tolerance. At the defaults (rtol = atol =
1e-9) that supports assertions at the 1e-8 level at the step nodes only.
Grid values between nodes come from the cubic Hermite interpolant, which
errs more: at t = 20, against DOP853 at 1e-13, by 7.8e-8 on the hoop from
(0.5, 0.3) and 2.2e-7 on the cart from its default x0, where the nodes err
by 9.8e-10 and 3.3e-9. ROADMAP item 11 plans the order-4 Dormand-Prince
dense output in its place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_ATOL, DEFAULT_RTOL, DivergenceError, InputError, StepBudgetError
from .core import Trajectory, VectorFieldDef, as_state

MAX_STEPS = 10_000_000
# (row, step) nodes a grid sink buffers before it evaluates them
_BUFFER_ROW_STEPS = 2048
# grid points a flush evaluates at once
_GRID_CHUNK = 2048

# Dormand-Prince 5(4): stage matrix, fifth-order weights and error weights
# (the last one multiplies the derivative at the step's end)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # -1 / (order of the embedded error estimate + 1)

# what stops a row: its error class and message, formatted with the row's
# label, the time it stopped at and the step budget in force
_NONFINITE = (DivergenceError, "{label}: state became non-finite after t={t:.6g}")
_UNDERFLOW = (DivergenceError, "{label}: adaptive step size underflow near t={t:.6g}")
_BUDGET = (StepBudgetError, "{label}: step budget of {budget} exhausted at t={t:.6g}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    ``method`` is "rk45" (adaptive, uses rtol/atol) or "rk4" (fixed step,
    uses dt). The horizon, the step and the tolerances must be finite: an
    infinite horizon would never end.
    """

    t_end: float
    method: str = "rk45"
    dt: float | None = None
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise InputError(f"unknown integration method {self.method!r}")
        for name in ("t_end", "dt", "rtol", "atol"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if not (self.t_end > 0):
            raise InputError("t_end must be positive")
        if self.method == "rk4":
            if self.dt is None or not (self.dt > 0):
                raise InputError("rk4 requires a positive fixed step dt")
        else:
            if not (self.rtol > 0 and self.atol > 0):
                raise InputError("rk45 requires positive rtol and atol")


# ------------------------------------------------------------------ engine


def _lincomb(coeffs, K):
    """sum_j coeffs[j] * K[j], elementwise so no row's bits depend on its batch."""
    acc = None
    for c, k in zip(coeffs, K):
        if c != 0.0:
            acc = c * k if acc is None else acc + c * k
    return acc


def _rms(X: np.ndarray) -> np.ndarray:
    """Root mean square of each row of an (N, n) array."""
    sq = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        sq = sq + X[:, j] * X[:, j]
    return np.sqrt(sq) / X.shape[1] ** 0.5


def _initial_step(rhs, rows, y, f, cfg: IntegratorConfig) -> np.ndarray:
    """Per-row first step size (Hairer, Norsett & Wanner, section II.4)."""
    scale = cfg.atol + np.abs(y) * cfg.rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), cfg.t_end)
    d2 = _rms((rhs(rows, y + h0[:, None] * f) - f) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (1 / 5),
    )
    return np.minimum(np.minimum(100 * h0, h1), cfg.t_end)


class _Batch:
    """The rows of a run still integrating and their per-row state.
    ``errors`` holds one entry per row: None, or the error that dropped it,
    labelled with its entry of ``labels``."""

    def __init__(self, X0, F0, labels: list):
        n_rows = X0.shape[0]
        self.rows = np.arange(n_rows)
        self.t = np.zeros(n_rows)
        self.y, self.f = X0, F0
        self.h_abs = self.rejected = self.steps = None  # set by the rk45 loop
        self.labels, self.errors = labels, [None] * n_rows

    def stop(self, mask, failure=None) -> None:
        """Drop the rows in ``mask``; unless ``failure`` is None, record each
        one's error from that ``(error class, message)`` pair."""
        if failure is not None:
            error, message = failure
            for row, t in zip(self.rows[mask].tolist(), self.t[mask].tolist()):
                text = message.format(label=self.labels[row], t=t, budget=MAX_STEPS)
                self.errors[row] = error(text, t)
        keep = ~mask
        for name in ("rows", "t", "y", "f", "h_abs", "rejected", "steps"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])


def _rk4(rhs, b: _Batch, cfg: IntegratorConfig, sink) -> None:
    # clamped past the budget, so an overflowing t_end / dt (inf) converts
    # to an int and still stops every row as over budget below
    n_full = int(np.floor(min(cfg.t_end / cfg.dt, MAX_STEPS + 1) + 1e-12))
    remainder = cfg.t_end - n_full * cfg.dt
    n_steps = n_full + (1 if remainder > 1e-12 * cfg.t_end else 0)
    if n_steps < 1:
        n_steps, n_full, remainder = 1, 0, cfg.t_end
    if n_steps > MAX_STEPS:
        b.stop(np.ones(b.rows.size, dtype=bool), _BUDGET)
        return
    t = 0.0
    for i in range(n_steps):
        h = cfg.dt if i < n_full else remainder
        t_new = cfg.t_end if i == n_steps - 1 else t + h
        y, f = b.y, b.f
        k2 = rhs(b.rows, y + 0.5 * h * f)
        k3 = rhs(b.rows, y + 0.5 * h * k2)
        k4 = rhs(b.rows, y + h * k3)
        y_new = y + (h / 6.0) * (f + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y_new).all():
            ok = np.isfinite(y_new).all(axis=1)
            b.t = np.full(b.rows.size, t)
            b.stop(~ok, _NONFINITE)
            if not b.rows.size:
                return
            y_new = y_new[ok]
        f_new = rhs(b.rows, y_new)
        sink(b.rows, t_new, y_new, f_new)
        t, b.y, b.f = t_new, y_new, f_new


def _dopri5(rhs, b: _Batch, cfg: IntegratorConfig, sink) -> None:
    b.h_abs = _initial_step(rhs, b.rows, b.y, b.f, cfg)
    b.rejected = np.zeros(b.rows.size, dtype=bool)
    b.steps = np.zeros(b.rows.size, dtype=np.int64)
    min_step = 10 * np.spacing(cfg.t_end)
    while b.rows.size:
        b.h_abs = np.where(b.rejected, b.h_abs, np.maximum(b.h_abs, min_step))
        over = b.steps >= MAX_STEPS
        small = ~(b.h_abs >= min_step)  # a NaN step size counts as underflow
        if (over | small).any():
            b.stop(over, _BUDGET)
            b.stop(small[~over], _UNDERFLOW)
            continue
        t, y, f = b.t, b.y, b.f
        t_new = np.minimum(t + b.h_abs, cfg.t_end)
        h = t_new - t
        hc = h[:, None]
        K = [f]
        for a in _DP_A[1:]:
            K.append(rhs(b.rows, y + _lincomb(a, K) * hc))
        y_new = y + hc * _lincomb(_DP_B, K)
        f_new = rhs(b.rows, y_new)
        K.append(f_new)
        scale = cfg.atol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rtol
        err = _rms(_lincomb(_DP_E, K) * hc / scale)
        accept = err < 1
        # err = 0 makes the factor infinite, which the caps below absorb
        factor = _SAFETY * err**_ERROR_EXPONENT
        grow = np.minimum(np.where(b.rejected, 1.0, _MAX_FACTOR), factor)
        b.h_abs = h * np.where(accept, grow, np.fmax(_MIN_FACTOR, factor))
        b.rejected = ~accept
        ok = accept & np.isfinite(y_new).all(axis=1)
        if ok.all():
            sink(b.rows, t_new, y_new, f_new)
            b.t, b.y, b.f, b.steps = t_new, y_new, f_new, b.steps + 1
        else:
            if ok.any():
                sink(b.rows[ok], t_new[ok], y_new[ok], f_new[ok])
                b.t = np.where(ok, t_new, t)
                b.y = np.where(ok[:, None], y_new, y)
                b.f = np.where(ok[:, None], f_new, f)
                b.steps = b.steps + ok
            bad = accept & ~ok
            if bad.any():
                b.stop(bad, _NONFINITE)
        done = b.t == cfg.t_end
        if done.any():
            b.stop(done)


def _solve(f, X0, cfg: IntegratorConfig, sink) -> list:
    """Advance every row of X0 under ``f`` (as :func:`_batch_rhs` takes it)
    to cfg.t_end, handing the initial node of each row that starts finite,
    then each accepted step, to ``sink(rows, t, y, f)``: the rows that took
    it and their end times, states and derivatives. Return one entry per row,
    None or the :class:`NumericalError` that stopped it, labelled with its
    field's name."""
    rhs, F0, labels = _batch_rhs(f, X0)
    b = _Batch(X0, F0, labels)
    b.stop(~(np.isfinite(X0).all(axis=1) & np.isfinite(F0).all(axis=1)), _NONFINITE)
    if b.rows.size:
        sink(b.rows, 0.0, b.y, b.f)
        (_rk4 if cfg.method == "rk4" else _dopri5)(rhs, b, cfg, sink)
    return b.errors


def _batch_rhs(f, X0: np.ndarray):
    """The right-hand side of a run as a map ``rhs(rows, Y)`` from the states
    Y of the batch rows ``rows`` to their derivatives, its value at X0, and
    each row's label: its field's name.

    ``f`` is one field for every row of X0, shape (N, n), evaluated on the
    whole block when it holds N > 1 rows, or a sequence of one field per
    row. A lone row, and each row of a field per row, is passed as its 1-d
    state.
    """
    if isinstance(f, VectorFieldDef):
        if X0.ndim != 2 or X0.shape[1] != f.n:
            raise InputError(f"expected initial states of shape (N, {f.n}), got {X0.shape}")
        labels = [f.name] * X0.shape[0]
        if X0.shape[0] > 1:
            F0 = np.asarray(f.rhs(X0), dtype=float)
            if F0.shape != X0.shape:
                raise InputError(
                    f"rhs of '{f.name}' returned shape {F0.shape}, expected {X0.shape}"
                )
            return (lambda _rows, Y: np.asarray(f.rhs(Y), dtype=float)), F0, labels
        fields = [f]
    else:
        fields = list(f)
        if X0.ndim != 2 or len(fields) != X0.shape[0] or any(g.n != X0.shape[1] for g in fields):
            raise InputError(
                f"expected one initial state per field, got {len(fields)} fields "
                f"and initial states of shape {X0.shape}"
            )
        labels = [g.name for g in fields]

    def rowwise(rows, Y):
        out = np.empty(Y.shape)
        for i, row in enumerate(rows.tolist()):
            out[i] = fields[row].rhs(Y[i])
        return out

    return rowwise, np.stack([g(x) for g, x in zip(fields, X0)]), labels


class _Nodes:
    """Sink keeping the initial node and the accepted steps of a batch of one
    as trajectory nodes."""

    def __init__(self):
        self.times, self.states, self.derivs = [], [], []

    def __call__(self, rows, t, y, f):
        self.times.append(t)  # a float (rk4) or a (1,) array (rk45)
        self.states.append(y)
        self.derivs.append(f)

    def trajectory(self) -> Trajectory:
        states = np.concatenate(self.states)
        return Trajectory(
            times=np.concatenate([[0.0], np.asarray(self.times[1:]).ravel()]),
            states=states,
            dim=states.shape[1],
            derivs=np.concatenate(self.derivs),
        )


class _GridSink:
    """Sink evaluating a batch's runs on a shared ``grid``, increasing within
    [0, t_end], for the leading ``keep`` coordinates.

    Each node :func:`_solve` hands it, initial or the end of an accepted
    step, is only appended to a buffer as (row, t, y, f). When the buffer
    would pass ``max(_BUFFER_ROW_STEPS, 2 N)`` entries, and once more at the
    end of the run, :meth:`flush` evaluates each row's buffered nodes onto
    the stretch of the grid they cover and drops them, keeping each row's
    last node. Without a ``target`` the values fill ``out``, shape (N,
    len(grid), keep). With a ``target`` of that shape ``out`` keeps each
    row's largest Euclidean distance to it, counting NaN as inf, and ``at``
    the grid index of the first point that reaches it. A row that fails
    before its first node keeps its initial ``out``; :meth:`result` gives
    every failed row NaN.
    """

    def __init__(self, grid, n_rows: int, keep: int, t_end: float, target=None):
        self.grid, self.keep, self.t_end, self.target = grid, keep, t_end, target
        if target is None:
            self.out = np.full((n_rows, grid.size, keep), np.nan)
        else:  # one row of target values per (row, grid time)
            self.target = np.ascontiguousarray(target).reshape(-1, keep)
            self.out = np.zeros(n_rows)
            self.at = np.zeros(n_rows, dtype=np.intp)
        capacity = max(_BUFFER_ROW_STEPS, 2 * n_rows)
        self.rows = np.empty(capacity, dtype=np.intp)
        self.t = np.empty(capacity)
        self.y = np.empty((keep, capacity))  # coordinates first: long inner loops
        self.f = np.empty((keep, capacity))
        self.size = 0

    def __call__(self, rows, t, y, f):
        if self.size + rows.size > self.t.size:
            self.flush()
        a = self.size
        b = self.size = a + rows.size
        self.rows[a:b], self.t[a:b] = rows, t
        self.y[:, a:b], self.f[:, a:b] = y[:, : self.keep].T, f[:, : self.keep].T

    def flush(self) -> None:
        """Evaluate the buffered steps on the grid times they cover; keep only
        each row's last node."""
        if not self.size:
            return
        order = np.argsort(self.rows[: self.size], kind="stable")
        R, T = self.rows[order], self.t[order]  # by row, then time
        Y, F = self.y[:, order], self.f[:, order]
        last = np.append(R[1:] != R[:-1], True)  # a row's latest node
        # the step from entry j to j + 1 holds the grid times in [T[j],
        # T[j + 1]), and a row's last step the horizon too;
        # a step joining two rows holds none, so its cubic is never read
        bounds = self.grid.searchsorted(T)
        bounds[last & (T == self.t_end)] = self.grid.size
        counts = np.diff(bounds)
        counts[last[:-1]] = 0
        ends = np.cumsum(counts)  # the grid points of all steps, numbered in turn
        c3, c2 = _cubic(np.diff(T), Y[:, :-1], Y[:, 1:], F[:, :-1], F[:, 1:])
        for p0 in range(0, int(ends[-1]) if ends.size else 0, _GRID_CHUNK):
            p1 = min(p0 + _GRID_CHUNK, int(ends[-1]))
            j0, j1 = ends.searchsorted([p0, p1 - 1], "right")
            at = slice(j0, j1 + 1)  # the steps holding points p0 to p1
            starts = ends[at] - counts[at]
            n = np.minimum(ends[at], p1) - np.maximum(starts, p0)
            g = np.arange(p0, p1) + (bounds[at] - starts).repeat(n)  # grid index
            s = self.grid[g] - T[at].repeat(n)
            v = c3[:, at].repeat(n, axis=1)  # ((c3 s + c2) s + f) s + y
            v *= s
            v += c2[:, at].repeat(n, axis=1)
            v *= s
            v += F[:, at].repeat(n, axis=1)
            v *= s
            v += Y[:, at].repeat(n, axis=1)
            row = R[at].repeat(n)
            if self.target is None:
                self.out[row, g] = v.T
                continue
            # distances as np.linalg.norm takes them, summing the squares
            # along the contiguous last axis
            d = self.target[row * self.grid.size + g]
            d -= v.T
            d *= d
            dist = np.sqrt(np.add.reduce(d, axis=-1))
            dist[np.isnan(dist)] = np.inf
            # a row's points are contiguous here, in time order; a tie keeps
            # the earlier time, and the first infinite distance stays
            first = np.append(0, np.flatnonzero(row[1:] != row[:-1]) + 1)
            top = np.maximum.reduceat(dist, first)
            hits = np.flatnonzero(dist == top.repeat(np.diff(np.append(first, dist.size))))
            up = top > self.out[row[first]]
            self.out[row[first][up]] = top[up]
            self.at[row[first][up]] = g[hits[hits.searchsorted(first)]][up]
        n_rows = int(last.sum())
        self.rows[:n_rows], self.t[:n_rows] = R[last], T[last]
        self.y[:, :n_rows], self.f[:, :n_rows] = Y[:, last], F[:, last]
        self.size = n_rows

    def result(self, errors):
        """The grid values, or each row's largest distance and the grid time
        of its index ``at``; NaN for each row that failed."""
        self.flush()
        failed = [e is not None for e in errors]
        self.out[failed] = np.nan
        if self.target is None:
            return self.out
        return self.out, np.where(failed, np.nan, self.grid[self.at])


def _cubic(h, y0, y1, f0, f1):
    """Coefficients c3, c2 of the cubic ``((c3 s + c2) s + f0) s + y0`` through
    (0, y0) with slope f0 and (h, y1) with slope f1."""
    slope = (y1 - y0) / h
    c = (f0 + f1 - 2.0 * slope) / h
    return c / h, (slope - f0) / h - c


def _quiet():
    """Overflow and NaN are detected per row, so numpy need not warn of them."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


# ------------------------------------------------------------------ public


def integrate_field(f: VectorFieldDef, x0, cfg: IntegratorConfig) -> Trajectory:
    """Solve dx/dt = f(x) from x0 over [0, cfg.t_end]; return the step nodes."""
    X0 = as_state(x0, f.n)[None, :]
    nodes = _Nodes()
    with _quiet():
        error = _solve(f, X0, cfg, nodes)[0]
    if error is not None:
        raise error
    return nodes.trajectory()


def integrate_on_grid(
    f, X0, cfg: IntegratorConfig, grid, keep: int | None = None
) -> tuple[np.ndarray, list]:
    """Integrate every row of X0 and evaluate it on ``grid``.

    ``f`` is one :class:`VectorFieldDef` for every row, or a sequence of one
    field per row, each evaluated on its row's lone state. ``grid`` is
    increasing within [0, cfg.t_end]. Returns ``(values, errors)``:
    ``values[i]`` holds the leading ``keep`` coordinates (all by default) of
    row i at each grid time, NaN if the row failed, and ``errors[i]`` is None
    or the :class:`NumericalError` that stopped it.
    """
    return _run_on_grid(f, X0, cfg, grid, keep)


def sup_distance_on_grid(
    f, X0, cfg: IntegratorConfig, grid, target
) -> tuple[np.ndarray, np.ndarray, list]:
    """Largest Euclidean distance over ``grid`` from each row's run to its
    row of ``target``, shape (N, len(grid), k) for the leading k coordinates,
    and the first grid time that reaches it.

    For the ``values`` of :func:`integrate_on_grid` and ``dev = |values -
    target|``, these are ``dev.max(axis=1)`` and ``grid[dev.argmax(axis=1)]``,
    without holding the values. Returns ``(sups, times, errors)``: NaN for a
    failed row, and inf with its first time if a distance is not finite (the
    target holds NaN, or the interpolation overflowed).
    """
    target = np.asarray(target, dtype=float)
    (sups, times), errors = _run_on_grid(f, X0, cfg, grid, target.shape[-1], target)
    return sups, times, errors


def _run_on_grid(f, X0, cfg: IntegratorConfig, grid, keep: int | None, target=None):
    X0 = np.asarray(X0, dtype=float)
    grid = np.asarray(grid, dtype=float)
    inside = grid.ndim == 1 and 0 <= grid[0] and grid[-1] <= cfg.t_end
    if not (inside and np.all(np.diff(grid) > 0)):
        raise InputError("the grid must be increasing within [0, t_end]")
    # an X0 of another shape than (N, n) allocates a harmless sink, and
    # _solve rejects it
    sink = _GridSink(grid, len(X0), keep or X0.shape[-1], cfg.t_end, target)
    with _quiet():
        errors = _solve(f, X0, cfg, sink)
        return sink.result(errors), errors


def resample(traj: Trajectory, times) -> Trajectory:
    """Interpolate a trajectory onto a new valid trajectory grid.

    Cubic Hermite interpolation on the node derivatives, which every
    trajectory of the integrator stores, evaluated by the grid sink of
    :func:`integrate_on_grid`; original nodes reproduce exactly. The
    requested grid must start at 0, be strictly increasing, and stay within
    the original span (no extrapolation). The result stores no derivatives.
    """
    if traj.derivs is None:
        raise InputError("resample needs a trajectory with node derivatives")
    new_times = np.asarray(times, dtype=float)
    if new_times.ndim != 1 or new_times.shape[0] < 2:
        raise InputError("resample grid needs at least two time points")
    if new_times[0] != 0.0 or not np.all(np.diff(new_times) > 0):
        raise InputError("resample grid must start at 0 and be strictly increasing")
    if new_times[-1] > traj.times[-1]:
        raise InputError(
            f"resample grid ends at {new_times[-1]:.6g}, beyond the trajectory "
            f"horizon {traj.times[-1]:.6g}"
        )
    # the nodes of a run of one row, fed to its grid sink as the run would
    t, y, f = traj.times, traj.states, traj.derivs
    sink = _GridSink(new_times, 1, traj.dim, t[-1])
    step = sink.t.size - 1  # a flush keeps one node in the buffer
    for a in range(0, t.size, step):
        b = min(a + step, t.size)
        sink(np.zeros(b - a, dtype=np.intp), t[a:b], y[a:b], f[a:b])
    return Trajectory(times=new_times, states=sink.result([None])[0], dim=traj.dim)
