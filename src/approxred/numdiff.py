"""Central finite differences for Jacobians and gradients.

Step size follows h_i = FD_SCALE * (1 + |x_i|) per coordinate, the usual
compromise between truncation and round-off for float64.

``batch_eval`` lets every caller exploit vectorized right-hand sides when
available: a map is first called with the full (N, d) sample block and only
evaluated row by row if it cannot take one (see ``core.try_batch``) or
returns the wrong shape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import EvaluationError, try_batch

FD_SCALE = 1e-6


def batch_eval(fn: Callable, X: np.ndarray, out_dim: int | None = None) -> np.ndarray:
    """Evaluate ``fn`` on a block of points, vectorized when possible.

    ``X`` has shape (N, d). The result has shape (N,) for scalar maps and
    (N, out_dim) otherwise.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    out = try_batch(lambda: np.asarray(fn(X), dtype=float))
    if out is not None:
        if out.shape == (n,) and out_dim in (None, 1):
            return out if out_dim is None else out[:, None]
        if out_dim is not None and out.shape == (n, out_dim):
            return out
    rows = [np.asarray(fn(x), dtype=float) for x in X]
    out = np.stack([np.atleast_1d(r) for r in rows])
    if out.shape[1] == 1 and out_dim is None:
        return out[:, 0]
    return out


def batch_eval_pair(fn: Callable, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Evaluate a scalar two-argument map on paired rows, result shape (N,)."""
    out = try_batch(lambda: np.asarray(fn(X1, X2), dtype=float))
    if out is not None and out.shape == (X1.shape[0],):
        return out
    return np.array([float(fn(x1, x2)) for x1, x2 in zip(X1, X2)])


def fd_steps(X: np.ndarray) -> np.ndarray:
    """Per-coordinate central difference steps for a block of points."""
    return FD_SCALE * (1.0 + np.abs(X))


def jacobian(fn: Callable, x: np.ndarray, out_dim: int) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at a single point, shape (out_dim, d)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    J = np.empty((out_dim, d))
    h = FD_SCALE * (1.0 + np.abs(x))
    for i in range(d):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        J[:, i] = (np.atleast_1d(fn(xp)) - np.atleast_1d(fn(xm))) / (2.0 * h[i])
    if not np.all(np.isfinite(J)):
        raise EvaluationError(f"non-finite derivative at x={x.tolist()}")
    return J


def jacobian_batch(fn: Callable, X: np.ndarray, out_dim: int, cols=None) -> np.ndarray:
    """Central-difference Jacobians on a block of points, shape (N, out_dim, c).

    ``cols`` lists the coordinates to differentiate along (default: all d),
    so a caller that needs a few columns pays two evaluations per column only.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    cols = range(d) if cols is None else cols
    H = fd_steps(X)
    J = np.empty((n, out_dim, len(cols)))
    for j, i in enumerate(cols):
        Xp = X.copy()
        Xm = X.copy()
        Xp[:, i] += H[:, i]
        Xm[:, i] -= H[:, i]
        up = batch_eval(fn, Xp, out_dim)
        dn = batch_eval(fn, Xm, out_dim)
        J[:, :, j] = (np.atleast_2d(up.reshape(n, out_dim)) - dn.reshape(n, out_dim)) / (
            2.0 * H[:, i][:, None]
        )
    return J


def gradient(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar map at a single point."""
    return jacobian(lambda v: np.atleast_1d(fn(v)), x, 1)[0]


def gradient_batch(fn: Callable, X: np.ndarray) -> np.ndarray:
    """Central-difference gradients of a scalar map on a block, shape (N, d)."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    H = fd_steps(X)
    G = np.empty((n, d))
    for i in range(d):
        Xp = X.copy()
        Xm = X.copy()
        Xp[:, i] += H[:, i]
        Xm[:, i] -= H[:, i]
        G[:, i] = (batch_eval(fn, Xp) - batch_eval(fn, Xm)) / (2.0 * H[:, i])
    return G


def pair_gradient_batch(
    fn: Callable, X1: np.ndarray, X2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a scalar pair map V(x1, x2) w.r.t. each argument block."""

    def block_grad(which: int) -> np.ndarray:
        X = X1 if which == 0 else X2
        n, d = X.shape
        H = fd_steps(X)
        G = np.empty((n, d))
        for i in range(d):
            Xp = X.copy()
            Xm = X.copy()
            Xp[:, i] += H[:, i]
            Xm[:, i] -= H[:, i]
            if which == 0:
                up, dn = batch_eval_pair(fn, Xp, X2), batch_eval_pair(fn, Xm, X2)
            else:
                up, dn = batch_eval_pair(fn, X1, Xp), batch_eval_pair(fn, X1, Xm)
            G[:, i] = (up - dn) / (2.0 * H[:, i])
        return G

    return block_grad(0), block_grad(1)
