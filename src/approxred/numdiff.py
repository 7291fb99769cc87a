"""Central finite differences for Jacobians and gradients.

Step size follows h_i = FD_SCALE * (1 + |x_i|) per coordinate, the usual
compromise between truncation and round-off for float64. ``jacobian_batch``
is the one routine that steps and differences; the gradients and the
single-point Jacobian wrap it.

``batch_eval`` lets every caller exploit vectorized maps when available: a
map is first called with the full sample blocks and only evaluated row by row
if it cannot take them (see ``core.try_batch``) or returns the wrong shape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import EvaluationError, try_batch

FD_SCALE = 1e-6


def batch_eval(fn: Callable, *blocks: np.ndarray, out_dim: int | None = None) -> np.ndarray:
    """Evaluate ``fn`` on the paired rows of one or more blocks, vectorized when possible.

    Each block has shape (N, d_j) and ``fn`` takes one argument per block.
    The result has shape (N,) for scalar maps and (N, out_dim) otherwise.
    """
    blocks = [np.asarray(X, dtype=float) for X in blocks]
    n = blocks[0].shape[0]
    out = try_batch(lambda: np.asarray(fn(*blocks), dtype=float))
    if out is not None:
        if out.shape == (n,) and out_dim in (None, 1):
            return out if out_dim is None else out[:, None]
        if out_dim is not None and out.shape == (n, out_dim):
            return out
    out = np.stack([np.atleast_1d(np.asarray(fn(*row), dtype=float)) for row in zip(*blocks)])
    return out[:, 0] if out.shape[1] == 1 and out_dim is None else out


def batch_eval_pair(fn: Callable, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Evaluate a scalar two-argument map on paired rows, result shape (N,)."""
    return batch_eval(fn, X1, X2)


def jacobian_batch(fn: Callable, X: np.ndarray, out_dim: int, cols=None) -> np.ndarray:
    """Central-difference Jacobians on a block of points, shape (N, out_dim, c).

    ``cols`` lists the coordinates to differentiate along (default: all d),
    so a caller that needs a few columns pays two evaluations per column only.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    cols = range(d) if cols is None else cols
    H = FD_SCALE * (1.0 + np.abs(X))
    J = np.empty((n, out_dim, len(cols)))
    for j, i in enumerate(cols):
        Xp = X.copy()
        Xm = X.copy()
        Xp[:, i] += H[:, i]
        Xm[:, i] -= H[:, i]
        up = batch_eval(fn, Xp, out_dim=out_dim).reshape(n, out_dim)
        dn = batch_eval(fn, Xm, out_dim=out_dim).reshape(n, out_dim)
        J[:, :, j] = (up - dn) / (2.0 * H[:, i][:, None])
    return J


def jacobian(fn: Callable, x: np.ndarray, out_dim: int) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at a single point, shape (out_dim, d)."""
    x = np.asarray(x, dtype=float)
    J = jacobian_batch(fn, x[None, :], out_dim)[0]
    if not np.all(np.isfinite(J)):
        raise EvaluationError(f"non-finite derivative at x={x.tolist()}")
    return J


def gradient_batch(fn: Callable, X: np.ndarray) -> np.ndarray:
    """Central-difference gradients of a scalar map on a block, shape (N, d)."""
    return jacobian_batch(fn, X, 1)[:, 0]


def pair_gradient_batch(
    fn: Callable, X1: np.ndarray, X2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a scalar pair map V(x1, x2) w.r.t. each argument block."""
    d = X1.shape[1]
    G = gradient_batch(lambda Z: fn(Z[..., :d], Z[..., d:]), np.hstack([X1, X2]))
    return G[:, :d], G[:, d:]
