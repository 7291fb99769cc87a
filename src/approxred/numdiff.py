"""Central finite differences, and the one-call block evaluation of a map.

Step size follows h_i = FD_SCALE * (1 + |x_i|) per coordinate, the usual
compromise between truncation and round-off for float64. ``jacobian_batch``
is the one routine that steps and differences, and ``check-exact`` is the
only command that runs it; every other derivative comes from the expression
compiler. ``gradient_batch``, ``pair_gradient_batch`` and ``batch_eval_pair``
have no caller but stay, because ``bench/trace_shim.py`` wraps each by name.

Every map here takes a block of states ``(N, d)`` as well as a lone state,
with the same bits for a row either way (the contract of
``core.VectorFieldDef``): ``batch_eval`` calls it once on the whole block and
rejects an output of another shape with ``InputError``. A map's output
follows its input's layout, as ``user_systems.compile_map``'s does.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .base import InputError

FD_SCALE = 1e-6


def batch_eval(fn: Callable, *blocks: np.ndarray, out_dim: int | None = None) -> np.ndarray:
    """Evaluate ``fn`` once on the paired rows of one or more blocks.

    Each block has shape (N, d_j) and ``fn`` takes one argument per block.
    The result has shape (N,) for scalar maps and (N, out_dim) otherwise; a
    map that returns another shape raises ``InputError``.
    """
    blocks = [np.asarray(X, dtype=float) for X in blocks]
    n = blocks[0].shape[0]
    out = np.asarray(fn(*blocks), dtype=float)
    if out.shape == (n,) and out_dim in (None, 1):
        return out if out_dim is None else out[:, None]
    if out_dim is not None and out.shape == (n, out_dim):
        return out
    expected = (n,) if out_dim is None else (n, out_dim)
    raise InputError(f"a map on {n} rows returned shape {out.shape}, expected {expected}")


def batch_eval_pair(fn: Callable, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Evaluate a scalar two-argument map on paired rows, result shape (N,)."""
    return batch_eval(fn, X1, X2)


def jacobian_batch(fn: Callable, X: np.ndarray, out_dim: int, cols=None) -> np.ndarray:
    """Central-difference Jacobians on a block of points, shape (N, out_dim, c).

    ``cols`` lists the coordinates to differentiate along (default: all d),
    so a caller that needs a few columns pays two evaluations per column only.
    Both evaluations of a column step one working copy of ``X``, so the first
    output is copied into the result before the second step: a map may return
    a view of its input. The working copy and the result keep ``X``'s layout:
    on a coordinate-major block each column's difference is written to one
    contiguous ``(N, out_dim)`` slice ``J[:, :, j]``.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    cols = range(d) if cols is None else cols
    J = np.empty((n, out_dim, len(cols)), order="F" if X.flags.f_contiguous else "C")
    W = X.copy(order="K")
    for j, i in enumerate(cols):
        x = X[:, i]
        h = FD_SCALE * (1.0 + np.abs(x))
        W[:, i] = x + h
        J[:, :, j] = batch_eval(fn, W, out_dim=out_dim).reshape(n, out_dim)
        W[:, i] = x - h
        J[:, :, j] -= batch_eval(fn, W, out_dim=out_dim).reshape(n, out_dim)
        J[:, :, j] /= 2.0 * h[:, None]
        W[:, i] = x
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
