"""Deterministic quasi-random sampling of boxes.

Sobol points are used everywhere a checker or estimator needs to fill a box.
Two properties matter and are relied on by the test suite:

* determinism: the same (dimension, seed, n) always yields the same points;
* nesting: drawing n' > n points with the same seed reproduces the first n
  points exactly, so enlarging a sample never loses a found witness.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import Box

DEFAULT_SEED = 42


def unit_sobol(dim: int, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """First ``n`` scrambled Sobol points in the unit cube of ``dim`` dimensions."""
    from scipy.stats import qmc  # imported here: commands that never sample skip scipy

    engine = qmc.Sobol(d=dim, scramble=True, seed=seed)
    with warnings.catch_warnings():
        # n not a power of two only degrades balance, which we do not rely on
        warnings.simplefilter("ignore", UserWarning)
        return engine.random(n)


def sobol_points(box: Box, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """``n`` Sobol points inside ``box``, shape (n, box.dim)."""
    if n < 1:
        raise ValueError("need at least one sample")
    pts = unit_sobol(box.dim, n, seed)
    return box.lower + pts * (box.upper - box.lower)
