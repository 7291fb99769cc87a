"""Deterministic quasi-random sampling of boxes.

Sobol points are used everywhere a checker or estimator needs to fill a box.
Two properties matter and are relied on by the test suite:

* determinism: the same (dimension, seed, n) always yields the same points;
* nesting: drawing n' > n points with the same seed reproduces the first n
  points exactly, so enlarging a sample never loses a found witness.

The generator is scipy's scrambled Sobol sequence written out in numpy: the
points equal ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed).random(n)``
bit for bit. It uses Joe and Kuo's direction numbers, 30 bits, and a linear
matrix scramble plus a digital shift drawn from ``np.random.default_rng(seed)``.
"""

from __future__ import annotations

import numpy as np

from .core import Box, InputError

DEFAULT_SEED = 42
BITS = 30
MAX_POINTS = 2**BITS
MAX_DIM = 64
# sampled points a checker evaluates together: few enough that a block's
# temporaries stay in cache, enough to amortise numpy's per-call overhead
SAMPLE_BLOCK_ROWS = 8192

# Joe and Kuo's new-joe-kuo-6.21201, first MAX_DIM rows, each a primitive
# polynomial and its initial direction numbers; the first dimension is
# special-cased. Kept as a string parsed per call: a literal of tuples is
# slower to compile, and every command compiles it at import.
_JOE_KUO = """
1 1, 3 1, 7 1 3, 11 1 3 1, 13 1 1 1, 19 1 1 3 3, 25 1 3 5 13, 37 1 1 5 5 17,
41 1 1 5 5 5, 47 1 1 7 11 19, 55 1 1 5 1 1, 59 1 1 1 3 11, 61 1 3 5 5 31,
67 1 3 3 9 7 49, 91 1 1 1 15 21 21, 97 1 3 1 13 27 49, 103 1 1 1 15 7 5,
109 1 3 1 15 13 25, 115 1 1 5 5 19 61, 131 1 3 7 11 23 15 103,
137 1 3 7 13 13 15 69, 143 1 1 3 13 7 35 63, 145 1 3 5 9 1 25 53,
157 1 3 1 13 9 35 107, 167 1 3 1 5 27 61 31, 171 1 1 5 11 19 41 61,
185 1 3 5 3 3 13 69, 191 1 1 7 13 1 19 1, 193 1 3 7 5 13 19 59,
203 1 1 3 9 25 29 41, 211 1 3 5 13 23 1 55, 213 1 3 7 3 13 59 17,
229 1 3 1 3 5 53 69, 239 1 1 5 5 23 33 13, 241 1 1 7 7 1 61 123,
247 1 1 7 9 13 61 49, 253 1 3 3 5 3 55 33, 285 1 3 1 15 31 13 49 245,
299 1 3 5 15 31 59 63 97, 301 1 3 1 11 11 11 77 249, 333 1 3 1 11 27 43 71 9,
351 1 1 7 15 21 11 81 45, 355 1 3 7 3 25 31 65 79, 357 1 3 1 1 19 11 3 205,
361 1 1 5 9 19 21 29 157, 369 1 3 7 11 1 33 89 185, 391 1 3 3 3 15 9 79 71,
397 1 3 7 11 15 39 119 27, 425 1 1 3 1 11 31 97 225, 451 1 1 1 3 23 43 57 177,
463 1 3 7 7 17 17 37 71, 487 1 3 1 5 27 63 123 213, 501 1 1 3 5 11 43 53 133,
529 1 3 5 5 29 17 47 173 479, 539 1 3 3 11 3 1 109 9 69,
545 1 1 1 5 17 39 23 5 343, 557 1 3 1 5 25 15 31 103 499,
563 1 1 1 11 11 17 63 105 183, 601 1 1 5 11 9 29 97 231 363,
607 1 1 5 15 19 45 41 7 383, 617 1 3 7 7 31 19 83 137 221,
623 1 1 1 3 23 15 111 223 83, 631 1 1 5 13 31 15 55 25 161,
637 1 1 3 13 25 47 39 87 257
"""


def joe_kuo() -> list[list[int]]:
    """The embedded table as rows ``[poly, m_1, ..., m_s]``."""
    return [[int(tok) for tok in row.split()] for row in _JOE_KUO.split(",")]


def _direction_numbers(dim: int) -> np.ndarray:
    """(dim, BITS) direction numbers, column b belonging to bit b of the index."""
    v = np.empty((dim, BITS), dtype=np.uint32)
    v[0] = 1
    for d, (poly, *m) in enumerate(joe_kuo()[1:dim], start=1):
        s = poly.bit_length() - 1
        for j in range(s, BITS):
            new = m[j - s]
            for k in range(1, s + 1):
                if (poly >> (s - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[d] = m[:BITS]
    return v << np.arange(BITS - 1, -1, -1, dtype=np.uint32)


def unit_sobol(dim: int, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """First ``n`` scrambled Sobol points in the unit cube of ``dim`` dimensions."""
    if not 1 <= n <= MAX_POINTS:
        raise InputError(f"need between 1 and 2**{BITS} samples, got {n}")
    if not 1 <= dim <= MAX_DIM:
        raise InputError(f"Sobol sampling supports 1 to {MAX_DIM} dimensions, got {dim}")
    rng = np.random.default_rng(seed)
    bit = np.arange(BITS, dtype=np.uint32)
    shift = (rng.integers(2, size=(dim, BITS), dtype=np.uint32) << bit).sum(
        axis=1, dtype=np.uint32
    )
    # lower-triangular scramble with unit diagonal, rewriting each direction
    # number v as L·v mod 2 with v read as an MSB-first bit vector
    L = np.tril(rng.integers(2, size=(dim, BITS, BITS), dtype=np.uint32))
    L[:, bit, bit] = 1
    msb = bit[::-1]
    V = (_direction_numbers(dim)[:, :, None] >> msb) & 1
    v = (((V @ L.transpose(0, 2, 1)) & 1) << msb).sum(axis=2, dtype=np.uint32)
    # Gray-code order: point 2^b + k is point 2^b - 1 - k xor direction number b
    Q = np.empty((n, dim), dtype=np.uint32)
    Q[0] = shift
    half, b = 1, 0
    while half < n:
        width = min(half, n - half)
        np.bitwise_xor(Q[half - width : half][::-1], v[:, b], out=Q[half : half + width])
        half, b = 2 * half, b + 1
    return Q * 2.0**-BITS


def sobol_points(box: Box, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """``n`` Sobol points inside ``box``, shape (n, box.dim)."""
    pts = unit_sobol(box.dim, n, seed)
    pts *= box.widths
    pts += box.lower
    return pts


def row_blocks(n: int, width: int = 1) -> list[slice]:
    """Consecutive slices covering ``n`` rows of ``width`` points each.

    A slice holds about ``SAMPLE_BLOCK_ROWS`` points, and at least one row.
    Every sampled check walks its points through these blocks; with row-wise
    maps the results are the same bits as one whole-array evaluation.
    """
    step = max(1, SAMPLE_BLOCK_ROWS // width)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]
