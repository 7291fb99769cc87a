"""Deterministic quasi-random sampling of boxes.

Sobol points are used everywhere a checker or estimator needs to fill a box.
Two properties matter and are relied on by the test suite:

* determinism: the same (dimension, seed, n) always yields the same points;
* nesting: drawing n' > n points with the same seed reproduces the first n
  points exactly, so enlarging a sample never loses a found witness.

``sobol_blocks`` streams the points in row blocks, each made from a table of
block size, so its memory grows with ``SAMPLE_BLOCK_ROWS`` times the dimension
and not with the sample count; ``sobol_points`` is the same stream as one
array, for the small draws.

The generator is scipy's scrambled Sobol sequence written out in numpy: the
points equal ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed).random(n)``
bit for bit. It uses Joe and Kuo's direction numbers, 30 bits, and a linear
matrix scramble plus a digital shift. The scramble bits come from an in-house
copy of numpy's ``SeedSequence`` and ``PCG64`` (O'Neill 2014): they equal the
draws of numpy's ``default_rng(seed).integers(2, ...)``, without loading
numpy's random module, and they do not change with numpy's version.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

from .core import Box, InputError

DEFAULT_SEED = 42
BITS = 30
MAX_POINTS = 2**BITS
MAX_DIM = 64
# sampled points a checker evaluates together: few enough that a block's
# temporaries stay in cache, enough to amortise numpy's per-call overhead.
# Generating a block takes one Gray-code table of this many rows (rounded up
# to a power of two) and one block of points, so sampling memory grows with
# SAMPLE_BLOCK_ROWS times the dimension and not with the sample count.
SAMPLE_BLOCK_ROWS = 4096

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


_MASK32 = 0xFFFFFFFF
_MASK128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(8, uint32)``: 8 words of state."""
    entropy = []  # the seed as 32-bit words, least significant first
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


def _random_bits(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uint32 0/1 draws of numpy's ``default_rng(seed)``.

    They equal ``integers(2, dtype=np.uint32)`` draws however these are split
    into calls. PCG64 is the XSL-RR 128/64 generator seeded from the
    SeedSequence state. With range 2, numpy's bounded draw is bit 31 of a
    32-bit draw, and each 64-bit output gives two 32-bit draws, its low half
    first.
    """
    w = _seed_words(seed)
    # the state words as four little-endian uint64, read as (high, low) pairs
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
    # from state 0: step, add initstate, step again
    state = (inc + initstate) * _PCG_MULT + inc & _MASK128
    states = []
    for _ in range((count + 1) // 2):
        state = state * _PCG_MULT + inc & _MASK128
        states.append(state.to_bytes(16, "little"))
    lo, hi = np.frombuffer(b"".join(states), dtype="<u8").reshape(-1, 2).T
    # XSL-RR: xor the halves, rotate right by the top 6 bits of the state
    x, r = hi ^ lo, hi >> 58
    out = (x >> r | x << (64 - r & 63)).astype("<u8")
    return (out.view("<u4")[:count] >> 31).astype(np.uint32)


def _scramble(dim: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The digital shift (dim,) and scrambled direction numbers (dim, BITS)."""
    if not 1 <= n <= MAX_POINTS:
        raise InputError(f"need between 1 and 2**{BITS} samples, got {n}")
    if not 1 <= dim <= MAX_DIM:
        raise InputError(f"Sobol sampling supports 1 to {MAX_DIM} dimensions, got {dim}")
    seed = operator.index(seed)
    if seed < 0:
        raise InputError(f"the sampling seed must be a non-negative integer, got {seed}")
    bits = _random_bits(seed, dim * BITS * (1 + BITS))
    bit = np.arange(BITS, dtype=np.uint32)
    shift = (bits[: dim * BITS].reshape(dim, BITS) << bit).sum(axis=1, dtype=np.uint32)
    # lower-triangular scramble with unit diagonal, rewriting each direction
    # number v as L·v mod 2 with v read as an MSB-first bit vector
    L = np.tril(bits[dim * BITS :].reshape(dim, BITS, BITS))
    L[:, bit, bit] = 1
    msb = bit[::-1]
    V = (_direction_numbers(dim)[:, :, None] >> msb) & 1
    v = (((V @ L.transpose(0, 2, 1)) & 1) << msb).sum(axis=2, dtype=np.uint32)
    return shift, v


def sobol_blocks(
    box: Box, n: int, seed: int = DEFAULT_SEED
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream the first ``n`` Sobol points inside ``box`` as ``(start, points)``.

    The blocks are consecutive fresh arrays of at most ``SAMPLE_BLOCK_ROWS``
    rows, so a check that consumes them runs in memory independent of ``n``.
    Bad arguments raise ``InputError`` here, before the first block.
    """
    shift, v = _scramble(box.dim, n, seed)
    return _stream(box, n, shift, v)


def _stream(box: Box, n: int, shift: np.ndarray, v: np.ndarray):
    # Point i is shift xor the direction numbers of the set bits of
    # gray(i) = i ^ (i >> 1) (Antonov and Saleev). For a table start s that is
    # a multiple of the power of two T, gray(s + k) = gray(s) ^ gray(k) for
    # every k < T, so one table of the unshifted points k < T serves every
    # start, xored with base(s) = shift ^ the direction numbers of gray(s).
    # T is the block size rounded up to a power of two.
    rows = min(1 << (SAMPLE_BLOCK_ROWS - 1).bit_length(), n)
    # Gray-code order: point 2^b + k is point 2^b - 1 - k xor direction number b
    table = np.empty((rows, box.dim), dtype=np.uint32)
    table[0] = 0
    half, b = 1, 0
    while half < rows:
        width = min(half, rows - half)
        np.bitwise_xor(
            table[half - width : half][::-1], v[:, b], out=table[half : half + width]
        )
        half, b = 2 * half, b + 1
    for start in range(0, n, rows):
        gray = start ^ (start >> 1)
        base = shift.copy()
        for b in range(gray.bit_length()):
            if gray >> b & 1:
                base ^= v[:, b]
        P = (table[: n - start] ^ base) * 2.0**-BITS
        P *= box.widths
        P += box.lower
        if len(P) <= SAMPLE_BLOCK_ROWS:
            yield start, P
            continue
        # a block size that is not a power of two: cut the table's points
        for k in range(0, len(P), SAMPLE_BLOCK_ROWS):
            yield start + k, P[k : k + SAMPLE_BLOCK_ROWS].copy()


def sobol_points(box: Box, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """``n`` Sobol points inside ``box``, shape (n, box.dim): the whole stream."""
    blocks = sobol_blocks(box, n, seed)  # validates n before the allocation
    out = np.empty((n, box.dim))
    for start, pts in blocks:
        out[start : start + len(pts)] = pts
    return out
