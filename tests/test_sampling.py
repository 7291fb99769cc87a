"""The numpy Sobol generator against scipy's scrambled Sobol as the oracle."""

import pathlib
import warnings

import numpy as np
import pytest

from approxred import sampling
from approxred.core import Box, InputError
from approxred.sampling import (
    BITS,
    DEFAULT_SEED,
    MAX_DIM,
    MAX_POINTS,
    SAMPLE_BLOCK_ROWS,
    joe_kuo,
    sobol_blocks,
    sobol_points,
)

qmc = pytest.importorskip("scipy.stats.qmc")


def unit_sobol(dim, n, seed=DEFAULT_SEED):
    """First ``n`` scrambled Sobol points in the unit cube of ``dim`` dimensions."""
    return sobol_points(Box(np.zeros(dim), np.ones(dim)), n, seed)


def scipy_sobol(dim, n, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # n not a power of two
        return qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)


def assert_same_bytes(ours, theirs):
    assert ours.dtype == theirs.dtype == np.float64
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


class TestScipyOracle:
    @pytest.mark.parametrize("seed", [0, DEFAULT_SEED])
    def test_every_dimension_small_n(self, seed):
        for dim in range(1, MAX_DIM + 1):
            for n in (1, 2, 3, 5, 7, 100, 1000):
                assert_same_bytes(unit_sobol(dim, n, seed), scipy_sobol(dim, n, seed))

    @pytest.mark.parametrize("dim,n", [(2, 512), (3, 4096), (5, 5000), (8, 4097), (64, 300)])
    def test_powers_of_two_and_between(self, dim, n):
        for seed in (1, 7, 123456789):
            assert_same_bytes(unit_sobol(dim, n, seed), scipy_sobol(dim, n, seed))

    @pytest.mark.parametrize("dim", [4, 10])
    def test_full_falsifier_sample(self, dim):
        assert_same_bytes(unit_sobol(dim, 2**20, 3), scipy_sobol(dim, 2**20, 3))

    def test_embedded_table_is_joe_kuo_from_scipy(self):
        path = pathlib.Path(qmc.__file__).parent / "_sobol_direction_numbers.npz"
        with np.load(path) as ref:
            poly, vinit = ref["poly"][:MAX_DIM], ref["vinit"][:MAX_DIM]
        rows = joe_kuo()
        assert [row[0] for row in rows] == poly.tolist()
        table = np.zeros_like(vinit)
        for d, (_poly, *m) in enumerate(rows):
            table[d, : len(m)] = m
        assert np.array_equal(table, vinit)


# counts around one and two default blocks, and past several
BLOCK_EDGES = (
    *(k * SAMPLE_BLOCK_ROWS + r for k in (1, 2) for r in (-1, 0, 1)),
    6 * SAMPLE_BLOCK_ROWS + 5,
)


class TestStream:
    """``sobol_blocks`` converts one block-sized Gray-code table per block; the
    points stay scipy's."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 10, 64])
    def test_block_edges(self, dim):
        for n in BLOCK_EDGES:
            assert_same_bytes(unit_sobol(dim, n, 9), scipy_sobol(dim, n, 9))

    @pytest.mark.parametrize("block_rows", [1, 7, 8])
    def test_tiny_blocks(self, block_rows, monkeypatch):
        # 7 is not a power of two: its blocks are cut from a table of 8
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", block_rows)
        for dim in (1, 3, 10):
            for n in (1, 7, 8, 9, 16, 17, 100, 1000):
                assert_same_bytes(unit_sobol(dim, n, 4), scipy_sobol(dim, n, 4))

    @pytest.mark.parametrize("block_rows", [7, 8, SAMPLE_BLOCK_ROWS])
    def test_nested_across_blocks(self, block_rows, monkeypatch):
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", block_rows)
        big = unit_sobol(5, 3 * block_rows + 5, 11)
        for n in (1, block_rows - 1, block_rows, block_rows + 1, 2 * block_rows + 3):
            assert np.array_equal(unit_sobol(5, n, 11), big[:n])

    @pytest.mark.parametrize("block_rows", [7, 8192])
    def test_blocks_are_consecutive_fresh_and_bounded(self, block_rows, monkeypatch):
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", block_rows)
        box = Box.from_pairs([(-1.0, 3.0), (0.5, 0.75), (2.0, 2.0)])
        n = 2**16 + 2 * 8192 + 3
        end = 0
        for start, pts in sobol_blocks(box, n, 6):
            assert start == end and 1 <= len(pts) <= block_rows
            assert pts.shape[1] == 3 and pts.flags.owndata
            end += len(pts)
        assert end == n

    def test_bad_arguments_fail_at_the_call(self):
        box = Box.from_pairs([(0.0, 1.0)])
        with pytest.raises(InputError, match=r"2\*\*30"):
            sobol_blocks(box, 0)


class TestScrambleBits:
    """The scramble bits come from an in-house PCG64 stream equal to numpy's."""

    @pytest.mark.parametrize(
        "seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3, 2**200]
    )
    def test_equal_to_default_rng(self, seed):
        # 2**128 + 3 and 2**200 are more than four 32-bit words of entropy
        for dim in (1, 2, 10, 64):
            rng = np.random.default_rng(seed)
            shift = rng.integers(2, size=(dim, BITS), dtype=np.uint32)
            matrix = rng.integers(2, size=(dim, BITS, BITS), dtype=np.uint32)
            bits = sampling._random_bits(seed, dim * BITS * (1 + BITS))
            assert bits.dtype == np.uint32
            assert np.array_equal(bits, np.concatenate([shift.ravel(), matrix.ravel()]))

    def test_an_odd_count_carries_the_high_half_over(self):
        rng = np.random.default_rng(7)
        first = rng.integers(2, size=3, dtype=np.uint32)
        rest = rng.integers(2, size=6, dtype=np.uint32)
        assert np.array_equal(sampling._random_bits(7, 9), np.concatenate([first, rest]))

    def test_integer_seeds_only(self):
        assert np.array_equal(unit_sobol(3, 16, np.int64(5)), unit_sobol(3, 16, 5))
        with pytest.raises(TypeError):
            unit_sobol(3, 16, 5.0)


class TestProperties:
    def test_nested_and_deterministic(self):
        big = unit_sobol(6, 1000, 11)
        assert np.array_equal(unit_sobol(6, 1000, 11), big)
        assert np.array_equal(unit_sobol(6, 37, 11), big[:37])

    def test_points_on_the_30_bit_grid_inside_the_box(self):
        box = Box.from_pairs([(-1.0, 3.0), (0.5, 0.75)])
        P = sobol_points(box, 4096, 5)
        assert np.all((P >= box.lower) & (P < box.upper))
        U = unit_sobol(2, 4096, 5) * 2**BITS
        assert np.array_equal(U, np.floor(U))

    @pytest.mark.parametrize("n", [0, -5, MAX_POINTS + 1])
    def test_sample_count_limits(self, n):
        with pytest.raises(InputError, match=r"2\*\*30"):
            sobol_points(Box.from_pairs([(0.0, 1.0)]), n)

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_negative_seed(self, seed):
        with pytest.raises(InputError, match="non-negative"):
            sobol_points(Box.from_pairs([(0.0, 1.0)]), 4, seed)

    def test_dimension_limit(self):
        box = Box(np.zeros(MAX_DIM + 1), np.ones(MAX_DIM + 1))
        with pytest.raises(InputError, match=str(MAX_DIM)):
            sobol_points(box, 4)
