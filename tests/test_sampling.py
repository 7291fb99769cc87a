"""The numpy Sobol generator against scipy's scrambled Sobol as the oracle."""

import pathlib
import warnings

import numpy as np
import pytest

from approxred.core import Box, InputError
from approxred.sampling import (
    BITS,
    DEFAULT_SEED,
    MAX_DIM,
    MAX_POINTS,
    joe_kuo,
    sobol_points,
    unit_sobol,
)

qmc = pytest.importorskip("scipy.stats.qmc")


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

    def test_dimension_limit(self):
        box = Box(np.zeros(MAX_DIM + 1), np.ones(MAX_DIM + 1))
        with pytest.raises(InputError, match=str(MAX_DIM)):
            sobol_points(box, 4)
