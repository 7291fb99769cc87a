import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxred.core import (
    Box,
    ComparisonFunction,
    Decomposition,
    InputError,
    Trajectory,
    VectorFieldDef,
    project,
)

LOG_GRID = np.logspace(-6, 6, 1000)


class TestProject:
    def test_first_m_coordinates(self):
        d = Decomposition(n=3, m=2, k=1)
        assert np.array_equal(project([1.0, 2.0, 3.0], d, "m"), [1.0, 2.0])

    def test_last_k_coordinates(self):
        d = Decomposition(n=3, m=2, k=1)
        assert np.array_equal(project([1.0, 2.0, 3.0], d, "k"), [3.0])

    def test_zero_vector(self):
        d = Decomposition(n=2, m=1, k=1)
        assert np.array_equal(project([0.0, 0.0], d, "m"), [0.0])

    def test_dimension_mismatch(self):
        d = Decomposition(n=3, m=2, k=1)
        with pytest.raises(InputError):
            project([1.0, 2.0], d, "m")

    def test_bad_selector(self):
        d = Decomposition(n=2, m=1, k=1)
        with pytest.raises(InputError):
            project([1.0, 2.0], d, "q")

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.randoms(use_true_random=False),
    )
    def test_reconstruction_is_bit_identical(self, m, k, rnd):
        d = Decomposition(n=m + k, m=m, k=k)
        x = np.array([rnd.uniform(-1e6, 1e6) for _ in range(m + k)])
        rebuilt = np.concatenate([project(x, d, "m"), project(x, d, "k")])
        assert rebuilt.tobytes() == x.tobytes()


class TestDecomposition:
    def test_requires_consistent_split(self):
        with pytest.raises(InputError):
            Decomposition(n=3, m=2, k=2)

    def test_requires_nonempty_blocks(self):
        with pytest.raises(InputError):
            Decomposition(n=3, m=3, k=0)

    def test_retain_helper(self):
        d = Decomposition.retain(5, 2)
        assert (d.n, d.m, d.k) == (5, 2, 3)


comparison_functions = st.one_of(
    st.builds(
        ComparisonFunction,
        st.floats(min_value=1e-3, max_value=1e3),
    ),
    st.builds(
        ComparisonFunction,
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.2, max_value=4.0),
    ),
)


class TestComparisonFunction:
    def test_linear_value(self):
        assert ComparisonFunction(2.0).value(3.0) == 6.0

    def test_power_zero_at_zero(self):
        assert ComparisonFunction(1.0, 2.0).value(0.0) == 0.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=30)
    def test_linear_is_the_power_one_with_the_bits_of_a_times_r(self, a):
        f = ComparisonFunction(a)
        assert (f.a, f.p) == (a, 1.0)
        r = np.concatenate([[0.0], np.logspace(-300, 250, 551), [np.inf]])
        assert f.value(r).tobytes() == (a * r).tobytes()

    def test_negative_radius_rejected(self):
        with pytest.raises(InputError):
            ComparisonFunction(1.0).value(-0.1)

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(InputError):
            ComparisonFunction(0.0)
        with pytest.raises(InputError):
            ComparisonFunction(1.0, -2.0)

    @given(comparison_functions)
    @settings(max_examples=60)
    def test_strictly_increasing_on_log_grid(self, f):
        vals = f.value(LOG_GRID)
        assert np.all(np.diff(vals) > 0)
        assert f.value(0.0) == 0.0

    @given(comparison_functions)
    @settings(max_examples=30)
    def test_unbounded_growth(self, f):
        assert f.value(1e12) > f.value(1e6) > 0


class TestTrajectory:
    def test_must_start_at_zero(self):
        with pytest.raises(InputError):
            Trajectory(times=[0.5, 1.0], states=[[1.0], [2.0]], dim=1)

    def test_must_increase(self):
        with pytest.raises(InputError):
            Trajectory(times=[0.0, 1.0, 1.0], states=[[1.0]] * 3, dim=1)

    def test_needs_two_points(self):
        with pytest.raises(InputError):
            Trajectory(times=[0.0], states=[[1.0]], dim=1)

    def test_shape_checked(self):
        with pytest.raises(InputError):
            Trajectory(times=[0.0, 1.0], states=[[1.0, 2.0], [3.0, 4.0]], dim=1)


class TestVectorFieldDef:
    def test_output_length_checked(self):
        bad = VectorFieldDef(n=2, rhs=lambda x: x[:1])
        with pytest.raises(InputError):
            bad([1.0, 2.0])

    def test_deterministic_evaluation(self):
        f = VectorFieldDef(n=2, rhs=lambda x: np.array([-x[0], x[0] * x[1]]))
        x = np.array([0.3, -1.2])
        assert np.array_equal(f(x), f(x))


class TestBox:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(InputError):
            Box([0.0, 1.0], [1.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lower,upper,needle",
        [
            ([-np.inf, 0.0], [1.0, 1.0], "bounds"),
            ([0.0, 0.0], [1.0, np.inf], "bounds"),
            ([0.0, np.nan], [1.0, 1.0], "bounds"),
            ([-1e308, 0.0], [1e308, 1.0], "widths"),
        ],
    )
    def test_rejects_non_finite_bounds_and_widths(self, lower, upper, needle):
        with pytest.raises(InputError, match=f"box {needle} must be finite"):
            Box(lower, upper)

    def test_projection(self):
        d = Decomposition(n=3, m=2, k=1)
        box = Box.from_pairs([(-1, 1), (-2, 2), (-3, 3)])
        assert np.array_equal(box.project(d, "k").lower, [-3.0])
        assert np.array_equal(box.project(d, "m").upper, [1.0, 2.0])

    def test_diameter(self):
        box = Box.from_pairs([(0, 3), (0, 4)])
        assert box.diameter() == 5.0

    @pytest.mark.filterwarnings("error")
    def test_diameter_whose_squares_overflow(self):
        widths = (1.4, 3.0, 2.1e200)
        box = Box.from_pairs([(0.0, w) for w in widths])
        exact = np.hypot.reduce(widths)
        assert np.isfinite(box.diameter())
        assert abs(box.diameter() - exact) <= np.spacing(exact)
