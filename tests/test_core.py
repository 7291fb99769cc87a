import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxred.core import (
    Box,
    ComparisonFunction,
    InputError,
    Trajectory,
    VectorFieldDef,
    check_retained,
)
from approxred.integrate import IntegratorConfig
from approxred.reduction import (
    check_exact_reducible,
    construct_reduced,
    estimate_delta,
    measure_deviation,
    sweep_deviation,
)
from approxred.stability import IncrementalCertificate, check_fiberwise

LOG_GRID = np.logspace(-6, 6, 1000)


FIELD_3 = VectorFieldDef(n=3, rhs=lambda x: -np.asarray(x, dtype=float), name="decay")
BOX_3 = Box.from_pairs([(-1, 1)] * 3)
CFG = IntegratorConfig(t_end=1.0)


def fiber_quadratic(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([0.5 * np.sum(x[..., 1:] ** 2, axis=-1)[..., None],
                           np.zeros_like(x[..., :1]), x[..., 1:]], axis=-1)


CERT = IncrementalCertificate(fiber_quadratic, ComparisonFunction(0.5, 2.0),
                              ComparisonFunction(0.5, 2.0))


class TestCheckRetained:
    @pytest.mark.parametrize("m", [1, 2, np.int64(2)])
    def test_accepts_both_blocks_nonempty(self, m):
        check_retained(m, 3)

    @pytest.mark.parametrize("m", [0, -1, 3, 4, True, False, 1.0, 1.5, "1", None])
    def test_rejects_an_empty_block_a_bool_and_a_non_integer(self, m):
        with pytest.raises(InputError, match=r"retained dimension m=.* 1 <= m < 3"):
            check_retained(m, 3)

    @pytest.mark.parametrize("call", [
        lambda m: construct_reduced(FIELD_3, m),
        lambda m: check_exact_reducible(FIELD_3, m, BOX_3, 8),
        lambda m: measure_deviation(FIELD_3, m, [0.1, 0.2, 0.3], CFG),
        lambda m: next(sweep_deviation([FIELD_3], m, [0.1, 0.2, 0.3], CFG)),
        lambda m: estimate_delta(FIELD_3, m, BOX_3, 4, CFG),
        lambda m: check_fiberwise(FIELD_3, m, CERT, BOX_3, 8),
    ], ids=["construct_reduced", "check_exact_reducible", "measure_deviation",
            "sweep_deviation", "estimate_delta", "check_fiberwise"])
    def test_every_function_that_takes_m_checks_it(self, call):
        with pytest.raises(InputError, match="retained dimension m=3"):
            call(3)
        call(1)  # the same call with a valid split runs


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
