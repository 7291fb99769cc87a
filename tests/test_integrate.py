import math

import numpy as np
import pytest

from approxred.core import (
    Box,
    DivergenceError,
    InputError,
    StepBudgetError,
    VectorFieldDef,
)
from approxred.integrate import (
    IntegratorConfig,
    integrate_field,
    integrate_on_grid,
    resample,
    sup_distance_on_grid,
)
from approxred.reduction import construct_reduced
from approxred.sampling import sobol_points
from approxred.systems import lookup
from approxred.user_systems import system_from_dict

from reference_values import HOOP_ENDPOINT_T10

DECAY = VectorFieldDef(n=1, rhs=lambda x: -x, name="decay")


class TestIntegrateField:
    def test_exponential_decay_rk4(self):
        cfg = IntegratorConfig(t_end=1.0, method="rk4", dt=0.01)
        traj = integrate_field(DECAY, [1.0], cfg)
        assert traj.endpoint[0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_zero_field_is_constant(self):
        f = VectorFieldDef(n=2, rhs=lambda x: np.zeros(2), name="still")
        traj = integrate_field(f, [3.0, 4.0], IntegratorConfig(t_end=5.0))
        assert np.all(traj.states == [3.0, 4.0])

    def test_hoop_endpoint_matches_reference(self):
        # production rk4 against the frozen high-accuracy reference run
        entry = lookup("ball-hoop", {})
        cfg = IntegratorConfig(t_end=10.0, method="rk4", dt=1e-3)
        traj = integrate_field(entry.field, [0.5, 0.3], cfg)
        assert traj.endpoint == pytest.approx(HOOP_ENDPOINT_T10, abs=1e-6)

    def test_initial_condition_exact_and_grid_monotone(self):
        for cfg in (
            IntegratorConfig(t_end=3.0),
            IntegratorConfig(t_end=3.0, method="rk4", dt=0.037),
        ):
            traj = integrate_field(DECAY, [0.7], cfg)
            assert traj.times[0] == 0.0
            assert traj.states[0, 0] == 0.7
            assert np.all(np.diff(traj.times) > 0)
            assert traj.times[-1] == pytest.approx(3.0, abs=1e-12)

    def test_order_of_rk4(self):
        # one halving of dt must shrink the endpoint error by >= 12x
        errors = []
        for dt in (0.1, 0.05, 0.025, 0.0125):
            cfg = IntegratorConfig(t_end=1.0, method="rk4", dt=dt)
            traj = integrate_field(DECAY, [1.0], cfg)
            errors.append(abs(traj.endpoint[0] - math.exp(-1.0)))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(r >= 12.0 for r in ratios), ratios

    def test_divergence_is_reported_with_time(self):
        f = VectorFieldDef(n=1, rhs=lambda x: x**2, name="blowup")
        with pytest.raises(DivergenceError) as exc:
            integrate_field(f, [1.0], IntegratorConfig(t_end=3.0))
        assert 0.0 < exc.value.t_last <= 1.5

    def test_step_budget(self):
        cfg = IntegratorConfig(t_end=1.0, method="rk4", dt=1e-4, max_steps=100)
        with pytest.raises(StepBudgetError):
            integrate_field(DECAY, [1.0], cfg)

    def test_config_validation(self):
        with pytest.raises(InputError):
            IntegratorConfig(t_end=-1.0)
        with pytest.raises(InputError):
            IntegratorConfig(t_end=1.0, method="rk4")
        with pytest.raises(InputError):
            IntegratorConfig(t_end=1.0, method="euler", dt=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": math.inf},
            {"t_end": math.nan},
            {"t_end": math.inf, "method": "rk4", "dt": 0.1},
            {"t_end": 1.0, "method": "rk4", "dt": math.inf},
            {"t_end": 1.0, "rtol": math.inf},
            {"t_end": 1.0, "atol": math.nan},
        ],
    )
    def test_config_rejects_non_finite_values(self, kwargs):
        with pytest.raises(InputError, match="must be finite"):
            IntegratorConfig(**kwargs)


class TestAdaptiveFixedAgreement:
    @pytest.mark.slow
    def test_builtin_systems_agree(self):
        for name in ("ball-hoop", "cart-pendulum"):
            entry = lookup(name, {})
            fine = IntegratorConfig(t_end=10.0, rtol=1e-10, atol=1e-10)
            fixed = IntegratorConfig(t_end=10.0, method="rk4", dt=1e-4)
            end_adaptive = integrate_field(entry.field, entry.default_ic, fine).endpoint
            end_fixed = integrate_field(entry.field, entry.default_ic, fixed).endpoint
            assert np.linalg.norm(end_adaptive - end_fixed) < 1e-6


class TestResample:
    def test_constant_resamples_to_constant(self):
        f = VectorFieldDef(n=2, rhs=lambda x: np.zeros(2))
        traj = integrate_field(f, [3.0, 4.0], IntegratorConfig(t_end=2.0))
        out = resample(traj, np.linspace(0.0, 2.0, 17))
        assert np.allclose(out.states, [3.0, 4.0], atol=0, rtol=0)

    def test_exact_at_original_nodes(self):
        cfg = IntegratorConfig(t_end=1.0, method="rk4", dt=0.1)
        traj = integrate_field(DECAY, [1.0], cfg)
        out = resample(traj, traj.times)
        assert np.allclose(out.states, traj.states, atol=1e-14, rtol=0)

    def test_midpoint_value(self):
        cfg = IntegratorConfig(t_end=1.0, method="rk4", dt=0.1)
        traj = integrate_field(DECAY, [1.0], cfg)
        out = resample(traj, np.array([0.0, 0.5]))
        assert out.states[-1, 0] == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_extrapolation_rejected(self):
        traj = integrate_field(DECAY, [1.0], IntegratorConfig(t_end=1.0))
        with pytest.raises(InputError):
            resample(traj, np.array([0.0, 1.5]))

    def test_grid_must_be_valid(self):
        traj = integrate_field(DECAY, [1.0], IntegratorConfig(t_end=1.0))
        with pytest.raises(InputError):
            resample(traj, np.array([0.2, 0.5]))

    def test_linear_fallback_without_derivatives(self):
        from approxred.core import Trajectory

        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.array([[0.0], [2.0], [4.0]]),
            dim=1,
        )
        out = resample(traj, np.array([0.0, 0.5, 1.5, 2.0]))
        assert np.allclose(out.states[:, 0], [0.0, 1.0, 3.0, 4.0], atol=0)


USER_DOC = {
    "name": "coupled-3",
    "state": ["y", "p", "q"],
    "m": 1,
    "params": {"a": 1.1, "c": 0.5, "k": 2.0, "d": 0.5, "e": 0.2},
    "rhs": ["-a*y + c*sin(p)*cos(q)", "q", "-k*sin(p) - d*q + e*cos(y)"],
    "x0": [0.5, 0.2, 0.0],
}


def _entry(name):
    if name == "user":
        return system_from_dict(USER_DOC)[0]
    return lookup(name, {})


def _sides(name, mode, n_ic=5):
    """(field, initial states, kept coordinates) of both sides of a bound run."""
    entry = _entry(name)
    d = entry.decomp
    box = Box(entry.default_ic - 0.4, entry.default_ic + 0.4)
    if mode == "projected":
        X0 = sobol_points(box, n_ic, seed=3)
        Y0 = X0[:, : d.m]
    else:
        P = sobol_points(box.concat(box.project(d, "m")), n_ic, seed=3)
        X0, Y0 = P[:, : d.n], P[:, d.n :]
    reduced = entry.reduced_override or construct_reduced(entry.field, d)
    return [(entry.field, X0, d.m), (reduced, Y0, None)]


class TestRowIndependence:
    """A row's grid values never depend on which rows share its batch."""

    @pytest.mark.parametrize("mode", ["projected", "cross"])
    @pytest.mark.parametrize("name", ["ball-hoop", "cart-pendulum", "user"])
    def test_alone_batched_reversed_and_split_agree(self, name, mode):
        grid = np.linspace(0.0, 4.0, 201)
        rk4 = IntegratorConfig(t_end=4.0, method="rk4", dt=0.05)
        for cfg in (IntegratorConfig(t_end=4.0), rk4):
            for field, X0, keep in _sides(name, mode):

                def run(rows):
                    return integrate_on_grid(field, rows, cfg, grid, keep)[0]

                def in_blocks(size):
                    return np.concatenate([run(X0[i : i + size]) for i in range(0, len(X0), size)])

                batch = run(X0)
                assert np.all(np.isfinite(batch))
                for other in (in_blocks(1), in_blocks(3), run(X0[::-1])[::-1]):
                    assert other.tobytes() == batch.tobytes()

    def test_sup_distance_streams_the_grid_values(self):
        entry = lookup("cart-pendulum", {})
        reduced = entry.reduced_override
        X0 = entry.default_ic + np.linspace(-0.4, 0.4, 6)[:, None]
        grid = np.linspace(0.0, 8.0, 401)
        cfg = IntegratorConfig(t_end=8.0)
        full = integrate_on_grid(entry.field, X0, cfg, grid, keep=2)[0]
        red = integrate_on_grid(reduced, X0[:, :2], cfg, grid)[0]
        sups, errors = sup_distance_on_grid(reduced, X0[:, :2], cfg, grid, full)
        assert errors == [None] * 6
        assert np.array_equal(sups, np.linalg.norm(full - red, axis=-1).max(axis=1))

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_grid_values_equal_resampled_nodes(self, method):
        # the batched path and integrate_field + resample build the same cubic
        entry = lookup("ball-hoop", {})
        cfg = IntegratorConfig(t_end=5.0, method=method, dt=0.01 if method == "rk4" else None)
        grid = np.linspace(0.0, 5.0, 501)
        direct = integrate_on_grid(entry.field, entry.default_ic[None], cfg, grid)[0][0]
        nodes = integrate_field(entry.field, entry.default_ic, cfg)
        assert resample(nodes, grid).states.tobytes() == direct.tobytes()


def _counted(field):
    """``field`` whose rhs counts its calls; returns (field, counter)."""
    calls = []

    def rhs(x):
        calls.append(np.ndim(x))
        return field.rhs(x)

    return VectorFieldDef(n=field.n, rhs=rhs, name=field.name), calls


def _van_der_pol():
    """x'' = 5 (1 - x^2) x' - x: its fast phases make the controller reject steps."""

    def rhs(s):
        s = np.asarray(s, dtype=float)
        x, v = s[..., 0], s[..., 1]
        return np.stack([v, 5.0 * (1.0 - x * x) * v - x], axis=-1)

    return VectorFieldDef(n=2, rhs=rhs, name="van-der-pol"), np.array([2.0, 0.0])


class TestScipyOracle:
    """The DOPRI5 controller takes scipy's RK45 steps (scipy imported here only)."""

    @pytest.mark.parametrize(
        "name,t_end,tol",
        [("ball-hoop", 10.0, 1e-9), ("cart-pendulum", 30.0, 1e-9), ("van-der-pol", 10.0, 1e-6)],
    )
    def test_same_steps_and_endpoint(self, name, t_end, tol):
        from scipy.integrate import RK45

        if name == "van-der-pol":
            field, x0 = _van_der_pol()
        else:
            entry = lookup(name, {})
            field, x0 = entry.field, entry.default_ic
        solver = RK45(lambda _t, y: field.rhs(y), 0.0, x0, t_end, rtol=tol, atol=tol)
        steps = 0
        while solver.status == "running":
            solver.step()
            steps += 1
        assert solver.status == "finished"
        counted, calls = _counted(field)
        traj = integrate_field(counted, x0, IntegratorConfig(t_end=t_end, rtol=tol, atol=tol))
        assert len(traj.times) - 1 == steps
        assert len(calls) == solver.nfev
        np.testing.assert_allclose(traj.endpoint, solver.y, rtol=1e-12, atol=0)


def _mixed_field():
    """x' = -a x + b x^2 with a, b frozen: blow-up, stiff and tame rows."""

    def rhs(s):
        s = np.asarray(s, dtype=float)
        x, a, b = s[..., 0], s[..., 1], s[..., 2]
        return np.stack([-a * x + b * x * x, 0.0 * a, 0.0 * b], axis=-1)

    return VectorFieldDef(n=3, rhs=rhs, name="mixed")


class TestBatchFailures:
    def test_failed_rows_do_not_disturb_survivors(self):
        f = _mixed_field()
        X0 = np.array(
            [
                [1.0, 0.0, 1.0],  # blows up at t = 1
                [0.5, 1.0, 0.0],
                [0.5, 2000.0, 0.0],  # stiff: needs about 1300 steps
                [2.0, 0.0, 1.0],  # blows up at t = 0.5
                [-0.3, 2.0, 0.5],
                [0.2, 0.5, 0.0],
                [0.5, 0.0, np.inf],  # non-finite from the start
            ]
        )
        cfg = IntegratorConfig(t_end=2.0, max_steps=1000)
        grid = np.linspace(0.0, 2.0, 201)
        values, errors = integrate_on_grid(f, X0, cfg, grid, keep=1)
        assert isinstance(errors[0], DivergenceError) and 0.5 < errors[0].t_last <= 1.0
        assert isinstance(errors[3], DivergenceError) and 0.2 < errors[3].t_last <= 0.5
        assert isinstance(errors[2], StepBudgetError) and 0.0 < errors[2].t_last < 2.0
        assert isinstance(errors[6], DivergenceError) and errors[6].t_last == 0.0
        assert np.all(np.isnan(values[[0, 2, 3, 6]]))
        for i in (1, 4, 5):
            assert errors[i] is None
            solo, solo_errors = integrate_on_grid(f, X0[i : i + 1], cfg, grid, keep=1)
            assert solo_errors == [None]
            assert solo[0].tobytes() == values[i].tobytes()

    def test_grid_outside_the_horizon_rejected(self):
        X0 = np.array([[1.0]])
        for grid in ([0.0, 2.0], [0.5, 0.2], [-0.1, 0.5]):
            with pytest.raises(InputError):
                integrate_on_grid(DECAY, X0, IntegratorConfig(t_end=1.0), np.array(grid))

    def test_lone_row_failure_raises(self):
        f = _mixed_field()
        with pytest.raises(StepBudgetError):
            integrate_field(f, [0.5, 2000.0, 0.0], IntegratorConfig(t_end=2.0, max_steps=1000))
        with pytest.raises(DivergenceError):
            integrate_field(f, [1.0, 0.0, 1.0], IntegratorConfig(t_end=2.0))


class TestNonVectorizedRhs:
    """A rhs written for one state runs row by row after a single batch probe."""

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_zero_field(self, method):
        f, calls = _counted(VectorFieldDef(n=2, rhs=lambda x: np.zeros(2), name="still"))
        X0 = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]])
        cfg = IntegratorConfig(t_end=1.0, method=method, dt=0.1 if method == "rk4" else None)
        grid = np.linspace(0.0, 1.0, 11)
        values, errors = integrate_on_grid(f, X0, cfg, grid)
        assert errors == [None] * 3
        assert np.array_equal(values, np.broadcast_to(X0[:, None, :], values.shape))
        assert calls.count(2) == 1  # one probe, never retried

    def test_scalar_math_pendulum(self):
        f, calls = _counted(
            VectorFieldDef(n=2, rhs=lambda x: np.array([x[1], -math.sin(x[0])]), name="pendulum")
        )
        X0 = np.array([[0.3, 0.0], [1.0, -0.5], [-0.7, 0.2]])
        cfg = IntegratorConfig(t_end=3.0)
        grid = np.linspace(0.0, 3.0, 61)
        values, errors = integrate_on_grid(f, X0, cfg, grid)
        assert errors == [None] * 3
        assert calls.count(2) == 1
        for i, x0 in enumerate(X0):
            solo = resample(integrate_field(f, x0, cfg), grid).states
            assert solo.tobytes() == values[i].tobytes()
        # the vectorized form of the same field agrees up to rounding
        vec = VectorFieldDef(n=2, rhs=lambda x: np.stack([x[..., 1], -np.sin(x[..., 0])], axis=-1))
        assert np.allclose(integrate_on_grid(vec, X0, cfg, grid)[0], values, atol=1e-12)
