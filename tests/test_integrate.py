import math

import numpy as np
import pytest

from approxred import integrate
from approxred.base import DivergenceError, InputError, StepBudgetError
from approxred.core import Box, VectorFieldDef
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
        assert traj.states[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_zero_field_is_constant(self):
        f = VectorFieldDef(n=2, rhs=lambda x: np.zeros(2), name="still")
        traj = integrate_field(f, [3.0, 4.0], IntegratorConfig(t_end=5.0))
        assert np.all(traj.states == [3.0, 4.0])

    def test_hoop_endpoint_matches_reference(self):
        # production rk4 against the frozen high-accuracy reference run
        entry = lookup("ball-hoop", {})
        cfg = IntegratorConfig(t_end=10.0, method="rk4", dt=1e-3)
        traj = integrate_field(entry.field, [0.5, 0.3], cfg)
        assert traj.states[-1] == pytest.approx(HOOP_ENDPOINT_T10, abs=1e-6)

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
            errors.append(abs(traj.states[-1][0] - math.exp(-1.0)))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(r >= 12.0 for r in ratios), ratios

    def test_divergence_is_reported_with_time(self):
        f = VectorFieldDef(n=1, rhs=lambda x: x**2, name="blowup")
        with pytest.raises(DivergenceError) as exc:
            integrate_field(f, [1.0], IntegratorConfig(t_end=3.0))
        assert 0.0 < exc.value.t_last <= 1.5

    # 1e-320 makes t_end / dt overflow to inf
    @pytest.mark.parametrize("dt", [1e-4, 1e-320])
    def test_step_budget(self, dt, monkeypatch):
        monkeypatch.setattr(integrate, "MAX_STEPS", 100)
        cfg = IntegratorConfig(t_end=1.0, method="rk4", dt=dt)
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
            end_adaptive = integrate_field(entry.field, entry.default_ic, fine).states[-1]
            end_fixed = integrate_field(entry.field, entry.default_ic, fixed).states[-1]
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

    def test_a_trajectory_without_derivatives_is_an_input_error(self):
        from approxred.core import Trajectory

        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.array([[0.0], [2.0], [4.0]]),
            dim=1,
        )
        with pytest.raises(InputError, match="node derivatives"):
            resample(traj, np.array([0.0, 0.5, 1.5, 2.0]))


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
    n, m = entry.field.n, entry.m
    box = Box(entry.default_ic - 0.4, entry.default_ic + 0.4)
    if mode == "projected":
        X0 = sobol_points(box, n_ic, seed=3)
        Y0 = X0[:, :m]
    else:
        P = sobol_points(box.concat(Box(box.lower[:m], box.upper[:m])), n_ic, seed=3)
        X0, Y0 = P[:, :n], P[:, n:]
    reduced = entry.reduced_override or construct_reduced(entry.field, m)
    return [(entry.field, X0, m), (reduced, Y0, None)]


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
        sups, _times, errors = sup_distance_on_grid(reduced, X0[:, :2], cfg, grid, full)
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


# (s, c)' = (1, 3 s^2) from 0 is s = t, c = t^3: both tableaus integrate it
# exactly, and a cubic Hermite interpolant reproduces it between the nodes
CUBE = VectorFieldDef(
    n=2, rhs=lambda x: np.stack([np.ones_like(x[..., 0]), 3.0 * x[..., 0] ** 2], axis=-1),
    name="cube",
)


@pytest.mark.parametrize("budgets", [{}, {"_BUFFER_ROW_STEPS": 1}], ids=["default", "buffer-1"])
@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_grid_values_are_the_closed_form_cube(method, budgets, monkeypatch):
    for name, value in budgets.items():
        monkeypatch.setattr(integrate, name, value)
    t_end = 30.0  # 3000 rk4 steps: more than one buffer of the default size
    cfg = IntegratorConfig(t_end=t_end, method=method, dt=0.01 if method == "rk4" else None)
    grid = np.linspace(0.0, t_end, 2001)
    on_grid = integrate_on_grid(CUBE, np.zeros((1, 2)), cfg, grid)[0][0]
    resampled = resample(integrate_field(CUBE, [0.0, 0.0], cfg), grid).states
    for values in (on_grid, resampled):
        assert np.abs(values[:, 1] - grid**3).max() <= 1e-12 * t_end**3


# a grid sink's budgets at their defaults, and small enough that each run
# spans many chunks and flushes
SINK_BUDGETS = pytest.mark.parametrize(
    "budgets",
    [{}, {"_GRID_CHUNK": 7}, {"_BUFFER_ROW_STEPS": 1}, {"_GRID_CHUNK": 7, "_BUFFER_ROW_STEPS": 1}],
    ids=["default", "chunk-7", "buffer-1", "both"],
)


class TestSupTimes:
    """sup_distance_on_grid's times are the grid times that np.argmax picks
    over np.linalg.norm's distances: a tie keeps the earlier time, across
    chunks and flushes."""

    @SINK_BUDGETS
    def test_times_are_the_first_argmax(self, budgets, monkeypatch):
        entry = lookup("cart-pendulum", {})
        reduced = entry.reduced_override
        X0 = entry.default_ic + np.linspace(-0.4, 0.4, 6)[:, None]
        grid = np.linspace(0.0, 8.0, 401)
        cfg = IntegratorConfig(t_end=8.0)
        full = integrate_on_grid(entry.field, X0, cfg, grid, keep=2)[0]
        red = integrate_on_grid(reduced, X0[:, :2], cfg, grid)[0]
        for name, value in budgets.items():
            monkeypatch.setattr(integrate, name, value)
        sups, times, errors = sup_distance_on_grid(reduced, X0[:, :2], cfg, grid, full)
        dev = np.linalg.norm(full - red, axis=-1)
        assert errors == [None] * 6
        assert np.array_equal(sups, dev.max(axis=1))
        assert np.array_equal(times, grid[np.argmax(dev, axis=1)])

    @SINK_BUDGETS
    def test_ties_keep_the_earlier_time(self, budgets, monkeypatch):
        # the zero field stays at 0, so each distance is the norm of its target
        zero = VectorFieldDef(n=2, rhs=lambda s: 0.0 * np.asarray(s), name="zero")
        grid = np.linspace(0.0, 1.0, 301)
        # p's squared norm is below q's, but their norms round alike
        p, q = next(
            (p, q)
            for b in 1.0 + 2.0**-52 * np.arange(64)
            for p, q in [(np.array([1.0, b]), np.array([1.0, np.nextafter(b, 2.0)]))]
            if (p * p).sum() < (q * q).sum() and np.linalg.norm(p) == np.linalg.norm(q)
        )
        target = np.full((5, grid.size, 2), 0.25)
        target[0, [3, 150, 299]] = p  # one top, reached in three chunks
        target[1, [3, 290]] = [p, q]  # a larger square, but no larger distance
        target[2, [40, 41]] = [q, p]
        target[3] = 0.0  # an identically zero deviation peaks at the first time
        target[4, 200] = np.nan  # the first distance that is not finite
        target[4, 250] = 1e300  # its square overflows
        for name, value in budgets.items():
            monkeypatch.setattr(integrate, name, value)
        cfg = IntegratorConfig(t_end=1.0, method="rk4", dt=0.01)
        sups, times, errors = sup_distance_on_grid(zero, np.zeros((5, 2)), cfg, grid, target)
        with np.errstate(over="ignore"):
            dev = np.linalg.norm(target, axis=-1)
        assert errors == [None] * 5
        assert np.array_equal(sups, [*dev[:4].max(axis=1), np.inf])
        assert np.array_equal(times, grid[[3, 3, 40, 0, 200]])
        assert np.array_equal(times[:4], grid[np.argmax(dev[:4], axis=1)])


class TestFieldPerRow:
    """A batch with one field per row gives each row the grid values and
    error of that field's run alone, evaluating it on lone states only."""

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_each_row_as_its_field_alone(self, method):
        cfg = IntegratorConfig(t_end=3.0, method=method, dt=0.01 if method == "rk4" else None)
        grid = np.linspace(0.0, 3.0, 301)
        fields = [lookup("ball-hoop", {"R": R}).field for R in (5.0, 10.0, 40.0)]
        blowup = VectorFieldDef(n=2, rhs=lambda s: 4.0 * np.asarray(s) ** 2, name="blowup")
        fields.insert(1, blowup)  # blows up at t = 0.5 from the state below
        counted = [_counted(f) for f in fields]
        X0 = np.tile([0.5, 0.3], (4, 1))
        values, errors = integrate_on_grid([f for f, _ in counted], X0, cfg, grid, keep=1)
        assert all(ndims and set(ndims) == {1} for _, ndims in counted)
        assert isinstance(errors[1], DivergenceError) and np.all(np.isnan(values[1]))
        for i, f in enumerate(fields):
            solo, solo_errors = integrate_on_grid(f, X0[i : i + 1], cfg, grid, keep=1)
            assert str(solo_errors[0]) == str(errors[i])
            assert solo[0].tobytes() == values[i].tobytes()

    def test_one_field_per_row_required(self):
        field = lookup("ball-hoop", {}).field
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(InputError, match="one initial state per field"):
            integrate_on_grid([field] * 2, np.zeros((3, 2)), IntegratorConfig(t_end=1.0), grid)


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
        np.testing.assert_allclose(traj.states[-1], solver.y, rtol=1e-12, atol=0)


def _mixed_field():
    """x' = -a x + b x^2 with a, b frozen: blow-up, stiff and tame rows."""

    def rhs(s):
        s = np.asarray(s, dtype=float)
        x, a, b = s[..., 0], s[..., 1], s[..., 2]
        return np.stack([-a * x + b * x * x, 0.0 * a, 0.0 * b], axis=-1)

    return VectorFieldDef(n=3, rhs=rhs, name="mixed")


class TestBatchFailures:
    def test_failed_rows_do_not_disturb_survivors(self, monkeypatch):
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
        monkeypatch.setattr(integrate, "MAX_STEPS", 1000)
        cfg = IntegratorConfig(t_end=2.0)
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

    def test_rk4_rows_that_turn_non_finite_do_not_disturb_survivors(self):
        f = _mixed_field()
        X0 = np.array(
            [
                [1.0, 0.0, 1.0],  # blows up at t = 1
                [0.5, 1.0, 0.0],
                [0.5, 2000.0, 0.0],  # unstable at this step: grows 5513-fold a step
                [2.0, 0.0, 1.0],  # blows up at t = 0.5
                [-0.3, 2.0, 0.5],
            ]
        )
        cfg = IntegratorConfig(t_end=2.0, method="rk4", dt=0.01)
        grid = np.linspace(0.0, 2.0, 201)
        values, errors = integrate_on_grid(f, X0, cfg, grid, keep=1)
        for i in (0, 2, 3):
            assert isinstance(errors[i], DivergenceError)
            assert errors[i].t_last == _rk4_last_finite_time(f, X0[i], cfg)
            assert np.all(np.isnan(values[i]))
        for i in (1, 4):
            assert errors[i] is None
            solo, solo_errors = integrate_on_grid(f, X0[i : i + 1], cfg, grid, keep=1)
            assert solo_errors == [None]
            assert solo[0].tobytes() == values[i].tobytes()

    def test_grid_outside_the_horizon_rejected(self):
        X0 = np.array([[1.0]])
        for grid in ([0.0, 2.0], [0.5, 0.2], [-0.1, 0.5]):
            with pytest.raises(InputError):
                integrate_on_grid(DECAY, X0, IntegratorConfig(t_end=1.0), np.array(grid))

    def test_lone_row_failure_raises(self, monkeypatch):
        monkeypatch.setattr(integrate, "MAX_STEPS", 1000)
        f = _mixed_field()
        with pytest.raises(StepBudgetError):
            integrate_field(f, [0.5, 2000.0, 0.0], IntegratorConfig(t_end=2.0))
        with pytest.raises(DivergenceError):
            integrate_field(f, [1.0, 0.0, 1.0], IntegratorConfig(t_end=2.0))


def _rk4_last_finite_time(field, x0, cfg: IntegratorConfig) -> float:
    """The time of the last finite state of a classical RK4 run of ``field``
    from x0, written out on the lone state; None if it reaches cfg.t_end."""
    t, x, h = 0.0, x0, cfg.dt
    with np.errstate(over="ignore", invalid="ignore"):
        while t < cfg.t_end:
            k1 = field.rhs(x)
            k2 = field.rhs(x + 0.5 * h * k1)
            k3 = field.rhs(x + 0.5 * h * k2)
            k4 = field.rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                return t
            t = t + h
    return None


# x' = 1e308 overflows the state in one accepted step; x' = x^2 from 1 drives
# the adaptive step to underflow near t = 1, and rk4's state to overflow past
# it; x' = -x needs more than 8 steps
SURGE = VectorFieldDef(n=1, rhs=lambda x: np.full(np.shape(x), 1e308), name="surge")
BLOWUP = VectorFieldDef(n=1, rhs=lambda x: np.asarray(x) ** 2, name="blowup")
RK45 = IntegratorConfig(t_end=2.0)
RK4 = IntegratorConfig(t_end=2.0, method="rk4", dt=0.1)


class TestFailureMessages:
    """The engine's three failure messages, byte for byte, for a lone row and
    for a row of a batch whose other row survives (every row, when the rk4
    step count alone is over budget)."""

    @pytest.mark.parametrize(
        "field,x0,cfg,budget,error,message",
        [
            (SURGE, [1e308, -1e308], RK45, None, DivergenceError,
             "surge: state became non-finite after t=0.700363"),
            (BLOWUP, [1.0, -1.0], RK4, None, DivergenceError,
             "blowup: state became non-finite after t=1.2"),
            (BLOWUP, [1.0, -1.0], RK45, None, DivergenceError,
             "blowup: adaptive step size underflow near t=1"),
            (DECAY, [1.0, 0.0], RK45, 8, StepBudgetError,
             "decay: step budget of 8 exhausted at t=0.489213"),
            (DECAY, [1.0, 0.0], RK4, 8, StepBudgetError,
             "decay: step budget of 8 exhausted at t=0"),
        ],
        ids=["non-finite-rk45", "non-finite-rk4", "underflow-rk45", "budget-rk45", "budget-rk4"],
    )
    def test_lone_and_batch_rows_fail_with_the_same_message(
        self, field, x0, cfg, budget, error, message, monkeypatch
    ):
        if budget is not None:
            monkeypatch.setattr(integrate, "MAX_STEPS", budget)
        with pytest.raises(error) as lone:
            integrate_field(field, x0[:1], cfg)
        assert str(lone.value) == message
        grid = np.linspace(0.0, cfg.t_end, 5)
        _values, errors = integrate_on_grid(field, np.array(x0)[:, None], cfg, grid)
        assert type(errors[0]) is error and str(errors[0]) == message
        assert errors[0].t_last == lone.value.t_last
        if cfg.method == "rk4" and budget is not None:
            assert str(errors[1]) == message
        else:
            assert errors[1] is None


class TestBlockContract:
    """One field for many rows is evaluated on the whole block, a lone row
    on its 1-d state."""

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_one_field_evaluates_blocks_and_lone_rows(self, method):
        f, calls = _counted(lookup("ball-hoop", {}).field)
        cfg = IntegratorConfig(t_end=1.0, method=method, dt=0.1 if method == "rk4" else None)
        grid = np.linspace(0.0, 1.0, 11)
        X0 = np.array([[0.5, 0.3], [-0.2, 0.1], [1.0, -0.4]])
        integrate_on_grid(f, X0, cfg, grid)
        assert calls and set(calls) == {2}
        calls.clear()
        integrate_on_grid(f, X0[:1], cfg, grid)
        assert calls and set(calls) == {1}
