import tracemalloc

import numpy as np
import pytest

from approxred import integrate, reduction
from approxred.cli import _json_document
from approxred.base import DivergenceError, EvaluationError, StepBudgetError
from approxred.core import Box, VectorFieldDef
from approxred.integrate import IntegratorConfig, integrate_field, resample
from approxred.numdiff import jacobian_batch
from approxred.reduction import (
    NOT_REDUCIBLE,
    REDUCIBLE,
    check_exact_reducible,
    construct_reduced,
    estimate_delta,
    measure_deviation,
    sweep_deviation,
)
from approxred.sampling import sobol_points
from approxred.systems import lookup
from approxred.user_systems import system_from_dict

from reference_values import (
    HOOP_DELTA_R10,
    HOOP_SUP_DEV_R5,
    HOOP_T_OF_SUP_R5,
)

A_BLOCK = np.array([[-1.0, 0.4], [-0.3, -0.8]])
B_BLOCK = np.array([[-0.6]])


def decoupled_field() -> VectorFieldDef:
    """(dy, dz) = (A y, B z): the y block never sees z."""

    def rhs(s):
        s = np.asarray(s, dtype=float)
        y, z = s[..., :2], s[..., 2:]
        return np.concatenate([y @ A_BLOCK.T, z @ B_BLOCK.T], axis=-1)

    return VectorFieldDef(n=3, rhs=rhs, name="decoupled")


UNIT_BOX_3 = Box.from_pairs([(-1, 1)] * 3)


class TestConstructReduced:
    def test_hoop_reduces_to_linear_drag(self):
        entry = lookup("ball-hoop", {})
        red = construct_reduced(entry.field, entry.m)
        for w in (-2.0, 0.0, 0.7, 3.5):
            assert red(np.array([w]))[0] == pytest.approx(-w, abs=0)

    def test_decoupled_keeps_retained_block(self):
        red = construct_reduced(decoupled_field(), 2)
        y = np.array([0.3, -1.1])
        assert np.allclose(red(y), A_BLOCK @ y, atol=0, rtol=0)

    def test_cart_without_pendulum_friction_matches_linear_form(self):
        # with b=0 the slice construction lands exactly on the bundled
        # linear model; with b>0 the slice keeps a constant term b/(R*M)
        entry = lookup("cart-pendulum", {"b": 0.0})
        red = construct_reduced(entry.field, entry.m)
        p = entry.params
        A = np.array([[0.0, 1.0], [-p["k"] / p["M"], -p["d"] / p["M"]]])
        for y in ([1.0, 0.0], [0.0, 1.0], [0.4, -0.2]):
            y = np.array(y)
            assert np.allclose(red(y), A @ y, atol=1e-15)

    def test_construction_consistency(self):
        # the reduced rhs must equal the projected full rhs on the zero fiber,
        # exactly, at random points
        entry = lookup("cart-pendulum", {})
        red = construct_reduced(entry.field, entry.m)
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(-3, 3, 2)
            full = entry.field(np.concatenate([y, np.zeros(2)]))
            assert np.array_equal(red(y), full[:2])


class TestCheckExactReducible:
    def test_decoupled_linear(self):
        rep = check_exact_reducible(decoupled_field(), 2, UNIT_BOX_3, 256)
        assert rep.verdict == REDUCIBLE

    def test_hoop_is_not_exactly_reducible(self):
        entry = lookup("ball-hoop", {})
        rep = check_exact_reducible(
            entry.field, entry.m, entry.default_box(), 512
        )
        assert rep.verdict == NOT_REDUCIBLE
        assert rep.witness.component == 0 and rep.witness.fiber_index == 0
        # the closed-form partial of the omega row along theta; the witness is
        # a central difference, whose round-off eps*|f|/h is about 1e-9
        p, theta = entry.params, rep.witness.point[1]
        exact = abs(p["xi_hoop"] ** 2 * np.cos(2.0 * theta) - (p["g"] / p["R"]) * np.cos(theta))
        assert rep.witness.magnitude == pytest.approx(exact, rel=1e-8)
        assert exact > rep.tol

    def test_multiplicative_coupling_witness(self):
        def rhs(s):
            s = np.asarray(s, dtype=float)
            return np.stack([s[..., 0] * s[..., 1], s[..., 1]], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="prod")
        m = 1
        rep = check_exact_reducible(f, m, Box.from_pairs([(0.5, 1.5)] * 2), 512)
        assert rep.verdict == NOT_REDUCIBLE
        y = rep.witness.point[0]
        assert rep.witness.magnitude == pytest.approx(abs(y), rel=1e-6)
        assert rep.witness.magnitude >= 0.5

    def test_degenerate_tolerance(self):
        entry = lookup("ball-hoop", {})
        rep = check_exact_reducible(
            entry.field, entry.m, entry.default_box(), 128, tol=1e9
        )
        assert rep.verdict == REDUCIBLE

    def test_non_finite_evaluation_identifies_sample(self):
        from approxred.base import EvaluationError

        def rhs(s):
            s = np.asarray(s, dtype=float)
            y, z = s[..., 0], s[..., 1]
            return np.stack([np.where(y < 0, np.nan, -y), -z], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="partial-domain")
        m = 1
        with pytest.raises(EvaluationError, match=r"\["):
            check_exact_reducible(f, m, Box.from_pairs([(-1, 1)] * 2), 128)


class TestMeasureDeviation:
    def test_exactly_reducible_has_negligible_deviation(self):
        # fixed-step integration performs identical arithmetic on the
        # retained block of a decoupled system
        cfg = IntegratorConfig(t_end=5.0, method="rk4", dt=0.01)
        rep = measure_deviation(decoupled_field(), 2, [0.8, -0.4, 0.9], cfg)
        assert rep.sup_dev <= 1e-8

    def test_hoop_matches_reference(self):
        entry = lookup("ball-hoop", {})
        rep = measure_deviation(
            entry.field, entry.m, [0.5, 0.3], IntegratorConfig(t_end=20.0)
        )
        assert rep.sup_dev == pytest.approx(HOOP_SUP_DEV_R5, rel=1e-4)
        assert rep.t_of_sup == pytest.approx(HOOP_T_OF_SUP_R5, abs=0.05)

    def test_hoop_sweep_monotone_in_radius(self):
        sups = []
        for R in (5.0, 10.0, 20.0, 40.0):
            entry = lookup("ball-hoop", {"R": R})
            rep = measure_deviation(
                entry.field, entry.m, [0.5, 0.3], IntegratorConfig(t_end=20.0)
            )
            sups.append(rep.sup_dev)
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_zero_fiber_slice_stays_matched(self):
        # fiber dynamics that hold the fiber at zero: the projected run and
        # the reduced run then coincide even though the system is not
        # exactly reducible
        def rhs(s):
            s = np.asarray(s, dtype=float)
            y, z = s[..., 0], s[..., 1]
            return np.stack([-y + z**2 * y, -z * (1.0 + y**2)], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="slice-invariant")
        m = 1
        rep_exact = check_exact_reducible(f, m, Box.from_pairs([(-1, 1)] * 2), 256)
        assert rep_exact.verdict == NOT_REDUCIBLE
        cfg = IntegratorConfig(t_end=5.0, method="rk4", dt=0.01)
        rep = measure_deviation(f, m, [0.9, 0.0], cfg)
        assert rep.sup_dev <= 1e-8


class TestEstimateDelta:
    def test_exactly_reducible_projected(self):
        cfg = IntegratorConfig(t_end=3.0, method="rk4", dt=0.02)
        est = estimate_delta(decoupled_field(), 2, UNIT_BOX_3, 16, cfg)
        assert est.delta_hat <= 1e-8
        assert est.failures == 0

    def test_cross_mode_supremum_at_start(self):
        # contracting pair: the gap |e^-t y1 - e^-t y2| peaks at t = 0,
        # so the estimate approaches the box width 2
        def rhs(s):
            return -np.asarray(s, dtype=float)

        f = VectorFieldDef(n=2, rhs=rhs, name="contract")
        m = 1
        est = estimate_delta(
            f,
            m,
            Box.from_pairs([(-1, 1)] * 2),
            512,
            IntegratorConfig(t_end=2.0),
            pair_mode="cross",
        )
        assert 1.85 <= est.delta_hat <= 2.0 + 1e-12

    def test_hoop_matches_reference(self):
        entry = lookup("ball-hoop", {"R": 10.0})
        est = estimate_delta(
            entry.field,
            entry.m,
            Box.from_pairs([(-0.5, 0.5), (-0.3, 0.3)]),
            100,
            IntegratorConfig(t_end=10.0),
        )
        assert est.delta_hat == pytest.approx(HOOP_DELTA_R10, rel=1e-4)
        assert est.failures == 0

    def test_monotone_under_nested_sampling(self):
        entry = lookup("ball-hoop", {"R": 10.0})
        box = Box.from_pairs([(-0.5, 0.5), (-0.3, 0.3)])
        cfg = IntegratorConfig(t_end=3.0)
        small = estimate_delta(entry.field, entry.m, box, 16, cfg)
        large = estimate_delta(entry.field, entry.m, box, 48, cfg)
        assert large.delta_hat >= small.delta_hat

    def test_failures_are_counted_and_skipped(self):
        def rhs(s):
            s = np.asarray(s, dtype=float)
            y, z = s[..., 0], s[..., 1]
            # blows up for y0 > 0, decays for y0 < 0
            return np.stack([y**2 * (y > 0), -z], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="half-blowup")
        m = 1
        est = estimate_delta(
            f,
            m,
            Box.from_pairs([(-2, 2), (-1, 1)]),
            16,
            IntegratorConfig(t_end=5.0),
        )
        assert 0 < est.failures < 16

    def test_all_failures_is_an_error(self):
        f = VectorFieldDef(n=2, rhs=lambda s: np.asarray(s, dtype=float) ** 2, name="bad")
        m = 1
        from approxred.base import NumericalError

        with pytest.raises(NumericalError):
            estimate_delta(
                f, m, Box.from_pairs([(2, 3), (2, 3)]), 4, IntegratorConfig(t_end=10.0)
            )

    def test_invalid_mode_and_count(self):
        from approxred.base import InputError

        f = decoupled_field()
        with pytest.raises(InputError):
            estimate_delta(f, 2, UNIT_BOX_3, 0, IntegratorConfig(t_end=1.0))
        with pytest.raises(InputError):
            estimate_delta(
                f, 2, UNIT_BOX_3, 4, IntegratorConfig(t_end=1.0), pair_mode="zip"
            )


class TestJacobians:
    def test_finite_difference_matches_analytic(self):
        entry = lookup("ball-hoop", {})
        p = entry.params
        xi2, gR = p["xi_hoop"] ** 2, p["g"] / p["R"]
        X = np.random.default_rng(11).uniform(-2, 2, (100, 2))
        J_fd = jacobian_batch(entry.field.rhs, X, 2)
        J_an = np.zeros((100, 2, 2))
        J_an[:, 0, 0] = -p["mu"] / p["m"]
        J_an[:, 0, 1] = xi2 * np.cos(2.0 * X[:, 1]) - gR * np.cos(X[:, 1])
        J_an[:, 1, 0] = 1.0
        assert np.allclose(J_fd, J_an, rtol=1e-5, atol=1e-7)


class TestBatchedEstimate:
    """estimate_delta integrates its initial conditions in row blocks."""

    def test_block_size_does_not_change_the_estimate(self, monkeypatch):
        from approxred import reduction

        entry = lookup("cart-pendulum", {})
        box = Box(entry.default_ic - 0.3, entry.default_ic + 0.3)
        cfg = IntegratorConfig(t_end=5.0)

        def both_modes():
            return [
                estimate_delta(
                    entry.field, entry.m, box, 12, cfg, pair_mode=mode,
                    reduced=entry.reduced_override,
                ).delta_hat
                for mode in ("projected", "cross")
            ]

        whole = both_modes()
        monkeypatch.setattr(reduction, "BLOCK_ROWS", 5)
        assert both_modes() == whole

    @pytest.mark.parametrize("name", ["ball-hoop", "cart-pendulum"])
    def test_single_ic_equals_measure_deviation(self, name):
        # bound and compare evaluate the same interpolants on the same grid
        entry = lookup(name, {})
        box = Box(entry.default_ic - 0.3, entry.default_ic + 0.3)
        cfg = IntegratorConfig(t_end=10.0)
        est = estimate_delta(
            entry.field, entry.m, box, 1, cfg, reduced=entry.reduced_override
        )
        rep = measure_deviation(
            entry.field, entry.m, sobol_points(box, 1)[0], cfg,
            reduced=entry.reduced_override,
        )
        assert est.delta_hat == rep.sup_dev

    def test_failure_on_both_sides_counts_once(self):
        def rhs(s):
            s = np.asarray(s, dtype=float)
            y, z = s[..., 0], s[..., 1]
            # full and reduced runs both blow up at t = 1 / y0 when y0 > 0
            return np.stack([y**2 * (y > 0), -z], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="half-blowup")
        m = 1
        box = Box.from_pairs([(-2, 2), (-1, 1)])
        expected = int((sobol_points(box, 16)[:, 0] > 1 / 5.0).sum())  # before t = 5
        est = estimate_delta(f, m, box, 16, IntegratorConfig(t_end=5.0))
        assert 0 < est.failures == expected < 16


def half_blowup() -> VectorFieldDef:
    def rhs(s):
        s = np.asarray(s, dtype=float)
        y, z = s[..., 0], s[..., 1]
        # full and reduced runs both blow up at t = 1 / y0 when y0 > 0
        return np.stack([y**2 * (y > 0), -z], axis=-1)

    return VectorFieldDef(n=2, rhs=rhs, name="half-blowup")


def chain_registry(m: int):
    """The factory and default parameters of a user system with m retained
    states, each driven by the next, and one fiber state driven by the first."""
    names = [f"y{i}" for i in range(m)] + ["z"]
    rhs = [f"-a*{names[i]} + 0.3*sin({names[i + 1]})" for i in range(m)]
    rhs.append("-z + 0.5*cos(y0)")
    doc = {"name": f"chain-{m}", "state": names, "m": m, "params": {"a": 0.7}, "rhs": rhs}
    return system_from_dict(doc)[1][doc["name"]]


def chain_entry(m: int):
    factory, defaults = chain_registry(m)
    return factory(defaults)


def estimate_cases():
    """(field, retained dimension, box, reduced, n_ic) per system of the oracle test."""
    cases = {}
    for name in ("ball-hoop", "cart-pendulum"):
        e = lookup(name, {})
        cases[name] = (e.field, e.m, Box(e.default_ic - 0.3, e.default_ic + 0.3),
                       e.reduced_override, 9)
    for m in (2, 8, 9):  # up to and past numpy's eight-term unrolled sum
        e = chain_entry(m)
        cases[e.name] = (e.field, e.m, Box.from_pairs([(-1.0, 1.0)] * (m + 1)), None, 5)
    cases["half-blowup"] = (half_blowup(), 1,
                            Box.from_pairs([(-2, 2), (-1, 1)]), None, 12)
    return cases


CASES = estimate_cases()
METHODS = {"rk45": IntegratorConfig(t_end=3.0),
           "rk4": IntegratorConfig(t_end=3.0, method="rk4", dt=0.01)}


def oracle_delta(f, m, S, n_ic, cfg, pair_mode, reduced, n_grid=201):
    """delta_hat and failures from one integrate_field + resample + norm per
    sampled pair, the way compare measures one pair."""
    grid = np.linspace(0.0, cfg.t_end, n_grid)
    reduced = reduced or construct_reduced(f, m)
    if pair_mode == "projected":
        X0 = sobol_points(S, n_ic)
        Y0 = X0[:, :m]
    else:
        P = sobol_points(S.concat(Box(S.lower[:m], S.upper[:m])), n_ic)
        X0, Y0 = P[:, : f.n], P[:, f.n :]
    sups = []
    for x0, y0 in zip(X0, Y0):
        try:
            full = resample(integrate_field(f, x0, cfg), grid).states[:, :m]
            red = resample(integrate_field(reduced, y0, cfg), grid).states
        except (DivergenceError, StepBudgetError):
            continue
        sups.append(np.linalg.norm(full - red, axis=1).max())
    return max(sups), n_ic - len(sups)


class TestEstimateMatchesPerPairOracle:
    """bound's batched grid evaluation gives, bit for bit, the deviation that
    integrating and resampling each pair on its own gives."""

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("mode", ["projected", "cross"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical(self, name, mode, method):
        f, m, S, reduced, n_ic = CASES[name]
        cfg = METHODS[method]
        est = estimate_delta(f, m, S, n_ic, cfg, pair_mode=mode, reduced=reduced, n_grid=201)
        best, failures = oracle_delta(f, m, S, n_ic, cfg, mode, reduced)
        assert (est.delta_hat, est.failures) == (best, failures)
        if name == "half-blowup":
            assert 0 < failures < n_ic


class TestBudgetInvariance:
    """The buffer, chunk and block sizes never change a report."""

    @pytest.mark.parametrize(
        "module,constant,value",
        [
            (integrate, "_BUFFER_ROW_STEPS", 1),
            (integrate, "_BUFFER_ROW_STEPS", 2**20),
            (integrate, "_GRID_CHUNK", 7),
            (reduction, "BLOCK_ROWS", 5),
            (reduction, "_STORE_BYTES", 1),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    @pytest.mark.parametrize("system", ["cart-pendulum", "half-blowup"])
    def test_report_unchanged(self, system, module, constant, value, monkeypatch):
        f, m, S, reduced, _ = CASES[system]

        def reports():
            return [
                "".join(_json_document(
                    estimate_delta(f, m, S, 12, cfg, pair_mode=mode, reduced=reduced)))
                for mode in ("projected", "cross")
                for cfg in METHODS.values()
            ]

        default = reports()
        monkeypatch.setattr(module, constant, value)
        assert reports() == default


class TestMemory:
    def test_peak_does_not_grow_with_the_horizon(self, monkeypatch):
        # undamped, so the step count grows with the horizon; a small buffer
        # fills, and small chunks fill, at both horizons
        monkeypatch.setattr(integrate, "_BUFFER_ROW_STEPS", 256)
        monkeypatch.setattr(integrate, "_GRID_CHUNK", 64)
        e = lookup("cart-pendulum", {"d": 0.0, "b": 0.0})
        box = Box(e.default_ic - 0.3, e.default_ic + 0.3)

        def peak(t_end):
            tracemalloc.start()
            try:
                estimate_delta(e.field, e.m, box, 8, IntegratorConfig(t_end=t_end),
                               reduced=e.reduced_override)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        steps = []
        flush = integrate._GridSink.flush
        monkeypatch.setattr(integrate._GridSink, "flush",
                            lambda sink: steps.append(sink.size) or flush(sink))
        short = peak(5.0)
        assert len(steps) > 4  # the buffer filled on both sides
        long = peak(50.0)
        # rows and times, then the kept state and derivative columns
        budget = 256 * (2 + 2 * e.m) * 8
        assert abs(long - short) <= budget


def outcome(items):
    """The items an iterable yields, and the type and message of the error
    that stopped it, if any."""
    out = []
    try:
        for item in items:
            out.append(item)
    except Exception as err:
        return out, (type(err), str(err))
    return out, None


def oracle_runs(f, m, x0, cfg, reduced, grid):
    """The projected full run and the reduced run on ``grid``, each from one
    integrate_field + resample, failures labelled as measure_deviation
    labels them."""
    runs = []
    for which, field, ic in (("full", f, x0), ("reduced", reduced, x0[:m])):
        try:
            runs.append(resample(integrate_field(field, ic, cfg), grid).states[:, :m])
        except (DivergenceError, StepBudgetError) as err:
            raise type(err)(f"{which} system: {err}", err.t_last) from err
    return runs


def loop_sweep(fields, m, x0, cfg, reduced, n_grid):
    """The sweep as one oracle_runs and one norm per field, in turn."""
    grid = np.linspace(0.0, cfg.t_end, n_grid)
    for f, r in zip(fields, reduced):
        full, red = oracle_runs(f, m, x0, cfg, r or construct_reduced(f, m), grid)
        dev = np.linalg.norm(full - red, axis=1)
        i_sup = int(np.argmax(dev))
        yield float(dev[i_sup]), float(grid[i_sup])


def sweep_cases():
    """(fields, retained dimension, x0, reduced) of a parameter sweep per system."""
    hoop = [lookup("ball-hoop", {"R": R}) for R in (5.0, 10.0, 20.0, 40.0)]
    cart = [lookup("cart-pendulum", {"d": d}) for d in (0.001, 0.01, 0.1, 1.0)]
    factory, _ = chain_registry(3)
    chain = [factory({"a": a}) for a in (0.2, 0.7, 1.5)]
    return {
        name: ([e.field for e in entries], entries[0].m, entries[0].default_ic + 0.4,
               [e.reduced_override for e in entries])
        for name, entries in (("ball-hoop", hoop), ("cart-pendulum", cart), ("chain-3", chain))
    }


def blowup(n: int, rate: float, name: str) -> VectorFieldDef:
    """dy/dt = rate * y^2 in every coordinate: from y0 > 0 it blows up at
    t = 1 / (rate * y0); at rate 1e300 the first step already fails."""
    return VectorFieldDef(n=n, rhs=lambda s: rate * np.asarray(s) ** 2, name=name)


def raising(n: int) -> VectorFieldDef:
    def rhs(s):
        raise EvaluationError("expression 'boom' failed")

    return VectorFieldDef(n=n, rhs=rhs, name="raising")


SWEEP_METHODS = {"rk45": IntegratorConfig(t_end=3.0),
                 "rk4": IntegratorConfig(t_end=3.0, method="rk4", dt=0.01)}


class TestSweepMatchesPerValueOracle:
    """sweep_deviation and measure_deviation give, bit for bit, what
    integrating and resampling each field's runs on their own gives, and a
    sweep stops with the error of the first field that fails."""

    @pytest.mark.parametrize("method", sorted(SWEEP_METHODS))
    @pytest.mark.parametrize("name", ["ball-hoop", "cart-pendulum", "chain-3"])
    def test_bit_identical(self, name, method):
        fields, m, x0, reduced = sweep_cases()[name]
        cfg = SWEEP_METHODS[method]
        got = outcome(sweep_deviation(fields, m, x0, cfg, reduced, n_grid=301))
        assert got == outcome(loop_sweep(fields, m, x0, cfg, reduced, 301))
        assert got[1] is None and len(got[0]) == len(fields)
        grid = np.linspace(0.0, cfg.t_end, 301)
        for f, r, row in zip(fields, reduced, got[0]):
            rep = measure_deviation(f, m, x0, cfg, r, n_grid=301)
            full, red = oracle_runs(f, m, x0, cfg, r or construct_reduced(f, m), grid)
            assert rep.full_projected.tobytes() == full.tobytes()
            assert rep.reduced_states.tobytes() == red.tobytes()
            assert (rep.sup_dev, rep.t_of_sup) == row

    @pytest.mark.parametrize("method", sorted(SWEEP_METHODS))
    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize(
        "failure", ["full", "reduced", "raises", "full-then-raises", "late-then-early"]
    )
    def test_first_failure_wins(self, failure, position, method):
        hoop = [lookup("ball-hoop", {"R": R}) for R in (5.0, 10.0, 20.0)]
        fields = [e.field for e in hoop]
        reduced = [None] * 3
        if failure == "reduced":
            fields.insert(position, hoop[0].field)
            reduced.insert(position, blowup(1, 1e300, "blowup-reduced"))
        else:
            bad = {"raises": raising(2), "late-then-early": blowup(2, 4.0, "late")}
            fields.insert(position, bad.get(failure, blowup(2, 1e300, "blowup")))
            reduced.insert(position, None)
            # a field that raises, or fails at once, comes later
            later = {"full-then-raises": raising(2), "late-then-early": blowup(2, 1e300, "early")}
            if failure in later:
                fields.append(later[failure])
                reduced.append(None)
        cfg = SWEEP_METHODS[method]
        args = (fields, hoop[0].m, hoop[0].default_ic, cfg, reduced)
        got = outcome(sweep_deviation(*args, n_grid=301))
        assert got == outcome(loop_sweep(*args, 301))
        assert len(got[0]) == position and got[1] is not None
        assert got[1][0] is (EvaluationError if failure == "raises" else DivergenceError)

    def test_blocks_do_not_change_the_rows(self, monkeypatch):
        fields, m, x0, reduced = sweep_cases()["cart-pendulum"]
        cfg = SWEEP_METHODS["rk45"]
        default = list(sweep_deviation(fields, m, x0, cfg, reduced, n_grid=301))
        monkeypatch.setattr(reduction, "BLOCK_ROWS", 3)
        assert list(sweep_deviation(fields, m, x0, cfg, reduced, n_grid=301)) == default
        monkeypatch.setattr(reduction, "_STORE_BYTES", 1)
        assert list(sweep_deviation(fields, m, x0, cfg, reduced, n_grid=301)) == default


    @pytest.mark.parametrize("constant,value", [(None, None), ("BLOCK_ROWS", 3),
                                                ("_STORE_BYTES", 1)])
    def test_identically_zero_deviation_peaks_at_t_0(self, constant, value, monkeypatch):
        # fixed steps, and a retained block blind to the fiber: the runs agree
        doc = {"name": "blind", "state": ["y", "z"], "m": 1, "params": {"a": 1.0},
               "rhs": ["-a*y", "-z + 0.5*y"]}
        factory, _ = system_from_dict(doc)[1]["blind"]
        fields = [factory({"a": a}).field for a in (0.2, 0.7, 1.5, 3.0)]
        if constant is not None:
            monkeypatch.setattr(reduction, constant, value)
        m, x0 = 1, np.array([0.8, -0.4])
        cfg = SWEEP_METHODS["rk4"]
        rows = list(sweep_deviation(fields, m, x0, cfg, n_grid=301))
        assert rows == [(0.0, 0.0)] * 4
        assert rows == list(loop_sweep(fields, m, x0, cfg, [None] * 4, 301))


class TestSweepMemory:
    def test_peak_does_not_grow_with_the_values(self, monkeypatch):
        monkeypatch.setattr(reduction, "BLOCK_ROWS", 4)
        n_grid = 20001

        def peak(count):
            entries = [lookup("ball-hoop", {"R": 5.0 + i}) for i in range(count)]
            fields = [e.field for e in entries]
            tracemalloc.start()
            try:
                rows = list(sweep_deviation(fields, entries[0].m, entries[0].default_ic,
                                            IntegratorConfig(t_end=1.0), n_grid=n_grid))
                assert len(rows) == count
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(8), peak(32)
        # one block holds the full and the reduced grid values of 4 fields
        block = 2 * 4 * n_grid * 1 * 8
        assert abs(long - short) <= block / 8

    def test_a_block_holds_the_full_runs_grid_values_only(self):
        # the reduced runs stream into their sups, so the peak stays below
        # both sides' grid values
        n_grid, count = 20001, 8
        entries = [lookup("ball-hoop", {"R": 5.0 + i}) for i in range(count)]
        args = ([e.field for e in entries], entries[0].m, entries[0].default_ic,
                IntegratorConfig(t_end=1.0))
        list(sweep_deviation(*args, n_grid=201))  # compile outside the trace
        tracemalloc.start()
        try:
            assert len(list(sweep_deviation(*args, n_grid=n_grid))) == count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_side = count * n_grid * 1 * 8
        assert peak < 2 * one_side
