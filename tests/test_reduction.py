import numpy as np
import pytest

from approxred.core import Box, Decomposition, VectorFieldDef
from approxred.integrate import IntegratorConfig
from approxred.numdiff import jacobian
from approxred.reduction import (
    NOT_REDUCIBLE,
    REDUCIBLE,
    SmoothMap,
    check_exact_reducible,
    check_phi_related,
    construct_reduced,
    estimate_delta,
    measure_deviation,
)
from approxred.sampling import sobol_points
from approxred.systems import lookup

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
DEC_3 = Decomposition(n=3, m=2, k=1)


class TestConstructReduced:
    def test_hoop_reduces_to_linear_drag(self):
        entry = lookup("ball-hoop", {})
        red = construct_reduced(entry.field, entry.decomp)
        for w in (-2.0, 0.0, 0.7, 3.5):
            assert red(np.array([w]))[0] == pytest.approx(-w, abs=0)

    def test_decoupled_keeps_retained_block(self):
        red = construct_reduced(decoupled_field(), DEC_3)
        y = np.array([0.3, -1.1])
        assert np.allclose(red(y), A_BLOCK @ y, atol=0, rtol=0)

    def test_cart_without_pendulum_friction_matches_linear_form(self):
        # with b=0 the slice construction lands exactly on the bundled
        # linear model; with b>0 the slice keeps a constant term b/(R*M)
        entry = lookup("cart-pendulum", {"b": 0.0})
        red = construct_reduced(entry.field, entry.decomp)
        A = entry.aux["reduced_matrix"]
        for y in ([1.0, 0.0], [0.0, 1.0], [0.4, -0.2]):
            y = np.array(y)
            assert np.allclose(red(y), A @ y, atol=1e-15)

    def test_construction_consistency(self):
        # the reduced rhs must equal the projected full rhs on the zero fiber,
        # exactly, at random points
        entry = lookup("cart-pendulum", {})
        red = construct_reduced(entry.field, entry.decomp)
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(-3, 3, 2)
            full = entry.field(np.concatenate([y, np.zeros(2)]))
            assert np.array_equal(red(y), full[:2])


class TestCheckPhiRelated:
    def test_exactly_related_pair(self):
        f = VectorFieldDef(n=2, rhs=lambda s: -np.asarray(s, dtype=float), name="f")
        g = VectorFieldDef(n=1, rhs=lambda y: -np.asarray(y, dtype=float), name="g")
        phi = SmoothMap(n_in=2, n_out=1, fn=lambda s: np.asarray(s)[..., :1])
        rep = check_phi_related(f, g, phi, Box.from_pairs([(-1, 1)] * 2), 256)
        assert rep.verdict == REDUCIBLE
        assert rep.max_residual < 1e-9

    def test_hoop_not_related_to_its_reduction(self):
        entry = lookup("ball-hoop", {})
        red = construct_reduced(entry.field, entry.decomp)
        phi = SmoothMap.projection(entry.decomp)
        box = entry.aux["sublevel_box"]()
        rep = check_phi_related(entry.field, red.field_def, phi, box, 512)
        assert rep.verdict == NOT_REDUCIBLE
        # the residual at the witness is the fiber coupling term itself
        theta = rep.witness.point[1]
        expected = abs(entry.aux["input_coupling"](np.array([theta])))
        assert rep.witness.magnitude == pytest.approx(expected, abs=1e-6)

    def test_quadratic_coupling_witness(self):
        def rhs(s):
            s = np.asarray(s, dtype=float)
            return np.stack([s[..., 0] + s[..., 1] ** 2, -s[..., 1]], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="coupled")
        g = VectorFieldDef(n=1, rhs=lambda y: np.asarray(y, dtype=float), name="lin")
        phi = SmoothMap(n_in=2, n_out=1, fn=lambda s: np.asarray(s)[..., :1])
        rep = check_phi_related(f, g, phi, Box.from_pairs([(-1, 1)] * 2), 2048)
        assert rep.verdict == NOT_REDUCIBLE
        z = rep.witness.point[1]
        assert rep.witness.magnitude == pytest.approx(z**2, abs=1e-6)
        assert rep.witness.magnitude > 0.9  # the sampled max approaches z^2 = 1

    def test_analytic_jacobian_agrees_with_finite_differences(self):
        entry = lookup("ball-hoop", {})
        red = construct_reduced(entry.field, entry.decomp)
        box = entry.aux["sublevel_box"]()
        proj_fd = SmoothMap(n_in=2, n_out=1, fn=lambda s: np.asarray(s)[..., :1])
        proj_an = SmoothMap.projection(entry.decomp)
        fd = check_phi_related(entry.field, red.field_def, proj_fd, box, 128)
        an = check_phi_related(entry.field, red.field_def, proj_an, box, 128)
        assert fd.max_residual == pytest.approx(an.max_residual, rel=1e-6)


class TestCheckExactReducible:
    def test_decoupled_linear(self):
        rep = check_exact_reducible(decoupled_field(), DEC_3, UNIT_BOX_3, 256)
        assert rep.verdict == REDUCIBLE

    def test_hoop_is_not_exactly_reducible(self):
        entry = lookup("ball-hoop", {})
        rep = check_exact_reducible(
            entry.field, entry.decomp, entry.aux["sublevel_box"](), 512
        )
        assert rep.verdict == NOT_REDUCIBLE
        assert rep.witness.component == 0 and rep.witness.fiber_index == 0
        # re-evaluate the witness partial by finite differences
        J = jacobian(entry.field.rhs, rep.witness.point, 2)
        assert abs(J[0, 1]) == pytest.approx(rep.witness.magnitude, rel=1e-9)
        assert abs(J[0, 1]) > rep.tol

    def test_multiplicative_coupling_witness(self):
        def rhs(s):
            s = np.asarray(s, dtype=float)
            return np.stack([s[..., 0] * s[..., 1], s[..., 1]], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="prod")
        d = Decomposition(n=2, m=1, k=1)
        rep = check_exact_reducible(f, d, Box.from_pairs([(0.5, 1.5)] * 2), 512)
        assert rep.verdict == NOT_REDUCIBLE
        y = rep.witness.point[0]
        assert rep.witness.magnitude == pytest.approx(abs(y), rel=1e-6)
        assert rep.witness.magnitude >= 0.5

    def test_degenerate_tolerance(self):
        entry = lookup("ball-hoop", {})
        rep = check_exact_reducible(
            entry.field, entry.decomp, entry.aux["sublevel_box"](), 128, tol=1e9
        )
        assert rep.verdict == REDUCIBLE

    def test_non_finite_evaluation_identifies_sample(self):
        from approxred.core import EvaluationError

        def rhs(s):
            s = np.asarray(s, dtype=float)
            y, z = s[..., 0], s[..., 1]
            return np.stack([np.where(y < 0, np.nan, -y), -z], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="partial-domain")
        d = Decomposition(n=2, m=1, k=1)
        with pytest.raises(EvaluationError, match=r"\["):
            check_exact_reducible(f, d, Box.from_pairs([(-1, 1)] * 2), 128)


class TestMeasureDeviation:
    def test_exactly_reducible_has_negligible_deviation(self):
        # fixed-step integration performs identical arithmetic on the
        # retained block of a decoupled system
        cfg = IntegratorConfig(t_end=5.0, method="rk4", dt=0.01)
        rep = measure_deviation(decoupled_field(), DEC_3, [0.8, -0.4, 0.9], cfg)
        assert rep.sup_dev <= 1e-8

    def test_hoop_matches_reference(self):
        entry = lookup("ball-hoop", {})
        rep = measure_deviation(
            entry.field, entry.decomp, [0.5, 0.3], IntegratorConfig(t_end=20.0)
        )
        assert rep.sup_dev == pytest.approx(HOOP_SUP_DEV_R5, rel=1e-4)
        assert rep.t_of_sup == pytest.approx(HOOP_T_OF_SUP_R5, abs=0.05)

    def test_hoop_sweep_monotone_in_radius(self):
        sups = []
        for R in (5.0, 10.0, 20.0, 40.0):
            entry = lookup("ball-hoop", {"R": R})
            rep = measure_deviation(
                entry.field, entry.decomp, [0.5, 0.3], IntegratorConfig(t_end=20.0)
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
        d = Decomposition(n=2, m=1, k=1)
        rep_exact = check_exact_reducible(f, d, Box.from_pairs([(-1, 1)] * 2), 256)
        assert rep_exact.verdict == NOT_REDUCIBLE
        cfg = IntegratorConfig(t_end=5.0, method="rk4", dt=0.01)
        rep = measure_deviation(f, d, [0.9, 0.0], cfg)
        assert rep.sup_dev <= 1e-8


class TestEstimateDelta:
    def test_exactly_reducible_projected(self):
        cfg = IntegratorConfig(t_end=3.0, method="rk4", dt=0.02)
        est = estimate_delta(decoupled_field(), DEC_3, UNIT_BOX_3, 16, cfg)
        assert est.delta_hat <= 1e-8
        assert est.failures == 0

    def test_cross_mode_supremum_at_start(self):
        # contracting pair: the gap |e^-t y1 - e^-t y2| peaks at t = 0,
        # so the estimate approaches the box width 2
        def rhs(s):
            return -np.asarray(s, dtype=float)

        f = VectorFieldDef(n=2, rhs=rhs, name="contract")
        d = Decomposition(n=2, m=1, k=1)
        est = estimate_delta(
            f,
            d,
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
            entry.decomp,
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
        small = estimate_delta(entry.field, entry.decomp, box, 16, cfg)
        large = estimate_delta(entry.field, entry.decomp, box, 48, cfg)
        assert large.delta_hat >= small.delta_hat

    def test_failures_are_counted_and_skipped(self):
        def rhs(s):
            s = np.asarray(s, dtype=float)
            y, z = s[..., 0], s[..., 1]
            # blows up for y0 > 0, decays for y0 < 0
            return np.stack([y**2 * (y > 0), -z], axis=-1)

        f = VectorFieldDef(n=2, rhs=rhs, name="half-blowup")
        d = Decomposition(n=2, m=1, k=1)
        est = estimate_delta(
            f,
            d,
            Box.from_pairs([(-2, 2), (-1, 1)]),
            16,
            IntegratorConfig(t_end=5.0),
        )
        assert 0 < est.failures < 16

    def test_all_failures_is_an_error(self):
        f = VectorFieldDef(n=2, rhs=lambda s: np.asarray(s, dtype=float) ** 2, name="bad")
        d = Decomposition(n=2, m=1, k=1)
        from approxred.core import NumericalError

        with pytest.raises(NumericalError):
            estimate_delta(
                f, d, Box.from_pairs([(2, 3), (2, 3)]), 4, IntegratorConfig(t_end=10.0)
            )

    def test_invalid_mode_and_count(self):
        from approxred.core import InputError

        f = decoupled_field()
        with pytest.raises(InputError):
            estimate_delta(f, DEC_3, UNIT_BOX_3, 0, IntegratorConfig(t_end=1.0))
        with pytest.raises(InputError):
            estimate_delta(
                f, DEC_3, UNIT_BOX_3, 4, IntegratorConfig(t_end=1.0), pair_mode="zip"
            )


class TestJacobians:
    def test_finite_difference_matches_analytic(self):
        entry = lookup("ball-hoop", {})
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            J_fd = jacobian(entry.field.rhs, x, 2)
            J_an = entry.jacobian(x)
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
                    entry.field, entry.decomp, box, 12, cfg, pair_mode=mode,
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
            entry.field, entry.decomp, box, 1, cfg, reduced=entry.reduced_override
        )
        rep = measure_deviation(
            entry.field, entry.decomp, sobol_points(box, 1)[0], cfg,
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
        d = Decomposition(n=2, m=1, k=1)
        box = Box.from_pairs([(-2, 2), (-1, 1)])
        expected = int((sobol_points(box, 16)[:, 0] > 1 / 5.0).sum())  # before t = 5
        est = estimate_delta(f, d, box, 16, IntegratorConfig(t_end=5.0))
        assert 0 < est.failures == expected < 16
