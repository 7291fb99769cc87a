import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxred.base import EvaluationError, InputError
from approxred.core import Box, ComparisonFunction, ControlSystemDef, VectorFieldDef
from approxred.integrate import _batch_rhs
from approxred.numdiff import batch_eval, batch_eval_pair
from approxred.sampling import sobol_points
from approxred.stability import (
    COUNTEREXAMPLE,
    NO_COUNTEREXAMPLE,
    IncrementalCertificate,
    _pair_terms,
    _value_and_grads,
    check_fiberwise,
    check_iiss,
    check_iubibss,
    estimate_lipschitz,
)
from approxred.systems import _compiled, lookup
from approxred.user_systems import compile_map

from reference_values import HOOP_LIPSCHITZ_COUPLING

SYM_BOX_1 = Box.from_pairs([(-2.0, 2.0)])


def with_gradient(value, *grads):
    """A certificate map's output: the value column, then the gradient columns."""
    return np.concatenate([np.asarray(value, dtype=float)[..., None], *grads], axis=-1)


def gap_pair(scale: float = 1.0):
    """V(x1, x2) = scale * |x1 - x2|^2 / 2 with its gradient (d, -d) * scale."""

    def V(x1, x2):
        d = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
        return with_gradient(scale * 0.5 * np.sum(d * d, axis=-1), scale * d, -scale * d)

    return V


CONTRACT = ControlSystemDef(n=1, m_in=1, rhs=lambda x, u: -np.asarray(x, dtype=float))
EXPAND = ControlSystemDef(n=1, m_in=1, rhs=lambda x, u: +np.asarray(x, dtype=float))
DRIVEN = ControlSystemDef(
    n=1,
    m_in=1,
    rhs=lambda x, u: np.atleast_1d(-np.asarray(x, dtype=float)[..., 0] + np.asarray(u, dtype=float)[..., 0]),
)


def pair_derivative(V, F, *rows) -> np.ndarray:
    """V's derivative along two copies of F, by ``_pair_terms``, on paired
    blocks whose rows ``rows`` gives as (x1, x2, u1, u2) lists of rows."""
    return _pair_terms(V, F, *(np.array(r, dtype=float) for r in rows))[1]


class TestPairTerms:
    """``_pair_terms``, which every IISS and IUBIBSS check calls on each block."""

    def test_linear_contraction(self):
        # d(x1 - x2)^2/2 along x' = -x is -(x1 - x2)^2, row by row
        x1, x2 = [[1.0], [2.0], [-0.5]], [[0.0], [0.5], [0.5]]
        v = pair_derivative(gap_pair(), CONTRACT, x1, x2, [[0.0]] * 3, [[0.0]] * 3)
        assert v.tolist() == [-1.0, -2.25, -1.0]

    def test_values_come_with_the_derivative(self):
        blocks = (np.array([[x]]) for x in (1.0, 0.0, 0.0, 0.0))
        vals, vd = _pair_terms(gap_pair(), CONTRACT, *blocks)
        assert (vals.tolist(), vd.tolist()) == ([0.5], [-1.0])

    def test_common_input_is_static(self):
        carried = ControlSystemDef(n=1, m_in=1, rhs=lambda x, u: np.asarray(u, dtype=float))
        u = [[0.4], [-1.0]]
        v = pair_derivative(gap_pair(), carried, [[0.7], [1.5]], [[-0.2], [0.1]], u, u)
        assert v.tolist() == [0.0, 0.0]

    def test_hoop_velocity_gap(self):
        spec = lookup("ball-hoop", {}).certificates["iiss"]()
        v = pair_derivative(spec.certificate.V, spec.control, [[1.0]], [[0.0]], [[0.0]], [[0.0]])
        assert v[0] == pytest.approx(-1.0, abs=1e-12)

    def test_non_finite_derivative_names_the_sample(self):
        v = gap_pair()
        F = ControlSystemDef(n=1, m_in=1, rhs=lambda x, u: 1.0 / np.asarray(u, dtype=float))
        with np.errstate(divide="ignore"):
            with pytest.raises(EvaluationError, match=r"along F at x1=\[0.5\]"):
                pair_derivative(v, F, [[0.0], [0.5]], [[0.0], [0.0]], [[1.0], [0.0]],
                                [[1.0], [1.0]])

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=40)
    def test_additive_in_v(self, x1, x2, u1, u2, a, b):
        args = (DRIVEN, [[x1]], [[x2]], [[u1]], [[u2]])
        total = pair_derivative(gap_pair(a + b), *args)[0]
        parts = sum(pair_derivative(gap_pair(c), *args)[0] for c in (a, b))
        assert total == pytest.approx(parts, abs=1e-9 * (1 + abs(total)))


def contraction_certificate() -> IncrementalCertificate:
    half_sq = ComparisonFunction(0.5, 2.0)
    return IncrementalCertificate(
        V=gap_pair(),
        alpha_lower=half_sq,
        alpha_upper=half_sq,
        mu=ComparisonFunction(2.0),
        alpha_decay=half_sq,
    )


class TestCheckIISS:
    def test_driven_contraction_passes(self):
        # |dx| >= 2|du| forces dV/dt = -dx^2 + dx du <= -dx^2/2
        rep = check_iiss(DRIVEN, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 4096)
        assert rep.verdict == NO_COUNTEREXAMPLE
        assert rep.condition_counts["decay_checked"] > 100

    @pytest.mark.parametrize("F", [DRIVEN, EXPAND], ids=["driven", "expand"])
    def test_note_names_each_condition_no_sample_tested(self, F):
        # |dx| <= 4 never reaches mu(|du|) = 1e12 |du| on these samples
        untested = dataclasses.replace(contraction_certificate(),
                                       mu=ComparisonFunction(1e12))
        rep = check_iiss(F, untested, SYM_BOX_1, SYM_BOX_1, 1024)
        assert rep.condition_counts["decay_checked"] == 0
        assert rep.note.endswith("; no sample was tested for decay")
        tested = check_iiss(F, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 1024)
        assert "no sample was tested" not in tested.note

    def test_expanding_flow_fails(self):
        rep = check_iiss(EXPAND, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 4096)
        assert rep.verdict == COUNTEREXAMPLE
        assert rep.counterexample.condition == "decay"

    def test_hoop_velocity_gap_certificate(self):
        entry = lookup("ball-hoop", {})
        spec = entry.certificates["iiss"]()
        rep = check_iiss(
            spec.control, spec.certificate, spec.state_box, spec.input_box, 20000
        )
        assert rep.verdict == NO_COUNTEREXAMPLE
        assert rep.condition_counts["decay_checked"] > 1000

    def test_witness_reproduces(self):
        rep = check_iiss(EXPAND, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 2048)
        ce = rep.counterexample
        rows = ([ce.point[key]] for key in ("x1", "x2", "u1", "u2"))
        v = pair_derivative(contraction_certificate().V, EXPAND, *rows)
        assert v[0] == pytest.approx(ce.observed, rel=1e-12)

    def test_monotone_falsification(self):
        small = check_iiss(EXPAND, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 512)
        large = check_iiss(EXPAND, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 2048)
        assert small.verdict == large.verdict == COUNTEREXAMPLE
        assert large.counterexample.magnitude >= small.counterexample.magnitude

    def test_non_finite_v_identifies_sample(self):
        from approxred.base import EvaluationError

        def bad(x1, x2):
            d = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
            value = np.where(np.abs(d[..., 0]) > 1.0, np.nan, d[..., 0] * d[..., 0])
            return with_gradient(value, 2.0 * d, -2.0 * d)

        cert = dataclasses.replace(contraction_certificate(), V=bad)
        with pytest.raises(EvaluationError, match="x1="):
            check_iiss(DRIVEN, cert, SYM_BOX_1, SYM_BOX_1, 512)

    @pytest.mark.parametrize("check,change", [
        (check_iiss, {}), (check_iubibss, {"alpha_decay": None, "xi": 0.5}),
    ], ids=["iiss", "iubibss"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["V", "negated-V"])
    def test_a_zero_diameter_state_box_is_rejected(self, check, change, sign):
        # every sampled pair coincides, so only r = 0 would be tested, where
        # V = -V = 0 = alpha(0): even a negated V would pass
        V = contraction_certificate().V
        cert = dataclasses.replace(contraction_certificate(), **change,
                                   V=lambda *xs: sign * V(*xs))
        with pytest.raises(InputError, match="every sampled pair coincides"):
            check(DRIVEN, cert, Box.from_pairs([(0.3, 0.3)]), SYM_BOX_1, 64)

    @pytest.mark.parametrize("change", [dict(alpha_decay=None), dict(xi=0.5)],
                             ids=["no-decay-rate", "threshold"])
    def test_needs_a_decay_rate_and_no_threshold(self, change):
        cert = dataclasses.replace(contraction_certificate(), **change)
        with pytest.raises(InputError, match="needs a decay rate alpha_decay and xi = 0"):
            check_iiss(DRIVEN, cert, SYM_BOX_1, SYM_BOX_1, 64)


class TestCheckIUBIBSS:
    def test_derived_from_iiss_passes(self):
        # an IISS certificate whose gain dominates the identity lifts to an
        # IUBIBSS certificate by adding the threshold to the gain
        base = contraction_certificate()
        for xi in (0.05, 0.5, 2.0):
            derived = dataclasses.replace(base, alpha_decay=None, xi=xi)
            rep = check_iubibss(DRIVEN, derived, SYM_BOX_1, SYM_BOX_1, 2048)
            assert rep.verdict == NO_COUNTEREXAMPLE

    def test_gain_threshold_violation_below_the_identity(self):
        # mu(r) + xi >= r + xi fails where mu(r) = r**2 < r, worst at r = 1/2
        cert = IncrementalCertificate(
            V=gap_pair(),
            alpha_lower=ComparisonFunction(0.5, 2.0),
            alpha_upper=ComparisonFunction(0.5, 2.0),
            mu=ComparisonFunction(1.0, 2.0),
            xi=1.0,
        )
        rep = check_iubibss(DRIVEN, cert, SYM_BOX_1, SYM_BOX_1, 512)
        assert rep.verdict == COUNTEREXAMPLE
        assert rep.counterexample.condition == "gain_threshold"
        assert rep.counterexample.point["r"][0] == pytest.approx(0.5)
        assert rep.counterexample.magnitude == pytest.approx(0.25)

    def test_v_is_evaluated_only_on_pairs_at_least_xi_apart(self):
        # V is NaN where |x1 - x2| < xi, outside the domain of every condition
        xi = 0.5
        base = dataclasses.replace(contraction_certificate(), alpha_decay=None, xi=xi)

        def V(x1, x2):
            gap = np.linalg.norm(np.asarray(x1) - np.asarray(x2), axis=-1)
            return np.where((gap < xi)[..., None], np.nan, base.V(x1, x2))

        rep = check_iubibss(DRIVEN, dataclasses.replace(base, V=V), SYM_BOX_1, SYM_BOX_1, 2048)
        plain = check_iubibss(DRIVEN, base, SYM_BOX_1, SYM_BOX_1, 2048)
        assert rep.verdict == NO_COUNTEREXAMPLE and rep.condition_counts["sandwich_checked"] > 0
        assert (rep.note, rep.condition_counts) == (plain.note, plain.condition_counts)
        # IISS has xi = 0 and evaluates every pair, NaN ones too
        iiss = dataclasses.replace(base, V=V, xi=0.0, alpha_decay=ComparisonFunction(0.5, 2.0))
        with pytest.raises(EvaluationError, match="V produced a non-finite value"):
            check_iiss(DRIVEN, iiss, SYM_BOX_1, SYM_BOX_1, 2048)

    def test_cart_pendulum_certificate(self):
        entry = lookup("cart-pendulum", {})
        spec = entry.certificates["iubibss"]()
        rep = check_iubibss(
            spec.control, spec.certificate, spec.state_box, spec.input_box, 20000
        )
        assert rep.verdict == NO_COUNTEREXAMPLE
        # the gain inequality must hold on the full input-diameter grid
        assert rep.condition_counts["gain_grid"] == 1001
        assert list(rep.condition_counts) == ["sandwich_checked", "gain_grid", "decay_checked"]

    @pytest.mark.parametrize("xi", [0.0, -1.0, float("nan")])
    def test_threshold_must_be_positive(self, xi):
        cert = dataclasses.replace(contraction_certificate(), alpha_decay=None, xi=xi)
        with pytest.raises(InputError, match="threshold xi must be positive"):
            check_iubibss(DRIVEN, cert, SYM_BOX_1, SYM_BOX_1, 64)

    def test_an_infinite_threshold_is_rejected_without_a_warning(self):
        # it used to pass any field, with a RuntimeWarning from inf - inf
        import warnings

        cert = dataclasses.replace(contraction_certificate(), alpha_decay=None, xi=np.inf)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError, match="needs a finite xi"):
                check_iubibss(EXPAND, cert, SYM_BOX_1, SYM_BOX_1, 64)
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("check,change", [
        (check_iiss, {}), (check_iubibss, {"alpha_decay": None, "xi": 0.5}),
    ], ids=["iiss", "iubibss"])
    def test_an_input_gain_is_required(self, check, change):
        cert = dataclasses.replace(contraction_certificate(), mu=None, **change)
        with pytest.raises(InputError, match="gain mu"):
            check(DRIVEN, cert, SYM_BOX_1, SYM_BOX_1, 64)


# x' = -x + 2u: with V = |x1-x2|^2/2, dV/dt = -d^2 + 2 d du for d = x1 - x2
# and du = u1 - u2, which is positive only where |d| < 2|du|
BOOSTED = ControlSystemDef(
    n=1, m_in=1, rhs=lambda x, u: -np.asarray(x, dtype=float) + 2.0 * np.asarray(u, dtype=float)
)
NARROW_INPUT = Box.from_pairs([(-0.2, 0.2)])  # |du| <= 0.4


class TestThresholdBand:
    """IISS and IUBIBSS differ on the band mu(|du|) <= |dx| < mu(|du|) + xi:
    IISS checks the decay there and IUBIBSS does not."""

    def certificate(self) -> IncrementalCertificate:
        # with mu(r) = r and xi = 0.5, a checked sample has |d| >= |du| + 0.5
        # >= 2|du| + 0.1 for IUBIBSS, so dV/dt <= -0.1 |d| <= -0.01 d^2 there
        half_sq = ComparisonFunction(0.5, 2.0)
        return IncrementalCertificate(
            V=gap_pair(), alpha_lower=half_sq, alpha_upper=half_sq,
            mu=ComparisonFunction(1.0), xi=0.5,
        )

    def test_iubibss_passes_and_iiss_refutes_in_the_band(self):
        cert = self.certificate()
        rep = check_iubibss(BOOSTED, cert, SYM_BOX_1, NARROW_INPUT, 4096)
        assert rep.verdict == NO_COUNTEREXAMPLE
        assert rep.condition_counts["decay_checked"] > 1000
        # the same data as an IISS certificate, with a decay rate that holds
        # beyond the band, checks the band too and refutes there
        iiss = dataclasses.replace(cert, alpha_decay=ComparisonFunction(0.01, 2.0), xi=0.0)
        rep = check_iiss(BOOSTED, iiss, SYM_BOX_1, NARROW_INPUT, 4096)
        assert rep.verdict == COUNTEREXAMPLE
        ce = rep.counterexample
        assert ce.condition == "decay" and ce.observed > 0
        dx = abs(ce.point["x1"][0] - ce.point["x2"][0])
        du = abs(ce.point["u1"][0] - ce.point["u2"][0])
        assert cert.mu.value(du) <= dx < cert.mu.value(du) + cert.xi
        # |d| >= 2.25|du| takes in every sample beyond the band (|du| <= 0.4),
        # and the IISS decay holds on all of them
        beyond = dataclasses.replace(iiss, mu=ComparisonFunction(1.0 + 0.5 / 0.4))
        report = check_iiss(BOOSTED, beyond, SYM_BOX_1, NARROW_INPUT, 4096)
        assert report.verdict == NO_COUNTEREXAMPLE


def fiber_field(sign: float) -> VectorFieldDef:
    def rhs(s):
        s = np.asarray(s, dtype=float)
        return np.stack([-s[..., 0], sign * s[..., 1]], axis=-1)

    return VectorFieldDef(n=2, rhs=rhs, name="fiber")


def fiber_gap(s):
    """V(y, z) = z^2 / 2 with its gradient (0, z)."""
    z = np.asarray(s, dtype=float)[..., 1:]
    return with_gradient(0.5 * z[..., 0] ** 2, np.zeros_like(z), z)


class TestCheckFiberwise:
    def certificate(self):
        half_sq = ComparisonFunction(0.5, 2.0)
        return IncrementalCertificate(
            V=fiber_gap, alpha_lower=half_sq, alpha_upper=half_sq, xi=0.0
        )

    def test_contracting_fiber_passes(self):
        rep = check_fiberwise(
            fiber_field(-1.0), 1, self.certificate(), Box.from_pairs([(-1, 1)] * 2), 2048
        )
        assert rep.verdict == NO_COUNTEREXAMPLE

    def test_expanding_fiber_fails(self):
        rep = check_fiberwise(
            fiber_field(+1.0), 1, self.certificate(), Box.from_pairs([(-1, 1)] * 2), 2048
        )
        assert rep.verdict == COUNTEREXAMPLE
        assert rep.counterexample.condition == "decay"
        x = rep.counterexample.point["x"]
        # dV/dt = 0*(-y) + z*z at the witness, exactly
        assert rep.counterexample.observed == x[1] * x[1]
        # re-evaluating V's gradient column by column reproduces the record
        vd = float(self.certificate().V(x)[1:] @ fiber_field(+1.0).rhs(x))
        assert vd == rep.counterexample.observed

    @pytest.mark.parametrize("xi", [float("nan"), np.inf, -0.5])
    def test_a_threshold_that_selects_nothing_is_rejected(self, xi):
        # the expanding fiber fails at threshold 0.05; a NaN threshold used to
        # report NO_COUNTEREXAMPLE with no active sample
        box = Box.from_pairs([(-1, 1)] * 2)
        cert = dataclasses.replace(self.certificate(), xi=0.05)
        assert check_fiberwise(fiber_field(+1.0), 1, cert, box, 1024).verdict == COUNTEREXAMPLE
        with pytest.raises(InputError, match="threshold xi must be finite and nonnegative"):
            check_fiberwise(fiber_field(+1.0), 1, dataclasses.replace(cert, xi=xi), box, 1024)

    def test_a_box_inside_the_threshold_band_is_rejected(self):
        # every fiber norm is below the threshold, so no condition tests a
        # sample: even the expanding fiber used to pass with no active sample
        cert = dataclasses.replace(self.certificate(), xi=0.05)
        with pytest.raises(InputError, match=r"of any condition \(lower_bound, upper_bound, "
                                             r"decay\): the check would test nothing"):
            check_fiberwise(fiber_field(+1.0), 1, cert, Box.from_pairs([(-1, 1), (-0.01, 0.01)]),
                            1024)
        # a box that reaches past the threshold is checked
        box = Box.from_pairs([(-1, 1), (-0.01, 0.06)])
        assert check_fiberwise(fiber_field(+1.0), 1, cert, box, 1024).verdict == COUNTEREXAMPLE

    def test_hoop_energy_certificate(self):
        entry = lookup("ball-hoop", {})
        spec = entry.certificates["fiberwise"]()
        rep = check_fiberwise(
            entry.field, entry.m, spec.certificate, spec.state_box, 20000
        )
        assert rep.verdict == NO_COUNTEREXAMPLE
        assert rep.condition_counts["active_samples"] > 10000

    def test_hoop_decay_is_the_closed_form(self):
        # dV/dt along the bundled energy function is -mu R^2 omega^2
        entry = lookup("ball-hoop", {})
        p = entry.params
        V = _compiled("ball-hoop", "V")(p)
        rng = np.random.default_rng(3)
        X = rng.uniform([-0.6, -0.45], [0.6, 0.45], size=(200, 2))
        grads = V(X)[:, 1:]
        vd = np.einsum("ni,ni->n", grads, entry.field.rhs(X))
        expected = -p["mu"] * p["R"] ** 2 * X[:, 0] ** 2
        assert np.allclose(vd, expected, rtol=1e-9, atol=1e-12)


class TestHoopGainImplication:
    def test_decay_wherever_gain_condition_holds(self):
        # wherever |w1-w2| exceeds the scaled angle gap, the pair function
        # decays at least quadratically
        entry = lookup("ball-hoop", {})
        spec = entry.certificates["iiss"]()
        cert = spec.certificate
        p = entry.params
        rng = np.random.default_rng(5)
        n = 5000
        W = rng.uniform(spec.state_box.lower[0], spec.state_box.upper[0], (n, 2))
        TH = rng.uniform(spec.input_box.lower[0], spec.input_box.upper[0], (n, 2))
        dw = np.abs(W[:, 0] - W[:, 1])
        dth = np.abs(TH[:, 0] - TH[:, 1])
        active = dw > cert.mu.value(dth)
        gap = W[:, 0] - W[:, 1]
        coupling = _compiled("ball-hoop", "coupling")(p)  # its value, then its derivative
        vd = gap * (
            -(p["mu"] / p["m"]) * gap
            + coupling(TH[:, :1])[:, 0]
            - coupling(TH[:, 1:])[:, 0]
        )
        bound = -(p["mu"] / (2 * p["m"])) * dw**2
        slack = 1e-9 * (1 + np.abs(vd))
        assert np.all(vd[active] <= bound[active] + slack[active])
        assert active.sum() > 100


def coupling_map(sources, names):
    """A compiled map of ``names``, each expression's value followed by its
    derived gradient: the form ``estimate_lipschitz`` takes."""
    return compile_map(sources, [names], [], wrt=names)({})


class TestEstimateLipschitz:
    def test_sine_slope(self):
        box = Box.from_pairs([(-np.pi, np.pi)])
        L = estimate_lipschitz(coupling_map(["sin(u)"], ["u"]), box, 1024)
        # the largest |cos u| at the samples
        assert L == pytest.approx(np.abs(np.cos(sobol_points(box, 1024))).max(), rel=1e-15)
        assert L == pytest.approx(1.0, abs=1e-5)

    def test_hoop_coupling_is_the_closed_form_at_the_samples(self):
        entry = lookup("ball-hoop", {})
        p = entry.params
        box = Box.from_pairs([(-0.3, 0.3)])
        L = estimate_lipschitz(_compiled("ball-hoop", "coupling")(p), box, 2048)
        th = sobol_points(box, 2048)[:, 0]
        exact = np.abs(p["xi_hoop"] ** 2 * np.cos(2.0 * th) - (p["g"] / p["R"]) * np.cos(th))
        assert L == pytest.approx(exact.max(), rel=1e-12)
        # a sampled lower estimate of the dense grid's maximum
        assert HOOP_LIPSCHITZ_COUPLING - 1e-3 < L <= HOOP_LIPSCHITZ_COUPLING

    def test_constant_map(self):
        box = Box.from_pairs([(-1.0, 1.0)])
        L = estimate_lipschitz(coupling_map(["3.0"], ["u"]), box, 256)
        assert L == 0.0

    def test_vector_map_operator_norm(self):
        # linear map: the estimate recovers the spectral norm
        A = np.array([[3.0, 0.0], [4.0, 1.0]])
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        L = estimate_lipschitz(coupling_map(["3.0*u1", "4.0*u1 + u2"], ["u1", "u2"]), box, 64)
        assert L == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    def test_one_output_estimate_is_the_largest_gradient_length(self):
        box = Box.from_pairs([(-1.0, 1.0), (-2.0, 0.5), (0.0, 3.0)])
        g = coupling_map(["sin(u1)*u2 + u3*u3 - cos(u2*u3)"], ["u1", "u2", "u3"])
        L = estimate_lipschitz(g, box, 512, seed=11)
        grads = g(sobol_points(box, 512, 11))[:, 1:]
        assert L == np.linalg.norm(grads, axis=1).max()
        # the one singular value of each one-row Jacobian, to rounding
        top = np.linalg.svd(grads[:, None, :], compute_uv=False)[:, 0].max()
        assert L == pytest.approx(top, rel=1e-14)

    @pytest.mark.parametrize("slope", [1e200, 1e-200])
    def test_one_output_estimate_survives_squares_beyond_float_range(self, slope):
        # the squares of the partials overflow, or underflow, unscaled
        box = Box.from_pairs([(-1.0, 1.0), (-1.0, 1.0)])
        g = coupling_map([f"{slope!r}*u1 - {slope!r}*u2"], ["u1", "u2"])
        assert estimate_lipschitz(g, box, 64) == pytest.approx(slope * 2**0.5, rel=1e-15)

    @pytest.mark.parametrize("system,certificate", [("ball-hoop", "iiss"),
                                                    ("cart-pendulum", "iubibss")])
    def test_bundled_certificates_set_up_without_lapack(self, monkeypatch, system,
                                                         certificate):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        spec = lookup(system, {}).certificates[certificate](state_box=None, input_box=None)
        assert spec.kind == certificate and spec.certificate.mu.a > 0

    def test_a_value_only_map_is_an_input_error(self):
        value_only = compile_map(["sin(u)"], [["u"]], [])({})
        with pytest.raises(InputError, match=r"shape \(8, 1\), expected \(8, k\*2\)"):
            estimate_lipschitz(value_only, SYM_BOX_1, 8)

    def test_non_finite_derivative_names_the_sample(self):
        # the derivative of the square root is NaN below 0: the first such sample
        u = sobol_points(SYM_BOX_1, 8)[:, 0]
        first = float(u[np.argmax(u < 0)])
        with pytest.raises(EvaluationError, match=re.escape(f"derivative at sample [{first!r}]")):
            estimate_lipschitz(coupling_map(["u**0.5"], ["u"]), SYM_BOX_1, 8)


class TestIISSBridgeProperty:
    # slope >= 1.5 keeps the base decay condition true with margin:
    # dV/dt <= -(1 - 1/slope) dx^2 <= -dx^2/4; slope >= 1 keeps mu(r) >= r,
    # which the lifted gain inequality needs
    @given(
        st.floats(min_value=1.5, max_value=8.0),
        st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_passing_iiss_lifts_to_iubibss(self, gain_slope, xi):
        base = IncrementalCertificate(
            V=gap_pair(),
            alpha_lower=ComparisonFunction(0.5, 2.0),
            alpha_upper=ComparisonFunction(0.5, 2.0),
            mu=ComparisonFunction(gain_slope),
            alpha_decay=ComparisonFunction(0.25, 2.0),
        )
        rep = check_iiss(DRIVEN, base, SYM_BOX_1, SYM_BOX_1, 1024)
        assert rep.verdict == NO_COUNTEREXAMPLE
        derived = dataclasses.replace(base, alpha_decay=None, xi=xi)
        rep2 = check_iubibss(DRIVEN, derived, SYM_BOX_1, SYM_BOX_1, 1024)
        assert rep2.verdict == NO_COUNTEREXAMPLE


BLOCK = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
PAIR_V = gap_pair()

# each batched call site, fed the map under test
BATCH_SITES = {
    "batch_eval": lambda fn: batch_eval(fn, BLOCK, out_dim=2),
    "batch_eval_pair": lambda fn: batch_eval_pair(fn, BLOCK, BLOCK),
    "control_form": lambda fn: _pair_terms(
        PAIR_V, ControlSystemDef(n=2, m_in=2, rhs=fn), BLOCK, BLOCK, BLOCK, BLOCK
    ),
    "certificate_map": lambda fn: _value_and_grads(fn, BLOCK, BLOCK),
    "integrator": lambda fn: _batch_rhs(VectorFieldDef(n=2, rhs=fn, name="odd"), BLOCK),
    "lipschitz": lambda fn: estimate_lipschitz(fn, Box.from_pairs([(-1, 1)] * 2), 8),
}


class TestBlockContract:
    """Every map is called once on the whole block: nothing is retried row by
    row, and an output of the wrong shape is an input error."""

    @pytest.mark.parametrize("site", sorted(BATCH_SITES))
    @pytest.mark.parametrize(
        "exc", [EvaluationError, RuntimeError, TypeError, ValueError, IndexError]
    )
    def test_every_error_propagates_after_one_call(self, site, exc):
        seen = []

        def fn(*args):
            seen.append(args)
            raise exc("boom")

        with pytest.raises(exc, match="boom"):
            BATCH_SITES[site](fn)
        assert len(seen) == 1
        assert np.ndim(seen[0][0]) == 2

    @pytest.mark.parametrize("site", sorted(BATCH_SITES))
    def test_lone_state_output_is_an_input_error(self, site):
        seen = []

        def fn(*args):  # written for a lone state: the block's first row only
            seen.append(args)
            return np.asarray(args[0])[0]

        with pytest.raises(InputError, match=r"shape \(2,\)"):
            BATCH_SITES[site](fn)
        assert len(seen) == 1
