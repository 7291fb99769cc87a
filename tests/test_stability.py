import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxred.core import (
    Box,
    ComparisonFunction,
    ControlSystemDef,
    Decomposition,
    EvaluationError,
    InputError,
    VectorFieldDef,
)
from approxred.integrate import _batch_rhs
from approxred.numdiff import batch_eval, batch_eval_pair
from approxred.reduction import SmoothMap, check_phi_related
from approxred.stability import (
    COUNTEREXAMPLE,
    NO_COUNTEREXAMPLE,
    FiberwiseCertificate,
    IISSCertificate,
    IUBIBSSCertificate,
    _pair_terms,
    _value_and_grads,
    check_fiberwise,
    check_iiss,
    check_iubibss,
    estimate_lipschitz,
    vdot,
)
from approxred.systems import lookup

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


CONTRACT = ControlSystemDef(
    n=1, m_in=1, rhs=lambda x, u: -np.asarray(x, dtype=float), name="contract"
)
EXPAND = ControlSystemDef(
    n=1, m_in=1, rhs=lambda x, u: +np.asarray(x, dtype=float), name="expand"
)
DRIVEN = ControlSystemDef(
    n=1,
    m_in=1,
    rhs=lambda x, u: np.atleast_1d(-np.asarray(x, dtype=float)[..., 0] + np.asarray(u, dtype=float)[..., 0]),
    name="driven",
)


class TestVdot:
    def test_linear_contraction(self):
        assert vdot(gap_pair(), CONTRACT, [1.0], [0.0], [0.0], [0.0]) == pytest.approx(
            -1.0, abs=1e-8
        )

    def test_common_input_is_static(self):
        carried = ControlSystemDef(
            n=1, m_in=1, rhs=lambda x, u: np.asarray(u, dtype=float), name="carried"
        )
        v = vdot(gap_pair(), carried, [0.7], [-0.2], [0.4], [0.4])
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_hoop_velocity_gap(self):
        spec = lookup("ball-hoop", {}).certificates["iiss"]()
        v = vdot(
            spec.certificate.V,
            spec.control,
            [1.0],
            [0.0],
            [0.0],
            [0.0],
        )
        assert v == pytest.approx(-1.0, abs=1e-12)

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
        args = (DRIVEN, [x1], [x2], [u1], [u2])
        total = vdot(gap_pair(a + b), *args)
        parts = vdot(gap_pair(a), *args) + vdot(gap_pair(b), *args)
        assert total == pytest.approx(parts, abs=1e-9 * (1 + abs(total)))


def contraction_certificate() -> IISSCertificate:
    half_sq = ComparisonFunction.power(0.5, 2.0)
    return IISSCertificate(
        V=gap_pair(),
        alpha_lower=half_sq,
        alpha_upper=half_sq,
        alpha_decay=half_sq,
        mu=ComparisonFunction.linear(2.0),
    )


class TestCheckIISS:
    def test_driven_contraction_passes(self):
        # |dx| >= 2|du| forces vdot = -dx^2 + dx du <= -dx^2/2
        rep = check_iiss(DRIVEN, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 4096)
        assert rep.verdict == NO_COUNTEREXAMPLE
        assert rep.condition_counts["decay_checked"] > 100

    @pytest.mark.parametrize("F", [DRIVEN, EXPAND], ids=["driven", "expand"])
    def test_note_names_each_condition_no_sample_tested(self, F):
        # |dx| <= 4 never reaches mu(|du|) = 1e12 |du| on these samples
        untested = dataclasses.replace(contraction_certificate(),
                                       mu=ComparisonFunction.linear(1e12))
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
        v = vdot(
            contraction_certificate().V,
            EXPAND,
            ce.point["x1"],
            ce.point["x2"],
            ce.point["u1"],
            ce.point["u2"],
        )
        assert v == pytest.approx(ce.observed, rel=1e-12)

    def test_monotone_falsification(self):
        small = check_iiss(EXPAND, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 512)
        large = check_iiss(EXPAND, contraction_certificate(), SYM_BOX_1, SYM_BOX_1, 2048)
        assert small.verdict == large.verdict == COUNTEREXAMPLE
        assert large.counterexample.magnitude >= small.counterexample.magnitude

    def test_non_finite_v_identifies_sample(self):
        from approxred.core import EvaluationError

        def bad(x1, x2):
            d = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
            value = np.where(np.abs(d[..., 0]) > 1.0, np.nan, d[..., 0] * d[..., 0])
            return with_gradient(value, 2.0 * d, -2.0 * d)

        cert = dataclasses.replace(contraction_certificate(), V=bad)
        with pytest.raises(EvaluationError, match="x1="):
            check_iiss(DRIVEN, cert, SYM_BOX_1, SYM_BOX_1, 512)


class TestCheckIUBIBSS:
    def test_derived_from_iiss_passes(self):
        # an IISS certificate whose gain dominates the identity lifts to an
        # IUBIBSS certificate by adding the threshold to the gain
        base = contraction_certificate()
        for xi in (0.05, 0.5, 2.0):
            derived = IUBIBSSCertificate(
                V=base.V,
                alpha_lower=base.alpha_lower,
                alpha_upper=base.alpha_upper,
                mu=base.mu,
                xi=xi,
                mu_offset=xi,
            )
            rep = check_iubibss(DRIVEN, derived, SYM_BOX_1, SYM_BOX_1, 2048)
            assert rep.verdict == NO_COUNTEREXAMPLE

    def test_gain_threshold_violation_at_zero(self):
        cert = IUBIBSSCertificate(
            V=gap_pair(),
            alpha_lower=ComparisonFunction.power(0.5, 2.0),
            alpha_upper=ComparisonFunction.power(0.5, 2.0),
            mu=ComparisonFunction.linear(1.0),
            xi=1.0,
        )
        rep = check_iubibss(DRIVEN, cert, SYM_BOX_1, SYM_BOX_1, 512)
        assert rep.verdict == COUNTEREXAMPLE
        assert rep.counterexample.condition == "gain_threshold"
        assert rep.counterexample.point["r"][0] == 0.0

    def test_cart_pendulum_certificate(self):
        entry = lookup("cart-pendulum", {})
        spec = entry.certificates["iubibss"]()
        rep = check_iubibss(
            spec.control, spec.certificate, spec.state_box, spec.input_box, 20000
        )
        assert rep.verdict == NO_COUNTEREXAMPLE
        # the gain inequality must hold on the full input-diameter grid
        assert rep.condition_counts["gain_grid"] == 1001


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
        half_sq = ComparisonFunction.power(0.5, 2.0)
        return FiberwiseCertificate(
            V=fiber_gap, alpha_lower=half_sq, alpha_upper=half_sq, d_threshold=0.0
        )

    def test_contracting_fiber_passes(self):
        d = Decomposition(n=2, m=1, k=1)
        rep = check_fiberwise(
            fiber_field(-1.0), d, self.certificate(), Box.from_pairs([(-1, 1)] * 2), 2048
        )
        assert rep.verdict == NO_COUNTEREXAMPLE

    def test_expanding_fiber_fails(self):
        d = Decomposition(n=2, m=1, k=1)
        rep = check_fiberwise(
            fiber_field(+1.0), d, self.certificate(), Box.from_pairs([(-1, 1)] * 2), 2048
        )
        assert rep.verdict == COUNTEREXAMPLE
        assert rep.counterexample.condition == "decay"
        x = rep.counterexample.point["x"]
        # vdot = 0*(-y) + z*z at the witness, exactly
        assert rep.counterexample.observed == x[1] * x[1]
        # re-evaluating V's gradient column by column reproduces the record
        vd = float(self.certificate().V(x)[1:] @ fiber_field(+1.0).rhs(x))
        assert vd == rep.counterexample.observed

    def test_hoop_energy_certificate(self):
        entry = lookup("ball-hoop", {})
        spec = entry.certificates["fiberwise"]()
        rep = check_fiberwise(
            entry.field, entry.decomp, spec.certificate, spec.state_box, 20000
        )
        assert rep.verdict == NO_COUNTEREXAMPLE
        assert rep.condition_counts["active_samples"] > 10000

    def test_hoop_decay_is_the_closed_form(self):
        # vdot along the bundled energy function is -mu R^2 omega^2
        entry = lookup("ball-hoop", {})
        V = entry.aux["lyapunov"]
        p = entry.params
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
        coupling = entry.aux["input_coupling"]
        vd = gap * (
            -(p["mu"] / p["m"]) * gap
            + coupling(TH[:, :1])
            - coupling(TH[:, 1:])
        )
        bound = -(p["mu"] / (2 * p["m"])) * dw**2
        slack = 1e-9 * (1 + np.abs(vd))
        assert np.all(vd[active] <= bound[active] + slack[active])
        assert active.sum() > 100


class TestEstimateLipschitz:
    def test_sine_slope(self):
        box = Box.from_pairs([(-np.pi, np.pi)])
        L = estimate_lipschitz(lambda u: np.sin(np.asarray(u)[..., 0]), box, 1024)
        assert L == pytest.approx(1.0, abs=1e-3)

    def test_hoop_coupling_matches_reference(self):
        entry = lookup("ball-hoop", {})
        box = Box.from_pairs([(-0.3, 0.3)])
        L = estimate_lipschitz(entry.aux["input_coupling"], box, 2048)
        assert L == pytest.approx(HOOP_LIPSCHITZ_COUPLING, abs=1e-3)

    def test_constant_map(self):
        box = Box.from_pairs([(-1.0, 1.0)])
        L = estimate_lipschitz(lambda u: 3.0 + 0.0 * np.asarray(u)[..., 0], box, 256)
        assert L == pytest.approx(0.0, abs=1e-9)

    def test_vector_map_operator_norm(self):
        # linear map: the estimate recovers the spectral norm
        A = np.array([[3.0, 0.0], [4.0, 1.0]])
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        L = estimate_lipschitz(lambda u: np.asarray(u, dtype=float) @ A.T, box, 64)
        assert L == pytest.approx(np.linalg.norm(A, 2), rel=1e-6)


class TestIISSBridgeProperty:
    # slope >= 1.5 keeps the base decay condition true with margin:
    # vdot <= -(1 - 1/slope) dx^2 <= -dx^2/4; slope >= 1 keeps mu(r) >= r,
    # which the lifted gain inequality needs
    @given(
        st.floats(min_value=1.5, max_value=8.0),
        st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_passing_iiss_lifts_to_iubibss(self, gain_slope, xi):
        base = IISSCertificate(
            V=gap_pair(),
            alpha_lower=ComparisonFunction.power(0.5, 2.0),
            alpha_upper=ComparisonFunction.power(0.5, 2.0),
            alpha_decay=ComparisonFunction.power(0.25, 2.0),
            mu=ComparisonFunction.linear(gain_slope),
        )
        rep = check_iiss(DRIVEN, base, SYM_BOX_1, SYM_BOX_1, 1024)
        assert rep.verdict == NO_COUNTEREXAMPLE
        derived = IUBIBSSCertificate(
            V=base.V,
            alpha_lower=base.alpha_lower,
            alpha_upper=base.alpha_upper,
            mu=base.mu,
            xi=xi,
            mu_offset=xi,
        )
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
    "phi_related": lambda fn: check_phi_related(
        VectorFieldDef(n=2, rhs=fn), VectorFieldDef(n=1, rhs=lambda y: y),
        SmoothMap.projection(Decomposition(n=2, m=1, k=1)), Box.from_pairs([(-1, 1)] * 2), 8,
    ),
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

    def test_wrong_jacobian_shape_is_an_input_error(self):
        f = VectorFieldDef(n=2, rhs=lambda x: -np.asarray(x))
        g = VectorFieldDef(n=1, rhs=lambda y: -np.asarray(y))
        phi = SmoothMap(n_in=2, n_out=1, fn=lambda x: np.asarray(x)[..., :1],
                        jacobian=lambda _x: np.array([[1.0, 0.0]]))
        with pytest.raises(InputError, match=r"Jacobian on 8 samples has shape \(1, 2\)"):
            check_phi_related(f, g, phi, Box.from_pairs([(-1, 1)] * 2), 8)
