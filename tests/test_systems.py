import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxred.core import Box, ConstraintError, InputError, UnknownSystemError
from approxred.integrate import IntegratorConfig, integrate_field
from approxred.reduction import construct_reduced
from approxred.sampling import sobol_points
from approxred.systems import (
    cart_to_internal,
    cart_to_natural_order,
    lookup,
    make_ball_in_hoop,
)
from approxred.user_systems import system_from_dict

from reference_values import CART_RHS_GENERIC, CART_RHS_ORIGIN, CART_RHS_UNIT_X


class TestBallInHoop:
    def test_equilibrium_at_origin(self):
        entry = lookup("ball-hoop", {})
        assert np.array_equal(entry.field([0.0, 0.0]), [0.0, 0.0])

    def test_pure_drag_at_zero_angle(self):
        entry = lookup("ball-hoop", {})
        assert np.allclose(entry.field([1.0, 0.0]), [-1.0, 1.0], atol=0)

    def test_right_angle_feels_only_gravity(self):
        # cos(theta) = 0 kills the spin term, leaving -g/R
        entry = lookup("ball-hoop", {})
        out = entry.field([0.0, np.pi / 2])
        assert out[0] == pytest.approx(-9.81 / 5.0, abs=1e-12)
        assert out[1] == 0.0

    def test_parameter_positivity(self):
        with pytest.raises(InputError):
            make_ball_in_hoop({**lookup("ball-hoop", {}).params, "R": -1.0})

    def test_spin_gravity_constraint(self):
        with pytest.raises(ConstraintError):
            lookup("ball-hoop", {"xi_hoop": 2.0, "R": 5.0})

    def test_lyapunov_identity(self):
        # grad V . f == -mu R^2 omega^2 on the default invariant box
        entry = lookup("ball-hoop", {})
        p = entry.params
        box = entry.aux["sublevel_box"]()
        rng = np.random.default_rng(17)
        X = rng.uniform(box.lower, box.upper, size=(10_000, 2))
        V = entry.aux["lyapunov"]
        vd = np.einsum("ni,ni->n", V.grad(X), entry.field.rhs(X))
        expected = -p["mu"] * p["R"] ** 2 * X[:, 0] ** 2
        scale = np.maximum(np.abs(expected), 1e-12)
        assert np.max(np.abs(vd - expected) / scale) < 1e-9


class TestCartPendulum:
    def test_rhs_at_pinned_states(self):
        entry = lookup("cart-pendulum", {})
        assert entry.field([0.0, 0.0, 0.0, 0.0]) == pytest.approx(
            CART_RHS_ORIGIN, abs=1e-14
        )
        assert entry.field([1.0, 0.0, 0.0, 0.0]) == pytest.approx(
            CART_RHS_UNIT_X, abs=1e-14
        )
        assert entry.field([0.3, -0.2, 0.4, 0.1]) == pytest.approx(
            CART_RHS_GENERIC, rel=1e-13
        )

    def test_default_parameters(self):
        entry = lookup("cart-pendulum", {})
        assert entry.params == {
            "M": 2.0,
            "m": 1.0,
            "R": 1.0,
            "k": 1.0,
            "g": 9.81,
            "d": 1.0,
            "b": 1.0,
        }

    def test_bundled_reduced_model(self):
        entry = lookup("cart-pendulum", {"d": 0.3})
        out = entry.reduced_override([1.0, 0.0])
        assert np.allclose(out, [0.0, -0.5], atol=1e-15)
        out = entry.reduced_override([0.0, 1.0])
        assert np.allclose(out, [1.0, -0.15], atol=1e-15)

    def test_reduced_matrix_spirals(self):
        for d in (0.001, 0.01, 0.1, 1.0):
            entry = lookup("cart-pendulum", {"d": d})
            eig = np.linalg.eigvals(entry.aux["reduced_matrix"])
            assert np.all(eig.real < 0)
            assert np.all(np.abs(eig.imag) > 0)

    def test_energy_conserved_without_friction(self):
        entry = lookup("cart-pendulum", {"d": 0.0, "b": 0.0})
        cfg = IntegratorConfig(t_end=10.0, rtol=1e-10, atol=1e-10)
        traj = integrate_field(entry.field, entry.default_ic, cfg)
        E = entry.aux["energy"].fn(traj.states)
        assert np.max(np.abs(E - E[0])) < 1e-6

    def test_energy_decays_with_pure_cart_friction(self):
        # with b=0 the only term left in dE/dt is the cart drag -d*v^2
        entry = lookup("cart-pendulum", {"b": 0.0})
        cfg = IntegratorConfig(t_end=10.0)
        traj = integrate_field(entry.field, entry.default_ic, cfg)
        E = entry.aux["energy"].fn(traj.states)
        assert E[-1] < E[0]

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            lookup("cart-pendulum", {"M": 0.0})
        with pytest.raises(InputError):
            lookup("cart-pendulum", {"d": -0.1})

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    @settings(max_examples=50)
    def test_reordering_is_an_involution(self, vals):
        s = np.array(vals)
        assert np.array_equal(cart_to_natural_order(cart_to_internal(s)), s)
        assert np.array_equal(cart_to_internal(cart_to_natural_order(s)), s)

    def test_reordering_convention(self):
        natural = np.array([1.0, 2.0, 3.0, 4.0])  # (x, theta, v, omega)
        assert np.array_equal(cart_to_internal(natural), [1.0, 3.0, 2.0, 4.0])


class TestLookup:
    def test_override_merges_with_defaults(self):
        entry = lookup("ball-hoop", {"R": 40.0})
        assert entry.params["R"] == 40.0
        assert entry.params["g"] == 9.81

    def test_unknown_system(self):
        with pytest.raises(UnknownSystemError):
            lookup("unknown", {})

    def test_unknown_parameter(self):
        with pytest.raises(InputError):
            lookup("ball-hoop", {"spring": 2.0})


# compiled user documents: ** with exponents 2, 0.5, -1, 3 and -1.5, a
# constant base, a state exponent, unary minus, a repeated sin(p) and a bare
# constant column
USER_DOCS = [
    {
        "name": "powers",
        "state": ["y", "z", "p", "q"],
        "m": 1,
        "params": {"a": 0.7, "b": 1.3},
        "rhs": [
            "-a*y**2 + (1 + z*z)**0.5 - sin(p)*sin(p)",
            "(2 + sin(p))**-1 - y**3 + 2**(y/64)",
            "-(b + cos(y)*cos(y))**-1.5 + sin(p)*z - (1 + q*q)**cos(y)",
            "2.5",
        ],
    },
    {
        "name": "param-powers",
        "state": ["y", "z"],
        "m": 1,
        "params": {"a": 0.7},
        "rhs": ["-a**2*y + z**2.0", "-(a**0.5)*z*(1 + z*z)**-1"],
    },
]


def bundled_maps():
    """Every bundled right-hand side with its input widths: the fields,
    their reduced forms and the certificates' control systems, then the
    fields of compiled user documents and their reduced forms."""
    maps = []
    for name in ("ball-hoop", "cart-pendulum"):
        e = lookup(name, {})
        sliced = construct_reduced(e.field, e.decomp)
        for label, f in [(name, e.field), (f"{name}-sliced", sliced),
                         (f"{name}-reduced", e.reduced_override)]:
            if f is not None:
                maps.append(pytest.param(f.rhs, (f.n,), id=label))
        for cert, factory in sorted(e.certificates.items()):
            c = factory().control
            if c is not None:
                maps.append(pytest.param(c.rhs, (c.n, c.m_in), id=f"{name}-{cert}-control"))
    for doc in USER_DOCS:
        e, _ = system_from_dict(doc)
        sliced = construct_reduced(e.field, e.decomp)
        maps.append(pytest.param(e.field.rhs, (e.field.n,), id=doc["name"]))
        maps.append(pytest.param(sliced.rhs, (sliced.n,), id=f"{doc['name']}-sliced"))
    return maps


class TestLoneStateMatchesBatchRow:
    """A bundled or compiled right-hand side gives the same bits on a lone
    state as on that state in a batch, so a run does not depend on how it is
    batched."""

    @pytest.mark.parametrize("rhs,widths", bundled_maps())
    @pytest.mark.parametrize("half_width", [1.0, 50.0, 1e4])
    def test_bit_identical(self, rhs, widths, half_width):
        dim = sum(widths)
        X = sobol_points(Box(np.full(dim, -half_width), np.full(dim, half_width)), 20000, 5)
        blocks = np.split(X, np.cumsum(widths)[:-1], axis=1)
        batch = np.asarray(rhs(*blocks), dtype=float)
        lone = np.stack([np.asarray(rhs(*row), dtype=float) for row in zip(*blocks)])
        assert batch.shape == lone.shape
        assert batch.tobytes() == lone.tobytes()
