import ast

import numpy as np
import pytest

from approxred.base import InputError
from approxred.core import Box
from approxred.integrate import IntegratorConfig, integrate_field
from approxred.reduction import construct_reduced
from approxred.sampling import sobol_points
from approxred.systems import (
    BALL_HOOP,
    CART_ANGLE_BOX,
    CART_FUNCTIONS,
    CART_PENDULUM,
    HOOP_FUNCTIONS,
    _compiled,
    lookup,
    make_ball_in_hoop,
)
from approxred.user_systems import _derivative, _parse, compile_map, system_from_dict

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
        with pytest.raises(InputError, match=r"requires R\*xi_hoop\^2 < g"):
            lookup("ball-hoop", {"xi_hoop": 2.0, "R": 5.0})

    def test_lyapunov_identity(self):
        # grad V . f == -mu R^2 omega^2 on the default invariant box
        entry = lookup("ball-hoop", {})
        p = entry.params
        box = entry.default_box()
        rng = np.random.default_rng(17)
        X = rng.uniform(box.lower, box.upper, size=(10_000, 2))
        V = _compiled("ball-hoop", "V")(p)
        vd = np.einsum("ni,ni->n", V(X)[:, 1:], entry.field.rhs(X))
        expected = -p["mu"] * p["R"] ** 2 * X[:, 0] ** 2
        scale = np.maximum(np.abs(expected), 1e-12)
        assert np.max(np.abs(vd - expected) / scale) < 1e-9

    @pytest.mark.parametrize("params", [
        {}, {"R": 10.0, "xi_hoop": 0.3}, {"R": 20.0, "xi_hoop": 0.6}, {"R": 40.0, "xi_hoop": 0.3},
        {"g": 1e200},  # m*R*g is finite here, but its square is not
    ], ids=["R=5", "R=10", "R=20", "R=40", "g=1e200"])
    def test_sublevel_box_is_the_exact_bounding_box(self, params):
        # theta's bound is V's root along omega = 0, omega's is sqrt(2c / (m R^2))
        from scipy.optimize import brentq

        entry = lookup("ball-hoop", params)
        p = entry.params
        V = _compiled("ball-hoop", "V")(p)
        top = 2.0 * p["m"] * p["g"] * p["R"]  # V at (0, pi), V's largest value at omega = 0
        for c in (None, 0.01 * top, 0.1 * top, 0.5 * top, 0.9 * top):
            box = entry.default_box(c)
            level = float(V(entry.default_ic)[0]) if c is None else c
            theta = brentq(lambda t: V(np.array([0.0, t]))[0] - level, 0.0, np.pi,
                           xtol=1e-15, rtol=4 * np.finfo(float).eps)
            w_max = np.sqrt(2.0 * level / (p["m"] * p["R"] ** 2))
            assert box.upper == pytest.approx([w_max, theta], rel=1e-12, abs=0), c
            assert np.array_equal(box.lower, -box.upper)
        for c in (1.0001 * top, 1.5 * top, 1e6 * top):  # above V(0, pi): every angle
            box = entry.default_box(c)
            assert box.lower[1] == -np.pi and box.upper[1] == np.pi


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
            p = lookup("cart-pendulum", {"d": d}).params
            eig = np.linalg.eigvals([[0.0, 1.0], [-p["k"] / p["M"], -d / p["M"]]])
            assert np.all(eig.real < 0)
            assert np.all(np.abs(eig.imag) > 0)

    def test_energy_conserved_without_friction(self):
        entry = lookup("cart-pendulum", {"d": 0.0, "b": 0.0})
        cfg = IntegratorConfig(t_end=10.0, rtol=1e-10, atol=1e-10)
        traj = integrate_field(entry.field, entry.default_ic, cfg)
        E = _compiled("cart-pendulum", "energy")(entry.params)(traj.states)[:, 0]
        assert np.max(np.abs(E - E[0])) < 1e-6

    def test_energy_decays_with_pure_cart_friction(self):
        # with b=0 the only term left in dE/dt is the cart drag -d*v^2
        entry = lookup("cart-pendulum", {"b": 0.0})
        cfg = IntegratorConfig(t_end=10.0)
        traj = integrate_field(entry.field, entry.default_ic, cfg)
        E = _compiled("cart-pendulum", "energy")(entry.params)(traj.states)[:, 0]
        assert E[-1] < E[0]

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            lookup("cart-pendulum", {"M": 0.0})
        with pytest.raises(InputError):
            lookup("cart-pendulum", {"d": -0.1})
        for key in ("d", "b"):  # NaN is not nonnegative either
            with pytest.raises(InputError, match=f"parameter {key} must be nonnegative"):
                lookup("cart-pendulum", {key: float("nan")})


class TestLookup:
    def test_override_merges_with_defaults(self):
        entry = lookup("ball-hoop", {"R": 40.0})
        assert entry.params["R"] == 40.0
        assert entry.params["g"] == 9.81

    def test_unknown_system(self):
        with pytest.raises(InputError, match="unknown system 'unknown'; available: "):
            lookup("unknown", {})

    def test_unknown_parameter(self):
        with pytest.raises(InputError, match="valid: R, g, m, mu, xi_hoop$"):
            lookup("ball-hoop", {"spring": 2.0})

    def test_unknown_parameter_of_a_system_without_parameters(self):
        doc = {"name": "bare", "state": ["y", "z"], "m": 1, "params": {}, "rhs": ["-y", "-z"]}
        with pytest.raises(InputError, match="for system 'bare'; valid: none$"):
            lookup("bare", {"a": 1.0}, extra_registry=system_from_dict(doc)[1])


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
    """Every bundled map with its input widths: the fields, their reduced
    forms, the certificates' control systems, the maps of V or U and of the
    input couplings with their gradients, and the cart's energy, then the
    fields of compiled user documents and their reduced forms."""
    maps = []
    for name in ("ball-hoop", "cart-pendulum"):
        e = lookup(name, {})
        sliced = construct_reduced(e.field, e.m)
        for label, f in [(name, e.field), (f"{name}-sliced", sliced),
                         (f"{name}-reduced", e.reduced_override)]:
            if f is not None:
                maps.append(pytest.param(f.rhs, (f.n,), id=label))
        for cert, factory in sorted(e.certificates.items()):
            spec = factory()
            c, V = spec.control, spec.certificate.V
            if c is not None:
                maps.append(pytest.param(c.rhs, (c.n, c.m_in), id=f"{name}-{cert}-control"))
            # the fiberwise V of a state, or the U of a state pair
            widths, label = ((e.field.n,), "V") if c is None else ((c.n, c.n), "U")
            maps.append(pytest.param(V, widths, id=f"{name}-{cert}-{label}"))
            if c is not None:
                coupling = _compiled(name, "coupling")(e.params)
                maps.append(pytest.param(coupling, (c.m_in,), id=f"{name}-{cert}-coupling"))
        if name == "cart-pendulum":
            energy = _compiled(name, "energy")(e.params)
            maps.append(pytest.param(energy, (e.field.n,), id=f"{name}-energy"))
    for doc in USER_DOCS:
        e, _ = system_from_dict(doc)
        sliced = construct_reduced(e.field, e.m)
        maps.append(pytest.param(e.field.rhs, (e.field.n,), id=doc["name"]))
        maps.append(pytest.param(sliced.rhs, (sliced.n,), id=f"{doc['name']}-sliced"))
    return maps


class TestLoneStateMatchesBatchRow:
    """A bundled or compiled map gives the same bits on a lone
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


class TestLayout:
    """A compiled map gives the same bits on a row-major block, on the same
    block coordinate-major (as the sampled checks stream it) and on a lone
    row, and its output follows its input's layout."""

    @pytest.mark.parametrize("rhs,widths", [
        param for param in bundled_maps() if not param.id.endswith("-sliced")])
    def test_bits_do_not_depend_on_layout(self, rhs, widths):
        dim = sum(widths)
        X = sobol_points(Box(np.full(dim, -2.0), np.full(dim, 2.0)), 64, 5)
        outs = []
        for block in (X, np.asfortranarray(X)):
            blocks = np.split(block, np.cumsum(widths)[:-1], axis=1)
            out = rhs(*blocks)
            if blocks[-1].flags.f_contiguous:  # a lone column is of both layouts
                assert out.flags.f_contiguous
            else:
                assert out.flags.c_contiguous
            outs.append(np.ascontiguousarray(out))
        blocks = np.split(X, np.cumsum(widths)[:-1], axis=1)
        lone = np.stack([rhs(*row) for row in zip(*blocks)])
        assert outs[0].tobytes() == outs[1].tobytes() == lone.tobytes()


def hoop_closures(p):
    """The ball-hoop's hand-written certificate functions, before they
    became expressions: oracles for the compiled ones."""
    m, R, g, mu, xi2 = p["m"], p["R"], p["g"], p["mu"], p["xi_hoop"] ** 2

    def lyap(s):
        w, th = s[..., 0], s[..., 1]
        return (0.5 * m * R**2 * w**2 + m * g * R * (1.0 - np.cos(th))
                - 0.5 * m * R**2 * xi2 * np.sin(th) ** 2)

    def lyap_grad(s):
        w, th = s[..., 0], s[..., 1]
        sin = np.sin(th)
        return np.stack([m * R**2 * w, m * g * R * sin - m * R**2 * xi2 * sin * np.cos(th)],
                        axis=-1)

    def coupling(u):
        sin = np.sin(u[..., 0])
        return xi2 * sin * np.cos(u[..., 0]) - (g / R) * sin

    def coupling_grad(u):  # the product rule: xi^2 cos(2 theta) - (g/R) cos(theta)
        sin, cos = np.sin(u[..., 0]), np.cos(u[..., 0])
        return (xi2 * cos * cos - xi2 * sin * sin - (g / R) * cos)[..., None]

    def velocity_gap_grad(s1, s2):
        diff = s1[..., 0] - s2[..., 0]
        return np.stack([diff, -diff], axis=-1)

    return {
        "V": lyap,
        "grad-V": lyap_grad,
        "U": lambda s1, s2: 0.5 * (s1[..., 0] - s2[..., 0]) ** 2,
        "grad-U": velocity_gap_grad,
        "coupling": coupling,
        "grad-coupling": coupling_grad,
        "control": lambda s, u: (-(mu / m) * s[..., 0] + coupling(u))[..., None],
    }


def cart_closures(p):
    """The cart-pendulum's hand-written certificate functions (oracles)."""
    M, m, R, k, g, d = (p[key] for key in ("M", "m", "R", "k", "g", "d"))

    def energy(s):
        x, v, th, w = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
        kinetic = 0.5 * (M + m) * v**2 + m * R * v * w * np.cos(th) + 0.5 * m * R**2 * w**2
        return kinetic + (0.5 * k * x**2 - m * g * R * np.cos(th))

    def coupling(u):
        return u[..., 1] ** 2 * np.sin(u[..., 0]) - u[..., 2] * np.cos(u[..., 0])

    def coupling_grad(u):  # along theta, omega and omegadot
        th, w, wdot = u[..., 0], u[..., 1], u[..., 2]
        return np.stack([w**2 * np.cos(th) + wdot * np.sin(th), 2.0 * w * np.sin(th),
                         -np.cos(th)], axis=-1)

    def position_gap(s1, s2):
        dx, dv = s1[..., 0] - s2[..., 0], s1[..., 1] - s2[..., 1]
        return dx**2 / (2.0 * (m + M)) + 0.5 * dv**2

    def position_gap_grad(s1, s2):
        dx, dv = s1[..., 0] - s2[..., 0], s1[..., 1] - s2[..., 1]
        g1 = np.stack([dx / (m + M), dv], axis=-1)
        return np.concatenate([g1, -g1], axis=-1)

    def control(s, u):
        x, v = s[..., 0], s[..., 1]
        return np.stack([v, (m * R * coupling(u) - k * x - d * v) / (M + m)], axis=-1)

    return {"energy": energy, "U": position_gap, "grad-U": position_gap_grad,
            "coupling": coupling, "grad-coupling": coupling_grad, "control": control}


def certificate_maps(name, params):
    """The compiled map of each certificate's V or U and of the input
    coupling (its value, then its gradient) with its default sample boxes,
    one box per argument."""
    e = lookup(name, params)
    spec = e.certificates["iiss" if name == "ball-hoop" else "iubibss"]()
    out = {"U": (spec.certificate.V, [spec.state_box] * 2),
           "coupling": (_compiled(name, "coupling")(e.params), [spec.input_box])}
    if name == "ball-hoop":
        spec = e.certificates["fiberwise"]()
        out["V"] = (spec.certificate.V, [spec.state_box])
    return out


def compiled_functions(name, params):
    """Each compiled certificate function of a bundled system, keyed as in
    its closures, with its sample box: one box per argument."""
    e = lookup(name, params)
    spec = e.certificates["iiss" if name == "ball-hoop" else "iubibss"]()
    c = spec.control
    out = {"control": (c.rhs, [spec.state_box, spec.input_box])}
    for key, (fn, boxes) in certificate_maps(name, params).items():
        out[key] = (lambda *xs, fn=fn: fn(*xs)[..., 0], boxes)
        out["grad-" + key] = (lambda *xs, fn=fn: fn(*xs)[..., 1:], boxes)
    if name == "cart-pendulum":
        energy = _compiled(name, "energy")(e.params)
        out["energy"] = (lambda s: energy(s)[..., 0], [spec.state_box.concat(CART_ANGLE_BOX)])
    return out


CLOSURE_CASES = [
    ("ball-hoop", {}, hoop_closures),
    ("ball-hoop", {"R": 10.0, "xi_hoop": 0.3}, hoop_closures),
    ("cart-pendulum", {}, cart_closures),
    ("cart-pendulum", {"k": 1.2, "d": 0.8}, cart_closures),
]


def samples(boxes):
    """20000 Sobol samples of the joint box, split into one block per box."""
    lower = np.concatenate([b.lower for b in boxes])
    X = sobol_points(Box(lower, np.concatenate([b.upper for b in boxes])), 20000, 11)
    return np.split(X, np.cumsum([b.dim for b in boxes])[:-1], axis=1)


def against_closures(name, params, closures):
    """Each compiled function with its closure and samples of its default
    boxes, split into its arguments."""
    oracle = closures(lookup(name, params).params)
    for key, (fn, boxes) in compiled_functions(name, params).items():
        yield key, fn, oracle[key], samples(boxes)


def separate_compiles(name, key, params):
    """Value-only maps of a bundled function ``key``: its expression, then
    each partial derived alone and compiled from its source."""
    doc, functions = {"ball-hoop": (BALL_HOOP, HOOP_FUNCTIONS),
                      "cart-pendulum": (CART_PENDULUM, CART_FUNCTIONS)}[name]
    (blocks, (source,)), names = functions[key], list(doc["params"])
    args = sum(blocks, [])
    tree = _parse(source, args + names)
    partials = [ast.unparse(_derivative(tree, var, source)) for var in args]
    p = lookup(name, params).params
    return [compile_map([src], blocks, names)(p) for src in [source, *partials]]


class TestCompiledCertificates:
    """The certificate expressions against the closures they replaced."""

    @pytest.mark.parametrize("name,params,closures", CLOSURE_CASES)
    def test_values_keep_the_closures_bits(self, name, params, closures):
        for key, fn, closure, args in against_closures(name, params, closures):
            if not key.startswith("grad"):
                assert fn(*args).tobytes() == closure(*args).tobytes(), key

    @pytest.mark.parametrize("name,params,closures", CLOSURE_CASES)
    def test_derived_gradients_are_within_4_ulps(self, name, params, closures):
        for key, fn, closure, args in against_closures(name, params, closures):
            if key.startswith("grad"):
                got, want = fn(*args), closure(*args)
                assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), key
            if key == "grad-U":  # 0.5*(2.0*d) is d, (2.0*dx)/(2.0*(m + M)) is dx/(m + M)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name,params,closures", CLOSURE_CASES)
    def test_one_map_gives_the_separate_compiles_bits(self, name, params, closures):
        # each column of V's or U's one map equals its own value-only compile
        for key, (fn, boxes) in certificate_maps(name, params).items():
            args = samples(boxes)
            got = fn(*args)
            columns = [separate(*args)[:, 0] for separate in separate_compiles(name, key, params)]
            assert got.shape == (20000, len(columns)), key
            for i, column in enumerate(columns):
                assert got[:, i].tobytes() == column.tobytes(), (key, i)

    def test_each_system_compiles_once_per_process(self):
        for name, cert in (("ball-hoop", "iiss"), ("ball-hoop", "fiberwise"),
                           ("cart-pendulum", "iubibss")):
            lookup(name, {}).certificates[cert]()
        misses = _compiled.cache_info().misses
        lookup("ball-hoop", {"R": 7.0}).certificates["iiss"]()
        lookup("ball-hoop", {"R": 7.0}).certificates["fiberwise"]()
        lookup("cart-pendulum", {"d": 0.5}).certificates["iubibss"]()
        assert _compiled.cache_info().misses == misses
