"""Built-in example systems with their certificates and reduced forms.

Two benchmark systems ship with the package:

* ``ball-hoop``: a ball rolling in a hoop that spins at a constant rate, with
  viscous friction. State (omega, theta) = (angular velocity, angle); the
  retained block is omega alone.
* ``cart-pendulum``: a pendulum hanging from a cart that is attached to a
  spring, with friction on both the cart and the pendulum joint. The natural
  coordinate order (x, theta, v, omega) is stored internally reordered as
  (x, v, theta, omega) so the retained pair (x, v) is leading.

Every function of a state, an input or a state pair (the vector fields, the
cart's reduced model, each certificate's V or U, input coupling and control
form) is an expression, compiled as ``--config`` systems are, once per process
and only when a command first uses it. V, U and the input coupling each
compile to one map of their value followed by their derived gradient, so the
sampled Lipschitz estimate reads the coupling's exact Jacobian. What stays
code is parameter validation, comparison functions and boxes: the hoop's
``default_box`` is the exact bounding box of its invariant sublevel set, in
closed form. The certificate factories bind the functions they use when they
run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

import numpy as np

from .base import DEFAULT_SEED, InputError
from .core import Box, ComparisonFunction, ControlSystemDef, SystemEntry, VectorFieldDef
from .sampling import sobol_points
from .stability import IncrementalCertificate, estimate_lipschitz
from .user_systems import compile_map, system_factory

GRAVITY_DEFAULT = 9.81
LIPSCHITZ_SAFETY = 1.2
FIBER_THRESHOLD = 0.05  # the hoop's fiberwise certificate checks |theta| >= this


@dataclass(frozen=True)
class CertificateSpec:
    """A certificate together with the boxes and dynamics it applies to."""

    kind: str  # "fiberwise" | "iiss" | "iubibss"
    certificate: object
    state_box: Box
    input_box: Box | None = None
    control: ControlSystemDef | None = None


BALL_HOOP = {
    "name": "ball-hoop",
    "state": ["omega", "theta"],
    "m": 1,
    "params": {"m": 1.0, "R": 5.0, "g": GRAVITY_DEFAULT, "mu": 1.0, "xi_hoop": 0.1},
    "rhs": [
        "-(mu/m)*omega + xi_hoop**2*sin(theta)*cos(theta) - (g/R)*sin(theta)",
        "omega",
    ],
    "x0": [0.5, 0.3],
}

CART_PENDULUM = {
    "name": "cart-pendulum",
    "state": ["x", "v", "theta", "omega"],
    "m": 2,
    "params": {"M": 2.0, "m": 1.0, "R": 1.0, "k": 1.0, "g": GRAVITY_DEFAULT, "d": 1.0,
               "b": 1.0},
    "rhs": [
        "v",
        "(m*R*(omega*omega)*sin(theta) + m*g*sin(theta)*cos(theta) - k*x - d*v"
        " + (b/R)*cos(theta)) / (M + m*(sin(theta)*sin(theta)))",
        "omega",
        "(-m*R*(omega*omega)*sin(theta)*cos(theta) - (m + M)*g*sin(theta)"
        " + k*x*cos(theta) + d*v*cos(theta) - (1.0 + M/m)*(b/R)*omega)"
        " / (R*(M + m*(sin(theta)*sin(theta))))",
    ],
    "x0": [1.0, 0.0, 0.5, 0.0],
}

_HOOP_COUPLING = "xi_hoop**2*sin(theta)*cos(theta) - (g/R)*sin(theta)"
_CART_COUPLING = "omega**2*sin(theta) - omegadot*cos(theta)"

# functions of a state, an input or a state pair: name -> (argument blocks by
# column name, expressions); V and U are the certificates' functions
HOOP_FUNCTIONS = {
    "V": ([["omega", "theta"]],
          ["0.5*m*R**2*omega**2 + m*g*R*(1.0 - cos(theta))"
           " - 0.5*m*R**2*xi_hoop**2*sin(theta)**2"]),
    "U": ([["omega_1"], ["omega_2"]], ["0.5*(omega_1 - omega_2)**2"]),
    "coupling": ([["theta"]], [_HOOP_COUPLING]),
    # the coupling added to the drag: the field's row sums in another order
    "control": ([["omega"], ["theta"]], [f"-(mu/m)*omega + ({_HOOP_COUPLING})"]),
}

CART_FUNCTIONS = {
    "energy": ([["x", "v", "theta", "omega"]],
               ["(0.5*(M + m)*v**2 + m*R*v*omega*cos(theta) + 0.5*m*R**2*omega**2)"
                " + (0.5*k*x**2 - m*g*R*cos(theta))"]),
    "U": ([["x_1", "v_1"], ["x_2", "v_2"]], ["(x_1 - x_2)**2/(2.0*(m + M)) + 0.5*(v_1 - v_2)**2"]),
    "coupling": ([["theta", "omega", "omegadot"]], [_CART_COUPLING]),
    # the momentum form of the retained dynamics
    "control": ([["x", "v"], ["theta", "omega", "omegadot"]],
                ["v", f"(m*R*({_CART_COUPLING}) - k*x - d*v)/(M + m)"]),
    # the reduced model, the linear spring-damper y @ A_red.T written out: a
    # BLAS product's rounding may depend on how many states it takes at once
    "reduced": ([["x", "v"]], ["v", "(-k/M)*x + (-d/M)*v"]),
}


@cache
def _compiled(name: str, key: str | None = None) -> Callable:
    """A bundled document's field factory or, given ``key``, the ``bind`` of
    one of its functions; V, U and the coupling map to their value followed
    by their gradient. Each compiles once per process, when first asked for."""
    doc, functions = {"ball-hoop": (BALL_HOOP, HOOP_FUNCTIONS),
                      "cart-pendulum": (CART_PENDULUM, CART_FUNCTIONS)}[name]
    if key is None:
        return system_factory(doc)[0]
    blocks, sources = functions[key]
    wrt = sum(blocks, []) if key in ("V", "U", "coupling") else ()
    return compile_map(sources, blocks, list(doc["params"]), wrt)


def _check_boxes(kind: str, state_box, input_box, n_state: int, n_input: int | None) -> None:
    """Reject a given box that the certificate does not take (``n_input`` None:
    no input box) or whose dimension is not the certificate's, before anything
    is evaluated on it, naming the command-line flag that sets it."""
    if input_box is not None and n_input is None:
        raise InputError(f"certificate {kind!r} takes no --input-box")
    for flag, box, n in (("--box", state_box, n_state), ("--input-box", input_box, n_input)):
        if box is not None and box.dim != n:
            raise InputError(f"{flag} has dimension {box.dim} but certificate "
                             f"{kind!r} expects dimension {n}")


@contextmanager
def _from_box(kind: str, state_box):
    """Name ``--box`` in the ``InputError`` of a constant computed from the box it gave."""
    try:
        yield
    except InputError as err:
        if state_box is None:
            raise
        raise InputError(f"--box gives certificate {kind!r} a degenerate constant: {err}") from None


def _pair_certificate(system: str, p: dict, kind: str, state_box: Box, input_box: Box,
                      seed: int, gain: Callable[[float], float], **bounds) -> CertificateSpec:
    """A pair certificate of a bundled system: its gap U with the comparison
    functions ``bounds`` and the input gain ``gain(L)``, checked along its
    control form. L is the coupling's Lipschitz constant sampled on
    the input box at 2048 points, times LIPSCHITZ_SAFETY."""
    coupling = _compiled(system, "coupling")(p)
    L = estimate_lipschitz(coupling, input_box, n_samples=2048, seed=seed) * LIPSCHITZ_SAFETY
    control = ControlSystemDef(n=state_box.dim, m_in=input_box.dim,
                               rhs=_compiled(system, "control")(p))
    cert = IncrementalCertificate(V=_compiled(system, "U")(p), mu=ComparisonFunction(gain(L)),
                                  **bounds)
    return CertificateSpec(kind=kind, certificate=cert, state_box=state_box,
                           input_box=input_box, control=control)


# default certificate boxes for the cart: retained block, then angle ranges
CART_STATE_BOX = Box.from_pairs([(-2.0, 2.0), (-2.0, 2.0)])
CART_ANGLE_BOX = Box.from_pairs([(-0.7, 0.7), (-1.5, 1.5)])


def make_ball_in_hoop(params: dict) -> SystemEntry:
    """Ball in a spinning hoop; state (omega, theta), retained block omega."""
    p = dict(params)
    m, R, g, mu, xi = p["m"], p["R"], p["g"], p["mu"], p["xi_hoop"]
    for key in ("m", "R", "g", "mu", "xi_hoop"):
        if not (p[key] > 0):
            raise InputError(f"ball-hoop parameter {key} must be positive")
    try:
        spin = R * xi**2
    except OverflowError:  # xi**2 beyond float range
        spin = np.inf
    if not (spin < g):
        raise InputError(
            f"ball-hoop requires R*xi_hoop^2 < g (got {spin:.6g} >= {g:.6g}); "
            "the hanging equilibrium is otherwise not a minimum"
        )
    entry = _compiled("ball-hoop")(p)

    @np.errstate(all="ignore")  # a non-finite bound raises below, without warnings
    def sublevel_box(c: float | None = None) -> Box:
        """The bounding box of the invariant sublevel set {V <= c}, exactly.

        V/(m*R) = R*omega^2/2 + B(u), where u = 1 - cos(theta) and B = s*u +
        spin*u^2/2 with spin = R*xi^2 < g and s = g - spin. B rises from 0 on
        [0, pi], so the box is |omega| <= sqrt(2c'/R) by |theta| <= B^-1(c'),
        for c' = c/(m*R), or pi where B(pi) <= c' or the root is not a number.
        The root u = 2r/(1 + sqrt(1 + 2*(spin/s)*r)), r = c'/s, never forms
        s^2 or m*R*g, which overflow for huge g.
        """
        if c is None:
            c = float(_compiled("ball-hoop", "V")(p)(entry.default_ic)[0])
        level = np.float64(c) / (m * R)
        w_max = np.sqrt(2.0 * level / R)
        if not np.isfinite(w_max):
            raise InputError(f"sublevel box of V <= {c} is not finite: omega bound {w_max}")
        r = level / (g - spin)
        u = 2.0 * r / (1.0 + np.sqrt(1.0 + 2.0 * (spin / (g - spin)) * r))
        th_max = 2.0 * np.arcsin(np.sqrt(u / 2.0)) if u < 2.0 else np.pi
        return Box.from_pairs([(-w_max, w_max), (-th_max, th_max)])

    @np.errstate(all="ignore")
    def cert_fiberwise(
        state_box: Box | None = None,
        input_box: Box | None = None,
        seed: int = DEFAULT_SEED,
    ) -> CertificateSpec:
        _check_boxes("fiberwise", state_box, input_box, 2, None)
        box = state_box if state_box is not None else sublevel_box()
        lyapunov = _compiled("ball-hoop", "V")(p)
        # V >= m*R*(g - R*xi^2)*(2/pi^2)*theta^2 for |theta| <= pi
        a_lo = 2.0 * m * R * (g - R * xi**2) / np.pi**2
        # V is even and increasing in |omega| and |theta| on the box, so the
        # maximum sits at a corner
        v_max = float(lyapunov(box.corners())[:, 0].max())
        with _from_box("fiberwise", state_box):
            alpha_upper = ComparisonFunction(v_max / FIBER_THRESHOLD**2, 2.0)
        cert = IncrementalCertificate(lyapunov, ComparisonFunction(a_lo, 2.0), alpha_upper,
                                      xi=FIBER_THRESHOLD)
        return CertificateSpec(kind="fiberwise", certificate=cert, state_box=box)

    def cert_iiss(
        state_box: Box | None = None,
        input_box: Box | None = None,
        seed: int = DEFAULT_SEED,
    ) -> CertificateSpec:
        _check_boxes("iiss", state_box, input_box, 1, 1)
        if state_box is None or input_box is None:  # only a missing box needs V
            box = sublevel_box()  # (omega, theta): the retained block, then the fiber
            state_box = state_box or Box(box.lower[:1], box.upper[:1])
            input_box = input_box or Box(box.lower[1:], box.upper[1:])
        return _pair_certificate(
            "ball-hoop", p, "iiss", state_box, input_box, seed, lambda L: 2.0 * m * L / mu,
            alpha_lower=ComparisonFunction(0.5, 2.0),
            alpha_upper=ComparisonFunction(0.5, 2.0),
            alpha_decay=ComparisonFunction(mu / (2.0 * m), 2.0),
        )

    return replace(
        entry,
        certificates={"fiberwise": cert_fiberwise, "iiss": cert_iiss},
        default_box=sublevel_box,
    )


def make_cart_pendulum(params: dict) -> SystemEntry:
    """Pendulum on a spring-mounted cart; internal state (x, v, theta, omega)."""
    p = dict(params)
    M, m, R, d = (p[key] for key in ("M", "m", "R", "d"))
    for key in ("M", "m", "R", "k", "g"):
        if not (p[key] > 0):
            raise InputError(f"cart-pendulum parameter {key} must be positive")
    for key in ("d", "b"):
        if not (p[key] >= 0):  # NaN fails too
            raise InputError(f"cart-pendulum parameter {key} must be nonnegative")
    entry = _compiled("cart-pendulum")(p)

    @np.errstate(all="ignore")  # non-finite values raise below, without warnings
    def cert_iubibss(
        state_box: Box | None = None,
        input_box: Box | None = None,
        seed: int = DEFAULT_SEED,
    ) -> CertificateSpec:
        _check_boxes("iubibss", state_box, input_box, 2, 3)
        if d <= 0:
            raise InputError(
                "the bundled cart-pendulum certificate needs positive cart friction d"
            )
        sbox = state_box if state_box is not None else CART_STATE_BOX
        if input_box is None:
            # the range of the angular acceleration over the default box
            full_box = CART_STATE_BOX.concat(CART_ANGLE_BOX)
            pts = np.vstack([sobol_points(full_box, 4096, seed), full_box.corners()])
            a_max = float(np.abs(entry.field.rhs(pts)[:, 3]).max()) * 1.05
            input_box = CART_ANGLE_BOX.concat(Box.from_pairs([(-a_max, a_max)]))
        # the decay argument controls only the velocity gap, so the
        # threshold must exceed the largest position gap the box allows
        xi = float(sbox.widths[0]) * 1.0125
        with _from_box("iubibss", state_box):
            if not (0 < xi < np.inf):
                raise InputError(f"threshold xi must be positive and finite, got {xi}")
        return _pair_certificate(
            "cart-pendulum", p, "iubibss", sbox, input_box, seed, lambda L: 2.0 * m * R * L / d,
            alpha_lower=ComparisonFunction(1.0 / (2.0 * (m + M)), 2.0),
            alpha_upper=ComparisonFunction(0.5, 2.0),
            xi=xi,
        )

    return replace(
        entry,
        reduced_override=VectorFieldDef(n=2, rhs=_compiled("cart-pendulum", "reduced")(p),
                                        name="cart-pendulum_reduced"),
        certificates={"iubibss": cert_iubibss},
    )


REGISTRY: dict[str, tuple[Callable[[dict], SystemEntry], dict]] = {
    "ball-hoop": (make_ball_in_hoop, BALL_HOOP["params"]),
    "cart-pendulum": (make_cart_pendulum, CART_PENDULUM["params"]),
}


def lookup(
    name: str,
    param_overrides: dict | None = None,
    extra_registry: dict | None = None,
) -> SystemEntry:
    """Resolve a system by name, merging parameter overrides into its defaults.

    ``extra_registry`` lets callers (the CLI config loader) add user-defined
    systems; unknown parameter names are rejected.
    """
    registry = {**REGISTRY, **(extra_registry or {})}
    if name not in registry:
        raise InputError(
            f"unknown system {name!r}; available: {', '.join(sorted(registry))}"
        )
    factory, defaults = registry[name]
    overrides = dict(param_overrides or {})
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise InputError(
            f"unknown parameter(s) {', '.join(unknown)} for system {name!r}; "
            f"valid: {', '.join(sorted(defaults)) or 'none'}"
        )
    params = {**defaults, **overrides}
    return factory(params)
