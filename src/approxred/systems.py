"""Built-in example systems with their certificates and reduced forms.

Two benchmark systems ship with the package:

* ``ball-hoop``: a ball rolling in a hoop that spins at a constant rate, with
  viscous friction. State (omega, theta) = (angular velocity, angle); the
  retained block is omega alone.
* ``cart-pendulum``: a pendulum hanging from a cart that is attached to a
  spring, with friction on both the cart and the pendulum joint. The natural
  coordinate order (x, theta, v, omega) is stored internally reordered as
  (x, v, theta, omega) so the retained pair (x, v) is leading; conversion
  helpers live in the entry's aux dict.

Each entry bundles parameter defaults, certificate factories (each with the
control-system form its checker needs), and (for the cart) an explicit linear
reduced model used by the comparison commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .core import (
    Box,
    ComparisonFunction,
    ConstraintError,
    ControlSystemDef,
    Decomposition,
    InputError,
    UnknownSystemError,
    VectorFieldDef,
)
from .sampling import DEFAULT_SEED, sobol_points
from .stability import (
    FiberwiseCertificate,
    IISSCertificate,
    IUBIBSSCertificate,
    ScalarFunctionDef,
    estimate_lipschitz,
)

GRAVITY_DEFAULT = 9.81
LIPSCHITZ_SAFETY = 1.2

HOOP_RADIUS_SWEEP = (5.0, 10.0, 20.0, 40.0)
CART_FRICTION_SWEEP = (0.001, 0.01, 0.1, 1.0)


@dataclass(frozen=True)
class CertificateSpec:
    """A certificate together with the boxes and dynamics it applies to."""

    kind: str  # "fiberwise" | "iiss" | "iubibss"
    certificate: object
    state_box: Box
    input_box: Box | None = None
    control: ControlSystemDef | None = None


@dataclass(frozen=True)
class SystemEntry:
    """A registered example system and everything the CLI needs to drive it."""

    name: str
    params: dict
    field: VectorFieldDef
    decomp: Decomposition
    default_ic: np.ndarray
    reduced_override: VectorFieldDef | None = None
    certificates: dict = dc_field(default_factory=dict)
    aux: dict = dc_field(default_factory=dict)
    notes: dict = dc_field(default_factory=dict)


BALL_HOOP_DEFAULTS = {
    "m": 1.0,
    "R": 5.0,
    "g": GRAVITY_DEFAULT,
    "mu": 1.0,
    "xi_hoop": 0.1,
}

CART_PENDULUM_DEFAULTS = {
    "M": 2.0,
    "m": 1.0,
    "R": 1.0,
    "k": 1.0,
    "g": GRAVITY_DEFAULT,
    "d": 1.0,
    "b": 1.0,
}


def _columns(*cols) -> np.ndarray:
    """``np.stack(cols, axis=-1)`` for equal-shape columns, without the
    overhead that dominates a single-state evaluation."""
    out = np.empty(np.shape(cols[0]) + (len(cols),))
    for j, col in enumerate(cols):
        out[..., j] = col
    return out


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
    if not (R * xi**2 < g):
        raise ConstraintError(
            f"ball-hoop requires R*xi_hoop^2 < g (got {R * xi**2:.6g} >= {g:.6g}); "
            "the hanging equilibrium is otherwise not a minimum"
        )
    xi2 = xi**2

    def rhs(s):
        s = np.asarray(s, dtype=float)
        w, th = s[..., 0], s[..., 1]
        dw = -(mu / m) * w + xi2 * np.sin(th) * np.cos(th) - (g / R) * np.sin(th)
        return _columns(dw, w)

    field = VectorFieldDef(n=2, rhs=rhs, params=p, name="ball-hoop")
    decomp = Decomposition(n=2, m=1, k=1)
    default_ic = np.array([0.5, 0.3])

    def lyap(s):
        s = np.asarray(s, dtype=float)
        w, th = s[..., 0], s[..., 1]
        return (
            0.5 * m * R**2 * w**2
            + m * g * R * (1.0 - np.cos(th))
            - 0.5 * m * R**2 * xi2 * np.sin(th) ** 2
        )

    def lyap_grad(s):
        s = np.asarray(s, dtype=float)
        w, th = s[..., 0], s[..., 1]
        gw = m * R**2 * w
        gth = m * g * R * np.sin(th) - m * R**2 * xi2 * np.sin(th) * np.cos(th)
        return np.stack([gw, gth], axis=-1)

    lyapunov = ScalarFunctionDef(arity="state", fn=lyap, grad=lyap_grad, name="V")

    def coupling(u):
        """Fiber-to-retained coupling term as a function of the angle input."""
        u = np.asarray(u, dtype=float)
        th = u[..., 0]
        return xi2 * np.sin(th) * np.cos(th) - (g / R) * np.sin(th)

    def control_rhs(s, u):
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        w = s[..., 0]
        dw = -(mu / m) * w + coupling(u)
        return dw[..., None]

    control = ControlSystemDef(
        n=1, m_in=1, rhs=control_rhs, params=p, name="ball-hoop-control"
    )

    def velocity_gap(s1, s2):
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        return 0.5 * (s1[..., 0] - s2[..., 0]) ** 2

    def velocity_gap_grad(s1, s2):
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        diff = s1[..., 0] - s2[..., 0]
        return diff[..., None], -diff[..., None]

    gap_fn = ScalarFunctionDef(
        arity="pair", fn=velocity_gap, grad=velocity_gap_grad, name="U"
    )

    def sublevel_value(state) -> float:
        return float(lyap(np.asarray(state, dtype=float)))

    def sublevel_box(c: float | None = None, grid: int = 1001) -> Box:
        """Bounding box of the invariant sublevel set {V <= c} on a grid.

        V = (K*omega^2 + B1(theta)) - B2(theta) is non-decreasing in omega^2
        under rounding. So the theta columns that meet the set are those of
        the omega row nearest 0, and the rows that meet it form an interval
        around that row, whose ends are found by bisection, one row a probe.
        """
        if c is None:
            c = sublevel_value(default_ic)
        w_max = np.sqrt(2.0 * c / (m * R**2))
        w = np.linspace(-w_max, w_max, grid)
        th = np.linspace(-np.pi, np.pi, grid)

        def inside(row: int) -> np.ndarray:
            return lyap(np.stack([np.full(grid, w[row]), th], axis=-1)) <= c

        mid = int(np.argmin(np.abs(w)))
        cols = inside(mid)
        if not cols.any():
            raise InputError(f"sublevel value {c} produced an empty set")
        lo, hi = 0, mid  # the first row that meets the set lies in [lo, hi]
        while lo < hi:
            row = (lo + hi) // 2
            lo, hi = (lo, row) if inside(row).any() else (row + 1, hi)
        first = lo
        lo, hi = mid, grid - 1  # the last one lies in [lo, hi]
        while lo < hi:
            row = (lo + hi + 1) // 2
            lo, hi = (row, hi) if inside(row).any() else (lo, row - 1)
        return Box.from_pairs(
            [(w[first], w[lo]), (th[cols].min(), th[cols].max())]
        )

    def cert_fiberwise(
        state_box: Box | None = None,
        input_box: Box | None = None,
        seed: int = DEFAULT_SEED,
        d_threshold: float = 0.05,
    ) -> CertificateSpec:
        box = state_box if state_box is not None else sublevel_box()
        # V >= m*R*(g - R*xi^2)*(2/pi^2)*theta^2 for |theta| <= pi
        a_lo = 2.0 * m * R * (g - R * xi2) / np.pi**2
        # V is even and increasing in |omega| and |theta| on the box, so the
        # maximum sits at a corner
        corners = np.array(
            [[wc, tc] for wc in (box.lower[0], box.upper[0]) for tc in (box.lower[1], box.upper[1])]
        )
        v_max = float(lyap(corners).max())
        a_hi = v_max / d_threshold**2
        cert = FiberwiseCertificate(
            V=lyapunov,
            alpha_lower=ComparisonFunction.power(a_lo, 2.0),
            alpha_upper=ComparisonFunction.power(a_hi, 2.0),
            d_threshold=d_threshold,
        )
        return CertificateSpec(kind="fiberwise", certificate=cert, state_box=box)

    def cert_iiss(
        state_box: Box | None = None,
        input_box: Box | None = None,
        seed: int = DEFAULT_SEED,
        safety: float = LIPSCHITZ_SAFETY,
    ) -> CertificateSpec:
        full_box = sublevel_box()
        sbox = state_box if state_box is not None else full_box.project(decomp, "m")
        ibox = input_box if input_box is not None else full_box.project(decomp, "k")
        L = estimate_lipschitz(coupling, ibox, n_samples=2048, seed=seed) * safety
        cert = IISSCertificate(
            V=gap_fn,
            alpha_lower=ComparisonFunction.power(0.5, 2.0),
            alpha_upper=ComparisonFunction.power(0.5, 2.0),
            alpha_decay=ComparisonFunction.power(mu / (2.0 * m), 2.0),
            mu=ComparisonFunction.linear(2.0 * m * L / mu),
        )
        return CertificateSpec(
            kind="iiss", certificate=cert, state_box=sbox, input_box=ibox, control=control
        )

    return SystemEntry(
        name="ball-hoop",
        params=p,
        field=field,
        decomp=decomp,
        default_ic=default_ic,
        certificates={"fiberwise": cert_fiberwise, "iiss": cert_iiss},
        aux={
            "lyapunov": lyapunov,
            "velocity_gap": gap_fn,
            "input_coupling": coupling,
            "sublevel_box": sublevel_box,
            "sublevel_value": sublevel_value,
        },
        notes={
            "model": "ball in a hoop spinning at constant rate, viscous friction",
            "state": "(omega, theta); retained block omega",
            "reduced": "slice at theta=0 gives domega/dt = -(mu/m)*omega",
            "default_ic": "(0.5, 0.3), inside the default invariant sublevel set",
        },
    )


def make_cart_pendulum(params: dict) -> SystemEntry:
    """Pendulum on a spring-mounted cart; internal state (x, v, theta, omega)."""
    p = dict(params)
    M, m, R, k, g, d, b = (p[key] for key in ("M", "m", "R", "k", "g", "d", "b"))
    for key in ("M", "m", "R", "k", "g"):
        if not (p[key] > 0):
            raise InputError(f"cart-pendulum parameter {key} must be positive")
    for key in ("d", "b"):
        if p[key] < 0:
            raise InputError(f"cart-pendulum parameter {key} must be nonnegative")

    def rhs(s):
        s = np.asarray(s, dtype=float)
        x, v, th, w = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
        sin, cos = np.sin(th), np.cos(th)
        den = M + m * sin**2
        dv = (m * R * w**2 * sin + m * g * sin * cos - k * x - d * v + (b / R) * cos) / den
        dw = (
            -m * R * w**2 * sin * cos
            - (m + M) * g * sin
            + k * x * cos
            + d * v * cos
            - (1.0 + M / m) * (b / R) * w
        ) / (R * den)
        return _columns(v, dv, w, dw)

    field = VectorFieldDef(n=4, rhs=rhs, params=p, name="cart-pendulum")
    decomp = Decomposition(n=4, m=2, k=2)
    default_ic = np.array([1.0, 0.0, 0.5, 0.0])

    # the bundled reduced model: linear spring-damper on the retained pair
    A_red = np.array([[0.0, 1.0], [-k / M, -d / M]])

    # y @ A_red.T written out: a BLAS product's rounding may depend on how
    # many states are evaluated together
    def reduced_rhs(y):
        y = np.asarray(y, dtype=float)
        x, v = y[..., 0], y[..., 1]
        return _columns(v, (-k / M) * x + (-d / M) * v)

    reduced = VectorFieldDef(
        n=2, rhs=reduced_rhs, params=p, name="cart-pendulum_reduced"
    )

    def accel_coupling(u):
        """omega^2 sin(theta) - omegadot cos(theta), input u = (theta, omega, omegadot)."""
        u = np.asarray(u, dtype=float)
        th, w, a = u[..., 0], u[..., 1], u[..., 2]
        return w**2 * np.sin(th) - a * np.cos(th)

    def control_accel_rhs(s, u):
        """Momentum form of the retained dynamics, inputs (theta, omega, omegadot)."""
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        x, v = s[..., 0], s[..., 1]
        dv = (m * R * accel_coupling(u) - k * x - d * v) / (M + m)
        return np.stack([v, dv], axis=-1)

    control_accel = ControlSystemDef(
        n=2, m_in=3, rhs=control_accel_rhs, params=p, name="cart-pendulum-control-accel"
    )

    def energy(s):
        s = np.asarray(s, dtype=float)
        x, v, th, w = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
        kinetic = 0.5 * (M + m) * v**2 + m * R * v * w * np.cos(th) + 0.5 * m * R**2 * w**2
        potential = 0.5 * k * x**2 - m * g * R * np.cos(th)
        return kinetic + potential

    energy_fn = ScalarFunctionDef(arity="state", fn=energy, name="energy")

    def position_gap(s1, s2):
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        dx = s1[..., 0] - s2[..., 0]
        dv = s1[..., 1] - s2[..., 1]
        return dx**2 / (2.0 * (m + M)) + 0.5 * dv**2

    def position_gap_grad(s1, s2):
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        dx = s1[..., 0] - s2[..., 0]
        dv = s1[..., 1] - s2[..., 1]
        g1 = np.stack([dx / (m + M), dv], axis=-1)
        return g1, -g1

    gap_fn = ScalarFunctionDef(
        arity="pair", fn=position_gap, grad=position_gap_grad, name="U"
    )

    def omegadot_bound(scan_samples: int = 4096, seed: int = DEFAULT_SEED) -> float:
        """Range of the angular acceleration over the default certificate box."""
        full_box = CART_STATE_BOX.concat(CART_ANGLE_BOX)
        pts = sobol_points(full_box, scan_samples, seed)
        corners = np.array(
            np.meshgrid(*zip(full_box.lower, full_box.upper), indexing="ij")
        ).reshape(4, -1).T
        acc = np.abs(rhs(np.vstack([pts, corners]))[:, 3])
        return float(acc.max()) * 1.05

    def cert_iubibss(
        state_box: Box | None = None,
        input_box: Box | None = None,
        seed: int = DEFAULT_SEED,
        safety: float = LIPSCHITZ_SAFETY,
        xi: float | None = None,
    ) -> CertificateSpec:
        if d <= 0:
            raise InputError(
                "the bundled cart-pendulum certificate needs positive cart friction d"
            )
        sbox = state_box if state_box is not None else CART_STATE_BOX
        if input_box is None:
            a_max = omegadot_bound(seed=seed)
            ibox = CART_ANGLE_BOX.concat(Box.from_pairs([(-a_max, a_max)]))
        else:
            ibox = input_box
        if xi is None:
            # the decay argument controls only the velocity gap, so the
            # threshold must exceed the largest position gap the box allows
            xi = float(sbox.widths[0]) * 1.0125
        L = estimate_lipschitz(accel_coupling, ibox, n_samples=2048, seed=seed) * safety
        cert = IUBIBSSCertificate(
            V=gap_fn,
            alpha_lower=ComparisonFunction.power(1.0 / (2.0 * (m + M)), 2.0),
            alpha_upper=ComparisonFunction.power(0.5, 2.0),
            mu=ComparisonFunction.linear(2.0 * m * R * L / d),
            xi=xi,
            mu_offset=xi,
        )
        return CertificateSpec(
            kind="iubibss",
            certificate=cert,
            state_box=sbox,
            input_box=ibox,
            control=control_accel,
        )

    return SystemEntry(
        name="cart-pendulum",
        params=p,
        field=field,
        decomp=decomp,
        default_ic=default_ic,
        reduced_override=reduced,
        certificates={"iubibss": cert_iubibss},
        aux={
            "energy": energy_fn,
            "position_gap": gap_fn,
            "input_coupling": accel_coupling,
            "reduced_matrix": A_red,
            "to_internal": cart_to_internal,
            "to_natural_order": cart_to_natural_order,
            "omegadot_bound": omegadot_bound,
        },
        notes={
            "model": "pendulum hanging from a cart on a spring, friction on both joints",
            "state": "(x, v, theta, omega) internally; natural order is (x, theta, v, omega)",
            "reduced": "bundled linear model (dx, dv) = (v, -(k*x + d*v)/M)",
            "default_ic": "(1, 0, 0.5, 0) in internal order",
        },
    )


_REORDER = np.array([0, 2, 1, 3])


def cart_to_internal(s):
    """Map a natural-order state (x, theta, v, omega) to internal (x, v, theta, omega)."""
    s = np.asarray(s, dtype=float)
    return s[..., _REORDER]


def cart_to_natural_order(s):
    """Inverse of :func:`cart_to_internal`; the permutation is an involution."""
    s = np.asarray(s, dtype=float)
    return s[..., _REORDER]


REGISTRY: dict[str, tuple[Callable[[dict], SystemEntry], dict]] = {
    "ball-hoop": (make_ball_in_hoop, BALL_HOOP_DEFAULTS),
    "cart-pendulum": (make_cart_pendulum, CART_PENDULUM_DEFAULTS),
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
    registry = dict(REGISTRY)
    if extra_registry:
        registry.update(extra_registry)
    if name not in registry:
        raise UnknownSystemError(
            f"unknown system {name!r}; available: {', '.join(sorted(registry))}"
        )
    factory, defaults = registry[name]
    overrides = dict(param_overrides or {})
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise InputError(
            f"unknown parameter(s) {', '.join(unknown)} for system {name!r}; "
            f"valid: {', '.join(sorted(defaults))}"
        )
    params = {**defaults, **overrides}
    return factory(params)
