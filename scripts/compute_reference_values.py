#!/usr/bin/env python3
"""Regenerate the frozen reference values in tests/reference_values.py.

Every value asserted by the oracle-pinned tests is computed here, by routes
independent of the package's production code paths:

* trajectory references use scipy.integrate.solve_ivp at rtol=atol=1e-12
  (RK45 for the pinned endpoints, dense output for deviation curves), plus
  closed-form solutions wherever the reduced model is linear;
* the Lipschitz reference is the analytic derivative maximized on a dense
  million-point grid;
* cart-pendulum right-hand-side references come from exact rational sympy
  evaluation of the equations of motion.

The only shared convention is the sampling one: Sobol initial conditions are
drawn with scipy.stats.qmc (scrambled, seed 42), whose points the package's
own numpy generator reproduces bit for bit, because the pinned quantity is
defined over those very samples.

Run from the repository root:

    python3 scripts/compute_reference_values.py > tests/reference_values.py
"""

import sys
import warnings

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp
from scipy.stats import qmc

# ball-hoop parameters shared by all hoop references
M_BALL = 1.0
MU = 1.0
XI = 0.1
G = 9.81

N_GRID = 2001  # the uniform comparison grid used by the deviation reports
SEED = 42


def hoop_rhs(R):
    def rhs(_t, s):
        w, th = s
        return [
            -(MU / M_BALL) * w + XI**2 * np.sin(th) * np.cos(th) - (G / R) * np.sin(th),
            w,
        ]

    return rhs


def hoop_endpoint_reference():
    """Endpoint of the hoop system at t=10 from (0.5, 0.3), R=5."""
    sol = solve_ivp(
        hoop_rhs(5.0), (0.0, 10.0), [0.5, 0.3], method="RK45", rtol=1e-12, atol=1e-12
    )
    return sol.y[:, -1]


def hoop_deviation(R, x0, t_end, n_grid=N_GRID):
    """Sup over the uniform grid of |omega_full(t) - omega0*exp(-t)|."""
    sol = solve_ivp(
        hoop_rhs(R),
        (0.0, t_end),
        list(x0),
        method="RK45",
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    grid = np.linspace(0.0, t_end, n_grid)
    w_full = sol.sol(grid)[0]
    w_red = x0[0] * np.exp(-(MU / M_BALL) * grid)
    dev = np.abs(w_full - w_red)
    i = int(np.argmax(dev))
    return float(dev[i]), float(grid[i]), dev


def hoop_sup_dev_reference():
    sup, t_sup, dev = hoop_deviation(5.0, (0.5, 0.3), 20.0)
    # grid-resolution sanity: a 16x denser grid should move the sup very little
    sup_fine, _, _ = hoop_deviation(5.0, (0.5, 0.3), 20.0, n_grid=16 * (N_GRID - 1) + 1)
    print(
        f"# grid check: sup on {N_GRID}-grid = {sup!r}, on dense grid = {sup_fine!r}, "
        f"rel gap = {abs(sup_fine - sup) / sup:.3e}",
        file=sys.stderr,
    )
    return sup, t_sup


def lipschitz_reference():
    """max over a dense grid of |d/dtheta (xi^2 sin cos - (g/R) sin)| on [-0.3, 0.3]."""
    R = 5.0
    th = np.linspace(-0.3, 0.3, 1_000_001)
    deriv = XI**2 * np.cos(2.0 * th) - (G / R) * np.cos(th)
    return float(np.abs(deriv).max())


def delta_reference():
    """Projected-mode deviation bound estimate on S = [-0.5,0.5] x [-0.3,0.3].

    R=10, n_ic=100 Sobol initial conditions (scrambled, seed 42), horizon 10,
    each deviation measured on the uniform N_GRID grid; full trajectories via
    solve_ivp at 1e-12, reduced trajectories in closed form.
    """
    R, n_ic, t_end = 10.0, 100, 10.0
    lower = np.array([-0.5, -0.3])
    upper = np.array([0.5, 0.3])
    engine = qmc.Sobol(d=2, scramble=True, seed=SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pts = engine.random(n_ic)
    ics = lower + pts * (upper - lower)
    grid = np.linspace(0.0, t_end, N_GRID)
    best = -np.inf
    for x0 in ics:
        sol = solve_ivp(
            hoop_rhs(R),
            (0.0, t_end),
            list(x0),
            method="RK45",
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        w_full = sol.sol(grid)[0]
        w_red = x0[0] * np.exp(-(MU / M_BALL) * grid)
        best = max(best, float(np.abs(w_full - w_red).max()))
    return best


def cart_rhs_references():
    """Exact rational evaluation of the cart-pendulum equations of motion.

    States are in internal order (x, v, theta, omega); parameters are the
    package defaults M=2, m=R=k=b=d=1, g=9.81.
    """
    x, v, th, w = sp.symbols("x v theta omega")
    M, m, R, k, g, d, b = (
        sp.Integer(2),
        sp.Integer(1),
        sp.Integer(1),
        sp.Integer(1),
        sp.Rational(981, 100),
        sp.Integer(1),
        sp.Integer(1),
    )
    den = M + m * sp.sin(th) ** 2
    dv = (
        m * R * w**2 * sp.sin(th)
        + m * g * sp.sin(th) * sp.cos(th)
        - k * x
        - d * v
        + (b / R) * sp.cos(th)
    ) / den
    dw = (
        -m * R * w**2 * sp.sin(th) * sp.cos(th)
        - (m + M) * g * sp.sin(th)
        + k * x * sp.cos(th)
        + d * v * sp.cos(th)
        - (1 + M / m) * (b / R) * w
    ) / (R * den)
    full = (v, dv, w, dw)

    def eval_at(state):
        subs = {x: state[0], v: state[1], th: state[2], w: state[3]}
        return [float(sp.N(expr.subs(subs), 30)) for expr in full]

    states = {
        "origin": (0, 0, 0, 0),
        "unit_x": (1, 0, 0, 0),
        "generic": (
            sp.Rational(3, 10),
            -sp.Rational(1, 5),
            sp.Rational(2, 5),
            sp.Rational(1, 10),
        ),
    }
    return {name: eval_at(state) for name, state in states.items()}


def main():
    endpoint = hoop_endpoint_reference()
    sup_dev, t_sup = hoop_sup_dev_reference()
    lip = lipschitz_reference()
    delta = delta_reference()
    cart = cart_rhs_references()

    print('"""Frozen reference values for the oracle-pinned tests.')
    print()
    print("Generated by scripts/compute_reference_values.py; regenerate with")
    print()
    print("    python3 scripts/compute_reference_values.py > tests/reference_values.py")
    print('"""')
    print()
    print("# hoop endpoint at t=10 from (0.5, 0.3); R=5, mu=m=1, xi=0.1, g=9.81;")
    print("# solve_ivp RK45 rtol=atol=1e-12")
    print(f"HOOP_ENDPOINT_T10 = ({float(endpoint[0])!r}, {float(endpoint[1])!r})")
    print()
    print(f"# sup deviation over the uniform {N_GRID}-point grid on [0, 20], R=5,")
    print("# ic (0.5, 0.3); full side solve_ivp 1e-12 dense, reduced side exact")
    print(f"HOOP_SUP_DEV_R5 = {sup_dev!r}")
    print(f"HOOP_T_OF_SUP_R5 = {t_sup!r}")
    print()
    print("# max |d coupling/d theta| on [-0.3, 0.3] from a 1e6-point grid of the")
    print("# analytic derivative; R=5, xi=0.1, g=9.81")
    print(f"HOOP_LIPSCHITZ_COUPLING = {lip!r}")
    print()
    print("# projected-mode deviation estimate, R=10, S=[-0.5,0.5]x[-0.3,0.3],")
    print(f"# 100 Sobol ics (seed {SEED}), horizon 10, grid {N_GRID}")
    print(f"HOOP_DELTA_R10 = {delta!r}")
    print()
    print("# cart-pendulum rhs at fixed states (internal order x, v, theta, omega),")
    print("# defaults M=2, m=R=k=d=b=1, g=9.81; exact rational sympy evaluation")
    for name, vals in cart.items():
        print(f"CART_RHS_{name.upper()} = {tuple(vals)!r}")


if __name__ == "__main__":
    main()
