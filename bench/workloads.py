"""Seeded command sets for the approxred CLI benchmark.

A workload is a list of ``approxred`` command lines plus the files they read.
The workload seed fixes every generated value (initial conditions, parameter
values, Sobol ``--seed``s and the JSON user system); approxred itself only ever
sees the generated argv and files.

Each command carries what a correct run must show: its exit code, the
entries its embedded ``config`` must echo, and, for the pinned commands, the
reference value in ``tests/reference_values.py`` it must reproduce.

``{tmp}`` in an argv token stands for the run's temporary directory; the runner
substitutes it and appends ``--out``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

GRAVITY = 9.81  # the ball-hoop default, which the generator never overrides
EXIT_OK = 0
EXIT_VERDICT = 3

# falsify sample count: near 1e6 and a power of two, so Sobol stays balanced;
# cart check-exact peaks near 500 MB here
FALSIFY_SAMPLES = 2**20
PINNED_COMPARE = "hoop_compare_R5"
PINNED_BOUND = "hoop_delta_R10"


@dataclass(frozen=True)
class Command:
    """One approxred invocation and what its output must show."""

    argv: tuple[str, ...]
    out_ext: str  # "csv" or "json": the format written to --out
    exit_code: int = EXIT_OK
    expect: dict = field(default_factory=dict)  # config entries to echo
    work: int = 0  # units of its workload's work_unit this command does
    reference: str | None = None  # name of a pinned reference check


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    work_unit: str  # what Command.work counts, for work_per_s
    commands: tuple[Command, ...]
    files: dict = field(default_factory=dict)  # file name in {tmp} -> text

    def record(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "work_unit": self.work_unit,
            "argv": [list(c.argv) for c in self.commands],
            "files": dict(self.files),
        }


def _num(x: float) -> str:
    return repr(float(x))


def _u(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def _sets(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += ["--set", f"{key}={_num(value)}"]
    return out


def _box(pairs) -> str:
    return "--box=" + ";".join(f"{_num(lo)},{_num(hi)}" for lo, hi in pairs)


def _box_config(pairs) -> dict:
    return {"lower": [float(lo) for lo, _ in pairs], "upper": [float(hi) for _, hi in pairs]}


def _hoop_params(rng: random.Random, r_lo: float, r_hi: float) -> dict:
    # R * xi_hoop**2 <= 12 * 0.2**2 = 0.48, far inside R * xi_hoop**2 < g
    return {"R": _u(rng, r_lo, r_hi), "xi_hoop": _u(rng, 0.05, 0.2)}


def _cart_params(rng: random.Random) -> dict:
    return {"k": _u(rng, 0.8, 1.2), "d": _u(rng, 0.8, 1.2)}


def _integrate(system: str, params: dict, x0, t_end: float, method="rk45", dt=None,
               fmt="csv") -> tuple[list[str], dict]:
    argv = ["--system", system, *_sets(params), "--t-end", _num(t_end),
            "--method", method]
    expect = {"system": system, "params": params, "t_end": t_end, "method": method,
              "format": fmt}
    if dt is not None:
        argv += ["--dt", _num(dt)]
        expect["dt"] = dt
    if x0 is not None:
        argv += ["--x0", ",".join(_num(v) for v in x0)]
        expect["x0"] = [float(v) for v in x0]
    if fmt != "csv":
        argv += ["--format", fmt]
    return argv, expect


def simulate(system, params, x0, t_end, method="rk45", dt=None, fmt="csv") -> Command:
    argv, expect = _integrate(system, params, x0, t_end, method, dt, fmt)
    return Command(("simulate", *argv), fmt, expect={"command": "simulate", **expect})


def compare(system, params, x0, t_end, fmt="csv", reference=None) -> Command:
    argv, expect = _integrate(system, params, x0, t_end, fmt=fmt)
    return Command(("compare", *argv), fmt, expect={"command": "compare", **expect},
                   reference=reference)


def sweep(system, params, x0, param, values, t_end, fmt="csv") -> Command:
    argv, expect = _integrate(system, params, x0, t_end, fmt=fmt)
    argv += ["--param", param, "--values", ",".join(_num(v) for v in values)]
    expect.update(command="sweep", param=param, values=[float(v) for v in values])
    return Command(("sweep", *argv), fmt, expect=expect)


def check_exact(system: str, samples: int | None, seed: int) -> Command:
    argv = ["check-exact", "--system", system, "--seed", str(seed)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    expect = {"command": "check-exact", "system": system, "seed": seed,
              "samples": samples or 512}
    # both bundled systems couple the fiber into the retained block
    return Command(tuple(argv), "json", EXIT_VERDICT, expect,
                   work=samples or 512)


def check_lyapunov(system: str, cert: str, samples: int | None, seed: int,
                   negate: bool = False) -> Command:
    argv = ["check-lyapunov", "--system", system, "--certificate", cert,
            "--seed", str(seed)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    if negate:
        argv.append("--negate-v")
    expect = {"command": "check-lyapunov", "system": system, "certificate": cert,
              "seed": seed, "samples": samples or 4096, "negate_v": negate}
    code = EXIT_VERDICT if negate else EXIT_OK
    return Command(tuple(argv), "json", code, expect, work=samples or 4096)


def bound(system: str, params: dict, n_ic: int, t_end: float, seed: int,
          mode: str = "projected", box=None, config: str | None = None,
          reference: str | None = None) -> Command:
    """A bound on a bundled system, or on the user system in ``config``."""
    argv = ["bound", *(["--config", config] if config else ["--system", system])]
    expect = {"command": "bound", "system": system, "n_ic": n_ic, "t_end": t_end,
              "seed": seed, "mode": mode, "params": params}
    argv += [*_sets(params), "--n-ic", str(n_ic), "--t-end", _num(t_end),
             "--seed", str(seed), "--mode", mode]
    if box is not None:
        argv.append(_box(box))
        expect["box"] = _box_config(box)
    return Command(tuple(argv), "json", EXIT_OK, expect, work=n_ic,
                   reference=reference)


def pinned_compare() -> Command:
    """The compare behind HOOP_SUP_DEV_R5 and HOOP_T_OF_SUP_R5."""
    return compare("ball-hoop", {"R": 5.0}, (0.5, 0.3), 20.0, reference=PINNED_COMPARE)


def pinned_bound() -> Command:
    """The bound behind HOOP_DELTA_R10."""
    return bound("ball-hoop", {"R": 10.0}, 100, 10.0, 42,
                 box=((-0.5, 0.5), (-0.3, 0.3)), reference=PINNED_BOUND)


def user_system(rng: random.Random) -> dict:
    """A damped three-state system whose fiber drives the retained state."""
    return {
        "name": "bench-coupled-3",
        "state": ["y", "p", "q"],
        "m": 1,
        "params": {
            "a": _u(rng, 0.8, 1.2),
            "c": _u(rng, 0.3, 0.7),
            "k": _u(rng, 1.5, 2.5),
            "d": _u(rng, 0.4, 0.6),
            "e": _u(rng, 0.1, 0.4),
        },
        "rhs": ["-a*y + c*sin(p)*cos(q)", "q", "-k*sin(p) - d*q + e*cos(y)"],
        "x0": [_u(rng, 0.3, 0.7), _u(rng, 0.1, 0.4), 0.0],
    }


def interactive(rng: random.Random) -> tuple[list[Command], dict]:
    hoop = _hoop_params(rng, 4.0, 8.0)
    cart = _cart_params(rng)
    hoop_x0 = (_u(rng, 0.3, 0.7), _u(rng, 0.1, 0.5))
    cart_x0 = (_u(rng, 0.5, 1.5), _u(rng, -0.2, 0.2), _u(rng, 0.2, 0.6),
               _u(rng, -0.2, 0.2))
    radii = sorted(_u(rng, lo, 2 * lo) for lo in (4.0, 8.0, 16.0, 32.0))
    frictions = sorted(_u(rng, lo, 3 * lo) for lo in (0.001, 0.01, 0.1, 0.3))
    commands = [
        simulate("ball-hoop", hoop, hoop_x0, 20.0),
        simulate("cart-pendulum", cart, cart_x0, 20.0, fmt="json"),
        simulate("cart-pendulum", cart, cart_x0, 5.0, method="rk4", dt=1e-3),
        compare("ball-hoop", hoop, hoop_x0, 20.0),
        compare("cart-pendulum", cart, cart_x0, 30.0, fmt="json"),
        sweep("ball-hoop", {"xi_hoop": hoop["xi_hoop"]}, hoop_x0, "R", radii, 20.0),
        sweep("cart-pendulum", {"k": cart["k"]}, cart_x0, "d", frictions, 30.0,
              fmt="json"),
        check_exact("cart-pendulum", None, _seed(rng)),
        check_lyapunov("ball-hoop", "fiberwise", None, _seed(rng)),
        check_lyapunov("ball-hoop", "iiss", None, _seed(rng)),
        check_lyapunov("cart-pendulum", "iubibss", None, _seed(rng)),
        check_lyapunov("cart-pendulum", "iubibss", None, _seed(rng), negate=True),
        pinned_compare(),
    ]
    # an interactive user's unit of work is the command itself
    return [replace(c, work=1) for c in commands], {}


def deviation(rng: random.Random) -> tuple[list[Command], dict]:
    hoop = _hoop_params(rng, 8.0, 12.0)
    half_w, half_th = _u(rng, 0.4, 0.6), _u(rng, 0.2, 0.4)
    hoop_box = ((-half_w, half_w), (-half_th, half_th))
    doc = user_system(rng)
    commands = [
        bound("ball-hoop", hoop, 64, 10.0, _seed(rng), box=hoop_box),
        bound("cart-pendulum", _cart_params(rng), 32, 30.0, _seed(rng)),
        bound("ball-hoop", hoop, 48, 10.0, _seed(rng), mode="cross", box=hoop_box),
        bound(doc["name"], {}, 24, 10.0, _seed(rng), config="{tmp}/user_system.json"),
        pinned_bound(),
    ]
    return commands, {"user_system.json": json.dumps(doc, indent=2) + "\n"}


def falsify(rng: random.Random) -> tuple[list[Command], dict]:
    n = FALSIFY_SAMPLES
    commands = [
        check_lyapunov("ball-hoop", "iiss", n, _seed(rng)),
        check_lyapunov("ball-hoop", "fiberwise", n, _seed(rng)),
        check_lyapunov("cart-pendulum", "iubibss", n, _seed(rng)),
        check_exact("ball-hoop", n, _seed(rng)),
        check_exact("cart-pendulum", n, _seed(rng)),
        check_lyapunov("ball-hoop", "iiss", n, _seed(rng), negate=True),
    ]
    return commands, {}


# workload -> (generator, what its commands' work counts)
GENERATORS = {
    "interactive": (interactive, "commands"),
    "deviation": (deviation, "sampled initial conditions"),
    "falsify": (falsify, "checked samples"),
}


def generate(name: str, seed: int) -> Workload:
    """The command set of workload ``name`` for workload seed ``seed``."""
    if name not in GENERATORS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    generator, work_unit = GENERATORS[name]
    commands, files = generator(random.Random(f"{name}:{seed}"))
    return Workload(name, seed, work_unit, tuple(commands), files)
