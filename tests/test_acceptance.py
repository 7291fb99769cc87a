"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with

    pytest tests/test_acceptance.py -v -s

Criteria with pinned numbers check production code against the frozen
reference values in reference_values.py (regenerated only by
scripts/compute_reference_values.py).
"""

import json
import math
import time

import numpy as np
import pytest

from approxred.cli import main
from approxred.core import Box, ControlSystemDef, VectorFieldDef
from approxred.integrate import IntegratorConfig, integrate_field
from approxred.reduction import measure_deviation
from approxred.stability import check_fiberwise, check_iiss, estimate_lipschitz
from approxred.systems import _compiled, lookup

from reference_values import (
    HOOP_ENDPOINT_T10,
    HOOP_LIPSCHITZ_COUPLING,
    HOOP_SUP_DEV_R5,
)

pytestmark = pytest.mark.acceptance


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_radius_sweep_monotonicity(tmp_path):
    """Deviation shrinks strictly, ratio <= 0.9 per doubling of the radius."""
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    rc = main(
        [
            "sweep",
            "--system",
            "ball-hoop",
            "--param",
            "R",
            "--values",
            "5,10,20,40",
            "--x0",
            "0.5,0.3",
            "--t-end",
            "20",
            "--out",
            str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if not line.startswith("#")
    ][1:]
    sups = [float(r[1]) for r in rows]
    assert len(sups) == 4
    assert all(b < a for a, b in zip(sups, sups[1:])), sups
    ratios = [b / a for a, b in zip(sups, sups[1:])]
    assert all(r <= 0.9 for r in ratios), ratios
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    report("1 (radius sweep monotonicity)")


def test_criterion_2_cart_sweep_boundedness():
    """Deviation stays inside the sanity envelope; reduced runs converge."""
    ic = np.array([1.0, 0.0, 0.5, 0.0])
    envelope = 100.0 * np.linalg.norm(ic)
    t0 = time.perf_counter()
    for d in (0.001, 0.01, 0.1, 1.0):
        entry = lookup("cart-pendulum", {"d": d})
        rep = measure_deviation(
            entry.field,
            entry.m,
            ic,
            IntegratorConfig(t_end=30.0),
            reduced=entry.reduced_override,
        )
        assert np.all(np.isfinite(rep.dev_series))
        assert rep.sup_dev <= envelope
        if d >= 0.1:
            start = np.linalg.norm(rep.reduced_states[0])
            end = np.linalg.norm(rep.reduced_states[-1])
            assert end < start, (d, start, end)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"cart sweep took {elapsed:.2f}s"
    report("2 (cart friction sweep boundedness)")


def _random_decoupled_config(rng, tmp_path, tag):
    """Block-triangular system with no coupling into the retained block."""
    n = int(rng.integers(3, 7))
    m = int(rng.integers(1, min(3, n - 1) + 1))
    k = n - m
    A = rng.uniform(-0.5, 0.5, (m, m)) - 2.0 * np.eye(m)
    B = rng.uniform(-0.5, 0.5, (k, k)) - 2.0 * np.eye(k)
    C = rng.uniform(-0.5, 0.5, (k, m))
    names = [f"y{i}" for i in range(m)] + [f"z{i}" for i in range(k)]
    rhs = []
    for i in range(m):
        rhs.append(" + ".join(f"({float(A[i, j])!r})*y{j}" for j in range(m)))
    for i in range(k):
        terms = [f"({float(C[i, j])!r})*y{j}" for j in range(m)]
        terms += [f"({float(B[i, j])!r})*z{j}" for j in range(k)]
        rhs.append(" + ".join(terms))
    doc = {
        "name": f"rand{tag}",
        "state": names,
        "m": m,
        "params": {},
        "rhs": rhs,
        "x0": [float(v) for v in rng.uniform(-1, 1, n)],
    }
    path = tmp_path / f"rand{tag}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_criterion_3_exact_reduction_oracle_equivalence(tmp_path):
    """Decoupled systems: positive verdict and matching trajectories."""
    rng = np.random.default_rng(20240811)
    t0 = time.perf_counter()
    for trial in range(5):
        path = _random_decoupled_config(rng, tmp_path, trial)
        ce_out = tmp_path / f"ce{trial}.json"
        rc = main(["check-exact", "--config", path, "--out", str(ce_out)])
        assert rc == 0
        assert json.loads(ce_out.read_text())["report"]["verdict"] == (
            "REDUCIBLE_UP_TO_TOL"
        )
        cmp_out = tmp_path / f"cmp{trial}.json"
        rc = main(
            [
                "compare",
                "--config",
                path,
                "--t-end",
                "5",
                "--format",
                "json",
                "--out",
                str(cmp_out),
            ]
        )
        assert rc == 0
        sup = json.loads(cmp_out.read_text())["summary"]["sup_dev"]
        assert sup <= 1e-7, (trial, sup)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
    report("3 (exact reduction oracle equivalence)")


def test_criterion_4_negative_exactness(tmp_path):
    """The hoop refuses exact reduction; the witness partial is checkable."""
    out = tmp_path / "ce.json"
    rc = main(["check-exact", "--system", "ball-hoop", "--out", str(out)])
    assert rc == 3
    doc = json.loads(out.read_text())
    witness = doc["report"]["witness"]
    assert (witness["component"], witness["fiber_index"]) == (0, 0)
    # the closed-form partial of the omega row along theta; the witness is a
    # central difference, whose round-off eps*|f|/h is about 1e-9
    p, theta = lookup("ball-hoop", {}).params, witness["point"][1]
    partial = abs(p["xi_hoop"] ** 2 * math.cos(2.0 * theta) - (p["g"] / p["R"]) * math.cos(theta))
    assert partial > doc["config"]["tol"]
    assert partial == pytest.approx(witness["magnitude"], rel=1e-8)
    report("4 (negative exactness witness)")


def test_criterion_5_lyapunov_closed_form():
    """grad V . f == -mu R^2 omega^2, and the fiberwise check is fast."""
    entry = lookup("ball-hoop", {})
    p = entry.params
    box = entry.default_box()
    rng = np.random.default_rng(29)
    X = rng.uniform(box.lower, box.upper, size=(10_000, 2))
    V = _compiled("ball-hoop", "V")(p)
    vd = np.einsum("ni,ni->n", V(X)[:, 1:], entry.field.rhs(X))
    expected = -p["mu"] * p["R"] ** 2 * X[:, 0] ** 2
    scale = np.maximum(np.abs(expected), 1e-12)
    assert np.max(np.abs(vd - expected) / scale) < 1e-9

    spec = entry.certificates["fiberwise"]()
    t0 = time.perf_counter()
    rep = check_fiberwise(
        entry.field, entry.m, spec.certificate, spec.state_box, n_samples=100_000
    )
    elapsed = time.perf_counter() - t0
    assert rep.verdict == "NO_COUNTEREXAMPLE"
    assert elapsed < 2.0, f"fiberwise check took {elapsed:.2f}s"
    report("5 (lyapunov closed form + fiberwise check)")


def test_criterion_6_iiss_certificate():
    """The velocity-gap certificate passes; flipping the friction breaks it."""
    entry = lookup("ball-hoop", {})
    spec = entry.certificates["iiss"]()  # estimates L with safety factor 1.2
    rep = check_iiss(
        spec.control, spec.certificate, spec.state_box, spec.input_box,
        n_samples=100_000,
    )
    assert rep.verdict == "NO_COUNTEREXAMPLE"
    assert rep.condition_counts["decay_checked"] > 1000

    p = entry.params
    coupling = _compiled("ball-hoop", "coupling")(p)  # its value, then its derivative

    def flipped_rhs(s, u):
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        return (+(p["mu"] / p["m"]) * s[..., 0] + coupling(u)[..., 0])[..., None]

    flipped = ControlSystemDef(n=1, m_in=1, rhs=flipped_rhs)
    rep2 = check_iiss(
        flipped, spec.certificate, spec.state_box, spec.input_box, n_samples=100_000
    )
    assert rep2.verdict == "COUNTEREXAMPLE"
    report("6 (iiss certificate, with corruption control)")


def test_criterion_7_integrator_order():
    """Halving dt cuts the rk4 endpoint error at least twelvefold, three times."""
    f = VectorFieldDef(n=1, rhs=lambda x: -x, name="decay")
    errors = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        traj = integrate_field(f, [1.0], IntegratorConfig(t_end=1.0, method="rk4", dt=dt))
        errors.append(abs(traj.states[-1][0] - math.exp(-1.0)))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert len(ratios) == 3
    assert all(r >= 12.0 for r in ratios), ratios
    report("7 (integrator order)")


def test_criterion_8_reproducibility(tmp_path):
    """The same sweep twice writes byte-identical files."""
    args = [
        "sweep",
        "--system",
        "cart-pendulum",
        "--param",
        "d",
        "--values",
        "0.001,0.01,0.1,1",
        "--t-end",
        "30",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report("8 (byte-identical reproducibility)")


def test_criterion_9_oracle_pinned_numerics():
    """Production code meets the independently computed reference values."""
    entry = lookup("ball-hoop", {})

    # endpoint: fixed-step production run vs high-accuracy adaptive reference
    traj = integrate_field(
        entry.field, [0.5, 0.3], IntegratorConfig(t_end=10.0, method="rk4", dt=1e-3)
    )
    assert traj.states[-1] == pytest.approx(HOOP_ENDPOINT_T10, abs=1e-6)

    # deviation supremum vs dense-output reference with exact reduced side
    rep = measure_deviation(
        entry.field, entry.m, [0.5, 0.3], IntegratorConfig(t_end=20.0)
    )
    assert rep.sup_dev == pytest.approx(HOOP_SUP_DEV_R5, rel=1e-4)

    # sampled Lipschitz estimate vs dense analytic-derivative grid
    L = estimate_lipschitz(
        _compiled("ball-hoop", "coupling")(entry.params), Box.from_pairs([(-0.3, 0.3)]),
        n_samples=2048,
    )
    assert L == pytest.approx(HOOP_LIPSCHITZ_COUPLING, abs=1e-3)
    report("9 (oracle-pinned numerics)")
