"""Sampling-based falsifiers for incremental-stability certificates.

Three certificate notions are checked: incremental input-to-state stability
(IISS), incremental uniform bounded-input bounded-state stability (IUBIBSS),
and fiberwise practical stability. Each checker Sobol-samples its boxes,
evaluates the certificate conditions with a small numerical slack, and either
reports the worst violation (with a witness precise enough to re-evaluate) or
records that no counterexample was found.

A NO_COUNTEREXAMPLE verdict is evidence on the given boxes at the given sample
count; it is never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    Box,
    ComparisonFunction,
    ControlSystemDef,
    Decomposition,
    EvaluationError,
    InputError,
    VectorFieldDef,
)
from .numdiff import (
    batch_eval,
    batch_eval_pair,
    gradient_batch,
    jacobian_batch,
    pair_gradient_batch,
)
from .sampling import DEFAULT_SEED, sobol_blocks, sobol_points

NO_COUNTEREXAMPLE = "NO_COUNTEREXAMPLE"
COUNTEREXAMPLE = "COUNTEREXAMPLE"

EVIDENCE_NOTE = (
    "no counterexample found; sampling evidence on the recorded boxes only, "
    "not a proof"
)


def _slack(values) -> np.ndarray:
    """Numerical slack for sign/inequality checks: 1e-9 * (1 + |value|)."""
    return 1e-9 * (1.0 + np.abs(values))


@dataclass(frozen=True)
class ScalarFunctionDef:
    """A scalar function of one state ("state" arity) or of a state pair.

    ``fn`` maps (n,) -> float for state arity and ((n,), (n,)) -> float for
    pair arity; batched variants over (N, n) blocks are used when they work.
    ``grad`` is optional: the gradient for state arity, and a function
    returning the pair of block gradients for pair arity.
    """

    arity: str
    fn: Callable
    grad: Callable | None = None
    name: str = "V"

    def __post_init__(self):
        if self.arity not in ("state", "pair"):
            raise InputError(f"arity must be 'state' or 'pair', got {self.arity!r}")


@dataclass(frozen=True)
class IISSCertificate:
    """Candidate IISS Lyapunov data: sandwich bounds, decay rate, input gain."""

    V: ScalarFunctionDef
    alpha_lower: ComparisonFunction
    alpha_upper: ComparisonFunction
    alpha_decay: ComparisonFunction
    mu: ComparisonFunction

    def __post_init__(self):
        if self.V.arity != "pair":
            raise InputError("an IISS certificate needs a pair function V(x1, x2)")


@dataclass(frozen=True)
class IUBIBSSCertificate:
    """Candidate IUBIBSS Lyapunov data.

    The gain threshold used in the checks is mu(r) + mu_offset; the required
    inequality mu(r) + mu_offset >= r + xi forces a positive offset at r = 0,
    which the pure class-K-infinity families cannot supply on their own.
    """

    V: ScalarFunctionDef
    alpha_lower: ComparisonFunction
    alpha_upper: ComparisonFunction
    mu: ComparisonFunction
    xi: float
    mu_offset: float = 0.0

    def __post_init__(self):
        if self.V.arity != "pair":
            raise InputError("an IUBIBSS certificate needs a pair function V(x1, x2)")
        if not (self.xi > 0):
            raise InputError("threshold xi must be positive")
        if self.mu_offset < 0:
            raise InputError("mu_offset must be nonnegative")

    def gain(self, r):
        return self.mu.value(r) + self.mu_offset


@dataclass(frozen=True)
class FiberwiseCertificate:
    """Candidate fiberwise practical stability data for a decomposed field."""

    V: ScalarFunctionDef
    alpha_lower: ComparisonFunction
    alpha_upper: ComparisonFunction
    d_threshold: float = 0.0

    def __post_init__(self):
        if self.V.arity != "state":
            raise InputError("a fiberwise certificate needs a state function V(x)")
        if self.d_threshold < 0:
            raise InputError("d_threshold must be nonnegative")


@dataclass(frozen=True)
class Counterexample:
    """A re-evaluatable certificate violation."""

    condition: str
    magnitude: float
    sample_index: int
    point: dict
    observed: float
    bound: float


@dataclass(frozen=True)
class CertificateReport:
    verdict: str
    samples_checked: int
    boxes: dict
    counterexample: Counterexample | None = None
    condition_counts: dict = field(default_factory=dict)
    note: str = EVIDENCE_NOTE

    @property
    def passed(self) -> bool:
        return self.verdict == NO_COUNTEREXAMPLE


def _eval_V_pair(V: ScalarFunctionDef, X1, X2) -> np.ndarray:
    vals = batch_eval_pair(V.fn, X1, X2)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise EvaluationError(
            f"V produced a non-finite value at x1={X1[bad].tolist()}, "
            f"x2={X2[bad].tolist()}"
        )
    return vals


def _pair_grads(V: ScalarFunctionDef, X1, X2) -> tuple[np.ndarray, np.ndarray]:
    if V.grad is None:
        return pair_gradient_batch(V.fn, X1, X2)
    d = X1.shape[1]
    G = batch_eval(lambda x1, x2: np.hstack(V.grad(x1, x2)), X1, X2, out_dim=2 * d)
    return G[:, :d], G[:, d:]


def _state_grads(V: ScalarFunctionDef, X) -> np.ndarray:
    if V.grad is None:
        return gradient_batch(V.fn, X)
    return batch_eval(V.grad, X, out_dim=X.shape[1])


def _vdot_batch(
    V: ScalarFunctionDef, F: ControlSystemDef, X1, X2, U1, U2
) -> np.ndarray:
    g1, g2 = _pair_grads(V, X1, X2)
    F1 = _eval_control_batch(F, X1, U1)
    F2 = _eval_control_batch(F, X2, U2)
    out = np.einsum("ni,ni->n", g1, F1) + np.einsum("ni,ni->n", g2, F2)
    if not np.all(np.isfinite(out)):
        bad = int(np.argmax(~np.isfinite(out)))
        raise EvaluationError(
            f"non-finite derivative of V along F at x1={X1[bad].tolist()}"
        )
    return out


def _eval_control_batch(F: ControlSystemDef, X, U) -> np.ndarray:
    return batch_eval(F.rhs, X, U, out_dim=F.n)


def vdot(
    V: ScalarFunctionDef,
    F: ControlSystemDef,
    x1,
    x2,
    u1,
    u2,
) -> float:
    """Derivative of a pair function V along two copies of the dynamics.

    Returns grad_1 V . F(x1, u1) + grad_2 V . F(x2, u2), with analytic
    gradients when the certificate supplies them and central finite
    differences otherwise.
    """
    if V.arity != "pair":
        raise InputError("vdot needs a pair function V(x1, x2)")
    X1 = np.asarray(x1, dtype=float).reshape(1, -1)
    X2 = np.asarray(x2, dtype=float).reshape(1, -1)
    U1 = np.asarray(u1, dtype=float).reshape(1, -1)
    U2 = np.asarray(u2, dtype=float).reshape(1, -1)
    return float(_vdot_batch(V, F, X1, X2, U1, U2)[0])


def _worst(violations: np.ndarray, mask: np.ndarray) -> int | None:
    """Index of the largest violation within ``mask``, ties to the lowest index."""
    idx = np.flatnonzero(mask & (violations > 0))
    if idx.size == 0:
        return None
    order = np.argmax(violations[idx])
    return int(idx[order])


def _sandwich(mask, V, lo, hi) -> list:
    """The condition rows of lo <= V <= hi on the samples ``mask`` selects."""
    return [
        ("lower_bound", mask, (lo - V) - _slack(V), lo, V),
        ("upper_bound", mask, (V - hi) - _slack(V), V, hi),
    ]


def _falsify(
    sample_box: Box,
    parts: dict,
    n_samples: int,
    seed: int,
    conditions: Callable,
    boxes: dict,
    counts: Callable[[dict], dict],
    prior: Counterexample | None = None,
) -> CertificateReport:
    """Stream Sobol samples of ``sample_box`` and report the worst violation.

    ``parts`` names column slices of a sample. ``conditions`` gets those
    slices of one block of samples from ``sobol_blocks``, in order, and
    returns the block's table ``[(name, mask, violation, observed, bound),
    ...]``; a condition is violated where its mask holds and its violation is
    positive. Each condition keeps a running worst over the blocks, with a
    copy of its sample, ties going to the lowest sample index. After the last
    block the conditions are merged in table order behind ``prior`` (a
    violation found off the samples), and only a strictly larger violation
    displaces an earlier one; merging inside the block loop would break that
    tie rule. The witness records the parts by
    name; ``counts`` turns the samples each condition's mask selected into
    the report's condition counts.
    """
    worst = {}  # name -> (violation, sample index, observed, bound, sample)
    checked = {}
    for start, P in sobol_blocks(sample_box, n_samples, seed):
        table = conditions(*(P[:, cols] for cols in parts.values()))
        for name, mask, viol, observed, bound in table:
            checked[name] = checked.get(name, 0) + int(mask.sum())
            i = _worst(viol, mask)
            if i is not None and (name not in worst or viol[i] > worst[name][0]):
                worst[name] = (
                    viol[i], start + i, float(observed[i]), float(bound[i]), P[i].copy()
                )
    best = prior
    for name, *_ in table:
        if name in worst:
            mag, i, observed, bound, sample = worst[name]
            if best is None or mag > best.magnitude:
                point = {key: sample[cols] for key, cols in parts.items()}
                best = Counterexample(name, float(mag), i, point, observed, bound)
    report = dict(samples_checked=n_samples, boxes=boxes, condition_counts=counts(checked))
    if best is None:
        return CertificateReport(verdict=NO_COUNTEREXAMPLE, **report)
    return CertificateReport(
        verdict=COUNTEREXAMPLE,
        counterexample=best,
        note="counterexample found; violation exceeds the numerical slack",
        **report,
    )


def _pair_samples(F: ControlSystemDef, state_box: Box, input_box: Box):
    """The joint box of (x1, x2, u1, u2), its column slices and the report boxes."""
    if state_box.dim != F.n or input_box.dim != F.m_in:
        raise InputError("box dimensions do not match the control system")
    n, m = F.n, F.m_in
    joint = state_box.concat(state_box).concat(input_box).concat(input_box)
    parts = {
        "x1": slice(0, n),
        "x2": slice(n, 2 * n),
        "u1": slice(2 * n, 2 * n + m),
        "u2": slice(2 * n + m, None),
    }
    return joint, parts, {"state_box": state_box, "input_box": input_box}


def check_iiss(
    F: ControlSystemDef,
    cert: IISSCertificate,
    state_box: Box,
    input_box: Box,
    n_samples: int = 4096,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Falsify an IISS Lyapunov candidate on sampled state and input pairs.

    The sandwich condition alpha_lower(|x1-x2|) <= V <= alpha_upper(|x1-x2|)
    is checked at every sample; the decay condition Vdot <= -alpha(|x1-x2|)
    on the samples where |x1-x2| >= mu(|u1-u2|).
    """

    def conditions(X1, X2, U1, U2):
        dx = np.linalg.norm(X1 - X2, axis=1)
        du = np.linalg.norm(U1 - U2, axis=1)
        V = _eval_V_pair(cert.V, X1, X2)
        lo = cert.alpha_lower.value(dx)
        hi = cert.alpha_upper.value(dx)
        decay = cert.alpha_decay.value(dx)
        vd = _vdot_batch(cert.V, F, X1, X2, U1, U2)
        return [
            *_sandwich(np.ones(len(dx), bool), V, lo, hi),
            ("decay", dx >= cert.mu.value(du), (vd + decay) - _slack(vd), vd, -decay),
        ]

    def counts(checked):
        return {
            "sandwich_checked": checked["lower_bound"],
            "decay_checked": checked["decay"],
        }

    joint, parts, boxes = _pair_samples(F, state_box, input_box)
    return _falsify(joint, parts, n_samples, seed, conditions, boxes, counts)


def check_iubibss(
    F: ControlSystemDef,
    cert: IUBIBSSCertificate,
    state_box: Box,
    input_box: Box,
    n_samples: int = 4096,
    seed: int = DEFAULT_SEED,
    gain_grid: int = 1001,
) -> CertificateReport:
    """Falsify an IUBIBSS Lyapunov candidate.

    Three conditions: the sandwich bounds on samples with |x1-x2| >= xi, the
    gain inequality mu(r) + mu_offset >= r + xi on a 1-d grid over
    [0, diameter(input_box)], and Vdot <= 0 on samples with
    |x1-x2| >= mu(|u1-u2|) + mu_offset.
    """
    # condition 2 is deterministic in r; check it first on the grid
    r = np.linspace(0.0, input_box.diameter(), gain_grid)
    gain = cert.gain(r)
    gain_viol = (r + cert.xi - gain) - _slack(gain)
    i = _worst(gain_viol, np.ones_like(r, bool))
    prior = None
    if i is not None:
        prior = Counterexample(
            condition="gain_threshold",
            magnitude=float(gain_viol[i]),
            sample_index=i,
            point={"r": np.array([r[i]])},
            observed=float(gain[i]),
            bound=float(r[i] + cert.xi),
        )

    def conditions(X1, X2, U1, U2):
        dx = np.linalg.norm(X1 - X2, axis=1)
        du = np.linalg.norm(U1 - U2, axis=1)
        V = _eval_V_pair(cert.V, X1, X2)
        lo = cert.alpha_lower.value(dx)
        hi = cert.alpha_upper.value(dx)
        vd = _vdot_batch(cert.V, F, X1, X2, U1, U2)
        return [
            *_sandwich(dx >= cert.xi, V, lo, hi),
            ("decay", dx >= cert.gain(du), vd - _slack(vd), vd, np.zeros_like(vd)),
        ]

    def counts(checked):
        return {
            "sandwich_checked": checked["lower_bound"],
            "gain_grid": int(gain_grid),
            "decay_checked": checked["decay"],
        }

    joint, parts, boxes = _pair_samples(F, state_box, input_box)
    return _falsify(joint, parts, n_samples, seed, conditions, boxes, counts, prior)


def check_fiberwise(
    f: VectorFieldDef,
    d: Decomposition,
    cert: FiberwiseCertificate,
    box: Box,
    n_samples: int = 4096,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Falsify a fiberwise practical stability candidate on a box.

    Both conditions are restricted to samples whose fiber norm is at least
    ``cert.d_threshold``: the sandwich bounds in the fiber norm, and
    Vdot = grad V . f <= 0. A non-finite V or Vdot on such a sample is an
    evaluation error.
    """
    if box.dim != f.n or d.n != f.n:
        raise InputError("box and decomposition must match the field dimension")

    def conditions(X):
        fiber = np.linalg.norm(X[:, d.m :], axis=1)
        active = fiber >= cert.d_threshold
        V = batch_eval(cert.V.fn, X)
        _require_finite(V, active, X, "V produced a non-finite value")
        lo = cert.alpha_lower.value(fiber)
        hi = cert.alpha_upper.value(fiber)
        G = _state_grads(cert.V, X)
        vd = np.einsum("ni,ni->n", G, batch_eval(f.rhs, X, out_dim=f.n))
        _require_finite(vd, active, X, "non-finite derivative of V along f")
        return [
            *_sandwich(active, V, lo, hi),
            ("decay", active, vd - _slack(vd), vd, np.zeros_like(vd)),
        ]

    def counts(checked):
        return {"active_samples": checked["lower_bound"]}

    return _falsify(box, {"x": slice(None)}, n_samples, seed, conditions, {"box": box}, counts)


def _require_finite(values, active, X, what: str) -> None:
    """Raise ``EvaluationError`` at the first active sample with a non-finite value."""
    if not np.all(np.isfinite(values[active])):
        bad = int(np.argmax(active & ~np.isfinite(values)))
        raise EvaluationError(f"{what} at {X[bad].tolist()}")


def estimate_lipschitz(
    g: Callable,
    box: Box,
    n_samples: int = 1024,
    seed: int = DEFAULT_SEED,
    out_dim: int | None = None,
) -> float:
    """Sampled lower estimate of a Lipschitz constant on a box.

    Takes the maximum operator 2-norm of central-difference Jacobians at
    Sobol samples. Callers that need an upper bound should inflate the result
    by a safety factor (the bundled certificates use 1.2).
    """
    X = sobol_points(box, n_samples, seed)
    if out_dim is None:
        probe = np.atleast_1d(np.asarray(g(X[0]), dtype=float))
        out_dim = probe.shape[0]
    J = jacobian_batch(g, X, out_dim)
    if not np.all(np.isfinite(J)):
        bad = int(np.argmax((~np.isfinite(J.reshape(n_samples, -1))).any(axis=1)))
        raise EvaluationError(f"non-finite derivative at sample {X[bad].tolist()}")
    sv = np.linalg.svd(J, compute_uv=False)
    return float(sv[:, 0].max())
