"""Sampling-based falsifiers for incremental-stability certificates.

Three certificate notions are checked: incremental input-to-state stability
(IISS), incremental uniform bounded-input bounded-state stability (IUBIBSS),
and fiberwise practical stability. IISS and IUBIBSS share one certificate
type, ``IncrementalCertificate``, and one condition table; they differ only in
the threshold offset xi and in the decay bound, -alpha(|x1-x2|) for IISS and
0 for IUBIBSS (Angeli 2002). ``dataclasses.replace(cert, alpha_decay=None,
xi=xi)`` lifts an IISS certificate to an IUBIBSS one. Each checker
Sobol-samples its boxes, evaluates the certificate conditions with a small
numerical slack, and either reports the worst violation (with a witness
precise enough to re-evaluate) or records that no counterexample was found.

A certificate's V is one map of its argument blocks, a state ``(..., n)`` or
a state pair ``(..., n), (..., n)``, to the ``(..., 1 + sum n_j)`` array of its
value followed by its gradient along each argument in turn, as
``user_systems.compile_map`` computes it; each check evaluates it once per
block of samples. ``estimate_lipschitz`` takes an input coupling in the same
form, each output's value followed by its gradient, and reads the exact
Jacobian from it: nothing here differences numerically.

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
from .numdiff import batch_eval
from .sampling import DEFAULT_SEED, sobol_blocks, sobol_points

GAIN_GRID = 1001  # radii of the IUBIBSS gain-threshold grid

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
class IncrementalCertificate:
    """Candidate incremental Lyapunov data for a control system: a pair map
    V(x1, x2) with its gradient, sandwich bounds, an input gain ``mu``, a
    decay rate ``alpha_decay`` (None: no rate) and a threshold offset ``xi``.

    Its conditions: alpha_lower(|x1-x2|) <= V <= alpha_upper(|x1-x2|) where
    |x1-x2| >= xi, and Vdot <= -alpha_decay(|x1-x2|), or Vdot <= 0 without a
    rate, where |x1-x2| >= mu(|u1-u2|) + xi. IISS takes a rate and xi = 0.
    IUBIBSS takes a positive xi: its gain inequality mu(r) + xi >= r + xi
    needs an offset at r = 0 that the pure class-K-infinity families cannot
    supply on their own.
    """

    V: Callable
    alpha_lower: ComparisonFunction
    alpha_upper: ComparisonFunction
    mu: ComparisonFunction
    alpha_decay: ComparisonFunction | None = None
    xi: float = 0.0


@dataclass(frozen=True)
class FiberwiseCertificate:
    """Candidate fiberwise practical stability data for a decomposed field,
    with V a map of one state."""

    V: Callable
    alpha_lower: ComparisonFunction
    alpha_upper: ComparisonFunction
    d_threshold: float = 0.0

    def __post_init__(self):
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


def _value_and_grads(V: Callable, *blocks) -> tuple[np.ndarray, list[np.ndarray]]:
    """A certificate map's value column on paired sample rows, and its
    gradient columns split into one block per argument. The values are a
    copy: they outlive the block in the condition table, and a view would
    keep the whole output, gradients too, alive with them."""
    widths = [X.shape[1] for X in blocks]
    out = batch_eval(V, *blocks, out_dim=1 + sum(widths))
    return out[:, 0].copy(), np.split(out[:, 1:], np.cumsum(widths)[:-1], axis=1)


def _pair_terms(V: Callable, F: ControlSystemDef, X1, X2, U1, U2):
    """V at paired samples and its derivative along two copies of F; a
    non-finite value raises ``EvaluationError`` naming the first sample."""
    vals, (g1, g2) = _value_and_grads(V, X1, X2)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise EvaluationError(
            f"V produced a non-finite value at x1={X1[bad].tolist()}, "
            f"x2={X2[bad].tolist()}"
        )
    F1 = batch_eval(F.rhs, X1, U1, out_dim=F.n)
    F2 = batch_eval(F.rhs, X2, U2, out_dim=F.n)
    out = np.einsum("ni,ni->n", g1, F1) + np.einsum("ni,ni->n", g2, F2)
    if not np.all(np.isfinite(out)):
        bad = int(np.argmax(~np.isfinite(out)))
        raise EvaluationError(
            f"non-finite derivative of V along F at x1={X1[bad].tolist()}"
        )
    return vals, out


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
    the report's condition counts, and the note names each condition whose
    mask selected no sample at all.
    """
    worst = {}  # name -> (violation, sample index, observed, bound, sample)
    checked = {}
    with np.errstate(all="ignore"):  # a non-finite value raises EvaluationError
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
    untested = ", ".join(name for name, *_ in table if not checked[name])
    suffix = f"; no sample was tested for {untested}" if untested else ""
    if best is None:
        return CertificateReport(verdict=NO_COUNTEREXAMPLE, note=EVIDENCE_NOTE + suffix, **report)
    return CertificateReport(
        verdict=COUNTEREXAMPLE,
        counterexample=best,
        note="counterexample found; violation exceeds the numerical slack" + suffix,
        **report,
    )


def _check_pairs(
    F: ControlSystemDef,
    cert: IncrementalCertificate,
    state_box: Box,
    input_box: Box,
    n_samples: int,
    seed: int,
    prior: Counterexample | None = None,
    grid: dict | None = None,
) -> CertificateReport:
    """Falsify ``cert``'s sandwich and decay conditions on Sobol samples of
    (x1, x2, u1, u2); ``grid`` adds the counts of a check made off the
    samples, whose worst violation is ``prior``."""
    if state_box.dim != F.n or input_box.dim != F.m_in:
        raise InputError("box dimensions do not match the control system")

    def conditions(X1, X2, U1, U2):
        dx = np.linalg.norm(X1 - X2, axis=1)
        du = np.linalg.norm(U1 - U2, axis=1)
        V, vd = _pair_terms(cert.V, F, X1, X2, U1, U2)
        lo = cert.alpha_lower.value(dx)
        hi = cert.alpha_upper.value(dx)
        rate = cert.alpha_decay
        bound = np.zeros_like(vd) if rate is None else -rate.value(dx)
        return [
            *_sandwich(dx >= cert.xi, V, lo, hi),
            ("decay", dx >= cert.mu.value(du) + cert.xi, (vd - bound) - _slack(vd), vd, bound),
        ]

    def counts(checked):
        return {"sandwich_checked": checked["lower_bound"], **(grid or {}),
                "decay_checked": checked["decay"]}

    n, m = F.n, F.m_in
    joint = state_box.concat(state_box).concat(input_box).concat(input_box)
    parts = {"x1": slice(0, n), "x2": slice(n, 2 * n),
             "u1": slice(2 * n, 2 * n + m), "u2": slice(2 * n + m, None)}
    boxes = {"state_box": state_box, "input_box": input_box}
    return _falsify(joint, parts, n_samples, seed, conditions, boxes, counts, prior)


def check_iiss(
    F: ControlSystemDef,
    cert: IncrementalCertificate,
    state_box: Box,
    input_box: Box,
    n_samples: int = 4096,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Falsify an IISS Lyapunov candidate, which has a decay rate and xi = 0,
    on sampled state and input pairs: the sandwich bounds at every sample, and
    Vdot <= -alpha_decay(|x1-x2|) where |x1-x2| >= mu(|u1-u2|)."""
    if cert.alpha_decay is None or cert.xi != 0:
        raise InputError("an IISS certificate needs a decay rate alpha_decay and xi = 0")
    return _check_pairs(F, cert, state_box, input_box, n_samples, seed)


def check_iubibss(
    F: ControlSystemDef,
    cert: IncrementalCertificate,
    state_box: Box,
    input_box: Box,
    n_samples: int = 4096,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Falsify an IUBIBSS Lyapunov candidate, which has a positive xi: the
    certificate's sampled conditions, after the gain inequality
    mu(r) + xi >= r + xi on a 1-d grid over [0, diameter(input_box)]."""
    if not (cert.xi > 0):
        raise InputError("threshold xi must be positive")
    # the gain inequality is deterministic in r; check it first on the grid
    diameter = input_box.diameter()
    if not np.isfinite(diameter):
        raise EvaluationError(f"the input box's diameter {diameter} is not finite")
    r = np.linspace(0.0, diameter, GAIN_GRID)
    with np.errstate(over="ignore"):  # a gain beyond float range is inf, still >= r + xi
        gain = cert.mu.value(r) + cert.xi
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
    return _check_pairs(F, cert, state_box, input_box, n_samples, seed, prior,
                        {"gain_grid": GAIN_GRID})


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
        V, (G,) = _value_and_grads(cert.V, X)
        _require_finite(V, active, X, "V produced a non-finite value")
        lo = cert.alpha_lower.value(fiber)
        hi = cert.alpha_upper.value(fiber)
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
) -> float:
    """Sampled lower estimate of a Lipschitz constant on a box.

    ``g`` maps a block ``(N, d)`` to ``(N, k * (1 + d))``: each of its k
    outputs' value followed by its gradient, as ``user_systems.compile_map``
    computes it with ``wrt`` set to the d columns. The estimate is the
    largest operator 2-norm of that Jacobian at Sobol samples of the box.
    Callers that need an upper bound should inflate the result by a safety
    factor (the bundled certificates use 1.2).
    """
    X = sobol_points(box, n_samples, seed)
    with np.errstate(all="ignore"):  # a non-finite derivative raises below
        out = np.asarray(g(X), dtype=float)
    width = 1 + box.dim
    if out.ndim != 2 or len(out) != n_samples or out.shape[1] % width or not out.shape[1]:
        raise InputError(
            f"a map on {n_samples} rows returned shape {out.shape}, expected "
            f"({n_samples}, k*{width}): each output's value and its {box.dim} partials"
        )
    J = out.reshape(n_samples, -1, width)[:, :, 1:]
    if not np.all(np.isfinite(J)):
        bad = int(np.argmax((~np.isfinite(J.reshape(n_samples, -1))).any(axis=1)))
        raise EvaluationError(f"non-finite derivative at sample {X[bad].tolist()}")
    return float(np.linalg.svd(J, compute_uv=False)[:, 0].max())
